import csv
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import qchar.cli
from qchar import tensor_space
from qchar.cli import (
    UsageError,
    main,
    parse_shape,
    parse_weight,
    parse_window,
)
from qchar.laurent import constant


@pytest.fixture
def negated_zeta(monkeypatch):
    """Negate the quasi-R constant on one ordered sign pair for the test,
    by wrapping the pairwise step; every memo is cleared on the way in and
    when the constant is negated, so that no memoized image or block hides
    the fault (`tests/conftest.py` clears them on the way out, so that none
    carries it into later tests)."""

    def negate(si, sj):
        theta = tensor_space._theta

        def flipped(cur, i, j, signs, window, z):
            return theta(cur, i, j, signs, window, -z if (signs[i], signs[j]) == (si, sj) else z)

        monkeypatch.setattr(tensor_space, "_theta", flipped)
        qchar.clear_caches()

    qchar.clear_caches()
    return negate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGrammar:
    def test_parse_shape(self):
        shape = parse_shape("2,1:+ / 2:-")
        assert str(shape) == "2,1:+ / 2:-"

    def test_parse_shape_rejects_empty_part(self):
        with pytest.raises(UsageError):
            parse_shape("3,,2:+")

    def test_parse_shape_rejects_bad_sign(self):
        for text in ("2,1:x", "2,1:+-"):
            with pytest.raises(UsageError):
                parse_shape(text)

    def test_parse_window(self):
        assert parse_window("0..6") == (0, 6)
        with pytest.raises(UsageError):
            parse_window("06")

    def test_parse_weight(self):
        assert parse_weight("1:1,2:-1") == {1: 1, 2: -1}
        with pytest.raises(UsageError):
            parse_weight("1=1")

    def test_parse_weight_rejects_repeated_index(self, capsys):
        with pytest.raises(UsageError):
            parse_weight("1:1,1:0")
        argv = ["decompose", "--shape", "1:+ / 1:-", "--window", "1..2", "--weight", "1:1,1:0"]
        assert run(capsys, *argv)[0] == 2


class TestEnumerate:
    def test_std_listing_deterministic(self, capsys):
        args = [
            "enumerate",
            "--shape",
            "1,1:+",
            "--window",
            "1..3",
            "--kind",
            "std",
        ]
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert [t["row_reading"] for t in data["tableaux"]] == [
            [2, 1],
            [3, 1],
            [3, 2],
        ]

    def test_empty_window_exits_zero(self, capsys):
        code, out = run(
            capsys, "enumerate", "--shape", "2:+", "--window", "3..2", "--format", "text"
        )
        assert code == 0
        assert out == ""

    def test_malformed_shape_is_usage_error(self, capsys):
        code, _ = run(capsys, "enumerate", "--shape", "3,,2:+", "--window", "1..2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--shape", "1:+", "--window", "1..99999999999999999999"],
            ["dcb", "--space", "t", "--shape", "1:+", "--window", "1..99999999999999999999",
             "--weight", "1:1"],
            ["enumerate", "--shape", "99999999999999999999:+", "--window", "1..2"],
        ],
        ids=["enumerate-window", "dcb-window", "enumerate-part"],
    )
    def test_oversized_window_or_part_is_usage_error(self, capsys, argv):
        # a window width or shape part beyond sys.maxsize is named, not a traceback
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "99999999999999999999" in captured.err

    @pytest.mark.parametrize(
        "shape,window,weight",
        [("1:+ / 1:-", "1..2", "1:1,2:-1"), ("2,1:+ / 1:-", "1..3", "1:1,2:1")],
    )
    def test_rows_print_the_selected_signed_weight(self, capsys, shape, window, weight):
        argv = ["enumerate", "--shape", shape, "--window", window, "--kind", "row"]
        code, out = run(capsys, *argv, "--weight", weight)
        assert code == 0
        rows = json.loads(out)["tableaux"]
        assert rows
        expected = {a: int(c) for a, c in (chunk.split(":") for chunk in weight.split(","))}
        assert all(r["weight"] == expected for r in rows)


class TestOptions:
    # Each command takes only the options and formats it reads; anything
    # else is a usage error instead of being silently ignored.
    @pytest.mark.parametrize(
        "argv",
        [
            ["dcb", "--shape", "1:+", "--format", "csv"],
            ["report", "--shape", "1:+", "--window", "1..3"],
            ["decompose", "--shape", "1:+", "--jobs", "2"],
            ["dcb", "--shape", "1:+", "--jobs", "2"],
        ],
    )
    def test_unread_option_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestDcb:
    def test_tensor_block_matrix(self, capsys):
        code, out = run(
            capsys,
            "dcb",
            "--shape",
            "1,1:+",
            "--window",
            "1..2",
            "--space",
            "t",
            "--weight",
            "1:1,2:1",
        )
        assert code == 0
        blocks = json.loads(out)["blocks"]
        assert len(blocks) == 1
        assert blocks[0]["order"] == [[1, 2], [2, 1]]
        assert [0, 1, [[-1, "1"]]] in blocks[0]["canonical"]

    @pytest.mark.parametrize(
        "space, shape, window, solver, blocks, solves",
        [
            # one solve per composition of the shape's 3 or 4 boxes
            ("t", "3:+", "1..4", "_solve_T", 20, 4),
            ("s", "2,1:+ / 1:+", "1..6", "_solve_S", 126, 8),
        ],
    )
    def test_a_sweep_solves_each_weight_pattern_once(
        self, capsys, monkeypatch, space, shape, window, solver, blocks, solves
    ):
        # every block of a sweep is solved in this process, so all blocks of
        # one weight pattern share the standard block in the block memo
        qchar.clear_caches()
        calls = []
        solve = getattr(qchar.bases, solver)

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(qchar.bases, solver, counting)
        code, out = run(capsys, "dcb", "--space", space, "--shape", shape, "--window", window)
        assert code == 0
        assert len(json.loads(out)["blocks"]) == blocks
        assert len(calls) == solves

    @pytest.mark.parametrize(
        "shape, window, blocks, misses, hits",
        [
            # every block reads the one index of the window
            ("1:+ / 1:- / 1:+ / 1:-", "1..5", 131, 1, 131),
            # one-sign blocks also read the standard windows of their patterns
            ("3:+", "1..4", 20, 4, 1),
            ("5:+", "1..5", 126, 5, 12),
        ],
    )
    def test_a_tensor_sweep_keys_each_monomial_once(self, capsys, shape, window, blocks, misses, hits):
        qchar.clear_caches()
        code, out = run(capsys, "dcb", "--space", "t", "--shape", shape, "--window", window)
        assert code == 0
        assert len(json.loads(out)["blocks"]) == blocks
        info = qchar.MEMOS["monomials"].cache_info()
        assert (info.misses, info.hits) == (misses, hits)

    def test_p_space_runs(self, capsys):
        code, out = run(
            capsys, "dcb", "--shape", "1,1:+", "--window", "1..3", "--space", "p"
        )
        assert code == 0
        assert json.loads(out)["space"] == "p"


class TestDecompose:
    def test_rank_one_table(self, capsys):
        code, out = run(
            capsys,
            "decompose",
            "--shape",
            "1:+ / 1:+",
            "--window",
            "1..2",
            "--weight",
            "1:1,2:1",
        )
        assert code == 0
        table = json.loads(out)["tables"][0]
        # order entries serialize component-wise as row lists
        assert table["order"] == [[[[1]], [[2]]], [[[2]], [[1]]]]
        # Delta_in_L sparse entries [i, j, value]
        assert [0, 1, 1] in table["Delta_in_L"]
        assert [0, 0, 1] in table["Delta_in_L"]
        assert [1, 1, 1] in table["Delta_in_L"]

    def test_csv_format(self, capsys):
        code, out = run(
            capsys,
            "decompose",
            "--shape",
            "1:+ / 1:+",
            "--window",
            "1..2",
            "--weight",
            "1:1,2:1",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == ",1 / 2,2 / 1"

    def test_csv_rows_parse_with_comma_labels(self, capsys):
        # Labels such as "2|1,1 / 1" hold commas, so they must be quoted.
        args = ["decompose", "--shape", "2,1:+ / 1:-", "--window", "1..2"]
        code, out = run(capsys, *args)
        assert code == 0
        orders = [len(t["order"]) for t in json.loads(out)["tables"]]
        code, out = run(capsys, *args, "--format", "csv")
        assert code == 0
        tables, cur = [], []
        for row in csv.reader(out.splitlines()):
            if row:
                cur.append(row)
            else:
                tables.append(cur)
                cur = []
        tables.append(cur)
        assert [len(t) for t in tables] == [n + 1 for n in orders]
        for n, table in zip(orders, tables):
            assert all(len(row) == n + 1 for row in table)


class TestComputationErrors:
    # A solve that fails must end the command with a one-line error naming
    # the block, not with a traceback.  The failure is injected into the
    # packed solve (the `failing_solve` fixture of `tests/conftest.py`), on
    # a block that solves in T, S and P.
    PREFIX = "error: shape 1:+ / 1:+, window 1..2, weight {1: 1, 2: 1}: "

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--shape", "1:+ / 1:+", "--window", "1..2"],
            ["dcb", "--space", "p", "--shape", "1:+ / 1:+", "--window", "1..2"],
        ],
    )
    def test_solver_error_exits_one_without_traceback(self, capsys, failing_solve, argv):
        # the whole sweep: its first block of two labels fails
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith(self.PREFIX)

    @pytest.mark.parametrize("command", [["dcb", "--space", "p"], ["decompose"]])
    def test_solver_error_names_the_label_and_defect(self, capsys, failing_solve, command):
        argv = command + ["--shape", "1:+ / 1:+", "--window", "1..2", "--weight", "1:1,2:1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(self.PREFIX)
        assert "bar defect of 2 / 1 at 1 / 2: antisym_solve: " in err

    def test_out_of_memory_is_a_one_line_error(self, capsys, monkeypatch):
        calls = []

        def exhausted(*args):
            calls.append(args)
            raise MemoryError

        monkeypatch.setattr(qchar.bases, "_solve_T", exhausted)
        # a relabeled block: its standard block is solved through the block
        # memo, which does not keep a MemoryError
        argv = ["dcb", "--space", "t", "--shape", "1:+ / 1:+", "--window", "1..3", "--weight", "2:1,3:1"]
        for _ in range(2):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: shape 1:+ / 1:+, window 1..3, weight {2: 1, 3: 1}: out of memory\n"
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("bases.block_weights", ["dcb", "--space", "t", "--shape", "1:+ / 1:+", "--window", "1..3"]),
            ("bases.block_weights", ["dcb", "--space", "s", "--shape", "1:+ / 1:+", "--window", "1..3"]),
            ("bases.block_weights", ["decompose", "--shape", "1:+ / 1:+", "--window", "1..3"]),
            ("cli.enumerate_tableaux", ["enumerate", "--shape", "1:+ / 1:+", "--window", "1..3"]),
        ],
    )
    def test_out_of_memory_while_listing_is_a_one_line_error(self, capsys, monkeypatch, target, argv):
        # the listing of a sweep's block weights, or of enumerate's tableaux,
        # names the shape and window; no weight is known yet
        calls = []

        def exhausted(*args):
            calls.append(args)
            raise MemoryError

        module, name = target.split(".")
        monkeypatch.setattr(getattr(qchar, module), name, exhausted)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: shape 1:+ / 1:+, window 1..3: out of memory\n"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--shape", "1,1:+", "--window", "1..3", "--weight", "1:1,2:1"],
            ["dcb", "--space", "p", "--shape", "1,1:+", "--window", "1..3", "--weight", "1:1,2:1"],
        ],
    )
    def test_route_disagreement_names_the_block(self, capsys, monkeypatch, tmp_path, argv):
        def disagree(shape, window, mu):
            raise qchar.cli.bases.RouteDisagreement("dcb_P routes disagree at T")

        monkeypatch.setattr(qchar.cli.bases, "dcb_P", disagree)
        out_path = tmp_path / "out.json"
        for extra in ([], ["--out", str(out_path)]):
            code = main(argv + extra)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == (
                "error: shape 1,1:+, window 1..3, weight {1: 1, 2: 1}: "
                "dcb_P routes disagree at T\n"
            )
        assert not out_path.exists()


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out = run(capsys, "verify", "--suite", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert len(lines) == 7

    def test_single_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "theoremC")
        assert code == 0
        assert out.strip() == "PASS theoremC"

    def test_bar_suite_checks_E_and_F_commutation(self, negated_zeta):
        negated_zeta("+", "+")
        details = list(qchar.cli.SUITES["bar"]())
        assert {"E commutation", "F commutation"} <= {d["property"] for d in details}
        # a runs over 1..2 inside the window 1..3, so no action leaves it
        assert {d["a"] for d in details if "a" in d} == {1, 2}

    def test_hecke_suite_checks_the_braid_relation(self, monkeypatch):
        act = qchar.cli.hecke_act
        flip = {"+": "-", "-": "+"}

        def opposite_rule_at_2(i, x):
            # H_2 swaps with the other sign's case rule; H_2 still satisfies
            # the quadratic relation, so only a braid check can see it
            if i != 2:
                return act(i, x)
            signs = tuple(flip[s] for s in x.signs)
            y = act(i, tensor_space.TensorElement(signs, x.window, x.coeffs))
            return tensor_space.TensorElement(x.signs, x.window, y.coeffs)

        monkeypatch.setattr(qchar.cli, "hecke_act", opposite_rule_at_2)
        details = list(qchar.cli.SUITES["hecke"]())
        assert {d["relation"] for d in details} == {"braid"}
        assert {d["signs"] for d in details} == {("+", "+", "+"), ("-", "-", "-")}

    def test_a_symmetry_failure_names_its_block_and_map(self, capsys, monkeypatch):
        solve = qchar.bases._solve_T

        def perturbed(signs, window, mu):
            # the direct solve of every T block of two or more labels whose
            # first factor is "-": each sigma1 image of a "+" first factor
            # then differs from its block
            blk = solve(signs, window, mu)
            if signs[0] == "-" and len(blk.order) > 1:
                blk.canon[blk.order[1]][blk.order[0]] = constant(1)
            return blk

        monkeypatch.setattr(qchar.bases, "_solve_T", perturbed)
        code, out = run(capsys, "verify", "--suite", "symmetry")
        assert code == 1
        line, report = out.strip().splitlines()
        assert line == "FAIL symmetry"
        assert json.loads(report)["failures"] == [
            {
                "suite": "symmetry",
                "detail": {
                    "shape": "1:+ / 1:- / 1:+",
                    "window": [1, 5],
                    "weight": {"1": -1, "2": 1, "3": 1},
                    "space": "t",
                    "symmetry": "sigma1",
                },
            }
        ]

    def test_a_lattice_failure_names_its_window_and_label(self, capsys, monkeypatch):
        solve = qchar.bases.dcb_S

        def off_lattice(shape, window, mu):
            # a nonzero constant above the diagonal of every block of two or
            # more: it lies in neither q^-1 Z[q^-1] nor q Z[q]
            blk = solve(shape, window, mu)
            if len(blk.order) > 1:
                blk.canon[blk.order[1]][blk.order[0]] = constant(1)
            return blk

        monkeypatch.setattr(qchar.bases, "dcb_S", off_lattice)
        code, out = run(capsys, "verify", "--suite", "dcb")
        assert code == 1
        line, report = out.strip().splitlines()
        assert line == "FAIL dcb"
        assert json.loads(report)["failures"] == [
            {
                "suite": "dcb",
                "detail": {
                    "shape": "1:+ / 1:+",
                    "window": [1, 2],
                    "weight": {"1": 1, "2": 1},
                    "label": "2 / 1",
                    "property": "lattice",
                },
            }
        ]

    def test_an_identification_failure_names_its_window(self, capsys, monkeypatch):
        solve = qchar.bases.sym_ideal_dcb

        def other_canon(shape, window, mu):
            return dataclasses.replace(solve(shape, window, mu), canon={})

        monkeypatch.setattr(qchar.bases, "sym_ideal_dcb", other_canon)
        code, out = run(capsys, "verify", "--suite", "sameDCB")
        assert code == 1
        line, report = out.strip().splitlines()
        assert line == "FAIL sameDCB"
        assert json.loads(report)["failures"] == [
            {
                "suite": "sameDCB",
                "detail": {
                    "shape": "1,1:+",
                    "window": [1, 2],
                    "weight": {"1": 1, "2": 1},
                    "property": "identification",
                },
            }
        ]

    def test_a_nonvanishing_failure_names_its_window(self, capsys, monkeypatch):
        images = qchar.bases.xi_wedge_images

        def vanishing(shape, window):
            return {mt: el.scale(0) for mt, el in images(shape, window).items()}

        monkeypatch.setattr(qchar.bases, "xi_wedge_images", vanishing)
        code, out = run(capsys, "verify", "--suite", "xi")
        assert code == 1
        (failure,) = json.loads(out.strip().splitlines()[1])["failures"]
        assert failure["detail"]["shape"] == "2,1:+"
        assert failure["detail"]["window"] == [1, 3]
        assert failure["detail"]["property"] == "nonvanishing"

    def test_the_block_suites_name_a_failed_listing(self, capsys, monkeypatch):
        # dcb, sameDCB and symmetry list their blocks through
        # `cli._each_block`; xi lists its Col blocks inside the naming of its
        # whole computation
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(qchar.bases, "block_weights", exhausted)
        code, out = run(capsys, "verify", "--suite", "all")
        assert code == 1
        *lines, report = out.strip().splitlines()
        assert lines == [
            "PASS hecke", "PASS bar", "FAIL dcb", "FAIL xi", "PASS theoremC", "FAIL sameDCB", "FAIL symmetry"
        ]
        details = {f["suite"]: f["detail"] for f in json.loads(report)["failures"]}
        assert details["dcb"] == {"error": "shape 1:+ / 1:+, window 1..2: out of memory"}
        assert details["xi"] == {"error": "shape 2,1:+, window 1..3: out of memory"}
        assert details["sameDCB"] == {"error": "shape 1,1:+, window 1..2: out of memory"}
        assert details["symmetry"] == {"error": "shape 1:+ / 1:- / 1:+, window 1..5: out of memory"}

    def test_a_raising_suite_fails_and_the_rest_run(self, capsys, negated_zeta):
        negated_zeta("-", "-")
        code, out = run(capsys, "verify", "--suite", "all")
        assert code == 1
        *lines, report = out.strip().splitlines()
        assert [line.split()[1] for line in lines] == list(qchar.cli.SUITES)
        details = {f["suite"]: f["detail"] for f in json.loads(report)["failures"]}
        assert details["dcb"]["error"].startswith("shape 2:+ / 1,1:-, window 1..2, weight ")
        assert details["xi"]["error"].startswith("shape 2,1:-, window 1..3: ")


class TestClosedPipe:
    def test_a_closed_stdout_ends_the_command_without_a_traceback(self):
        # about 210 kB of JSON, more than a pipe holds: the writes meet the
        # closed pipe whatever the timing
        argv = ["dcb", "--space", "s", "--shape", "2,1:+ / 1:+", "--window", "1..4"]
        src = pathlib.Path(qchar.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="error")
        cmd = [sys.executable, "-m", "qchar.cli", *argv]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            assert len(child.stdout.read(100)) == 100
            child.stdout.close()
            try:
                code = child.wait(timeout=120)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
            err = child.stderr.read()
        assert code == 1
        assert err == b""


class TestReport:
    SHAPE = "3,3,1:+ / 4,2:+ / 2:- / 3,1:-"

    def test_g0_line(self, capsys):
        code, out = run(capsys, "report", "--shape", self.SHAPE, "--format", "text")
        assert code == 0
        assert "g(0) = gl_{5|3}⊕gl_{4|2}⊕gl_{3|1}⊕gl_1" in out.splitlines()

    def test_other_sign_sequence(self, capsys):
        code, out = run(
            capsys,
            "report",
            "--shape",
            "3,3,1:+ / 4,2:- / 2:+ / 3,1:-",
            "--format",
            "text",
        )
        assert code == 0
        assert "g(0) = gl_{4|4}⊕gl_{3|3}⊕gl_{2|2}⊕gl_1" in out.splitlines()

    def test_json_report(self, capsys):
        code, out = run(capsys, "report", "--shape", self.SHAPE, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["g0"] == ["gl_{5|3}", "gl_{4|2}", "gl_{3|1}", "gl_1"]

    def test_bad_theta_is_usage_error(self, capsys):
        code, _ = run(
            capsys, "report", "--shape", self.SHAPE, "--theta", "0,1,2,x"
        )
        assert code == 2

    @pytest.mark.parametrize("theta", ["3", "1,2"])
    def test_theta_against_the_shape_is_usage_error(self, capsys, theta):
        # one value for two pieces; values that do not strictly decrease
        code, _ = run(capsys, "report", "--shape", "2:+ / 1:-", "--theta", theta)
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out = run(
            capsys, "report", "--shape", self.SHAPE, "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["shape"] == self.SHAPE


class TestOut:
    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, target):
        path = str(tmp_path / target)
        code = main(["dcb", "--shape", "1,1:+", "--window", "1..3", "--out", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --out {path!r}: ")
        assert "Traceback" not in captured.err


# SHA-256 of stdout, recorded before the single-implementation refactor of the
# solver layers; the JSON is the contract and must stay byte-identical.
GOLDEN = [
    (
        ["dcb", "--space", "s", "--shape", "2,1:+", "--window", "1..3"],
        "a4bc2113f73e34a255e58b24d33576ceab6624f6bc1ee30232b60b00e5298e4a",
    ),
    (
        ["dcb", "--space", "t", "--shape", "1:+ / 1:-", "--window", "1..3"],
        "a14786a0724a9c38aaf9860d3cde77ce95289fe20dd87474f04753f4a79dc34c",
    ),
    (
        ["dcb", "--space", "p", "--shape", "1,1:+", "--window", "1..3"],
        "4821b5def438225358d8afaf9d0807faf1b70832da9bca7eec34ac68ee1aa852",
    ),
    (
        ["decompose", "--shape", "1:+ / 1:+", "--window", "1..2"],
        "ac9a5e8c76faec45e9160adb38448f9e19aa69bba67cd2619a08abb06ba7d8c5",
    ),
    # Re-recorded when each row's "weight" became the signed weight: the
    # 2:- piece counts -1 per entry, as --weight and the blocks count it.
    (
        ["enumerate", "--shape", "2,1:+ / 2:-", "--kind", "std", "--window", "0..2"],
        "7d4f065d09c0e4def69826bf8b60b58088e0b3abb5cc5a322cd18f0b978ede49",
    ),
    # Recorded before weight selection and grouping moved into tensor_space;
    # re-recorded when each row's "weight" became the signed weight, which
    # is now the --weight 1:1,2:1 the rows were selected by.
    (
        ["enumerate", "--shape", "2,1:+ / 1:-", "--kind", "row", "--window", "1..3",
         "--weight", "1:1,2:1"],
        "5851839b4a1257a02372b67562c3f36a9d48c0e96560d3abb094b34bc45d152b",
    ),
    (
        ["enumerate", "--shape", "2,1:+ / 1:-", "--kind", "col", "--window", "1..3",
         "--weight", "2:1,3:1", "--format", "csv"],
        "ace1eed55cebd3269c0c5d5325113079c106d83ae161a80db9cd75298ee4de84",
    ),
    # Recorded before each enumerate format began to build only the fields
    # it prints (648 rows).
    (
        ["enumerate", "--shape", "2,2:+ / 2,1:-", "--kind", "row", "--window", "1..3",
         "--format", "text"],
        "88a8de87b54cd63e2509fe66cb17588523c8054895a6d33b0488985f9157bb37",
    ),
    (
        ["dcb", "--space", "t", "--shape", "1:+ / 1:- / 1:+", "--window", "1..3"],
        "73f30447be446e0e6a40929b64c0be20720133f0bca018bba92021dfa82045fd",
    ),
    (
        ["decompose", "--shape", "1:+ / 1:- / 1:+", "--window", "1..3"],
        "f8679ca43476c51c489a36414cf1d813915e28d9b5b958852b2bbb4de1ba9e14",
    ),
    # Recorded before the Hecke action, the symmetrizers and the module
    # element algebra were rebuilt: both run kappa's antisymmetrizer and the
    # braiding word through hecke_act.
    (
        ["dcb", "--space", "p", "--shape", "2,1:+", "--window", "1..3"],
        "44e97bd1874603aa8c73b893a9a75bbab428fe07690d8fe9c825427f60a4c952",
    ),
    (
        ["decompose", "--shape", "2,1:+", "--window", "1..4", "--format", "latex"],
        "2f7d721f7adb2b4b09117efbc648ce6394ea4d0b53b7d7d53443bb06b40d71e8",
    ),
    # Recorded when block LaTeX cells began to brace their exponents
    # (q^{-1}, not q^-1); the output is otherwise the one of the shared
    # sparse JSON and LaTeX writers.
    (
        ["dcb", "--space", "s", "--shape", "2,1:+ / 1:+", "--window", "1..3",
         "--format", "latex"],
        "199a13543193d04ef1c463b9960461eb830c8adfc12095658bd71493675a9b46",
    ),
    (
        ["decompose", "--shape", "2,1:+", "--window", "1..4", "--format", "csv"],
        "f453e9edbe0cce494a2e906ecb6ad16800c333e0e9b83397d7c3275c5b6a7a60",
    ),
    # Recorded before the pyramid report became its own JSON data: both the
    # JSON and the text view read that one dict.
    (
        ["report", "--shape", "3,3,1:+ / 4,2:- / 2:+ / 3,1:-"],
        "32c8a7a7af581378d5b0eebf30324bd0c3bc262a616fc1a464f0504539a9eb75",
    ),
    (
        ["report", "--shape", "3,3,1:+ / 4,2:- / 2:+ / 3,1:-", "--format", "text"],
        "b32a7952fec35fd3efbba2337655ae75e2ade047d96bbdd2cb8c203c38c4edd6",
    ),
    (
        ["report", "--shape", "3,3,1:+ / 4,2:+ / 2:- / 3,1:-", "--theta", "9,5,2,0"],
        "17e8ab39454fb113337bca1b4e4cc95eac58ad97c7a3fb3dbd4dd0e60a3707be",
    ),
    (
        ["report", "--shape", "4:- / 2,2:+", "--format", "text"],
        "f0e26a9ee7e89a31a8ac34145346fb36bdb26179726dcc5d6254f36f0ca64872",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_output(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _is_json(argv) -> bool:
    return "--format" not in argv or argv[argv.index("--format") + 1] == "json"


def _spy_json(monkeypatch):
    """Wrap `cli._json`; return the list of (data, pieces) of its calls."""
    calls = []
    write = qchar.cli._json

    def spy(data):
        pieces = []
        calls.append((data, pieces))
        for piece in write(data):
            pieces.append(piece)
            yield piece

    monkeypatch.setattr(qchar.cli, "_json", spy)
    return calls


@pytest.mark.parametrize(
    "argv", [a for a, _ in GOLDEN if _is_json(a)], ids=[" ".join(a) for a, _ in GOLDEN if _is_json(a)]
)
def test_golden_json_output_is_the_json_dumps_of_its_data(capsys, monkeypatch, argv):
    calls = _spy_json(monkeypatch)
    code, out = run(capsys, *argv)
    assert code == 0
    [(data, _)] = calls
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"


_JSON_CHARS = st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\x80é€ 😀'), st.characters())
_JSON_TEXT = st.text(_JSON_CHARS, max_size=6)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _JSON_TEXT,
)


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=5),
            st.tuples(kids, kids),
            st.dictionaries(_JSON_TEXT, kids, max_size=5),
        ),
        max_leaves=40,
    )


@st.composite
def _json_data(draw):
    """JSON data holding one list object at any number of places and depths."""
    shared = draw(st.lists(_json_trees(_JSON_LEAVES), max_size=4))
    return draw(_json_trees(st.one_of(_JSON_LEAVES, st.just(shared))))


class TestJsonWriter:
    """`cli._json` writes the bytes of `json.dumps(indent=2, sort_keys=True)`
    and a newline, in pieces of about `cli._PIECE` characters."""

    @settings(max_examples=100, deadline=None)
    @given(data=_json_data())
    def test_bytes_are_those_of_json_dumps(self, data):
        expected = json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert "".join(qchar.cli._json(data)) == expected
        # lists written item by item, pieces closed after every item and at
        # most one list's text kept
        with (
            mock.patch.object(qchar.cli, "_WHOLE", 1),
            mock.patch.object(qchar.cli, "_PIECE", 1),
            mock.patch.object(qchar.cli, "_TEXTS", 1),
        ):
            assert "".join(qchar.cli._json(data)) == expected

    @pytest.mark.parametrize("data", [{"a": {1, 2}}, [1.5], {1: "a"}, {None: 1}], ids=repr)
    def test_a_value_the_commands_do_not_write_raises_type_error(self, data):
        with pytest.raises(TypeError):
            "".join(qchar.cli._json(data))

    def test_one_write_call_per_bounded_piece_on_an_unbuffered_stdout(self, monkeypatch):
        class Raw(io.RawIOBase):
            def __init__(self):
                self.writes = []

            def writable(self):
                return True

            def write(self, b):
                self.writes.append(bytes(b).decode())
                return len(b)

        raw = Raw()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        calls = _spy_json(monkeypatch)
        # about 210 kB of JSON
        assert main(["dcb", "--space", "s", "--shape", "2,1:+ / 1:+", "--window", "1..4"]) == 0
        [(data, pieces)] = calls
        assert raw.writes == pieces
        assert "".join(pieces) == json.dumps(data, indent=2, sort_keys=True) + "\n"
        piece = qchar.cli._PIECE
        assert len(pieces) > 2
        assert all(piece <= len(p) < piece + 4096 for p in pieces[:-1])
        assert len(pieces[-1]) < piece + 4096
