import csv
import dataclasses
import hashlib
import json

import pytest

import qchar.cli
from qchar import tensor_space
from qchar.cli import (
    UsageError,
    main,
    parse_shape,
    parse_weight,
    parse_window,
)
from qchar.laurent import q_power


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
    # The P-layer defect is still open on this shape: the commands must fail
    # with a one-line error naming the block, not with a traceback.
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--shape", "1,1:+ / 1:-", "--window", "1..3"],
            ["dcb", "--space", "p", "--shape", "1,1:+ / 1:-", "--window", "1..3"],
        ],
    )
    def test_solver_error_exits_one_without_traceback(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: shape 1,1:+ / 1:-, window 1..3, weight {2: 1}: ")

    @pytest.mark.parametrize("command", [["dcb", "--space", "p"], ["decompose"]])
    def test_solver_error_names_the_label_and_defect(self, capsys, command):
        argv = command + ["--shape", "1,1:+ / 1:-", "--window", "1..3", "--weight", "2:1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "bar defect of 3|2 / 3 at 2|1 / 1: antisym_solve: " in err

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
        assert len(lines) == 6

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

    def test_a_lattice_failure_names_its_window_and_label(self, capsys, monkeypatch):
        solve = qchar.bases.dcb_S

        def off_lattice(shape, window, mu):
            # a q-lattice entry above the diagonal of every block of two or more
            blk = solve(shape, window, mu)
            if len(blk.order) > 1:
                blk.canon[blk.order[1]][blk.order[0]] = q_power(1)
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

    def test_a_raising_suite_fails_and_the_rest_run(self, capsys, negated_zeta):
        negated_zeta("-", "-")
        code, out = run(capsys, "verify", "--suite", "all")
        assert code == 1
        *lines, report = out.strip().splitlines()
        assert [line.split()[1] for line in lines] == list(qchar.cli.SUITES)
        details = {f["suite"]: f["detail"] for f in json.loads(report)["failures"]}
        assert details["dcb"]["error"].startswith("shape 2:+ / 1,1:-, window 1..2, weight ")
        assert details["xi"]["error"].startswith("shape 2,1:-, window 1..3: ")


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
