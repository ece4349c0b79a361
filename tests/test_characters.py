import collections
import hashlib
import json

import pytest

import qchar.bases
import qchar.characters
import qchar.cli
from orders import weight_blocks
from qchar.characters import (
    VermaSum,
    decomposition_matrix,
    expand_N,
    expand_standard,
    normalize_verma,
    simple_character,
    theoremC_check,
    weight_label,
)
from qchar.combinatorics import (
    MultiTableau,
    Partition,
    SignedMultiPartition,
    Tableau,
    enumerate_tableaux,
    multi_tableau_from_row_reading,
)


def MP(*pieces):
    return SignedMultiPartition(tuple((Partition(p), s) for p, s in pieces))


def MT(shape, reading):
    return multi_tableau_from_row_reading(shape, tuple(reading))


class TestNormalizeVerma:
    def test_row_input_fixed(self):
        shape = MP(((2,), "+"))
        mt = MT(shape, (1, 2))
        assert normalize_verma(shape, (1, 2)) is mt

    def test_plus_row_sorted_increasing(self):
        shape = MP(((3,), "+"))
        assert normalize_verma(shape, (3, 1, 2)) == MT(shape, (1, 2, 3))

    def test_minus_row_sorted_decreasing(self):
        shape = MP(((3,), "-"))
        assert normalize_verma(shape, (1, 3, 3)) == MT(shape, (3, 3, 1))


class TestVermaSum:
    def test_rejects_unnormalized_keys(self):
        shape = MP(((2,), "+"))
        with pytest.raises(ValueError):
            VermaSum(shape, {MT(shape, (2, 1)): 1})

    def test_addition_cancels(self):
        shape = MP(((2,), "+"))
        mt = MT(shape, (1, 2))
        total = VermaSum(shape, {mt: 1}) + VermaSum(shape, {mt: -1})
        assert total.is_zero()


class TestExpandStandard:
    def test_single_rows_give_single_class(self):
        shape = MP(((2,), "+"), ((3,), "-"))
        mt = MT(shape, (1, 2, 3, 2, 1))
        vs = expand_standard(mt)
        assert vs.coeffs == {mt: 1}

    def test_rank_one_column(self):
        shape = MP(((1, 1), "+"))
        mt = MT(shape, (2, 1))  # Std: 2 on top of 1
        vs = expand_standard(mt)
        assert vs.coeffs == {MT(shape, (2, 1)): 1, MT(shape, (1, 2)): -1}

    def test_sign_mass_vanishes_with_tall_column(self):
        shape = MP(((2, 1), "+"))
        for mt in enumerate_tableaux(shape, "std", (1, 3)):
            assert sum(expand_standard(mt).coeffs.values()) == 0

    def test_rejects_non_std(self):
        shape = MP(((1, 1), "+"))
        with pytest.raises(ValueError):
            expand_standard(MT(shape, (1, 1)))


class TestExpandN:
    def test_height_one_columns_single_class(self):
        shape = MP(((2,), "+"), ((1,), "-"))
        mt = MT(shape, (1, 2, 4))
        assert expand_N(mt).coeffs == {mt: 1}

    def test_single_column_weyl_expansion(self):
        shape = MP(((1, 1), "+"))
        mt = MT(shape, (2, 1))
        assert expand_N(mt).coeffs == expand_standard(mt).coeffs

    def test_theoremC_shapes(self):
        for shape, window in [
            (MP(((2, 1), "+"), ((2,), "-")), (0, 2)),
            (MP(((1, 1), "+"), ((2,), "+")), (1, 3)),
        ]:
            rep = theoremC_check(shape, window)
            assert rep["pass"], rep
            assert rep["checked"] > 0

    def test_theoremC_detects_corruption(self, capsys, monkeypatch):
        # Fault injection: a sign flip in the column-wise path must be
        # reported, by the check and by the verify suite.
        real = expand_N
        monkeypatch.setattr(qchar.characters, "expand_N", lambda mt: real(mt).scale(-1))
        shape, window = MP(((2, 1), "+"), ((2,), "-")), (0, 2)
        rep = theoremC_check(shape, window)
        assert rep["pass"] is False
        found = rep["first_discrepancy"]
        assert set(found) == {"tableau", "standard", "parabolic"}
        assert found["standard"] != found["parabolic"]
        assert qchar.cli.main(["verify", "--suite", "theoremC"]) == 1
        line, report = capsys.readouterr().out.strip().splitlines()
        assert line == "FAIL theoremC"
        detail = json.loads(json.dumps(rep))
        assert json.loads(report)["failures"] == [{"suite": "theoremC", "detail": detail}]


class TestVermaGolden:
    # SHA-256 over expand_standard(mt).to_json() and expand_N(mt).to_json()
    # of every Std label of the two theoremC shapes and of 2,1:- / 1:+,
    # recorded while both expansions still rebuilt each permuted filling as
    # a multi-tableau from its columns.
    @pytest.mark.parametrize(
        "pieces, window, count, digest",
        [
            ((((2, 1), "+"), ((2,), "-")), (0, 2), 48,
             "75b987bc307fd9e42f430b8bc77cadb53c05ffa6dde412b58aaf0fd81539bcb3"),
            ((((1, 1), "+"), ((2,), "+")), (1, 3), 18,
             "d1a1b7afe30a218098e724c2d04f245b0858a63561c795d9ee56f14aaa03baf0"),
            ((((2, 1), "-"), ((1,), "+")), (1, 3), 24,
             "67fdd29d6d5a07aedcde45ca5c41ffcf5db05781281be6c44b12b7500cebc5f0"),
        ],
    )
    def test_expansions_match_the_recorded_digest(self, pieces, window, count, digest):
        h = hashlib.sha256()
        labels = enumerate_tableaux(MP(*pieces), "std", window)
        for mt in labels:
            for vs in (expand_standard(mt), expand_N(mt)):
                h.update(json.dumps(vs.to_json()).encode())
                h.update(b"\n")
        assert len(labels) == count
        assert h.hexdigest() == digest


class TestDecompositionMatrix:
    def test_singleton_block(self):
        shape = MP(((2,), "+"))
        tbl = decomposition_matrix(shape, (1, 2), {1: 1, 2: 1})
        assert tbl.L_in_Delta == ((tbl.L_in_Delta[0][0],),)
        assert tbl.Delta_in_L == ((1,),)

    def test_rank_one_pattern(self):
        shape = MP(((1,), "+"), ((1,), "+"))
        tbl = decomposition_matrix(shape, (1, 2), {1: 1, 2: 1})
        assert [str(t) for t in tbl.order] == ["1 / 2", "2 / 1"]
        mat = [[tbl.Delta_in_L[j][i] for j in range(2)] for i in range(2)]
        assert mat == [[1, 1], [0, 1]]

    def test_nonnegative_entries(self):
        for shape, window in [
            (MP(((1, 1), "+")), (1, 3)),
            (MP(((2,), "+"), ((1, 1), "-")), (1, 2)),
            (MP(((2, 1), "+")), (1, 3)),
        ]:
            for mu, _ in weight_blocks(shape, window, "std"):
                tbl = decomposition_matrix(shape, window, mu)
                assert all(e >= 0 for row in tbl.Delta_in_L for e in row), (
                    shape,
                    mu,
                    tbl.Delta_in_L,
                )

    def test_refined_shape_matches_dcb_S(self):
        # On a fully refined shape (single-row pieces) the standard basis is
        # the monomial basis, so the table specializes dcb_S directly.
        from qchar.bases import dcb_S
        from qchar.laurent import ZERO

        shape = MP(((2,), "+"), ((1,), "+"))
        window = (1, 2)
        for mu, _ in weight_blocks(shape, window, "std"):
            tbl = decomposition_matrix(shape, window, mu)
            blk = dcb_S(shape, window, mu)
            assert tbl.order == blk.order
            for j, t in enumerate(blk.order):
                for i, g in enumerate(blk.order):
                    assert tbl.L_in_Delta[j][i] == blk.canon[t].get(g, ZERO)

    def test_csv_and_latex_emit(self):
        shape = MP(((1,), "+"), ((1,), "+"))
        tbl = decomposition_matrix(shape, (1, 2), {1: 1, 2: 1})
        csv = tbl.to_csv()
        assert csv.splitlines()[0] == ",1 / 2,2 / 1"
        assert "\\begin{tabular}" in tbl.to_latex()

    def test_json_fields(self):
        shape = MP(((1,), "+"), ((1,), "+"))
        tbl = decomposition_matrix(shape, (1, 2), {1: 1, 2: 1})
        data = tbl.to_json()
        assert set(data) == {
            "shape",
            "window",
            "weight",
            "order",
            "L_in_Delta",
            "Delta_in_L",
        }


class TestSimpleCharacter:
    def test_label_outside_window_is_value_error(self):
        shape = MP(((1,), "+"), ((1,), "+"))
        with pytest.raises(ValueError, match=r"3 / 3.*\(1, 2\)"):
            simple_character(MT(shape, (3, 3)), (1, 2))

    def test_minimal_label_is_standard(self):
        shape = MP(((1,), "+"), ((1,), "+"))
        mt = MT(shape, (1, 2))
        dexp, verma = simple_character(mt, (1, 2))
        assert dexp == {mt: 1}
        assert verma.coeffs == expand_standard(mt).coeffs

    def test_rank_one_signs(self):
        shape = MP(((1,), "+"), ((1,), "+"))
        upper = MT(shape, (2, 1))
        lower = MT(shape, (1, 2))
        dexp, verma = simple_character(upper, (1, 2))
        assert dexp == {upper: 1, lower: -1}
        expected = expand_standard(upper) + expand_standard(lower).scale(-1)
        assert verma.coeffs == expected.coeffs

    def test_round_trip_against_table(self):
        shape, window = MP(((2,), "+"), ((1, 1), "-")), (1, 2)
        for mu, _ in weight_blocks(shape, window, "std"):
            tbl = decomposition_matrix(shape, window, mu)
            n = len(tbl.order)
            for j in range(n):
                acc: dict = {}
                for i in range(n):
                    mult = tbl.Delta_in_L[j][i]
                    if not mult:
                        continue
                    dexp, _ = simple_character(tbl.order[i], window)
                    for g, c in dexp.items():
                        acc[g] = acc.get(g, 0) + mult * c
                assert {g: c for g, c in acc.items() if c} == {tbl.order[j]: 1}


MEMO_CASES = [
    (MP(((1,), "+"), ((1,), "-"), ((1,), "+")), (1, 3)),
    (MP(((2, 1), "+"), ((1,), "-")), (1, 3)),
]


def character_or_error(mt, window):
    """The simple character as comparable data, or the error it raises as
    its type and message."""
    try:
        dexp, verma = simple_character(mt, window)
    except Exception as err:  # the P defect raises on some blocks
        return type(err), str(err)
    return dexp, verma.coeffs


def snapshot(cols):
    """A copy of label-keyed Laurent columns that shares no dict with them."""
    return {t: {g: dict(c.terms) for g, c in col.items()} for t, col in cols.items()}


class TestSolvedBlockMemo:
    @pytest.fixture(autouse=True)
    def cold(self):
        qchar.clear_caches()

    @pytest.mark.parametrize("shape, window", MEMO_CASES, ids=str)
    def test_warm_and_cleared_memo_agree(self, shape, window):
        labels = enumerate_tableaux(shape, "std", window)
        warm = [character_or_error(mt, window) for mt in labels]
        assert qchar.MEMOS["blocks"].cache_info().hits > 0
        cold = []
        for mt in labels:
            qchar.MEMOS["blocks"].cache_clear()
            cold.append(character_or_error(mt, window))
        assert cold == warm

    def test_one_dcb_P_per_block(self, monkeypatch):
        shape, window = MEMO_CASES[0]
        by_block = collections.defaultdict(list)
        for mt in enumerate_tableaux(shape, "std", window):
            by_block[mt.signed_key].append(mt)
        labels = max(by_block.values(), key=len)
        assert len(labels) > 2
        calls = []
        solve = qchar.bases.dcb_P

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(qchar.bases, "dcb_P", counting)
        for mt in labels:
            simple_character(mt, window)
        assert len(calls) == 1

    def test_a_raising_block_raises_again(self, monkeypatch):
        shape, window = MEMO_CASES[1]
        mt = MT(shape, (2, 1, 2, 1))
        first = character_or_error(mt, window)
        assert first[0] is ValueError
        calls = []
        solve = qchar.bases.dcb_P

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(qchar.bases, "dcb_P", counting)
        assert character_or_error(mt, window) == first
        assert calls == []

    @pytest.mark.parametrize("shape, window", MEMO_CASES, ids=str)
    def test_a_query_leaves_the_cached_block_unchanged(self, shape, window):
        for mt in enumerate_tableaux(shape, "std", window):
            blk = qchar.MEMOS["blocks"]("p", shape, window, mt.signed_key)
            if isinstance(blk, Exception):  # the kept error of a raising block
                continue
            before = snapshot(blk.canon)
            simple_character(mt, window)
            assert qchar.bases.solved_block("p", shape, window, mt.signed_key) is blk
            assert snapshot(blk.canon) == before


class TestKeptErrors:
    """The block memo keeps the ValueError or RuntimeError a solve raised,
    without frames, and `bases.solved_block` raises it anew on each hit;
    other errors are not kept."""

    SHAPE, WINDOW = MEMO_CASES[1]
    RAISING = (2, 1, 2, 1)

    def raised(self, call):
        with pytest.raises(ValueError) as info:
            call()
        return info.value

    def test_a_relabeled_block_of_a_raising_pattern_is_solved_once(self, monkeypatch):
        # the P defect: pattern (1, 2, 1) of 2:+ / 1,1:+ fails its bar solve
        shape, window = MP(((2,), "+"), ((1, 1), "+")), (1, 4)
        self.raised(lambda: qchar.bases.dcb_P(shape, window, {1: 1, 2: 2, 4: 1}))
        standard = ((1, 1), (2, 2), (3, 1))  # the weight of pattern (1, 2, 1) at 1..3
        assert isinstance(qchar.MEMOS["blocks"]("p", shape, (1, 3), standard), ValueError)
        mu = {1: 1, 3: 2, 4: 1}
        direct = self.raised(lambda: qchar.bases._solve_P(shape, window, mu))
        calls = []
        solve = qchar.bases._solve_P

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(qchar.bases, "_solve_P", counting)
        err = self.raised(lambda: qchar.bases.dcb_P(shape, window, mu))
        assert calls == [(shape, window, mu)]
        assert str(err) == str(direct)

    def test_the_kept_errors_hold_no_frames(self):
        mt = MT(self.SHAPE, self.RAISING)
        err = self.raised(lambda: simple_character(mt, self.WINDOW))
        assert err.__traceback__ is not None
        kept = qchar.MEMOS["blocks"]("p", self.SHAPE, self.WINDOW, mt.signed_key)
        assert isinstance(kept, ValueError) and kept.__cause__ is not None
        assert kept.__traceback__ is None and kept.__cause__.__traceback__ is None
        assert err.__cause__ is kept.__cause__

    def test_each_hit_raises_a_new_error(self):
        mt = MT(self.SHAPE, self.RAISING)
        first, second = (self.raised(lambda: simple_character(mt, self.WINDOW)) for _ in range(2))
        assert first is not second
        assert type(first) is type(second) and str(first) == str(second)
        assert qchar.MEMOS["blocks"].cache_info().hits == 1

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_other_errors_are_not_kept(self, monkeypatch, error):
        mt = MT(self.SHAPE, self.RAISING)
        calls = []

        def failing(*args):
            calls.append(args)
            raise error("injected")

        monkeypatch.setattr(qchar.bases, "dcb_P", failing)
        for _ in range(2):
            with pytest.raises(error):
                simple_character(mt, self.WINDOW)
        assert len(calls) == 2
        assert qchar.MEMOS["blocks"].cache_info().currsize == 0


class TestWeightLabel:
    def test_first_piece_first_row(self):
        shape = MP(((2,), "+"))
        wl = weight_label(MT(shape, (3, 5)))
        assert wl[(1, 1, 1)]["value"] == 3
        assert wl[(1, 1, 2)]["value"] == 5

    def test_shift_accumulates(self):
        mt = MultiTableau(
            (
                Tableau(Partition((2,)), "+", ((1, 2),)),
                Tableau(Partition((1,)), "+", ((4,),)),
            )
        )
        wl = weight_label(mt)
        # shift from piece 1: (+1)(2-1) - 1 = 0
        assert wl[(2, 1, 1)]["value"] == 4

    def test_minus_piece_shift(self):
        mt = MultiTableau(
            (
                Tableau(Partition((2, 1)), "-", ((1,), (2, 3))),
                Tableau(Partition((1,)), "+", ((5,),)),
            )
        )
        wl = weight_label(mt)
        # shift from piece 1: (-1)(3-1) - 2 = -4
        assert wl[(2, 1, 1)]["value"] == 5 - 4

    def test_labels_are_column_wise(self):
        shape = MP(((2, 1), "+"))
        wl = weight_label(MT(shape, (2, 1, 3)))
        assert wl[(1, 1, 1)]["label"] == "1"
        assert wl[(1, 2, 1)]["label"] == "2"
        assert wl[(1, 2, 2)]["label"] == "3"
