import collections
import hashlib
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from orders import reference_tableaux_of_weight, weight_blocks
from qchar.combinatorics import (
    Partition,
    SignedMultiPartition,
    column_stabilizer,
    enumerate_tableaux,
    multi_tableau_from_row_reading,
    row_normal_form,
    shuffle_permutation,
    weight_key,
    wt_key,
)
from qchar.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    bar,
    in_lattice,
    mirror,
    q_power,
)
import qchar.bases
import qchar.characters
import qchar.laurent
from qchar.bases import (
    RouteDisagreement,
    SElement,
    TriangularBlock,
    bar_S,
    block_weights,
    dcb_P,
    dcb_S,
    dcb_T,
    dcb_solve,
    dcb_wedge,
    delta,
    delta_block,
    delta_coords,
    kappa,
    pi_monomial,
    row_ranges,
    row_segments,
    straighten,
    sym_ideal_dcb,
    tableau_json,
    tableaux_of_weight,
    xi_raw,
    xi_V,
    xi_wedge_images,
)
from qchar.characters import decomposition_matrix, expand_standard, simple_character
from qchar.tensor_space import (
    TensorElement,
    WindowEscapeError,
    bar_involution,
    hecke_act,
    linear_extension,
    weight_block,
    weight_keys,
)


def MP(*pieces):
    return SignedMultiPartition(tuple((Partition(p), s) for p, s in pieces))


# Shapes whose blocks are checked against the per-label weight filter.
FILTER_SHAPES = [
    MP(((2, 1), "-")),
    MP(((2, 1), "+"), ((1,), "-")),
    MP(((1, 1), "-"), ((2,), "+")),
    MP(((1,), "+"), ((1,), "-"), ((1,), "+")),
]


def MT(shape, reading):
    return multi_tableau_from_row_reading(shape, tuple(reading))


class TestStraighten:
    def test_sorted_monomial_is_fixed(self):
        shape = MP(((2,), "+"))
        x = TensorElement.monomial(("+", "+"), (1, 3), (1, 2))
        s = straighten(x, shape)
        assert s.coeffs == {MT(shape, (1, 2)): ONE}

    def test_plus_row_inversion_gains_q(self):
        shape = MP(((2,), "+"))
        x = TensorElement.monomial(("+", "+"), (1, 3), (2, 1))
        s = straighten(x, shape)
        assert s.coeffs == {MT(shape, (1, 2)): q_power(1)}

    def test_minus_row_sorts_decreasing(self):
        shape = MP(((2,), "-"))
        x = TensorElement.monomial(("-", "-"), (1, 3), (1, 2))
        s = straighten(x, shape)
        assert s.coeffs == {MT(shape, (2, 1)): q_power(1)}

    def test_hecke_eigenvalue_on_row(self):
        # The quotient sends x H_i to q^-1 x for H_i inside a row.
        shape = MP(((2,), "+"))
        x = TensorElement.monomial(("+", "+"), (1, 3), (1, 2))
        lhs = straighten(hecke_act(1, x), shape)
        rhs = straighten(x, shape).map_coeffs(lambda c: c * q_power(-1))
        assert lhs.coeffs == rhs.coeffs

    def test_sign_mismatch_rejected(self):
        shape = MP(((2,), "+"))
        x = TensorElement.monomial(("+", "-"), (1, 3), (1, 2))
        with pytest.raises(ValueError):
            straighten(x, shape)

    def test_sign_mismatch_names_signs_and_shape(self):
        shape = MP(((2,), "+"))
        x = TensorElement.monomial(("+", "-"), (1, 3), (1, 2))
        with pytest.raises(ValueError, match=r"sign sequence \+- .* shape 2:\+$"):
            straighten(x, shape)

    # (shape, a sorted reading, the same reading with one row's two entries
    # swapped): the swapped monomial straightens to q times the sorted one.
    CANCELLING = [
        (MP(((2,), "+")), (1, 2), (2, 1)),
        (MP(((2, 1), "+"), ((1,), "-")), (1, 1, 2, 1), (1, 2, 1, 1)),
        (MP(((1, 1), "+"), ((2,), "-")), (1, 1, 2, 1), (1, 1, 1, 2)),
    ]

    @pytest.mark.parametrize(
        "shape, normal, swapped", CANCELLING, ids=[str(c[0]) for c in CANCELLING]
    )
    def test_labels_built_once_per_surviving_reading(self, shape, normal, swapped, monkeypatch):
        calls = []

        def counted(mp, values):
            calls.append(values)
            return multi_tableau_from_row_reading(mp, values)

        monkeypatch.setattr(qchar.bases, "multi_tableau_from_row_reading", counted)
        coeffs = {swapped: ONE, normal: -q_power(1), (3,) * len(normal): q_power(-1)}
        coeffs[(2,) * (len(normal) - 1) + (3,)] = q_power(-1)
        s = straighten(TensorElement(shape.sign_sequence(), (1, 3), coeffs), shape)
        assert MT(shape, normal) not in s.coeffs
        assert len(calls) == len(s.coeffs) == 2

    def test_row_segments_and_ranges(self):
        shape = MP(((2, 1), "+"), ((2,), "-"))
        assert row_segments(shape) == [(0, 1, "+"), (1, 2, "+"), (3, 2, "-")]
        assert row_ranges(shape) == [(2, 2), (4, 2)]


class TestStraightenHeckeEigenvalue:
    """straighten(x H_i) = q^-1 straighten(x) for every H_i inside a pyramid
    row, on random elements of four distinct monomials."""

    SHAPES = [
        MP(((2,), "+")),
        MP(((3,), "-")),
        MP(((2, 1), "+"), ((1,), "-")),
        MP(((2,), "-"), ((1, 1), "+")),
        MP(((1, 1), "+"), ((2,), "-")),
        MP(((3, 1), "+")),
        MP(((2, 2), "-")),
    ]

    @pytest.mark.parametrize("window", [(1, 2), (1, 3), (0, 3)], ids=lambda w: f"{w[0]}..{w[1]}")
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_on_random_elements(self, shape, window):
        rng = random.Random(20261019)
        signs = shape.sign_sequence()
        monomials = list(itertools.product(range(window[0], window[1] + 1), repeat=len(signs)))
        gens = [i for pos, length, _ in row_segments(shape) for i in range(pos + 1, pos + length)]
        assert gens
        for _ in range(30):
            coeffs = {
                f: q_power(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
                for f in rng.sample(monomials, 4)
            }
            x = TensorElement(signs, window, coeffs)
            rhs = straighten(x, shape).scale(q_power(-1))
            for i in gens:
                assert straighten(hecke_act(i, x), shape) == rhs, (str(shape), window, coeffs, i)


class TestSElement:
    def test_rejects_non_row_keys(self):
        shape = MP(((2,), "+"))
        bad = MT(shape, (2, 1))
        with pytest.raises(ValueError):
            SElement(shape, (1, 3), {bad: ONE})

    def test_rejects_keys_outside_the_window(self):
        # so every reading that `to_tensor` lifts is a valid tensor key
        shape = MP(((2,), "+"), ((1,), "-"))
        with pytest.raises(WindowEscapeError, match=r"leaves window \(1, 2\)"):
            SElement(shape, (1, 2), {MT(shape, (1, 3, 1)): ONE})
        with pytest.raises(WindowEscapeError):
            pi_monomial(shape, (2, 3), MT(shape, (1, 2, 2)))

    def test_zero_coefficients_dropped(self):
        shape = MP(((2,), "+"))
        mt = MT(shape, (1, 2))
        assert SElement(shape, (1, 3), {mt: ZERO}).is_zero()

    def test_round_trip_through_tensor(self):
        shape = MP(((2,), "+"), ((1,), "-"))
        mt = MT(shape, (1, 2, 1))
        elem = pi_monomial(shape, (1, 2), mt).scale(q_power(-1))
        assert straighten(elem.to_tensor(), shape).coeffs == elem.coeffs


class TestBarS:
    def test_involution(self):
        shape = MP(((2, 1), "+"))
        window = (1, 3)
        for mt in enumerate_tableaux(shape, "row", window)[:6]:
            x = pi_monomial(shape, window, mt)
            assert bar_S(bar_S(x)).coeffs == x.coeffs

    def test_triangular_in_linear_extension(self):
        shape = MP(((1, 1), "+"))
        window = (1, 3)
        for mu, block in weight_blocks(shape, window, "row"):
            pos = {mt: i for i, mt in enumerate(block)}
            for mt in block:
                for g in bar_S(pi_monomial(shape, window, mt)).coeffs:
                    assert pos[g] <= pos[mt]


class TestSolver:
    def test_rank_one_tensor_block(self):
        blk = dcb_T(("+", "+"), (1, 2), {1: 1, 2: 1})
        assert blk.order == ((1, 2), (2, 1))
        assert blk.canon[(1, 2)] == {(1, 2): ONE}
        assert blk.canon[(2, 1)] == {(2, 1): ONE, (1, 2): q_power(-1)}

    def test_bar_invariance_and_lattice(self):
        blk = dcb_T(("+", "+", "+"), (1, 3), {1: 1, 2: 1, 3: 1})
        for t in blk.order:
            canon = blk.canon[t]
            assert canon[t] == ONE
            for g, c in canon.items():
                if g != t:
                    assert in_lattice(c)
            # bar invariance in tensor coordinates
            x = TensorElement(("+", "+", "+"), (1, 3))
            for g, c in canon.items():
                x = x + TensorElement.monomial(("+", "+", "+"), (1, 3), g, c)
            assert bar_involution(x) == x

    def test_order_independence(self):
        signs, window, mu = ("+", "+", "+"), (1, 3), {1: 1, 2: 1, 3: 1}
        blk = dcb_T(signs, window, mu)
        # any relabeling that keeps the partial order (here: reverse pairs of
        # incomparable neighbors) must give the same canonical vectors; use
        # the solved block itself re-solved under a permuted valid extension.
        order = list(blk.order)
        resolved = dcb_solve(TriangularBlock("t", tuple(order), blk.bar_rows))
        assert resolved.canon == blk.canon

    def test_non_triangular_bar_matrix_rejected(self):
        # the lower label's bar image reaches the upper label
        bad = TriangularBlock("t", ("a", "b"), {"a": {"b": ONE}, "b": {"b": ONE}})
        with pytest.raises(RuntimeError, match="^bar matrix is not unitriangular at a: defect at b$"):
            dcb_solve(bad)

    def test_bar_image_leaving_the_block_rejected(self):
        bad = TriangularBlock("t", ("a",), {"a": {"a": ONE, "z": ONE}})
        with pytest.raises(RuntimeError, match="^bar image of a leaves the block at z$"):
            dcb_solve(bad)

    def test_canon_is_keyed_by_labels(self):
        # the solver runs on positions; what it returns is keyed by labels
        shape = MP(((2, 1), "+"))
        blocks = [
            dcb_T(("+", "-", "+"), (1, 3), {1: 1, 2: -1, 3: 1}),
            dcb_S(shape, (1, 3), {1: 1, 2: 1, 3: 1}),
            dcb_P(shape, (1, 3), {1: 1, 2: 1, 3: 1}),
        ]
        for blk in blocks:
            labels = set(blk.order)
            assert len(labels) > 1
            for t in blk.order:
                assert blk.canon[t][t] == ONE
                assert not any(isinstance(g, int) for g in blk.canon[t])
                assert set(blk.canon[t]) <= labels

    def test_zero_bar_entry_is_dropped(self):
        rows = {"a": {"a": ONE}, "b": {"b": ONE}}
        plain = dcb_solve(TriangularBlock("t", ("a", "b"), rows))
        with_zero = dcb_solve(TriangularBlock("t", ("a", "b"), {**rows, "b": {"b": ONE, "a": ZERO}}))
        assert with_zero.canon == plain.canon == {"a": {"a": ONE}, "b": {"b": ONE}}
        assert with_zero.to_json()["canonical"] == [[0, 0, [[0, "1"]]], [1, 1, [[0, "1"]]]]

    def test_zero_bar_entry_is_left_out_of_the_bar_output(self):
        rows = {"a": {"a": ONE}, "b": {"b": ONE, "a": ZERO}}
        blk = dcb_solve(TriangularBlock("t", ("a", "b"), rows))
        assert blk.bar_rows == {"a": {"a": ONE}, "b": {"b": ONE}}
        assert blk.to_json()["bar"] == [[0, 0, [[0, "1"]]], [1, 1, [[0, "1"]]]]
        # zero-free rows, as the library builds them, are handed back as given
        plain = {"a": {"a": ONE}, "b": {"b": ONE}}
        assert dcb_solve(TriangularBlock("t", ("a", "b"), plain)).bar_rows is plain

    def test_coefficients_past_the_first_digit_width(self):
        # bar(e_b) = e_b + m (q - q^-1) e_a, solved by -m q^-1 at a
        m = 3**200
        rows = {"a": {"a": ONE}, "b": {"b": ONE, "a": q_power(1, m) - q_power(-1, m)}}
        blk = dcb_solve(TriangularBlock("t", ("a", "b"), rows))
        assert blk.canon["b"] == {"b": ONE, "a": q_power(-1, -m)}

    def test_conjugated_blocks_scale_entrywise(self):
        # Conjugating the bar matrix by diag(N^position) scales each canonical
        # entry at (g, t) by N^(p_t - p_g); at N = 2^40 the entries pass
        # hundreds of bits.
        N = 2**40
        signs, window = ("+", "-", "+", "-"), (1, 4)
        for key in sorted(weight_keys(signs, window)):
            blk = dcb_T(signs, window, dict(key))
            pos = {t: i for i, t in enumerate(blk.order)}

            def conjugate(cols):
                return {
                    t: {g: c * N ** (pos[t] - pos[g]) for g, c in col.items()}
                    for t, col in cols.items()
                }

            wide = dcb_solve(TriangularBlock("t", blk.order, conjugate(blk.bar_rows)))
            assert wide.canon == conjugate(blk.canon)

    def test_non_unit_diagonal_rejected(self):
        bad = TriangularBlock("t", ("a", "b"), {"a": {"a": ONE}, "b": {"b": q_power(1)}})
        with pytest.raises(RuntimeError, match="^bar matrix is not unitriangular at b: defect at b$"):
            dcb_solve(bad)

    def test_defect_that_packs_to_zero_rejected(self):
        # At lo = -1 and 16-bit digits, 2^16 q^-1 and q^-1 pack to the same
        # int, so the diagonal defect is nonzero but its packed form is 0.
        bad = TriangularBlock("t", ("a",), {"a": {"a": q_power(-1, 2**16)}})
        with pytest.raises(RuntimeError, match="^bar matrix is not unitriangular at a: defect at a$"):
            dcb_solve(bad)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_a_bar_matrix_built_from_its_answer_solves_to_it(self, data):
        # Draw the answer C, unitriangular with strictly-lower entries in the
        # lattice `in_lattice` names (q^-1 Z[q^-1] or q Z[q]), some past 2^20
        # so that the first digit width gives up.
        # X_t = sum_g C[g, t] e_g is bar-invariant when bar(e_t) is column t
        # of B = C bar(C)^-1, so C is the one solution of that bar matrix.
        n = data.draw(st.integers(1, 5))
        order = tuple("abcde"[:n])
        coeff = st.integers(-3, 3) | st.integers(2**20, 2**24) | st.integers(-(2**24), -(2**20))
        exponent = st.integers(1, 3).map(lambda e: e if in_lattice(q_power(e)) else -e)
        entry = st.dictionaries(exponent, coeff, max_size=3).map(LaurentPoly)
        C = [[ZERO] * n for _ in range(n)]
        for t in range(n):
            C[t][t] = ONE
            for g in range(t):
                C[g][t] = data.draw(entry)
        barred = [[bar(c) for c in row] for row in C]
        inv = [[ONE if g == t else ZERO for t in range(n)] for g in range(n)]
        for t in range(n):
            for g in reversed(range(t)):
                inv[g][t] = -sum((barred[g][h] * inv[h][t] for h in range(g + 1, t + 1)), ZERO)
        B = [[sum((C[g][h] * inv[h][t] for h in range(n)), ZERO) for t in range(n)] for g in range(n)]

        def columns(M):
            return {order[t]: {order[g]: M[g][t] for g in range(n) if M[g][t]} for t in range(n)}

        assert dcb_solve(TriangularBlock("t", order, columns(B))).canon == columns(C)


def pinned_blocks():
    """Every dcb_T block of + - + - @ 1..4 and + + - - + @ 1..3, then every
    dcb_S block of 2,1:+ / 1:+ and 3,1:+ / 1:- @ 1..4 (197 blocks)."""
    for signs, window in [(("+", "-", "+", "-"), (1, 4)), (("+", "+", "-", "-", "+"), (1, 3))]:
        for key in sorted(weight_keys(signs, window)):
            yield dcb_T(signs, window, dict(key))
    for shape in [MP(((2, 1), "+"), ((1,), "+")), MP(((3, 1), "+"), ((1,), "-"))]:
        for key in block_weights(shape, (1, 4), "row"):
            yield dcb_S(shape, (1, 4), dict(key))


class TestSolverPinned:
    # SHA-256 over to_json() of the pinned T/S blocks and of every
    # decomposition table of 2,1:+ and 1:+ / 1:- / 1:+ @ 1..4, recorded with
    # the fixed-point solver that rebuilt bar(X) - X after every correction.
    GOLDEN = "73ad14acc614c555c99541d7193c15417ed5595645275784bc35a56f11b16f00"

    def test_solved_blocks_match_the_recorded_digest(self):
        h = hashlib.sha256()
        tables = (
            decomposition_matrix(shape, (1, 4), dict(key))
            for shape in [MP(((2, 1), "+")), MP(((1,), "+"), ((1,), "-"), ((1,), "+"))]
            for key in block_weights(shape, (1, 4), "std")
        )
        for solved in itertools.chain(pinned_blocks(), tables):
            h.update(json.dumps(solved.to_json()).encode())
            h.update(b"\n")
        assert h.hexdigest() == self.GOLDEN

    def test_one_bar_per_correction(self, monkeypatch):
        calls = 0
        real = qchar.laurent.bar

        def counted(c):
            nonlocal calls
            calls += 1
            return real(c)

        monkeypatch.setattr(qchar.laurent, "bar", counted)
        solved = []  # every block solved, relabeled blocks' standard blocks included
        solve = qchar.bases.dcb_solve

        def collecting(block):
            solved.append(solve(block))
            return solved[-1]

        monkeypatch.setattr(qchar.bases, "dcb_solve", collecting)
        for _ in pinned_blocks():
            pass
        corrections = sum(len(col) - 1 for blk in solved for col in blk.canon.values())
        assert corrections > 0
        assert calls == corrections


class TestDcbS:
    def test_single_row_blocks_are_monomial(self):
        shape = MP(((2,), "+"))
        for mu, block in weight_blocks(shape, (1, 3), "row"):
            blk = dcb_S(shape, (1, 3), mu)
            for t in blk.order:
                assert blk.canon[t] == {t: ONE}

    def test_column_block_structure(self):
        shape = MP(((1, 1), "+"))
        blk = dcb_S(shape, (1, 2), {1: 1, 2: 1})
        lower = MT(shape, (1, 2))
        upper = MT(shape, (2, 1))
        assert blk.canon[upper][lower] == q_power(-1)

    def test_matches_symmetrizer_ideal_oracle(self):
        for shape, window in [
            (MP(((1, 1), "+")), (1, 2)),
            (MP(((2,), "-")), (1, 2)),
            (MP(((2, 1), "+")), (1, 3)),
            (MP(((1,), "+"), ((1, 1), "-")), (1, 2)),
            (MP(((2,), "+"), ((2,), "+")), (1, 2)),
        ]:
            for mu, _ in weight_blocks(shape, window, "row"):
                a = dcb_S(shape, window, mu)
                b = sym_ideal_dcb(shape, window, mu)
                assert a.order == b.order
                assert a.canon == b.canon


class TestKappaAndXi:
    def test_kappa_requires_col(self):
        shape = MP(((1, 1), "+"))
        not_col = MT(shape, (1, 1))
        with pytest.raises(ValueError):
            kappa(not_col, (1, 2))

    def test_rank_one_kappa(self):
        shape = MP(((1, 1), "+"))
        mt = MT(shape, (2, 1))  # rows top-to-bottom: 2 over 1
        k = kappa(mt, (1, 2))
        # frozen rank-one convention: K = M_(2,1) - q M_(1,2)
        assert k.coeffs == {(2, 1): ONE, (1, 2): -q_power(1)}

    def test_delta_unitriangular_lattice(self):
        for shape, window in [
            (MP(((2, 1), "+")), (1, 3)),
            (MP(((2, 2), "-")), (1, 3)),
            (MP(((1, 1), "+"), ((2,), "-")), (1, 2)),
        ]:
            for mt in enumerate_tableaux(shape, "std", window):
                d = delta(mt, window)
                assert d.coeffs[mt] == ONE
                for g, c in d.coeffs.items():
                    if g != mt:
                        assert in_lattice(c)

    def test_delta_rejects_non_std(self):
        # 1 over 1 in a single column is Row but not Col, hence not Std.
        with pytest.raises(ValueError):
            delta(MT(MP(((1, 1), "+")), (1, 1)), (1, 2))

    def test_classical_limit_alternating_sum(self):
        # The raw (unmirrored) image at q = 1 equals the signed column
        # stabilizer sum over row-normalized labels.
        shape, window = MP(((2, 1), "+")), (1, 3)
        for mt in enumerate_tableaux(shape, "std", window):
            raw = xi_raw(mt, window)
            at_one = {k: sum(c.terms.values()) for k, c in raw.coeffs.items()}
            lhs = {k: v for k, v in at_one.items() if v}
            rhs: dict = {}
            for reading, inv in column_stabilizer(mt):
                f = list(reading)
                for start, length, s in row_segments(shape):
                    f[start : start + length] = sorted(
                        f[start : start + length], reverse=(s == "-")
                    )
                key = multi_tableau_from_row_reading(shape, tuple(f))
                rhs[key] = rhs.get(key, 0) + (-1) ** inv
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs

    @pytest.mark.parametrize(
        "parts, perm",
        [
            ((1,), (1,)),
            ((2, 1), (1, 2, 3)),
            ((2, 2), (1, 3, 2, 4)),
            ((3, 1), (1, 2, 3, 4)),
            ((2, 2, 1), (1, 2, 4, 3, 5)),
            ((3, 2), (1, 3, 2, 4, 5)),
            ((3, 2, 1), (1, 2, 4, 3, 5, 6)),
        ],
    )
    def test_shuffle_permutation_hand_values(self, parts, perm):
        # row-reading position j holds the number of its box in column reading
        assert shuffle_permutation(Partition(parts)) == perm

    def test_mirror_normalization(self):
        shape, window = MP(((1, 1), "+")), (1, 3)
        for mt in enumerate_tableaux(shape, "std", window):
            assert xi_V(mt, window).coeffs == {
                k: mirror(c) for k, c in xi_raw(mt, window).coeffs.items()
            }


class TestWedge:
    def test_nonvanishing_iff_std(self):
        for shape in [MP(((2, 1), "+")), MP(((2, 1), "-")), MP(((2, 2), "+"))]:
            images = xi_wedge_images(shape, (1, 3))
            for mt, el in images.items():
                assert (not el.is_zero()) == mt.is_std()

    def test_wedge_block_structure(self):
        shape = MP(((1, 1), "+"))
        blk = dcb_wedge(shape, (1, 3), {1: 1, 2: 1})
        for t in blk.order:
            assert blk.canon[t][t] == ONE
            for g, c in blk.canon[t].items():
                if g != t:
                    assert in_lattice(c)


class TestDcbP:
    SHAPES = [
        (MP(((1, 1), "+")), (1, 3)),
        (MP(((2,), "+")), (1, 3)),
        (MP(((1, 1), "+"), ((1,), "+")), (1, 3)),
        (MP(((2,), "+"), ((1, 1), "-")), (1, 2)),
        (MP(((2, 1), "+")), (1, 3)),
    ]

    def test_routes_agree_and_structure(self):
        for shape, window in self.SHAPES:
            for mu, _ in weight_blocks(shape, window, "std"):
                blk = dcb_P(shape, window, mu)  # raises on route mismatch
                for t in blk.order:
                    assert blk.canon[t][t] == ONE
                    for g, c in blk.canon[t].items():
                        if g != t:
                            assert in_lattice(c)

    def test_bar_matrix_involutive(self):
        shape, window = MP(((1, 1), "+"), ((1,), "+")), (1, 3)
        for mu, _ in weight_blocks(shape, window, "std"):
            blk = dcb_P(shape, window, mu)
            for t in blk.order:
                # bar(bar(Delta_t)) = Delta_t in Delta-coordinates
                acc: dict = {}
                from qchar.laurent import bar as bar_q

                for g, c in blk.bar_rows[t].items():
                    for h, v in blk.bar_rows[g].items():
                        s = acc.get(h, ZERO) + v * bar_q(c)
                        if s:
                            acc[h] = s
                        else:
                            acc.pop(h, None)
                assert acc == {t: ONE}

    def test_delta_coords_projection(self):
        shape, window = MP(((1,), "+"), ((1,), "+")), (1, 2)
        order, deltas = delta_block(shape, window, {1: 1, 2: 1})
        elem = deltas[order[0]].scale(q_power(-2)) + deltas[order[-1]]
        coords = delta_coords(elem.coeffs, deltas, order)
        assert coords == {order[0]: q_power(-2), order[-1]: ONE}

    def test_a_non_dividing_pivot_names_its_label(self):
        shape, window = MP(((1,), "+"), ((1,), "+")), (1, 2)
        order, deltas = delta_block(shape, window, {1: 1, 2: 1})
        top = order[-1]
        # pivot coefficient 2 against the element's coefficient 1
        doubled = {**deltas, top: deltas[top].scale(2)}
        elem = SElement(shape, window, {top: ONE})
        with pytest.raises(ValueError, match=re.escape(f"pivot of {top} at {top}: exact_divide: ")):
            delta_coords(elem.coeffs, doubled, order)

    def test_a_route_disagreement_names_its_label_readably(self, monkeypatch):
        shape, window = MP(((1,), "+"), ((1,), "+")), (1, 2)
        lower, upper = MT(shape, (1, 2)), MT(shape, (2, 1))
        solve = qchar.bases.dcb_S

        def perturbed(shape, window, mu):
            # route (b)'s entry at (2 / 1, 1 / 2) becomes q^-3 instead of q^-1
            blk = solve(shape, window, mu)
            blk.canon[upper] = {**blk.canon[upper], lower: q_power(-3)}
            return blk

        monkeypatch.setattr(qchar.bases, "dcb_S", perturbed)
        with pytest.raises(RouteDisagreement) as info:
            dcb_P(shape, window, {1: 1, 2: 1})
        assert str(info.value) == (
            "dcb_P routes disagree at 2 / 1: "
            "(a) {1 / 2: 1*q^-1, 2 / 1: 1*q^0} vs (b) {1 / 2: 1*q^-3, 2 / 1: 1*q^0}"
        )


def json_or_error(call):
    """The JSON text of a block or table, or the error it raises as its type
    and message."""
    try:
        return json.dumps(call().to_json())
    except Exception as err:
        return type(err), str(err)


class TestPatternBlocks:
    """One-sign T, S and P blocks are relabeled from the solved standard
    block of their weight pattern, kept in `MEMOS["blocks"]`; every other
    block is solved directly.  Compared against the direct solves
    `_solve_T`/`_solve_S`/`_solve_P`."""

    P_CASES = [
        (MP(((3, 2, 1), "+")), (1, 4)),
        (MP(((2, 1), "+"), ((1,), "+")), (1, 4)),
        (MP(((2, 1), "+"), ((1,), "+")), (2, 5)),
        (MP(((1, 1), "-"), ((2,), "-")), (1, 4)),
        (MP(((2, 1), "-")), (0, 3)),
    ]
    S_CASES = [
        (MP(((2, 1), "+"), ((1,), "+")), (1, 4)),
        (MP(((2, 1), "+"), ((1,), "+")), (2, 5)),
        (MP(((2, 1), "-")), (0, 3)),
    ]
    T_CASES = [(("+",) * 4, (1, 4)), (("-",) * 3, (0, 3))]

    @pytest.fixture(autouse=True)
    def cold(self):
        qchar.clear_caches()

    @pytest.mark.parametrize("shape, window", P_CASES, ids=str)
    def test_p_blocks_and_tables_match_the_direct_solve(self, monkeypatch, shape, window):
        keys = block_weights(shape, window, "std")
        solved = [json_or_error(lambda: dcb_P(shape, window, dict(k))) for k in keys]
        tables = [json_or_error(lambda: decomposition_matrix(shape, window, dict(k))) for k in keys]
        assert qchar.MEMOS["blocks"].cache_info().hits > 0
        qchar.clear_caches()
        # route (b) of the direct P solve reads dcb_S: solve that directly too
        monkeypatch.setattr(qchar.bases, "dcb_S", qchar.bases._solve_S)
        assert solved == [json_or_error(lambda: qchar.bases._solve_P(shape, window, dict(k))) for k in keys]
        monkeypatch.setattr(qchar.bases, "dcb_P", qchar.bases._solve_P)
        assert tables == [json_or_error(lambda: decomposition_matrix(shape, window, dict(k))) for k in keys]
        assert qchar.MEMOS["blocks"].cache_info().currsize == 0

    @pytest.mark.parametrize("shape, window", S_CASES, ids=str)
    def test_s_blocks_match_the_direct_solve(self, shape, window):
        keys = block_weights(shape, window, "row")
        solved = [json_or_error(lambda: dcb_S(shape, window, dict(k))) for k in keys]
        assert qchar.MEMOS["blocks"].cache_info().hits > 0
        assert solved == [json_or_error(lambda: qchar.bases._solve_S(shape, window, dict(k))) for k in keys]

    def test_a_mixed_sign_s_block_is_solved_directly(self, monkeypatch):
        shape, window = MP(((2, 1), "+"), ((1,), "-")), (1, 3)
        calls = []
        solve = qchar.bases._solve_S

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(qchar.bases, "_solve_S", counting)
        weights = [dict(k) for k in block_weights(shape, window, "row")]
        for mu in weights:
            dcb_S(shape, window, mu)
        assert calls == [(shape, window, mu) for mu in weights]
        assert qchar.MEMOS["blocks"].cache_info().currsize == 0

    @pytest.mark.parametrize("signs, window", T_CASES, ids=str)
    def test_t_blocks_match_the_direct_solve(self, signs, window):
        keys = sorted(weight_keys(signs, window))
        solved = [json_or_error(lambda: dcb_T(signs, window, dict(k))) for k in keys]
        assert qchar.MEMOS["blocks"].cache_info().hits > 0
        assert solved == [json_or_error(lambda: qchar.bases._solve_T(signs, window, dict(k))) for k in keys]

    @pytest.mark.parametrize(
        "dcb, shape",
        [(dcb_P, MP(((2, 1), "+"), ((1,), "+"))), (dcb_S, MP(((2, 1), "+"), ((1,), "+"))), (dcb_T, ("+",) * 4)],
        ids=["p", "s", "t"],
    )
    def test_a_directly_queried_standard_block_is_not_kept(self, dcb, shape):
        blk = dcb(shape, (1, 3), {1: 2, 2: 1, 3: 1})
        assert blk.order
        assert qchar.MEMOS["blocks"].cache_info().currsize == 0

    @pytest.mark.parametrize(
        "window, mu", [((1, 4), {1: 1, 2: 2, 4: 1}), ((1, 3), {1: 1, 2: 2, 3: 1})], ids=str
    )
    def test_a_raising_block_raises_the_direct_solve_error(self, failing_solve, window, mu):
        # the standard block of pattern (1, 2, 1) of 2:+ / 1,1:+ fails its
        # bar solve (`failing_solve`), the first weight's block is solved
        # again directly, the second is that standard block
        shape = MP(((2,), "+"), ((1, 1), "+"))
        with pytest.raises(ValueError) as direct:
            qchar.bases._solve_P(shape, window, mu)
        assert failing_solve
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                dcb_P(shape, window, mu)
            assert str(info.value) == str(direct.value)

    def test_a_support_outside_the_window_gives_the_empty_block(self):
        shape = MP(((2, 1), "+"))
        blocks = (
            dcb_P(shape, (1, 3), {1: 2, 5: 1}),
            dcb_S(shape, (1, 3), {1: 2, 5: 1}),
            dcb_T(("+",) * 3, (2, 4), {1: 1, 3: 2}),
        )
        for blk in blocks:
            assert blk.order == () and blk.canon == {} and blk.bar_rows == {}
        assert qchar.MEMOS["blocks"].cache_info().currsize == 0

    @pytest.mark.parametrize(
        "dcb, shape, window, mu",
        [
            (dcb_P, MP(((2, 1), "+"), ((1,), "+")), (1, 3), {1: 2, 2: 1, 3: 1}),
            (dcb_P, MP(((2, 1), "+"), ((1,), "+")), (1, 5), {2: 2, 4: 1, 5: 1}),
            (dcb_T, ("+",) * 3, (1, 3), {1: 1, 2: 1, 3: 1}),
            (dcb_T, ("+",) * 3, (0, 4), {0: 1, 2: 1, 4: 1}),
        ],
        ids=["p-standard", "p-relabeled", "t-standard", "t-relabeled"],
    )
    def test_clearing_a_returned_block_leaves_the_memo_alone(self, dcb, shape, window, mu):
        space = "p" if dcb is dcb_P else "t"
        standard = window == (1, len(mu))
        if standard:  # a direct query keeps nothing: the memo's block comes from solved_block
            qchar.bases.solved_block(space, shape, window, weight_key(mu))
        blk = dcb(shape, window, mu)
        before = json.dumps(blk.to_json())
        for cols in (blk.bar_rows, blk.canon):
            for col in cols.values():
                col.clear()
            cols.clear()
        assert json.dumps(dcb(shape, window, mu).to_json()) == before
        if standard:
            kept = qchar.bases.solved_block(space, shape, window, weight_key(mu))
            assert json.dumps(kept.to_json()) == before
        assert qchar.MEMOS["blocks"].cache_info().hits == 1


class TestOrbitBlocks:
    """A mixed-sign block whose symmetry orbit has a second member is served
    from the `MEMOS["blocks"]` entry of the orbit's canonical member, the one
    with the smaller weight key: sigma3 on the blocks of + - + - (mu goes to
    -mu) and sigma2 on those of the one-box shape 1:+ / 1:- / 1:+ (mu(v)
    goes to lo + hi - v), where the S, P and T blocks coincide.  Compared
    against the direct solves `_solve_T`/`_solve_S`/`_solve_P`."""

    SIGNS, SHAPE, WINDOW = tuple("+-+-"), MP(((1,), "+"), ((1,), "-"), ((1,), "+")), (1, 5)
    # (partner, canonical) weights of one orbit each: 16 and 9 labels
    T_PAIR = ({1: 1, 2: -1}, {1: -1, 2: 1})
    P_PAIR = ({5: 1}, {1: 1})

    @pytest.fixture(autouse=True)
    def cold(self):
        qchar.clear_caches()

    def counting(self, monkeypatch, *solvers):
        calls = []
        for name in solvers:
            solve = getattr(qchar.bases, name)

            def counted(*args, solve=solve, name=name):
                calls.append((name, args))
                return solve(*args)

            monkeypatch.setattr(qchar.bases, name, counted)
        return calls

    @pytest.mark.parametrize("reverse", [False, True], ids=["canonical-first", "partner-first"])
    def test_t_blocks_match_the_direct_solve(self, reverse):
        keys = sorted(weight_keys(self.SIGNS, self.WINDOW), reverse=reverse)
        solved = [json_or_error(lambda: dcb_T(self.SIGNS, self.WINDOW, dict(k))) for k in keys]
        assert qchar.MEMOS["blocks"].cache_info().hits > 0
        assert solved == [json_or_error(lambda: qchar.bases._solve_T(self.SIGNS, self.WINDOW, dict(k))) for k in keys]

    @pytest.mark.parametrize("reverse", [False, True], ids=["canonical-first", "partner-first"])
    def test_s_p_and_table_blocks_match_the_direct_solve(self, monkeypatch, reverse):
        shape, window = self.SHAPE, self.WINDOW
        keys = sorted(block_weights(shape, window, "std"), reverse=reverse)
        assert keys == sorted(block_weights(shape, window, "row"), reverse=reverse)
        calls = [
            lambda k: qchar.bases.dcb_S(shape, window, dict(k)),
            lambda k: qchar.bases.dcb_P(shape, window, dict(k)),
            lambda k: decomposition_matrix(shape, window, dict(k)),
        ]
        solved = [[json_or_error(lambda: call(k)) for k in keys] for call in calls]
        assert qchar.MEMOS["blocks"].cache_info().hits > 0
        qchar.clear_caches()
        # route (b) of the direct P solve and the table read dcb_S and dcb_P
        monkeypatch.setattr(qchar.bases, "dcb_S", qchar.bases._solve_S)
        monkeypatch.setattr(qchar.bases, "dcb_P", qchar.bases._solve_P)
        assert solved == [[json_or_error(lambda: call(k)) for k in keys] for call in calls]
        assert qchar.MEMOS["blocks"].cache_info().currsize == 0

    def test_a_shuffled_sweep_solves_once_per_orbit(self, monkeypatch):
        calls = self.counting(monkeypatch, "_solve_T")
        keys = sorted(weight_keys(self.SIGNS, self.WINDOW))
        random.Random(1).shuffle(keys)
        for k in keys:
            dcb_T(self.SIGNS, self.WINDOW, dict(k))
        # 65 orbits of two blocks and one block that is its own image
        assert (len(keys), len(calls)) == (131, 66)

    @pytest.mark.parametrize("space", ["t", "p"])
    def test_a_canonical_member_queried_after_its_partner_makes_no_solve(self, monkeypatch, space):
        if space == "t":
            (partner, canonical), query = self.T_PAIR, lambda mu: dcb_T(self.SIGNS, self.WINDOW, mu)
        else:
            (partner, canonical), query = self.P_PAIR, lambda mu: decomposition_matrix(self.SHAPE, self.WINDOW, mu)
        query(partner)
        calls = self.counting(monkeypatch, "_solve_T", "_solve_S", "_solve_P")
        blk = query(canonical)
        assert calls == []
        assert len(blk.order) > 1

    def test_a_partner_of_a_raising_block_raises_its_own_error(self, failing_solve):
        (partner, canonical), signs, window = self.T_PAIR, self.SIGNS, self.WINDOW
        direct = {}
        for name, mu in (("partner", partner), ("canonical", canonical)):
            with pytest.raises(ValueError) as info:
                qchar.bases._solve_T(signs, window, mu)
            direct[name] = str(info.value)
        assert direct["partner"] != direct["canonical"]  # each names its own labels
        for name, mu in (("partner", partner), ("partner", partner), ("canonical", canonical)):
            with pytest.raises(ValueError) as info:
                dcb_T(signs, window, mu)
            assert str(info.value) == direct[name]
        assert isinstance(qchar.MEMOS["blocks"]("t", signs, window, weight_key(canonical)), ValueError)

    @pytest.mark.parametrize("member", [0, 1], ids=["partner", "canonical"])
    def test_clearing_a_returned_block_leaves_the_memo_alone(self, member):
        mu, canonical = self.T_PAIR[member], self.T_PAIR[1]
        blk = dcb_T(self.SIGNS, self.WINDOW, mu)
        before = json.dumps(blk.to_json())
        for cols in (blk.bar_rows, blk.canon):
            for col in cols.values():
                col.clear()
            cols.clear()
        assert json.dumps(dcb_T(self.SIGNS, self.WINDOW, mu).to_json()) == before
        kept = qchar.bases.solved_block("t", self.SIGNS, self.WINDOW, weight_key(canonical))
        assert kept.to_json() == qchar.bases._solve_T(self.SIGNS, self.WINDOW, canonical).to_json()


class TestBlockOrder:
    # SHA-256 of the label order of every Row, Std and Col block of
    # "2,1:+ / 1:+" at 1..5 and of every tensor block of + + - - + at 1..4,
    # recorded before the keyed linear extension replaced the pairwise one.
    # Several of these blocks are reordered by a sort on a Bruhat-monotone
    # scalar key, so the digest pins the "smallest remaining minimal" rule.
    GOLDEN = "edab44771924e750d05d40470853c3f092d23de6df1e702b417525ac3ce46b09"

    def test_golden_block_order(self):
        h = hashlib.sha256()
        shape = MP(((2, 1), "+"), ((1,), "+"))
        for kind in ("row", "std", "col"):
            for mu, block in weight_blocks(shape, (1, 5), kind):
                h.update(f"{kind} {sorted(mu.items())}: {[str(mt) for mt in block]}\n".encode())
        signs = ("+", "+", "-", "-", "+")
        for key in sorted(weight_keys(signs, (1, 4))):
            h.update(f"t {key}: {weight_block(signs, (1, 4), dict(key))}\n".encode())
        assert h.hexdigest() == self.GOLDEN


class TestWeightBlocks:
    def test_tensor_kind_lists_the_monomial_blocks(self):
        shape, window = MP(((2,), "+"), ((1,), "-")), (1, 3)
        signs = shape.sign_sequence()
        keys = sorted({wt_key(f, signs) for f in itertools.product(range(1, 4), repeat=3)})
        assert block_weights(shape, window, "t") == keys
        assert weight_blocks(shape, window, "t") == [
            (dict(k), weight_block(signs, window, dict(k))) for k in keys
        ]

    @pytest.mark.parametrize("window", [(1, 4), (0, 5)], ids=["1..4", "0..5"])
    @pytest.mark.parametrize("kind", ["row", "col", "std"])
    @pytest.mark.parametrize("shape", FILTER_SHAPES, ids=str)
    def test_block_matches_the_per_label_weight_filter(self, shape, kind, window):
        signs, reading = shape.sign_sequence(), qchar.bases._reading(kind)
        labels = enumerate_tableaux(shape, kind, window)

        def of_weight(mu):
            return reference_tableaux_of_weight(labels, mu)

        weights = [dict(key) for key in block_weights(shape, window, kind)]
        assert sum(len(of_weight(mu)) for mu in weights) == len(labels)
        for mu in weights:
            assert tableaux_of_weight(labels, mu) == of_weight(mu), mu
            assert qchar.bases._block(shape, window, kind, mu) == linear_extension(of_weight(mu), signs, reading)
        # Weights one carry of b away from a block weight: a positional code
        # of the weight in base b would not tell them from it.
        lo, hi = window
        k = len(signs)
        carried = [
            {**mu, lo: mu.get(lo, 0) + b, lo + 1: mu.get(lo + 1, 0) - 1}
            for mu in weights
            for b in (k + 1, 2 * k + 1)
        ]
        for mu in carried + [{}, {lo - 1: 1, hi: 0}, {lo: k + 1}, {lo: 0, hi + 1: 0}]:
            assert tableaux_of_weight(labels, mu) == of_weight(mu), mu

    @pytest.mark.parametrize("shape", FILTER_SHAPES, ids=str)
    def test_cached_key_is_the_signed_weight_key(self, shape):
        signs = shape.sign_sequence()
        for kind, window in itertools.product(("row", "col", "std"), ((1, 4), (0, 5))):
            for mt in enumerate_tableaux(shape, kind, window):
                assert mt.signed_key == wt_key(mt.row_reading(), signs)
                counts = collections.Counter()
                for a, s in zip(mt.row_reading(), signs):
                    counts[a] += 1 if s == "+" else -1
                assert mt.signed_key == weight_key(counts)

    @pytest.mark.parametrize("solve, span", [(sym_ideal_dcb, "symmetrizer ideal"), (dcb_wedge, "kappa span")])
    def test_bar_residual_names_the_label(self, monkeypatch, solve, span):
        # a stray monomial outside the block leaves a residual after elimination
        real = qchar.bases.bar_involution
        stray = TensorElement.monomial(("+", "+"), (1, 2), (1, 1))
        monkeypatch.setattr(qchar.bases, "bar_involution", lambda x: real(x) + stray)
        shape = MP(((1,), "+"), ((1,), "+"))
        with pytest.raises(RuntimeError, match=rf"^bar image of 1 / 2 leaves the {span}: "):
            solve(shape, (1, 2), {1: 1, 2: 1})


class TestTableauMemo:
    def solve_all(self):
        """Every dcb_S block of one shape and every Delta block of another,
        as (labels, JSON) per block."""
        out = []
        shape = MP(((2, 1), "+"), ((1,), "+"))
        for key in block_weights(shape, (1, 4), "row"):
            blk = dcb_S(shape, (1, 4), dict(key))
            out.append((blk.order, blk.to_json()))
        shape = MP(((2, 1), "+"), ((1,), "-"))
        for key in block_weights(shape, (1, 3), "std"):
            block, deltas = delta_block(shape, (1, 3), dict(key))
            out.append((tuple(block), [deltas[mt].to_json() for mt in block]))
        return out

    def test_cold_and_warm_runs_agree(self):
        listings = qchar.MEMOS["listings"]
        listings.cache_clear()
        cold = self.solve_all()
        # the two shapes' listings, and the Row listings of the standard
        # blocks that the Row blocks of 2,1:+ / 1:+ with support of size 1,
        # 2 and 3 are relabeled from, at 1..1, 1..2 and 1..3
        assert listings.cache_info().currsize == 5
        assert self.solve_all() == cold


# Shapes and windows whose Row blocks exercise the interned labels and the
# unchecked element constructor behind straighten, bar_involution and
# to_tensor.
LABEL_CASES = [
    (MP(((2, 1), "+"), ((1,), "+")), (1, 4)),
    (MP(((2,), "+"), ((1,), "-")), (1, 3)),
    (MP(((3, 1), "+")), (1, 3)),
]


class TestLabelMemo:
    @pytest.mark.parametrize("shape, window", LABEL_CASES, ids=str)
    def test_block_keys_are_the_order_labels(self, shape, window):
        # a fresh listing reads the label memo, as a fresh run does
        qchar.MEMOS["listings"].cache_clear()
        for key in block_weights(shape, window, "row"):
            blk = dcb_S(shape, window, dict(key))
            order = {id(t) for t in blk.order}
            for cols in (blk.bar_rows, blk.canon):
                assert {id(t) for t in cols} == order
                assert all(id(g) in order for col in cols.values() for g in col)

    def calls(self):
        """Zero-argument calls covering dcb_S, decomposition_matrix and
        simple_character, one block or label each, returning JSON text."""
        out = []
        shape, window = LABEL_CASES[1]
        for key in block_weights(shape, window, "row"):
            out.append(lambda mu=dict(key): dcb_S(shape, window, mu).to_json())
        for key in block_weights(shape, window, "std"):
            out.append(lambda mu=dict(key): decomposition_matrix(shape, window, mu).to_json())
        for mt in enumerate_tableaux(shape, "std", window):

            def character(mt=mt):
                dexp, verma = simple_character(mt, window)
                return [[tableau_json(g), c] for g, c in dexp.items()], verma.to_json()

            out.append(character)
        return out

    def run(self, calls, clear):
        results = []
        for call in calls:
            if clear:
                qchar.clear_caches()
            results.append(json.dumps(call()))
        return results

    def test_results_do_not_depend_on_the_label_memo(self, monkeypatch):
        calls = self.calls()
        warm = self.run(calls, clear=False)
        assert self.run(calls, clear=False) == warm
        # every memo, psi included, cleared before each call, so
        # between blocks
        assert self.run(calls, clear=True) == warm
        # cleared before each call and inside it, before every straighten,
        # every row normal form and every Verma expansion: the labels these
        # return are new objects, equal to the listing's

        def evicting(fn):
            def call(*args):
                qchar.clear_caches()
                return fn(*args)

            return call

        monkeypatch.setattr(qchar.bases, "straighten", evicting(straighten))
        monkeypatch.setattr(qchar.bases, "row_normal_form", evicting(row_normal_form))
        monkeypatch.setattr(qchar.characters, "row_normal_form", evicting(row_normal_form))
        monkeypatch.setattr(qchar.characters, "expand_standard", evicting(expand_standard))
        assert self.run(calls, clear=True) == warm

    @pytest.mark.parametrize("shape, window", LABEL_CASES, ids=str)
    def test_unchecked_results_pass_the_public_constructors(self, shape, window):
        keys = block_weights(shape, window, "row")
        assert keys
        for mt in (mt for key in keys for mt in qchar.bases._block(shape, window, "row", dict(key))):
            lifted = pi_monomial(shape, window, mt).to_tensor()
            barred = bar_involution(lifted)
            back = straighten(barred, shape)
            for x in (lifted, barred, back.to_tensor()):
                assert TensorElement(x.signs, x.window, x.coeffs) == x
            assert SElement(back.shape, back.window, back.coeffs) == back

    @pytest.mark.parametrize("shape, window", LABEL_CASES, ids=str)
    def test_labels_hold_the_shape_of_their_components(self, shape, window):
        listed = [mt for kind in ("row", "col", "std") for mt in enumerate_tableaux(shape, kind, window)]
        straightened = [
            g
            for mt in enumerate_tableaux(shape, "row", window)
            for g in straighten(bar_involution(pi_monomial(shape, window, mt).to_tensor()), shape).coeffs
        ]
        assert listed and straightened
        for mt in listed + straightened:
            assert mt.shape == SignedMultiPartition(tuple((t.shape, t.sign) for t in mt.components))


class TestSerialization:
    def test_tableau_json_rows(self):
        shape = MP(((2, 1), "+"))
        mt = MT(shape, (3, 1, 2))
        assert tableau_json(mt) == [[[3], [1, 2]]]

    def test_block_json_shape(self):
        blk = dcb_T(("+", "+"), (1, 2), {1: 1, 2: 1})
        data = blk.to_json()
        assert data["space"] == "t"
        assert data["order"] == [[1, 2], [2, 1]]
        # canonical matrix sparse entries: [row, col, coeff-json]
        assert [0, 1, [[-1, "1"]]] in data["canonical"]

    def test_equal_values_share_one_cell_within_a_result(self):
        data = dcb_T(("+", "+"), (1, 2), {1: 1, 2: 1}).to_json()
        diagonal = [cell for i, j, cell in data["canonical"] if i == j]
        assert diagonal == [[[0, "1"]]] * 2 and diagonal[0] is diagonal[1]

    @pytest.mark.parametrize("changed", range(6))
    def test_a_changed_cell_leaves_every_other_result_alone(self, changed):
        # The memo's standard block of +^3 and the block relabeled from it,
        # which holds the same Laurent objects, each written twice, and a
        # decomposition table written twice: changing every cell of one
        # result changes no other result and no later call.
        signs, mu = ("+",) * 3, {1: 1, 2: 1, 3: 1}
        standard = qchar.bases.solved_block("t", signs, (1, 3), weight_key(mu))
        relabeled = dcb_T(signs, (0, 4), {0: 1, 2: 1, 4: 1})
        values = {id(c) for cols in standard.bar_rows.values() for c in cols.values()}
        assert any(id(c) in values for cols in relabeled.bar_rows.values() for c in cols.values())
        table = decomposition_matrix(MP(((2, 1), "+")), (1, 3), {1: 1, 2: 1, 3: 1})
        objects = [standard, standard, relabeled, relabeled, table, table]
        results = [x.to_json() for x in objects]
        before = [json.dumps(r) for r in results]
        for key in ("bar", "canonical", "L_in_Delta"):
            for _, _, cell in results[changed].get(key, ()):
                cell[0][1] = "0"
                cell.append([99, "7"])
        assert json.dumps(results[changed]) != before[changed]
        for k, r in enumerate(results):
            if k != changed:
                assert json.dumps(r) == before[k]
        assert [json.dumps(x.to_json()) for x in objects] == before

    def test_latex_contains_entries(self):
        blk = dcb_T(("+", "+"), (1, 2), {1: 1, 2: 1})
        text = blk.to_latex()
        assert "\\begin{tabular}" in text and "$1*q^{-1}$" in text
