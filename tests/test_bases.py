import hashlib

import pytest

from qchar.combinatorics import (
    MultiTableau,
    Partition,
    SignedMultiPartition,
    Tableau,
    column_stabilizer,
    enumerate_tableaux,
    multi_tableau_from_row_reading,
)
from qchar.laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    eval_at_one,
    in_qinv_lattice,
    mirror,
    q_power,
)
import qchar.bases
from qchar.bases import (
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
    weight_blocks,
    xi_raw,
    xi_V,
    xi_wedge_images,
)
from qchar.tensor_space import (
    TensorElement,
    bar_involution,
    by_weight,
    hecke_act,
    monomials,
    weight_block,
)


def MP(*pieces):
    return SignedMultiPartition(tuple((Partition(p), s) for p, s in pieces))


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

    def test_row_segments_and_ranges(self):
        shape = MP(((2, 1), "+"), ((2,), "-"))
        assert row_segments(shape) == [(0, 1, "+"), (1, 2, "+"), (3, 2, "-")]
        assert row_ranges(shape) == [(2, 2), (4, 2)]


class TestSElement:
    def test_rejects_non_row_keys(self):
        shape = MP(((2,), "+"))
        bad = MT(shape, (2, 1))
        with pytest.raises(ValueError):
            SElement(shape, (1, 3), {bad: ONE})

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
                    assert in_qinv_lattice(c)
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
        bad = TriangularBlock("t", ("a", "b"), {"a": {"b": ONE}, "b": {"b": ONE}})
        with pytest.raises(RuntimeError):
            dcb_solve(bad)


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
                        assert in_qinv_lattice(c)

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
            lhs = {k: eval_at_one(c) for k, c in raw.coeffs.items() if eval_at_one(c)}
            rhs: dict = {}
            for smt, inv in column_stabilizer(mt):
                f = list(smt.row_reading())
                for start, length, s in row_segments(shape):
                    f[start : start + length] = sorted(
                        f[start : start + length], reverse=(s == "-")
                    )
                key = multi_tableau_from_row_reading(shape, tuple(f))
                rhs[key] = rhs.get(key, 0) + (-1) ** inv
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs

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
                    assert in_qinv_lattice(c)


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
                            assert in_qinv_lattice(c)

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
        coords = delta_coords(elem, deltas, order)
        assert coords == {order[0]: q_power(-2), order[-1]: ONE}


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
        for key in sorted(by_weight(monomials(signs, (1, 4)), signs)):
            h.update(f"t {key}: {weight_block(signs, (1, 4), dict(key))}\n".encode())
        assert h.hexdigest() == self.GOLDEN


class TestWeightBlocks:
    def test_tensor_kind_lists_the_monomial_blocks(self):
        shape, window = MP(((2,), "+"), ((1,), "-")), (1, 3)
        signs = shape.sign_sequence()
        keys = sorted(by_weight(monomials(signs, window), signs))
        assert block_weights(shape, window, "t") == keys
        assert weight_blocks(shape, window, "t") == [
            (dict(k), weight_block(signs, window, dict(k))) for k in keys
        ]

    @pytest.mark.parametrize("solve, span", [(sym_ideal_dcb, "symmetrizer ideal"), (dcb_wedge, "kappa span")])
    def test_bar_residual_names_the_label(self, monkeypatch, solve, span):
        # a stray monomial outside the block leaves a residual after elimination
        real = qchar.bases.bar_involution
        stray = TensorElement.monomial(("+", "+"), (1, 2), (1, 1))
        monkeypatch.setattr(qchar.bases, "bar_involution", lambda x: real(x) + stray)
        shape = MP(((1,), "+"), ((1,), "+"))
        with pytest.raises(RuntimeError, match=rf"^bar image of 1 / 2 leaves the {span}: "):
            solve(shape, (1, 2), {1: 1, 2: 1})


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

    def test_latex_contains_entries(self):
        blk = dcb_T(("+", "+"), (1, 2), {1: 1, 2: 1})
        text = blk.to_latex()
        assert "\\begin{tabular}" in text and "q^-1" in text
