"""End-to-end acceptance tests.

Each test class matches one numbered acceptance property of the package:
exact Hecke/symmetrizer/bar identities on the tensor module, the dual
canonical basis solver characterization, the quotient and intertwiner
constructions, the two-route compatibility of the polynomial side, the
character-level identities, and the reference pyramid vectors.
"""

import itertools
import random

from orders import IntVector, bruhat_leq, weight_blocks
from qchar import tensor_space
from qchar.bases import (
    TriangularBlock,
    dcb_P,
    dcb_S,
    dcb_T,
    dcb_solve,
    delta,
    row_segments,
    straighten,
    sym_ideal_dcb,
    xi_raw,
    xi_wedge_images,
)
from qchar.characters import decomposition_matrix, theoremC_check
from qchar.cli import main
from qchar.combinatorics import (
    Partition,
    SignedMultiPartition,
    column_stabilizer,
    enumerate_tableaux,
    multi_tableau_from_row_reading,
    refine,
)
from qchar.laurent import (
    LaurentPoly,
    ONE,
    bar as bar_q,
    exact_divide,
    in_lattice,
    q_power,
)
from qchar.tensor_space import (
    TensorElement,
    WindowEscapeError,
    act_E,
    act_F,
    antisymmetrize,
    bar_involution,
    hecke_act,
    hecke_act_inverse,
    symmetrize,
    weight_keys,
    _theta,
)

WINDOW3 = (1, 3)
ZETA = LaurentPoly({-1: 1, 1: -1})  # q^-1 - q


def MP(*pieces):
    return SignedMultiPartition(tuple((Partition(p), s) for p, s in pieces))


def all_sign_sequences(max_len):
    for k in range(1, max_len + 1):
        yield from itertools.product("+-", repeat=k)


def hecke_sites(signs):
    return [i for i in range(1, len(signs)) if signs[i - 1] == signs[i]]


def random_element(rng, signs, window, terms=3):
    lo, hi = window
    out = TensorElement(signs, window)
    for _ in range(terms):
        f = tuple(rng.randint(lo, hi) for _ in signs)
        c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
        out = out + TensorElement.monomial(signs, window, f, c)
    return out


class TestCriterion1HeckeRelations:
    def test_quadratic_and_braid_on_all_monomials(self):
        for signs in all_sign_sequences(4):
            sites = hecke_sites(signs)
            for f in itertools.product(range(1, 4), repeat=len(signs)):
                x = TensorElement.monomial(signs, WINDOW3, f)
                for i in sites:
                    h = hecke_act(i, x)
                    assert hecke_act(i, h) == h.scale(ZETA) + x, (signs, f, i)
                for i in sites:
                    if i + 1 not in sites:
                        continue
                    lhs = hecke_act(i, hecke_act(i + 1, hecke_act(i, x)))
                    rhs = hecke_act(i + 1, hecke_act(i, hecke_act(i + 1, x)))
                    assert lhs == rhs, (signs, f, i)


class TestCriterion2SymmetrizerIdentities:
    def test_on_seeded_random_elements(self):
        rng = random.Random(92)
        for trial in range(200):
            k = rng.randint(2, 4)
            sign = rng.choice("+-")
            signs = (sign,) * k
            x = random_element(rng, signs, WINDOW3)
            i = rng.randint(1, k - 1)
            s = symmetrize(x, [(1, k)])
            a = antisymmetrize(x, [(1, k)])
            assert hecke_act(i, s) == s.scale(q_power(-1)), (trial, signs, i)
            assert hecke_act(i, a) == a.scale(-q_power(1)), (trial, signs, i)


class TestCriterion3BarInvolution:
    def test_involution_antilinearity_twist_triangularity(self):
        rng = random.Random(193)
        for signs in all_sign_sequences(5):
            x = random_element(rng, signs, WINDOW3)
            assert bar_involution(bar_involution(x)) == x
            c = LaurentPoly({rng.randint(-2, 2): rng.randint(1, 3)})
            assert bar_involution(x.scale(c)) == bar_involution(x).scale(bar_q(c))
            for i in hecke_sites(signs):
                assert bar_involution(hecke_act(i, x)) == hecke_act_inverse(
                    i, bar_involution(x)
                )

    def test_strict_triangularity_on_monomials(self):
        for signs in (("+", "+"), ("+", "-"), ("-", "+", "+")):
            for f in itertools.product(range(1, 4), repeat=len(signs)):
                b = bar_involution(TensorElement.monomial(signs, WINDOW3, f))
                assert b.coeffs.get(f) == ONE
                for g in b.coeffs:
                    assert bruhat_leq(IntVector(g, signs), IntVector(f, signs))


def intertwines(si, sj, z):
    """The rank-one intertwining check that derives the quasi-R constant.

    On the two-factor module of signs (si, sj) with entries {0, 1}, the
    pairwise step Theta with constant z must satisfy E_0 Theta = Theta E_0-bar
    and the F_0 analogue as exact matrix identities, where the barred action
    goes through the bar of the coproduct; on a monomial that is the plain
    action with its coefficients barred.  This orientation is the one that
    makes the assembled involution commute with the quantum-group action.
    """
    signs, window = (si, sj), (0, 1)

    def theta(x):
        return TensorElement(signs, window, _theta(x.coeffs, 0, 1, signs, window, z))

    for f in itertools.product((0, 1), repeat=2):
        x = TensorElement.monomial(signs, window, f)
        for act in (act_E, act_F):
            try:
                lhs = act(0, theta(x))
                rhs = theta(act(0, x).map_coeffs(bar_q))
            except WindowEscapeError:
                return False
            if lhs != rhs:
                return False
    return True


class TestCriterion4ZetaConstants:
    def test_exactly_one_sign_choice_per_pair(self):
        # the candidates +-(q - q^-1); the library's one constant is the
        # survivor on all four ordered sign pairs
        for si in "+-":
            for sj in "+-":
                passing = [z for z in (-ZETA, ZETA) if intertwines(si, sj, z)]
                assert len(passing) == 1, (si, sj)
                assert passing[0] == tensor_space.ZETA, (si, sj)

    def test_rank_one_bar_on_plus_plus(self):
        x = TensorElement.monomial(("+", "+"), WINDOW3, (2, 1))
        b = bar_involution(x)
        assert b.coeffs == {(2, 1): ONE, (1, 2): ZETA}


class TestCriterion5SolverCharacterization:
    BLOCKS = [
        (("+", "+"), (1, 2), {1: 1, 2: 1}),
        (("+", "+", "+"), (1, 3), {1: 1, 2: 1, 3: 1}),
        (("+", "-"), (1, 2), {1: 1, 2: -1}),
        (("-", "-"), (1, 2), {1: -1, 2: -1}),
    ]

    def test_bar_invariance_unitriangular_lattice(self):
        for signs, window, mu in self.BLOCKS:
            blk = dcb_T(signs, window, mu)
            for t in blk.order:
                canon = blk.canon[t]
                assert canon[t] == ONE
                for g, c in canon.items():
                    if g != t:
                        assert in_lattice(c)
                x = TensorElement(signs, window)
                for g, c in canon.items():
                    x = x + TensorElement.monomial(signs, window, g, c)
                assert bar_involution(x) == x

    def test_invariant_under_linear_extension_change(self):
        signs, window, mu = ("+", "+", "+"), (1, 3), {1: 1, 2: 1, 3: 1}
        blk = dcb_T(signs, window, mu)
        pos = {t: i for i, t in enumerate(blk.order)}
        # Any other valid extension must produce the same canonical vectors:
        # swap adjacent incomparable labels and re-solve.
        order = list(blk.order)
        for k in range(len(order) - 1):
            a, b = order[k], order[k + 1]
            if not bruhat_leq(IntVector(a, signs), IntVector(b, signs)):
                swapped = order[:k] + [b, a] + order[k + 2 :]
                resolved = dcb_solve(
                    TriangularBlock("t", tuple(swapped), blk.bar_rows)
                )
                assert resolved.canon == blk.canon

    def test_rank_one_block_value(self):
        blk = dcb_T(("+", "+"), (1, 2), {1: 1, 2: 1})
        assert blk.canon[(1, 2)] == {(1, 2): ONE}
        assert blk.canon[(2, 1)] == {(2, 1): ONE, (1, 2): q_power(-1)}


class TestCriterion6SIdentification:
    def shapes(self):
        for n in range(1, 5):
            for parts in partitions(n):
                for sign in "+-":
                    yield MP((parts, sign))
        yield MP(((2,), "+"), ((2,), "-"))
        yield MP(((1, 1), "+"), ((1,), "+"))

    def test_dcb_S_equals_symmetrizer_ideal_basis(self):
        for shape in self.shapes():
            for mu, _ in weight_blocks(shape, WINDOW3, "row"):
                a = dcb_S(shape, WINDOW3, mu)
                b = sym_ideal_dcb(shape, WINDOW3, mu)
                assert a.order == b.order, (shape, mu)
                assert a.canon == b.canon, (shape, mu)


def partitions(n, cap=None):
    cap = cap or n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


class TestCriterion7XiValidation:
    SHAPES = [
        ((2, 1), "+"),
        ((2, 1), "-"),
        ((2, 2), "+"),
        ((2, 2), "-"),
        ((3, 1), "+"),
        ((3, 1), "-"),
    ]

    def test_nonvanishing_iff_std(self):
        for lam, sign in self.SHAPES:
            for window in ((1, 3), (1, 4)):
                shape = MP((lam, sign))
                for mt, el in xi_wedge_images(shape, window).items():
                    assert (not el.is_zero()) == mt.is_std(), (lam, sign, window, mt)

    def test_lattice_membership(self):
        for lam, sign in self.SHAPES:
            shape = MP((lam, sign))
            for mt in enumerate_tableaux(shape, "std", (1, 4)):
                d = delta(mt, (1, 4))
                assert d.coeffs[mt] == ONE
                for g, c in d.coeffs.items():
                    if g != mt:
                        assert in_lattice(c)

    def test_classical_limit_identity(self):
        for lam, sign in self.SHAPES:
            shape = MP((lam, sign))
            for mt in enumerate_tableaux(shape, "std", WINDOW3):
                raw = xi_raw(mt, WINDOW3)
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
                assert lhs == {k: v for k, v in rhs.items() if v}, (lam, sign, mt)


class TestCriterion8RouteCompatibility:
    SHAPES = [
        (MP(((1, 1), "+")), (1, 3)),
        (MP(((2,), "+")), (1, 3)),
        (MP(((2, 1), "+")), (1, 3)),
        (MP(((2, 1), "-")), (1, 3)),
        (MP(((1, 1), "+"), ((1,), "+")), (1, 3)),
        (MP(((2,), "+"), ((1, 1), "-")), (1, 2)),
        (MP(((1, 1), "+"), ((1, 1), "+")), (1, 2)),
    ]

    def test_routes_agree_on_every_block(self):
        for shape, window in self.SHAPES:
            for mu, block in weight_blocks(shape, window, "std"):
                assert len(block) <= 50
                dcb_P(shape, window, mu)  # raises RouteDisagreement on mismatch


class TestCriterion9TheoremC:
    def test_exhaustive_expansion_agreement(self):
        for shape, window in [
            (MP(((2, 1), "+"), ((2,), "-")), (0, 2)),
            (MP(((1, 1), "+"), ((2,), "+")), (1, 3)),
            (MP(((2, 2), "+")), (1, 3)),
        ]:
            rep = theoremC_check(shape, window)
            assert rep["pass"], rep


class TestCriterion10RankOneTable:
    def test_decomposition_table(self):
        shape = MP(((1,), "+"), ((1,), "+"))
        tbl = decomposition_matrix(shape, (1, 2), {1: 1, 2: 1})
        assert [str(t) for t in tbl.order] == ["1 / 2", "2 / 1"]
        mat = [[tbl.Delta_in_L[j][i] for j in range(2)] for i in range(2)]
        assert mat == [[1, 1], [0, 1]]


class TestCriterion11Nonnegativity:
    SUITE = [
        (MP(((1, 1), "+")), (1, 3)),
        (MP(((2,), "+")), (1, 3)),
        (MP(((2, 1), "+")), (1, 3)),
        (MP(((2, 1), "-")), (1, 3)),
        (MP(((1,), "+"), ((1,), "+")), (1, 3)),
        (MP(((1, 1), "+"), ((1,), "+")), (1, 3)),
        (MP(((2,), "+"), ((1, 1), "-")), (1, 2)),
        (MP(((1, 1), "+"), ((1, 1), "+")), (1, 2)),
    ]

    def test_all_multiplicities_nonnegative(self):
        for shape, window in self.SUITE:
            for mu, _ in weight_blocks(shape, window, "std"):
                tbl = decomposition_matrix(shape, window, mu)
                for j, t in enumerate(tbl.order):
                    for i, g in enumerate(tbl.order):
                        assert tbl.Delta_in_L[j][i] >= 0, {
                            "shape": str(shape),
                            "weight": mu,
                            "order": [str(x) for x in tbl.order],
                            "entry": (str(g), str(t)),
                            "table": tbl.Delta_in_L,
                        }


def q_lattice_canon(blk):
    """The dual canonical basis of `blk`'s bar matrix unitriangular in q Z[q],
    written outside the library: the bar image of the q^-1 Z[q^-1] solve of
    the barred bar matrix."""
    rows = {t: {g: bar_q(c) for g, c in row.items()} for t, row in blk.bar_rows.items()}
    canon = dcb_solve(TriangularBlock(blk.space, blk.order, rows)).canon
    return {t: {g: bar_q(c) for g, c in col.items()} for t, col in canon.items()}


# The q-lattice survey: every Row block of these shapes at 1..3 and 1..4.
Q_LATTICE_SHAPES = [
    MP(((2,), "+"), ((1,), "+")),
    MP(((3, 1), "+")),
    MP(((2, 1), "+"), ((1,), "+")),
    MP(((2,), "+"), ((1,), "-")),
    MP(((2, 1), "+"), ((1,), "-")),
    MP(((2,), "+"), ((1, 1), "+")),
    MP(((2, 2), "+")),
]


def q_lattice_survey():
    """(shape, window, weight, q-lattice dcb_S block) over the survey."""
    for shape, window in itertools.product(Q_LATTICE_SHAPES, [(1, 3), (1, 4)]):
        for mu, _ in weight_blocks(shape, window, "row"):
            yield shape, window, mu, dcb_S(shape, window, mu)


class TestQLatticePositivity:
    """The judge of the q-lattice convention on S, written outside the
    library: the dual canonical basis unitriangular in q Z[q] is the bar
    image of the q^-1 Z[q^-1] solve of the barred bar matrix.  At q = +1 its
    Delta-in-L inverse, by back substitution over the block order as in
    `decomposition_matrix`, has a unit diagonal and no negative entry."""

    def test_delta_in_L_is_nonnegative_at_q_one(self):
        blocks = 0
        for shape, _, mu, blk in q_lattice_survey():
            canon = q_lattice_canon(blk)
            delta_cols = {}
            for t in blk.order:
                col = {g: sum(c.terms.values()) for g, c in canon[t].items()}
                assert col.pop(t) == 1, (str(shape), mu, str(t))
                delta_cols[t] = {t: 1}
                for g, c in col.items():
                    for h, d in delta_cols[g].items():
                        delta_cols[t][h] = delta_cols[t].get(h, 0) - c * d
                assert min(delta_cols[t].values()) >= 0, (str(shape), mu, str(t))
            blocks += 1
        assert blocks == 338


class TestQLatticeDescent:
    """The `descent` judge of the q-lattice convention: the quotient map
    carries the q-lattice basis of T onto that of S.  On every survey block,
    L_T at the row reading of a Row label A straightens to L_S(A), and every
    other T basis element of the block straightens to 0."""

    def test_row_readings_descend_and_the_rest_vanish(self):
        blocks = labels = 0
        for shape, window, mu, blk in q_lattice_survey():
            signs = shape.sign_sequence()
            s_canon = q_lattice_canon(blk)
            label_at = {A.row_reading(): A for A in s_canon}
            for f, col in q_lattice_canon(dcb_T(signs, window, mu)).items():
                image = straighten(TensorElement(signs, window, col), shape).coeffs
                A = label_at.get(f)
                assert image == ({} if A is None else s_canon[A]), (str(shape), mu, f)
            blocks += 1
            labels += len(s_canon)
        assert (blocks, labels) == (338, 1004)


def quantum_factorial(k):
    """[k]! = [1][2]...[k], with [i] = q^(i-1) + q^(i-3) + ... + q^(1-i)."""
    out = ONE
    for i in range(1, k + 1):
        out = out * LaurentPoly({i - 1 - 2 * j: 1 for j in range(i)})
    return out


class TestQLatticeCrystal:
    """The `crystal` judge of the q-lattice convention on T (Kashiwara's rule
    for the upper global basis): for each basis element L_b and each E_a or
    F_a inside the window, with k the largest power that leaves L_b nonzero,
    X^k L_b divided exactly by [k]! is again a basis element."""

    SPACES = [("+++", (1, 3)), ("+-+", (1, 3)), ("++++", (1, 4)), ("+-+-", (1, 3))]

    def test_top_divided_powers_are_basis_elements(self):
        checks = 0
        for signs, window in self.SPACES:
            signs = tuple(signs)
            basis = {}
            for key in sorted(weight_keys(signs, window)):
                blk = dcb_T(signs, window, dict(key))
                for col in q_lattice_canon(blk).values():
                    basis[frozenset(col.items())] = TensorElement(signs, window, col)
            for x, a, act in itertools.product(
                basis.values(), range(window[0], window[1]), (act_E, act_F)
            ):
                k, top = 0, x
                while not (y := act(a, top)).is_zero():
                    k, top = k + 1, y
                if not k:
                    continue
                fact = quantum_factorial(k)
                divided = {g: exact_divide(c, fact) for g, c in top.coeffs.items()}
                assert frozenset(divided.items()) in basis, (signs, x, a, act.__name__, k)
                checks += 1
        assert checks == 1076


class TestCriterion12PaperVectors:
    def test_refinement_vector(self):
        shape = MP(((3, 3, 1), "+"), ((4, 2), "-"), ((2,), "+"), ((3, 1), "-"))
        ref = refine(shape)
        assert [p.parts for p, _ in ref.pieces] == [
            (3,),
            (3,),
            (1,),
            (4,),
            (2,),
            (2,),
            (3,),
            (1,),
        ]
        assert "".join(s for _, s in ref.pieces) == "+++--+--"
        assert "".join(ref.sign_sequence()) == "+" * 7 + "-" * 6 + "+" * 2 + "-" * 4

    def test_g0_signatures_both_sign_sequences(self, capsys):
        cases = [
            ("3,3,1:+ / 4,2:+ / 2:- / 3,1:-", "g(0) = gl_{5|3}⊕gl_{4|2}⊕gl_{3|1}⊕gl_1"),
            ("3,3,1:+ / 4,2:- / 2:+ / 3,1:-", "g(0) = gl_{4|4}⊕gl_{3|3}⊕gl_{2|2}⊕gl_1"),
        ]
        for shape_text, expected in cases:
            code = main(["report", "--shape", shape_text, "--format", "text"])
            out = capsys.readouterr().out
            assert code == 0
            assert expected in out.splitlines()


class TestCriterion13EnumerationOracle:
    WINDOW = (1, 4)

    @staticmethod
    def brute_count(shape, kind, window):
        segs = row_segments(shape)
        size = sum(length for _, length, _ in segs)
        lo, hi = window
        # column membership per piece for the col-strict predicate
        count = 0
        for f in itertools.product(range(lo, hi + 1), repeat=size):
            mt = multi_tableau_from_row_reading(shape, f)
            ok = {"row": mt.is_row, "col": mt.is_col, "std": mt.is_std}[kind]()
            if ok:
                count += 1
        return count

    def test_cardinalities_match_brute_force(self):
        shapes = []
        for n in range(1, 7):
            for parts in partitions(n):
                shapes.append(MP((parts, "+")))
                shapes.append(MP((parts, "-")))
        shapes.append(MP(((2, 1), "+"), ((2,), "-")))
        shapes.append(MP(((1, 1), "+"), ((2,), "+")))
        for shape in shapes:
            for kind in ("row", "col", "std"):
                expected = self.brute_count(shape, kind, self.WINDOW)
                assert len(enumerate_tableaux(shape, kind, self.WINDOW)) == expected, (
                    str(shape),
                    kind,
                )
