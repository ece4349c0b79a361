import collections
import hashlib
import itertools
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qchar

from orders import (
    IntVector,
    bruhat_key,
    bruhat_leq,
    in_P_plus,
    key_leq,
    multi_leq_T,
    reference_linear_extension,
    tableau_leq_T,
    weight_blocks,
)
from qchar.bases import _reading
from qchar.combinatorics import (
    MultiTableau,
    Partition,
    SignedMultiPartition,
    Tableau,
    box_labels,
    bruhat_above,
    column_stabilizer,
    enumerate_component,
    enumerate_tableaux,
    multi_tableau_from_row_reading,
    pyramid_report,
    refine,
    row_normal_form,
    tableau_from_row_reading,
    wt_key,
)
from qchar.tensor_space import linear_extension, weight_block, weight_keys


def T(parts, sign, rows):
    return Tableau(Partition(tuple(parts)), sign, tuple(tuple(r) for r in rows))


def MP(*pieces):
    return SignedMultiPartition(tuple((Partition(tuple(p)), s) for p, s in pieces))


# The three plus-sign and three minus-sign tableaux of shape (3,2,2) used as
# running examples: row-only, column-only, and standard.
ROW_PLUS = T((3, 2, 2), "+", [(2, 2), (3, 6), (0, 0, 1)])
COL_PLUS = T((3, 2, 2), "+", [(3, 6), (2, 2), (0, 1, 0)])
STD_PLUS = T((3, 2, 2), "+", [(3, 6), (2, 2), (0, 0, 1)])
ROW_MINUS = T((3, 2, 2), "-", [(2, 2), (1, 0), (6, 3, 3)])
COL_MINUS = T((3, 2, 2), "-", [(1, 0), (2, 2), (3, 3, 6)])
STD_MINUS = T((3, 2, 2), "-", [(1, 0), (2, 2), (6, 3, 3)])


class TestSignedMultiPartition:
    @pytest.mark.parametrize("sign", ["", "+-", "x"])
    def test_rejects_malformed_sign(self, sign):
        with pytest.raises(ValueError):
            MP(((1,), sign))


class TestTableauPredicates:
    def test_running_examples_plus(self):
        assert ROW_PLUS.is_row() and not ROW_PLUS.is_col()
        assert COL_PLUS.is_col() and not COL_PLUS.is_row()
        assert STD_PLUS.is_std()

    def test_running_examples_minus(self):
        assert ROW_MINUS.is_row() and not ROW_MINUS.is_col()
        assert COL_MINUS.is_col() and not COL_MINUS.is_row()
        assert STD_MINUS.is_std()


class TestReadingsAndWeights:
    def test_column_reading(self):
        assert STD_PLUS.column_reading() == (3, 2, 0, 6, 2, 0, 1)

    def test_row_reading(self):
        assert STD_PLUS.row_reading() == (3, 6, 2, 2, 0, 0, 1)

    def test_single_box(self):
        t = T((1,), "+", [(7,)])
        assert t.column_reading() == (7,)
        assert t.row_reading() == (7,)

    def test_weight(self):
        assert dict(MultiTableau((STD_PLUS,)).signed_key) == {0: 2, 1: 1, 2: 2, 3: 1, 6: 1}

    def test_signed_weight_flips_sign(self):
        mt = MultiTableau((STD_MINUS,))
        counts = collections.Counter(STD_MINUS.row_reading())
        assert dict(mt.signed_key) == {a: -c for a, c in counts.items()}

    def test_row_reading_round_trip(self):
        rebuilt = tableau_from_row_reading(STD_PLUS.shape, "+", STD_PLUS.row_reading())
        assert rebuilt == STD_PLUS


class TestPPlus:
    def test_generator(self):
        assert in_P_plus({0: 1, 1: -1})

    def test_negated_generator(self):
        assert not in_P_plus({0: -1, 1: 1})

    def test_nonzero_total(self):
        assert not in_P_plus({0: 2, 1: -1})

    def test_brute_force_agreement(self):
        # N-combinations of delta_a - delta_{a+1}, a in [-3, 2], coefficients <= 4.
        reachable = set()
        coords = range(-3, 3)
        for coeffs in itertools.product(range(5), repeat=len(coords)):
            nu = {}
            for a, c in zip(coords, coeffs):
                nu[a] = nu.get(a, 0) + c
                nu[a + 1] = nu.get(a + 1, 0) - c
            reachable.add(tuple(sorted((a, c) for a, c in nu.items() if c)))
        for support in itertools.product(range(-3, 4), repeat=3):
            for vals in itertools.product(range(-4, 5), repeat=3):
                nu = {}
                for a, c in zip(support, vals):
                    nu[a] = nu.get(a, 0) + c
                nu = {a: c for a, c in nu.items() if c}
                key = tuple(sorted(nu.items()))
                if max((abs(c) for c in nu.values()), default=0) <= 4:
                    assert in_P_plus(nu) == (key in reachable), nu


class TestBruhatOrder:
    def test_reflexive(self):
        f = IntVector((3, 1, 2), ("+", "+", "-"))
        assert bruhat_leq(f, f)

    def test_two_letter_plus(self):
        s = ("+", "+")
        assert bruhat_leq(IntVector((1, 2), s), IntVector((2, 1), s))
        assert not bruhat_leq(IntVector((2, 1), s), IntVector((1, 2), s))

    def test_different_weight(self):
        s = ("+", "+")
        assert not bruhat_leq(IntVector((1, 1), s), IntVector((2, 1), s))

    @pytest.mark.parametrize("signs", [("+", "+", "+"), ("+", "-", "+"), ("-", "-", "+")])
    def test_poset_axioms(self, signs):
        vectors = [IntVector(v, signs) for v in itertools.product(range(3), repeat=3)]
        for f in vectors:
            assert bruhat_leq(f, f)
        for f, g in itertools.permutations(vectors, 2):
            if bruhat_leq(f, g) and bruhat_leq(g, f):
                assert f == g
        for f, g, h in itertools.permutations(vectors, 3):
            if bruhat_leq(f, g) and bruhat_leq(g, h):
                assert bruhat_leq(f, h)


    @pytest.mark.parametrize("signs", [("+", "+", "+"), ("+", "-", "+"), ("-", "+", "-", "-")])
    def test_key_matches_suffix_weight_definition(self, signs):
        # g <= f iff wt^1 agree and wt^j(f) - wt^j(g) lies in P+ for j >= 2.
        def suffix_weights(f):
            out = []
            for j in range(len(f)):
                nu = {}
                for v, s in zip(f[j:], signs[j:]):
                    nu[v] = nu.get(v, 0) + (1 if s == "+" else -1)
                out.append(nu)
            return out

        vectors = list(itertools.product(range(3), repeat=len(signs)))
        weights = {f: suffix_weights(f) for f in vectors}
        for g, f in itertools.product(vectors, repeat=2):
            wg, wf = weights[g], weights[f]
            same = {a: c for a, c in wg[0].items() if c} == {a: c for a, c in wf[0].items() if c}
            diffs = [{a: wf[j].get(a, 0) - wg[j].get(a, 0) for a in {*wf[j], *wg[j]}} for j in range(1, len(f))]
            expected = same and all(in_P_plus(d) for d in diffs)
            assert bruhat_leq(IntVector(g, signs), IntVector(f, signs)) == expected


def assert_above_matches_key_leq(readings, signs):
    """`bruhat_above` against `key_leq` on every ordered pair of distinct
    readings, and nothing strictly above itself."""
    above = bruhat_above(readings, signs)
    thresholds = sorted({v for f in readings for v in f})
    keys = [bruhat_key(f, signs, thresholds) for f in readings]
    assert len(above) == len(readings)
    assert all(row == sorted(row) for row in above)
    above = [set(row) for row in above]
    for a, b in itertools.product(range(len(readings)), repeat=2):
        assert (b in above[a]) == (a != b and key_leq(keys[a], keys[b])), (readings[a], readings[b])


T_SPACES = [(tuple("++--+"), (1, 4)), (tuple("+-+-"), (1, 5))]
TABLEAU_SHAPES = [MP(((2, 1), "+"), ((1,), "+")), MP(((3, 1), "+"), ((1,), "-"))]


def ordered_blocks(case):
    """(signs, items, reading) for every block of one T space, or of one
    shape and tableau kind, at its window."""
    if case in T_SPACES:
        signs, window = case
        return [(signs, weight_block(signs, window, dict(k)), None) for k in sorted(weight_keys(signs, window))]
    shape, kind = case
    return [(shape.sign_sequence(), block, _reading(kind)) for _, block in weight_blocks(shape, (1, 5), kind)]


BLOCK_CASES = [*T_SPACES, *itertools.product(TABLEAU_SHAPES, ["row", "col", "std"])]
BLOCK_IDS = [f"t {''.join(s)}@{w[0]}..{w[1]}" for s, w in T_SPACES] + [
    f"{kind} {shape}@1..5" for shape, kind in BLOCK_CASES[len(T_SPACES):]
]


@st.composite
def block_subsets(draw):
    """A sign sequence of length 0-7, a window of width 1-6 starting at
    -3..3, and distinct members of one weight block: the + entries are the
    weight's positive part plus a shared multiset C, the - entries its
    negative part plus C, each shuffled over its positions."""
    k = draw(st.integers(0, 7))
    signs = tuple(draw(st.lists(st.sampled_from("+-"), min_size=k, max_size=k)))
    lo = draw(st.integers(-3, 3))
    hi = lo + draw(st.integers(0, 5))
    f = draw(st.lists(st.integers(lo, hi), min_size=k, max_size=k))
    mu = collections.Counter()
    for v, s in zip(f, signs):
        mu[v] += 1 if s == "+" else -1
    plus = [i for i, s in enumerate(signs) if s == "+"]
    minus = [i for i, s in enumerate(signs) if s == "-"]
    excess_plus = [a for a, c in mu.items() if c > 0 for _ in range(c)]
    excess_minus = [a for a, c in mu.items() if c < 0 for _ in range(-c)]
    shared = len(plus) - len(excess_plus)
    members = {tuple(f)}
    for _ in range(draw(st.integers(0, 9))):
        common = draw(st.lists(st.integers(lo, hi), min_size=shared, max_size=shared))
        g = [0] * k
        for positions, values in ((plus, excess_plus + common), (minus, excess_minus + common)):
            for i, v in zip(positions, draw(st.permutations(values))):
                g[i] = v
        members.add(tuple(g))
    return signs, draw(st.permutations(sorted(members)))


class TestPackedBruhat:
    """The packed `bruhat_above` against the tuple keys of `tests/orders.py`,
    and `linear_extension` against the pairwise `reference_linear_extension`."""

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=BLOCK_IDS)
    def test_matches_key_leq_on_every_pair_of_every_block(self, case):
        for signs, items, reading in ordered_blocks(case):
            assert_above_matches_key_leq([x if reading is None else reading(x) for x in items], signs)

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=BLOCK_IDS)
    def test_linear_extension_matches_the_reference_on_shuffled_blocks(self, case):
        rng = random.Random(21)
        for signs, items, reading in ordered_blocks(case):
            shuffled = rng.sample(items, len(items))
            assert linear_extension(shuffled, signs, reading) == reference_linear_extension(shuffled, signs, reading)
            assert linear_extension(shuffled, signs, reading) == items

    @pytest.mark.parametrize("signs", [("+", "+", "+"), ("+", "-", "+"), ("-", "-", "+")])
    def test_matches_key_leq_across_weights(self, signs):
        # different total weights: row 0 alone decides
        assert_above_matches_key_leq(list(itertools.product(range(3), repeat=3)), signs)

    def test_no_factors(self):
        assert bruhat_above([], ()) == []
        assert bruhat_above([()], ()) == [[]]
        assert linear_extension([()], ()) == reference_linear_extension([()], ()) == [()]

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_one_factor(self, sign):
        readings = [(v,) for v in (2, -1, 0, 3)]
        assert_above_matches_key_leq(readings, (sign,))
        assert bruhat_above(readings, (sign,)) == [[], [], [], []]
        assert linear_extension(readings, (sign,)) == reference_linear_extension(readings, (sign,))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_all_minus(self, k):
        signs = ("-",) * k
        vectors = list(itertools.product(range(1, 4), repeat=k))
        assert_above_matches_key_leq(vectors, signs)
        for key in sorted({wt_key(f, signs) for f in vectors}):
            block = weight_block(signs, (1, 3), dict(key))
            assert_above_matches_key_leq(block, signs)
            assert block == reference_linear_extension(block[::-1], signs)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(block_subsets())
    def test_random_block_subsets(self, case):
        signs, members = case
        assert_above_matches_key_leq(members, signs)
        assert linear_extension(members, signs) == reference_linear_extension(members, signs)


class TestTableauOrder:
    def test_reflexive(self):
        assert tableau_leq_T(STD_PLUS, STD_PLUS, "+")

    def test_antisymmetry_exhaustive(self):
        lam = Partition((2, 1))
        readings = enumerate_component(lam, "+", "row", (0, 2))
        tabs = [tableau_from_row_reading(lam, "+", r) for r in readings]
        for a, b in itertools.permutations(tabs, 2):
            if tableau_leq_T(a, b, "+") and tableau_leq_T(b, a, "+"):
                assert a == b

    def test_multi_reflexive(self):
        mt = MultiTableau((STD_PLUS, STD_MINUS))
        assert multi_leq_T(mt, mt)

    def test_multi_single_component_collapses(self):
        lam = Partition((2, 1))
        readings = enumerate_component(lam, "+", "std", (0, 2))
        tabs = [tableau_from_row_reading(lam, "+", r) for r in readings]
        for a, b in itertools.product(tabs, repeat=2):
            assert multi_leq_T(MultiTableau((a,)), MultiTableau((b,))) == tableau_leq_T(
                a, b, "+"
            )

    def test_multi_transitive_exhaustive(self):
        shape = MP(((1,), "+"), ((1,), "+"))
        tabs = enumerate_tableaux(shape, "std", (0, 2))
        for a, b, c in itertools.permutations(tabs, 3):
            if multi_leq_T(a, b) and multi_leq_T(b, c):
                assert multi_leq_T(a, c)


class TestRefine:
    # The running eight-piece refinement example.
    EXAMPLE = MP(((3, 3, 1), "+"), ((4, 2), "-"), ((2,), "+"), ((3, 1), "-"))

    def test_refined_pieces(self):
        ref = refine(self.EXAMPLE)
        assert [p.parts for p, _ in ref.pieces] == [
            (3,), (3,), (1,), (4,), (2,), (2,), (3,), (1,),
        ]
        assert tuple(s for _, s in ref.pieces) == ("+", "+", "+", "-", "-", "+", "-", "-")

    def test_box_sign_sequence(self):
        ref = refine(self.EXAMPLE)
        assert "".join(ref.sign_sequence()) == "+" * 7 + "-" * 6 + "+" * 2 + "-" * 4

    def test_plus_minus_compositions(self):
        report = pyramid_report(self.EXAMPLE)
        assert report["jordan_type"] == [[3, 3, 1, 2], [4, 2, 3, 1]]
        assert (self.EXAMPLE.n, self.EXAMPLE.m) == (9, 10)

    def test_single_piece(self):
        ref = refine(MP(((4,), "+")))
        assert [p.parts for p, _ in ref.pieces] == [(4,)]
        assert tuple(s for _, s in ref.pieces) == ("+",)
        assert ref.sign_sequence() == ("+",) * 4


class TestEnumeration:
    def test_window_singleton(self):
        for kind in ("row", "col", "std"):
            tabs = enumerate_tableaux(MP(((1,), "+")), kind, (5, 5))
            assert len(tabs) == 1
            assert tabs[0].row_reading() == (5,)

    def test_running_example_membership(self):
        readings = enumerate_component(Partition((3, 2, 2)), "+", "std", (0, 6))
        assert STD_PLUS.row_reading() in readings
        assert ROW_PLUS.row_reading() not in readings
        row_readings = enumerate_component(Partition((3, 2, 2)), "+", "row", (0, 6))
        assert ROW_PLUS.row_reading() in row_readings

    def test_minus_example_membership(self):
        readings = enumerate_component(Partition((3, 2, 2)), "-", "std", (0, 6))
        assert STD_MINUS.row_reading() in readings

    def test_counts_against_brute_force(self):
        shapes = [(1,), (2,), (1, 1), (2, 1), (3, 2), (2, 2, 1), (3, 2, 1)]
        windows = [(0, 1), (0, 2), (1, 3), (0, 3)]
        for parts, sign, window in itertools.product(shapes, "+-", windows):
            lam = Partition(parts)
            lo, hi = window
            fillings = [
                tableau_from_row_reading(lam, sign, values)
                for values in itertools.product(range(lo, hi + 1), repeat=lam.size)
            ]
            for kind, pred in (
                ("row", Tableau.is_row),
                ("col", Tableau.is_col),
                ("std", Tableau.is_std),
            ):
                # the fillings run in lexicographic order of their readings
                expected = [t.row_reading() for t in fillings if pred(t)]
                got = enumerate_component(lam, sign, kind, window)
                assert len(got) == len(expected), (parts, sign, window, kind)
                assert got == expected, (parts, sign, window, kind)

    # SHA-256 over the Row/Col/Std listings of two shapes, recorded while
    # enumeration still built a tableau per filling and read it back.
    PINNED = "d04d63c96795990cd5d7bb060cd525594a01c67ffc247d0ea10f7cd6e7a76b84"

    def test_listings_match_the_pinned_digest(self):
        h, count = hashlib.sha256(), 0
        for shape, window in [
            (MP(((2, 1), "+"), ((1,), "+")), (1, 4)),
            (MP(((2, 1), "-"), ((1, 1), "+")), (0, 3)),
        ]:
            for kind in ("row", "col", "std"):
                tabs = enumerate_tableaux(shape, kind, window)
                count += len(tabs)
                h.update(f"{shape} {kind}: {[str(mt) for mt in tabs]}\n".encode())
        assert count == 1240
        assert h.hexdigest() == self.PINNED

    def test_std_subset_of_row(self):
        shape = MP(((2, 1), "+"), ((2,), "-"))
        row = set(enumerate_tableaux(shape, "row", (0, 2)))
        std = set(enumerate_tableaux(shape, "std", (0, 2)))
        assert std <= row

    def test_output_sorted_by_row_reading(self):
        for kind in ("row", "col", "std"):
            tabs = enumerate_tableaux(MP(((2, 1), "+"), ((1,), "-")), kind, (0, 2))
            readings = [t.row_reading() for t in tabs]
            assert readings and readings == sorted(readings), kind

    def test_memo_returns_one_shared_tuple(self):
        shape = MP(((2, 1), "+"), ((1,), "-"))
        tabs = enumerate_tableaux(shape, "row", (0, 2))
        assert isinstance(tabs, tuple)
        assert enumerate_tableaux(shape, "row", (0, 2)) is tabs
        assert enumerate_tableaux(shape, "row", [0, 2]) is tabs
        qchar.MEMOS["listings"].cache_clear()
        assert enumerate_tableaux(shape, "row", [0, 2]) == tabs

    def test_multi_round_trip(self):
        shape = MP(((2, 1), "+"), ((2,), "-"))
        for mt in enumerate_tableaux(shape, "row", (0, 2)):
            assert multi_tableau_from_row_reading(shape, mt.row_reading()) == mt


class TestLabelHash:
    SHAPE = MP(((2, 1), "+"), ((1,), "-"))

    def test_one_label_built_three_ways(self):
        # The enumerated label and both constructor calls are one interned
        # object; a label assembled directly from its tableaux is a distinct
        # object that is equal, hashes alike and finds the same dict entry.
        qchar.MEMOS["listings"].cache_clear()
        labels = enumerate_tableaux(self.SHAPE, "row", (1, 3))
        assert labels
        for mt in labels:
            reading = mt.row_reading()
            normal, inv = row_normal_form(self.SHAPE, reading)
            assert inv == 0
            assert multi_tableau_from_row_reading(self.SHAPE, normal) is mt
            assert multi_tableau_from_row_reading(self.SHAPE, reading) is mt
            direct = MultiTableau(tuple(Tableau(t.shape, t.sign, t.rows) for t in mt.components))
            assert direct is not mt
            assert direct == mt and hash(direct) == hash(mt)
            assert {mt: "entry"}[direct] == "entry" and {direct: "entry"}[mt] == "entry"

    def test_an_interned_label_holds_the_shape_it_was_built_for(self):
        qchar.clear_caches()
        for reading in ((1, 1, 2, 3), (3, 1, 2, 1)):
            assert multi_tableau_from_row_reading(self.SHAPE, reading).shape is self.SHAPE

    def test_a_pickled_label_hashes_like_a_fresh_one_under_another_seed(self):
        # a label and its shape cache their hashes, and a pickle carries the
        # cached values: they are built from ints and bools only, so that
        # unpickled under another string-hash seed they still equal the
        # hashes of fresh objects, and a dict rebuilt on them finds, and is
        # found by, fresh labels and shapes
        mt = enumerate_tableaux(self.SHAPE, "row", (1, 3))[-1]
        shape = mt.shape
        blob = pickle.dumps(({mt: "found", shape: "shape found"}, shape, mt))
        code = (
            "import pickle, sys\n"
            "from qchar.combinatorics import Partition, SignedMultiPartition, "
            "multi_tableau_from_row_reading\n"
            "shape = SignedMultiPartition(((Partition((2, 1)), '+'), (Partition((1,)), '-')))\n"
            f"fresh = multi_tableau_from_row_reading(shape, {mt.row_reading()!r})\n"
            "found, pickled, label = pickle.loads(sys.stdin.buffer.read())\n"
            "print(found.get(fresh), found.get(shape), {shape: 'same'}.get(pickled),\n"
            "      label.shape == shape and hash(label.shape) == hash(shape))\n"
            # an unpickled shape compares by the key it carries: equal to a
            # fresh one both ways, unequal to one that differs in a sign or
            # a part, and no shape equals its pieces
            "other = [SignedMultiPartition(((Partition((2, 1)), '+'), (Partition((1,)), s)))\n"
            "         for s in '+-'] + [SignedMultiPartition(((Partition((2,)), '+'), (Partition((1,)), '-')))]\n"
            "print(pickled == shape, shape == pickled, pickled != shape,\n"
            "      [pickled == o for o in other], pickled == shape.pieces,\n"
            "      pickled.sign_sequence() == shape.sign_sequence())\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(pathlib.Path(qchar.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-c", code], input=blob, env=env, capture_output=True, check=True
        ).stdout
        assert out == (
            b"found shape found same True\n"
            b"True True False [False, True, False] False True\n"
        )


def brute_row_normal_form(shape, reading):
    """Each row `sorted` on its own, with the strict inversions counted pair
    by pair."""
    out, inv, pos = [], 0, 0
    for p, s in shape.pieces:
        for length in p.row_lengths():
            row = reading[pos : pos + length]
            pos += length
            inv += sum(a > b if s == "+" else a < b for a, b in itertools.combinations(row, 2))
            out.extend(sorted(row, reverse=(s == "-")))
    return tuple(out), inv


class TestRowNormalForm:
    SHAPES = [MP(((2, 1), "+"), ((1,), "-")), MP(((2,), "-"), ((1, 1), "+"))]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matches_brute_force(self, shape):
        size = len(shape.sign_sequence())
        for reading in itertools.product(range(1, 4), repeat=size):
            assert row_normal_form(shape, reading) == brute_row_normal_form(shape, reading)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_row_labels_are_fixed(self, shape):
        for mt in enumerate_tableaux(shape, "row", (1, 3)):
            assert row_normal_form(shape, mt.row_reading()) == (mt.row_reading(), 0)

    def test_rejects_a_reading_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            row_normal_form(self.SHAPES[0], (1, 2, 3, 1, 2))


class TestColumnBoxes:
    @pytest.mark.parametrize(
        "shape", [MP(((2, 1), "+"), ((1,), "-")), MP(((2, 2), "+"), ((1, 1), "-"))], ids=str
    )
    def test_matches_the_columns_of_every_col_tableau(self, shape):
        for mt in enumerate_tableaux(shape, "col", (1, 4)):
            for t in mt.components:
                boxes = t.shape.column_boxes()
                cols = t.columns()
                assert [t.rows[i][j] for i, j in boxes] == [x for col in cols for x in col]
                assert [j for _, j in boxes] == [j for j, col in enumerate(cols) for _ in col]

    @pytest.mark.parametrize(
        "shape,labels",
        [
            (
                MP(((2, 1), "+"), ((1,), "-")),
                {(1, 1, 1): "1", (1, 2, 1): "2", (1, 2, 2): "3", (2, 1, 1): "bar1"},
            ),
            (
                MP(((1, 1), "-"), ((2,), "+")),
                {(1, 1, 1): "bar1", (1, 2, 1): "bar2", (2, 1, 1): "1", (2, 1, 2): "2"},
            ),
        ],
        ids=["2,1:+ / 1:-", "1,1:- / 2:+"],
    )
    def test_box_labels(self, shape, labels):
        # (piece, row, column), 1-based; each sign numbered down the columns.
        assert box_labels(shape) == labels


class TestColumnStabilizer:
    def test_single_column_of_height_two(self):
        mt = MultiTableau((T((1, 1), "+", [(2,), (1,)]),))
        elements = list(column_stabilizer(mt))
        assert len(elements) == 2
        assert sorted(length for _, length in elements) == [0, 1]

    def test_hook_size(self):
        mt = MultiTableau((T((2, 1), "+", [(2,), (0, 1)]),))
        assert len(list(column_stabilizer(mt))) == 2

    def test_sign_character_sums_to_zero(self):
        mt = MultiTableau((T((2, 2), "+", [(2, 3), (0, 1)]),))
        assert sum((-1) ** length for _, length in column_stabilizer(mt)) == 0

    def test_rejects_repeated_column_entry(self):
        mt = MultiTableau((T((1, 1), "+", [(1,), (1,)]),))
        match = r"^column stabilizer of 1\|1: repeated entry in a column: \(1, 1\)$"
        with pytest.raises(ValueError, match=match):
            list(column_stabilizer(mt))


class TestPyramidReport:
    SHAPE = [((3, 3, 1), None), ((4, 2), None), ((2,), None), ((3, 1), None)]

    def _mp(self, signs):
        return MP(*((parts, s) for (parts, _), s in zip(self.SHAPE, signs)))

    def test_g0_signature_plus_plus_minus_minus(self):
        report = pyramid_report(self._mp("++--"))
        assert report["g0"] == ["gl_{5|3}", "gl_{4|2}", "gl_{3|1}", "gl_1"]

    def test_g0_signature_alternating(self):
        report = pyramid_report(self._mp("+-+-"))
        assert report["g0"] == ["gl_{4|4}", "gl_{3|3}", "gl_{2|2}", "gl_1"]

    def test_trivial_piece(self):
        report = pyramid_report(MP(((1,), "+")))
        assert report["g0"] == ["gl_1"]
        assert report["e_support"] == []

    def test_column_length_identities(self):
        mp = self._mp("+-+-")
        report = pyramid_report(mp)
        for (p, _), cols in zip(mp.pieces, report["column_lengths"]):
            assert sum(cols) == p.size
        assert sum(report["q_plus"]) + sum(report["q_minus"]) == mp.n + mp.m

    def test_e_support_counts(self):
        # One pair per horizontal domino: |lam| - (number of rows) per piece.
        mp = self._mp("++--")
        report = pyramid_report(mp)
        expected = sum(p.size - p.length for p, _ in mp.pieces)
        assert len(report["e_support"]) == expected

    def test_theta_rejected_when_not_decreasing(self):
        with pytest.raises(ValueError):
            pyramid_report(self._mp("++--"), theta=(3, 3, 2, 1))

    def test_theta_accepted_when_decreasing(self):
        report = pyramid_report(self._mp("++--"), theta=(9, 5, 2, 0))
        assert report["theta"] == [9, 5, 2, 0]
