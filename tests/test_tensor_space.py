import hashlib
import itertools
import random

import pytest

from orders import IntVector, bruhat_leq
from qchar.bases import bar_S, dcb_T, delta
from qchar.cli import parse_shape
from qchar.combinatorics import inversions, multi_tableau_from_row_reading, weight_key
from qchar.laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    bar,
    exact_divide,
    q_power,
)
from qchar.tensor_space import (
    ZETA,
    TensorElement,
    WindowEscapeError,
    _act_raise_lower,
    _psi_monomial,
    _theta,
    act_E,
    act_F,
    act_K,
    act_K_inv,
    act_K_pair,
    antisymmetrize,
    bar_involution,
    hecke_act,
    hecke_act_inverse,
    hecke_act_word,
    linear_extension,
    reduced_word,
    symmetrize,
    weight_block,
    weight_keys,
    wt_key,
)


def symmetric_group(k):
    """All permutations of 1..k with inversion number and a reduced word:
    the word-sum oracle of the symmetrizer tests."""
    return [(p, inversions(p), reduced_word(p)) for p in itertools.permutations(range(1, k + 1))]


# The quantum integer [2] = q + q^-1.
QUANTUM_2 = LaurentPoly({1: 1, -1: 1})
Q_MINUS_QINV = -ZETA  # q - q^-1


def mono(signs, window, f, coeff=ONE):
    return TensorElement.monomial(tuple(signs), window, tuple(f), coeff)


def random_element(rng, signs, window, terms=3):
    lo, hi = window
    out = TensorElement(tuple(signs), window)
    for _ in range(terms):
        f = tuple(rng.randint(lo, hi) for _ in signs)
        c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
        out = out + TensorElement.monomial(tuple(signs), window, f, c)
    return out


class TestElementBasics:
    def test_zero_coefficients_dropped(self):
        x = TensorElement(("+",), (0, 2), {(1,): ZERO})
        assert x.is_zero()

    def test_window_violation_rejected(self):
        with pytest.raises(WindowEscapeError):
            TensorElement(("+",), (0, 2), {(3,): ONE})

    def test_entry_below_window_rejected(self):
        with pytest.raises(WindowEscapeError):
            TensorElement(("+",), (1, 3), {(0,): ONE})

    @pytest.mark.parametrize("f", [(2, 5, 1), (2, 0, 3)], ids=["above", "below"])
    def test_interior_entry_outside_window_rejected(self, f):
        text = rf"vector \({f[0]}, {f[1]}, {f[2]}\) leaves window \(1, 3\)"
        with pytest.raises(WindowEscapeError, match=text):
            TensorElement(("+", "-", "+"), (1, 3), {f: ONE})

    def test_empty_sign_sequence_accepts_empty_key(self):
        x = TensorElement((), (1, 3), {(): ONE})
        assert x.coeffs == {(): ONE}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TensorElement(("+", "-"), (0, 2), {(1,): ONE})

    def test_hecke_word_validation(self):
        # A word is a plain sequence; hecke_act rejects a generator that
        # straddles a sign change.
        hecke_act_word((1, 2), mono("+++", (0, 2), (0, 1, 2)))
        with pytest.raises(ValueError):
            hecke_act_word((2,), mono("++-", (0, 2), (0, 1, 2)))


class TestGeneratorActions:
    def test_E_on_single_natural_factor(self):
        # E_a picks out the factor with entry a+1 and lowers it.
        assert act_E(1, mono("+", (0, 3), (2,))) == mono("+", (0, 3), (1,))
        assert act_E(1, mono("+", (0, 3), (1,))).is_zero()

    def test_F_and_duals_on_single_factor(self):
        assert act_F(1, mono("+", (0, 3), (1,))) == mono("+", (0, 3), (2,))
        assert act_E(1, mono("-", (0, 3), (1,))) == mono("-", (0, 3), (2,))
        assert act_F(1, mono("-", (0, 3), (2,))) == mono("-", (0, 3), (1,))

    def test_K_eigenvalues(self):
        x = mono("++-", (0, 3), (1, 1, 1))
        assert act_K(1, x) == x.scale(q_power(1))
        assert act_K_inv(1, x) == x.scale(q_power(-1))
        assert act_K(1, act_K_inv(1, x)) == x
        assert act_K_pair(1, mono("+-", (0, 3), (1, 2))) == mono(
            "+-", (0, 3), (1, 2), q_power(2)
        )

    def test_E_on_zero_is_zero(self):
        assert act_E(0, TensorElement(("+", "-"), (0, 2))).is_zero()

    def test_coproduct_corrections(self):
        # E_0 on v_1 x v_1 hits both factors; the left one sees K_{0,1} on the right.
        x = mono("++", (0, 1), (1, 1))
        assert act_E(0, x) == mono("++", (0, 1), (0, 1), q_power(-1)) + mono(
            "++", (0, 1), (1, 0)
        )

    def test_window_escape_raises(self):
        with pytest.raises(WindowEscapeError):
            act_E(-1, mono("+", (0, 2), (0,)))
        with pytest.raises(WindowEscapeError):
            act_F(2, mono("+", (0, 2), (2,)))

    def test_divided_power(self):
        # E_a^2 and F_a^2 are divisible by [2]; the divided squares move
        # both entries of a two-factor monomial.
        def divided_square(act, x):
            return act(0, act(0, x)).map_coeffs(lambda c: exact_divide(c, QUANTUM_2))

        x = mono("++", (0, 1), (1, 1))
        assert divided_square(act_E, x) == mono("++", (0, 1), (0, 0))
        assert divided_square(act_E, mono("++", (0, 1), (0, 1))).is_zero()
        assert divided_square(act_F, mono("++", (0, 1), (0, 0))) == x

    def test_serre_relations_on_module(self):
        rng = random.Random(7)
        for signs in ("+++", "+-+", "--+"):
            x = random_element(rng, signs, (0, 4))
            lhs = act_E(1, act_E(1, act_E(2, x))) + act_E(2, act_E(1, act_E(1, x)))
            rhs = act_E(1, act_E(2, act_E(1, x))).scale(QUANTUM_2)
            assert lhs == rhs
            lhs = act_F(1, act_F(1, act_F(2, x))) + act_F(2, act_F(1, act_F(1, x)))
            rhs = act_F(1, act_F(2, act_F(1, x))).scale(QUANTUM_2)
            assert lhs == rhs

    def test_EF_commutator(self):
        # [E_a, F_a] = (K_{a,a+1} - K_{a+1,a}) / (q - q^{-1}) on any element.
        rng = random.Random(11)
        for signs in ("++", "+-", "-+", "--", "+-+"):
            x = random_element(rng, signs, (1, 3))
            a = 2
            lhs = act_E(a, act_F(a, x)) - act_F(a, act_E(a, x))
            k_up = act_K_pair(a, x)
            k_dn = act_K_inv(a, act_K(a + 1, x))
            assert lhs.scale(Q_MINUS_QINV) == k_up - k_dn


class TestHeckeAction:
    def test_three_cases_plus(self):
        w = (0, 3)
        assert hecke_act(1, mono("++", w, (1, 1))) == mono("++", w, (1, 1), q_power(-1))
        assert hecke_act(1, mono("++", w, (2, 1))) == mono("++", w, (1, 2))
        assert hecke_act(1, mono("++", w, (1, 2))) == mono("++", w, (2, 1)) + mono(
            "++", w, (1, 2), -Q_MINUS_QINV
        )

    def test_three_cases_minus(self):
        # The comparison flips on dual blocks.
        w = (0, 3)
        assert hecke_act(1, mono("--", w, (1, 2))) == mono("--", w, (2, 1))
        assert hecke_act(1, mono("--", w, (2, 1))) == mono("--", w, (1, 2)) + mono(
            "--", w, (2, 1), -Q_MINUS_QINV
        )
        assert hecke_act(1, mono("--", w, (1, 1))) == mono("--", w, (1, 1), q_power(-1))

    def test_mixed_sign_position_rejected(self):
        with pytest.raises(ValueError):
            hecke_act(1, mono("+-", (0, 2), (1, 1)))

    def test_quadratic_relation(self):
        # (H_i - q^{-1})(H_i + q) kills every monomial.
        w = (0, 2)
        for signs in ("++", "--", "++-", "-++"):
            runs = [i for i in range(1, len(signs)) if signs[i - 1] == signs[i]]
            for f in itertools.product(range(3), repeat=len(signs)):
                x = mono(signs, w, f)
                for i in runs:
                    y = hecke_act(i, hecke_act(i, x)) + hecke_act(
                        i, x
                    ).scale(Q_MINUS_QINV) - x
                    assert y.is_zero()

    def test_braid_relation(self):
        w = (0, 2)
        for signs in ("+++", "---", "++++"):
            for f in itertools.product(range(3), repeat=len(signs)):
                x = mono(signs, w, f)
                assert hecke_act_word((1, 2, 1), x) == hecke_act_word((2, 1, 2), x)

    def test_inverse(self):
        w = (0, 2)
        for f in itertools.product(range(3), repeat=2):
            x = mono("++", w, f)
            assert hecke_act_inverse(1, hecke_act(1, x)) == x
            assert hecke_act(1, hecke_act_inverse(1, x)) == x
        # (H_1 H_2)^-1 = H_2^-1 H_1^-1
        z = hecke_act_word((1, 2), mono("+++", w, (2, 0, 1)))
        for i in (2, 1):
            z = hecke_act_inverse(i, z)
        assert z == mono("+++", w, (2, 0, 1))

    def test_commutes_with_quantum_group(self):
        rng = random.Random(3)
        for signs in ("+++", "---"):
            x = random_element(rng, signs, (1, 3))
            for a in (1, 2):
                for op in (act_E, act_F, act_K):
                    assert hecke_act(1, op(a, x)) == op(a, hecke_act(1, x))


class TestSymmetrizers:
    def test_permutation_table(self):
        assert [p for p, _, _ in symmetric_group(2)] == [(1, 2), (2, 1)]
        for p, length, word in symmetric_group(4):
            assert length == inversions(p) == len(word)
            # The word multiplies out to the permutation (acting on positions).
            arr = list(range(1, 5))
            for i in word:
                arr[i - 1], arr[i] = arr[i], arr[i - 1]
            assert tuple(arr) == p

    def test_reduced_word_longest(self):
        assert len(reduced_word((3, 2, 1))) == 3

    def test_sym2_example(self):
        # Sym_2 = q*1 + H_1, so M_{(a,a)} Sym_2 = (q + q^{-1}) M_{(a,a)}.
        w = (0, 2)
        x = mono("++", w, (1, 1))
        assert symmetrize(x, [(1, 2)]) == x.scale(QUANTUM_2)
        y = mono("++", w, (2, 1))
        assert symmetrize(y, [(1, 2)]) == y.scale(q_power(1)) + mono("++", w, (1, 2))

    def test_ant2_kills_diagonal(self):
        w = (0, 2)
        x = mono("--", w, (1, 1))
        assert antisymmetrize(x, [(1, 2)]).is_zero()

    def test_sym_eigen_identity(self):
        # M_f Sym_k H_sigma = q^{-l(sigma)} M_f Sym_k.
        rng = random.Random(5)
        w = (0, 3)
        for signs, k in (("+++", 3), ("---", 3), ("++++", 4)):
            x = random_element(rng, signs, w)
            s = symmetrize(x, [(1, k)])
            for _, length, word in symmetric_group(k):
                assert hecke_act_word(word, s) == s.scale(q_power(-length))

    def test_ant_eigen_identity(self):
        # M_f Ant_k H_sigma = (-q)^{l(sigma)} M_f Ant_k.
        rng = random.Random(6)
        w = (0, 3)
        for signs, k in (("+++", 3), ("----", 4)):
            x = random_element(rng, signs, w)
            a = antisymmetrize(x, [(1, k)])
            for _, length, word in symmetric_group(k):
                assert hecke_act_word(word, a) == a.scale(
                    q_power(length, (-1) ** (length % 2))
                )

    def test_ant2_H1_example(self):
        w = (0, 2)
        x = mono("++", w, (2, 0))
        a = antisymmetrize(x, [(1, 2)])
        assert hecke_act(1, a) == a.scale(q_power(1, -1))

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("anti", [False, True])
    def test_coset_walk_matches_word_sum(self, sign, anti):
        # Oracle: the sum over S_k of t^(l(w0) - l(w)) x H_w, each reduced
        # word applied from scratch; t = q for Sym_k, -q^-1 for Ant_k.  The
        # range starts at position 2 so the generator shift is exercised.
        rng = random.Random(7)
        act = antisymmetrize if anti else symmetrize
        for k in range(1, 5):
            signs = sign * (k + 1)
            x = random_element(rng, signs, (0, 2), terms=4)
            longest = k * (k - 1) // 2
            expected = TensorElement(tuple(signs), (0, 2))
            for _, length, word in symmetric_group(k):
                e = longest - length
                t = q_power(-e, (-1) ** e) if anti else q_power(e)
                expected = expected + hecke_act_word([1 + i for i in word], x).scale(t)
            assert act(x, [(2, k)]) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_coset_walk_generator_count(self, k, monkeypatch):
        import qchar.tensor_space as ts

        calls = []
        real = ts.hecke_act
        monkeypatch.setattr(ts, "hecke_act", lambda i, x: calls.append(i) or real(i, x))
        symmetrize(mono("+" * k, (0, 3), range(k)), [(1, k)])
        assert len(calls) == k * (k - 1) // 2

    def test_multi_range_composition(self):
        w = (0, 2)
        x = mono("++++", w, (1, 0, 2, 2))
        both = symmetrize(x, [(1, 2), (3, 2)])
        swapped = symmetrize(x, [(3, 2), (1, 2)])
        assert both == swapped


class TestBarInvolution:
    def test_zeta_constants(self):
        assert ZETA == LaurentPoly({-1: 1, 1: -1})  # q^-1 - q

    def test_single_factor_fixed(self):
        for sign in "+-":
            x = mono(sign, (0, 3), (2,))
            assert bar_involution(x) == x

    def test_plus_plus_pair_values(self):
        w = (0, 3)
        lo_first = mono("++", w, (1, 2))
        assert bar_involution(lo_first) == lo_first
        hi_first = mono("++", w, (2, 1))
        assert bar_involution(hi_first) == hi_first + mono(
            "++", w, (1, 2), LaurentPoly({-1: 1, 1: -1})
        )

    def test_anti_linearity(self):
        w = (0, 2)
        c = q_power(2, 3) + q_power(-1, -1)
        x = mono("+-+", w, (2, 2, 0)) + mono("+-+", w, (1, 0, 1), q_power(1))
        assert bar_involution(x.scale(c)) == bar_involution(x).scale(bar(c))

    def _all_monomials(self, signs, w):
        lo, hi = w
        return [
            mono(signs, w, f)
            for f in itertools.product(range(lo, hi + 1), repeat=len(signs))
        ]

    @pytest.mark.parametrize(
        "signs", ["++", "+-", "-+", "--", "++-", "-+-", "+-+-"]
    )
    def test_involution(self, signs):
        w = (0, 2)
        for x in self._all_monomials(signs, w):
            assert bar_involution(bar_involution(x)) == x

    @pytest.mark.parametrize("signs", ["+++", "++-", "--+"])
    def test_twisted_hecke_compatibility(self, signs):
        w = (0, 2)
        runs = [i for i in range(1, len(signs)) if signs[i - 1] == signs[i]]
        for x in self._all_monomials(signs, w):
            for i in runs:
                assert bar_involution(hecke_act(i, x)) == hecke_act_inverse(
                    i, bar_involution(x)
                )

    @pytest.mark.parametrize("signs", ["++", "+-", "-+", "++-", "+-+"])
    def test_triangularity(self, signs):
        w = (0, 2)
        s = tuple(signs)
        for x in self._all_monomials(signs, w):
            (f,) = x.coeffs
            y = bar_involution(x) - x
            for g in y.coeffs:
                assert g != f
                assert bruhat_leq(IntVector(g, s), IntVector(f, s))

    def test_commutes_with_E(self):
        w = (0, 2)
        for signs in ("++", "+-", "-+"):
            for f in itertools.product(range(3), repeat=2):
                x = mono(signs, w, f)
                try:
                    assert bar_involution(act_E(1, x)) == act_E(1, bar_involution(x))
                except WindowEscapeError:
                    pass

    def test_weight_preserved(self):
        w = (0, 2)
        for signs in ("+-", "-+", "+-+"):
            for f in itertools.product(range(3), repeat=len(signs)):
                x = mono(signs, w, f)
                y = bar_involution(x)
                s = tuple(signs)
                assert {wt_key(g, s) for g in y.coeffs} == {wt_key(f, s)}


class TestWeightBlock:
    def test_examples(self):
        assert weight_block(("+", "+"), (1, 2), {1: 1, 2: 1}) == [(1, 2), (2, 1)]
        assert weight_block(("+", "+"), (1, 2), {1: 2}) == [(1, 1)]
        assert weight_block(("+", "+"), (1, 2), {1: 5}) == []

    def test_mixed_zero_weight(self):
        block = weight_block(("+", "-"), (0, 1), {})
        assert set(block) == {(0, 0), (1, 1)}

    def test_linear_extension_respects_order(self):
        signs = ("+", "+", "+")
        block = weight_block(signs, (0, 2), {0: 1, 1: 1, 2: 1})
        assert len(block) == 6
        for i, f in enumerate(block):
            for g in block[i + 1 :]:
                assert not (
                    g != f and bruhat_leq(IntVector(g, signs), IntVector(f, signs))
                )

    def test_deterministic(self):
        a = weight_block(("+", "-"), (0, 2), {0: 1, 2: -1})
        b = weight_block(("+", "-"), (0, 2), {0: 1, 2: -1})
        assert a == b

    def test_linear_extension_function(self):
        signs = ("+", "+")
        out = linear_extension([(2, 1), (1, 2)], signs)
        assert out == [(1, 2), (2, 1)]

    @pytest.mark.parametrize("window", [(0, 3), (2, 2), (3, 2)], ids=["0..3", "2..2", "3..2"])
    def test_generated_blocks_match_the_filtered_product(self, window):
        lo, hi = window
        for k in range(5):
            for signs in itertools.product("+-", repeat=k):
                product = list(itertools.product(range(lo, hi + 1), repeat=k))
                total = signs.count("+") - signs.count("-")
                weights = [dict(key) for key in sorted({wt_key(f, signs) for f in product})]
                # the same weights with explicit zero entries, in and outside the window
                weights += [{**dict.fromkeys(range(lo - 1, hi + 2), 0), **mu} for mu in weights]
                weights += [
                    {},
                    {hi + 1: 1, lo: total - 1},  # right total, an index outside the window
                    {lo: total + 1},  # wrong total
                ]
                for mu in weights:
                    key = weight_key(mu)
                    oracle = linear_extension([f for f in product if wt_key(f, signs) == key], signs)
                    assert weight_block(signs, window, mu) == oracle, (signs, mu)


def _terms(coeffs):
    return repr(sorted((g, str(c)) for g, c in coeffs.items()))


def psi_cases():
    """Every (signs, window, f) of up to four factors at 1..3 and up to three
    at 0..4: the 2,664 monomials whose bar images are pinned below."""
    for n, window in [(n, (1, 3)) for n in (1, 2, 3, 4)] + [(n, (0, 4)) for n in (1, 2, 3)]:
        lo, hi = window
        for signs in itertools.product("+-", repeat=n):
            for f in itertools.product(range(lo, hi + 1), repeat=n):
                yield signs, window, f


def psi_from_scratch(f, signs, window):
    """The bar image of M_f with no memo: seed the first factor, then for
    each next factor extend every key by it and apply the pairwise operators
    against it from the farthest factor inward."""
    cur = {(f[0],): ONE}
    for t in range(1, len(f)):
        cur = {key + (f[t],): c for key, c in cur.items()}
        for i in range(t):
            cur = _theta(cur, i, t, signs, window, ZETA)
    return cur


class TestPinnedActions:
    # SHA-256 digests recorded before the pairwise quasi-R step, the E/F sign
    # table and the K exponent were each folded into one rule; psi and every
    # generator action must stay byte-identical.
    PSI = "cd930b92e212eb2d49d698205b128c991ec153804cfb5929fc386ed3a881a9a6"
    ACTIONS = "f88a552a452d2a50e431d198f86157bd334fbb9532ea5043e34c69b3506c2c26"

    def test_psi_digest(self):
        h = hashlib.sha256()
        count = 0
        for signs, window, f in psi_cases():
            psi = _psi_monomial.__wrapped__(f, signs, window)
            h.update(f"{''.join(signs)} {window} {f}: {_terms(psi)}\n".encode())
            count += 1
        assert count == 2664
        assert h.hexdigest() == self.PSI

    def test_action_digest(self):
        h = hashlib.sha256()
        window = (0, 3)
        count = 0
        for n in (1, 2, 3):
            for signs in itertools.product("+-", repeat=n):
                for f in itertools.product(range(4), repeat=n):
                    x = mono(signs, window, f)
                    for a in range(-1, 4):
                        for kind in ("E", "F"):
                            try:
                                y = _act_raise_lower(a, x, kind)
                            except WindowEscapeError as exc:
                                outs = [f"escape: {exc}"] * 2
                            else:
                                # on a monomial the barred coproduct acts as
                                # the plain one with its coefficients barred
                                outs = [_terms(y.coeffs), _terms(y.map_coeffs(bar).coeffs)]
                            for conjugate, out in enumerate(outs):
                                h.update(f"{kind}{a}{conjugate} {x.signs} {f}: {out}\n".encode())
                                count += 1
                        for name, act in (("K", act_K), ("Kinv", act_K_inv), ("Kpair", act_K_pair)):
                            out = _terms(act(a, x).coeffs)
                            h.update(f"{name}{a} {x.signs} {f}: {out}\n".encode())
                            count += 1
        assert count == 20440
        assert h.hexdigest() == self.ACTIONS


class TestPrefixMemo:
    """psi(M_f) extends the memoized image of f's prefix by one factor."""

    def test_matches_the_from_scratch_loop(self):
        _psi_monomial.cache_clear()
        count = 0
        for signs, window, f in psi_cases():
            # Same terms in the same order: downstream sums are built in it.
            assert list(_psi_monomial(f, signs, window).items()) == list(
                psi_from_scratch(f, signs, window).items()
            ), (signs, f)
            count += 1
        assert count == 2664

    def test_each_prefix_pays_its_operators_once(self, monkeypatch):
        import qchar.tensor_space as ts

        signs, window = ("+", "-", "+", "-"), (1, 3)
        block = weight_block(signs, window, {})
        _psi_monomial.cache_clear()
        calls = []
        monkeypatch.setattr(ts, "_theta", lambda *args: calls.append(args[1:3]) or _theta(*args))
        for f in block:
            bar_involution(mono(signs, window, f))
        prefixes = {f[:k] for f in block for k in range(1, len(f) + 1)}
        assert len(calls) == sum(len(p) - 1 for p in prefixes)
        # Without the memo each monomial pays every pair of its factors.
        assert len(calls) < len(block) * 6

    def test_extensions_leave_a_cached_prefix_unchanged(self):
        signs, window, prefix = ("+", "-", "+"), (0, 3), (2, 2, 0)
        _psi_monomial.cache_clear()
        image = _psi_monomial(prefix, signs, window)
        before = [(g, dict(c.terms)) for g, c in image.items()]
        for s in "+-":
            for v in range(4):
                _psi_monomial(prefix + (v,), signs + (s,), window)
                x = mono(signs + (s,), window, prefix + (v,)) + mono(
                    signs + (s,), window, (1, 2, 0, v), q_power(1)
                )
                bar_involution(x).coeffs.clear()
        bar_involution(mono(signs, window, prefix)).coeffs.clear()
        # A solved block's bar rows are its own: clearing them all leaves the
        # memoized image of its label `prefix` intact.
        block = dcb_T(signs, window, dict(wt_key(prefix, signs)))
        assert prefix in block.order
        for row in block.bar_rows.values():
            row.clear()
        assert _psi_monomial(prefix, signs, window) is image
        assert [(g, dict(c.terms)) for g, c in image.items()] == before
        # Sums that write onto shared images: a full dcb_T sweep, and bar_S of
        # a lifted Delta with a coefficient other than +-1, whose bar image
        # keeps memoized values by reference and straightens them together.
        used = {(prefix, signs, window)}
        sweep_signs, sweep_window = ("+", "-", "+", "-"), (1, 4)
        for key in weight_keys(sweep_signs, sweep_window):
            for f in dcb_T(sweep_signs, sweep_window, dict(key)).order:
                used.add((f, sweep_signs, sweep_window))
        shape, delta_window = parse_shape("2,1:+ / 1:-"), (1, 3)
        lifted = delta(multi_tableau_from_row_reading(shape, (3, 2, 2, 2)), delta_window)
        assert any(c not in (ONE, -ONE) for c in lifted.coeffs.values())
        bar_S(lifted)
        for f in lifted.to_tensor().coeffs:
            used.add((f, shape.sign_sequence(), delta_window))
        # Every memoized image and each of its prefixes' equals its image
        # built again from the prefix's; a write into a shared polynomial
        # breaks this at the shortest prefix it reached.
        assert ONE.terms == {0: 1}
        for f, fsigns, fwindow in used:
            for k in range(1, len(f) + 1):
                args = (f[:k], fsigns[:k], fwindow)
                assert _psi_monomial(*args) == _psi_monomial.__wrapped__(*args), args
