"""The mixed tensor module at a finite entry window.

Elements are sparse Laurent-coefficient combinations of monomials M_f indexed
by integer vectors; the sign sequence fixes which tensor factors are natural
and which are dual.  Quantum-group generators act through the iterated
comultiplication, the Hecke algebra acts on the right within same-sign runs,
and the bar involution is assembled recursively from pairwise quasi-R-matrix
operators that all scale by one constant, `ZETA` = q^-1 - q.
"""

from __future__ import annotations

import collections
import heapq
import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .combinatorics import bruhat_above, wt_key
from .laurent import (
    Element,
    LaurentPoly,
    LaurentSum,
    ONE,
    bar,
    constant,
)


class WindowEscapeError(ValueError):
    """A generator action produced an entry outside the window."""


@dataclass(frozen=True)
class TensorElement(Element):
    """A finite Laurent-linear combination of monomials with a fixed sign
    sequence and entry window."""

    signs: tuple[str, ...]
    window: tuple[int, int]
    coeffs: dict[tuple[int, ...], LaurentPoly] = field(default_factory=dict)

    def _check_key(self, f: tuple[int, ...]) -> None:
        if len(f) != len(self.signs):
            raise ValueError(f"vector {f} does not match sign sequence {self.signs}")
        lo, hi = self.window
        if f and (min(f) < lo or max(f) > hi):
            raise WindowEscapeError(f"vector {f} leaves window {self.window}")

    @classmethod
    def monomial(
        cls,
        signs: tuple[str, ...],
        window: tuple[int, int],
        f: tuple[int, ...],
        coeff: LaurentPoly = ONE,
    ) -> "TensorElement":
        return cls(signs, window, {f: coeff})

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*M{f}" for f, c in sorted(self.coeffs.items()))
        return body or "0"


# ---------------------------------------------------------------------------
# Quantum-group generator actions (iterated comultiplication).
# ---------------------------------------------------------------------------


def _k_exponent(f: tuple[int, ...], signs: tuple[str, ...], positions, up, down) -> int:
    """Exponent of the K_up K_down^{-1} eigenvalue on the factors of M_f at
    `positions`: each natural factor counts +1 on entry up and -1 on entry
    down, each dual factor the opposite; an index of None never matches."""
    e = 0
    for p in positions:
        d = (f[p] == up) - (f[p] == down)
        e += d if signs[p] == "+" else -d
    return e


def _act_diagonal(up: int | None, down: int | None, x: TensorElement) -> TensorElement:
    """K_up K_down^{-1}, an index of None standing for the identity."""
    positions = range(len(x.signs))
    out = LaurentSum()
    for f, c in x.coeffs.items():
        out.add(f, c, None, _k_exponent(f, x.signs, positions, up, down))
    return TensorElement(x.signs, x.window, out.settle())


def act_K(a: int, x: TensorElement) -> TensorElement:
    return _act_diagonal(a, None, x)


def act_K_inv(a: int, x: TensorElement) -> TensorElement:
    return _act_diagonal(None, a, x)


def act_K_pair(a: int, x: TensorElement) -> TensorElement:
    """K_{a,a+1} = K_a K_{a+1}^{-1}."""
    return _act_diagonal(a, a + 1, x)


def _act_raise_lower(a: int, x: TensorElement, kind: str) -> TensorElement:
    """Shared body of act_E / act_F.

    E_a moves an entry a+1 -> a on a natural factor and a -> a+1 on a dual
    one, F_a the reverse.  The comultiplication puts K_{a,a+1} on the factors
    to the right of an acting E_a and K_{a+1,a} on the factors to the left of
    an acting F_a.
    """
    lo, hi = x.window
    n = len(x.signs)
    raising = kind == "E"
    up, down = (a, a + 1) if raising else (a + 1, a)
    out = LaurentSum()
    for f, c in x.coeffs.items():
        for i, (v, s) in enumerate(zip(f, x.signs)):
            src, dst = (a + 1, a) if (s == "+") == raising else (a, a + 1)
            if v != src:
                continue
            if not lo <= dst <= hi:
                raise WindowEscapeError(
                    f"acting on entry {v} at position {i + 1} escapes window {x.window}"
                )
            side = range(i + 1, n) if raising else range(i)
            e = _k_exponent(f, x.signs, side, up, down)
            out.add(f[:i] + (dst,) + f[i + 1 :], c, None, e)
    return TensorElement(x.signs, x.window, out.settle())


def act_E(a: int, x: TensorElement) -> TensorElement:
    return _act_raise_lower(a, x, "E")


def act_F(a: int, x: TensorElement) -> TensorElement:
    return _act_raise_lower(a, x, "F")


# ---------------------------------------------------------------------------
# Hecke action.
# ---------------------------------------------------------------------------

# H_i's quadratic scalar, H_i^2 = ZETA H_i + 1, and the one quasi-R constant
# of the bar involution below.
ZETA = LaurentPoly({1: -1, -1: 1})  # q^-1 - q
_MINUS_ONE = constant(-1)


def hecke_act(i: int, x: TensorElement) -> TensorElement:
    """Right action of H_i; positions i and i+1 must carry the same sign.

    With f' = f*s_i: M_f H_i is q^{-1} M_f on the diagonal, the plain swap
    M_{f'} when f(i) > f(i+1) on a "+" block, and M_{f'} + ZETA M_f
    otherwise; dual blocks use the flipped comparison.  The case assignment
    is the one compatible with the bar involution below (bar(x H_i) =
    bar(x) H_i^{-1}) and with its descent to the q-symmetric quotients.
    """
    if not 1 <= i <= len(x.signs) - 1:
        raise ValueError(f"generator index {i} out of range")
    sign = x.signs[i - 1]
    if sign != x.signs[i]:
        raise ValueError(f"H_{i} straddles a sign change in {x.signs}")

    out = LaurentSum()
    for f, c in x.coeffs.items():
        u, v = f[i - 1], f[i]
        if u == v:
            out.add(f, c, None, -1)
            continue
        out.add(f[: i - 1] + (v, u) + f[i + 1 :], c)
        if (u > v) != (sign == "+"):
            out.add(f, c, ZETA)
    return TensorElement(x.signs, x.window, out.settle())


def hecke_act_inverse(i: int, x: TensorElement) -> TensorElement:
    """H_i^{-1} = H_i - ZETA, forced by H_i^2 = ZETA H_i + 1."""
    return hecke_act(i, x) - x.scale(ZETA)


def hecke_act_word(word, x: TensorElement) -> TensorElement:
    """Right action of H_{i_1} ... H_{i_t} for the sequence `word`."""
    for i in word:
        x = hecke_act(i, x)
    return x


def reduced_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """A reduced word (s_{i_1}, ..., s_{i_t}) with s_{i_1}...s_{i_t} = perm.

    `perm` is one-line notation on 1..k.  Sorting the word's target back to
    the identity with adjacent swaps and reversing gives a word of length
    equal to the inversion number, hence reduced.
    """
    arr = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i + 1)
                changed = True
    return tuple(reversed(word))


def _symmetrizer_act(x: TensorElement, start: int, k: int, anti: bool) -> TensorElement:
    """Right-multiply by Sym_k (or Ant_k) on positions start..start+k-1.

    Sym_k = sum_w t^(l(w0) - l(w)) H_w, t = q (-q^-1 for Ant_k).  Splitting
    w over the minimal coset representatives of S_(m-1) in S_m gives
    x Sym_m = (x Sym_(m-1)) sum_(i<m) t^(m-1-i) H_(m-1)...H_(m-i)."""
    for m in range(2, k + 1):
        out = LaurentSum()
        z = x
        for i in range(m):
            if i:
                z = hecke_act(start - 1 + m - i, z)
            e = m - 1 - i
            # t^e is q^e, or (-1)^e q^-e for Ant_k
            out.add_vector(z.coeffs, _MINUS_ONE if anti and e % 2 else None, -e if anti else e)
        x = TensorElement(x.signs, x.window, out.settle())
    return x


def symmetrize(x: TensorElement, ranges) -> TensorElement:
    """Apply Sym over each (start, size) range; ranges must sit inside
    same-sign blocks and be pairwise disjoint."""
    for start, k in ranges:
        x = _symmetrizer_act(x, start, k, anti=False)
    return x


def antisymmetrize(x: TensorElement, ranges) -> TensorElement:
    for start, k in ranges:
        x = _symmetrizer_act(x, start, k, anti=True)
    return x


# ---------------------------------------------------------------------------
# Bar involution via pairwise quasi-R-matrix operators.
# ---------------------------------------------------------------------------


# The one quasi-R constant is `ZETA`, H_i's quadratic scalar.  The degree-one
# term of Lusztig's quasi-R-matrix is -(q - q^-1) times a pair of simple root
# vectors (Introduction to Quantum Groups, 4.1.4); on these modules a root
# vector squares to zero, so every term of a pairwise step carries that
# scalar, ZETA = q^-1 - q, times the q-powers `_theta` lists.  The signs of
# the two factors change which entries a term moves, not the scalar.  Of the
# candidates +-(q - q^-1) it is the only one for which the rank-one step
# intertwines E_0 and F_0 with their barred coproducts, on each of the four
# ordered sign pairs: tests/test_acceptance.py::TestCriterion4ZetaConstants
# derives it so.


def _theta(
    cur: dict[tuple[int, ...], LaurentPoly],
    i: int,
    j: int,
    signs: tuple[str, ...],
    window: tuple[int, int],
    z: LaurentPoly,
) -> dict[tuple[int, ...], LaurentPoly]:
    """The pairwise operator on positions i < j (0-based) applied to the
    coefficient dict `cur`; returns a new dict.

    The operator is 1 + sum_{a<b} z_{a,b} * (raising of weight
    delta_a-delta_b on factor i) x (matching lowering on factor j), each
    z_{a,b} being `z` times a signed power of q; on these modules each root
    acts at most once, and the entries of M_f determine which roots apply.
    Because the raising operator reaches factor i through the iterated
    comultiplication, each term also carries the K_a K_b^{-1} eigenvalue q^e
    of every factor strictly between i and j.  Two rules cover the four sign
    pairs:

    * same sign: only the root forced by the entries contributes, a = f(j) <
      b = f(i) on "+" and a = f(i) < b = f(j) on "-"; the entries swap and
      the coefficient is the simple-root constant z * q^e (z = `ZETA` in
      the bar involution);
    * mixed sign with f(i) = f(j): both entries move to every value below
      (+-) or above (-+) the common one inside the window, and the constant
      scales by (-q)^{gap-1}, gap = b - a (the non-simple root vectors act
      through products on these modules), which the intertwining relation
      forces and which makes the recursion square to the identity.
    """
    si, sj = signs[i], signs[j]
    lo, hi = window
    between = range(i + 1, j)
    # The entries of `cur` are shared (memoized images'): the sum keeps them
    # by reference and copies one only when a term lands on its key.
    out = LaurentSum(cur)
    zs = None if si == sj else (-z, z)  # z * (-1)^(gap-1), by the parity of gap
    for f, c in cur.items():
        vi, vj = f[i], f[j]
        if si == sj:
            a, b = (vj, vi) if si == "+" else (vi, vj)
            if a < b:
                g = f[:i] + (vj,) + f[i + 1 : j] + (vi,) + f[j + 1 :]
                out.add(g, c, z, _k_exponent(f, signs, between, a, b))
        elif vi == vj:
            for t in range(lo, vi) if si == "+" else range(vi + 1, hi + 1):
                gap = abs(t - vi)
                e = _k_exponent(f, signs, between, min(t, vi), max(t, vi))
                g = f[:i] + (t,) + f[i + 1 : j] + (t,) + f[j + 1 :]
                out.add(g, c, zs[gap % 2], gap - 1 + e)
    return out.settle()


def zeta_constants() -> LaurentPoly:
    """`ZETA`.  The benchmark's set-up still calls this; it goes with that
    call."""
    return ZETA


@lru_cache(maxsize=1 << 16)
def _psi_monomial(
    f: tuple[int, ...], signs: tuple[str, ...], window: tuple[int, int]
) -> dict[tuple[int, ...], LaurentPoly]:
    """The bar image of M_f (factorwise bar is the identity on monomials),
    built one factor at a time: the memoized image of the prefix f[:-1],
    extended by the last factor, then the pairwise operators against that
    factor from the farthest factor inward (the opposite ordering fails
    bar^2 = id on three mixed-sign factors).  So the operators of a prefix
    run once while its image stays cached, however many monomials extend
    it.  Callers must not mutate the cached result."""
    t = len(f) - 1
    if t < 1:
        return {f: ONE}
    cur = {key + f[t:]: c for key, c in _psi_monomial(f[:t], signs[:t], window).items()}
    for i in range(t):
        cur = _theta(cur, i, t, signs, window, ZETA)
    return cur


def bar_involution(x: TensorElement) -> TensorElement:
    """The bar involution: anti-linear, involutive, and triangular with
    respect to the Bruhat order on monomial indices.  Every ψ key keeps the
    length and window of x, so the result is built unchecked."""
    out = LaurentSum()
    for f, c in x.coeffs.items():
        out.add_vector(_psi_monomial(f, x.signs, x.window), None if c == ONE else bar(c))
    return TensorElement._of(x.signs, x.window, out.settle())


# ---------------------------------------------------------------------------
# Weight blocks.
# ---------------------------------------------------------------------------


def weight_keys(signs: tuple[str, ...], window: tuple[int, int]) -> set[tuple]:
    """The `wt_key` of every monomial index of the window: the weights of
    the nonempty blocks of the tensor module."""
    lo, hi = window
    return {wt_key(f, signs) for f in itertools.product(range(lo, hi + 1), repeat=len(signs))}


def linear_extension(items, signs: tuple[str, ...], reading=None) -> list:
    """A deterministic linear extension of the Bruhat order on the readings
    of `items` (the items themselves when `reading` is None): repeatedly emit
    the remaining minimal element with the lexicographically smallest
    reading.  The Bruhat relation comes from `bruhat_above`, one packed
    comparison per pair."""
    read = [x if reading is None else reading(x) for x in items]
    order = sorted(range(len(read)), key=read.__getitem__)
    above = bruhat_above([read[i] for i in order], signs)
    n_below = collections.Counter(itertools.chain.from_iterable(above))
    ready = [b for b in range(len(above)) if not n_below[b]]
    out = []
    while ready:
        a = heapq.heappop(ready)
        out.append(items[order[a]])
        for b in above[a]:
            n_below[b] -= 1
            if not n_below[b]:
                heapq.heappush(ready, b)
    return out


def weight_block(
    signs: tuple[str, ...], window: tuple[int, int], mu: dict[int, int]
) -> list[tuple[int, ...]]:
    """All monomial indices in the window of signed weight mu, sorted by a
    fixed linear extension of the Bruhat order.

    The weight is additive over positions, so the indices are generated
    position by position, keeping the weight `need` that the remaining
    positions must make up.  A prefix is cut as soon as the positive part of
    `need` exceeds the number of "+" positions left; since the total of
    `need` always equals the "+" positions left minus the "-" ones, the
    negative part then fits the "-" positions too, and every prefix kept
    completes.  The cost is the block's size times k times the window width.
    """
    lo, hi = window
    steps = [1 if s == "+" else -1 for s in signs]
    need = [0] * max(hi - lo + 1, 0)
    for a, c in mu.items():
        if c:
            if not lo <= a <= hi:
                return []
            need[a - lo] = c
    if sum(need) != sum(steps):
        return []
    plus_after = [steps[j + 1 :].count(1) for j in range(len(steps))]
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def walk(j: int, over: int) -> None:
        """Extend `prefix` at position j; `over` is the positive part of `need`."""
        if j == len(steps):
            out.append(tuple(prefix))
            return
        s, room = steps[j], plus_after[j]
        for i, c in enumerate(need):
            after = over - (c > 0) if s == 1 else over + (c >= 0)
            if after > room:
                continue
            need[i] = c - s
            prefix.append(lo + i)
            walk(j + 1, after)
            prefix.pop()
            need[i] = c

    walk(0, sum(c for c in need if c > 0))
    return linear_extension(out, signs)
