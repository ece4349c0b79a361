"""Known-answer oracle: on the regular block of the all-"+" tensor module the
dual canonical basis is given by Kazhdan-Lusztig polynomials.

A monomial of `+^n` at window 1..n and weight one at every entry is a
permutation w in one-line notation.  Its dual canonical element has the
coefficient q^(l(y) - l(w)) P_{y,w}(q^2) at y, with l the number of
inversions.  P_{y,w} comes from the classical recursion over right descents
(Kazhdan-Lusztig, Invent. Math. 53 (1979)), written here with its own Bruhat
test, independent of `qchar`.
"""

import itertools

import pytest

from qchar.bases import dcb_T
from qchar.laurent import LaurentPoly


def length(w):
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def bruhat_leq(x, w):
    """x <= w iff every sorted prefix of x is entrywise at most that of w."""
    return all(
        all(a <= b for a, b in zip(sorted(x[:k]), sorted(w[:k])))
        for k in range(1, len(w))
    )


def swap(w, i):
    """w s_i: exchange the positions i and i + 1 (0-based)."""
    w = list(w)
    w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def poly_add(acc, p, c=1, shift=0):
    for e, a in p.items():
        acc[e + shift] = acc.get(e + shift, 0) + c * a
    return acc


def kl_polynomials(n):
    """P[(y, w)] as {degree: coefficient} for every pair y <= w of S_n."""
    perms = sorted(itertools.permutations(range(1, n + 1)), key=length)
    ell = {w: length(w) for w in perms}
    P = {}

    def get(y, w):
        return P.get((y, w), {})

    def mu(z, v):
        d = ell[v] - ell[z] - 1
        return get(z, v).get(d // 2, 0) if d >= 0 and d % 2 == 0 else 0

    for w in perms:
        if ell[w] == 0:
            P[(w, w)] = {0: 1}
            continue
        s = next(i for i in range(n - 1) if w[i] > w[i + 1])  # a right descent
        v = swap(w, s)
        for y in perms:
            if not bruhat_leq(y, w):
                continue
            ys = swap(y, s)
            c = 1 if ell[ys] < ell[y] else 0
            acc = poly_add({}, get(ys, v), shift=1 - c)
            poly_add(acc, get(y, v), shift=c)
            for z in perms:
                if ell[swap(z, s)] < ell[z] and z != v and bruhat_leq(y, z) and bruhat_leq(z, v):
                    m = mu(z, v)
                    if m:
                        # q^((l(w) - l(z)) / 2) P_{y,z}
                        poly_add(acc, get(y, z), -m, (ell[w] - ell[z]) // 2)
            P[(y, w)] = {e: a for e, a in acc.items() if a}
    return P, ell


@pytest.mark.parametrize("n", [3, 4, 5])
def test_regular_block_matches_kazhdan_lusztig(n):
    P, ell = kl_polynomials(n)
    blk = dcb_T(("+",) * n, (1, n), {a: 1 for a in range(1, n + 1)})
    assert sorted(blk.order) == sorted(ell)
    nontrivial = 0
    for w in blk.order:
        for y in blk.order:
            p = P.get((y, w), {})
            nontrivial += len(p) > 1
            expected = LaurentPoly({ell[y] - ell[w] + 2 * e: c for e, c in p.items()})
            assert blk.canon[w].get(y, 0) == expected, (y, w)
    # S_4 has six nonconstant P_{y,w}, all 1 + q: w = 3412 with y <= 1324 and
    # w = 4231 with y <= 2143
    assert nontrivial == {3: 0, 4: 6, 5: 394}[n]
