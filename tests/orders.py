"""Reference orders for the tests: the dominance cone, the Bruhat order on
vectors and the tableau orders, written from their definitions on top of
the tuple-form Bruhat key `bruhat_key` and its comparison `key_leq`; the
pairwise linear extension `reference_linear_extension` built on them, the
oracle of the library's packed `bruhat_above` and `linear_extension`;
`reference_tableaux_of_weight`, the whole-listing weight scan that is the
oracle of the listing's weight index; and `weight_blocks`, the tests'
listing of every block of a shape."""

import bisect
import collections
import heapq
import itertools
import operator
from typing import NamedTuple, Sequence

from qchar.bases import _block, block_weights
from qchar.combinatorics import (
    MultiTableau,
    SignedMultiPartition,
    Sign,
    Tableau,
    weight_key,
)


def bruhat_key(
    values: Sequence[int], signs: Sequence[Sign], thresholds: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """The suffix weights of a vector as cumulative counts: row j holds, for
    each ascending threshold b, the signed count of the entries <= b among
    positions j+1..k.  With thresholds covering both vectors' entries,
    `key_leq` on their keys is the Bruhat order."""
    counts = [0] * len(thresholds)
    rows = []
    for v, s in zip(reversed(values), reversed(signs)):
        step = 1 if s == "+" else -1
        for i in range(bisect.bisect_left(thresholds, v), len(thresholds)):
            counts[i] += step
        rows.append(tuple(counts))
    return tuple(reversed(rows))


def key_leq(kg: tuple[tuple[int, ...], ...], kf: tuple[tuple[int, ...], ...]) -> bool:
    """g precedes f iff the total weights agree and every suffix-weight
    difference wt^j(f) - wt^j(g) lies in the dominance cone: row 0 of the
    keys is equal and every other row of g is componentwise <= that of f."""
    flat = itertools.chain.from_iterable
    return kg[:1] == kf[:1] and all(map(operator.le, flat(kg), flat(kf)))


def reference_linear_extension(items, signs: tuple[str, ...], reading=None) -> list:
    """`tensor_space.linear_extension` on tuple keys: every ordered pair of
    the lexicographically sorted readings compared by `key_leq`, then the
    remaining minimal element with the smallest reading emitted first."""
    read = [x if reading is None else reading(x) for x in items]
    order = sorted(range(len(read)), key=read.__getitem__)
    thresholds = sorted({v for f in read for v in f})
    keys = [bruhat_key(read[i], signs, thresholds) for i in order]
    above = [[b for b, kb in enumerate(keys) if ka != kb and key_leq(ka, kb)] for ka in keys]
    n_below = collections.Counter(itertools.chain.from_iterable(above))
    ready = [b for b in range(len(keys)) if not n_below[b]]
    out = []
    while ready:
        a = heapq.heappop(ready)
        out.append(items[order[a]])
        for b in above[a]:
            n_below[b] -= 1
            if not n_below[b]:
                heapq.heappush(ready, b)
    return out


def reference_tableaux_of_weight(tableaux, mu: dict[int, int]) -> list[MultiTableau]:
    """The labels of a listing of signed weight mu, in listing order: one
    scan of the whole listing comparing each label's cached `signed_key`
    (which `test_cached_key_is_the_signed_weight_key` checks against the
    weight counted afresh)."""
    key = weight_key(mu)
    return [mt for mt in tableaux if mt.signed_key == key]


def weight_blocks(
    shape: SignedMultiPartition, window: tuple[int, int], kind: str
) -> list[tuple[dict[int, int], list]]:
    """Every block of labels of a kind with its weight, in the order of
    `block_weights`."""
    return [
        (dict(k), _block(shape, window, kind, dict(k)))
        for k in block_weights(shape, window, kind)
    ]


def in_P_plus(nu: dict[int, int]) -> bool:
    """Membership of the cone spanned by delta_a - delta_{a+1} over N.

    Characterized by total coefficient sum zero together with nonnegative
    prefix sums over increasing a; `key_leq` tests the same prefix sums on
    cumulative counts.
    """
    if sum(nu.values()) != 0:
        return False
    prefix = 0
    for a in sorted(nu):
        prefix += nu[a]
        if prefix < 0:
            return False
    return True


class IntVector(NamedTuple):
    """An integer vector together with its ambient (n|m)-sign sequence."""

    values: tuple[int, ...]
    signs: tuple[str, ...]


def _keys_at(g: Sequence[int], f: Sequence[int], signs: Sequence[str], starts) -> tuple[list, list]:
    """The Bruhat keys of g and f on thresholds covering both, cut to the
    rows of the suffixes that begin at the positions `starts`."""
    thresholds = sorted({*g, *f})
    keys = (bruhat_key(v, signs, thresholds) for v in (g, f))
    return tuple([key[j] for j in starts] for key in keys)


def _segment_starts(lengths) -> list[int]:
    """The first position of each run of consecutive positions of the given lengths."""
    return [0, *itertools.accumulate(lengths)][:-1]


def bruhat_leq(g: IntVector, f: IntVector) -> bool:
    """The Bruhat order on vectors of one length and sign sequence."""
    if g.signs != f.signs or len(g.values) != len(f.values):
        raise ValueError("vectors must share length and sign sequence")
    return key_leq(*_keys_at(g.values, f.values, g.signs, range(len(g.values))))


def tableau_leq_T(A2: Tableau, A1: Tableau, ep: str) -> bool:
    """A2 <= A1 iff the weights agree and every bottom-truncation weight
    difference ep*(wt(A1, rows r..l) - wt(A2, rows r..l)) is dominant: the
    Bruhat comparison of the row readings, every entry signed ep, at the
    first position of each row."""
    if A2.shape != A1.shape or A2.sign != A1.sign:
        raise ValueError("tableaux must share shape and sign")
    starts = _segment_starts(len(row) for row in A1.rows)
    return key_leq(*_keys_at(A2.row_reading(), A1.row_reading(), (ep,) * A1.shape.size, starts))


def multi_leq_T(bfA2: MultiTableau, bfA1: MultiTableau) -> bool:
    """The multi-tableau order: equal total signed weight, dominant partial
    weight differences (the Bruhat comparison of the row readings at the
    first position of each component), and componentwise comparison when
    every partial weight agrees."""
    if bfA2.shape != bfA1.shape:
        raise ValueError("multi-tableaux must share the signed multi-partition")
    starts = _segment_starts(t.shape.size for t in bfA1.components)
    k2, k1 = _keys_at(bfA2.row_reading(), bfA1.row_reading(), bfA1.shape.sign_sequence(), starts)
    if k2 == k1:
        return all(
            tableau_leq_T(t2, t1, t1.sign)
            for t2, t1 in zip(bfA2.components, bfA1.components)
        )
    return key_leq(k2, k1)
