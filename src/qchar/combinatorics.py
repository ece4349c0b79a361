"""Partitions, signed multi-partitions, pyramid tableaux, readings, weights,
and the Bruhat order that indexes every basis in the package.

A pyramid is a left-justified upside-down Young diagram: for a partition of
length l, rows are numbered 1..l from top to bottom and the i-th row from the
top has length parts[l-i] (shortest row on top).  All tableau conditions for
sign "-" are the reverses of the sign "+" conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

Sign = str  # "+" or "-"

# ---------------------------------------------------------------------------
# Weight vectors: finite mappings a -> coefficient of delta_a, no stored zeros.
# ---------------------------------------------------------------------------


def weight_key(mu: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Hashable normal form of a signed weight: its nonzero (a, c) pairs,
    sorted.  Every weight filter and block key in the package is one."""
    return tuple(sorted((a, c) for a, c in mu.items() if c))


def wt_key(f: tuple[int, ...], signs: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """Hashable form of the signed weight of a monomial."""
    nu: dict[int, int] = {}
    for v, s in zip(f, signs):
        nu[v] = nu.get(v, 0) + (1 if s == "+" else -1)
    return weight_key(nu)


# ---------------------------------------------------------------------------
# Partitions and signed multi-partitions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing sequence of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError(f"partition parts must be positive: {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"partition parts must weakly decrease: {self.parts}")

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def num_cols(self) -> int:
        return self.parts[0] if self.parts else 0

    def transpose(self) -> tuple[int, ...]:
        """Column lengths, leftmost first."""
        return tuple(sum(1 for p in self.parts if p > j) for j in range(self.num_cols))

    def row_lengths(self) -> tuple[int, ...]:
        """Row lengths top to bottom: row i from the top has length parts[l-i]."""
        return tuple(reversed(self.parts))

    def column_boxes(self) -> tuple[tuple[int, int], ...]:
        """The 0-based (row, column) boxes in column-reading order: down each
        column, leftmost column first."""
        lengths = self.row_lengths()
        return tuple(
            (i, j) for j in range(self.num_cols) for i, length in enumerate(lengths) if length > j
        )

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def shuffle_permutation(shape: Partition) -> tuple[int, ...]:
    """One-line permutation whose j-th row-reading position holds the j-th
    column-reading box of the pyramid, so a column reading c of the shape
    has the row reading c[k - 1] for k in this permutation."""
    boxes = shape.column_boxes()
    ids = {box: k for k, box in enumerate(boxes, start=1)}
    return tuple(ids[box] for box in sorted(boxes))


@dataclass(frozen=True)
class SignedMultiPartition:
    """A sequence of (partition, sign) pieces; the global configuration object."""

    pieces: tuple[tuple[Partition, Sign], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("signed multi-partition needs at least one piece")
        if any(s not in ("+", "-") for _, s in self.pieces):
            raise ValueError("signs must be '+' or '-'")

    @cached_property
    def _key(self) -> tuple[tuple[tuple[int, ...], bool], ...]:
        # Built once per shape, of ints and bools only: a pickled shape
        # carries its key and hash, which hold under any string-hash seed.
        return tuple((p.parts, s == "+") for p, s in self.pieces)

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # One comparison of the stored keys: an equal shape built anew meets
        # a memo's key without comparing partitions.
        if other.__class__ is not SignedMultiPartition:
            return NotImplemented
        return self._key == other._key

    @property
    def r(self) -> int:
        return len(self.pieces)

    @property
    def n(self) -> int:
        return sum(p.size for p, s in self.pieces if s == "+")

    @property
    def m(self) -> int:
        return sum(p.size for p, s in self.pieces if s == "-")

    @cached_property
    def _signs(self) -> tuple[Sign, ...]:
        return tuple(s for p, s in self.pieces for _ in range(p.size))

    def sign_sequence(self) -> tuple[Sign, ...]:
        """The (n|m)-sign sequence with each piece's sign repeated per box;
        built once per shape and stored."""
        return self._signs

    def __str__(self) -> str:
        return " / ".join(f"{p}:{s}" for p, s in self.pieces)


def refine(mp: SignedMultiPartition) -> SignedMultiPartition:
    """Split every piece into one-row pieces, keeping piece order."""
    return SignedMultiPartition(
        tuple((Partition((part,)), s) for p, s in mp.pieces for part in p.parts)
    )


# ---------------------------------------------------------------------------
# Tableaux.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tableau:
    """An integer filling of a signed pyramid, rows stored top to bottom."""

    shape: Partition
    sign: Sign
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if tuple(len(r) for r in self.rows) != self.shape.row_lengths():
            raise ValueError(f"filling {self.rows} does not fit shape {self.shape}")

    def columns(self) -> list[tuple[int, ...]]:
        """Column contents top to bottom, leftmost column first."""
        cols = []
        for j in range(self.shape.num_cols):
            cols.append(tuple(row[j] for row in self.rows if len(row) > j))
        return cols

    def column_reading(self) -> tuple[int, ...]:
        """Entries read down the columns, leftmost column first."""
        return tuple(x for col in self.columns() for x in col)

    def row_reading(self) -> tuple[int, ...]:
        """Entries read along the rows, top row first, left to right."""
        return tuple(x for row in self.rows for x in row)

    def is_row(self) -> bool:
        inc = self.sign == "+"
        for row in self.rows:
            for a, b in zip(row, row[1:]):
                if (a > b) if inc else (a < b):
                    return False
        return True

    def is_col(self) -> bool:
        # Strictly increasing up each column from bottom to top for sign "+",
        # i.e. strictly decreasing when read top-down; reversed for sign "-".
        inc = self.sign == "+"
        for col in self.columns():
            for a, b in zip(col, col[1:]):
                if (a <= b) if inc else (a >= b):
                    return False
        return True

    def is_std(self) -> bool:
        return self.is_row() and self.is_col()

    def __str__(self) -> str:
        return "|".join(",".join(str(x) for x in row) for row in self.rows)


@dataclass(frozen=True)
class MultiTableau:
    """A sequence of tableaux matching a signed multi-partition."""

    components: tuple[Tableau, ...]

    @cached_property
    def _hash(self) -> int:
        # Rows fix each piece's shape, so equal labels hash alike; bools and
        # ints hash the same in every interpreter, so a pickled hash holds.
        return hash(tuple((t.sign == "+", t.rows) for t in self.components))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def shape(self) -> SignedMultiPartition:
        """Built once per label; an interned label holds the shape it was
        built for."""
        return SignedMultiPartition(tuple((t.shape, t.sign) for t in self.components))

    @cached_property
    def _reading(self) -> tuple[int, ...]:
        return tuple(x for t in self.components for x in t.row_reading())

    def row_reading(self) -> tuple[int, ...]:
        """The row readings of the components, concatenated; built once per
        label and stored."""
        return self._reading

    def column_reading(self) -> tuple[int, ...]:
        return tuple(x for t in self.components for x in t.column_reading())

    @cached_property
    def signed_key(self) -> tuple[tuple[int, int], ...]:
        """The `weight_key` of the signed weight, computed once per label."""
        return wt_key(self.row_reading(), self.shape.sign_sequence())

    def is_row(self) -> bool:
        return all(t.is_row() for t in self.components)

    def is_col(self) -> bool:
        return all(t.is_col() for t in self.components)

    def is_std(self) -> bool:
        return all(t.is_std() for t in self.components)

    def __str__(self) -> str:
        return " / ".join(str(t) for t in self.components)


def tableau_from_row_reading(shape: Partition, sign: Sign, values: Sequence[int]) -> Tableau:
    """Rebuild a tableau from its row reading."""
    rows, pos = [], 0
    for length in shape.row_lengths():
        rows.append(tuple(values[pos : pos + length]))
        pos += length
    if pos != len(values):
        raise ValueError("row reading length does not match the shape")
    return Tableau(shape, sign, tuple(rows))


def multi_tableau_from_row_reading(
    mp: SignedMultiPartition, values: Sequence[int]
) -> MultiTableau:
    """The inverse of `MultiTableau.row_reading`, and the one constructor of
    a label from a reading: the rows are not sorted.

    Labels are interned in a bounded LRU keyed by (shape, reading): while a
    label stays cached every call returns that one immutable object, so the
    labels of a block listing, of `bases.straighten` and of Verma sums are
    built and hashed once and meet in dict lookups by identity.  A label
    built after its entry was evicted is a new object, equal to the old one
    and hashing alike."""
    return _label(mp, tuple(values))


@lru_cache(maxsize=1 << 16)
def _label(mp: SignedMultiPartition, values: tuple[int, ...]) -> MultiTableau:
    comps, pos = [], 0
    for p, s in mp.pieces:
        comps.append(tableau_from_row_reading(p, s, values[pos : pos + p.size]))
        pos += p.size
    if pos != len(values):
        raise ValueError("row reading length does not match the shape")
    mt = MultiTableau(tuple(comps))
    mt.__dict__["shape"] = mp  # the cached `shape`, shared by the shape's labels
    return mt


@lru_cache(maxsize=1 << 16)
def row_normal_form(
    shape: SignedMultiPartition, reading: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Sort each pyramid row of a row reading, weakly increasing on + pieces
    and weakly decreasing on - pieces: the row-normalized reading and the
    number of strict within-row inversions the sort undoes.

    Memoized in a bounded LRU keyed by (shape, reading tuple), so the
    monomials that `bases.straighten` and `normalize_verma` meet again cost
    one lookup; callers only read the shared result."""
    out, inv, pos = [], 0, 0
    for p, s in shape.pieces:
        for length in p.row_lengths():
            row = reading[pos : pos + length]
            if length > 1:
                # A - row's inversions are the + inversions of its reverse.
                inv += inversions(row if s == "+" else row[::-1])
            out.extend(sorted(row, reverse=(s == "-")))
            pos += length
    if pos != len(reading):
        raise ValueError("row reading length does not match the shape")
    # A reading without a strict inversion is its own normal form; the memo
    # then holds one tuple for key and result.
    return (tuple(out) if inv else reading), inv


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


def enumerate_component(
    lam: Partition, sign: Sign, kind: str, window: tuple[int, int]
) -> list[tuple[int, ...]]:
    """The sorted row readings of all Row/Col/Std tableaux of one piece with
    entries inside the window.  Rows are stacked bottom-up: Row and Std rows
    are the monotone ones, a Col row ranges cell by cell beyond the row below
    and a Std row must pass the same column-strictness test."""
    if kind not in ("row", "col", "std"):
        raise ValueError(f"unknown tableau kind: {kind}")
    lo, hi = window
    if lo > hi:
        return []
    plus = sign == "+"
    values = range(lo, hi + 1)

    def beyond(b: int) -> range:
        """The entries that may sit directly above b in a column."""
        return range(b + 1, hi + 1) if plus else range(lo, b)

    def rows(length: int, below: tuple[int, ...] | None):
        if kind == "col":
            cells = [beyond(b) for b in below[:length]] if below else [values] * length
            return itertools.product(*cells)
        monotone = itertools.combinations_with_replacement(values, length)
        return monotone if plus else (row[::-1] for row in monotone)

    stacks: list[tuple[tuple[int, ...], ...]] = [()]
    for length in lam.parts:
        stacks = [
            (row,) + stack
            for stack in stacks
            for row in rows(length, stack[0] if stack else None)
            if kind != "std" or not stack or all(v in beyond(b) for v, b in zip(row, stack[0]))
        ]
    return sorted(sum(stack, ()) for stack in stacks)


class Listing(tuple):
    """An immutable listing of multi-tableaux that carries its signed-weight
    index: `by_weight` maps each `MultiTableau.signed_key` to the labels of
    that weight, in listing order, and is built on first use, once."""

    @cached_property
    def by_weight(self) -> dict[tuple[tuple[int, int], ...], tuple[MultiTableau, ...]]:
        index: dict = {}
        for mt in self:
            index.setdefault(mt.signed_key, []).append(mt)
        return {key: tuple(labels) for key, labels in index.items()}


def enumerate_tableaux(
    shape: SignedMultiPartition, kind: str, window: tuple[int, int]
) -> Listing:
    """All Row/Col/Std multi-tableaux with entries inside the window.

    Output order is lexicographic on the row reading, which keeps listings
    and golden files deterministic: each piece's list is sorted by its
    fixed-length row reading, so the product of the lists already is.  The
    result is memoized per (shape, kind, window) in a bounded LRU, so every
    block of a sweep reads one shared, immutable `Listing` and its weight
    index, and its labels are the interned ones of
    `multi_tableau_from_row_reading`.
    """
    return _tableaux(shape, kind, tuple(window))


@lru_cache(maxsize=64)
def _tableaux(shape: SignedMultiPartition, kind: str, window: tuple[int, int]) -> Listing:
    per_piece = [enumerate_component(p, s, kind, window) for p, s in shape.pieces]
    return Listing(
        multi_tableau_from_row_reading(shape, sum(combo, ()))
        for combo in itertools.product(*per_piece)
    )


# ---------------------------------------------------------------------------
# The Bruhat order.
# ---------------------------------------------------------------------------


def bruhat_above(readings: Sequence[Sequence[int]], signs: Sequence[Sign]) -> list[list[int]]:
    """For each reading, the positions of the readings strictly above it in
    the Bruhat order of the sign sequence, ascending.

    Row j of a reading's key holds, for each threshold b (the readings'
    entries), the signed count of its entries <= b among positions j+1..k.
    g precedes f iff row 0 (the total weight) agrees and every count of f
    is >= that of g (the suffix-weight differences are dominant).  Offset
    by k, a count fills a lane of (2k).bit_length() + 1 bits with a clear
    top (guard) bit, and all rows pack into one int; (kf | guard) - kg
    keeps a lane's guard bit iff f's lane is >= g's and borrows across no
    lane, so each pair costs one subtraction and one row-0 equality."""
    k = len(signs)
    thresholds = sorted({v for f in readings for v in f})
    w = (2 * k).bit_length() + 1
    stride = len(thresholds) * w
    ones = ((1 << stride) - 1) // ((1 << w) - 1)  # bit 0 of each lane of a row
    guard = (((1 << (k * stride)) - 1) // ((1 << w) - 1)) << (w - 1)
    # the lanes of the thresholds >= v, signed as the position's sign
    up = {v: ones >> (r * w) << (r * w) for r, v in enumerate(thresholds)}
    down = {v: -u for v, u in up.items()}
    steps = [up if s == "+" else down for s in signs]
    totals, keys = [], []
    for f in readings:
        row, key = k * ones, 0
        for j in range(k - 1, -1, -1):
            row += steps[j][f[j]]
            key = key << stride | row
        totals.append(row)
        keys.append(key)
    lifted = [kf | guard for kf in keys]
    return [
        [
            b
            for b, lf in enumerate(lifted)
            if (lf - kg) & guard == guard and totals[b] == tg and keys[b] != kg
        ]
        for tg, kg in zip(totals, keys)
    ]


# ---------------------------------------------------------------------------
# Column stabilizers.
# ---------------------------------------------------------------------------


def inversions(perm: Sequence[int]) -> int:
    """The number of pairs i < j with perm[i] > perm[j]."""
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def column_perms(col: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """All rearrangements of one column with the inversion count of the
    position permutation; entries must be pairwise distinct."""
    if len(set(col)) != len(col):
        raise ValueError(f"repeated entry in a column: {col}")
    return [
        (tuple(col[p] for p in perm), inversions(perm))
        for perm in itertools.permutations(range(len(col)))
    ]


def column_stabilizer(bfA: MultiTableau) -> Iterator[tuple[tuple[int, ...], int]]:
    """Iterate over all column permutations of a multi-tableau.

    Yields the row reading of the permuted filling together with the total
    length (sum of per-column inversion counts).  Each piece's orbit is
    built once, its column readings mapped to row readings by
    `shuffle_permutation`, and the pieces are combined as a product.
    Entries must be pairwise distinct inside every column, which holds for
    standard multi-tableaux.
    """
    per_piece = []
    for t in bfA.components:
        perm = shuffle_permutation(t.shape)
        try:
            options = [column_perms(col) for col in t.columns()]
        except ValueError as err:
            raise ValueError(f"column stabilizer of {bfA}: {err}") from None
        orbit = []
        for combo in itertools.product(*options):
            col_reading = sum((c for c, _ in combo), ())
            orbit.append((tuple(col_reading[k - 1] for k in perm), sum(i for _, i in combo)))
        per_piece.append(orbit)
    for combo in itertools.product(*per_piece):
        yield sum((r for r, _ in combo), ()), sum(i for _, i in combo)


# ---------------------------------------------------------------------------
# Pyramid bookkeeping.
# ---------------------------------------------------------------------------


def box_labels(mp: SignedMultiPartition) -> dict[tuple[int, int, int], str]:
    """Label every box (piece k, row i, column j; all 1-based) column-wise in
    a color-block-wise fashion: plus pieces get "1".."n" and minus pieces get
    "bar1".."barm", each piece's boxes numbered down its columns, left to
    right, in piece order."""
    labels: dict[tuple[int, int, int], str] = {}
    counters = {"+": 0, "-": 0}
    for k, (p, s) in enumerate(mp.pieces, start=1):
        for i, j in p.column_boxes():
            counters[s] += 1
            labels[(k, i + 1, j + 1)] = (
                str(counters[s]) if s == "+" else f"bar{counters[s]}"
            )
    return labels


def pyramid_report(mp: SignedMultiPartition, theta: tuple[int, ...] | None = None) -> dict:
    """The pyramid statistics of a signed multi-partition as JSON data: the
    column lengths q_j^(k) per piece, the column counts q^+ and q^- and the
    Levi subalgebra g(0) they give, the Levi blocks, the Jordan type of e
    and its support (the label pairs of horizontally adjacent boxes), theta,
    and the refinement into one-row pieces.

    `theta` takes one integer per piece (constant on rows of the same color);
    monotonicity requires strictly decreasing values in piece order, and a
    violating assignment is rejected.  The default assignment r-1, ..., 1, 0
    always passes.
    """
    r = mp.r
    if theta is None:
        theta = tuple(range(r - 1, -1, -1))
    if len(theta) != r:
        raise ValueError(f"theta needs one integer per piece, got {theta}")
    if any(theta[i] <= theta[i + 1] for i in range(r - 1)):
        raise ValueError(f"theta must strictly decrease in piece order: {theta}")

    labels = box_labels(mp)
    num_cols = max(j for _, _, j in labels)
    q = {"+": [0] * num_cols, "-": [0] * num_cols}
    for k, _, j in labels:
        q[mp.pieces[k - 1][1]][j - 1] += 1
    refined = refine(mp)
    return {
        "shape": str(mp),
        "column_lengths": [list(p.transpose()) for p, _ in mp.pieces],
        "q_plus": q["+"],
        "q_minus": q["-"],
        "g0": [f"gl_{{{a}|{b}}}" if a and b else f"gl_{a or b}" for a, b in zip(q["+"], q["-"])],
        "levi_blocks": [p.size for p, _ in mp.pieces],
        "jordan_type": [
            [part for p, s in mp.pieces if s == sign for part in p.parts] for sign in "+-"
        ],
        "e_support": [
            [labels[k, i, j], labels[k, i, j + 1]]
            for k, i, j in sorted(labels)
            if (k, i, j + 1) in labels
        ],
        "theta": list(theta),
        "refined_ulam": [list(p.parts) for p, _ in refined.pieces],
        "refined_uep": "".join(s for _, s in refined.pieces),
        "sign_sequence": "".join(mp.sign_sequence()),
    }
