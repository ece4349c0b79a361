"""The Grothendieck-group layer: Verma-class expansions of standard modules,
the standard-versus-parabolic identity check, decomposition matrices, and
simple-character tables.

Classes of modules are written in the basis of Verma classes [M(B)] indexed
by row-normalized multi-tableaux.  `expand_standard` and `expand_N` are two
independent signed expansions of the same standard class — one grouped by
piece, one grouped by global column — and `theoremC_check` compares them
exhaustively.  Decomposition numbers come from the dual canonical basis of P
at q = -1 (`laurent.specialize`), expected to be nonnegative there; known to
fail on `2:+ / 1:+` at 1..2, weight 1:1,2:2 (one entry is -1).
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import bases
from .combinatorics import (
    MultiTableau,
    SignedMultiPartition,
    box_labels,
    column_perms,
    column_stabilizer,
    enumerate_tableaux,
    multi_tableau_from_row_reading,
    row_normal_form,
    shuffle_permutation,
)
from .laurent import Element, LaurentPoly, ZERO, add_into, specialize

__all__ = [
    "VermaSum",
    "DecompositionTable",
    "normalize_verma",
    "expand_standard",
    "expand_N",
    "theoremC_check",
    "decomposition_matrix",
    "simple_character",
    "weight_label",
]


# ---------------------------------------------------------------------------
# Verma sums.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VermaSum(Element):
    """An integer combination of Verma classes [M(B)], keys row-normalized."""

    shape: SignedMultiPartition
    coeffs: dict[MultiTableau, int]

    def _check_key(self, k: MultiTableau) -> None:
        if not k.is_row():
            raise ValueError(f"Verma class label is not row-normalized: {k}")

    def to_json(self) -> dict:
        return bases.terms_json(self.shape, self.coeffs, int)


def normalize_verma(shape: SignedMultiPartition, reading: tuple[int, ...]) -> MultiTableau:
    """The Verma label of a filling given by its row reading: each row sorted
    weakly increasing on + pieces and weakly decreasing on - pieces, as the
    interned label of that reading.  No sign is attached."""
    return multi_tableau_from_row_reading(shape, row_normal_form(shape, reading)[0])


# ---------------------------------------------------------------------------
# The two expansions of a standard class.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 10)
def expand_standard(bfA: MultiTableau) -> VermaSum:
    """The Verma-class expansion of [Delta(bfA)], grouped piece by piece:
    the signed sum over the column stabilizer, every label row-normalized.

    Memoized in a bounded LRU keyed by the label, so the standard classes
    that several character queries expand share one expansion while it
    stays cached; callers only read the shared `VermaSum`.  A label that
    raises is not cached."""
    if not bfA.is_std():
        raise ValueError(f"expand_standard requires a Std multi-tableau, got {bfA}")
    shape = bfA.shape
    terms = ((normalize_verma(shape, r), (-1) ** inv) for r, inv in column_stabilizer(bfA))
    return VermaSum(shape, add_into({}, terms))


def expand_N(bfA: MultiTableau) -> VermaSum:
    """The Verma-class expansion of the parabolic class [N(bfA)], grouped
    column by column of the global multi-pyramid.

    For each global column index, every piece reaching that column
    contributes the signed rearrangements of its column independently; the
    per-column choices are concatenated back into full column fillings, each
    piece's column reading is mapped to its row reading by
    `shuffle_permutation`, and the label is row-normalized.
    This is a deliberately separate code path from `expand_standard`.
    """
    if not bfA.is_std():
        raise ValueError(f"expand_N requires a Std multi-tableau, got {bfA}")
    shape = bfA.shape
    piece_cols = [t.columns() for t in bfA.components]
    perms = [shuffle_permutation(t.shape) for t in bfA.components]
    num_cols = max(len(cols) for cols in piece_cols)
    # Choice slots in column-major order: global column first, then piece.
    slots: list[tuple[int, int, list[tuple[tuple[int, ...], int]]]] = []
    for j in range(num_cols):
        for k, cols in enumerate(piece_cols):
            if j < len(cols):
                slots.append((k, j, column_perms(cols[j])))

    def terms():
        for combo in itertools.product(*(opts for _, _, opts in slots)):
            chosen = [list(cols) for cols in piece_cols]
            inv = 0
            for (k, j, _), (col, i) in zip(slots, combo):
                chosen[k][j] = col
                inv += i
            reading = ()
            for cols, perm in zip(chosen, perms):
                col_reading = sum(cols, ())
                reading += tuple(col_reading[k - 1] for k in perm)
            yield normalize_verma(shape, reading), (-1) ** inv

    return VermaSum(shape, add_into({}, terms()))


def theoremC_check(
    shape: SignedMultiPartition, window: tuple[int, int]
) -> dict:
    """Compare the piece-wise and column-wise Verma expansions of every
    standard class in the window; report the first discrepancy or pass."""
    report = {
        "shape": str(shape),
        "window": list(window),
        "checked": 0,
        "pass": True,
        "first_discrepancy": None,
    }
    for mt in enumerate_tableaux(shape, "std", window):
        report["checked"] += 1
        a, b = expand_standard(mt), expand_N(mt)
        if a.coeffs != b.coeffs:
            report["pass"] = False
            report["first_discrepancy"] = {
                "tableau": bases.tableau_json(mt),
                "standard": a.to_json(),
                "parabolic": b.to_json(),
            }
            break
    return report


# ---------------------------------------------------------------------------
# Decomposition matrices and simple characters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionTable:
    """One weight block of the decomposition data of P.

    `order` fixes the Std labels.  `L_cols[t]` is the solved dual canonical
    element L(t) of `dcb_P` in Delta-coordinates; `Delta_cols[t]` expands
    Delta(t) over the simple classes, so `Delta_cols[t][g]` is the
    multiplicity [Delta(t) : L(g)].  `L_in_Delta[j][i]` and
    `Delta_in_L[j][i]` are dense read-only views of the same columns at
    t = order[j], g = order[i].
    """

    shape: SignedMultiPartition
    window: tuple[int, int]
    weight: dict[int, int]
    order: tuple[MultiTableau, ...]
    L_cols: dict[MultiTableau, dict[MultiTableau, LaurentPoly]]
    Delta_cols: dict[MultiTableau, dict[MultiTableau, int]]

    @property
    def L_in_Delta(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        return tuple(tuple(self.L_cols[t].get(g, ZERO) for g in self.order) for t in self.order)

    @property
    def Delta_in_L(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.Delta_cols[t].get(g, 0) for g in self.order) for t in self.order)

    def to_json(self) -> dict:
        return {
            "shape": str(self.shape),
            "window": list(self.window),
            "weight": {str(a): c for a, c in sorted(self.weight.items())},
            "order": [bases.tableau_json(mt) for mt in self.order],
            "L_in_Delta": bases.sparse_json(self.order, self.L_cols, LaurentPoly.to_json),
            "Delta_in_L": bases.sparse_json(self.order, self.Delta_cols, int),
        }

    def to_csv(self) -> str:
        """The integer multiplicity matrix as CSV, one standard class per
        column, header row of labels; labels holding commas are quoted."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["", *self.order])
        for g in self.order:
            writer.writerow([g, *(self.Delta_cols[t].get(g, 0) for t in self.order)])
        return buf.getvalue()

    def to_latex(self) -> str:
        """The integer multiplicity matrix as a LaTeX tabular."""
        return bases.latex_table(self.order, self.Delta_cols, str)


def decomposition_matrix(
    shape: SignedMultiPartition, window: tuple[int, int], weight: dict[int, int]
) -> DecompositionTable:
    """The decomposition table of one weight block: L-in-Delta is the solved
    dual canonical basis of P; Delta-in-L inverts its `specialize` image by
    back substitution over the block order,
    Delta(t) = L(t) - sum_{g < t} specialize(L_in_Delta(t, g)) Delta(g)."""
    blk = bases.dcb_P(shape, window, weight)
    delta_cols: dict = {}
    for t in blk.order:
        col = {t: 1}
        for g, c in blk.canon[t].items():
            if g != t:
                add_into(col, delta_cols[g], -specialize(c))
        delta_cols[t] = col
    return DecompositionTable(shape, window, dict(weight), blk.order, blk.canon, delta_cols)


def simple_character(
    bfA: MultiTableau, window: tuple[int, int]
) -> tuple[dict[MultiTableau, int], VermaSum]:
    """The character of the simple class [L(bfA)]: its integer expansion over
    standard classes (its L-in-Delta column through `specialize`) and the
    composed Verma-class expansion.  The solved block comes from the block
    memo (`bases.solved_block`), so the labels of one block share one
    `dcb_P` solve, or the error it raised."""
    if not bfA.is_std():
        raise ValueError(f"simple_character requires a Std multi-tableau, got {bfA}")
    lo, hi = window
    if not all(lo <= a <= hi for a in bfA.row_reading()):
        raise ValueError(f"simple_character: {bfA} has an entry outside the window {window}")
    shape = bfA.shape
    blk = bases.solved_block("p", shape, (lo, hi), bfA.signed_key)
    delta_exp = add_into({}, ((g, specialize(c)) for g, c in blk.canon[bfA].items()))
    verma: dict = {}
    for g, c in delta_exp.items():
        add_into(verma, expand_standard(g).coeffs, c)
    return delta_exp, VermaSum(shape, verma)


# ---------------------------------------------------------------------------
# Weight labels.
# ---------------------------------------------------------------------------


def weight_label(bfA: MultiTableau) -> dict[tuple[int, int, int], dict]:
    """Per-box scalar table of a filling.

    For the box in piece k, row i, column j (all 1-based) holding entry a,
    the scalar is eps_k*a + (i - 1) + sum over earlier pieces t of
    (eps_t*(n_t - 1) - l_t), with n_t the box count and l_t the row count of
    piece t.  Each box also carries its column-wise enumeration label."""
    shape = bfA.shape
    labels = box_labels(shape)
    shift = 0
    out: dict[tuple[int, int, int], dict] = {}
    for k, t in enumerate(bfA.components, start=1):
        eps = 1 if t.sign == "+" else -1
        for i, row in enumerate(t.rows, start=1):
            for j, a in enumerate(row, start=1):
                out[(k, i, j)] = {
                    "label": labels[(k, i, j)],
                    "value": eps * a + (i - 1) + shift,
                }
        shift += eps * (t.shape.size - 1) - t.shape.length
    return out
