"""The Grothendieck-group layer: Verma-class expansions of standard modules,
the standard-versus-parabolic identity check, decomposition matrices, and
simple-character tables.

Classes of modules are written in the basis of Verma classes [M(B)] indexed
by row-normalized multi-tableaux.  `expand_standard` and `expand_N` are two
independent signed expansions of the same standard class — one grouped by
piece, one grouped by global column — and `theoremC_check` compares them
exhaustively.  Decomposition numbers come from the dual canonical basis of P
specialized at q = -1, which is where the q^-1-normalized triangular entries
turn into nonnegative multiplicities.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

from . import bases
from .combinatorics import (
    MultiTableau,
    SignedMultiPartition,
    Tableau,
    box_labels,
    column_perms,
    column_stabilizer,
    enumerate_tableaux,
    tableau_from_columns,
)
from .laurent import Element, LaurentPoly, ZERO, add_into, eval_at_minus_one

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
        return {
            "shape": str(self.shape),
            "terms": [
                {"tableau": bases.tableau_json(mt), "coeff": self.coeffs[mt]}
                for mt in sorted(self.coeffs, key=lambda m: m.row_reading())
            ],
        }


def normalize_verma(B: MultiTableau) -> MultiTableau:
    """Row-normalize a filling: sort each row weakly increasing on + pieces
    and weakly decreasing on - pieces.  No sign is attached."""
    comps = []
    for t in B.components:
        rows = tuple(
            tuple(sorted(row, reverse=(t.sign == "-"))) for row in t.rows
        )
        comps.append(Tableau(t.shape, t.sign, rows))
    return MultiTableau(tuple(comps))


# ---------------------------------------------------------------------------
# The two expansions of a standard class.
# ---------------------------------------------------------------------------


def expand_standard(bfA: MultiTableau) -> VermaSum:
    """The Verma-class expansion of [Delta(bfA)], grouped piece by piece:
    the signed sum over the column stabilizer, every label row-normalized."""
    if not bfA.is_std():
        raise ValueError(f"expand_standard requires a Std multi-tableau, got {bfA}")
    terms = ((normalize_verma(mt), (-1) ** inv) for mt, inv in column_stabilizer(bfA))
    return VermaSum(bfA.shape, add_into({}, terms))


def expand_N(bfA: MultiTableau) -> VermaSum:
    """The Verma-class expansion of the parabolic class [N(bfA)], grouped
    column by column of the global multi-pyramid.

    For each global column index, every piece reaching that column
    contributes the signed rearrangements of its column independently; the
    per-column choices are concatenated back into full column fillings, each
    piece is rebuilt from its columns, and the label is row-normalized.
    This is a deliberately separate code path from `expand_standard`.
    """
    if not bfA.is_std():
        raise ValueError(f"expand_N requires a Std multi-tableau, got {bfA}")
    piece_cols = [t.columns() for t in bfA.components]
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
            comps = tuple(
                tableau_from_columns(t.shape, t.sign, cols)
                for t, cols in zip(bfA.components, chosen)
            )
            yield normalize_verma(MultiTableau(comps)), (-1) ** inv

    return VermaSum(bfA.shape, add_into({}, terms()))


def theoremC_check(
    shape: SignedMultiPartition, window: tuple[int, int]
) -> dict:
    """Compare the piece-wise and column-wise Verma expansions of every
    standard class in the window; report the first discrepancy or pass."""
    checked = 0
    for mt in enumerate_tableaux(shape, "std", window):
        checked += 1
        a, b = expand_standard(mt), expand_N(mt)
        if a.coeffs != b.coeffs:
            return {
                "shape": str(shape),
                "window": list(window),
                "checked": checked,
                "pass": False,
                "first_discrepancy": {
                    "tableau": bases.tableau_json(mt),
                    "standard": a.to_json(),
                    "parabolic": b.to_json(),
                },
            }
    return {
        "shape": str(shape),
        "window": list(window),
        "checked": checked,
        "pass": True,
        "first_discrepancy": None,
    }


# ---------------------------------------------------------------------------
# Decomposition matrices and simple characters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionTable:
    """One weight block of the decomposition data of P.

    `order` fixes the Std labels; `L_in_Delta[j][i]` is the Laurent
    coefficient of Delta at order[i] inside L at order[j], and `Delta_in_L`
    is the exact integer inverse of its specialization at q = -1, so its
    (i, j) entry is the multiplicity [Delta(order[j]) : L(order[i])].
    """

    shape: SignedMultiPartition
    window: tuple[int, int]
    weight: dict[int, int]
    order: tuple[MultiTableau, ...]
    L_in_Delta: tuple[tuple[LaurentPoly, ...], ...]
    Delta_in_L: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        l_sparse = [
            [i, j, self.L_in_Delta[j][i].to_json()]
            for j in range(len(self.order))
            for i in range(len(self.order))
            if self.L_in_Delta[j][i]
        ]
        d_sparse = [
            [i, j, self.Delta_in_L[j][i]]
            for j in range(len(self.order))
            for i in range(len(self.order))
            if self.Delta_in_L[j][i]
        ]
        return {
            "shape": str(self.shape),
            "window": list(self.window),
            "weight": {str(a): c for a, c in sorted(self.weight.items())},
            "order": [bases.tableau_json(mt) for mt in self.order],
            "L_in_Delta": l_sparse,
            "Delta_in_L": d_sparse,
        }

    def to_csv(self) -> str:
        """The integer multiplicity matrix as CSV, one standard class per
        column, header row of labels; labels holding commas are quoted."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["", *self.order])
        for i, g in enumerate(self.order):
            writer.writerow([g, *(self.Delta_in_L[j][i] for j in range(len(self.order)))])
        return buf.getvalue()

    def to_latex(self) -> str:
        """The integer multiplicity matrix as a LaTeX tabular."""
        cols = "l|" + "r" * len(self.order)
        lines = [f"\\begin{{tabular}}{{{cols}}}"]
        lines.append(" & " + " & ".join(str(t) for t in self.order) + " \\\\ \\hline")
        for i, g in enumerate(self.order):
            cells = " & ".join(str(self.Delta_in_L[j][i]) for j in range(len(self.order)))
            lines.append(f"{g} & {cells} \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines)


def _invert_unitriangular(m: list[list[int]]) -> list[list[int]]:
    """Exact inverse of an upper-unitriangular integer matrix by back
    substitution; the inverse is again integral."""
    n = len(m)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            s = -sum(m[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = s
    return inv


def decomposition_matrix(
    shape: SignedMultiPartition, window: tuple[int, int], weight: dict[int, int]
) -> DecompositionTable:
    """The decomposition table of one weight block: L-in-Delta from the dual
    canonical basis of P, Delta-in-L by exact inversion of its integer
    specialization at q = -1."""
    blk = bases.dcb_P(shape, window, weight)
    n = len(blk.order)
    l_mat = tuple(
        tuple(blk.canon[t].get(g, ZERO) for g in blk.order) for t in blk.order
    )
    spec = [
        [eval_at_minus_one(l_mat[j][i]) for j in range(n)] for i in range(n)
    ]
    d_rows = _invert_unitriangular(spec)
    d_mat = tuple(tuple(d_rows[i][j] for i in range(n)) for j in range(n))
    return DecompositionTable(
        shape, window, dict(weight), blk.order, l_mat, d_mat
    )


def simple_character(
    bfA: MultiTableau, window: tuple[int, int]
) -> tuple[dict[MultiTableau, int], VermaSum]:
    """The character of the simple class [L(bfA)]: its integer expansion over
    standard classes (the q = -1 column of L-in-Delta) and the composed
    Verma-class expansion."""
    if not bfA.is_std():
        raise ValueError(f"simple_character requires a Std multi-tableau, got {bfA}")
    shape = bfA.shape
    blk = bases.dcb_P(shape, window, bfA.weight_signed())
    delta_exp = {
        g: eval_at_minus_one(c) for g, c in blk.canon[bfA].items() if eval_at_minus_one(c)
    }
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
