"""Standard and dual canonical bases of the row-symmetric and polynomial
tensor modules.

S^(lambda,epsilon)(V) is the quotient of the tensor module by the row
symmetrizer kernels; its monomial basis Pi_A is indexed by Row multi-tableaux
and `straighten` computes the quotient map in those coordinates.
P^(lambda,epsilon)(V) sits inside S via the per-piece intertwiner `xi_V`
applied to exterior monomials; its standard basis Delta_A is indexed by Std
multi-tableaux.  The generic triangular solver `dcb_solve` produces every
dual canonical basis in the package, and the two cross-check oracles
(`sym_ideal_dcb` for the symmetrizer-ideal identification of S, the (a)/(b)
route comparison inside `dcb_P`) tie the layers together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .combinatorics import (
    Listing,
    MultiTableau,
    SignedMultiPartition,
    enumerate_tableaux,
    multi_tableau_from_row_reading,
    row_normal_form,
    shuffle_permutation,
    weight_key,
)
from .laurent import (
    Element,
    LaurentPoly,
    LaurentSum,
    ONE,
    exact_divide,
    mirror,
    triangular_solve,
)
from .tensor_space import (
    TensorElement,
    WindowEscapeError,
    antisymmetrize,
    bar_involution,
    hecke_act_word,
    linear_extension,
    reduced_word,
    symmetrize,
    weight_block,
    weight_keys,
)

class RouteDisagreement(RuntimeError):
    """The two dcb_P computation routes produced different matrices."""


# ---------------------------------------------------------------------------
# Module elements.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SElement(Element):
    """A finite Laurent-linear combination of Pi_A, A in Row(lambda,epsilon)."""

    shape: SignedMultiPartition
    window: tuple[int, int]
    coeffs: dict[MultiTableau, LaurentPoly]

    def _check_key(self, k: MultiTableau) -> None:
        if not k.is_row():
            raise ValueError(f"SElement key is not a Row multi-tableau: {k}")
        lo, hi = self.window
        reading = k.row_reading()
        if reading and (min(reading) < lo or max(reading) > hi):
            raise WindowEscapeError(f"SElement key {k} leaves window {self.window}")

    def to_tensor(self) -> TensorElement:
        """Lift through the monomial section A -> M_{rho(A)}: the readings
        of distinct Row labels inside the window are distinct, valid keys."""
        return TensorElement._of(
            self.shape.sign_sequence(),
            self.window,
            {mt.row_reading(): c for mt, c in self.coeffs.items()},
        )

    def to_json(self) -> dict:
        return terms_json(self.shape, self.coeffs, LaurentPoly.to_json, window=list(self.window))


def tableau_json(mt: MultiTableau) -> list:
    """Serialize a multi-tableau as row lists per component."""
    return [[list(row) for row in t.rows] for t in mt.components]


def terms_json(shape: SignedMultiPartition, coeffs: dict, cell, **fields) -> dict:
    """JSON form of a module element keyed by multi-tableaux: the shape, any
    further `fields`, then the terms in row-reading order with each
    coefficient written by `cell`."""
    return {
        "shape": str(shape),
        **fields,
        "terms": [
            {"tableau": tableau_json(mt), "coeff": cell(coeffs[mt])}
            for mt in sorted(coeffs, key=MultiTableau.row_reading)
        ],
    }


def _label_json(label) -> list:
    if isinstance(label, MultiTableau):
        return tableau_json(label)
    return list(label)


# ---------------------------------------------------------------------------
# The triangular block and the dual-canonical-basis solver.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangularBlock:
    """One weight block of a standard basis with its bar and canonical data.

    `order` is a fixed linear extension of the block's partial order,
    increasing left to right.  `bar_rows[t]` expands the bar image of the
    standard basis element at t over the standard basis; `canon[t]` holds
    the solved dual canonical element, populated by `dcb_solve`.
    """

    space: str  # "t", "s", "p", or "wedge"
    order: tuple
    bar_rows: dict
    canon: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "order": [_label_json(t) for t in self.order],
            "bar": sparse_json(self.order, self.bar_rows, LaurentPoly.to_json),
            "canonical": sparse_json(self.order, self.canon, LaurentPoly.to_json),
        }

    def to_latex(self) -> str:
        """The canonical matrix as a LaTeX tabular, rows and columns in order."""
        return latex_table(self.order, self.canon, latex_poly)


def sparse_json(order, cols: dict, cell) -> list:
    """The stored entries of a square matrix given by label-keyed sparse
    columns, as [row, column, cell(value)] position triples, column by column
    and rows in `order`; a label without a column contributes nothing."""
    pos = {t: i for i, t in enumerate(order)}
    return [
        [pos[g], j, cell(c)]
        for j, t in enumerate(order)
        for g, c in sorted(cols.get(t, {}).items(), key=lambda kv: pos[kv[0]])
    ]


def latex_poly(c) -> str:
    """A Laurent coefficient, or 0, in math mode, in the `str` form of
    `LaurentPoly` with every exponent braced: TeX sets `q^{-1}` whole, but
    `q^-1` as q^- followed by 1."""
    terms = sorted(c.terms.items(), reverse=True) if c else ()
    return "$" + (" + ".join(f"{v}*q^{{{e}}}" for e, v in terms) or "0") + "$"


def latex_table(order, cols: dict, cell) -> str:
    """A square matrix given by label-keyed sparse columns as a LaTeX
    tabular, rows and columns in `order`; every entry, absent ones as 0, is
    printed by `cell`."""
    lines = [
        f"\\begin{{tabular}}{{l|{'r' * len(order)}}}",
        " & " + " & ".join(str(t) for t in order) + " \\\\ \\hline",
    ]
    for g in order:
        cells = " & ".join(cell(cols[t].get(g, 0)) for t in order)
        lines.append(f"{g} & {cells} \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def dcb_solve(block: TriangularBlock) -> TriangularBlock:
    """The block with its dual canonical basis, solved by
    `laurent.triangular_solve` on the labels' positions in `order`: bar rows
    are re-keyed once, zeros dropped (from the returned rows too), and `canon`
    is keyed by labels again.  A bar row that leaves the block raises a
    RuntimeError naming both labels."""
    order = block.order
    pos = {t: i for i, t in enumerate(order)}
    rows, bar_rows = [], block.bar_rows
    for t in order:
        row = {}
        for g, c in block.bar_rows[t].items():
            if not c:
                bar_rows = None  # hand back the zero-free rows built here
                continue
            i = pos.get(g)
            if i is None:
                raise RuntimeError(f"bar image of {t} leaves the block at {g}")
            row[i] = c
        rows.append(row)
    cols = triangular_solve(rows, order)
    canon = {t: {order[i]: c for i, c in x.items()} for t, x in zip(order, cols)}
    if bar_rows is None:
        bar_rows = {t: {order[i]: c for i, c in x.items()} for t, x in zip(order, rows)}
    return TriangularBlock(block.space, order, bar_rows, canon)


# ---------------------------------------------------------------------------
# Straightening onto S and its bar involution.
# ---------------------------------------------------------------------------


def row_segments(shape: SignedMultiPartition) -> list[tuple[int, int, str]]:
    """(start offset, length, sign) for every pyramid row in reading order."""
    segs, pos = [], 0
    for p, s in shape.pieces:
        for length in p.row_lengths():
            segs.append((pos, length, s))
            pos += length
    return segs


def row_ranges(shape: SignedMultiPartition) -> list[tuple[int, int]]:
    """1-based (start, length) symmetrizer ranges for rows of length > 1."""
    return [(pos + 1, length) for pos, length, _ in row_segments(shape) if length > 1]


def straighten(x: TensorElement, shape: SignedMultiPartition) -> SElement:
    """The quotient map pi onto S^(lambda,epsilon)(V) in Pi-coordinates.

    Each monomial index is sorted to the row normal form (weakly increasing
    on + rows, weakly decreasing on - rows) and picks up q to the number of
    strict within-row inversions, matching pi(x H_i) = q^-1 pi(x) under the
    frozen Hecke action.  Coefficients merge on the normal readings, and each
    surviving reading becomes its shared, interned Row label once.
    """
    if x.signs != shape.sign_sequence():
        signs = "".join(x.signs)
        raise ValueError(f"sign sequence {signs} of the element does not match the shape {shape}")

    normal = LaurentSum()
    for f, c in x.coeffs.items():
        reading, inv = row_normal_form(shape, f)
        normal.add(reading, c, None, inv)
    labels = {multi_tableau_from_row_reading(shape, r): c for r, c in normal.settle().items()}
    return SElement._of(shape, x.window, labels)


def bar_S(x: SElement) -> SElement:
    """The bar involution of S: lift through the monomial section, apply the
    tensor bar involution, and straighten back."""
    return straighten(bar_involution(x.to_tensor()), x.shape)


# ---------------------------------------------------------------------------
# Weight blocks, leading-term elimination, and dual canonical bases of T and S.
# ---------------------------------------------------------------------------


def _reading(kind: str):
    """The reading that orders and indexes a block of tableaux of `kind`:
    column reading for Col tableaux, row reading for Row and Std ones."""
    return MultiTableau.column_reading if kind == "col" else MultiTableau.row_reading


def tableaux_of_weight(tableaux: Listing, mu: dict[int, int]) -> list[MultiTableau]:
    """The multi-tableaux of signed weight mu, in listing order, read from
    the listing's weight index."""
    return list(tableaux.by_weight.get(weight_key(mu), ()))


def _block(
    shape: SignedMultiPartition, window: tuple[int, int], kind: str, mu: dict[int, int]
) -> list:
    """The labels of one kind and signed weight mu, in block order: Row, Col
    or Std tableaux, or "t" for the monomials of the tensor module of the
    shape's sign sequence."""
    signs = shape.sign_sequence()
    if kind == "t":
        return weight_block(signs, window, mu)
    block = tableaux_of_weight(enumerate_tableaux(shape, kind, window), mu)
    return linear_extension(block, signs, _reading(kind))


def block_weights(
    shape: SignedMultiPartition, window: tuple[int, int], kind: str
) -> list[tuple[tuple[int, int], ...]]:
    """The sorted weight keys of the nonempty blocks of labels of a kind, as
    `_block` lists them."""
    if kind == "t":
        return sorted(weight_keys(shape.sign_sequence(), window))
    return sorted(enumerate_tableaux(shape, kind, window).by_weight)


def _eliminate(x: dict, order, rows: dict, pivot) -> tuple[dict, dict]:
    """Expand the coefficient dict `x` over basis elements by leading-term
    elimination.

    `rows[t].coeffs` is the basis element at label t, whose leading term sits
    at key `pivot(t)`.  Walking `order` from the top down, each pivot still
    present in the remainder is divided exactly by the basis element's pivot
    coefficient and that multiple of the element is subtracted.  Returns the
    coordinates and the residual left outside the pivots; whether a nonzero
    residual is an error is the caller's decision.  A pivot coefficient that
    does not divide raises a ValueError naming the label and the pivot key.
    """
    y = LaurentSum(x)
    coords: dict = {}
    for t in reversed(order):
        key = pivot(t)
        c = y.get(key)
        if not c:
            continue
        row = rows[t].coeffs
        try:
            co = exact_divide(c, row[key])
        except ValueError as err:
            raise ValueError(f"pivot of {t} at {key}: {err}") from err
        coords[t] = co
        y.add_vector(row, -co)
    return coords, y.settle()


def _bar_rows(block, basis: dict, reading, span: str, coord=None) -> dict:
    """Expand the tensor bar image of each basis element over the basis by
    leading-term elimination at `reading`, each coordinate passed through
    `coord` when given.  A residual means the bar image leaves the span; it
    raises a RuntimeError naming the label."""
    rows = {}
    for mt in block:
        coords, rest = _eliminate(bar_involution(basis[mt]).coeffs, block, basis, reading)
        if rest:
            raise RuntimeError(f"bar image of {mt} leaves the {span}: {rest}")
        rows[mt] = coords if coord is None else {g: coord(c) for g, c in coords.items()}
    return rows


def dcb_T(
    signs: tuple[str, ...], window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """The dual canonical basis of one weight block of the tensor module
    (`_by_pattern`)."""
    return _by_pattern("t", signs, window, mu)


def _solve_T(
    signs: tuple[str, ...], window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """`dcb_T` solved directly, from the monomials' bar images."""
    order = weight_block(signs, window, mu)
    bar_rows = {f: bar_involution(TensorElement.monomial(signs, window, f)).coeffs for f in order}
    return dcb_solve(TriangularBlock("t", tuple(order), bar_rows))


def dcb_S(
    shape: SignedMultiPartition, window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """The dual canonical basis {L_A} of one weight block of S, over Row
    multi-tableaux in Pi-coordinates (`_by_pattern`)."""
    return _by_pattern("s", shape, window, mu)


def _solve_S(
    shape: SignedMultiPartition, window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """`dcb_S` solved directly, from the bar images of the Pi basis."""
    block = _block(shape, window, "row", mu)
    bar_rows = {mt: bar_S(pi_monomial(shape, window, mt)).coeffs for mt in block}
    return dcb_solve(TriangularBlock("s", tuple(block), bar_rows))


def pi_monomial(
    shape: SignedMultiPartition, window: tuple[int, int], mt: MultiTableau
) -> SElement:
    """The basis element Pi_A as an SElement."""
    return SElement(shape, window, {mt: ONE})


def sym_ideal_dcb(
    shape: SignedMultiPartition, window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """The dual canonical basis of the same block computed entirely inside
    the symmetrizer right ideal of the tensor module.

    Basis elements are M_{rho(A)} Sym; their bar images are expanded back in
    that basis by leading-coset elimination in raw tensor coordinates, with
    no use of `straighten`.  Under the identification Pi_A = M_{rho(A)} Sym
    the result must coincide with `dcb_S`, which is the identification
    oracle for the quotient construction.
    """
    signs = shape.sign_sequence()
    ranges = row_ranges(shape)
    block = _block(shape, window, "row", mu)
    ideal = {
        mt: symmetrize(
            TensorElement.monomial(signs, window, mt.row_reading()), ranges
        )
        for mt in block
    }
    bar_rows = _bar_rows(block, ideal, MultiTableau.row_reading, "symmetrizer ideal")
    return dcb_solve(TriangularBlock("s", tuple(block), bar_rows))


# ---------------------------------------------------------------------------
# The polynomial side: kappa, xi_V, Delta.
# ---------------------------------------------------------------------------


def kappa(bfA: MultiTableau, window: tuple[int, int]) -> TensorElement:
    """The exterior monomial K_A = M_{c(A) w} Ant over the column ranges,
    with w the longest element of the column Young subgroup."""
    if not bfA.is_col():
        raise ValueError(f"kappa requires a Col multi-tableau, got {bfA}")
    signs = bfA.shape.sign_sequence()
    base, ranges, pos = [], [], 0
    for t in bfA.components:
        for col in t.columns():
            seg = list(col)[::-1]
            base.extend(seg)
            if len(seg) > 1:
                ranges.append((pos + 1, len(seg)))
            pos += len(seg)
    return antisymmetrize(
        TensorElement.monomial(signs, window, tuple(base)), ranges
    )


def _braiding_word_apply(bfA: MultiTableau, x: TensorElement) -> TensorElement:
    """Apply H_{sigma_lambda} piece by piece along a reduced word of the
    column-to-row shuffle.  This realization of the braiding word, rather
    than the inverse word of the inverse shuffle, is the one that passes
    Std-nonvanishing, the classical-limit identity and route agreement."""
    pos = 0
    for t in bfA.components:
        word = [pos + g for g in reduced_word(shuffle_permutation(t.shape))]
        x = hecke_act_word(word, x)
        pos += t.shape.size
    return x


def xi_raw(bfA: MultiTableau, window: tuple[int, int]) -> SElement:
    """The unnormalized intertwiner image: straighten the braiding word
    applied to kappa(A).  `xi_V` rescales its coefficients through the
    mirror involution."""
    return straighten(_braiding_word_apply(bfA, kappa(bfA, window)), bfA.shape)


def xi_V(bfA: MultiTableau, window: tuple[int, int]) -> SElement:
    """V_A for a Col multi-tableau: the braided image of K_A in S, with every
    Pi-coordinate rewritten by the mirror involution q -> -q^-1.

    The mirror rewrite normalizes V_A to a unitriangular element over Std
    leading terms in the lattice q^-1 Z[q^-1], at whose specialization
    q = -1 the classical alternating-sum identity sits.
    """
    return xi_raw(bfA, window).map_coeffs(mirror)


def delta(bfA: MultiTableau, window: tuple[int, int]) -> SElement:
    """The standard basis element Delta_A of P in Pi-coordinates: the tensor
    product of the per-piece V images, computed as one joint pipeline."""
    if not bfA.is_std():
        raise ValueError(f"delta requires a Std multi-tableau, got {bfA}")
    return xi_V(bfA, window)


def delta_block(
    shape: SignedMultiPartition, window: tuple[int, int], mu: dict[int, int]
) -> tuple[list[MultiTableau], dict[MultiTableau, SElement]]:
    """The Std labels of one signed-weight block in linear-extension order,
    with their Delta expansions."""
    block = _block(shape, window, "std", mu)
    return block, {mt: delta(mt, window) for mt in block}


def delta_coords(
    x: dict[MultiTableau, LaurentPoly],
    deltas: dict[MultiTableau, SElement],
    order: list[MultiTableau],
) -> dict[MultiTableau, LaurentPoly]:
    """Delta-coordinates of an S element, given by its coefficient dict x,
    by triangular elimination on the Std leading terms, in decreasing block
    order.

    The Std coordinates determine the element of P uniquely; support left
    outside the Std pivots after elimination is the completion tail of the
    finite window and carries no Delta-coordinate, so it is dropped.  A
    non-divisible pivot signals a broken braiding word.
    """
    coords, _ = _eliminate(x, order, deltas, lambda t: t)
    return coords


def dcb_P(
    shape: SignedMultiPartition, window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """The dual canonical basis {L_A} of one weight block of P, over Std
    multi-tableaux in Delta-coordinates.

    Route (a) pushes bar_S through the Delta expansion and solves the
    triangular system; route (b) re-expresses the dcb_S elements at Std
    labels.  Both are computed and compared; a mismatch raises
    `RouteDisagreement` (`_by_pattern`; a relabeled block's routes ran on
    its standard block).
    """
    return _by_pattern("p", shape, window, mu)


def _solve_P(
    shape: SignedMultiPartition, window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """`dcb_P` solved directly, by both routes."""
    order, deltas = delta_block(shape, window, mu)
    bar_rows = {
        mt: delta_coords(bar_S(deltas[mt]).coeffs, deltas, order) for mt in order
    }
    solved = dcb_solve(TriangularBlock("p", tuple(order), bar_rows))
    ls = dcb_S(shape, window, mu)

    def show(col):
        return "{" + ", ".join(f"{g}: {col[g]}" for g in order if g in col) + "}"

    for mt in order:
        route_b = delta_coords(ls.canon[mt], deltas, order)
        if route_b != solved.canon[mt]:
            raise RouteDisagreement(
                f"dcb_P routes disagree at {mt}: (a) {show(solved.canon[mt])} vs (b) {show(route_b)}"
            )
    return solved


# ---------------------------------------------------------------------------
# One memo of solved blocks; one-sign blocks solved once per weight pattern.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _blocks(space: str, shape, window: tuple[int, int], key: tuple) -> TriangularBlock | Exception:
    """The solved block of `space` ("t", "s" or "p") over `shape` (the sign
    sequence for "t") at `window` and `weight_key` `key`, or the error its
    solve raised when that error is deterministic, so that the same inputs
    raise it again: a ValueError or RuntimeError (RouteDisagreement among
    them), but not a RecursionError, which depends on the caller's stack
    depth.  The kept error and the errors it chains to hold no frames; any
    other error propagates.  A miss calls `dcb_T`, `dcb_S` or `dcb_P` as
    `bases` binds it at call time, so a wrapper installed there sees every
    solve."""
    dcb = {"t": dcb_T, "s": dcb_S, "p": dcb_P}[space]
    try:
        return dcb(shape, window, dict(key))
    except RecursionError:
        raise
    except (ValueError, RuntimeError) as err:
        link = err
        while link is not None:
            link.__traceback__ = None
            link = link.__cause__ or link.__context__
        return err


def solved_block(space: str, shape, window: tuple[int, int], key: tuple) -> TriangularBlock:
    """The block of `_blocks`, shared while it stays cached: callers only
    read it.  A kept error is raised anew, with its type, message and cause
    (the kept object itself is never raised, so its traceback stays
    empty)."""
    entry = _blocks(space, shape, window, key)
    if isinstance(entry, Exception):
        raise type(entry)(*entry.args) from entry.__cause__
    return entry


def _by_pattern(space: str, shape, window, mu) -> TriangularBlock:
    """One weight block of T ("t", over the sign sequence `shape`), S ("s")
    or P ("p", both over `shape`).

    With one sign, ψ, the Hecke action, the tableau conditions, the row
    normal form and the Bruhat order only compare entries, and beyond
    holding the entries the window is read only by ψ's mixed-sign rule.  So
    when the sign sequence has one sign and the support of mu lies in the
    window, the block is the standard block of mu's pattern (its nonzero
    multiplicities in order: the weight {1: pattern[0], 2: pattern[1], ...}
    at the window (1, len(pattern))) under the order-preserving renaming
    v -> support[v - 1], which carries the order and the bar map along.
    Such a block, unless it is that standard block itself, is relabeled
    from the standard block in `_blocks` into dicts of its own that share
    the Laurent values.  Every other block is solved directly and not kept,
    and so is one whose pattern's entry is an error, so that the error
    names its own labels."""
    solve = {"t": _solve_T, "s": _solve_S, "p": _solve_P}[space]
    signs = shape if space == "t" else shape.sign_sequence()
    lo, hi = window
    support = sorted(a for a, c in mu.items() if c)
    if (
        len(set(signs)) != 1
        or not support
        or support[0] < lo
        or support[-1] > hi
        or (lo, hi) == (1, len(support))  # the standard block itself
    ):
        return solve(shape, window, mu)
    std = _blocks(space, shape, (1, len(support)), tuple(enumerate((mu[a] for a in support), 1)))
    if isinstance(std, Exception):
        return solve(shape, window, mu)
    image = (None, *support)  # image[v] = support[v - 1]
    if space == "t":
        rename = {f: tuple(image[v] for v in f) for f in std.order}
    else:
        rename = {
            mt: multi_tableau_from_row_reading(shape, tuple(image[v] for v in mt.row_reading()))
            for mt in std.order
        }

    def cols(by_label: dict) -> dict:
        return {rename[t]: {rename[g]: c for g, c in col.items()} for t, col in by_label.items()}

    order = tuple(rename[t] for t in std.order)
    return TriangularBlock(std.space, order, cols(std.bar_rows), cols(std.canon))


# ---------------------------------------------------------------------------
# The exterior-side dual canonical basis and the nonvanishing theorem.
# ---------------------------------------------------------------------------


def dcb_wedge(
    shape: SignedMultiPartition, window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """The dual canonical basis of one weight block of the exterior module,
    over Col multi-tableaux in K-coordinates.

    Bar images of the kappa basis are expanded by leading-term elimination
    at the column readings; the resulting matrix is rewritten entrywise by
    the mirror involution, which keeps it involutive and unitriangular and
    matches the normalization of `xi_V`.
    """
    block = _block(shape, window, "col", mu)
    kap = {mt: kappa(mt, window) for mt in block}
    bar_rows = _bar_rows(block, kap, MultiTableau.column_reading, "kappa span", mirror)
    return dcb_solve(TriangularBlock("wedge", tuple(block), bar_rows))


def xi_wedge_images(
    shape: SignedMultiPartition, window: tuple[int, int]
) -> dict[MultiTableau, SElement]:
    """The xi image of every exterior dual canonical basis element.

    The image at label A vanishes exactly when A is not Std; the surviving
    images form the dual canonical basis of P inside S.
    """
    out: dict[MultiTableau, SElement] = {}
    for key in block_weights(shape, window, "col"):
        solved = dcb_wedge(shape, window, dict(key))
        images = {mt: xi_V(mt, window) for mt in solved.order}
        for mt in solved.order:
            acc = LaurentSum()
            for g, c in solved.canon[mt].items():
                acc.add_vector(images[g].coeffs, c)
            out[mt] = SElement(shape, window, acc.settle())
    return out
