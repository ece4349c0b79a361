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

from .combinatorics import (
    MultiTableau,
    SignedMultiPartition,
    enumerate_tableaux,
    inversions,
    multi_tableau_from_row_reading,
)
from .laurent import (
    Element,
    LaurentPoly,
    ONE,
    add_into,
    antisym_solve,
    bar as bar_q,
    exact_divide,
    mirror,
    q_power,
)
from .tensor_space import (
    TensorElement,
    antisymmetrize,
    bar_involution,
    by_weight,
    hecke_act_word,
    linear_extension,
    monomials,
    of_weight,
    reduced_word,
    symmetrize,
    weight_block,
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

    def to_tensor(self) -> TensorElement:
        """Lift through the monomial section A -> M_{rho(A)}."""
        return TensorElement(
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
        return latex_table(self.order, self.canon, "${}$".format)


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
    """Solve for the dual canonical basis of a triangular block.

    For each index t in increasing order, start from the standard basis
    element, repeatedly cancel the maximal term of bar(X) - X with an
    `antisym_solve` correction, and stop at the unique bar-invariant element
    with unitriangular, strictly-lower q^-1-lattice coordinates.
    """
    pos = {t: i for i, t in enumerate(block.order)}
    canon: dict = {}
    for t in block.order:
        x = {t: ONE}
        while True:
            d: dict = {}
            for g, c in x.items():
                add_into(d, block.bar_rows[g], bar_q(c))
            add_into(d, x, -1)
            if not d:
                break
            g = max(d, key=lambda k: pos[k])
            if pos[g] >= pos[t]:
                raise RuntimeError(
                    f"bar matrix is not unitriangular at {t}: defect at {g}"
                )
            add_into(x, {g: antisym_solve(d[g])})
        canon[t] = x
    return TriangularBlock(block.space, block.order, block.bar_rows, canon)


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
    frozen Hecke action.
    """
    if x.signs != shape.sign_sequence():
        raise ValueError("sign sequence of the element does not match the shape")
    segs = row_segments(shape)

    def terms():
        for f, c in x.coeffs.items():
            inv = 0
            sorted_f = list(f)
            for start, length, s in segs:
                seg = f[start : start + length]
                inv += inversions(seg if s == "+" else [-v for v in seg])
                sorted_f[start : start + length] = sorted(seg, reverse=(s == "-"))
            yield multi_tableau_from_row_reading(shape, tuple(sorted_f)), c * q_power(inv)

    return SElement(shape, x.window, add_into({}, terms()))


def bar_S(x: SElement) -> SElement:
    """The bar involution of S: lift through the monomial section, apply the
    tensor bar involution, and straighten back."""
    return straighten(bar_involution(x.to_tensor()), x.shape)


# ---------------------------------------------------------------------------
# Weight blocks, leading-term elimination, and dual canonical bases of T and S.
# ---------------------------------------------------------------------------


def _reading(kind: str):
    """The reading that orders and indexes a block of labels of `kind`:
    column reading for Col tableaux, row reading for Row and Std ones, and
    none for the monomials of kind "t", which are their own reading."""
    return {"t": None, "col": MultiTableau.column_reading}.get(kind, MultiTableau.row_reading)


def _block(
    shape: SignedMultiPartition, window: tuple[int, int], kind: str, mu: dict[int, int]
) -> list[MultiTableau]:
    """The tableaux of one kind and signed weight mu, in block order."""
    signs, reading = shape.sign_sequence(), _reading(kind)
    block = of_weight(enumerate_tableaux(shape, kind, window), signs, mu, reading)
    return linear_extension(block, signs, reading)


def _by_weight(
    shape: SignedMultiPartition, window: tuple[int, int], kind: str
) -> dict[tuple, list]:
    signs = shape.sign_sequence()
    labels = monomials(signs, window) if kind == "t" else enumerate_tableaux(shape, kind, window)
    return by_weight(labels, signs, _reading(kind))


def block_weights(
    shape: SignedMultiPartition, window: tuple[int, int], kind: str
) -> list[tuple[tuple[int, int], ...]]:
    """The sorted weight keys of the nonempty blocks of labels of a kind:
    Row, Col or Std tableaux, or "t" for the monomials of the tensor module
    of the shape's sign sequence."""
    return sorted(_by_weight(shape, window, kind))


def weight_blocks(
    shape: SignedMultiPartition, window: tuple[int, int], kind: str
) -> list[tuple[dict[int, int], list]]:
    """Split the labels of a kind into signed-weight blocks in the order of
    `block_weights`, each ordered by the fixed linear extension of the
    Bruhat order on readings."""
    signs, reading = shape.sign_sequence(), _reading(kind)
    buckets = _by_weight(shape, window, kind)
    return [
        (dict(key), linear_extension(buckets[key], signs, reading))
        for key in sorted(buckets)
    ]


def _eliminate(x: dict, order, rows: dict, pivot) -> tuple[dict, dict]:
    """Expand the coefficient dict `x` over basis elements by leading-term
    elimination.

    `rows[t].coeffs` is the basis element at label t, whose leading term sits
    at key `pivot(t)`.  Walking `order` from the top down, each pivot still
    present in the remainder is divided exactly by the basis element's pivot
    coefficient and that multiple of the element is subtracted.  Returns the
    coordinates and the residual left outside the pivots; whether a nonzero
    residual is an error is the caller's decision.
    """
    y = dict(x)
    coords: dict = {}
    for t in reversed(order):
        key = pivot(t)
        c = y.get(key)
        if not c:
            continue
        row = rows[t].coeffs
        co = exact_divide(c, row[key])
        coords[t] = co
        add_into(y, row, -co)
    return coords, y


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
    """The dual canonical basis of one weight block of the tensor module."""
    order = weight_block(signs, window, mu)
    bar_rows = {
        f: dict(bar_involution(TensorElement.monomial(signs, window, f)).coeffs)
        for f in order
    }
    return dcb_solve(TriangularBlock("t", tuple(order), bar_rows))


def dcb_S(
    shape: SignedMultiPartition, window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """The dual canonical basis {L_A} of one weight block of S, over Row
    multi-tableaux in Pi-coordinates."""
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


def shuffle_permutation(shape_piece) -> tuple[int, ...]:
    """One-line permutation whose j-th row-reading position holds the j-th
    column-reading box of the pyramid."""
    lengths = shape_piece.row_lengths()
    ids, k = {}, 0
    for j in range(shape_piece.num_cols):
        for i in range(shape_piece.length):
            if lengths[i] > j:
                k += 1
                ids[(i, j)] = k
    return tuple(
        ids[(i, j)] for i in range(shape_piece.length) for j in range(lengths[i])
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
    applied to kappa(A).  Coefficients live in the q-lattice; `xi_V` rescales
    them through the mirror involution."""
    return straighten(_braiding_word_apply(bfA, kappa(bfA, window)), bfA.shape)


def xi_V(bfA: MultiTableau, window: tuple[int, int]) -> SElement:
    """V_A for a Col multi-tableau: the braided image of K_A in S, with every
    Pi-coordinate rewritten by the mirror involution q -> -q^-1.

    The mirror rewrite normalizes V_A to a unitriangular q^-1-lattice
    element over Std leading terms; the classical specialization of the
    alternating-sum identity then sits at q = -1.
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
    x: SElement,
    deltas: dict[MultiTableau, SElement],
    order: list[MultiTableau],
) -> dict[MultiTableau, LaurentPoly]:
    """Delta-coordinates of an S element by triangular elimination on the
    Std leading terms, in decreasing block order.

    The Std coordinates determine the element of P uniquely; support left
    outside the Std pivots after elimination is the completion tail of the
    finite window and carries no Delta-coordinate, so it is dropped.  A
    non-divisible pivot signals a broken braiding word.
    """
    coords, _ = _eliminate(x.coeffs, order, deltas, lambda t: t)
    return coords


def dcb_P(
    shape: SignedMultiPartition, window: tuple[int, int], mu: dict[int, int]
) -> TriangularBlock:
    """The dual canonical basis {L_A} of one weight block of P, over Std
    multi-tableaux in Delta-coordinates.

    Route (a) pushes bar_S through the Delta expansion and solves the
    triangular system; route (b) re-expresses the dcb_S elements at Std
    labels.  Both are computed and compared; a mismatch raises
    `RouteDisagreement`.
    """
    order, deltas = delta_block(shape, window, mu)
    bar_rows = {
        mt: delta_coords(bar_S(deltas[mt]), deltas, order) for mt in order
    }
    solved = dcb_solve(TriangularBlock("p", tuple(order), bar_rows))
    ls = dcb_S(shape, window, mu)
    for mt in order:
        s_elem = SElement(shape, window, dict(ls.canon[mt]))
        route_b = delta_coords(s_elem, deltas, order)
        if route_b != solved.canon[mt]:
            raise RouteDisagreement(
                f"dcb_P routes disagree at {mt}: "
                f"(a) {solved.canon[mt]} vs (b) {route_b}"
            )
    return solved


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
    for mu, block in weight_blocks(shape, window, "col"):
        solved = dcb_wedge(shape, window, mu)
        images = {mt: xi_V(mt, window) for mt in block}
        for mt in block:
            acc: dict = {}
            for g, c in solved.canon[mt].items():
                add_into(acc, images[g].coeffs, c)
            out[mt] = SElement(shape, window, acc)
    return out
