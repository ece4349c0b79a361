"""Exact arithmetic in Z[q, q^-1] with the bar involution.

A Laurent polynomial is stored as a mapping from integer exponent to nonzero
arbitrary-precision integer coefficient, so equal values always have equal
stored mappings.  The packed triangular solve of the dual canonical basis,
its primitives and its one lattice live here too.

A Laurent polynomial p also has a packed form, one Python int (Kronecker
substitution): `pack(p, lo, bits)` is p(2^bits) * 2^(-bits*lo), so the
coefficient at q^e is the digit at place e - lo in base 2^bits, read as a
balanced digit in [-2^(bits-1), 2^(bits-1)).  Packed forms at the same
(lo, bits) add as ints, and pack(a, lo, bits) * pack(b, 0, bits) is
pack(a*b, lo, bits) for b with no negative exponent.  `unpack` inverts
`pack` when every exponent is >= lo and every |coefficient| < 2^(bits-1);
keeping that precondition is the caller's part.  `pack`, `unpack` and
`triangular_solve` are the only code that knows this digit format.

Sums go through one of two helpers, by the values they add.  A Laurent-valued
sparse vector (a module element's coefficients) is built by a `LaurentSum`,
which adds p * s * q^k into term dicts of its own and settles them once; ints
(term dicts, weight vectors, packed defects, Verma multiplicities) and the
generic `Element` operators go through `add_into`.  `LaurentSum.add` is the
one loop that multiplies two term dicts: a product p * s is a one-key sum.
"""

from __future__ import annotations

from dataclasses import replace


def add_into(acc: dict, terms, scale=None) -> dict:
    """Add a sparse vector into `acc` in place and return `acc`.

    `terms` is a dict or an iterable of (key, value) pairs; every value is
    multiplied by `scale` first when one is given.  Entries that cancel are
    removed, so `acc` never holds a zero value.  This is the one sparse-add
    loop for int values (Laurent term dicts, weight vectors, packed defects,
    Verma multiplicities) and for the generic `Element` operators; a sum of
    Laurent-valued vectors builds through `LaurentSum`, which forms no
    `LaurentPoly` per term.
    """
    if isinstance(terms, dict):
        terms = terms.items()
    for k, v in terms:
        if scale is not None:
            v = v * scale
        old = acc.get(k)
        if old is not None:
            v = old + v
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


class Element:
    """The algebra shared by every module element: a frozen dataclass whose
    `coeffs` field maps basis keys to nonzero coefficients and whose other
    fields fix the module; operands of `+` and `-` are assumed to lie in the
    same module.

    There are two constructors.  The public one, `Cls(*fields)`, copies
    `coeffs` without its zero coefficients and hands every key to the
    subclass's `_check_key`.  `Cls._of(*fields)`, like `LaurentPoly._of`,
    stores the fields as given: it is for library code that has just built
    a zero-free `coeffs` over keys valid by construction.  `scale` and
    `map_coeffs` keep their element's keys, so they build through `_of`."""

    def __post_init__(self):
        object.__setattr__(self, "coeffs", {k: c for k, c in self.coeffs.items() if c})
        for k in self.coeffs:
            self._check_key(k)

    @classmethod
    def _of(cls, *fields):
        """Wrap, without copying, filtering or checking, the fields in
        declaration order; `coeffs` must be zero-free with valid keys."""
        x = object.__new__(cls)
        x.__dict__.update(zip(cls.__dataclass_fields__, fields, strict=True))
        return x

    def _check_key(self, key) -> None:
        raise NotImplementedError

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        return replace(self, coeffs=add_into(dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        return replace(self, coeffs=add_into(dict(self.coeffs), other.coeffs, -1))

    def scale(self, c):
        return self.map_coeffs(lambda v: v * c)

    def map_coeffs(self, fn):
        """`fn` applied to every coefficient, zeros dropped.  The keys stay
        this element's, already checked, so the result is built by `_of`."""
        coeffs = {k: c for k, v in self.coeffs.items() if (c := fn(v))}
        fields = self.__dataclass_fields__
        return self._of(*(coeffs if f == "coeffs" else getattr(self, f) for f in fields))


class LaurentPoly:
    """An integer-coefficient Laurent polynomial in q.

    Instances are immutable after construction and hashable; the term
    dictionary never stores a zero coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        # Filters zeros, for dicts from outside the kernel and `LaurentSum.get`.
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, terms: dict[int, int]) -> "LaurentPoly":
        """Wrap, without copying or filtering, a term dict that the caller
        has just built with no zero coefficient."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly) and (other := _operand(other)) is NotImplemented:
            return other
        return self.terms == other.terms

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it must hash like one.
        terms = self.terms
        if terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        return hash(tuple(sorted(terms.items())))

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly) and (other := _operand(other)) is NotImplemented:
            return other
        return LaurentPoly._of(add_into(dict(self.terms), other.terms))

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly) and (other := _operand(other)) is NotImplemented:
            return other
        return LaurentPoly._of(add_into(dict(self.terms), other.terms, -1))

    __radd__ = __add__

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self).__add__(other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly) and (other := _operand(other)) is NotImplemented:
            return other
        out = LaurentSum()
        out.add(0, other, self)
        return out.settle().get(0, ZERO)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        # Canonical textual form: "c*q^e" terms sorted by descending exponent.
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*q^{e}" for e, c in sorted(self.terms.items(), reverse=True))

    def to_json(self) -> list[list]:
        """JSON form: [exponent, coefficient-as-decimal-string] pairs, descending exponent."""
        return [[e, str(c)] for e, c in sorted(self.terms.items(), reverse=True)]


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


class LaurentSum:
    """A sparse vector of Laurent polynomials under construction: the one
    accumulator of Laurent-valued sums.  `add` adds p * s * q^k at a key,
    `settle` hands back the sum as zero-free values over the keys that did
    not cancel.

    It is copy-on-write.  A value given in `start`, or written once with no
    scale and shift 0, is kept by reference: shared polynomials, such as a
    memoized bar image's, are never written.  A key gets a term dict of its
    own, which nothing else sees, on its first scaled or shifted write or on
    its second write, and every further write adds into that dict in place,
    so a sum forms no polynomial per term.  Those dicts may hold zero
    coefficients until `settle` drops them, once per key.
    """

    __slots__ = ("_acc",)

    def __init__(self, start: dict | None = None):
        # key -> a shared LaurentPoly, or a term dict owned here
        self._acc = dict(start) if start else {}

    def add(self, key, p: LaurentPoly, scale: LaurentPoly | None = None, shift: int = 0) -> None:
        """Add p * scale * q^shift at `key`; no scale stands for 1."""
        acc = self._acc
        d = acc.get(key)
        if d is None:
            if scale is None:
                acc[key] = {e + shift: c for e, c in p.terms.items()} if shift else p
                return
            d = acc[key] = {}
        elif d.__class__ is not dict:
            d = acc[key] = dict(d.terms)
        get = d.get
        if scale is None:
            for e, c in p.terms.items():
                e += shift
                d[e] = get(e, 0) + c
            return
        for es, cs in scale.terms.items():
            es += shift
            for e, c in p.terms.items():
                e += es
                d[e] = get(e, 0) + c * cs

    def add_vector(self, vector: dict, scale: LaurentPoly | None = None, shift: int = 0) -> None:
        """Add every value of `vector`, times scale * q^shift, at its key."""
        add = self.add
        for key, p in vector.items():
            add(key, p, scale, shift)

    def get(self, key) -> LaurentPoly | None:
        """The sum so far at `key`, or None if it was never written."""
        v = self._acc.get(key)
        return LaurentPoly(v) if v.__class__ is dict else v

    def settle(self) -> dict:
        """The sum: every key whose value did not cancel, with its zero-free
        value.  The accumulator is spent; its own term dicts become the
        results' without a copy."""
        out = {}
        for key, v in self._acc.items():
            if v.__class__ is dict:
                if 0 in v.values():
                    v = {e: c for e, c in v.items() if c}
                if v:
                    out[key] = LaurentPoly._of(v)
            elif v.terms:
                out[key] = v
        self._acc = None
        return out


def constant(c: int) -> LaurentPoly:
    return q_power(0, c)


def _operand(x):
    """The one rule for a non-LaurentPoly operand: an int (a bool too) is its
    constant polynomial, anything else is foreign and gives NotImplemented."""
    return constant(int(x)) if isinstance(x, int) else NotImplemented


def q_power(e: int, c: int = 1) -> LaurentPoly:
    """The monomial c*q^e."""
    return LaurentPoly._of({e: c}) if c else ZERO


def bar(p: LaurentPoly) -> LaurentPoly:
    """The bar involution q -> q^-1: negate every exponent."""
    return LaurentPoly._of({-e: c for e, c in p.terms.items()})


def mirror(p: LaurentPoly) -> LaurentPoly:
    """The ring involution q -> -q^-1 (substitute and renormalize signs).

    It commutes with products and sums, squares to the identity, and
    interchanges the q- and q^-1-lattices while fixing integers.
    """
    return LaurentPoly._of({-e: (c if e % 2 == 0 else -c) for e, c in p.terms.items()})


# The one lattice: strictly-lower coordinates lie in q^-1 Z[q^-1], specialized
# at q = -1.  `triangular_solve` packs bar(c) at offset 0, right only for that.


def in_lattice(p: LaurentPoly) -> bool:
    """True iff p lies in the lattice q^-1 Z[q^-1]."""
    return all(e < 0 for e in p.terms)


def specialize(p: LaurentPoly) -> int:
    """p at the specialization point q = -1."""
    return sum(-c if e % 2 else c for e, c in p.terms.items())


def antisym_solve(d: LaurentPoly) -> LaurentPoly:
    """Solve bar(c) - c = -d with c in the lattice q^-1 Z[q^-1].

    The input must be bar-antisymmetric, bar(d) = -d, that is d[-e] = -d[e]
    for every term (so no constant term); then d = c - bar(c) for the unique
    solution c, the part of d inside the lattice.
    """
    terms = d.terms
    if any(terms.get(-e) != -c for e, c in terms.items()):
        raise ValueError(f"antisym_solve: input is not bar-antisymmetric: {d}")
    return LaurentPoly._of({e: c for e, c in terms.items() if e < 0})


def pack(p: LaurentPoly, lo: int, bits: int) -> int:
    """The packed form p(2^bits) * 2^(-bits*lo) of p: the coefficient at q^e
    is the balanced base-2^bits digit at place e - lo.  Every exponent of p
    must be >= lo; `unpack` recovers p when also every |coefficient| is below
    2^(bits-1)."""
    n = 0
    for e, c in p.terms.items():
        n += c << bits * (e - lo)
    return n


def unpack(n: int, lo: int, bits: int) -> LaurentPoly:
    """The Laurent polynomial whose `pack` at (lo, bits) is n, read as
    balanced base-2^bits digits from place 0 (exponent lo) up.  Exact when
    the packed polynomial had every exponent >= lo and every |coefficient|
    below 2^(bits-1)."""
    terms: dict[int, int] = {}
    if n:
        base = 1 << bits
        half, mask = base >> 1, base - 1
        skip = ((n & -n).bit_length() - 1) // bits  # zero digits below the lowest term
        n >>= skip * bits
        e = lo + skip
        while n:
            c = n & mask
            if c >= half:
                c -= base
            if c:
                terms[e] = c
            n = (n - c) >> bits
            e += 1
    return LaurentPoly._of(terms)


# The digit width at which `triangular_solve` first packs a block.  The column
# bounds of the benchmark workloads' blocks stay below 2^8, so those blocks
# solve at this width; wider coefficients cost one re-solve per doubling.
_PACK_BITS = 16


def triangular_solve(rows: list[dict], order) -> list[dict]:
    """The dual canonical columns of a unitriangular bar matrix, keyed by
    position: `rows[j]` maps i to the zero-free coefficient of e_i in
    bar(e_j), and `order` names the positions in the two error messages.

    Column j starts from X = e_j with bar defect d = bar(X) - X, cancels the
    top entry i of d by the `antisym_solve` correction X[i] and adds bar(X[i])
    bar(e_i) - X[i] e_i to d.  Each lower position is corrected at most once,
    top-down, ending at the unique bar-invariant X unitriangular with
    strictly-lower entries in q^-1 Z[q^-1].  The defect stays packed at the
    block's lowest exponent `lo` (at most 0): a correction is int
    multiply-and-add, and only the top entry is unpacked.  Every coefficient of
    the defect is at most the sum of ||c||_1 * (height of row i + 1) over its
    corrections c at i, counting e_j as the correction 1 at j, where ||c||_1
    sums c's absolute coefficients and a row's height is its largest one.
    Unpacking and the zero test are exact while that bound is below half a
    digit; otherwise the block is solved again at twice the width.
    """
    lo, heights = 0, []
    for row in rows:
        height = 0
        for c in row.values():
            e, h = min(c.terms), max(map(abs, c.terms.values()))
            if e < lo:
                lo = e
            if h > height:
                height = h
        heights.append(height + 1)
    bits = _PACK_BITS
    while True:
        half = 1 << (bits - 1)
        packed = [{i: pack(c, lo, bits) for i, c in row.items()} for row in rows]
        unit = pack(ONE, lo, bits)
        cols = []
        for j, t in enumerate(order):
            x = {j: ONE}
            d = add_into(dict(packed[j]), {j: unit}, -1)
            bound = heights[j]
            while bound < half and d:
                i = max(d)
                if i >= j:
                    raise RuntimeError(f"bar matrix is not unitriangular at {t}: defect at {order[i]}")
                try:
                    x[i] = c = antisym_solve(unpack(d[i], lo, bits))
                except ValueError as err:
                    raise ValueError(f"bar defect of {t} at {order[i]}: {err}") from err
                add_into(d, packed[i], pack(bar(c), 0, bits))
                add_into(d, {i: pack(c, lo, bits)}, -1)
                bound += sum(map(abs, c.terms.values())) * heights[i]
            if bound >= half:
                break
            cols.append(x)
        else:
            return cols
        bits *= 2  # a column's bound reached half a digit


def exact_divide(p: LaurentPoly, r: LaurentPoly) -> LaurentPoly:
    """Return s with s*r = p, or raise ValueError when r does not divide p.

    Non-divisibility indicates a lattice-integrality bug upstream, so the
    error message carries both operands.
    """
    if not r:
        raise ZeroDivisionError("exact_divide by zero")
    if not p:
        return ZERO
    # Shift both operands to ordinary polynomials and long-divide over Z.
    vp, vr = min(p.terms), min(r.terms)
    num = dict(p.terms)
    den_deg = max(r.terms)
    den_lead = r.terms[den_deg]
    quot: dict[int, int] = {}
    while num:
        deg = max(num)
        shift = deg - den_deg
        c, rem = divmod(num[deg], den_lead)
        if rem or shift < vp - vr:
            raise ValueError(f"exact_divide: ({p}) is not divisible by ({r})")
        quot[shift] = c
        add_into(num, {e + shift: ce for e, ce in r.terms.items()}, -c)
    return LaurentPoly._of(quot)

