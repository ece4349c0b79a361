"""Exact arithmetic in Z[q, q^-1] with the bar involution.

A Laurent polynomial is stored as a mapping from integer exponent to nonzero
arbitrary-precision integer coefficient, so equal values always have equal
stored mappings.  All solver-support primitives (`antisym_solve`,
`exact_divide`, the q^-1-lattice test) live here as well.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache


def add_into(acc: dict, terms, scale=None) -> dict:
    """Add a sparse vector into `acc` in place and return `acc`.

    `terms` is a dict or an iterable of (key, value) pairs; every value is
    multiplied by `scale` first when one is given.  Entries that cancel are
    removed, so `acc` never holds a zero value.  This is the one sparse-add
    loop of the package: Laurent term dictionaries, weight vectors and module
    coefficient dictionaries all accumulate through it.
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
    fields fix the module.  Construction drops zero coefficients and hands
    every key to the subclass's `_check_key`; operands of `+` and `-` are
    assumed to lie in the same module."""

    __slots__ = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", {k: c for k, c in self.coeffs.items() if c})
        for k in self.coeffs:
            self._check_key(k)

    def _check_key(self, key) -> None:
        raise NotImplementedError

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        return replace(self, coeffs=add_into(dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        return replace(self, coeffs=add_into(dict(self.coeffs), other.coeffs, -1))

    def scale(self, c):
        return replace(self, coeffs={k: v * c for k, v in self.coeffs.items()})

    def map_coeffs(self, fn):
        return replace(self, coeffs={k: fn(v) for k, v in self.coeffs.items()})


class LaurentPoly:
    """An integer-coefficient Laurent polynomial in q.

    Instances are immutable after construction and hashable; the term
    dictionary never stores a zero coefficient.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}
        self._hash: int | None = None

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        """Build from an iterable of (exponent, coefficient) pairs."""
        return cls(add_into({}, pairs))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it must hash like one.
        if self._hash is None:
            terms = self.terms
            if terms.keys() <= {0}:
                self._hash = hash(terms.get(0, 0))
            else:
                self._hash = hash(tuple(sorted(terms.items())))
        return self._hash

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = constant(other)
        return LaurentPoly(add_into(dict(self.terms), other.terms))

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = constant(other)
        return LaurentPoly(add_into(dict(self.terms), other.terms, -1))

    __radd__ = __add__

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self).__add__(other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            return LaurentPoly({e: other * c for e, c in self.terms.items()})
        # The convolution accumulates freely; the constructor drops the terms
        # that cancelled.
        out: dict[int, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        return LaurentPoly(out)

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

    @classmethod
    def from_json(cls, data) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in data})


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def constant(c: int) -> LaurentPoly:
    return LaurentPoly({0: c})


def q_power(e: int, c: int = 1) -> LaurentPoly:
    """The monomial c*q^e."""
    return LaurentPoly({e: c})


def bar(p: LaurentPoly) -> LaurentPoly:
    """The bar involution q -> q^-1: negate every exponent."""
    return LaurentPoly({-e: c for e, c in p.terms.items()})


def eval_at_one(p: LaurentPoly) -> int:
    """Specialize q to 1, i.e. sum the coefficients."""
    return sum(p.terms.values())


def eval_at_minus_one(p: LaurentPoly) -> int:
    """Specialize q to -1: sum coefficients with the parity sign of the exponent."""
    return sum(c if e % 2 == 0 else -c for e, c in p.terms.items())


def mirror(p: LaurentPoly) -> LaurentPoly:
    """The ring involution q -> -q^-1 (substitute and renormalize signs).

    It commutes with products and sums, squares to the identity, and
    interchanges the q- and q^-1-lattices while fixing integers.
    """
    return LaurentPoly({-e: (c if e % 2 == 0 else -c) for e, c in p.terms.items()})


def in_qinv_lattice(p: LaurentPoly) -> bool:
    """True iff every nonzero term has exponent <= -1 (membership in q^-1*Z[q^-1])."""
    return all(e <= -1 for e in p.terms)


def antisym_solve(d: LaurentPoly) -> LaurentPoly:
    """Solve bar(c) - c = -d with all exponents of c at most -1.

    The input must be bar-antisymmetric, bar(d) = -d, so that
    d = sum_{k>0} m_k (q^k - q^-k); the unique solution in the q^-1-lattice
    is c = -sum_{k>0} m_k q^-k.
    """
    if bar(d) != -d:
        raise ValueError(f"antisym_solve: input is not bar-antisymmetric: {d}")
    return LaurentPoly({-e: -c for e, c in d.terms.items() if e > 0})


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
    return LaurentPoly(quot)


@cache
def quantum_integer(r: int) -> LaurentPoly:
    """[r] = (q^r - q^-r)/(q - q^-1) = q^{r-1} + q^{r-3} + ... + q^{1-r}."""
    return LaurentPoly({r - 1 - 2 * i: 1 for i in range(r)})


@cache
def quantum_factorial(r: int) -> LaurentPoly:
    """[r]! = [1][2]...[r]."""
    out = ONE
    for k in range(2, r + 1):
        out = out * quantum_integer(k)
    return out
