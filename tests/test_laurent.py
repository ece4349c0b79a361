import pytest
from hypothesis import given, strategies as st

from qchar.laurent import (
    LaurentPoly,
    LaurentSum,
    ONE,
    ZERO,
    add_into,
    antisym_solve,
    bar,
    constant,
    exact_divide,
    in_lattice,
    pack,
    q_power,
    specialize,
    unpack,
)


def poly(*pairs):
    """The Laurent polynomial summing the (exponent, coefficient) pairs."""
    return LaurentPoly(add_into({}, pairs))


# The quantum integer [2] = q + q^-1.
QUANTUM_2 = LaurentPoly({1: 1, -1: 1})


# Small coefficients, and coefficients past the machine word.
coefficients = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))

laurent_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), coefficients, max_size=5),
)


def test_add_examples():
    assert q_power(1) + q_power(-1) == poly((1, 1), (-1, 1))
    p = poly((2, 3), (-1, 5))
    assert p + ZERO == p
    assert poly((1, 1), (-1, -1)) + poly((-1, 1), (1, -1)) == ZERO


def test_mul_examples():
    assert poly((1, 1), (-1, 1)) * poly((1, 1), (-1, -1)) == poly((2, 1), (-2, -1))
    p = poly((4, 2), (0, -7))
    assert p * ONE == p
    # [2]^2 expanded by hand.
    assert QUANTUM_2 * QUANTUM_2 == poly((2, 1), (0, 2), (-2, 1))


def test_bar_examples():
    assert bar(poly((2, 1), (-1, -3))) == poly((-2, 1), (1, -3))
    assert bar(ZERO) == ZERO
    sym = poly((1, 1), (-1, 1))
    assert bar(sym) == sym


def test_in_qinv_lattice_examples():
    assert in_lattice(poly((-1, 1), (-3, 2)))
    assert not in_lattice(ONE)
    assert in_lattice(ZERO)


def test_specialize_examples():
    # q^k -> (-1)^k: the specialization point is q = -1
    for k, sign in zip(range(-3, 4), (-1, 1, -1, 1, -1, 1, -1)):
        assert specialize(q_power(k)) == sign
        assert specialize(q_power(k, 2**70)) == sign * 2**70
        assert specialize(q_power(k, -(2**70))) == -sign * 2**70
    assert specialize(ZERO) == 0
    assert specialize(QUANTUM_2) == -2


def test_antisym_solve_examples():
    d = poly((1, 1), (-1, -1))
    c = antisym_solve(d)
    assert c == q_power(-1, -1)
    assert bar(c) - c == -d
    assert antisym_solve(ZERO) == ZERO
    assert antisym_solve(poly((3, 2), (-3, -2))) == q_power(-3, -2)


def test_antisym_solve_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        antisym_solve(ONE)
    with pytest.raises(ValueError):
        antisym_solve(poly((1, 1), (-1, 1)))


def test_exact_divide_examples():
    assert exact_divide(poly((2, 1), (-2, -1)), poly((1, 1), (-1, -1))) == QUANTUM_2
    p = poly((5, 3), (-2, 4))
    assert exact_divide(p, ONE) == p
    with pytest.raises(ValueError):
        exact_divide(ONE, QUANTUM_2)


def test_canonical_text_form():
    assert str(poly((-1, -3), (2, 1))) == "1*q^2 + -3*q^-1"
    assert str(ZERO) == "0"


def test_json_round_trip():
    p = poly((3, 12345678901234567890), (-2, -4))
    data = p.to_json()
    assert data == [[3, "12345678901234567890"], [-2, "-4"]]
    assert LaurentPoly({int(e): int(c) for e, c in data}) == p


@given(laurent_polys)
def test_bar_is_an_involution(p):
    assert bar(bar(p)) == p


@given(laurent_polys)
def test_eval_at_one_is_bar_invariant(p):
    # q = 1 is fixed by q -> q^-1, so the coefficient sum is too
    assert sum(bar(p).terms.values()) == sum(p.terms.values())


@given(laurent_polys, laurent_polys)
def test_specialize_is_a_bar_invariant_ring_homomorphism(p, r):
    assert specialize(ONE) == 1
    assert specialize(p + r) == specialize(p) + specialize(r)
    assert specialize(p * r) == specialize(p) * specialize(r)
    assert specialize(bar(p)) == specialize(p)


@given(st.dictionaries(st.integers(1, 6), st.integers(-9, 9), max_size=4))
def test_antisym_solve_postconditions(upper):
    d = poly(*upper.items(), *((-k, -c) for k, c in upper.items()))
    c = antisym_solve(d)
    assert in_lattice(c)
    assert bar(c) - c == -d


# p - bar(p) is bar-antisymmetric, so both outcomes are drawn often; adding
# a constant c breaks antisymmetry only at q^0 when c is nonzero.
antisymmetric_polys = laurent_polys.map(lambda p: p - bar(p))


@given(
    st.one_of(
        laurent_polys,
        antisymmetric_polys,
        st.builds(lambda d, c: d + c, antisymmetric_polys, coefficients),
    )
)
def test_antisym_solve_raises_exactly_off_antisymmetric_inputs(d):
    if bar(d) != -d:
        with pytest.raises(ValueError, match="not bar-antisymmetric"):
            antisym_solve(d)
        return
    c = antisym_solve(d)
    assert in_lattice(c)
    assert bar(c) - c == -d


@given(laurent_polys, laurent_polys)
def test_exact_divide_round_trip(p, r):
    if not r:
        return
    assert exact_divide(p * r, r) == p


def test_no_zero_coefficient_is_stored():
    p = poly((3, 2), (0, -1), (-2, 5))
    r = poly((1, 7), (-1, -7), (0, 1))
    results = [
        p + r,
        p + (-p),
        p - p,
        p - r,
        p * r,
        poly((1, 1), (-1, 1)) * poly((1, 1), (-1, -1)),
        p * 0,
        p * -3,
        0 * p,
        poly((2, 3), (2, -3), (1, 4), (0, 0), (1, -4), (5, 1)),
        q_power(2, -3) * p,
        p * q_power(-1, 4),
        q_power(2, -3) * q_power(-2, 5),
        q_power(4, 0),
        q_power(1, 2) * 0,
        bar(p),
        -p,
    ]
    for x in results:
        assert 0 not in x.terms.values()
    assert p * 0 == p - p == q_power(4, 0) == ZERO
    assert q_power(2, -3) * p == p * q_power(2, -3) == poly((5, -6), (2, 3), (0, -15))
    assert poly((2, 3), (2, -3), (1, 4), (0, 0), (1, -4), (5, 1)).terms == {5: 1}


def convolution(a, b):
    """The product of two Laurent polynomials, term by term."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


monomials = st.builds(q_power, st.integers(-6, 6), coefficients.filter(bool))


@given(monomials, laurent_polys)
def test_monomial_product_is_the_convolution(m, p):
    assert (m * p).terms == (p * m).terms == convolution(m, p)


@given(laurent_polys, laurent_polys)
def test_product_is_the_convolution(p, r):
    assert (p * r).terms == (r * p).terms == convolution(p, r)


@given(laurent_polys, laurent_polys, monomials, st.integers(-3, 3))
def test_no_result_shares_an_operands_terms(p, r, m, c):
    results = [p + r, p - r, p * r, p * m, m * p, p * c, c * p, p + c, c - p, -p, bar(p)]
    for x in results:
        for operand in (p, r, m):
            assert x.terms is not operand.terms


# One write to a LaurentSum: (key, p, scale or None, shift, cancel), where
# `cancel` writes the same term again with -p, so the pair sums to zero.
sum_writes = st.lists(
    st.tuples(
        st.integers(0, 3),
        laurent_polys,
        st.none() | laurent_polys,
        st.integers(-4, 4),
        st.booleans(),
    ),
    max_size=8,
)


@given(st.dictionaries(st.integers(0, 3), laurent_polys, max_size=3), sum_writes, laurent_polys)
def test_laurent_sum_is_the_sum_of_products(start, writes, scale):
    """Differential against `*` and `+`: the settled sum is zero-free, holds
    no key that cancelled, writes no operand, and each value either is the
    operand it was written from once or shares no term dict with any."""
    operands = [*start.values(), scale, *(s for _, _, s, _, _ in writes if s is not None)]
    operands += [p for _, p, _, _, _ in writes]
    snapshot = [dict(x.terms) for x in operands]
    acc = LaurentSum(start)
    expected = dict(start)
    for key, p, s, shift, cancel in writes:
        for term in (p, -p) if cancel else (p,):
            acc.add(key, term, s, shift)
            product = term * (ONE if s is None else s) * q_power(shift)
            expected[key] = expected.get(key, ZERO) + product
            assert acc.get(key) == expected[key]
    vector = {key + 2: p for key, p, _, _, _ in writes}
    acc.add_vector(vector, scale, -1)
    for key, p in vector.items():
        expected[key] = expected.get(key, ZERO) + p * scale * q_power(-1)
    out = acc.settle()
    assert out == {k: v for k, v in expected.items() if v}
    for v in out.values():
        assert v and 0 not in v.terms.values()
        assert all(v is x or v.terms is not x.terms for x in operands)
    assert [x.terms for x in operands] == snapshot


def test_laurent_sum_copies_a_shared_value_on_its_second_write():
    p, r = poly((1, 2), (0, -1)), poly((-1, 3))
    acc = LaurentSum({"a": p})
    acc.add("a", r)
    acc.add("b", r)
    acc.add("c", r, None, 1)
    acc.add("d", p, QUANTUM_2)
    acc.add("d", -p, QUANTUM_2)
    acc.add_vector({"e": p, "f": r}, QUANTUM_2, 2)
    out = acc.settle()
    assert list(out) == ["a", "b", "c", "e", "f"]
    assert out["a"] == p + r and p.terms == {1: 2, 0: -1}
    assert out["b"] is r  # written once with no scale: kept by reference
    assert out["c"] == r * q_power(1) and out["c"].terms is not r.terms
    assert out["e"] == p * QUANTUM_2 * q_power(2)
    assert out["f"] == poly((2, 3), (0, 3))
    assert r.terms == {-1: 3}


def test_constant_hashes_like_its_int():
    for c in (0, 1, -3, 2**70, -(2**70)):
        assert constant(c) == c
        assert hash(constant(c)) == hash(c)
    assert 1 in {ONE}
    assert ONE in {1}


def test_int_operands_on_either_side():
    p = q_power(1) + q_power(-1)
    for c in (0, 1, -3):
        assert p + c == p + constant(c) == c + p
        assert p - c == p - constant(c)
        assert c - p == constant(c) - p
    assert ONE + 1 == 2 and 1 - ONE == ZERO
    for bad in (1.0, "1", None):
        with pytest.raises(TypeError):
            ONE + bad
        with pytest.raises(TypeError):
            bad - ONE


def test_a_bool_operand_is_an_int_constant():
    for total in (ZERO + True, True + ZERO):
        assert str(total) == "1*q^0"
        assert total.to_json() == [[0, "1"]]


def test_mul_rejects_foreign_operands():
    p = q_power(1) + q_power(-1)
    assert p * 2 == 2 * p == p + p
    for bad in (1.5, "1", None, [1]):
        assert p.__mul__(bad) is NotImplemented
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p


# Packed forms: coefficients far past the machine word, exponents -20..20.
wide_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-20, 20), st.integers(-(2**200), 2**200), max_size=6),
)
nonnegative_wide_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(0, 20), st.integers(-(2**200), 2**200), max_size=6),
)


def fitting_bits(p):
    """The least digit width that holds every coefficient of p."""
    return max((abs(c).bit_length() for c in p.terms.values()), default=0) + 1


def test_pack_examples():
    # 3 - q^2 at lo = -1, 4-bit digits: 3 at place 1, -1 at place 3
    p = poly((0, 3), (2, -1))
    assert pack(p, -1, 4) == (3 << 4) - (1 << 12)
    assert unpack(pack(p, -1, 4), -1, 4) == p
    assert pack(ONE, -2, 8) == 1 << 16


@given(wide_polys, st.integers(0, 8), st.integers(0, 5))
def test_pack_round_trips_at_any_width_that_fits(p, extra, below):
    lo = min(p.terms, default=0) - below
    bits = fitting_bits(p) + extra
    for x in (p, -p):
        assert unpack(pack(x, lo, bits), lo, bits) == x


@given(wide_polys, nonnegative_wide_polys, st.integers(0, 3))
def test_packed_product_is_the_packed_product(a, b, extra):
    lo = min(a.terms, default=0)
    bits = fitting_bits(a * b) + extra
    packed = pack(a, lo, bits) * pack(b, 0, bits)
    assert packed == pack(a * b, lo, bits)
    assert unpack(packed, lo, bits) == a * b


@given(st.integers(-20, 20), st.integers(1, 64))
def test_zero_packs_to_zero(lo, bits):
    assert pack(ZERO, lo, bits) == 0
    assert unpack(0, lo, bits) == ZERO
