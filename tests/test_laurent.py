import pytest
from hypothesis import given, strategies as st

from qchar.laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    antisym_solve,
    bar,
    constant,
    eval_at_one,
    exact_divide,
    in_qinv_lattice,
    q_power,
    quantum_factorial,
    quantum_integer,
)


def poly(*pairs):
    return LaurentPoly.from_pairs(pairs)


laurent_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
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
    assert quantum_integer(2) * quantum_integer(2) == poly((2, 1), (0, 2), (-2, 1))


def test_bar_examples():
    assert bar(poly((2, 1), (-1, -3))) == poly((-2, 1), (1, -3))
    assert bar(ZERO) == ZERO
    sym = poly((1, 1), (-1, 1))
    assert bar(sym) == sym


def test_eval_at_one_examples():
    assert eval_at_one(poly((1, 1), (-1, 1))) == 2
    assert eval_at_one(q_power(-1)) == 1
    assert eval_at_one(poly((2, 1), (0, -2), (-2, 1))) == 0


def test_in_qinv_lattice_examples():
    assert in_qinv_lattice(poly((-1, 1), (-3, 2)))
    assert not in_qinv_lattice(ONE)
    assert in_qinv_lattice(ZERO)


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
    assert exact_divide(poly((2, 1), (-2, -1)), poly((1, 1), (-1, -1))) == quantum_integer(2)
    p = poly((5, 3), (-2, 4))
    assert exact_divide(p, ONE) == p
    with pytest.raises(ValueError):
        exact_divide(ONE, quantum_integer(2))


def test_canonical_text_form():
    assert str(poly((-1, -3), (2, 1))) == "1*q^2 + -3*q^-1"
    assert str(ZERO) == "0"


def test_json_round_trip():
    p = poly((3, 12345678901234567890), (-2, -4))
    data = p.to_json()
    assert data == [[3, "12345678901234567890"], [-2, "-4"]]
    assert LaurentPoly.from_json(data) == p


def test_quantum_factorial():
    assert quantum_factorial(1) == ONE
    assert quantum_factorial(2) == quantum_integer(2)
    assert quantum_factorial(3) == quantum_integer(2) * quantum_integer(3)


@given(laurent_polys)
def test_bar_is_an_involution(p):
    assert bar(bar(p)) == p


@given(laurent_polys)
def test_eval_at_one_is_bar_invariant(p):
    assert eval_at_one(bar(p)) == eval_at_one(p)


@given(st.dictionaries(st.integers(1, 6), st.integers(-9, 9), max_size=4))
def test_antisym_solve_postconditions(upper):
    d = LaurentPoly.from_pairs(
        [(k, c) for k, c in upper.items()] + [(-k, -c) for k, c in upper.items()]
    )
    c = antisym_solve(d)
    assert in_qinv_lattice(c)
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
    ]
    for x in results:
        assert 0 not in x.terms.values()
    assert p * 0 == p - p == ZERO
    assert poly((2, 3), (2, -3), (1, 4), (0, 0), (1, -4), (5, 1)).terms == {5: 1}


def test_constant_hashes_like_its_int():
    for c in (0, 1, -3):
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


def test_mul_rejects_foreign_operands():
    p = q_power(1) + q_power(-1)
    assert p * 2 == 2 * p == p + p
    for bad in (1.5, "1", None, [1]):
        assert p.__mul__(bad) is NotImplemented
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p
