"""Polynomial value type and the shift/scale/difference operators."""

import random
from fractions import Fraction as F

import pytest

from refinemask import (
    ParseError,
    Polynomial,
    SingularMatrixError,
)
from reference import identity, shifted_poly_matrix, solve_general
from util import rand_fraction, rand_poly

QUAD = Polynomial.parse("5/2,-3,1")  # 5/2 - 3t + t**2


def test_trims_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert Polynomial([0, 0]).coeffs == (F(0),)
    assert Polynomial([]) == Polynomial.zero()


def test_zero_polynomial_degree_sentinel():
    assert Polynomial.zero().degree is None
    assert Polynomial.zero().is_zero
    assert QUAD.degree == 2


def test_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Polynomial([0.5])


def test_text_round_trip():
    for text in ["5/2,-3,1", "0", "-3/2,1", "7"]:
        assert str(Polynomial.parse(text)) == text
    rng = random.Random(8)
    for _ in range(100):
        p = rand_poly(rng, rng.randint(0, 6))
        assert Polynomial.parse(str(p)) == p


@pytest.mark.parametrize("bad", ["", "1,,2", "1;2", "1, 2", "t", "1,2\n"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        Polynomial.parse(bad)


def test_eval():
    assert QUAD(0) == F(5, 2)
    assert QUAD(2) == F(1, 2)
    assert QUAD(F(1, 2)) == F(5, 2) - F(3, 2) + F(1, 4)
    assert Polynomial.zero()(17) == 0
    big_q = Polynomial.parse("0,-3/2,1/2")
    assert [big_q(-j) for j in range(4)] == [0, 2, 5, 9]


def test_translate():
    assert QUAD.translate(0) == QUAD
    assert Polynomial.parse("0,0,1").translate(1) == Polynomial.parse("1,-2,1")
    assert QUAD.translate(1) == Polynomial.parse("13/2,-5,1")
    assert QUAD.translate(2) == Polynomial.parse("25/2,-7,1")


def test_translate_matches_evaluation():
    rng = random.Random(3)
    for _ in range(50):
        p = rand_poly(rng, rng.randint(0, 5))
        i = rng.randint(-6, 6)
        t = rand_fraction(rng)
        assert p.translate(i)(t) == p(t - i)


def test_translate_composes():
    rng = random.Random(4)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(0, 5))
        i, j = rng.randint(-5, 5), rng.randint(-5, 5)
        assert p.translate(i).translate(j) == p.translate(i + j)


def test_shrink():
    assert QUAD.shrink(1) == QUAD
    assert QUAD.shrink(2) == Polynomial.parse("5/2,-6,4")
    assert QUAD.shrink(F(1, 2)) == Polynomial.parse("5/2,-3/2,1/4")


def test_shrink_composes_and_evaluates():
    rng = random.Random(6)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(0, 5))
        k1, k2 = rand_fraction(rng, 5, 5), rand_fraction(rng, 5, 5)
        t = rand_fraction(rng, 10, 10)
        assert p.shrink(k1).shrink(k2) == p.shrink(k1 * k2)
        assert p.shrink(k1)(t) == p(k1 * t)


def test_derivative_antiderivative():
    assert Polynomial.one().antiderivative() == Polynomial.parse("0,1")
    assert Polynomial.parse("-3/2,1").antiderivative() == Polynomial.parse("0,-3/2,1/2")
    assert QUAD.derivative() == Polynomial.parse("-3,2")
    assert Polynomial.one().derivative() == Polynomial.zero()
    assert Polynomial.zero().derivative() == Polynomial.zero()


def test_antiderivative_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        p = rand_poly(rng, rng.randint(0, 6))
        anti = p.antiderivative()
        assert anti.coefficient(0) == 0
        assert anti.derivative() == p


def test_finite_difference_examples():
    assert QUAD.finite_difference() == Polynomial.parse("4,-2")
    assert QUAD.finite_difference().finite_difference() == Polynomial.parse("2")
    assert Polynomial.parse("7").finite_difference() == Polynomial.zero()


def test_finite_difference_degree_drop():
    rng = random.Random(13)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(1, 6))
        assert p.finite_difference().degree == p.degree - 1
    p = rand_poly(rng, 5)
    for _ in range(6):
        p = p.finite_difference()
    assert p.is_zero


def test_monic():
    assert Polynomial.parse("1,0,2").monic() == Polynomial.parse("1/2,0,1")
    assert QUAD.monic() == QUAD
    with pytest.raises(ValueError):
        Polynomial.zero().monic()


def test_monomial():
    assert Polynomial.monomial(0) == Polynomial.one()
    assert Polynomial.monomial(2) == Polynomial.parse("0,0,1")
    assert Polynomial.monomial(1, F(1, 2)) == Polynomial.parse("0,1/2")


def test_shifted_poly_matrix_constant():
    assert shifted_poly_matrix(Polynomial.one()) == identity(1)


def test_shifted_poly_matrix_columns():
    m = shifted_poly_matrix(QUAD)
    assert [m[i, 0] for i in range(3)] == list(QUAD.coeffs)
    assert [m[i, 1] for i in range(3)] == [F(13, 2), F(-5), F(1)]
    assert [m[i, 2] for i in range(3)] == [F(25, 2), F(-7), F(1)]


def test_shifted_poly_matrix_invertible():
    rng = random.Random(17)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(0, 6))
        m = shifted_poly_matrix(p)
        b = [rand_fraction(rng) for _ in range(m.rows)]
        x = solve_general(m, b)  # no SingularMatrixError
        assert m.apply(x) == tuple(b)


def test_shifted_poly_matrix_rejects_zero():
    with pytest.raises(ValueError):
        shifted_poly_matrix(Polynomial.zero())


def test_scalar_arithmetic():
    assert 2 * QUAD == Polynomial.parse("5,-6,2")
    assert QUAD - QUAD == Polynomial.zero()
    assert -QUAD == QUAD.scale(-1)
    assert QUAD + Polynomial.zero() == QUAD
