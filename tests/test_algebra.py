"""Rational text handling and the exact matrix layer."""

import random
from fractions import Fraction as F

import pytest

from refinemask import (
    Matrix,
    ParseError,
    SingularMatrixError,
    as_rational,
    parse_rational,
    solve_upper_triangular,
    solve_vandermonde_dual,
)
from reference import from_columns, from_rows, identity, solve_general
from util import rand_fraction, rand_matrix


def test_parse_rational_values():
    assert parse_rational("5") == F(5)
    assert parse_rational("-3") == F(-3)
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-1/8") == F(-1, 8)
    assert parse_rational("2/4") == F(1, 2)  # lenient about reduction
    assert parse_rational("0") == 0


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1/-2", " 1", "1 ", "1/ 2", "a", "1e3", "+1",
                                 "1\n", "1/2\n", "\u0663", "1/\u0663",
                                 pytest.param("1" * 5000, id="5000-digits")])
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_format_parse_round_trip():
    rng = random.Random(101)
    for _ in range(200):
        q = rand_fraction(rng, 1000, 1000)
        assert parse_rational(str(q)) == q


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3])


def test_diagonal_action_on_ones():
    d = from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    assert d.apply([1, 1, 1]) == (F(1), F(2), F(4))


def test_solve_upper_triangular_identity():
    b = [F(5, 3), F(-2), F(7, 11)]
    assert solve_upper_triangular(identity(3), b) == tuple(b)


def test_solve_upper_triangular_2x2():
    u = from_rows([[1, 1], [0, 2]])
    assert solve_upper_triangular(u, [3, 4]) == (F(1), F(2))


def test_solve_upper_triangular_permuted_columns():
    # the anti-triangular system from the degree-2 running example, with its
    # columns reversed so back-substitution applies
    u = from_rows([
        [2, 4, F(5, 2)],
        [0, -2, -3],
        [0, 0, 1],
    ])
    b = [F(10, 8), F(-6, 8), F(1, 8)]
    x = solve_upper_triangular(u, b)
    assert x == (F(3, 32), F(3, 16), F(1, 8))
    assert u.apply(x) == tuple(b)
    # undoing the column reversal recovers the solution of the original system
    assert tuple(reversed(x)) == (F(4, 32), F(6, 32), F(3, 32))


def test_solve_upper_triangular_zero_diagonal():
    u = from_rows([[1, 2], [0, 0]])
    with pytest.raises(SingularMatrixError):
        solve_upper_triangular(u, [1, 1])


def test_solve_general_identity():
    b = [F(1, 7), F(2), F(-9, 4)]
    assert solve_general(identity(3), b) == tuple(b)


def test_solve_general_shifted_column_system():
    # columns are the degree-2 running example shifted by 0, 1, 2;
    # the right side is half its coefficientwise 2**-j rescale
    cols = [
        [F(5, 2), F(-3), F(1)],
        [F(13, 2), F(-5), F(1)],
        [F(25, 2), F(-7), F(1)],
    ]
    a = from_columns(cols)
    b = [F(5, 4), F(-3, 4), F(1, 8)]
    assert solve_general(a, b) == (F(1, 32), F(0), F(3, 32))


def test_solve_general_round_trip():
    rng = random.Random(23)
    done = 0
    while done < 25:
        a = rand_matrix(rng, 4, 4)
        x = tuple(rand_fraction(rng) for _ in range(4))
        try:
            solved = solve_general(a, a.apply(x))
        except SingularMatrixError:
            continue
        assert solved == x
        done += 1


def test_solve_general_singular():
    a = from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve_general(a, [1, 1])


def test_solve_vandermonde_dual_matches_general():
    rng = random.Random(31)
    for _ in range(25):
        size = rng.randint(1, 6)
        nodes = rng.sample(range(-8, 9), size)
        moments = [rand_fraction(rng) for _ in range(size)]
        v = from_rows([[F(x) ** i for x in nodes] for i in range(size)])
        assert solve_vandermonde_dual(nodes, moments) == solve_general(v, moments)
    for _ in range(25):
        size = rng.randint(1, 6)
        nodes = []
        while len(nodes) < size:
            x = rand_fraction(rng, 9, 7)
            if x not in nodes:
                nodes.append(x)
        moments = [rand_fraction(rng) for _ in range(size)]
        v = from_rows([[x ** i for x in nodes] for i in range(size)])
        assert solve_vandermonde_dual(nodes, moments) == solve_general(v, moments)


def test_solve_vandermonde_dual_repeated_node():
    with pytest.raises(SingularMatrixError):
        solve_vandermonde_dual([1, 1], [F(0), F(1)])
