"""sympy as an independent oracle: the refinement relation solved symbolically.

For small seeded masks both directions are solved as linear systems in
sympy Rationals, sharing no code with the package.  Needs sympy; without
it the module is skipped.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from refinemask import Mask, mask_from_poly, poly_from_mask, refined_degree  # noqa: E402
from refinemask.cli import main  # noqa: E402
from util import rand_valid_mask  # noqa: E402

t = sympy.Symbol("t")


def relation(mask_items, p):
    """Coefficients in t of p(t) - 2 * sum_j m_j * p(2t - j)."""
    residual = p - 2 * sum(c * p.subs(t, 2 * t - j) for j, c in mask_items)
    return sympy.Poly(sympy.expand(residual), t).all_coeffs()


def solve_unique(equations, unknowns):
    """The one solution of a linear system, as Fractions."""
    (solution,) = sympy.linsolve(equations, unknowns)
    assert all(v.is_Rational for v in solution), "system is underdetermined"
    return [Fraction(int(v.p), int(v.q)) for v in solution]


def cases():
    rng = random.Random(211)
    for _ in range(30):
        m = rand_valid_mask(rng, max_degree=4, max_width=6)
        yield Mask(rng.randint(-5, 5), m.coeffs)


@pytest.mark.parametrize("m", list(cases()), ids=str)
def test_refinement_relation_solved_in_sympy(m, capsys):
    n = refined_degree(m)
    items = [(j, sympy.Rational(c.numerator, c.denominator)) for j, c in m.items()]

    # the monic polynomial m refines: p(t) = 2 * sum_j m_j * p(2t - j), p_n = 1
    a = sympy.symbols(f"a0:{n + 1}")
    p = sum(a[k] * t ** k for k in range(n + 1))
    coeffs = solve_unique(relation(items, p) + [a[n] - 1], a)
    poly = poly_from_mask(m)
    assert list(poly.coeffs) == coeffs

    # the mask on 0..n refining that polynomial
    w = sympy.symbols(f"w0:{n + 1}")
    p = sum(sympy.Rational(c.numerator, c.denominator) * t ** k for k, c in enumerate(coeffs))
    weights = solve_unique(relation(list(enumerate(w)), p), w)
    expected = Mask(0, weights)
    assert mask_from_poly(poly) == expected
    assert main(["reduce", "--", str(m)]) == 0
    assert capsys.readouterr().out == f"{expected}\n"
