"""Property tests: division by (1,-1)**(n+1), equivalence, round trips and
the eigenstructure of the refinement operator.

Needs hypothesis; without it the module is skipped.  Runs are
derandomized, so every run draws the same examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from refinemask import (  # noqa: E402
    Mask,
    Polynomial,
    RefinablePair,
    difference_power,
    equivalence_witness,
    extend_mask,
    mask_from_poly,
    mask_from_poly_at_nodes,
    masks_equivalent,
    poly_from_mask,
    reduce_mod_difference,
    refinement_matrix,
)

examples = settings(derandomize=True, deadline=None, database=None)

degrees = st.integers(0, 10)
offsets = st.integers(-10 ** 3, 10 ** 3)
rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 20))


@st.composite
def polys(draw):
    """A polynomial of degree <= 8."""
    lead = draw(rationals.filter(lambda c: c != 0))
    return Polynomial(draw(st.lists(rationals, max_size=8)) + [lead])


@st.composite
def masks(draw):
    return Mask(draw(offsets), draw(st.lists(rationals, max_size=8)))


@st.composite
def valid_masks(draw, n):
    """A mask of sum 2**-(n+1), so it refines a polynomial of degree n."""
    coeffs = draw(st.lists(rationals, min_size=1, max_size=8))
    coeffs[-1] += Fraction(1, 2 ** (n + 1)) - sum(coeffs)
    return Mask(draw(offsets), coeffs)


@examples
@given(masks(), degrees)
def test_remainder_supported_in_zero_to_n(m, n):
    remainder = reduce_mod_difference(m, n).remainder
    assert remainder.is_zero or 0 <= remainder.support_min <= remainder.support_max <= n


@examples
@given(masks(), degrees)
def test_remainder_and_quotient_rebuild_the_mask(m, n):
    remainder, quotient = reduce_mod_difference(m, n)
    assert remainder + quotient.convolve(difference_power(n + 1)) == m


@examples
@given(masks(), masks(), degrees)
def test_extending_keeps_the_remainder(m, v, n):
    assert (reduce_mod_difference(extend_mask(m, v, n), n).remainder
            == reduce_mod_difference(m, n).remainder)


@examples
@given(st.data(), degrees)
def test_witness_of_an_extension_is_its_multiplier(data, n):
    b = data.draw(valid_masks(n))
    v = data.draw(masks())
    assert equivalence_witness(extend_mask(b, v, n), b) == v


@examples
@given(st.data(), degrees, st.booleans())
def test_equivalent_exactly_when_moments_agree(data, n, extend):
    a = data.draw(valid_masks(n))
    b = extend_mask(a, data.draw(masks()), n) if extend else data.draw(valid_masks(n))
    assert masks_equivalent(a, b) == (a.moments(n) == b.moments(n))


@examples
@given(polys())
def test_mask_from_poly_round_trips_to_the_monic_polynomial(p):
    assert poly_from_mask(mask_from_poly(p)) == p.monic()


@examples
@given(st.data(), polys())
def test_node_placed_mask_reduces_to_the_mask_on_zero_to_n(data, p):
    # ties the dual Vandermonde solve to the Taylor remainder
    n = p.degree
    nodes = data.draw(st.lists(st.integers(-40, 40), min_size=n + 1, max_size=n + 1,
                               unique=True))
    assert (reduce_mod_difference(mask_from_poly_at_nodes(p, nodes), n).remainder
            == mask_from_poly(p))


@examples
@given(st.data(), degrees)
def test_operator_diagonal_is_the_eigenvalues(data, n):
    matrix = refinement_matrix(data.draw(valid_masks(n)), n)
    assert [matrix[j, j] for j in range(n + 1)] == [Fraction(2) ** (j - n) for j in range(n + 1)]


@examples
@given(st.data(), st.integers(1, 10))
def test_doubled_mask_refines_the_derivative(data, n):
    m = data.draw(valid_masks(n))
    RefinablePair(m.scale(2), poly_from_mask(m).derivative())
