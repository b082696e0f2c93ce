"""Property tests for division by (1,-1)**(n+1) and mask equivalence.

Needs hypothesis; without it the module is skipped.  Runs are
derandomized, so every run draws the same examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from refinemask import (  # noqa: E402
    Mask,
    difference_power,
    equivalence_witness,
    extend_mask,
    masks_equivalent,
    reduce_mod_difference,
)

examples = settings(derandomize=True, deadline=None, database=None)

degrees = st.integers(0, 10)
offsets = st.integers(-10 ** 3, 10 ** 3)
rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 20))


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
