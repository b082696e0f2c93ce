"""Memory gates: the tracemalloc peak of a route at n and 2n, stdlib only.

Peaks under tracemalloc do not depend on the host's speed, and after one
warm call they repeat to the KiB across processes, so a bound on them
catches a route that starts storing more than it needs.  The inputs are
monic polynomials with coefficients a/b, |a|, b <= 100, drawn in turn for
n = 16, 32, 64, 128 from random.Random(5), and the masks mask_from_poly
builds for them.
"""

import random
import tracemalloc
from fractions import Fraction as F

import pytest

from refinemask import Polynomial, mask_from_poly, poly_from_mask, refine_apply

MIB = 2 ** 20


def _pairs():
    rng = random.Random(5)
    out = {}
    for n in (16, 32, 64, 128):
        p = Polynomial([F(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(n)] + [F(1)])
        out[n] = mask_from_poly(p), p
    return out


PAIRS = _pairs()


def peak(f, *args) -> int:
    """Bytes at the tracemalloc peak of f(*args), after one warm call."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("route", [
    lambda m, p: poly_from_mask(m),
    lambda m, p: refine_apply(m, p),
], ids=["poly_from_mask", "refine_apply"])
def test_walked_routes_hold_no_operator(route):
    # a stored operator is n**2/2 big integers: 9.4 MiB at n = 128, and
    # 8x per doubling; the row walk holds the moment sums and the answer
    small, large = (peak(route, *PAIRS[n]) for n in (64, 128))
    assert large <= MIB
    assert large <= 5 * small
