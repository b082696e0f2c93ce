"""Mask storage, arithmetic, and division by powers of (1,-1)."""

import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from refinemask import (
    Mask,
    NotRefinableError,
    ParseError,
    difference_power,
    reduce_mod_difference,
    refined_degree,
)
import reference
from util import rand_fraction, rand_mask, rand_valid_mask

BSPLINE = Mask.parse("0:1/64,3/64,3/64,1/64")


# ----------------------------------------------------------------------
# canonical storage and text


def test_trims_to_canonical_form():
    m = Mask(-2, [0, 0, F(1, 2), 0, F(3), 0, 0])
    assert m.offset == 0
    assert m.coeffs == (F(1, 2), 0, F(3))


def test_zero_mask():
    assert Mask(5, [0, 0]) == Mask.zero()
    assert Mask.zero().is_zero
    assert Mask.zero().offset == 0
    assert Mask.zero().coeffs == ()
    assert Mask.zero().support_min is None
    assert Mask.zero().sum() == 0


def test_offset_must_be_int():
    with pytest.raises(TypeError):
        Mask("0", [1])
    with pytest.raises(TypeError):
        Mask(True, [1])


def test_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Mask(0, [0.5])


def test_text_round_trip_examples():
    for text in ["0:1/64,3/64,3/64,1/64", "-2:1,0,-1/3", "3:7", "0:0"]:
        assert str(Mask.parse(text)) == text


def test_parse_normalizes():
    assert Mask.parse("1:0,1/2,0") == Mask.delta(2, F(1, 2))
    assert Mask.parse("0:0,0") == Mask.zero()


@pytest.mark.parametrize("bad", ["", "1,2,3", "0:", "0:1;2", "x:1", "0:1/0", "0: 1", "0:1.5",
                                 "0:1\n", "\u0663:1/2",
                                 pytest.param("0:" + "1" * 5000, id="5000-digits")])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        Mask.parse(bad)


def test_text_round_trip_random():
    rng = random.Random(42)
    for _ in range(100):
        m = rand_mask(rng)
        assert Mask.parse(str(m)) == m


def test_coefficient_lookup():
    assert BSPLINE.coefficient(0) == F(1, 64)
    assert BSPLINE.coefficient(3) == F(1, 64)
    assert BSPLINE.coefficient(-1) == 0
    assert BSPLINE.coefficient(4) == 0
    assert list(BSPLINE.items()) == [(j, BSPLINE.coefficient(j)) for j in range(4)]


# ----------------------------------------------------------------------
# sums and the refined degree


def test_sum_examples():
    assert Mask.parse("0:1/8,3/8,3/8,1/8").sum() == 1
    assert BSPLINE.sum() == F(1, 8)


def test_refined_degree():
    assert refined_degree(Mask.parse("0:1/16,3/16,3/16,1/16")) == 0
    assert refined_degree(Mask.parse("0:1/32,3/32,3/32,1/32")) == 1
    assert refined_degree(BSPLINE) == 2
    assert refined_degree(Mask.delta(0, F(1, 4))) == 1


@pytest.mark.parametrize("text", ["0:1/8,3/8,3/8,1/8", "0:3/8", "0:-1/4", "0:2", "0:1/3"])
def test_refined_degree_rejects_bad_sums(text):
    with pytest.raises(NotRefinableError):
        refined_degree(Mask.parse(text))


def test_refined_degree_rejects_zero_mask():
    with pytest.raises(NotRefinableError):
        refined_degree(Mask.zero())


# ----------------------------------------------------------------------
# arithmetic


def test_convolve_with_delta():
    assert BSPLINE.convolve(Mask.delta(0)) == BSPLINE
    assert BSPLINE.convolve(Mask.delta(2)) == BSPLINE.translate(2)


def test_convolve_difference():
    step = Mask(0, [1, -1])
    assert step.convolve(step) == Mask(0, [1, -2, 1])
    assert step.convolve(step).convolve(step) == Mask(0, [1, -3, 3, -1])


def test_convolve_offsets_add():
    a = Mask(-1, [1, 2])
    b = Mask(3, [1, 1])
    assert a.convolve(b) == Mask(2, [1, 3, 2])


def test_convolve_zero():
    assert BSPLINE.convolve(Mask.zero()) == Mask.zero()


def test_convolve_properties_random():
    rng = random.Random(9)
    for _ in range(50):
        a, b, c = rand_mask(rng), rand_mask(rng), rand_mask(rng)
        assert a.convolve(b) == b.convolve(a)
        assert a.convolve(b).convolve(c) == a.convolve(b.convolve(c))
        assert a.convolve(b).sum() == a.sum() * b.sum()


def test_add_scale_translate():
    assert BSPLINE + Mask.zero() == BSPLINE
    assert BSPLINE.scale(2) == Mask.parse("0:1/32,3/32,3/32,1/32")
    assert 2 * BSPLINE == BSPLINE.scale(2)
    assert BSPLINE * F(1, 2) == BSPLINE.scale(F(1, 2))
    assert BSPLINE.translate(-3) == Mask.parse("-3:1/64,3/64,3/64,1/64")
    assert BSPLINE - BSPLINE == Mask.zero()


def test_add_cancellation_stays_canonical():
    a = Mask(0, [1, 2, 3])
    b = Mask(0, [-1, 5, -3])
    assert a + b == Mask.delta(1, 7)


def test_mask_product_operator_is_convolution():
    assert BSPLINE * Mask.delta(1) == BSPLINE.translate(1)


# ----------------------------------------------------------------------
# powers of (1,-1) and reduction


def test_difference_power_small():
    assert difference_power(0) == Mask.delta(0)
    assert difference_power(1) == Mask(0, [1, -1])
    assert difference_power(2) == Mask(0, [1, -2, 1])
    assert difference_power(3) == Mask(0, [1, -3, 3, -1])


def test_difference_power_negative():
    with pytest.raises(ValueError):
        difference_power(-1)


def test_difference_power_matches_iterated_convolution():
    step = Mask(0, [1, -1])
    acc = Mask.delta(0)
    for n in range(8):
        assert difference_power(n) == acc
        acc = acc.convolve(step)


def test_reduce_degree_two_example():
    remainder, quotient = reduce_mod_difference(BSPLINE, 2)
    assert remainder == Mask.parse("0:1/32,0,3/32")
    assert quotient == Mask.delta(0, F(-1, 64))


def test_reduce_degree_one_example():
    m = Mask.parse("0:1/32,3/32,3/32,1/32")
    remainder, quotient = reduce_mod_difference(m, 1)
    assert remainder == Mask.parse("0:-1/8,3/8")
    assert remainder + quotient.convolve(difference_power(2)) == m


def test_reduce_already_reduced():
    m = Mask.parse("0:1/32,0,3/32")
    assert reduce_mod_difference(m, 2) == (m, Mask.zero())


def test_reduce_negative_target():
    with pytest.raises(ValueError):
        reduce_mod_difference(BSPLINE, -1)


def test_reduce_reconstruction_random():
    rng = random.Random(77)
    for _ in range(100):
        m = rand_mask(rng, max_width=8)
        n = rng.randint(0, 4)
        remainder, quotient = reduce_mod_difference(m, n)
        assert remainder + quotient.convolve(difference_power(n + 1)) == m
        if not remainder.is_zero:
            assert remainder.support_min >= 0
            assert remainder.support_max <= n


def test_reduce_matches_moment_route_far_from_origin():
    rng = random.Random(79)
    for _ in range(150):
        m = rand_mask(rng, max_width=12).translate(rng.randint(-1000, 1000))
        n = rng.randint(0, 10)
        assert reduce_mod_difference(m, n) == reference.reduce_by_moments(m, n)


def test_reduce_sparse_wide_mask():
    # width 10**4, a few nonzero entries: remainder and quotient rebuild it
    rng = random.Random(83)
    coeffs = [F(0)] * 10 ** 4
    for j in [0, 10 ** 4 - 1] + rng.sample(range(10 ** 4), 20):
        coeffs[j] = rand_fraction(rng, 20, 20, nonzero=True)
    m = Mask(-123, coeffs)
    for n in (0, 4, 9):
        remainder, quotient = reduce_mod_difference(m, n)
        assert remainder.is_zero or 0 <= remainder.support_min <= remainder.support_max <= n
        assert remainder + quotient.convolve(difference_power(n + 1)) == m


def test_reduce_deep_degree_returns_at_once():
    # n = 1199 on one coefficient: the Taylor sums stop after c_0, so the
    # remainder is the mask itself; a 10 s timeout in a child process
    # catches a route whose cost grows with n
    script = ("from refinemask import Mask, reduce_mod_difference\n"
              "m = Mask.parse(f'0:1/{2 ** 1200}')\n"
              "print(*reduce_mod_difference(m, 1199), sep='\\n')\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"0:1/{2 ** 1200}\n0:0\n", "")


def test_canonical_after_ops_random():
    rng = random.Random(5)
    for _ in range(50):
        m = rand_valid_mask(rng)
        for candidate in [m + rand_mask(rng), m.convolve(rand_mask(rng)), m.scale(0)]:
            if not candidate.is_zero:
                assert candidate.coeffs[0] != 0
                assert candidate.coeffs[-1] != 0
            else:
                assert candidate.offset == 0
