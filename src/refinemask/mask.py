"""Finitely supported rational coefficient sequences over the integers.

A mask is the coefficient sequence of a two-scale relation.  Storage is
canonical: ``coeffs`` never starts or ends with a zero, and the zero mask
is the empty sequence at offset 0.

Text format: ``offset:c0,c1,...`` with each coefficient an integer or
``num/den``, for example ``0:1/64,3/64,3/64,1/64``.  The zero mask prints
as ``0:0``.  No whitespace anywhere.  Printed text re-parses to an equal
value.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate

from .algebra import _common_denominator, _parse_int, as_rational, parse_rational
from .exceptions import NotRefinableError, ParseError

_MASK_RE = re.compile(r"(-?[0-9]+):(.+)")


class Mask:
    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int, coeffs: Iterable) -> None:
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise TypeError(f"offset must be an int, got {type(offset).__name__}")
        raw = [as_rational(c) for c in coeffs]
        first = next((i for i, c in enumerate(raw) if c != 0), None)
        if first is None:
            self.offset = 0
            self.coeffs = ()
        else:
            last = max(i for i, c in enumerate(raw) if c != 0)
            self.offset = offset + first
            self.coeffs = tuple(raw[first:last + 1])

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def zero(cls) -> "Mask":
        return cls(0, ())

    @classmethod
    def delta(cls, index: int, value=1) -> "Mask":
        """The mask value*delta_index, a single coefficient."""
        return cls(index, (as_rational(value),))

    @classmethod
    def parse(cls, text: str) -> "Mask":
        match = _MASK_RE.fullmatch(text)
        if match is None:
            raise ParseError(f"not a mask: {text!r}")
        offset, body = match.groups()
        return cls(_parse_int(offset), [parse_rational(tok) for tok in body.split(",")])

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support_min(self) -> int | None:
        return None if self.is_zero else self.offset

    @property
    def support_max(self) -> int | None:
        return None if self.is_zero else self.offset + len(self.coeffs) - 1

    def coefficient(self, index: int) -> Fraction:
        """Coefficient at an absolute index, zero outside the stored range."""
        k = index - self.offset
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """(index, coefficient) pairs over the stored range, in index order."""
        return iter(enumerate(self.coeffs, start=self.offset))

    def sum(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))

    def moments(self, k: int) -> tuple:
        """The moments mu_r = sum_j m_j * (-j)**r for r = 0..k, in O(width * k).

        The refinement relation sees a mask only through these numbers: on
        polynomials of degree <= n it depends on mu_0..mu_n alone, and a
        mask is a multiple of (1,-1)**(n+1) exactly when mu_0..mu_n vanish.
        """
        sums, den = self._moment_sums(k)
        return tuple(Fraction(s, den) for s in sums)

    def _moment_sums(self, k: int) -> tuple:
        """The moments as integers over one positive denominator: (sums, den)."""
        if k < 0:
            raise ValueError(f"moment order must be nonnegative, got {k}")
        nums, den = _common_denominator(self.coeffs)
        sums = [0] * (k + 1)
        for j, term in enumerate(nums, start=self.offset):
            for r in range(k + 1):
                if not term:
                    break
                sums[r] += term
                term *= -j
        return sums, den

    # ------------------------------------------------------------------
    # arithmetic

    def translate(self, k: int) -> "Mask":
        """Shift every index by k."""
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError("translation amount must be an int")
        if self.is_zero:
            return self
        return Mask(self.offset + k, self.coeffs)

    def scale(self, factor) -> "Mask":
        factor = as_rational(factor)
        return Mask(self.offset, [factor * c for c in self.coeffs])

    def convolve(self, other: "Mask") -> "Mask":
        """Discrete convolution: result_k = sum_j self_j * other_(k-j)."""
        if self.is_zero or other.is_zero:
            return Mask.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Mask(self.offset + other.offset, out)

    def __add__(self, other: "Mask") -> "Mask":
        if not isinstance(other, Mask):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.support_max, other.support_max)
        out = [self.coefficient(i) + other.coefficient(i) for i in range(lo, hi + 1)]
        return Mask(lo, out)

    def __sub__(self, other: "Mask") -> "Mask":
        if not isinstance(other, Mask):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self) -> "Mask":
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, Mask):
            return self.convolve(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # ------------------------------------------------------------------
    # value protocol

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mask):
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.offset, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0:0"
        return f"{self.offset}:{','.join(str(c) for c in self.coeffs)}"

    def __repr__(self) -> str:
        return f"Mask.parse({str(self)!r})"


def refined_degree(m: Mask) -> int:
    """Degree of the polynomial a mask can refine, read off its sum.

    The coefficient sum must be 2**-(n+1) for some n >= 0; that n is
    returned.  Any other sum raises NotRefinableError.
    """
    s = m.sum()
    den = s.denominator
    if s.numerator != 1 or den < 2 or den & (den - 1):
        raise NotRefinableError(f"mask does not refine a polynomial (sum {s})")
    return den.bit_length() - 2


def difference_power(n: int) -> Mask:
    """The n-th convolution power of (1, -1) at offset 0.

    Coefficients are binomial with alternating signs; n = 0 gives the
    unit delta.
    """
    if n < 0:
        raise ValueError(f"negative power {n}")
    return Mask(0, [Fraction((-1) ** k * math.comb(n, k)) for k in range(n + 1)])


def _zeros(width: int, what: str) -> list:
    """A dense list of width zeros; a width too large to allocate is a ValueError."""
    try:
        return [0] * width
    except (OverflowError, MemoryError):
        raise ValueError(f"{what} {width} indices, too wide for a dense mask") from None


def _quotient(n: int, lo: int, hi: int, den: int, *parts) -> Mask:
    """f / (1,-1)**(n+1) for an f known to be divisible by it.

    f is supported in lo..hi and is the sum of parts, each (offset,
    integer numerators) over den.  Dividing by (1,-1) is a prefix sum; the
    last n+1 entries of the (n+1)-fold sum are zero, so only the first
    hi - lo - n entries of f enter.
    """
    out = _zeros(hi - lo - n, "quotient spans")
    for start, nums in parts:
        for i, a in enumerate(nums[:max(0, len(out) - (start - lo))], start - lo):
            out[i] += a
    for _ in range(n + 1):
        out = list(accumulate(out))
    return _mask_over(lo, out, den)


def _mask_over(offset: int, nums: list, den: int) -> Mask:
    zero = Fraction(0)
    return Mask(offset, [Fraction(a, den) if a else zero for a in nums])


def _taylor_remainder(m: Mask, n: int) -> tuple:
    """m modulo (1,-1)**(n+1) as (remainder, nums, den), integers over den.

    m_j = nums[j - offset] / den.  In the symbol m(z) = sum_j m_j * z**j the
    divisor is (1 - z)**(n+1), so the remainder, on 0..n with a nonzero last
    entry, is the Taylor polynomial of m at z = 1: r(z) = sum_k c_k * (z - 1)**k,
    c_k = sum_j m_j * C(j, k), by Horner.  C(j, k+1) = C(j, k) * (j - k) / (k + 1)
    is exact for negative j too and stops at the first zero.
    """
    nums, den = _common_denominator(m.coeffs)
    sums = [0] * (n + 1)
    for j, term in enumerate(nums, start=m.offset):
        for k in range(n + 1):
            if not term:
                break
            sums[k] += term
            term = term * (j - k) // (k + 1)
    top = max((k for k, c in enumerate(sums) if c), default=-1)
    rem = []
    for c in reversed(sums[:top + 1]):  # rem <- rem * (z - 1) + c
        rem = [a - b for a, b in zip([c] + rem, rem + [0])]
    return rem, nums, den


class ReducedMask(namedtuple("ReducedMask", "remainder quotient")):
    """The (remainder, quotient) pair of reduce_mod_difference, a tuple."""

    __slots__ = ()
    remainder: Mask
    quotient: Mask


def reduce_mod_difference(m: Mask, n: int) -> ReducedMask:
    """Divide a mask by (1,-1)**(n+1), keeping the remainder in {0..n}.

    Returns (remainder, quotient) with remainder supported inside
    {0, ..., n} and m == remainder + quotient * difference_power(n+1).
    The remainder with that support is unique, so it canonically
    represents the class of m modulo multiples of (1,-1)**(n+1).
    """
    if n < 0:
        raise ValueError(f"target degree must be nonnegative, got {n}")
    if m.is_zero:
        return ReducedMask(Mask.zero(), Mask.zero())
    rem, nums, den = _taylor_remainder(m, n)
    quotient = _quotient(n, min(m.offset, 0), max(m.support_max, n), den, (m.offset, nums),
                         (0, [-a for a in rem]))
    return ReducedMask(_mask_over(0, rem, den), quotient)
