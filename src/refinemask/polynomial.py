"""Univariate polynomials with exact rational coefficients.

Coefficients are stored in ascending order of degree.  The leading
coefficient is nonzero except for the zero polynomial, which is stored as
the single coefficient 0 and has degree ``None``.

Text format: ``c0,c1,...,cn`` (ascending), e.g. ``5/2,-3,1`` for the
polynomial 5/2 - 3t + t**2.  The zero polynomial prints as ``0``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .algebra import as_rational, parse_rational
from .exceptions import ParseError


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        raw = [as_rational(c) for c in coeffs]
        while len(raw) > 1 and raw[-1] == 0:
            raw.pop()
        if not raw:
            raw = [Fraction(0)]
        self.coeffs = tuple(raw)

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls((0,))

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "Polynomial":
        """coefficient * t**degree"""
        if degree < 0:
            raise ValueError(f"negative degree {degree}")
        return cls([Fraction(0)] * degree + [as_rational(coefficient)])

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        if not text:
            raise ParseError("empty polynomial text")
        return cls([parse_rational(tok) for tok in text.split(",")])

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return None if self.is_zero else len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __call__(self, t) -> Fraction:
        """Evaluate by Horner's rule."""
        t = as_rational(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    # ------------------------------------------------------------------
    # the operators the refinement calculus is built from

    def translate(self, i: int) -> "Polynomial":
        """Coefficients of t -> p(t - i), for integer i."""
        if not isinstance(i, int) or isinstance(i, bool):
            raise TypeError("translation amount must be an int")
        out = [Fraction(0)] * len(self.coeffs)
        shift = Fraction(-i)
        for k, pk in enumerate(self.coeffs):
            if pk == 0:
                continue
            for j in range(k + 1):
                out[j] += pk * math.comb(k, j) * shift ** (k - j)
        return Polynomial(out)

    def shrink(self, k) -> "Polynomial":
        """Coefficients of t -> p(k*t): coefficient j picks up a factor k**j."""
        k = as_rational(k)
        return Polynomial([c * k ** j for j, c in enumerate(self.coeffs)])

    def derivative(self) -> "Polynomial":
        return Polynomial([j * c for j, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """The antiderivative with constant term 0."""
        return Polynomial([Fraction(0)] + [c / (j + 1) for j, c in enumerate(self.coeffs)])

    def finite_difference(self) -> "Polynomial":
        """translate(1) - self; drops the degree by exactly one when nonconstant."""
        return self.translate(1) - self

    def monic(self) -> "Polynomial":
        """Scale so the leading coefficient is 1.  Separate, explicit step."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        return self.scale(1 / self.coeffs[-1])

    # ------------------------------------------------------------------
    # arithmetic

    def scale(self, factor) -> "Polynomial":
        factor = as_rational(factor)
        return Polynomial([factor * c for c in self.coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        size = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coefficient(k) + other.coefficient(k) for k in range(size)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # value protocol

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial.parse({str(self)!r})"
