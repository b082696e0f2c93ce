"""Exact rational scalars, the solvers over them, and ``Matrix``.

Everything here is exact, ``fractions.Fraction`` or integers over one
denominator; nothing is ever rounded.  ``Matrix`` is the read-only result
type of ``refinement_matrix``.  The solvers take O(n**2) exact steps on
numbers that grow with n, Stirling-sized in the dual Vandermonde solve.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .exceptions import ParseError, SingularMatrixError

_INT_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction, rejecting floats and other inexact types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _common_denominator(values: Sequence[Fraction]) -> tuple:
    """Rationals as (numerators, den) over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _parse_int(text: str) -> int:
    """Parse a decimal integer of ASCII digits with an optional minus sign."""
    if _INT_RE.fullmatch(text) is None:
        raise ParseError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # more digits than the interpreter converts
        raise ParseError(str(exc)) from None


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` with a positive denominator.

    Input need not be reduced; the result always is.  Whitespace,
    non-ASCII digits and decimal notation are rejected.
    """
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ParseError(f"not a rational: {text!r}")
    num, den = match.groups()
    return Fraction(_parse_int(num), _parse_int(den) if den else 1)


class Matrix:
    """Read-only dense matrix with Fraction entries, stored row-major.

    Read through ``m[i, j]``, ``row(i)`` and ``apply(v)``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(as_rational(e) for e in entries)
        if len(self.entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(self.entries)}"
            )

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product, returned as a tuple of Fractions."""
        vec = [as_rational(v) for v in vector]
        if len(vec) != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} @ vector[{len(vec)}]")
        return tuple(
            sum((a * v for a, v in zip(self.row(i), vec)), Fraction(0))
            for i in range(self.rows)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def solve_upper_triangular(u: Matrix, b: Sequence) -> tuple:
    """Back-substitution for an upper triangular system u @ x = b.

    Entries below the diagonal are ignored; the caller is responsible for
    passing a genuinely triangular matrix (permuting columns first when the
    original system is anti-triangular).  A zero on the diagonal raises
    SingularMatrixError.
    """
    if u.rows != u.cols:
        raise ValueError(f"matrix is not square: {u.rows}x{u.cols}")
    n = u.rows
    rhs = [as_rational(x) for x in b]
    if len(rhs) != n:
        raise ValueError(f"dimension mismatch: {n}x{n} system with vector[{len(rhs)}]")
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        pivot = u[i, i]
        if pivot == 0:
            raise SingularMatrixError(f"zero diagonal entry at row {i}")
        acc = rhs[i]
        for k in range(i + 1, n):
            acc -= u[i, k] * x[k]
        x[i] = acc / pivot
    return tuple(x)


def solve_vandermonde_dual(nodes: Sequence, moments: Sequence) -> tuple:
    """Solve the dual Vandermonde system sum_j nodes[j]**i * w[j] = moments[i].

    Works through the Lagrange basis for the nodes: w[j] is the moment
    functional applied to the j-th basis polynomial, whose coefficients are
    obtained exactly by deflating the master product polynomial.  Distinct
    nodes are required.  With integer nodes and the moments over one
    denominator, everything before the final weights is integer arithmetic.
    """
    xs = [x if isinstance(x, int) else as_rational(x) for x in nodes]
    ms, den = _common_denominator([as_rational(m) for m in moments])
    n = len(xs)
    if len(ms) != n:
        raise ValueError(f"dimension mismatch: {n} nodes with vector[{len(ms)}]")
    if len(set(xs)) != n:
        raise SingularMatrixError("repeated node")
    # master(x) = prod (x - x_k), coefficients ascending
    master = [1]
    for x in xs:
        master = [0] + master
        for i in range(len(master) - 1):
            master[i] -= x * master[i + 1]
    weights = []
    for xj in xs:
        # deflate by (x - xj): synthetic division, remainder is zero
        q = [0] * n
        q[n - 1] = master[n]
        for i in range(n - 1, 0, -1):
            q[i - 1] = master[i] + xj * q[i]
        denom = 0
        power = 1
        for c in q:
            denom += c * power
            power *= xj
        weights.append(Fraction(sum(c * m for c, m in zip(q, ms)), denom * den))
    return tuple(weights)
