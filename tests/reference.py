"""Slow, independent routes kept as oracles for the library code.

Most functions are a direct transcription of the refinement relation
rather than of its moment form: per-shift Taylor translates, the
derivative recursion, division by (1,-1)**(n+1) through elimination, a
cascade over Fraction matrices, dense Gaussian elimination on the
shifted-column system, and render-csv's table with one Taylor-shifted
polynomial per part.  reduce_by_moments divides through the moments, a
second oracle for the library's division through Taylor coefficients at
z = 1.  The package's Matrix is read-only, so matrices here are built
through the small helpers from_rows, from_columns and identity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from refinemask import (
    CascadeReport,
    Mask,
    Matrix,
    NotRefinableError,
    Polynomial,
    ReducedMask,
    SingularMatrixError,
    as_rational,
    difference_power,
    refined_degree,
    solve_vandermonde_dual,
)


def from_rows(rows: Sequence[Sequence]) -> Matrix:
    return Matrix(len(rows), len(rows[0]) if rows else 0, [e for r in rows for e in r])


def from_columns(cols: Sequence[Sequence]) -> Matrix:
    return from_rows(list(zip(*cols)))


def identity(n: int) -> Matrix:
    return Matrix(n, n, [int(i == j) for i in range(n) for j in range(n)])


def refine_apply(m: Mask, p: Polynomial) -> Polynomial:
    """2 * sum_j m_j * p(2t - j), summed shift by shift."""
    total = Polynomial.zero()
    for j, c in m.items():
        if c == 0:
            continue
        total = total + p.translate(j).scale(c)
    return total.shrink(2).scale(2)


def poly_from_mask(m: Mask) -> Polynomial:
    """The monic polynomial refined by m, through the derivative relation.

    The doubled mask refines the derivative, monic of degree n-1 by
    induction; its antiderivative Q fixes every coefficient of the answer
    after monic rescaling, and the constant coefficient falls out of the
    refinement relation itself:

        p_0 = 2 / (Q_n * (1 - 2**-n)) * sum_j m_j * Q(-j)
    """
    n = refined_degree(m)
    if n == 0:
        return Polynomial.one()
    q = poly_from_mask(m.scale(2))
    big_q = q.antiderivative()
    lead = big_q.coefficient(n)
    shift_sum = sum((c * big_q(-j) for j, c in m.items()), Fraction(0))
    constant = 2 / (lead * (1 - Fraction(1, 2 ** n))) * shift_sum
    coeffs = [constant] + [big_q.coefficient(k) / lead for k in range(1, n + 1)]
    return Polynomial(coeffs)


def reduce_mod_difference(m: Mask, n: int) -> ReducedMask:
    """Divide a mask by (1,-1)**(n+1) through elimination.

    Indices below 0 are cleared first, lowest first, using the divisor copy
    aligned at its leading 1; then indices above n, highest first, using the
    copy aligned at its trailing (-1)**(n+1).  Each step shrinks the
    out-of-range support, so the loop terminates.
    """
    divisor = difference_power(n + 1)
    trailing = divisor.coefficient(n + 1)
    remainder = m
    quotient = Mask.zero()
    while not remainder.is_zero and remainder.support_min < 0:
        step = Mask.delta(remainder.support_min, remainder.coeffs[0])
        quotient = quotient + step
        remainder = remainder - step.convolve(divisor)
    while not remainder.is_zero and remainder.support_max > n:
        c = remainder.coeffs[-1] / trailing
        step = Mask.delta(remainder.support_max - (n + 1), c)
        quotient = quotient + step
        remainder = remainder - step.convolve(divisor)
    return ReducedMask(remainder, quotient)


def reduce_by_moments(m: Mask, n: int) -> ReducedMask:
    """Divide a mask by (1,-1)**(n+1) through its moments.

    A multiple of (1,-1)**(n+1) is a mask whose moments mu_0..mu_n vanish,
    so the remainder is the mask on {0..n} with the moments of m (a dual
    Vandermonde solve), and the quotient is n+1 Fraction prefix sums of
    m - remainder.
    """
    weights = solve_vandermonde_dual([-j for j in range(n + 1)], m.moments(n))
    remainder = Mask(0, weights)
    quotient = m - remainder
    for _ in range(n + 1):
        quotient = Mask(quotient.offset, accumulate(quotient.coeffs))
    return ReducedMask(remainder, quotient)


def mask_from_poly_at_nodes(p: Polynomial, nodes: Sequence[int]) -> Mask:
    """The mask on the nodes refining p, by Gaussian elimination.

    p(t/2)/2 = sum_j m_j * p(t - j) is a square linear system whose
    column j holds the coefficients of p(t - j), one column per node.
    """
    system = from_columns([p.translate(j).coeffs for j in nodes])
    half = p.shrink(Fraction(1, 2))
    weights = solve_general(system, [c / 2 for c in half.coeffs])
    lo = min(nodes)
    coeffs = [Fraction(0)] * (max(nodes) - lo + 1)
    for j, w in zip(nodes, weights):
        coeffs[j - lo] = w
    return Mask(lo, coeffs)


def equivalence_witness(a: Mask, b: Mask) -> Mask | None:
    """qa - qb from reducing both masks, when their remainders agree."""
    try:
        n = refined_degree(a)
        if refined_degree(b) != n:
            return None
    except NotRefinableError:
        return None
    ra, qa = reduce_mod_difference(a, n)
    rb, qb = reduce_mod_difference(b, n)
    return qa - qb if ra == rb else None


def cascade(m: Mask, p0: Polynomial, max_iter: int, tol: Fraction) -> CascadeReport:
    """Iterate the refinement operator with Fraction arithmetic until delta < tol.

    The operator's column k is refine_apply(m, t**k), per-shift translates
    padded to degree n.
    """
    n = refined_degree(m)

    def padded(p: Polynomial) -> list:
        return list(p.coeffs) + [Fraction(0)] * (n + 1 - len(p.coeffs))

    operator = from_columns(
        [padded(refine_apply(m, Polynomial.monomial(k))) for k in range(n + 1)])
    current = tuple(padded(p0))
    delta = Fraction(0)
    for step in range(1, max_iter + 1):
        nxt = operator.apply(current)
        delta = max(abs(a - b) for a, b in zip(nxt, current))
        current = nxt
        if delta < tol:
            return CascadeReport(Polynomial(current), step, delta, True)
    return CascadeReport(Polynomial(current), max_iter, delta, False)


def solve_general(a: Matrix, b: Sequence) -> tuple:
    """Exact Gaussian elimination with row pivoting on the first nonzero.

    Brute force on purpose: this is the reference route that the
    structured solvers in the package are checked against.
    """
    if a.rows != a.cols:
        raise ValueError(f"matrix is not square: {a.rows}x{a.cols}")
    n = a.rows
    rhs = [as_rational(x) for x in b]
    if len(rhs) != n:
        raise ValueError(f"dimension mismatch: {n}x{n} system with vector[{len(rhs)}]")
    aug = [list(a.row(i)) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        for r in range(col + 1, n):
            factor = aug[r][col] / aug[col][col]
            if factor == 0:
                continue
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        acc = aug[i][n]
        for k in range(i + 1, n):
            acc -= aug[i][k] * x[k]
        x[i] = acc / aug[i][i]
    return tuple(x)


def shifted_poly_matrix(p: Polynomial) -> Matrix:
    """Square matrix whose column i holds the coefficients of p(t - i).

    Columns run i = 0..degree(p).  Every column keeps the leading
    coefficient of p, so the matrix is (n+1) x (n+1) and invertible for
    nonzero p of degree n.  The zero polynomial is rejected.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no shifted-column matrix")
    n = p.degree
    return from_columns([p.translate(i).coeffs for i in range(n + 1)])


def render_csv(m: Mask, t_min: Fraction, t_max: Fraction, samples: int) -> str:
    """The render-csv table with part j built as one Taylor-shifted
    polynomial, p.translate(j).shrink(2).scale(2 * m_j), evaluated at t."""
    p = poly_from_mask(m)
    if samples == 1:
        grid = [t_min]
    else:
        grid = [t_min + (t_max - t_min) * i / (samples - 1) for i in range(samples)]
    parts = [(j, p.translate(j).shrink(2).scale(2 * c)) for j, c in m.items()]
    lines = ["t,total," + ",".join(f"part_{j}" for j, _ in parts)]
    for t in grid:
        values = [t, p(t)] + [part(t) for _, part in parts]
        lines.append(",".join(format(float(v), ".12g") for v in values))
    return "\n".join(lines) + "\n"
