"""The two-scale refinement calculus for polynomials.

A polynomial p is refined by a mask m when

    p(t) = 2 * sum_j m_j * p(2t - j)

holds identically.  Everything below is exact: conversions between masks
and the polynomials they refine, the coset of all masks refining a given
polynomial, and a cascade iteration whose iterates stay rational, so each
claim can be checked by literal equality.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .algebra import Matrix, _common_denominator, as_rational, solve_vandermonde_dual
from .exceptions import NotRefinableError
from .mask import Mask, _quotient, _taylor_remainder, _zeros, difference_power, refined_degree
from .polynomial import Polynomial


def _integer_operator(m: Mask, n: int) -> tuple:
    """The refinement operator on degree-<=n coefficients as (d, rows).

    Entry (j, k) of the operator is 2**(j+1) * C(k,j) * mu_{k-j}; here it
    is a / d with one positive denominator d, lowered by the content of
    all numerators.  Row j lists the pairs (a, k), k >= j, whose moment is
    nonzero, so the operator is upper triangular and sparse rows stay so.
    """
    sums, den = m._moment_sums(n)
    rows = [[(2 ** (j + 1) * math.comb(k, j) * sums[k - j], k)
             for k in range(j, n + 1) if sums[k - j]] for j in range(n + 1)]
    g = math.gcd(den, *(a for row in rows for a, _ in row))
    return den // g, [[(a // g, k) for a, k in row] for row in rows]


def _apply(rows: list, x: list) -> list:
    return [sum(a * x[k] for a, k in row) for row in rows]


def refine_apply(m: Mask, p: Polynomial) -> Polynomial:
    """Right-hand side of the refinement relation: 2 * sum_j m_j * p(2t - j)."""
    if p.is_zero:
        return p
    d, rows = _integer_operator(m, p.degree)
    x, e = _common_denominator(p.coeffs)
    return Polynomial(Fraction(y, d * e) for y in _apply(rows, x))


def verify_refines(m: Mask, p: Polynomial) -> bool:
    """Exact check that p is a fixed point of the refinement operator of m."""
    return refine_apply(m, p) == p


def _append(x: list, s: int, t: int, e: int) -> int:
    """Append t / (s * e), e > 0, to the vector x / s; return the new s.

    Lowered by their gcd, t and e are coprime, so (x, s) free of common factors stays so.
    """
    g = math.gcd(t, e)
    t, e = t // g, e // g
    if e > 1:
        x[:] = [a * e for a in x]
        s *= e
    x.append(t)
    return s


def poly_from_mask(m: Mask) -> Polynomial:
    """The monic polynomial refined by m.

    The mask sum fixes the degree n (it must be 2**-(n+1)), and only the
    moments mu_0..mu_n of m enter.  The answer is the fixed point of the
    upper triangular operator A / d with p_n = 1; row k of A p = d p gives,
    from the top down,

        p_k = sum_{i>k} A_ki * p_i / (d - A_kk)

    where A_kk / d = 2**(k-n) is never 1 below the top row; the solve is in integers.
    """
    n = refined_degree(m)
    d, rows = _integer_operator(m, n)
    x, s = [1], 1  # p_n, p_(n-1), ... = x / s
    for k in range(n - 1, -1, -1):
        (diag, _), *rest = rows[k]
        s = _append(x, s, sum(a * x[n - i] for a, i in rest), d - diag)
    return Polynomial(Fraction(a, s) for a in reversed(x))


def mask_from_poly(p: Polynomial) -> Mask:
    """The unique mask supported in {0..n} refining p, n = degree(p).

    Only the moments mu_0..mu_n of a mask act on p, and n+1 moments fix a
    mask on n+1 nodes, so this is mask_from_poly_at_nodes on 0..n.  The
    zero polynomial is refined by every mask and is rejected.
    """
    return mask_from_poly_at_nodes(p, range(len(p.coeffs)))


def mask_from_poly_at_nodes(p: Polynomial, nodes: Sequence[int]) -> Mask:
    """The unique mask supported on the given integer nodes refining p.

    Needs exactly degree(p)+1 distinct integers.  Row j of A p = d p,
    2**(j+1) * sum_r C(j+r, j) * mu_r * p_{j+r} = p_j, ends in mu_{n-j}
    times C(n, j) * p_n, so from the top row down it gives the moments any
    refining mask has; the answer is the mask on the nodes with them.
    """
    if p.is_zero:
        raise ValueError("zero polynomial: every mask refines it")
    n = p.degree
    pts = list(nodes)
    for x in pts:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"nodes must be integers, got {x!r}")
    if len(pts) != n + 1:
        raise ValueError(f"need {n + 1} nodes for degree {n}, got {len(pts)}")
    if len(set(pts)) != len(pts):
        raise ValueError("nodes must be distinct")
    lo = min(pts)
    out = _zeros(max(pts) - lo + 1, "nodes span")
    c, _ = _common_denominator((-p if p.coeffs[-1] < 0 else p).coeffs)  # linear in p
    mu, s = [], 1  # mu_0, mu_1, ... = mu / s
    for j in range(n, -1, -1):
        acc = sum(math.comb(j + r, j) * a * c[j + r] for r, a in enumerate(mu) if c[j + r])
        s = _append(mu, s, c[j] * s - 2 ** (j + 1) * acc, 2 ** (j + 1) * math.comb(n, j) * c[n])
    weights = solve_vandermonde_dual([-j for j in pts], [Fraction(a, s) for a in mu])
    for j, w in zip(pts, weights):
        out[j - lo] = w
    return Mask(lo, out)


# ----------------------------------------------------------------------
# result records


class _Record:
    """An immutable record of the fields named in __slots__, like a frozen dataclass.

    __init__ takes the fields in order, positionally or by name.  Records
    are equal when they are of one class with equal fields; hash, repr,
    copy, pickle and positional match patterns go by the fields.
    Assigning or deleting any attribute raises AttributeError.
    """

    __slots__ = ()
    __match_args__ = ()  # the field names in order, inherited ones first

    def __init_subclass__(cls) -> None:
        cls.__match_args__ += cls.__dict__.get("__slots__", ())

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ----------------------------------------------------------------------
# the admissible integration constant


class IntegrationConstant(_Record):
    """Outcome of asking which constant makes an antiderivative refinable.

    kind is a Kind; value is set only for the unique case.
    """

    __slots__ = ("kind", "value")

    class Kind(str, Enum):
        UNIQUE = "unique"
        ARBITRARY = "arbitrary"
        NONE = "none"

    kind: Kind
    value: Fraction | None

    def __init__(self, kind: str, value: Fraction | None = None) -> None:
        super().__init__(self.Kind(kind), value)

    @classmethod
    def unique(cls, value) -> "IntegrationConstant":
        return cls(cls.Kind.UNIQUE, as_rational(value))

    @classmethod
    def arbitrary(cls) -> "IntegrationConstant":
        return cls(cls.Kind.ARBITRARY)

    @classmethod
    def none(cls) -> "IntegrationConstant":
        return cls(cls.Kind.NONE)

    @property
    def is_unique(self) -> bool:
        return self.kind is self.Kind.UNIQUE

    @property
    def is_arbitrary(self) -> bool:
        return self.kind is self.Kind.ARBITRARY


def antiderivative_constant(m: Mask, phi: Polynomial) -> IntegrationConstant:
    """The constant c for which antiderivative(phi) + c is refined by m/2.

    With s = sum of m and F the antiderivative of phi (constant term 0),
    the refinement relation for F + c collapses to

        c * (1 - s) = sum_j m_j * F(-j) = sum_i F_i * mu_i.

    s != 1 gives a unique c.  s = 1 leaves c free when the right side
    vanishes and admits no c otherwise; those two branches are decided by
    the equation alone, since no nonzero polynomial is refined by a mask
    of sum 1.  For s != 1 the pair (m, phi) must itself be refinable.
    """
    s = m.sum()
    big_f = phi.antiderivative()
    mu = m.moments(len(big_f.coeffs) - 1)
    shift_sum = sum((f * u for f, u in zip(big_f.coeffs, mu)), Fraction(0))
    if s == 1:
        if shift_sum == 0:
            return IntegrationConstant.arbitrary()
        return IntegrationConstant.none()
    if not verify_refines(m, phi):
        raise NotRefinableError("mask does not refine the given polynomial")
    return IntegrationConstant.unique(shift_sum / (1 - s))


# ----------------------------------------------------------------------
# verified pairs


class RefinablePair(_Record):
    """A mask and a nonzero polynomial, checked to refine at construction."""

    __slots__ = ("mask", "poly")
    mask: Mask
    poly: Polynomial

    def __init__(self, mask: Mask, poly: Polynomial) -> None:
        if poly.is_zero:
            raise NotRefinableError("zero polynomial is refined by every mask")
        if not verify_refines(mask, poly):
            raise NotRefinableError(f"mask {mask} does not refine polynomial {poly}")
        super().__init__(mask, poly)

    def derivative(self) -> "RefinablePair":
        """Differentiate the polynomial; the mask doubles."""
        if self.poly.degree == 0:
            raise ValueError("constant polynomial: the derivative pair degenerates")
        return RefinablePair(self.mask.scale(2), self.poly.derivative())

    def antiderivative(self) -> "RefinablePair":
        """Integrate the polynomial; the mask halves.

        The integration constant comes from antiderivative_constant; when
        it is arbitrary the choice made here is 0.
        """
        choice = antiderivative_constant(self.mask, self.poly)
        if choice.kind is IntegrationConstant.Kind.NONE:
            raise NotRefinableError("no integration constant makes the pair refinable")
        c = choice.value if choice.is_unique else Fraction(0)
        shifted = self.poly.antiderivative() + Polynomial((c,))
        return RefinablePair(self.mask.scale(Fraction(1, 2)), shifted)


# ----------------------------------------------------------------------
# the coset of all masks refining one polynomial


def extend_mask(m: Mask, v: Mask, n: int) -> Mask:
    """m + v * (1,-1)**(n+1): stays in the same refining class mod degree n."""
    if n < 0:
        raise ValueError(f"target degree must be nonnegative, got {n}")
    return m + v.convolve(difference_power(n + 1))


def _same_class(a: Mask, b: Mask) -> tuple | None:
    """n and a, b as (nums, den) when both refine one degree-n polynomial, else None."""
    try:
        n = refined_degree(a)
        if refined_degree(b) != n:
            return None
    except NotRefinableError:
        return None
    ra, na, da = _taylor_remainder(a, n)
    rb, nb, db = _taylor_remainder(b, n)
    same = len(ra) == len(rb) and all(x * db == y * da for x, y in zip(ra, rb))
    return (n, (na, da), (nb, db)) if same else None


def equivalence_witness(a: Mask, b: Mask) -> Mask | None:
    """A mask v with a == b + v*(1,-1)**(n+1), or None when there is none.

    Exists exactly when both masks refine one polynomial of degree n, that
    is when their remainders modulo (1,-1)**(n+1) agree.  Then v is the
    quotient of a - b, as integers over the lcm of their denominators.
    """
    same = _same_class(a, b)
    if same is None:
        return None
    n, (na, da), (nb, db) = same
    den = math.lcm(da, db)
    return _quotient(n, min(a.offset, b.offset), max(a.support_max, b.support_max), den,
                     (a.offset, [x * (den // da) for x in na]),
                     (b.offset, [-y * (den // db) for y in nb]))


def masks_equivalent(a: Mask, b: Mask) -> bool:
    """Do a and b refine the same polynomial (same degree, same class)?"""
    return _same_class(a, b) is not None


# ----------------------------------------------------------------------
# the refinement operator as a matrix, and the cascade iteration


def refinement_matrix(m: Mask, n: int) -> Matrix:
    """Matrix of p -> 2 * sum_j m_j * p(2t - j) on degree-<=n coefficients.

    Upper triangular; diagonal entry j equals 2**(j+1) times the mask sum,
    so a mask of sum 2**-(n+1) puts the eigenvalues at 2**-n, ..., 1/2, 1.
    """
    if n < 0:
        raise ValueError(f"degree bound must be nonnegative, got {n}")
    d, rows = _integer_operator(m, n)
    entries = [Fraction(0)] * (n + 1) ** 2
    for j, row in enumerate(rows):
        for a, k in row:
            entries[j * (n + 1) + k] = Fraction(a, d)
    return Matrix(n + 1, n + 1, entries)


class CascadeReport(_Record):
    """Result of a cascade run.

    final_delta is the sup-norm coefficient change of the last step taken;
    converged records whether that change dropped below the tolerance
    within the iteration budget.
    """

    __slots__ = ("result", "iterations", "final_delta", "converged")
    result: Polynomial
    iterations: int
    final_delta: Fraction
    converged: bool


def cascade(m: Mask, p0: Polynomial, max_iter: int = 200,
            tol=Fraction(1, 2 ** 40)) -> CascadeReport:
    """Iterate the refinement operator from p0 until the step size is < tol.

    All iterates are exact rationals.  The operator fixes the top
    coefficient, and every other eigenvalue has modulus <= 1/2, so for a
    start with a nonzero top coefficient the iterates close in on the
    refined polynomial at a factor-of-two rate.  A start polynomial of
    degree above the mask's refined degree is rejected; lower-degree
    starts are padded (they can only sink toward zero).

    With the operator as A / d, iterate k is x / s for the integer vector
    x = A**k * x0 and s = s0 * d**k, so each step is integer arithmetic
    and the stopping test compares integers.
    """
    n = refined_degree(m)
    tol = as_rational(tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")
    if p0.degree is not None and p0.degree > n:
        raise ValueError(f"start polynomial degree {p0.degree} exceeds mask degree {n}")
    d, rows = _integer_operator(m, n)
    x, s = _common_denominator(p0.coeffs + (Fraction(0),) * (n + 1 - len(p0.coeffs)))
    for step in range(1, max_iter + 1):
        y = _apply(rows, x)
        diff = max(abs(b - d * a) for a, b in zip(x, y))
        x, s = y, s * d
        converged = diff * tol.denominator < tol.numerator * s
        if converged:
            break
    return CascadeReport(Polynomial(Fraction(a, s) for a in x), step,
                         Fraction(diff, s), converged)
