"""Conversions, the mask coset, the operator matrix, and the cascade."""

import random
from fractions import Fraction as F

import pytest

from refinemask import (
    CascadeReport,
    IntegrationConstant,
    Mask,
    NotRefinableError,
    Polynomial,
    ReducedMask,
    RefinablePair,
    antiderivative_constant,
    cascade,
    difference_power,
    equivalence_witness,
    extend_mask,
    mask_from_poly,
    mask_from_poly_at_nodes,
    masks_equivalent,
    poly_from_mask,
    reduce_mod_difference,
    refine_apply,
    refined_degree,
    refinement_matrix,
    verify_refines,
)
import reference
from util import rand_fraction, rand_mask, rand_monic_poly, rand_poly, rand_valid_mask

BSPLINE = Mask.parse("0:1/64,3/64,3/64,1/64")
QUAD = Polynomial.parse("5/2,-3,1")
INTRO_MASK = Mask.parse("0:3/8,-3/8,1/8")
INTRO_POLY = Polynomial.parse("1,2,1")


def padded(p: Polynomial, size: int) -> list:
    return list(p.coeffs) + [F(0)] * (size - len(p.coeffs))


# ----------------------------------------------------------------------
# the refinement relation itself


def test_refine_apply_fixed_points():
    assert refine_apply(INTRO_MASK, INTRO_POLY) == INTRO_POLY
    assert refine_apply(BSPLINE, QUAD) == QUAD


def test_refine_apply_zero_mask():
    assert refine_apply(Mask.zero(), QUAD) == Polynomial.zero()


def test_refine_apply_not_fixed():
    t = Polynomial.parse("0,1")
    result = refine_apply(Mask.parse("0:1/16,3/16,3/16,1/16"), t)
    assert result == Polynomial.parse("-3/2,2")
    assert result != t


def test_verify_refines():
    assert verify_refines(INTRO_MASK, INTRO_POLY)
    assert verify_refines(BSPLINE, QUAD)
    assert not verify_refines(Mask.parse("0:1/16,3/16,3/16,1/16"), Polynomial.parse("0,1"))


def test_verify_refines_zero_polynomial():
    # the zero polynomial is a fixed point for every mask
    assert verify_refines(BSPLINE, Polynomial.zero())
    assert verify_refines(Mask.delta(3, F(9)), Polynomial.zero())


def test_moment_routes_match_reference():
    # the moment kernel against the derivative recursion, elimination and
    # per-shift Taylor translates, on wide masks far from the origin
    rng = random.Random(139)
    for _ in range(60):
        m = rand_valid_mask(rng, max_degree=8, max_width=40).translate(rng.randint(-20, 20))
        n = refined_degree(m)
        assert poly_from_mask(m) == reference.poly_from_mask(m)
        assert reduce_mod_difference(m, n) == reference.reduce_mod_difference(m, n)
    for _ in range(60):
        m = rand_mask(rng, max_width=40).translate(rng.randint(-20, 20))
        n = rng.randint(0, 8)
        p = rand_poly(rng, n)
        assert reduce_mod_difference(m, n) == reference.reduce_mod_difference(m, n)
        assert refine_apply(m, p) == reference.refine_apply(m, p)
        operator = refinement_matrix(m, n)
        for k in range(n + 1):
            image = reference.refine_apply(m, Polynomial.monomial(k))
            assert [operator[i, k] for i in range(n + 1)] == padded(image, n + 1)
    for _ in range(60):
        p = rand_poly(rng, rng.randint(0, 8))
        nodes = rng.sample(range(-30, 31), p.degree + 1)
        assert mask_from_poly_at_nodes(p, nodes) == reference.mask_from_poly_at_nodes(p, nodes)
    for _ in range(60):
        b = rand_valid_mask(rng, max_degree=8, max_width=20).translate(rng.randint(-20, 20))
        n = refined_degree(b)
        same_class = extend_mask(b, rand_mask(rng, max_width=10), n)
        other = rand_valid_mask(rng, max_degree=8, max_width=20)
        v = Mask.delta(rng.randint(-5, 5), rand_fraction(rng, nonzero=True))
        near = b + v.convolve(difference_power(n))  # equal moments but mu_n
        for a in (same_class, other, near, b.scale(2), rand_mask(rng)):
            assert equivalence_witness(a, b) == reference.equivalence_witness(a, b)


def test_deep_degrees_match_reference():
    # the running denominator of both triangular solves over many rows;
    # every other polynomial has a negative leading coefficient
    rng = random.Random(149)
    for k in range(12):
        p = rand_poly(rng, 9 + k * 15 // 11)
        if (p.coeffs[-1] < 0) != (k % 2 == 1):
            p = -p
        nodes = rng.sample(range(-40, 41), p.degree + 1)
        assert mask_from_poly_at_nodes(p, nodes) == reference.mask_from_poly_at_nodes(p, nodes)
    p = rand_poly(rng, 64)
    assert poly_from_mask(mask_from_poly(p)) == p.monic()


# ----------------------------------------------------------------------
# mask -> polynomial


def test_poly_from_mask_worked_chain():
    assert poly_from_mask(Mask.parse("0:1/16,3/16,3/16,1/16")) == Polynomial.one()
    assert poly_from_mask(Mask.parse("0:1/32,3/32,3/32,1/32")) == Polynomial.parse("-3/2,1")
    assert poly_from_mask(BSPLINE) == QUAD


def test_poly_from_mask_intro_example():
    assert poly_from_mask(INTRO_MASK) == INTRO_POLY


def test_poly_from_mask_delta_family():
    # a lone delta of weight 2**-(k+1) refines the pure power t**k
    for k in range(5):
        assert poly_from_mask(Mask.delta(0, F(1, 2 ** (k + 1)))) == Polynomial.monomial(k)


def test_poly_from_mask_rejects_bad_sums():
    with pytest.raises(NotRefinableError):
        poly_from_mask(Mask.parse("0:1/8,3/8,3/8,1/8"))
    with pytest.raises(NotRefinableError):
        poly_from_mask(Mask.zero())


def test_poly_from_mask_is_monic_and_refined():
    rng = random.Random(61)
    for _ in range(40):
        m = rand_valid_mask(rng)
        p = poly_from_mask(m)
        assert p.degree == refined_degree(m)
        assert p.coeffs[-1] == 1
        assert verify_refines(m, p)


# ----------------------------------------------------------------------
# polynomial -> mask


def test_mask_from_poly_examples():
    assert mask_from_poly(QUAD) == Mask.parse("0:1/32,0,3/32")
    assert mask_from_poly(Polynomial.parse("-3/2,1")) == Mask.parse("0:-1/8,3/8")
    assert mask_from_poly(Polynomial.one()) == Mask.delta(0, F(1, 2))
    # trailing zero trimmed: t gets the lone delta of weight 1/4
    assert mask_from_poly(Polynomial.parse("0,1")) == Mask.delta(0, F(1, 4))


def test_mask_from_poly_rejects_zero():
    with pytest.raises(ValueError):
        mask_from_poly(Polynomial.zero())


def test_mask_from_poly_support_and_verification():
    rng = random.Random(67)
    for _ in range(60):
        p = rand_poly(rng, rng.randint(0, 6))
        m = mask_from_poly(p)
        assert m.support_min >= 0
        assert m.support_max <= p.degree
        assert verify_refines(m, p)


def test_round_trip_from_polynomial():
    rng = random.Random(71)
    for _ in range(60):
        p = rand_monic_poly(rng)
        assert poly_from_mask(mask_from_poly(p)) == p


def test_round_trip_from_mask():
    rng = random.Random(73)
    for _ in range(60):
        m = rand_valid_mask(rng)
        assert verify_refines(m, poly_from_mask(m))


# ----------------------------------------------------------------------
# polynomial -> mask on prescribed nodes


def test_at_nodes_matches_default_on_initial_segment():
    assert mask_from_poly_at_nodes(QUAD, [0, 1, 2]) == mask_from_poly(QUAD)


def test_at_nodes_shifted_support():
    m = mask_from_poly_at_nodes(QUAD, [1, 2, 3])
    assert m == Mask.parse("1:3/32,0,1/32")
    assert verify_refines(m, QUAD)


def test_at_nodes_single_point():
    assert mask_from_poly_at_nodes(Polynomial.one(), [5]) == Mask.delta(5, F(1, 2))


def test_at_nodes_random_supports():
    rng = random.Random(79)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(0, 5))
        nodes = rng.sample(range(-6, 7), p.degree + 1)
        m = mask_from_poly_at_nodes(p, nodes)
        assert verify_refines(m, p)
        assert all(m.coefficient(i) == 0 for i in range(-10, 11) if i not in nodes)


def test_at_nodes_validation():
    with pytest.raises(ValueError):
        mask_from_poly_at_nodes(QUAD, [0, 1])  # wrong count
    with pytest.raises(ValueError):
        mask_from_poly_at_nodes(QUAD, [0, 1, 1])  # duplicate
    with pytest.raises(ValueError):
        mask_from_poly_at_nodes(Polynomial.zero(), [0])


# ----------------------------------------------------------------------
# the integration constant


def test_integration_constant_unique():
    choice = antiderivative_constant(Mask.parse("0:1/16,3/16,3/16,1/16"), Polynomial.one())
    assert choice.is_unique
    assert choice.value == F(-3, 2)


def test_integration_constant_unique_degree_one():
    # raw value of the constant equation for the degree-1 stage; checked
    # against the independent fact that only 5/4 lifts t - 3/2 to a
    # refinable quadratic (monic rescale 5/2 - 3t + t**2)
    m = Mask.parse("0:1/32,3/32,3/32,1/32")
    phi = Polynomial.parse("-3/2,1")
    choice = antiderivative_constant(m, phi)
    assert choice.is_unique
    assert choice.value == F(5, 4)
    lifted = phi.antiderivative() + Polynomial((choice.value,))
    assert verify_refines(m.scale(F(1, 2)), lifted)
    assert lifted.monic() == QUAD


def test_integration_constant_arbitrary():
    # sum-1 mask with every shift term vanishing at 0
    choice = antiderivative_constant(Mask.delta(0), Polynomial.one())
    assert choice.is_arbitrary
    assert choice.value is None


def test_integration_constant_none():
    # sum-1 mask whose shift sum is -1, so no constant satisfies 0 = -1
    choice = antiderivative_constant(Mask.delta(1), Polynomial.one())
    assert choice.kind == "none"


def test_integration_constant_kind_is_an_enum():
    kind = IntegrationConstant.Kind
    assert antiderivative_constant(Mask.delta(1), Polynomial.one()).kind is kind.NONE
    assert IntegrationConstant("unique", F(1)) == IntegrationConstant.unique(1)
    assert IntegrationConstant("unique", F(1)).kind is kind.UNIQUE
    with pytest.raises(ValueError):
        IntegrationConstant("sometimes")


def test_integration_constant_requires_refinable_pair():
    with pytest.raises(NotRefinableError):
        antiderivative_constant(Mask.parse("0:1/16,3/16,3/16,1/16"), Polynomial.parse("0,1"))


# ----------------------------------------------------------------------
# verified pairs


def test_pair_construction_checks():
    RefinablePair(BSPLINE, QUAD)
    with pytest.raises(NotRefinableError):
        RefinablePair(BSPLINE, Polynomial.parse("1,1,1"))
    with pytest.raises(NotRefinableError):
        RefinablePair(BSPLINE, Polynomial.zero())


def test_pair_derivative():
    pair = RefinablePair(BSPLINE, QUAD).derivative()
    assert pair.mask == Mask.parse("0:1/32,3/32,3/32,1/32")
    assert pair.poly == Polynomial.parse("-3,2")


def test_pair_derivative_rejects_constant():
    pair = RefinablePair(Mask.parse("0:1/16,3/16,3/16,1/16"), Polynomial.one())
    with pytest.raises(ValueError):
        pair.derivative()


def test_pair_antiderivative():
    start = RefinablePair(Mask.parse("0:1/16,3/16,3/16,1/16"), Polynomial.one())
    lifted = start.antiderivative()
    assert lifted.mask == Mask.parse("0:1/32,3/32,3/32,1/32")
    assert lifted.poly == Polynomial.parse("-3/2,1")
    again = lifted.antiderivative()
    assert again.mask == BSPLINE
    assert again.poly.monic() == QUAD


def test_pair_round_trips():
    rng = random.Random(83)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(1, 5))
        pair = RefinablePair(mask_from_poly(p), p)
        assert pair.antiderivative().derivative() == pair
        assert pair.derivative().antiderivative() == pair


# ----------------------------------------------------------------------
# the coset of masks refining one polynomial


def test_extend_mask_recovers_wide_mask():
    reduced = Mask.parse("0:1/32,0,3/32")
    assert extend_mask(reduced, Mask.delta(0, F(-1, 64)), 2) == BSPLINE


def test_extend_mask_zero_witness():
    assert extend_mask(BSPLINE, Mask.zero(), 2) == BSPLINE
    for n in (-1, -2):
        with pytest.raises(ValueError, match=f"target degree must be nonnegative, got {n}$"):
            extend_mask(BSPLINE, Mask.zero(), n)


def test_coset_closure_random():
    rng = random.Random(89)
    for _ in range(60):
        p = rand_poly(rng, rng.randint(0, 5))
        v = rand_mask(rng)
        wider = extend_mask(mask_from_poly(p), v, p.degree)
        assert verify_refines(wider, p)


def _affine_solutions(rows, rhs):
    """Exact RREF solve of rows @ x = rhs: (particular, nullspace basis)."""
    nrows, ncols = len(rows), len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        scale = aug[rank][col]
        aug[rank] = [x / scale for x in aug[rank]]
        for i in range(nrows):
            if i != rank and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    assert all(aug[i][ncols] == 0 for i in range(rank, nrows)), "inconsistent system"
    particular = [F(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][ncols]
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][free]
        basis.append(vec)
    return particular, basis


def test_coset_completeness_small_supports():
    # every mask on the window {-2..n+2} fixing p comes from the canonical
    # one plus a multiple of (1,-1)**(n+1): checked by solving the full
    # linear constraint system, independent of the conversion routines
    rng = random.Random(97)
    for _ in range(8):
        p = rand_poly(rng, rng.randint(1, 3), max_num=9, max_den=9)
        n = p.degree
        window = list(range(-2, n + 3))
        columns = [padded(p.translate(i).shrink(2).scale(2), n + 1) for i in window]
        rows = [[columns[j][k] for j in range(len(window))] for k in range(n + 1)]
        particular, basis = _affine_solutions(rows, padded(p, n + 1))
        assert len(basis) == len(window) - (n + 1)
        canonical = mask_from_poly(p)
        for _ in range(4):
            x = list(particular)
            for vec in basis:
                c = rand_fraction(rng, 5, 5)
                x = [a + c * b for a, b in zip(x, vec)]
            m = Mask(window[0], x)
            assert verify_refines(m, p)
            assert reduce_mod_difference(m, n).remainder == canonical


def test_masks_equivalent_examples():
    reduced = Mask.parse("0:1/32,0,3/32")
    assert masks_equivalent(BSPLINE, reduced)
    assert equivalence_witness(BSPLINE, reduced) == Mask.delta(0, F(-1, 64))
    assert masks_equivalent(BSPLINE, BSPLINE)
    assert equivalence_witness(BSPLINE, BSPLINE) == Mask.zero()
    # one class over coprime denominators, 64 against 448
    assert masks_equivalent(extend_mask(BSPLINE, Mask.delta(2, F(1, 7)), 2), BSPLINE)
    # equivalent, though a witness would be 10**30 entries wide
    assert masks_equivalent(Mask.parse("0:1/2"), Mask.parse(f"{10 ** 30}:1/2"))


def test_masks_not_equivalent():
    # same class shape, different degree
    assert not masks_equivalent(BSPLINE, Mask.parse("0:1/16,3/16,3/16,1/16"))
    # same degree, different class
    assert not masks_equivalent(Mask.delta(0, F(1, 4)), Mask.parse("0:-1/8,3/8"))
    # invalid sums never pass
    assert not masks_equivalent(Mask.zero(), Mask.zero())
    assert not masks_equivalent(Mask.delta(0), Mask.delta(0))


def test_witness_reconstructs():
    rng = random.Random(101)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(0, 4))
        n = p.degree
        base = mask_from_poly(p)
        other = extend_mask(base, rand_mask(rng), n)
        witness = equivalence_witness(other, base)
        assert witness is not None
        assert extend_mask(base, witness, n) == other


# ----------------------------------------------------------------------
# the operator matrix


def test_refinement_matrix_one_by_one():
    m = Mask.delta(0, F(1, 2))
    assert refinement_matrix(m, 0).entries == (F(1),)


def test_refinement_matrix_diagonal_and_fixed_point():
    operator = refinement_matrix(BSPLINE, 2)
    assert [operator[j, j] for j in range(3)] == [F(1, 4), F(1, 2), F(1)]
    assert operator.apply(QUAD.coeffs) == QUAD.coeffs
    # strictly upper triangular below the diagonal
    assert all(operator[j, k] == 0 for j in range(3) for k in range(j))


def test_refinement_matrix_agrees_with_refine_apply():
    rng = random.Random(103)
    for _ in range(30):
        m = rand_mask(rng)
        p = rand_poly(rng, rng.randint(0, 4))
        n = p.degree
        operator = refinement_matrix(m, n)
        assert list(operator.apply(padded(p, n + 1))) == padded(refine_apply(m, p), n + 1)


def test_refinement_matrix_rejects_negative_degree():
    with pytest.raises(ValueError):
        refinement_matrix(BSPLINE, -1)


def test_monic_fixed_point_is_unique():
    # eigenvalues are distinct powers of two, so the eigenvalue-1 space is a
    # line; pinning the top coefficient to 1 and back-substituting must land
    # exactly on poly_from_mask
    rng = random.Random(107)
    for _ in range(25):
        m = rand_valid_mask(rng)
        n = refined_degree(m)
        operator = refinement_matrix(m, n)
        diag = [operator[j, j] for j in range(n + 1)]
        assert diag == [F(1, 2 ** (n - j)) for j in range(n + 1)]
        assert len(set(diag)) == n + 1
        x = [F(0)] * (n + 1)
        x[n] = F(1)
        for j in range(n - 1, -1, -1):
            acc = sum((operator[j, k] * x[k] for k in range(j + 1, n + 1)), F(0))
            x[j] = acc / (1 - diag[j])
        assert Polynomial(x) == poly_from_mask(m)


def test_derivative_is_eigenvector_at_one_half():
    rng = random.Random(109)
    checked = 0
    while checked < 25:
        m = rand_valid_mask(rng)
        n = refined_degree(m)
        if n == 0:
            continue
        vec = padded(poly_from_mask(m).derivative(), n + 1)
        image = refinement_matrix(m, n).apply(vec)
        assert list(image) == [F(1, 2) * c for c in vec]
        checked += 1


def test_translated_pair_still_refines():
    rng = random.Random(113)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(0, 4))
        m = mask_from_poly(p)
        k = rng.randint(-5, 5)
        assert verify_refines(m.translate(k), p.translate(k))


# ----------------------------------------------------------------------
# the cascade iteration


def test_cascade_converges_to_refined_polynomial():
    report = cascade(BSPLINE, Polynomial.monomial(2), max_iter=60)
    assert report.converged
    assert report.iterations <= 60
    error = max(abs(a - b) for a, b in zip(report.result.coeffs, QUAD.coeffs))
    assert error <= F(1, 2 ** 40)
    assert report.final_delta < F(1, 2 ** 40)


def test_cascade_fixed_point_start():
    report = cascade(BSPLINE, QUAD)
    assert report.converged
    assert report.iterations == 1
    assert report.final_delta == 0
    assert report.result == QUAD


def test_cascade_degree_zero():
    report = cascade(Mask.parse("0:1/16,3/16,3/16,1/16"), Polynomial.one())
    assert report.converged
    assert report.result == Polynomial.one()


def test_cascade_rejects_bad_inputs():
    with pytest.raises(NotRefinableError):
        cascade(Mask.delta(0), Polynomial.one())
    with pytest.raises(ValueError):
        cascade(BSPLINE, Polynomial.monomial(3))
    with pytest.raises(ValueError):
        cascade(BSPLINE, Polynomial.monomial(2), max_iter=0)


def test_cascade_iteration_budget():
    report = cascade(BSPLINE, Polynomial.monomial(2), max_iter=3)
    assert not report.converged
    assert report.iterations == 3
    assert report.final_delta > 0


def test_cascade_keeps_leading_coefficient():
    rng = random.Random(127)
    for _ in range(15):
        m = rand_valid_mask(rng, max_degree=4)
        n = refined_degree(m)
        report = cascade(m, Polynomial.monomial(n), max_iter=20, tol=F(1, 2 ** 200))
        assert report.result.coefficient(n) == 1


def test_cascade_matches_reference():
    # the integer iteration against Fraction matrices built from per-shift
    # translates: every report field, converged or out of budget
    rng = random.Random(131)
    tolerances = [F(1, 2 ** 40), F(1, 2 ** 400), F(1, 3), F(7, 5), F(2, 1000)]
    for _ in range(120):
        m = rand_valid_mask(rng, max_degree=9, max_width=12).translate(rng.randint(-20, 20))
        n = refined_degree(m)
        start = rng.choice([Polynomial.monomial(n), Polynomial.zero(),
                            rand_poly(rng, rng.randint(0, n))])
        tol = rng.choice(tolerances)
        budget = rng.randint(1, 60)
        got = cascade(m, start, budget, tol)
        assert got == reference.cascade(m, start, budget, tol)
        if got.final_delta:
            # a tolerance equal to a delta that occurs pins the strict test
            tol = got.final_delta
            assert cascade(m, start, budget, tol) == reference.cascade(m, start, budget, tol)


def test_cascade_contraction_envelope():
    # the normalized error e_j * 2**j settles toward a constant; it can still
    # creep up while the quarter-rate mode fades, so the envelope constant
    # measured at iteration 5 carries a factor-two margin
    operator = refinement_matrix(BSPLINE, 2)
    current = (F(0), F(0), F(1))
    errors = []
    for _ in range(31):
        errors.append(max(abs(a - b) for a, b in zip(current, QUAD.coeffs)))
        current = operator.apply(current)
    envelope = 2 * errors[5] * 2 ** 5
    for j in range(6, 31):
        assert errors[j] <= envelope * F(1, 2 ** j)
    for j in range(10, 20):
        ratio = errors[j + 1] / errors[j]
        assert F(2, 5) <= ratio <= F(3, 5)


# ----------------------------------------------------------------------
# the result records: value semantics pinned field by field


def _records():
    """One instance of each record class, with its fields in order."""
    report = cascade(BSPLINE, Polynomial.monomial(2), max_iter=3)
    return [
        (IntegrationConstant.unique(3), (IntegrationConstant.Kind.UNIQUE, F(3))),
        (IntegrationConstant.arbitrary(), (IntegrationConstant.Kind.ARBITRARY, None)),
        (RefinablePair(BSPLINE, QUAD), (BSPLINE, QUAD)),
        (report, (Polynomial.parse("63/32,-21/8,1"), 3, F(15, 32), False)),
        (reduce_mod_difference(BSPLINE, 2), (Mask.parse("0:1/32,0,3/32"), Mask.parse("0:-1/64"))),
    ]


def test_record_reprs():
    assert [repr(r) for r, _ in _records()] == [
        "IntegrationConstant(kind=<Kind.UNIQUE: 'unique'>, value=Fraction(3, 1))",
        "IntegrationConstant(kind=<Kind.ARBITRARY: 'arbitrary'>, value=None)",
        "RefinablePair(mask=Mask.parse('0:1/64,3/64,3/64,1/64'), "
        "poly=Polynomial.parse('5/2,-3,1'))",
        "CascadeReport(result=Polynomial.parse('63/32,-21/8,1'), iterations=3, "
        "final_delta=Fraction(15, 32), converged=False)",
        "ReducedMask(remainder=Mask.parse('0:1/32,0,3/32'), quotient=Mask.parse('0:-1/64'))",
    ]
    assert repr(IntegrationConstant.none()) == (
        "IntegrationConstant(kind=<Kind.NONE: 'none'>, value=None)")


def test_record_construction_in_field_order():
    names = {IntegrationConstant: ("kind", "value"), RefinablePair: ("mask", "poly"),
             CascadeReport: ("result", "iterations", "final_delta", "converged"),
             ReducedMask: ("remainder", "quotient")}
    for record, values in _records():
        cls = type(record)
        assert tuple(getattr(record, name) for name in names[cls]) == values
        assert cls(*values) == record
        assert cls(**dict(zip(names[cls], values))) == record
        assert cls(values[0], **dict(zip(names[cls][1:], values[1:]))) == record
        with pytest.raises(TypeError):
            cls(*values, values[-1])
        with pytest.raises(TypeError):
            cls(*values, **{names[cls][0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values, extra=1)
    assert IntegrationConstant(kind="arbitrary") == IntegrationConstant.arbitrary()
    for cls in (RefinablePair, CascadeReport, ReducedMask):
        with pytest.raises(TypeError):
            cls(BSPLINE)


def test_record_equality():
    records = _records()
    for i, (record, values) in enumerate(records):
        cls = type(record)
        twin = cls(*values)
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        for other, _ in records[:i] + records[i + 1:]:
            assert record != other and not record == other
        # a record is not equal to a tuple of its fields; ReducedMask is one
        assert (record == values) is (cls is ReducedMask)
        assert (record != values) is (cls is not ReducedMask)
    for record, values in records[:4]:
        # == holds within one class only: a subclass with equal fields differs
        subclass = type("Sub", (type(record),), {"__slots__": ()})
        twin = subclass(*values)
        assert record != twin and twin != record and not record == twin
        assert record.__eq__(values) is NotImplemented
    different = [IntegrationConstant.unique(4), RefinablePair(BSPLINE.scale(2), QUAD.derivative()),
                 cascade(BSPLINE, Polynomial.monomial(2), max_iter=4),
                 reduce_mod_difference(BSPLINE, 3)]
    for record, other in zip([records[0][0], *(r for r, _ in records[2:])], different):
        assert record != other and not record == other


def test_records_are_hashable():
    first = IntegrationConstant.unique(3)
    assert hash(first) == hash(IntegrationConstant(IntegrationConstant.Kind.UNIQUE, F(3)))
    assert len({first, IntegrationConstant.unique(F(6, 2)), IntegrationConstant.none()}) == 2
    assert {record: i for i, (record, _) in enumerate(_records())}[_records()[3][0]] == 3
    remainder, quotient = _records()[4][1]
    assert hash(reduce_mod_difference(BSPLINE, 2)) == hash((remainder, quotient))


def test_records_are_immutable():
    for record, values in _records():
        for name in ("kind", "value", "mask", "poly", "result", "iterations",
                     "final_delta", "converged", "remainder", "quotient", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert type(record)(*values) == record


def test_reduced_mask_is_a_tuple():
    reduced = reduce_mod_difference(BSPLINE, 2)
    remainder, quotient = reduced
    assert (remainder, quotient) == (reduced.remainder, reduced.quotient)
    assert reduced[0] is reduced.remainder and reduced[1] is reduced.quotient
    assert isinstance(reduced, tuple) and len(reduced) == 2
    assert ReducedMask._fields == ("remainder", "quotient")
    assert reduced._replace(quotient=Mask.zero()) == (remainder, Mask.zero())
    assert reduced._asdict() == {"remainder": remainder, "quotient": quotient}


def test_records_copy_pickle_and_match():
    import copy
    import pickle

    for record, values in _records():
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        match record:
            case IntegrationConstant(kind, value) | RefinablePair(kind, value) \
                    | ReducedMask(kind, value):
                assert (kind, value) == values
            case CascadeReport(result, iterations, final_delta, converged):
                assert (result, iterations, final_delta, converged) == values
            case _:
                raise AssertionError(f"no positional pattern matched {record!r}")
