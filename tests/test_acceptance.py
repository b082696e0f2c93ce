"""Acceptance gate.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them).  Tolerances:
exact rational equality unless a line states otherwise; the cascade
criterion allows 2**-40, the CSV criterion 1e-9 per row.
"""

import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction as F

from refinemask import (
    Mask,
    Polynomial,
    antiderivative_constant,
    cascade,
    extend_mask,
    equivalence_witness,
    mask_from_poly,
    mask_from_poly_at_nodes,
    masks_equivalent,
    poly_from_mask,
    refined_degree,
    refinement_matrix,
    verify_refines,
)
from reference import shifted_poly_matrix, solve_general
from util import rand_mask, rand_poly, rand_valid_mask

BSPLINE_TEXT = "0:1/64,3/64,3/64,1/64"
BSPLINE = Mask.parse(BSPLINE_TEXT)
QUAD = Polynomial.parse("5/2,-3,1")


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {title}: FAIL", flush=True)
        raise
    print(f"[criterion {number:02d}] {title}: PASS", flush=True)


def cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "refinemask", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


def sup_distance(a: Polynomial, b: Polynomial) -> F:
    size = max(len(a.coeffs), len(b.coeffs))
    return max(abs(a.coefficient(k) - b.coefficient(k)) for k in range(size))


def test_criterion_01_mask_to_polynomial_chain():
    with criterion(1, "halving-sums mask family yields the degree chain"):
        assert poly_from_mask(Mask.parse("0:1/16,3/16,3/16,1/16")) == Polynomial.parse("1")
        assert poly_from_mask(Mask.parse("0:1/32,3/32,3/32,1/32")) == Polynomial.parse("-3/2,1")
        assert poly_from_mask(Mask.parse(BSPLINE_TEXT)) == Polynomial.parse("5/2,-3,1")


def test_criterion_02_verification_and_recovery():
    with criterion(2, "signed mask verifies and converts back exactly"):
        m = Mask.parse("0:3/8,-3/8,1/8")
        p = Polynomial.parse("1,2,1")
        assert verify_refines(m, p)
        assert poly_from_mask(m) == p


def test_criterion_03_canonical_mask_and_equivalence():
    with criterion(3, "canonical mask, equivalence, explicit witness"):
        reduced = mask_from_poly(QUAD)
        assert reduced == Mask.parse("0:1/32,0,3/32")
        assert masks_equivalent(BSPLINE, reduced)
        assert equivalence_witness(BSPLINE, reduced) == Mask.delta(0, F(-1, 64))


def test_criterion_04_round_trips():
    with criterion(4, "200 random round trips in each direction"):
        rng = random.Random(20260816)
        for _ in range(200):
            p = rand_poly(rng, rng.randint(0, 6), max_num=100, max_den=100)
            assert poly_from_mask(mask_from_poly(p)) == p.monic()
        for _ in range(200):
            m = rand_valid_mask(rng, max_degree=5, max_width=9)
            assert verify_refines(m, poly_from_mask(m))


def test_criterion_05_coset_membership():
    with criterion(5, "100 random difference-multiple extensions still refine"):
        rng = random.Random(5050)
        for _ in range(100):
            p = rand_poly(rng, rng.randint(0, 6))
            v = rand_mask(rng, max_width=4)
            wider = extend_mask(mask_from_poly(p), v, p.degree)
            assert verify_refines(wider, p)


def test_criterion_06_eigenstructure():
    with criterion(6, "50 random masks: power-of-two spectrum, derivative eigenvector"):
        rng = random.Random(666)
        checked = 0
        while checked < 50:
            m = rand_valid_mask(rng, max_degree=5)
            n = refined_degree(m)
            operator = refinement_matrix(m, n)
            assert [operator[j, j] for j in range(n + 1)] == \
                [F(1, 2 ** (n - j)) for j in range(n + 1)]
            if n == 0:
                continue
            deriv = poly_from_mask(m).derivative()
            vec = list(deriv.coeffs) + [F(0)] * (n + 1 - len(deriv.coeffs))
            assert list(operator.apply(vec)) == [F(1, 2) * c for c in vec]
            checked += 1


def test_criterion_07_cascade_convergence():
    with criterion(7, "cascade halves its error and lands within 2**-40"):
        operator = refinement_matrix(BSPLINE, 2)
        current = (F(0), F(0), F(1))
        errors = []
        for _ in range(21):
            errors.append(max(abs(a - b) for a, b in zip(current, QUAD.coeffs)))
            current = operator.apply(current)
        per_step = float(errors[20] / errors[10]) ** 0.1
        assert 0.4 <= per_step <= 0.6
        report = cascade(BSPLINE, Polynomial.monomial(2), max_iter=60, tol=F(1, 2 ** 40))
        assert report.converged
        assert report.iterations <= 60
        assert sup_distance(report.result, QUAD) <= F(1, 2 ** 40)


def test_criterion_08_three_conversion_routes_agree():
    with criterion(8, "difference route = dense solve = node-factorization route"):
        rng = random.Random(808)
        for _ in range(100):
            p = rand_poly(rng, rng.randint(0, 6))
            n = p.degree
            fast = mask_from_poly(p)
            half = p.shrink(F(1, 2))
            b = [half.coefficient(k) / 2 for k in range(n + 1)]
            dense = Mask(0, solve_general(shifted_poly_matrix(p), b))
            nodes = mask_from_poly_at_nodes(p, list(range(n + 1)))
            assert fast == dense
            assert fast == nodes


def test_criterion_09_integration_constant_branches():
    with criterion(9, "integration constant: unique, arbitrary, impossible"):
        choice = antiderivative_constant(
            Mask.parse("0:1/16,3/16,3/16,1/16"), Polynomial.one())
        assert choice.is_unique
        assert choice.value == F(-3, 2)
        assert antiderivative_constant(Mask.delta(0), Polynomial.one()).is_arbitrary
        assert antiderivative_constant(Mask.delta(1), Polynomial.one()).kind == "none"


def test_criterion_10_command_line_contract():
    with criterion(10, "command line reproduces the core cases bit for bit"):
        assert cli("poly-from-mask", "0:1/16,3/16,3/16,1/16") == (0, "1\n")
        assert cli("poly-from-mask", "0:1/32,3/32,3/32,1/32") == (0, "-3/2,1\n")
        assert cli("poly-from-mask", BSPLINE_TEXT) == (0, "5/2,-3,1\n")
        assert cli("verify", "0:3/8,-3/8,1/8", "1,2,1") == (0, "OK\n")
        assert cli("poly-from-mask", "0:3/8,-3/8,1/8") == (0, "1,2,1\n")
        assert cli("mask-from-poly", "5/2,-3,1") == (0, "0:1/32,0,3/32\n")
        assert cli("equiv", BSPLINE_TEXT, "0:1/32,0,3/32") == (0, "0:-1/64\n")
        assert cli("reduce", BSPLINE_TEXT) == (0, "0:1/32,0,3/32\n")
        code, out = cli("render-csv", BSPLINE_TEXT,
                        "--t-min", "0", "--t-max", "3", "--samples", "301")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,total,part_0,part_1,part_2,part_3"
        assert len(lines) == 302
        for line in lines[1:]:
            cells = [float(tok) for tok in line.split(",")]
            assert abs(sum(cells[2:]) - cells[1]) < 1e-9
