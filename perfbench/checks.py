"""Output checks that never call the code under test.

Every check here uses only the standard library and the benchmark's own
arithmetic: integer Horner evaluation for the refinement identity, a sparse
convolution for the coset relation, and plain comparisons for cascade
reports and CLI results.  Each check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _scaled_ints(coeffs):
    """Integer vector and positive denominator d with coeffs == ints / d."""
    den = 1
    for c in coeffs:
        den = math.lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _horner(ints, x):
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def refines(offset, mask_coeffs, poly_coeffs) -> bool:
    """Does p(t) == 2 * sum_j m_j * p(2t - j) hold at t = 0..deg(p)+1?

    Both sides have degree at most deg(p), so agreement at deg(p)+2 points
    proves the identity.  Scaling p by d and m by e turns the test into
    integer arithmetic: e * P(t) == 2 * sum_j M_j * P(2t - j).
    """
    p_ints, _ = _scaled_ints(poly_coeffs)
    m_ints, e = _scaled_ints(mask_coeffs)
    values = {}

    def big_p(x):
        if x not in values:
            values[x] = _horner(p_ints, x)
        return values[x]

    for t in range(len(poly_coeffs) + 1):
        rhs = 2 * sum(mj * big_p(2 * t - j) for j, mj in enumerate(m_ints, start=offset) if mj)
        if e * big_p(t) != rhs:
            return False
    return True


def sparse(offset, coeffs) -> dict:
    """{index: coefficient} of the nonzero entries of a mask."""
    return {j: c for j, c in enumerate(coeffs, start=offset) if c}


def difference_power(k) -> dict:
    """(1,-1)**k as {index: coefficient}."""
    return {i: Fraction((-1) ** i * math.comb(k, i)) for i in range(k + 1)}


def convolve(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def mask_text(entries: dict) -> str:
    """Canonical mask text of a sparse mask, as the package prints it."""
    if not entries:
        return "0:0"
    lo, hi = min(entries), max(entries)
    return f"{lo}:" + ",".join(str(entries.get(j, 0)) for j in range(lo, hi + 1))


def poly_text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def eval_poly(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def support_problems(name, offset, coeffs, allowed) -> list:
    bad = sorted(set(sparse(offset, coeffs)) - set(allowed))
    return [f"{name} has entries outside its support: {bad[:5]}"] if bad else []


def check_ladder(spec, out) -> list:
    """out = (mask (offset, coeffs), refined poly coeffs, verify result)."""
    (offset, coeffs), q, verified = out
    p, n = spec["poly"], spec["n"]
    problems = support_problems("mask_from_poly", offset, coeffs, range(n + 1))
    if not refines(offset, coeffs, p):
        problems.append("mask_from_poly result does not refine p")
    if tuple(q) != tuple(p):
        problems.append("poly_from_mask(mask_from_poly(p)) != p")
    if verified is not (spec["perturb"] is None):
        problems.append(f"verify_refines returned {verified!r}")
    return problems


def check_coset(spec, out) -> list:
    """out = (wide mask a, canonical mask b, witness w or None, poly_from_mask(a))."""
    (a_off, a_coeffs), (b_off, b_coeffs), witness, q = out
    p, n = spec["poly"], spec["n"]
    problems = []
    if not refines(a_off, a_coeffs, p):
        problems.append("wide mask does not refine p")
    if not refines(b_off, b_coeffs, p):
        problems.append("canonical mask does not refine p")
    problems += support_problems("canonical mask", b_off, b_coeffs, range(n + 1))
    a, b = sparse(a_off, a_coeffs), sparse(b_off, b_coeffs)
    step = difference_power(n + 1)
    if spec["kind"] == "nodes":
        problems += support_problems("node-placed mask", a_off, a_coeffs, spec["nodes"])
    elif a != add(b, convolve(spec["v"], step)):
        problems.append("extend_mask result != b + v*(1,-1)**(n+1)")
    if witness is None:
        problems.append("equivalence_witness found no witness")
    elif a != add(b, convolve(sparse(*witness), step)):
        problems.append("a != b + witness*(1,-1)**(n+1)")
    if tuple(q) != tuple(p):
        problems.append("poly_from_mask(a) != p")
    return problems


def check_cascade(spec, out) -> list:
    """out = (result coeffs, iterations, final_delta, converged)."""
    result, iterations, final_delta, converged = out
    n, budget, tol = spec["n"], spec["budget"], spec["tol"]
    problems = []
    if len(result) != n + 1 or result[n] != 1:
        problems.append("top coefficient of the start polynomial was not kept")
    if not 1 <= iterations <= budget:
        problems.append(f"iterations {iterations} outside 1..{budget}")
    if converged != (final_delta < tol):
        problems.append("converged flag disagrees with final_delta < tol")
    if not converged and iterations != budget:
        problems.append("stopped early without converging")
    if final_delta < 0:
        problems.append("negative final_delta")
    return problems


def check_cli(spec, out) -> list:
    """out = (exit code, stdout bytes); spec may carry problems found before timing."""
    code, stdout = out
    problems = list(spec.get("problems", ()))
    if code != spec["code"]:
        problems.append(f"exit code {code}, expected {spec['code']}")
    if stdout != spec["stdout"]:
        problems.append(f"stdout {stdout[:60]!r}, expected {spec['stdout'][:60]!r}")
    return problems
