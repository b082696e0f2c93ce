"""Seeded, stratified job mixes for the refinemask benchmark.

Job i of a workload has a fixed kind, degree and span, chosen from its
index; the seed only draws coefficients, nodes and sparse positions.  So
every seed runs the same mix and its latency percentiles stay comparable.
Jobs come in blocks that hold one of each stratum, and a timed loop only
stops at a block boundary.

Inputs are made here from the seed with the standard library alone; the
package under test is only called to run a job (and, for the CLI mix, to
compute expected outputs before timing).  Jobs reach the package through
attributes of the top-level module, so the tracer's rebinding applies.
"""

from __future__ import annotations

import io
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import checks

LADDER_NS = (4, 6, 8, 11, 16, 22, 32, 40, 48)
COSET_NS = (2, 3, 4, 6, 8)
COSET_SPANS = (32, 64, 128, 256, 512)
CASCADE_NS = (3, 5, 7, 9, 12, 16)
# (kind, iteration budget, tolerance exponent): tol = 2**-exponent
CASCADE_KINDS = (("converge", 200, 40), ("budget", 50, 4000),
                 ("budget", 100, 4000), ("budget", 200, 4000))
CLI_NS = (2, 5, 9, 16)
MISSING_DIR_OUT = "perfbench/no-such-dir/out.csv"

# README examples with their documented stdout.
README_EXAMPLES = (
    (("poly-from-mask", "0:1/64,3/64,3/64,1/64"), "5/2,-3,1\n"),
    (("mask-from-poly", "5/2,-3,1"), "0:1/32,0,3/32\n"),
    (("mask-from-poly", "5/2,-3,1", "--nodes", "1,2,3"), "1:3/32,0,1/32\n"),
    (("verify", "0:3/8,-3/8,1/8", "1,2,1"), "OK\n"),
    (("equiv", "0:1/64,3/64,3/64,1/64", "0:1/32,0,3/32"), "0:-1/64\n"),
    (("reduce", "0:1/64,3/64,3/64,1/64"), "0:1/32,0,3/32\n"),
)


def job_rng(seed: int, workload: str, index) -> random.Random:
    """A generator that depends only on (seed, workload, index)."""
    return random.Random(f"{workload}:{seed}:{index}")


def rand_rational(rng: random.Random, k: int = 0) -> Fraction:
    """A nonzero rational: 8-bit numerator, random sign, denominator 1 + k % 15.

    Fixed sizes and denominators keep the cost of a job the same from seed
    to seed.
    """
    return Fraction(rng.randrange(128, 256) * rng.choice((1, -1)), 1 + k % 15)


def monic(rng: random.Random, n: int) -> tuple:
    return tuple(rand_rational(rng, k) for k in range(n)) + (Fraction(1),)


MASK_WEIGHT_TOTAL = 251


def positive_mask(rng: random.Random, n: int) -> tuple:
    """Coefficients of width n+1..2n+1, positive, summing to 2**-(n+1).

    The weights are a random composition of a fixed total, so every mask
    has the same denominator.  Positive masks keep the refined polynomial
    moderate, so a cascade with tolerance 2**-40 converges inside 200 steps.
    """
    width = rng.randint(n + 1, 2 * n + 1)
    cuts = (0, *sorted(rng.sample(range(1, MASK_WEIGHT_TOTAL), width - 1)), MASK_WEIGHT_TOTAL)
    den = MASK_WEIGHT_TOTAL << (n + 1)
    return tuple(Fraction(b - a, den) for a, b in zip(cuts, cuts[1:]))


def jittered_nodes(rng: random.Random, n: int, span: int) -> tuple:
    """0, span and n-1 interior nodes, each within 1 of an equal spacing.

    Near-equal spacing keeps the size of the node-placed mask's entries,
    and so the cost of reducing it, the same from seed to seed.
    """
    interior = (round(k * span / n) + rng.randint(-1, 1) for k in range(1, n))
    return (0, *interior, span)


def sparse_v(rng: random.Random, positions) -> dict:
    return {j: rand_rational(rng, j) for j in positions}


class Workload:
    name = ""
    block = 1
    check = None

    def spec(self, seed: int, i: int) -> dict:
        raise NotImplementedError

    def prepare(self, spec: dict, rm) -> None:
        """Finish a spec before timing; only the CLI mix needs the package here."""

    def run(self, spec: dict, rm):
        raise NotImplementedError

    def output(self, spec: dict, raw):
        """Plain data (tuples, ints, Fractions, bytes) for checks and digests."""
        return raw


def _mask_data(m):
    return (m.offset, m.coeffs)


class Ladder(Workload):
    """Deep degree, narrow masks: Taylor shifts, triangular solve, recursion."""

    name = "ladder"
    block = len(LADDER_NS)
    check = staticmethod(checks.check_ladder)

    def spec(self, seed, i):
        rng = job_rng(seed, self.name, i)
        n = LADDER_NS[i % self.block]
        perturb = Fraction(rng.randrange(1, 64), rng.randrange(1, 64)) if i % 4 == 3 else None
        return {"i": i, "n": n, "poly": monic(rng, n), "perturb": perturb}

    def run(self, spec, rm):
        m = rm.mask_from_poly(rm.Polynomial(spec["poly"]))
        q = rm.poly_from_mask(m)
        target = q if spec["perturb"] is None else q + rm.Polynomial((spec["perturb"],))
        return m, q, rm.verify_refines(m, target)

    def output(self, spec, raw):
        m, q, verified = raw
        return _mask_data(m), q.coeffs, verified


class Coset(Workload):
    """Shallow degree, wide sparse masks: reduction modulo (1,-1)**(n+1)."""

    name = "coset"
    block = 2 * len(COSET_SPANS)
    check = staticmethod(checks.check_coset)

    def spec(self, seed, i):
        rng = job_rng(seed, self.name, i)
        k, b = i % self.block, i // self.block
        n = COSET_NS[(k + b) % len(COSET_NS)]
        span = COSET_SPANS[k // 2]
        spec = {"i": i, "n": n, "span": span, "poly": monic(rng, n)}
        if k % 2 == 0:
            spec.update(kind="nodes", nodes=jittered_nodes(rng, n, span))
        else:
            # v at 0, one interior point and span-n-1, so a spans 0..span
            top = span - n - 1
            spec.update(kind="extend", v=sparse_v(rng, (0, rng.randrange(1, top), top)))
        return spec

    def run(self, spec, rm):
        p = rm.Polynomial(spec["poly"])
        b = rm.mask_from_poly(p)
        if spec["kind"] == "nodes":
            a = rm.mask_from_poly_at_nodes(p, spec["nodes"])
        else:
            v = spec["v"]
            lo = min(v)
            v_mask = rm.Mask(lo, [v.get(j, 0) for j in range(lo, max(v) + 1)])
            a = rm.extend_mask(b, v_mask, spec["n"])
        return a, b, rm.equivalence_witness(a, b), rm.poly_from_mask(a)

    def output(self, spec, raw):
        a, b, w, q = raw
        return _mask_data(a), _mask_data(b), None if w is None else _mask_data(w), q.coeffs


class Cascade(Workload):
    """The long iteration: matrix set-up and products with growing denominators."""

    name = "cascade"
    block = len(CASCADE_NS) * len(CASCADE_KINDS)
    check = staticmethod(checks.check_cascade)

    def spec(self, seed, i):
        rng = job_rng(seed, self.name, i)
        k = i % self.block
        n = CASCADE_NS[k % len(CASCADE_NS)]
        kind, budget, exponent = CASCADE_KINDS[k // len(CASCADE_NS)]
        return {"i": i, "n": n, "kind": kind, "budget": budget,
                "tol": Fraction(1, 2 ** exponent), "mask": positive_mask(rng, n)}

    def run(self, spec, rm):
        m = rm.Mask(0, spec["mask"])
        return rm.cascade(m, rm.Polynomial.monomial(spec["n"]), spec["budget"], spec["tol"])

    def output(self, spec, raw):
        return raw.result.coeffs, raw.iterations, raw.final_delta, raw.converged


def _in_process(rm_cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = rm_cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    return code, out.getvalue().encode()


class Cli(Workload):
    """One `python -m refinemask` child at a time over all seven subcommands.

    Block positions: 0 poly-from-mask, 1 mask-from-poly, 2 mask-from-poly
    --nodes, 3 verify (OK), 4 verify (residual, exit 1), 5 equiv, 6 reduce,
    7 cascade, 8 render-csv, 9 a README example, 10 an error call that must
    exit 1, 2 or 3.
    """

    name = "cli"
    block = 11
    check = staticmethod(checks.check_cli)

    in_process = False  # the traced run replays the mix through cli.main

    def spec(self, seed, i):
        rng = job_rng(seed, self.name, i)
        k, b = i % self.block, i // self.block
        n = CLI_NS[b % len(CLI_NS)]
        # a positive constant term: argparse takes a leading '-' for an option
        poly = (abs(rand_rational(rng)),) + monic(rng, n)[1:]
        return {"i": i, "k": k, "b": b, "n": n, "poly": poly,
                "mask": positive_mask(rng, n), "cascade_mask": positive_mask(rng, min(n, 9)),
                "nodes": tuple(sorted(rng.sample(range(-n, 3 * n + 1), n + 1))),
                "c": abs(rand_rational(rng)), "v": sparse_v(rng, (0, 1 + rng.randrange(n + 1), n + 3))}

    def prepare(self, spec, rm):
        """Fill argv and the expected (exit code, stdout), checked independently.

        The library calls here are the in-process results the subprocess
        must reproduce; each is itself checked by the benchmark's own
        arithmetic.
        """
        import refinemask.cli as rm_cli

        k, n, p = spec["k"], spec["n"], spec["poly"]
        p_text = checks.poly_text(p)
        r = dict(enumerate(spec["mask"]))
        r_text = checks.mask_text(r)
        m = rm.mask_from_poly(rm.Polynomial(p))
        m_text = str(m)
        problems = checks.support_problems("mask_from_poly", m.offset, m.coeffs, range(n + 1))
        if not checks.refines(m.offset, m.coeffs, p):
            problems.append("mask_from_poly result does not refine p")
        code, expected = 0, None
        if k == 0:
            argv = ("poly-from-mask", r_text)
            refined = rm.poly_from_mask(rm.Mask(0, spec["mask"])).coeffs
            if len(refined) != n + 1 or refined[-1] != 1 or not checks.refines(0, spec["mask"], refined):
                problems.append("poly_from_mask result is not the monic refined polynomial")
            expected = checks.poly_text(refined) + "\n"
        elif k == 1:
            argv, expected = ("mask-from-poly", p_text), m_text + "\n"
        elif k == 2:
            nodes = spec["nodes"]
            # "=" form: a node list may start with '-'
            argv = ("mask-from-poly", p_text, "--nodes=" + ",".join(map(str, nodes)))
            placed = rm.mask_from_poly_at_nodes(rm.Polynomial(p), list(nodes))
            problems += checks.support_problems("node-placed mask", placed.offset, placed.coeffs, nodes)
            if not checks.refines(placed.offset, placed.coeffs, p):
                problems.append("node-placed mask does not refine p")
            expected = str(placed) + "\n"
        elif k == 3:
            argv, expected = ("verify", m_text, p_text), "OK\n"
        elif k == 4:
            # R(p + c) = p + 2**-n * c, so the residual is the constant (2**-n - 1) * c
            perturbed = (p[0] + spec["c"],) + p[1:]
            argv = ("verify", m_text, checks.poly_text(perturbed))
            code, expected = 1, f"{(Fraction(1, 2 ** n) - 1) * spec['c']}\n"
        elif k == 5:
            a = checks.add(checks.sparse(0, spec["mask"]),
                           checks.convolve(spec["v"], checks.difference_power(n + 1)))
            argv, expected = ("equiv", checks.mask_text(a), r_text), checks.mask_text(spec["v"]) + "\n"
        elif k == 6:
            a = checks.add(checks.sparse(0, m.coeffs),
                           checks.convolve(spec["v"], checks.difference_power(n + 1)))
            argv, expected = ("reduce", checks.mask_text(a)), m_text + "\n"
        elif k == 7:
            cm = spec["cascade_mask"]
            argv = ("cascade", checks.mask_text(dict(enumerate(cm))), "--max-iter", "100")
            report = rm.cascade(rm.Mask(0, cm), rm.Polynomial.monomial(min(n, 9)), 100,
                                Fraction(1, 2 ** 40))
            problems += checks.check_cascade(
                {"n": min(n, 9), "budget": 100, "tol": Fraction(1, 2 ** 40)},
                (report.result.coeffs, report.iterations, report.final_delta, report.converged))
            expected = (f"iterations: {report.iterations}\nfinal_delta: {report.final_delta}\n"
                        f"converged: {'true' if report.converged else 'false'}\n"
                        f"result: {report.result}\n")
        elif k == 8:
            argv = ("render-csv", m_text, "--t-min", "-1", "--t-max", "2", "--samples", "41")
            expected = render_csv(m.offset, m.coeffs, p, Fraction(-1), Fraction(2), 41)
        elif k == 9:
            argv, expected = README_EXAMPLES[spec["b"] % len(README_EXAMPLES)]
        else:
            argv = (("poly-from-mask", "0:1/8,3/8,3/8,1/8"),
                    ("poly-from-mask", "1/64,3/64"),
                    ("render-csv", m_text, "--out", MISSING_DIR_OUT))[spec["b"] % 3]
            code, expected = 1 + spec["b"] % 3, ""
        got = _in_process(rm_cli, argv)
        if got != (code, expected.encode()):
            problems.append(f"in-process cli.main gave {got!r:.120}")
        # problems found here fail the job in check_cli
        spec.update(argv=argv, code=code, stdout=expected.encode(), problems=problems)

    def run(self, spec, rm):
        if self.in_process:
            import refinemask.cli as rm_cli
            return _in_process(rm_cli, spec["argv"])
        proc = subprocess.run([sys.executable, "-m", "refinemask", *spec["argv"]],
                              capture_output=True, timeout=60)
        return proc.returncode, proc.stdout


def render_csv(offset, coeffs, poly, t_min, t_max, samples) -> str:
    """The render-csv table, computed exactly and rounded once per cell."""
    def cell(x):
        return format(float(x), ".12g")

    grid = [t_min + (t_max - t_min) * i / (samples - 1) for i in range(samples)]
    parts = list(enumerate(coeffs, start=offset))
    lines = ["t,total," + ",".join(f"part_{j}" for j, _ in parts)]
    for t in grid:
        row = [cell(t), cell(checks.eval_poly(poly, t))]
        row += [cell(2 * c * checks.eval_poly(poly, 2 * t - j)) for j, c in parts]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_NUMBER = re.compile(rb"-?[0-9]+(?:/[0-9]+)?")


def output_rationals(plain):
    """Every rational in an output, for the bit-size counters."""
    if isinstance(plain, bytes):
        for tok in _NUMBER.findall(plain):
            yield Fraction(tok.decode())
    elif isinstance(plain, (tuple, list)):
        for x in plain:
            yield from output_rationals(x)
    elif isinstance(plain, (int, Fraction)) and not isinstance(plain, bool):
        yield Fraction(plain)


WORKLOADS = {w.name: w for w in (Ladder, Coset, Cascade, Cli)}
