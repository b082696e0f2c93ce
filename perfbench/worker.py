"""Run one workload in a fresh interpreter and print one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Modes:

* timed   -- closed loop with tracing off, for the end-to-end metrics;
* traced  -- half the time untraced, half traced (per-layer spans and the
             tracing overhead), then the size sweep and interpreter start-up;
* repeat  -- only the reference block (block 0), for the exact-repeat check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checks
import workloads
from tracing import QUOTIENT_WIDTH, Tracer

MIN_JOBS = 100  # so that at least ten latencies lie beyond p90
STARTUP_SAMPLES = 9
_ITERATIONS = re.compile(rb"^iterations: ([0-9]+)$", re.M)


# Probe time that defines the reference host speed (this probe's time on
# the 2-vCPU sandbox the benchmark was tuned on, in its faster state).
PROBE_REFERENCE_S = 0.0125
_PROBE_POLY = tuple(Fraction((-1) ** k * (k * k + 131), 1 + k % 15) for k in range(33))


def probe() -> float:
    """Seconds for a fixed, package-free Fraction workload: the host's speed now.

    Four exact Taylor shifts of a fixed degree-32 polynomial, the kind of
    arithmetic the package does.  The host's CPU speed drifts by up to 2x
    over seconds to minutes; timing this probe around every block lets the
    end-to-end timings be scaled to one reference speed.
    """
    gc.collect()
    t0 = time.perf_counter()
    coeffs = _PROBE_POLY
    for shift in (1, -2, 3, -1):
        out = [Fraction(0)] * len(coeffs)
        for k, c in enumerate(coeffs):
            for j in range(k + 1):
                out[j] += c * math.comb(k, j) * shift ** (k - j)
        coeffs = out
    return time.perf_counter() - t0


class Loop:
    """Results of a closed loop over whole blocks of a workload.

    latencies and wall are as measured; the scaled_ ones are multiplied,
    block by block, by PROBE_REFERENCE_S / (mean probe time around the block).
    """

    def __init__(self):
        self.latencies = []
        self.wall = 0.0
        self.scaled_latencies = []
        self.scaled_wall = 0.0
        self.probes = []
        self.failed = 0
        self.problems = []
        self.job_digests = []
        self.reference = None  # (job digests, work counters) of block 0


def work_counters(wl, specs, plains) -> dict:
    num_bits = den_bits = steps = converged = runs = 0
    for spec, plain in zip(specs, plains):
        if plain is None:
            continue
        for q in workloads.output_rationals(plain):
            num_bits = max(num_bits, q.numerator.bit_length())
            den_bits = max(den_bits, q.denominator.bit_length())
        if wl.name == "cascade":
            steps, converged, runs = steps + plain[1], converged + plain[3], runs + 1
        elif wl.name == "cli" and spec["k"] == 7:
            steps += int(_ITERATIONS.search(plain[1]).group(1))
            converged, runs = converged + (b"converged: true" in plain[1]), runs + 1
    return {"work.output_num_bits_max": num_bits, "work.output_den_bits_max": den_bits,
            "refinement.cascade.steps": steps,
            "refinement.cascade.converged_share": converged / runs if runs else 0.0}


def run_loop(wl, rm, seed, seconds, min_jobs=0, tracer=None, max_blocks=None) -> Loop:
    """Whole blocks until `seconds` of timed wall time and `min_jobs` jobs.

    Input generation, CLI expectations and output checks happen between
    blocks and are not timed; the tracer is installed only while a block's
    jobs run.
    """
    loop = Loop()
    block = 0
    while True:
        specs = [wl.spec(seed, i) for i in range(block * wl.block, (block + 1) * wl.block)]
        for spec in specs:
            wl.prepare(spec, rm)
        before = probe()
        raws, latencies = [], []
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        for spec in specs:
            t0 = time.perf_counter()
            try:
                raws.append((wl.run(spec, rm), None))
            except Exception as exc:  # a raising job is a failed job, not a crash
                raws.append((None, repr(exc)))
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        after = probe()
        scale = PROBE_REFERENCE_S / ((before + after) / 2)
        loop.latencies += latencies
        loop.wall += wall
        loop.scaled_latencies += [t * scale for t in latencies]
        loop.scaled_wall += wall * scale
        loop.probes += [before, after]
        plains = []
        for spec, (raw, error) in zip(specs, raws):
            plain = None if error else wl.output(spec, raw)
            problems = [f"raised {error}"] if error else wl.check(spec, plain)
            if problems:
                loop.failed += 1
                loop.problems.append(f"{wl.name} job {spec['i']}: {problems}")
            plains.append(plain)
            loop.job_digests.append(hashlib.sha256(repr((spec["i"], plain)).encode()).hexdigest()[:16])
        if block == 0:
            counters = work_counters(wl, specs, plains)
            if tracer is not None:
                counters[QUOTIENT_WIDTH] = tracer.quotient_width_sum
            loop.reference = (loop.job_digests[:], counters)
        block += 1
        if max_blocks is not None and block >= max_blocks:
            return loop
        if loop.wall >= seconds and len(loop.latencies) >= min_jobs:
            return loop


def _timed_call(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def sweep(rm, seed):
    """One call each at the sizes ROADMAP item 1 names, tracing off.

    n=128 (about 13 s for verify alone) and width 10**4 (minutes of reduce)
    stay out until the moment core and integer kernels land.
    """
    metrics, problems = {}, []
    for n in (16, 64):
        rng = workloads.job_rng(seed, "sweep", n)
        p = workloads.monic(rng, n)
        m, t = _timed_call(rm.mask_from_poly, rm.Polynomial(p))
        metrics[f"refinement.mask_from_poly.n{n}_s"] = t
        q, t = _timed_call(rm.poly_from_mask, m)
        metrics[f"refinement.poly_from_mask.n{n}_s"] = t
        ok, t = _timed_call(rm.verify_refines, m, rm.Polynomial(p))
        metrics[f"refinement.verify_refines.n{n}_s"] = t
        matrix, t = _timed_call(rm.refinement_matrix, m, n)
        metrics[f"refinement.refinement_matrix.n{n}_s"] = t
        problems += checks.check_ladder({"n": n, "poly": p, "perturb": None},
                                        ((m.offset, m.coeffs), q.coeffs, ok))
        if [matrix[j, j] for j in range(n + 1)] != [Fraction(2 ** j, 2 ** n) for j in range(n + 1)]:
            problems.append(f"refinement_matrix n={n}: diagonal is not 2**-n..1")
    for width in (500, 1000):
        rng = workloads.job_rng(seed, "sweep", f"w{width}")
        p = workloads.monic(rng, 4)
        nodes = workloads.jittered_nodes(rng, 4, width)
        a = rm.mask_from_poly_at_nodes(rm.Polynomial(p), nodes)
        reduced, t = _timed_call(rm.reduce_mod_difference, a, 4)
        metrics[f"mask.reduce_mod_difference.w{width}_s"] = t
        rem, quo = reduced
        rebuilt = checks.add(checks.sparse(rem.offset, rem.coeffs),
                             checks.convolve(checks.sparse(quo.offset, quo.coeffs),
                                             checks.difference_power(5)))
        problems += checks.support_problems(f"remainder w={width}", rem.offset, rem.coeffs, range(5))
        if rebuilt != checks.sparse(a.offset, a.coeffs):
            problems.append(f"reduce w={width}: remainder + quotient*(1,-1)**5 != mask")
    rng = workloads.job_rng(seed, "sweep", "cascade")
    spec = {"n": 9, "budget": 500, "tol": Fraction(1, 2 ** 4000)}
    report, t = _timed_call(rm.cascade, rm.Mask(0, workloads.positive_mask(rng, 9)),
                            rm.Polynomial.monomial(9), 500, spec["tol"])
    metrics["refinement.cascade.d9_it500_s"] = t
    problems += checks.check_cascade(spec, (report.result.coeffs, report.iterations,
                                            report.final_delta, report.converged))
    return metrics, problems


def startup_costs() -> dict:
    """Fresh interpreters: `-c pass`, and `import refinemask.cli` minus that.

    The two run in alternation and the import cost is the median of the
    paired differences, so a change in machine speed affects both alike.
    """
    def run(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        return time.perf_counter() - t0

    pairs = [(run("pass"), run("import refinemask.cli")) for _ in range(STARTUP_SAMPLES)]
    return {"cli.interpreter_start_s": statistics.median(bare for bare, _ in pairs),
            "cli.import_s": statistics.median(imp - bare for bare, imp in pairs)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced", "repeat"))
    parser.add_argument("--traced-repeat", action="store_true")
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    import refinemask as rm
    if not os.path.abspath(rm.__file__).startswith(src + os.sep):
        raise SystemExit(f"refinemask was imported from {rm.__file__}, not from {src}")
    wl = workloads.WORKLOADS[args.workload]()
    if args.workload == "cli" and os.path.exists(os.path.dirname(workloads.MISSING_DIR_OUT)):
        raise SystemExit(f"{workloads.MISSING_DIR_OUT}: its directory must not exist")

    result = {}
    if args.mode == "repeat":
        wl.in_process = args.traced_repeat
        tracer = Tracer() if args.traced_repeat else None
        loop = run_loop(wl, rm, args.seed, 0, tracer=tracer, max_blocks=1)
    elif args.mode == "timed":
        loop = run_loop(wl, rm, args.seed, args.seconds, MIN_JOBS)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result.update(latencies=loop.latencies, wall=loop.wall,
                      scaled_latencies=loop.scaled_latencies, scaled_wall=loop.scaled_wall,
                      probe_s=statistics.median(loop.probes),
                      peak_rss_mib=resource.getrusage(who).ru_maxrss / 1024)
    else:
        # the CLI mix is replayed in-process through cli.main here
        wl.in_process = True
        plain = run_loop(wl, rm, args.seed, args.seconds / 2)
        tracer = Tracer()
        loop = run_loop(wl, rm, args.seed, args.seconds / 2, tracer=tracer)
        untraced_rate = len(plain.latencies) / plain.scaled_wall
        traced_rate = len(loop.latencies) / loop.scaled_wall
        sweep_metrics, sweep_problems = sweep(rm, args.seed)
        loop.failed += plain.failed + bool(sweep_problems)
        loop.problems += plain.problems + sweep_problems
        metrics = {name: list(value) for name, value in tracer.metrics().items()}
        metrics.update({k: [v, "s"] for k, v in sweep_metrics.items()})
        metrics.update({k: [v, "s"] for k, v in startup_costs().items()})
        metrics["tracing.overhead_ratio"] = [traced_rate / untraced_rate, "ratio"]
        result.update(metrics=metrics, self_time=tracer.self_time(),
                      attempted=len(plain.latencies) + len(loop.latencies) + len(sweep_metrics))
    result.update(jobs=len(loop.latencies), failed=loop.failed, problems=loop.problems[:10],
                  reference=loop.reference,
                  digest=hashlib.sha256("".join(loop.job_digests).encode()).hexdigest()[:16])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
