"""The refinemask benchmark: one command for every metric.

    python3 perfbench/run.py --workload {ladder,coset,cascade,cli,all} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ./src.
The load is a closed loop with one client: each job starts only after the
previous one has finished, in one worker process per workload (the cli
workload runs one `python -m refinemask` child at a time).  Inputs come
from --seed alone; every output is checked (see checks.py).

--trace 0 reports the end-to-end metrics, measured with tracing off.  Their
job timings are scaled to a reference host speed by a fixed probe timed
around every block (see worker.probe); the unscaled figures are printed too.
--trace 1 reports the per-layer metrics from a separate traced run.
Both also re-run the reference block (block 0) in a second fresh worker
with another hash seed; outputs and work counters must repeat exactly.
Every metric is printed by name with its unit, and the last line is one
JSON object.  The exit code is 1 when a job fails its check or the repeat
differs, 2 when the checkout has no src/refinemask.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from tracing import DOMINANT_ON
from worker import PROBE_REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ladder", "coset", "cascade", "cli")
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_worker(args, hash_seed: int, timeout: float) -> dict:
    """Run worker.py in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            env=child_env(hash_seed), stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {args} ran out of its {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def setup_seconds(workload: str) -> float:
    """Median time to import the package in a fresh interpreter.

    One warm-up import first, so bytecode caches exist as for a user.
    """
    modules = "refinemask, refinemask.cli" if workload == "cli" else "refinemask"
    code = ("import time; t0 = time.perf_counter(); "
            f"import {modules}; print(time.perf_counter() - t0)")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(0), check=True,
                             capture_output=True, timeout=60).stdout
        if i:
            samples.append(float(out))
    return statistics.median(samples)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def repeat_mismatches(reference, repeat) -> int:
    """Jobs of block 0 whose output digests differ, plus one if the counters do."""
    (digests, counters), (digests2, counters2) = reference, repeat
    bad = sum(a != b for a, b in zip(digests, digests2)) + abs(len(digests) - len(digests2))
    common = counters.keys() & counters2.keys()
    return bad + any(counters[k] != counters2[k] for k in common)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """(metrics {name: (value, unit)}, attempted, failed, notes)."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    notes = []
    if trace:
        res = run_worker(common + ["--mode", "traced"], 0, WORKER_TIMEOUT_S)
        again = run_worker(common + ["--mode", "repeat", "--traced-repeat"], 1, 60)
        metrics = {name: tuple(v) for name, v in res["metrics"].items()}
        attempted = res["attempted"]
        self_time = res["self_time"]
        total_self = sum(self_time.values()) or 1.0
        notes.append("traced self-time share by table row: " + ", ".join(
            f"{row} {sum(self_time[n] for n in names) / total_self:.0%}"
            for row, names in DOMINANT_ON.items()))
        top = sorted(self_time.items(), key=lambda kv: -kv[1])[:5]
        notes.append("largest self times: " + ", ".join(
            f"{name} {value / total_self:.0%}" for name, value in top))
    else:
        setup = setup_seconds(workload)
        res = run_worker(common + ["--mode", "timed"], 0, WORKER_TIMEOUT_S)
        again = run_worker(common + ["--mode", "repeat"], 1, 60)
        lat = res["scaled_latencies"]
        metrics = {
            "setup_s": (setup, "s"),
            "throughput_jobs_per_s": (len(lat) / res["scaled_wall"], "jobs/s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": (p90(lat), "s"),
            "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        }
        attempted = len(lat)
        raw = res["latencies"]
        notes.append(f"{len(raw)} jobs in {res['wall']:.2f} s of timed loop; median probe "
                     f"{res['probe_s']:.4f} s (reference {PROBE_REFERENCE_S} s)")
        notes.append(f"as measured, unscaled: {len(raw) / res['wall']:.4f} jobs/s, "
                     f"p50 {statistics.median(raw):.4f} s, p90 {p90(raw):.4f} s")
    mismatched = repeat_mismatches(res["reference"], again["reference"])
    failed = min(attempted, res["failed"] + mismatched)
    counters = res["reference"][1]
    notes.append("work counters (block 0): " + ", ".join(f"{k}={v}" for k, v in counters.items()))
    notes.append(f"output digest: block 0 {again['digest']}, all jobs {res['digest']}")
    notes.append("exact repeat: " + ("identical" if not mismatched else f"{mismatched} MISMATCHES"))
    notes += res["problems"]
    if trace:
        metrics["failed_share"] = (failed / attempted, "ratio")
        for name in sorted(counters):
            metrics[name] = (counters[name], "bits" if name.startswith("work.") else
                             ("ratio" if name.endswith("_share") else "count"))
    else:
        notes.append(f"failed_share {failed / attempted} ratio")
    return metrics, attempted, failed, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "refinemask", "__init__.py")):
        print("error: run from the root of a refinemask checkout (no src/refinemask here)",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, attempted, failed, notes = measure(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for note in notes:
            print(f"   {note}")
        for metric, (value, unit) in metrics.items():
            print(f"{prefix}{metric} {value} {unit}")
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
        result["attempted"] += attempted
        result["failed"] += failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
