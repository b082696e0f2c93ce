"""Tests of the benchmark itself: each checker rejects a wrong output.

    python3 -m pytest perfbench -q
"""

import os
import subprocess
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import refinemask  # noqa: E402
import workloads  # noqa: E402
from run import repeat_mismatches  # noqa: E402
from worker import run_loop  # noqa: E402

P = (F(5, 2), F(-3), F(1))                   # refined by the cubic B-spline mask
CANONICAL = (0, (F(1, 32), F(0), F(3, 32)))
BSPLINE = (0, (F(1, 64), F(3, 64), F(3, 64), F(1, 64)))


def test_refines_identity():
    assert checks.refines(*BSPLINE, P)
    assert checks.refines(*CANONICAL, P)
    assert not checks.refines(0, (F(1, 32), F(0), F(3, 32)), (F(2),) + P[1:])
    assert not checks.refines(0, (F(1, 32), F(1, 64), F(3, 32)), P)


def test_ladder_check_rejects_each_wrong_output():
    spec = {"n": 2, "poly": P, "perturb": None}
    assert checks.check_ladder(spec, (CANONICAL, P, True)) == []
    assert checks.check_ladder(spec, ((0, (F(1, 32), F(1, 64), F(3, 32))), P, True))
    assert checks.check_ladder(spec, (BSPLINE, P, True))          # refines, but not on 0..n
    assert checks.check_ladder(spec, (CANONICAL, (F(2), F(-3), F(1)), True))
    assert checks.check_ladder(spec, (CANONICAL, P, False))
    assert checks.check_ladder(dict(spec, perturb=F(1)), (CANONICAL, P, True))


def test_coset_check_rejects_a_wrong_witness():
    spec = {"n": 2, "poly": P, "kind": "extend", "v": {0: F(-1, 64)}}
    good = (BSPLINE, CANONICAL, (0, (F(-1, 64),)), P)
    assert checks.check_coset(spec, good) == []
    assert checks.check_coset(spec, (BSPLINE, CANONICAL, (0, (F(1, 64),)), P))
    assert checks.check_coset(spec, (BSPLINE, CANONICAL, None, P))
    assert checks.check_coset(spec, (BSPLINE, CANONICAL, (0, (F(-1, 64),)), (F(0),) + P[1:]))
    nodes = dict(spec, kind="nodes", nodes=(0, 1, 2))
    assert checks.check_coset(nodes, good)                         # index 3 is not a node


def test_cascade_check_rejects_each_broken_invariant():
    spec = {"n": 2, "budget": 10, "tol": F(1, 1024)}
    good = ((F(5, 2), F(-3), F(1)), 7, F(1, 2048), True)
    assert checks.check_cascade(spec, good) == []
    assert checks.check_cascade(spec, ((F(5, 2), F(-3), F(2)), 7, F(1, 2048), True))
    assert checks.check_cascade(spec, (good[0], 11, F(1, 2048), True))
    assert checks.check_cascade(spec, (good[0], 7, F(1, 2048), False))
    assert checks.check_cascade(spec, (good[0], 7, F(1, 512), False))  # stopped early


def test_cli_check_rejects_wrong_code_or_bytes():
    spec = {"code": 0, "stdout": b"5/2,-3,1\n"}
    assert checks.check_cli(spec, (0, b"5/2,-3,1\n")) == []
    assert checks.check_cli(spec, (0, b"5/2,-3,1"))
    assert checks.check_cli(spec, (1, b"5/2,-3,1\n"))
    assert checks.check_cli(dict(spec, problems=["in-process result differs"]), (0, b"5/2,-3,1\n"))


def test_render_csv_matches_the_cli():
    import refinemask.cli
    argv = ("render-csv", "0:1/32,0,3/32", "--t-min", "-1", "--t-max", "2", "--samples", "7")
    expected = workloads.render_csv(0, CANONICAL[1], P, F(-1), F(2), 7).encode()
    assert workloads._in_process(refinemask.cli, argv) == (0, expected)


class _OneJobCascade(workloads.Cascade):
    block = 1


def test_a_wrong_output_is_counted_as_failed():
    class FlippedFlag(_OneJobCascade):
        def output(self, spec, raw):
            result, iterations, delta, converged = super().output(spec, raw)
            return result, iterations, delta, not converged

    assert run_loop(_OneJobCascade(), refinemask, 1, 0, max_blocks=1).failed == 0
    assert run_loop(FlippedFlag(), refinemask, 1, 0, max_blocks=1).failed == 1


def test_a_raising_job_is_counted_as_failed():
    class Raises(_OneJobCascade):
        def spec(self, seed, i):
            return dict(super().spec(seed, i), budget=0)   # cascade rejects max_iter < 1

    loop = run_loop(Raises(), refinemask, 1, 0, max_blocks=1)
    assert loop.failed == 1 and "raised" in loop.problems[0]


def test_same_seed_repeats_and_mismatches_are_counted():
    first = run_loop(_OneJobCascade(), refinemask, 5, 0, max_blocks=1).reference
    second = run_loop(_OneJobCascade(), refinemask, 5, 0, max_blocks=1).reference
    assert repeat_mismatches(first, second) == 0
    assert repeat_mismatches(first, (["0" * 16], second[1])) == 1
    assert repeat_mismatches(first, (second[0], dict(second[1], **{"refinement.cascade.steps": -1}))) == 1


def test_inputs_depend_only_on_the_seed():
    for wl in (workloads.Ladder(), workloads.Coset(), workloads.Cascade(), workloads.Cli()):
        assert wl.spec(3, 17) == wl.spec(3, 17)
        assert wl.spec(3, 17) != wl.spec(4, 17)


def test_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
