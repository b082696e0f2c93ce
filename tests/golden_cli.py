"""A seeded argv corpus for the command line, and its golden transcript.

cases() lists about 200 argv over all seven subcommands: valid, arbitrary
and malformed masks and polynomials, deep degrees and far offsets that
finish in milliseconds, --nodes, cascade budgets and tolerances, and
render-csv over rational ranges, with every exit code of the contract
(0 ok, 1 domain, 2 parse, 3 I/O).  transcript() runs each argv in-process
through cli.main and writes down its exit code, stdout and stderr;
test_cli.py compares that with the committed golden_cli.txt, so a change
in anything the CLI prints shows as a diff.

    PYTHONPATH=src python tests/golden_cli.py > tests/golden_cli.txt

rewrites the file.  Do that only for an intended output change, and say so
in CHANGES.md.  The argv come from util's generators, so changing those
changes the corpus and fails the comparison as well.

Spans are either small or far past any index (10**30, which no list can
have), never in between, so no case depends on how much memory the host
lets a process allocate.  The argparse errors in the corpus are the ones
whose wording Python 3.10 to 3.12 share: no --help and no unknown
subcommand.
"""

import contextlib
import io
import os
import random
import shlex
import sys
import tempfile
from fractions import Fraction

from refinemask import Mask, Polynomial, extend_mask, mask_from_poly, poly_from_mask, refined_degree
from refinemask.cli import main
from util import rand_fraction, rand_mask, rand_poly, rand_valid_mask

SEED = 20101
FAR = 10 ** 30
BAD_MASKS = ["", "0:", "1/64,3/64", "0:1/0", "0:1/-2", "0: 1", "x:1", "0:1,,2",
             "0:+1", "0:1.5", "0:1e3", "0:1_0", "0:٣", "0:0x10"]
BAD_POLYS = ["", "1,,2", "1.5", " 1", "1/0", "1/-3", "١,2"]


def _deep_mask(rng: random.Random, n: int, width: int) -> Mask:
    """A mask of the given width whose sum is 2**-(n+1), so it refines degree n."""
    coeffs = [rand_fraction(rng, 20, 20, nonzero=True) for _ in range(width - 1)]
    return Mask(rng.randint(-9, 9), coeffs + [Fraction(1, 2 ** (n + 1)) - sum(coeffs)])


def cases() -> list:
    """The corpus, in a fixed order; "--" keeps negative offsets from reading as flags."""
    rng = random.Random(SEED)
    out = []

    def add(*argv):
        out.append([str(a) for a in argv])

    def valid(max_degree=8, max_width=12, spread=30):
        m = rand_valid_mask(rng, max_degree=max_degree, max_width=max_width)
        return m.translate(rng.randint(-spread, spread))

    # poly-from-mask
    for _ in range(14):
        add("poly-from-mask", "--", valid())
    for n, width in [(24, 3), (40, 2), (63, 5)]:
        add("poly-from-mask", "--", _deep_mask(rng, n, width))
    add("poly-from-mask", f"0:1/{2 ** 300}")
    for shift in [10 ** 12, -10 ** 12, FAR, -FAR]:
        add("poly-from-mask", "--", valid(max_degree=3, max_width=5).translate(shift))
    for _ in range(5):
        add("poly-from-mask", "--", rand_mask(rng, max_width=6))
    for text in rng.sample(BAD_MASKS, 5):
        add("poly-from-mask", "--", text)

    # mask-from-poly, with and without --nodes
    for _ in range(10):
        add("mask-from-poly", "--", rand_poly(rng, rng.randint(0, 8)))
    add("mask-from-poly", Polynomial.monomial(40))
    add("mask-from-poly", "--", rand_poly(rng, 20))
    for _ in range(8):
        p = rand_poly(rng, rng.randint(0, 7))
        nodes = rng.sample(range(-40, 41), p.degree + 1)
        if rng.random() < 0.5:
            nodes.sort()
        add("mask-from-poly", f"--nodes={','.join(map(str, nodes))}", "--", p)
    for base in [10 ** 12, -10 ** 12]:
        p = rand_poly(rng, 3)
        nodes = sorted(base + x for x in rng.sample(range(30), 4))
        add("mask-from-poly", f"--nodes={','.join(map(str, nodes))}", "--", p)
    add("mask-from-poly", "1,1", "--nodes", f"0,{FAR}")
    add("mask-from-poly", "5/2,-3,1", "--nodes", "0,1")
    add("mask-from-poly", "5/2,-3,1", "--nodes", "0,1,1")
    for nodes in ["0,1,x", "0, 1,2", "0,+1,2", "0,1_0,2", ""]:
        add("mask-from-poly", "5/2,-3,1", "--nodes", nodes)
    add("mask-from-poly", "0")
    add("mask-from-poly", "0,0,0")
    for text in rng.sample(BAD_POLYS, 4):
        add("mask-from-poly", "--", text)

    # verify: refined pairs, perturbed pairs, arbitrary masks
    for _ in range(8):
        m = valid(max_degree=6)
        p = poly_from_mask(m).scale(rand_fraction(rng, 9, 9, nonzero=True))
        add("verify", "--", m, p)
    for _ in range(5):
        m = valid(max_degree=6)
        add("verify", "--", m, poly_from_mask(m) + rand_poly(rng, rng.randint(0, 3)))
    for _ in range(3):
        add("verify", "--", rand_mask(rng, max_width=5), rand_poly(rng, rng.randint(0, 3)))
    add("verify", "0:3/8,-3/8,1/8", "1,2,1")
    add("verify", "0:1/2", "0")
    add("verify", "--", rng.choice(BAD_MASKS), "1")
    add("verify", "0:1/2", "--", rng.choice(BAD_POLYS))

    # equiv: extended pairs, other classes, other degrees, far apart
    for _ in range(9):
        m = valid(max_degree=6, max_width=8)
        n = refined_degree(m)
        add("equiv", "--", extend_mask(m, rand_mask(rng, max_width=5), n), m)
    for _ in range(4):
        add("equiv", "--", valid(max_degree=4), valid(max_degree=4))
    for _ in range(2):
        m = valid(max_degree=4)
        add("equiv", "--", m, mask_from_poly(rand_poly(rng, refined_degree(m) + 1)))
    add("equiv", "--", rand_mask(rng, max_width=4), valid(max_degree=3))
    add("equiv", "0:1/2", f"{FAR}:1/2")
    add("equiv", "0:1/4", f"{FAR}:1/4")
    add("equiv", "--", f"-{FAR}:1/4,1/4", f"{FAR}:1/4,1/4")
    add("equiv", "0:1/64,3/64,3/64,1/64", "0:1/32,0,3/32")
    add("equiv", "--", "0:1/2", rng.choice(BAD_MASKS))

    # reduce: valid, wide, deep, far
    for _ in range(10):
        add("reduce", "--", valid())
    for _ in range(3):
        m = valid(max_degree=5, max_width=6)
        add("reduce", "--", extend_mask(m, rand_mask(rng, max_width=20, max_den=7),
                                        refined_degree(m)))
    add("reduce", "--", _deep_mask(rng, 30, 40))
    add("reduce", f"0:1/{2 ** 300}")
    add("reduce", f"{FAR}:1/2")
    add("reduce", "--", f"-{FAR}:1/16,1/16,1/16,-1/8")
    add("reduce", "--", valid(max_degree=3, max_width=6).translate(10 ** 12))
    for _ in range(3):
        add("reduce", "--", rand_mask(rng, max_width=6))
    for text in rng.sample(BAD_MASKS, 3):
        add("reduce", "--", text)

    # cascade: defaults, budgets, tolerances, start polynomials
    tolerances = ["1/1099511627776", "1/3", "7/5", "1/1000", f"1/{2 ** 200}", "2"]
    for _ in range(6):
        add("cascade", "--", valid(max_degree=6, max_width=8))
    for _ in range(12):
        m = valid(max_degree=6, max_width=8)
        n = refined_degree(m)
        argv = ["cascade", f"--max-iter={rng.randint(1, 40)}", f"--tol={rng.choice(tolerances)}"]
        if rng.random() < 0.6:
            argv.append(f"--p0={rand_poly(rng, rng.randint(0, n))}")
        add(*argv, "--", m)
    add("cascade", "0:1/64,3/64,3/64,1/64", "--p0", "5/2,-3,1")
    add("cascade", "0:1/64,3/64,3/64,1/64", "--p0", "0")
    add("cascade", "0:1/64,3/64,3/64,1/64", "--max-iter", "3000", "--tol", f"1/{2 ** 9000}")
    add("cascade", "0:1/64,3/64,3/64,1/64", "--p0", "0,0,0,1")
    add("cascade", "0:1/64,3/64,3/64,1/64", "--max-iter", "0")
    add("cascade", "0:1/64,3/64,3/64,1/64", "--max-iter=-2")
    add("cascade", "0:1/64,3/64,3/64,1/64", "--tol", "0")
    add("cascade", "0:1/64,3/64,3/64,1/64", "--tol=-1/2")
    add("cascade", "0:1/64,3/64,3/64,1/64", "--tol", "x")
    add("cascade", "0:1/64,3/64,3/64,1/64", "--p0", "1,,1")
    add("cascade", "0:1/8,3/8,3/8,1/8")
    add("cascade", "--", rng.choice(BAD_MASKS))

    # render-csv over rational ranges
    for _ in range(12):
        m = valid(max_degree=6, max_width=8)
        t_min, t_max = rand_fraction(rng, 20, 20), rand_fraction(rng, 20, 20)
        add("render-csv", f"--t-min={t_min}", f"--t-max={t_max}",
            f"--samples={rng.randint(1, 12)}", "--", m)
    add("render-csv", "0:1/64,3/64,3/64,1/64")
    add("render-csv", "0:1/16,3/16,3/16,1/16", "--t-min", "1/2", "--t-max", "1/2",
        "--samples", "1")
    add("render-csv", "--t-min=-7/3", "--t-max=-7/3", "--samples=4", "--", "-2:1/4")
    add("render-csv", "0:1/2", "--t-max", "1" + "0" * 400, "--samples", "2")
    add("render-csv", "0:1/2", "--samples", "0")
    add("render-csv", "0:1/2", "--samples=-3")
    add("render-csv", "0:1,1")
    add("render-csv", "0:1/2", "--t-min", "0.5")
    add("render-csv", "0:1/2", "--samples", "3", "--out", "no-such-dir/parts.csv")
    add("render-csv", "0:1/2", "--samples", "3", "--out", ".")
    add("render-csv", "--", rng.choice(BAD_MASKS))

    # argparse's own exits
    add()
    add("verify", "0:1/2")
    add("cascade", "--max-iter", "x", "0:1/2")
    add("render-csv", "--samples", "1.5", "0:1/2")
    add("poly-from-mask", "--bogus", "0:1/2")
    add("mask-from-poly", "1,1", "--nodes")
    return out


def _run(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's exits
            code = exc.code
    lines = [f"$ refinemask {shlex.join(argv)}", f"exit {code}"]
    for mark, text in (("1|", out.getvalue()), ("2|", err.getvalue())):
        body = text.split("\n")
        tail = body.pop()  # "" when the text ends with a newline
        lines.extend(f"{mark} {line}" for line in body)
        if tail:
            lines += [f"{mark} {tail}", f"{mark}\\ no newline at end"]
    return "\n".join(lines) + "\n"


def transcript() -> str:
    """Every case's argv, exit code, stdout (1|) and stderr (2|), in order.

    Runs in an empty temporary directory with COLUMNS=80, so relative
    --out paths and argparse's line wrapping do not depend on the caller.
    """
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            return "".join(_run(argv) for argv in cases())
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


if __name__ == "__main__":
    sys.stdout.write(transcript())
