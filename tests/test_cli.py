"""Command line contract: output strings, exit codes, round trips."""

import difflib
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from refinemask import (
    Mask,
    Polynomial,
    mask_from_poly,
    poly_from_mask,
    reduce_mod_difference,
    refined_degree,
)
from refinemask import cli
from refinemask.cli import main
import golden_cli
import reference
from util import rand_fraction, rand_mask, rand_poly, rand_valid_mask

BSPLINE_TEXT = "0:1/64,3/64,3/64,1/64"
FAR = "1" + "0" * 30  # an index no dense list can reach


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_bounded(*argv, seconds=60, memory=2 ** 30):
    """Run the CLI in a child process under a time and address-space limit.

    For inputs that once built a mask as wide as their indices: a
    regression then fails the test instead of filling the machine's memory.
    """
    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    proc = subprocess.run([sys.executable, "-m", "refinemask", *argv],
                          capture_output=True, text=True, timeout=seconds,
                          preexec_fn=limit if os.name == "posix" else None)
    return proc.returncode, proc.stdout, proc.stderr


def test_poly_from_mask_chain(capsys):
    assert run(capsys, "poly-from-mask", "0:1/16,3/16,3/16,1/16") == (0, "1\n", "")
    assert run(capsys, "poly-from-mask", "0:1/32,3/32,3/32,1/32") == (0, "-3/2,1\n", "")
    assert run(capsys, "poly-from-mask", BSPLINE_TEXT) == (0, "5/2,-3,1\n", "")


def test_poly_from_mask_domain_failure(capsys):
    code, out, err = run(capsys, "poly-from-mask", "0:1/8,3/8,3/8,1/8")
    assert code == 1
    assert out == ""
    assert "mask does not refine a polynomial" in err


def test_poly_from_mask_parse_failure(capsys):
    code, _, err = run(capsys, "poly-from-mask", "1/64,3/64")
    assert code == 2
    assert "error" in err


def test_poly_from_mask_deep_degree(capsys):
    # degree 1199: far deeper than any recursion limit
    code, out, err = run(capsys, "poly-from-mask", f"0:1/{2 ** 1200}")
    assert (code, err) == (0, "")
    assert Polynomial.parse(out.strip()) == Polynomial.monomial(1199)


def test_oversized_coefficient_is_parse_error(capsys):
    code, out, err = run(capsys, "poly-from-mask", "0:1/" + "1" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_mask_from_poly(capsys):
    assert run(capsys, "mask-from-poly", "5/2,-3,1") == (0, "0:1/32,0,3/32\n", "")


def test_mask_from_poly_nodes(capsys):
    code, out, _ = run(capsys, "mask-from-poly", "5/2,-3,1", "--nodes", "1,2,3")
    assert code == 0
    assert out == "1:3/32,0,1/32\n"


def test_mask_from_poly_bad_nodes(capsys):
    code, _, err = run(capsys, "mask-from-poly", "5/2,-3,1", "--nodes", "0,1")
    assert code == 1
    code, _, err = run(capsys, "mask-from-poly", "5/2,-3,1", "--nodes", "0,1,1")
    assert code == 1
    code, _, err = run(capsys, "mask-from-poly", "5/2,-3,1", "--nodes", "0,1,x")
    assert code == 2
    for nodes in ["0,1_0,2", "0, 1,2", "0,\u0661,2", "0,+1,2"]:
        code, out, err = run(capsys, "mask-from-poly", "5/2,-3,1", "--nodes", nodes)
        assert (code, out) == (2, "")
    # a span no dense mask can index is a domain error, not an OverflowError
    code, out, err = run(capsys, "mask-from-poly", "1,1", "--nodes", f"0,{FAR}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    # nor is a span that fits an index but not a 1 GiB address space
    code, out, err = run_bounded("mask-from-poly", "1,1", "--nodes", f"0,{10 ** 15}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "too wide for a dense mask" in err


def test_mask_from_poly_zero_polynomial(capsys):
    code, _, err = run(capsys, "mask-from-poly", "0")
    assert code == 1


def test_verify_ok(capsys):
    assert run(capsys, "verify", "0:3/8,-3/8,1/8", "1,2,1") == (0, "OK\n", "")


def test_verify_failure_prints_residual(capsys):
    code, out, _ = run(capsys, "verify", "0:1/16,3/16,3/16,1/16", "0,1")
    assert code == 1
    assert out == "-3/2,1\n"  # refine_apply(m, t) - t


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", BSPLINE_TEXT, "0:1/32,0,3/32")
    assert code == 0
    assert out == "0:-1/64\n"


def test_equiv_failure(capsys):
    code, out, err = run(capsys, "equiv", BSPLINE_TEXT, "0:1/16,3/16,3/16,1/16")
    assert code == 1
    assert out == ""
    assert "not equivalent" in err


def test_equiv_far_apart_classes_fail_at_once():
    # both degree 1, different moments: rejected before a - b is built
    code, out, err = run_bounded("equiv", "0:1/4", f"{FAR}:1/4")
    assert (code, out) == (1, "")
    assert "not equivalent" in err


@pytest.mark.parametrize("far", [10 ** 12, 10 ** 30])
def test_equiv_far_apart_equivalent_pair_is_too_wide(far):
    # both degree 0 with equal c_0, so equivalent, but the witness would be
    # `far` entries wide: a domain error, not a run out of memory
    code, out, err = run_bounded("equiv", "0:1/2", f"{far}:1/2")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "too wide for a dense mask" in err


def test_reduce(capsys):
    assert run(capsys, "reduce", BSPLINE_TEXT) == (0, "0:1/32,0,3/32\n", "")


def test_reduce_far_offset_builds_no_quotient():
    # the quotient would be 10**30 entries wide; only the remainder is printed
    assert run_bounded("reduce", f"{FAR}:1/2") == (0, "0:1/2\n", "")


def test_reduce_deep_degree_at_once():
    # n = 1199: the mask is already on 0..n, and the Taylor remainder finds
    # that without converting through the refined polynomial
    text = f"0:1/{2 ** 1200}"
    assert run_bounded("reduce", text, seconds=10) == (0, f"{text}\n", "")


def test_poly_from_mask_deep_degree_in_little_memory():
    # n = 800: a stored operator would be 320 000 big integers; the row walk
    # keeps the moment sums and the answer, well inside 128 MiB
    code, out, err = run_bounded("poly-from-mask", f"1:1/{2 ** 801}", memory=2 ** 27, seconds=30)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "9a9d920a04aff8fcb82ad05729b25bff93f4cf9e43c4d56bb05f0f88d8414f2a"


@pytest.mark.parametrize("argv", [
    ("equiv", "0:1/2", "2000000:1/2"),
    ("mask-from-poly", "1,1", "--nodes", "0,2000000"),
])
def test_out_of_memory_is_a_domain_failure(argv):
    # each passes the width guard but builds 2 000 000 Fractions, more than
    # 128 MiB holds: one error line and exit 1, not a traceback
    code, out, err = run_bounded(*argv, memory=2 ** 27)
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_reduce_bad_sum(capsys):
    code, _, err = run(capsys, "reduce", "0:1,1")
    assert code == 1


def test_reduce_matches_remainder(capsys):
    # the mask on 0..n refining the same polynomial is the remainder of m
    # modulo (1,-1)**(n+1)
    rng = random.Random(151)
    for _ in range(200):
        m = rand_valid_mask(rng, max_degree=8, max_width=12).translate(rng.randint(-30, 30))
        remainder = reduce_mod_difference(m, refined_degree(m)).remainder
        assert mask_from_poly(poly_from_mask(m)) == remainder
        assert run(capsys, "reduce", "--", str(m)) == (0, f"{remainder}\n", "")


def test_cascade_output(capsys):
    code, out, _ = run(capsys, "cascade", BSPLINE_TEXT)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("iterations: ")
    assert lines[1].startswith("final_delta: ")
    assert lines[2] == "converged: true"
    assert lines[3].startswith("result: ")
    iterations = int(lines[0].split(": ")[1])
    assert iterations <= 60
    delta = F(lines[1].split(": ")[1])
    assert delta < F(1, 2 ** 40)
    result = Polynomial.parse(lines[3].split(": ")[1])
    target = Polynomial.parse("5/2,-3,1")
    assert max(abs(a - b) for a, b in
               zip(result.coeffs, target.coeffs)) < F(1, 2 ** 40)


def test_cascade_flags(capsys):
    code, out, _ = run(capsys, "cascade", BSPLINE_TEXT,
                       "--max-iter", "3", "--p0", "0,0,1", "--tol", "1/1099511627776")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "iterations: 3"
    assert lines[2] == "converged: false"


def test_cascade_fixed_point(capsys):
    code, out, _ = run(capsys, "cascade", BSPLINE_TEXT, "--p0", "5/2,-3,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "iterations: 1"
    assert lines[1] == "final_delta: 0"
    assert lines[3] == "result: 5/2,-3,1"


def test_cascade_bad_tolerance(capsys):
    code, _, err = run(capsys, "cascade", BSPLINE_TEXT, "--tol", "0")
    assert code == 1
    code, _, err = run(capsys, "cascade", BSPLINE_TEXT, "--tol", "x")
    assert code == 2


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no digit limit for str(int)")
def test_cascade_result_over_digit_limit(capsys):
    # 2000 steps push the result's integers past the str(int) limit: the
    # report must fail whole, not after printing its first line
    mask = ("0:1/31744,1/95232,1/23808,1/95232,5/95232,3/31744,1/47616,1/15872,"
            "5/95232,1/31744,5/95232,1/11904,3/31744,7/95232,3/31744,1/31744,"
            "1/47616,1/31744,1/11904")
    code, out, err = run(capsys, "cascade", mask, "--max-iter", "2000",
                         "--tol", f"1/{2 ** 8000}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "digit limit" in err and "--max-iter" in err
    assert "Traceback" not in err


def test_printed_values_reparse(capsys):
    # every printed mask or polynomial is parseable back to an equal value
    cases = [
        (["poly-from-mask", BSPLINE_TEXT], Polynomial.parse, Polynomial.parse("5/2,-3,1")),
        (["mask-from-poly", "5/2,-3,1"], Mask.parse, Mask.parse("0:1/32,0,3/32")),
        (["equiv", BSPLINE_TEXT, "0:1/32,0,3/32"], Mask.parse, Mask.parse("0:-1/64")),
        (["reduce", BSPLINE_TEXT], Mask.parse, Mask.parse("0:1/32,0,3/32")),
    ]
    for argv, parser, expected in cases:
        code = main(argv)
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert parser(out) == expected


def test_render_csv_stdout(capsys):
    code, out, _ = run(capsys, "render-csv", "0:1/16,3/16,3/16,1/16",
                       "--t-min", "0", "--t-max", "3", "--samples", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,total,part_0,part_1,part_2,part_3"
    assert len(lines) == 8
    for line in lines[1:]:
        cells = [float(tok) for tok in line.split(",")]
        assert cells[1] == 1.0  # the refined polynomial is the constant 1
        assert abs(sum(cells[2:]) - cells[1]) < 1e-9
    assert lines[1].split(",")[0] == "0"
    assert lines[-1].split(",")[0] == "3"


def test_render_csv_file(tmp_path, capsys):
    out_path = tmp_path / "parts.csv"
    code, out, _ = run(capsys, "render-csv", BSPLINE_TEXT,
                       "--t-min", "-1", "--t-max", "2", "--samples", "4",
                       "--out", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.endswith("\n")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "t,total,part_0,part_1,part_2,part_3"
    assert len(lines) == 5
    row = [float(tok) for tok in lines[1].split(",")]
    assert row[0] == -1.0
    assert abs(sum(row[2:]) - row[1]) < 1e-9


def test_render_csv_rejects_invalid_mask(capsys):
    code, _, err = run(capsys, "render-csv", "0:1,1")
    assert code == 1
    assert "mask does not refine a polynomial" in err


def test_render_csv_sample_beyond_float_range(capsys):
    code, out, err = run(capsys, "render-csv", "0:1/2",
                         "--t-max", "1" + "0" * 400, "--samples", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_render_csv_single_sample(capsys):
    code, out, _ = run(capsys, "render-csv", "0:1/16,3/16,3/16,1/16",
                       "--t-min", "1/2", "--t-max", "1/2", "--samples", "1")
    assert code == 0
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("samples", ["99999999999999999999", "100000000"])
def test_render_csv_samples_beyond_memory(samples):
    # a grid that cannot be allocated is one error line and exit 1 at once,
    # not a MemoryError traceback after filling the address space
    code, out, err = run_bounded("render-csv", "0:1/4,1/4", "--samples", samples,
                                 seconds=30, memory=2 ** 29)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err == f"error: --samples {samples}: too many grid points to hold in memory\n"


def test_render_csv_io_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "f.csv"
    code, _, err = run(capsys, "render-csv", "0:1/16,3/16,3/16,1/16",
                       "--out", str(missing))
    assert code == 3
    assert "error" in err


def test_render_csv_missing_directory_fails_before_the_table(tmp_path, capsys, monkeypatch):
    def no_table(value):
        raise AssertionError("table computed before the output was checked")

    monkeypatch.setattr(cli, "_float_cell", no_table)
    missing = tmp_path / "no" / "f.csv"
    code, out, err = run(capsys, "render-csv", BSPLINE_TEXT, "--out", str(missing))
    assert (code, out) == (3, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_render_csv_later_failure_writes_no_file(tmp_path, capsys):
    argv = ["render-csv", "0:1/2", "--t-max", "1" + "0" * 400, "--samples", "2"]
    fresh = tmp_path / "fresh.csv"
    code, out, _ = run(capsys, *argv, "--out", str(fresh))
    assert (code, out) == (1, "")
    assert not fresh.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("old contents\n")
    code, out, _ = run(capsys, *argv, "--out", str(kept))
    assert (code, out) == (1, "")
    assert kept.read_text() == "old contents\n"


def test_render_csv_matches_per_part_route(capsys):
    rng = random.Random(157)
    for _ in range(150):
        m = rand_valid_mask(rng, max_degree=8, max_width=12).translate(rng.randint(-30, 30))
        t_min, t_max = rand_fraction(rng, 20, 20), rand_fraction(rng, 20, 20)
        samples = rng.randint(1, 12)
        expected = reference.render_csv(m, t_min, t_max, samples)
        assert run(capsys, "render-csv", f"--t-min={t_min}", f"--t-max={t_max}",
                   f"--samples={samples}", "--", str(m)) == (0, expected, "")


def test_fuzz_exit_codes(tmp_path, capsys):
    # seeded argv over every subcommand, mixing valid and malformed tokens:
    # each call returns an exit code of the contract or is an argparse exit
    rng = random.Random(167)
    bad = ["", "0:", "1/0", "\u0663", "1_0", " 1", "1e3", "9" * 5000]
    outs = [str(tmp_path / "f.csv"), str(tmp_path / "missing" / "f.csv")]

    def token(valid):
        return valid() if rng.random() < 0.8 else rng.choice(bad)

    def mask():
        if rng.random() < 0.6:
            return token(lambda: str(rand_valid_mask(rng, max_degree=9, max_width=12)))
        return token(lambda: str(rand_mask(rng, max_width=12)))

    def poly():
        return token(lambda: str(rand_poly(rng, rng.randint(0, 9))))

    def number(lo, hi):
        return token(lambda: str(rng.randint(lo, hi)))

    def nodes():
        pts = rng.sample(range(-5000, 5001), rng.randint(1, 10))
        if rng.random() < 0.3:
            pts.append(rng.choice(pts))
        if rng.random() < 0.5:
            pts.sort()
        return ",".join(token(lambda: str(x)) for x in pts)

    def rational():
        return token(lambda: str(rand_fraction(rng, 20, 20)))

    positional = {
        "poly-from-mask": [mask], "mask-from-poly": [poly], "verify": [mask, poly],
        "equiv": [mask, mask], "reduce": [mask], "cascade": [mask], "render-csv": [mask],
        "bogus": [mask],
    }
    options = {
        "--nodes": nodes, "--max-iter": lambda: number(-2, 40),
        "--tol": lambda: rng.choice(["0", "-1", "x", "1/1099511627776", rational()]),
        "--p0": poly, "--t-min": rational, "--t-max": rational,
        "--samples": lambda: number(-2, 40), "--out": lambda: rng.choice(outs),
    }
    own = {"mask-from-poly": ["--nodes"], "cascade": ["--max-iter", "--tol", "--p0"],
           "render-csv": ["--t-min", "--t-max", "--samples", "--out"]}
    seen = set()
    for _ in range(2000):
        command = rng.choice(sorted(positional))
        flags = own.get(command, [])
        flags = rng.sample(flags, rng.randint(0, len(flags)))
        if command == "render-csv" and "--samples" not in flags:
            flags.append("--samples")  # not the default 301 rows
        if rng.random() < 0.1:
            flags.append(rng.choice(sorted(options)))  # often not the command's own
        argv = [command]
        for flag in flags:  # "--flag=-1" lets a value start with "-"
            value = options[flag]()
            argv += [f"{flag}={value}"] if rng.random() < 0.7 else [flag, value]
        if rng.random() < 0.01:
            argv.append("-h")
        if rng.random() < 0.8:
            argv.append("--")  # so a negative mask offset is not read as a flag
        argv += [make() for make in positional[command]]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"argparse {exc.code}"
        except Exception as exc:
            pytest.fail(f"{argv!r} raised {exc!r}")
        _, err = capsys.readouterr()
        assert code in (0, 1, 2, 3, "argparse 0", "argparse 2"), argv
        assert "Traceback" not in err, argv
        seen.add(code)
    assert seen == {0, 1, 2, 3, "argparse 0", "argparse 2"}


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["poly-from-mask", "--bogus", "0:1/2"])
    assert info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "refinemask", "poly-from-mask", BSPLINE_TEXT],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5/2,-3,1\n"


def test_golden_transcript():
    # every argv of the seeded corpus prints what the committed file says,
    # byte for byte; see golden_cli.py for how the file is made
    expected = (Path(__file__).parent / "golden_cli.txt").read_text(encoding="utf-8")
    got = golden_cli.transcript()
    if got != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                    got.splitlines(keepends=True), "golden_cli.txt", "now")
        pytest.fail("CLI output differs from the golden transcript:\n" + "".join(diff),
                    pytrace=False)
