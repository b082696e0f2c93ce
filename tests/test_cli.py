"""Command line contract: output strings, exit codes, round trips."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from refinemask import Mask, Polynomial
from refinemask.cli import main

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


def test_reduce(capsys):
    assert run(capsys, "reduce", BSPLINE_TEXT) == (0, "0:1/32,0,3/32\n", "")


def test_reduce_far_offset_builds_no_quotient():
    # the quotient would be 10**30 entries wide; only the remainder is printed
    assert run_bounded("reduce", f"{FAR}:1/2") == (0, "0:1/2\n", "")


def test_reduce_bad_sum(capsys):
    code, _, err = run(capsys, "reduce", "0:1,1")
    assert code == 1


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


def test_render_csv_io_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "f.csv"
    code, _, err = run(capsys, "render-csv", "0:1/16,3/16,3/16,1/16",
                       "--out", str(missing))
    assert code == 3
    assert "error" in err


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
