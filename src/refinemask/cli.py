"""Command line front end.

Exit codes are a stable scripting contract: 0 success, 1 domain failure
(an arithmetic precondition does not hold), 2 parse failure, 3 I/O error.
Every mask or polynomial printed here re-parses to an identical value.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from fractions import Fraction

from .algebra import _parse_int, parse_rational
from .exceptions import ParseError, RefineMaskError
from .mask import Mask, _mask_over, _taylor_remainder, refined_degree
from .polynomial import Polynomial
from .refinement import (
    cascade,
    equivalence_witness,
    mask_from_poly,
    mask_from_poly_at_nodes,
    poly_from_mask,
    refine_apply,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_IO = 3


def _parse_nodes(text: str) -> list[int]:
    try:
        return [_parse_int(tok) for tok in text.split(",")]
    except ParseError:
        raise ParseError(f"not an integer node list: {text!r}") from None


def _float_cell(value: Fraction) -> str:
    try:
        return format(float(value), ".12g")
    except OverflowError:
        raise RefineMaskError("sample value too large for a float") from None


def _cmd_poly_from_mask(args) -> int:
    m = Mask.parse(args.mask)
    print(poly_from_mask(m))
    return EXIT_OK


def _cmd_mask_from_poly(args) -> int:
    p = Polynomial.parse(args.poly)
    if args.nodes is None:
        print(mask_from_poly(p))
    else:
        print(mask_from_poly_at_nodes(p, _parse_nodes(args.nodes)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    m = Mask.parse(args.mask)
    p = Polynomial.parse(args.poly)
    residual = refine_apply(m, p) - p
    if residual.is_zero:
        print("OK")
        return EXIT_OK
    print(residual)
    return EXIT_DOMAIN


def _cmd_equiv(args) -> int:
    a = Mask.parse(args.mask_a)
    b = Mask.parse(args.mask_b)
    witness = equivalence_witness(a, b)
    if witness is None:
        print("not equivalent", file=sys.stderr)
        return EXIT_DOMAIN
    print(witness)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    m = Mask.parse(args.mask)
    rem, _, den = _taylor_remainder(m, refined_degree(m))
    print(_mask_over(0, rem, den))
    return EXIT_OK


def _cmd_cascade(args) -> int:
    m = Mask.parse(args.mask)
    tol = parse_rational(args.tol)
    if tol <= 0:
        raise RefineMaskError(f"tolerance must be positive, got {tol}")
    n = refined_degree(m)
    if args.p0 is None:
        start = Polynomial.monomial(n)
    else:
        start = Polynomial.parse(args.p0)
    report = cascade(m, start, max_iter=args.max_iter, tol=tol)
    try:
        text = (f"iterations: {report.iterations}\n"
                f"final_delta: {report.final_delta}\n"
                f"converged: {'true' if report.converged else 'false'}\n"
                f"result: {report.result}\n")
    except ValueError:  # an integer too long for str(), which parsing rejects too
        raise RefineMaskError(
            f"result has integers over the {sys.get_int_max_str_digits()}-digit "
            "limit for printing; use a smaller --max-iter or a larger --tol"
        ) from None
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_render_csv(args) -> int:
    m = Mask.parse(args.mask)
    p = poly_from_mask(m)
    t_min = parse_rational(args.t_min)
    t_max = parse_rational(args.t_max)
    if args.samples < 1:
        raise RefineMaskError(f"samples must be positive, got {args.samples}")
    try:  # size the grid before filling it, so a count beyond memory fails at once
        grid = [t_min] * args.samples
    except (OverflowError, MemoryError):
        raise RefineMaskError(
            f"--samples {args.samples}: too many grid points to hold in memory") from None
    width = t_max - t_min
    for i in range(1, args.samples):
        grid[i] = t_min + width * i / (args.samples - 1)
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or os.curdir):
        # fail before the table is computed; the file itself is opened only
        # once the table is, so a later failure leaves no file behind
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    # part column j samples 2 * m_j * p(2t - j); the columns sum to p(t)
    lines = ["t,total," + ",".join(f"part_{j}" for j, _ in m.items())]
    for t in grid:
        cells = [_float_cell(t), _float_cell(p(t))]
        cells.extend(_float_cell(2 * c * p(2 * t - j)) for j, c in m.items())
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refinemask",
        description="Exact conversions between refinement masks and the "
                    "polynomials they refine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("poly-from-mask",
                       help="print the monic polynomial a mask refines")
    s.add_argument("mask", help="mask text, offset:c0,c1,...")
    s.set_defaults(handler=_cmd_poly_from_mask)

    s = sub.add_parser("mask-from-poly",
                       help="print the mask refining a polynomial")
    s.add_argument("poly", help="polynomial text, c0,c1,...,cn ascending")
    s.add_argument("--nodes", default=None,
                   help="comma-separated distinct integer support "
                        "(default 0..degree)")
    s.set_defaults(handler=_cmd_mask_from_poly)

    s = sub.add_parser("verify",
                       help="check the refinement relation, print OK or the residual")
    s.add_argument("mask")
    s.add_argument("poly")
    s.set_defaults(handler=_cmd_verify)

    s = sub.add_parser("equiv",
                       help="print the witness mask when two masks refine "
                            "the same polynomial")
    s.add_argument("mask_a")
    s.add_argument("mask_b")
    s.set_defaults(handler=_cmd_equiv)

    s = sub.add_parser("reduce",
                       help="print the canonical representative supported "
                            "in 0..degree")
    s.add_argument("mask")
    s.set_defaults(handler=_cmd_reduce)

    s = sub.add_parser("cascade",
                       help="iterate the refinement operator and report")
    s.add_argument("mask")
    s.add_argument("--max-iter", type=int, default=200,
                   help="iteration budget (default 200)")
    s.add_argument("--tol", default="1/1099511627776",
                   help="stopping tolerance as a rational (default 2**-40)")
    s.add_argument("--p0", default=None,
                   help="start polynomial (default 0,...,0,1 matching the "
                        "mask degree)")
    s.set_defaults(handler=_cmd_cascade)

    s = sub.add_parser("render-csv",
                       help="sample the refined polynomial and its two-scale "
                            "parts onto a CSV grid")
    s.add_argument("mask")
    s.add_argument("--t-min", default="0", help="grid start (rational, default 0)")
    s.add_argument("--t-max", default="3", help="grid end (rational, default 3)")
    s.add_argument("--samples", type=int, default=301,
                   help="grid size including both ends (default 301)")
    s.add_argument("--out", default=None,
                   help="output path (default: stdout)")
    s.set_defaults(handler=_cmd_render_csv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
