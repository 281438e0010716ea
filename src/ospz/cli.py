"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or expression-parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Callable

from .projector import diamond, phi
from .text import ExprSyntaxError, parse_element, render
from .uea import theta
from .zalgebra import ZElement, tilde_to_z, z_multiply, z_theta
from . import rep as repmod
from . import verify as verifymod


# Largest --n of `phi-table` and `verify projector`, and largest --lam and
# --trunc of the module computations (their work grows fast in each).
MAX_N = 64

# Largest --max-exp of `verify presentation` and the sweep scripts.  At 5
# the sweep takes about 64 s and 292 MB on a 2-core machine
# (BENCH_31_sweep_max_exp5.json), and its memory doubles per step.
MAX_EXP = 5


def _mark(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if sys.stdout.isatty():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _parse_or_exit(text: str, algebra: str):
    try:
        return parse_element(text, algebra)
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_element(args) -> int:
    elements = [_parse_or_exit(getattr(args, name), args.algebra) for name in args.operands]
    print(render(args.op(*elements), args.format))
    return 0


# The commands that parse element operands, apply one operation and print
# its result: (name, help, operand names, fixed algebra or None for an
# --algebra option, operation).  The operations look up this module's
# names when they run, so rebinding `diamond` here reaches the command.
ELEMENT_COMMANDS = (
    ("normalize", "normal-order an expression", ("expr",), None, lambda x: x),
    ("diamond", "diamond product of two U-elements", ("left", "right"), "u", lambda x, y: diamond(x, y)),
    ("zmul", "product in the reduction algebra", ("left", "right"), "z", lambda x, y: z_multiply(x, y)),
    (
        "theta", "apply the Chevalley anti-involution", ("expr",), None,
        lambda x: z_theta(x) if isinstance(x, ZElement) else theta(x),
    ),
    (
        "project", "image of an anti-diagonal U-element in the reduction algebra", ("expr",), "u",
        lambda x: tilde_to_z(x.mod_ii()),
    ),
)


def cmd_phi_table(args) -> int:
    for n in range(args.n + 1):
        print(f"phi_{n} = {phi(n)}")
    return 0


def cmd_rep_primitives(args) -> int:
    irrep = repmod.IrrepData.from_highest_weight(args.lam)
    module = repmod.TensorModule(repmod.PolyModule(args.trunc), irrep)
    # Weights run from the lowest tensor weight up to the largest value
    # whose weight space still fits inside the polynomial truncation.
    top = Fraction(1, 2) + args.trunc - args.lam
    weights = repmod.weight_window(Fraction(1, 2) - args.lam, top)
    vectors = module.primitive_vectors(weights)
    for v in vectors:
        print(repmod.x_basis_text(v))
    print(f"{len(vectors)} primitive vector(s) in weight window [{weights[0]}, {top}]")
    return 0


def cmd_rep_rho(args) -> int:
    report = verifymod.verify_rep(args.trunc)
    if args.format == "json":
        print(json.dumps(report["rho"], indent=2, sort_keys=True))
    else:
        for token, matrix in report["rho"].items():
            rows = ", ".join("[" + ", ".join(row) + "]" for row in matrix)
            if args.format == "latex":
                body = r" \\ ".join(" & ".join(row) for row in matrix)
                print(f"\\rho({token}) = \\begin{{bmatrix}} {body} \\end{{bmatrix}}")
            else:
                print(f"rho({token}) = [{rows}]")
    return 0 if report["passed"] else 1


def cmd_verify(args) -> int:
    # --json-out was opened while parsing; close it however the suite ends
    with args.json_out or nullcontext() as out:
        report = verifymod.run_suite(
            args.suite, n=args.n, max_exp=args.max_exp, trunc=args.trunc
        )
        for check in report["checks"]:
            print(f"[{_mark(check['pass'])}] {check['name']}")
        total = len(report["checks"])
        good = sum(1 for c in report["checks"] if c["pass"])
        print(f"{report['suite']}: {good}/{total} checks passed")
        if out:
            json.dump(report, out, indent=2, sort_keys=True)
            out.write("\n")
    return 0 if report["passed"] else 1


def int_at_least(low: int, high: int | None = None):
    """argparse type: an integer no smaller than `low` and, if `high` is
    given, no larger than it."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


def output_file(text: str):
    """argparse type: a file path, opened for writing.  `-` is refused,
    because stdout already carries the command's own lines."""
    if text == "-":
        raise argparse.ArgumentTypeError("takes a file path, not '-'")
    return argparse.FileType("w")(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospz",
        description=(
            "Exact symbolic computation in the diagonal reduction algebra "
            "of osp(1|2)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "latex", "json"), default="text"
        )

    for name, help_text, operands, algebra, op in ELEMENT_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for operand in operands:
            p.add_argument(operand)
        if algebra:
            p.set_defaults(algebra=algebra)
        else:
            p.add_argument("--algebra", choices=("u", "z"), default="u")
        add_format(p)
        p.set_defaults(func=cmd_element, operands=operands, op=op)

    p = sub.add_parser("phi-table", help="print the projector coefficients")
    p.add_argument("--n", type=int_at_least(0, MAX_N), default=4)
    p.set_defaults(func=cmd_phi_table)

    p = sub.add_parser("rep", help="module computations")
    rep_sub = p.add_subparsers(dest="rep_command", required=True)
    q = rep_sub.add_parser("primitives", help="basis of the primitive subspace")
    q.add_argument("--lam", type=int_at_least(0, MAX_N), default=1)
    q.add_argument("--trunc", type=int_at_least(0, MAX_N), default=6)
    q.set_defaults(func=cmd_rep_primitives)
    q = rep_sub.add_parser("rho", help="matrices of the reduction-algebra action")
    q.add_argument("--trunc", type=int_at_least(0, MAX_N), default=6)
    add_format(q)
    q.set_defaults(func=cmd_rep_rho)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=verifymod.SUITES)
    p.add_argument("--n", type=int_at_least(0, MAX_N), default=10)
    p.add_argument("--max-exp", type=int_at_least(1, MAX_EXP), default=1)
    p.add_argument("--trunc", type=int_at_least(0, MAX_N), default=6)
    # opened before the suite runs, so an unwritable path is a usage error
    p.add_argument("--json-out", type=output_file, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def quiet_on_closed_pipe(main: Callable[..., int]) -> Callable[..., int]:
    """Wrap a command's `main` so that a stdout whose reader has gone ends
    it with status 1 and no traceback."""

    @functools.wraps(main)
    def run(*args, **kwargs) -> int:
        try:
            code = main(*args, **kwargs)
            sys.stdout.flush()  # so that a closed pipe raises here, not at exit
            return code
        except BrokenPipeError:
            # The reader is gone: what is left of stdout, and the interpreter's
            # last flush of it, goes to the null device instead.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1

    return run


@quiet_on_closed_pipe
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (repmod.TruncationOverflow, repmod.WindowNotClosed) as exc:
        print(f"error: {exc}; use a larger --trunc", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
