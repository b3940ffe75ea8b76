"""Command-line front end.

Exit codes: 0 on success, 1 when a law check finds failures, 2 on
usage, parse, or input errors.  Diagnostics go to stderr; results go
to stdout.  Every input error is a ValueError (ParseError is one), as
are an unreadable jet table file and a result with a number too long
to print (poly.render_numerators), and main alone turns it into its
one-line diagnostic.
"""

from __future__ import annotations

import argparse
import sys

from .grothendieck import grothendieck_order, split_order_one
from .parser import (
    ParseError,
    check_variable_count,
    check_xi_prefix,
    parse_action,
    parse_commutator,
    parse_jet_map,
    parse_operator,
    parse_symbol,
)
from .symbols import principal_symbol, quantize
from .jets import from_jet_map


def _fmt_order(order: int | None) -> str:
    return "-inf" if order is None else str(order)


def _cmd_normalize(args: argparse.Namespace) -> int:
    D = parse_operator(args.expr, args.vars)
    print(D)
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    q = parse_action(args.expr, args.poly, n=args.vars)
    print(q)
    return 0


def _cmd_comm(args: argparse.Namespace) -> int:
    C = parse_commutator(args.left, args.right, n=args.vars)
    print(C)
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    print(_fmt_order(parse_operator(args.expr, args.vars).order))
    return 0


def _cmd_gorder(args: argparse.Namespace) -> int:
    print(_fmt_order(grothendieck_order(parse_operator(args.expr, args.vars))))
    return 0


def _cmd_symbol(args: argparse.Namespace) -> int:
    s = principal_symbol(parse_operator(args.expr, args.vars), args.grade)
    print(s.render(args.xi_prefix))
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    D = quantize(parse_symbol(args.expr, n=args.vars, xi_prefix=args.xi_prefix))
    print(D)
    return 0


def _cmd_split1(args: argparse.Namespace) -> int:
    X, a = split_order_one(parse_operator(args.expr, args.vars))
    print(f"X = {X}\na = {a}")
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    try:
        with open(args.map, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.map}: {exc.strerror}") from None
    D = from_jet_map(parse_jet_map(text, args.degree, n=args.vars))
    print(D)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # the law harness is imported here, so that no other command loads it
    from dataclasses import replace

    from .laws import ACCEPTANCE_CONFIG, GenConfig, run_all, run_law

    if args.ci and args.seed is None:
        raise ValueError("--ci requires an explicit --seed")
    base = ACCEPTANCE_CONFIG if args.ci else GenConfig()
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.max_order is not None:
        overrides["max_order"] = args.max_order
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = replace(base, **overrides)
    reports = [run_law(args.law, cfg)] if args.law else run_all(cfg)
    failed = False
    for report in reports:
        print(report.machine_line())
        if not report.passed:
            failed = True
            for line in report.failures:
                print(f"  {line}")
    return 1 if failed else 0


def _variable_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return check_variable_count(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _xi_prefix(text: str) -> str:
    try:
        return check_xi_prefix(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_xi_prefix(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--xi-prefix",
        type=_xi_prefix,
        default="x",
        metavar="P",
        help="prefix for the symbol variables: letters other than t (default: x)",
    )


def _add_vars(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--vars",
        type=_variable_count,
        metavar="N",
        help="number of variables (default: largest index mentioned)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylcalc",
        description="Exact differential-operator calculus over the rational polynomial ring.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("normalize", help="print the normal form of an operator expression")
    sub.add_argument("expr")
    _add_vars(sub)
    sub.set_defaults(handler=_cmd_normalize)

    sub = subs.add_parser("apply", help="apply an operator to a polynomial")
    sub.add_argument("expr")
    sub.add_argument("poly")
    _add_vars(sub)
    sub.set_defaults(handler=_cmd_apply)

    sub = subs.add_parser("comm", help="commutator of two operators")
    sub.add_argument("left")
    sub.add_argument("right")
    _add_vars(sub)
    sub.set_defaults(handler=_cmd_comm)

    sub = subs.add_parser("order", help="syntactic order of the normal form (-inf for 0)")
    sub.add_argument("expr")
    _add_vars(sub)
    sub.set_defaults(handler=_cmd_order)

    sub = subs.add_parser(
        "gorder", help="order recomputed from the commutator definition, cross-checked"
    )
    sub.add_argument("expr")
    _add_vars(sub)
    sub.set_defaults(handler=_cmd_gorder)

    sub = subs.add_parser("symbol", help="principal symbol at a grade")
    sub.add_argument("expr")
    sub.add_argument("--grade", type=int, help="grade (default: the operator's order)")
    _add_xi_prefix(sub)
    _add_vars(sub)
    sub.set_defaults(handler=_cmd_symbol)

    sub = subs.add_parser("quantize", help="normal-ordered operator lift of a symbol")
    sub.add_argument("expr")
    _add_xi_prefix(sub)
    _add_vars(sub)
    sub.set_defaults(handler=_cmd_quantize)

    sub = subs.add_parser("split1", help="split an order <= 1 operator as derivation plus multiplication")
    sub.add_argument("expr")
    _add_vars(sub)
    sub.set_defaults(handler=_cmd_split1)

    sub = subs.add_parser("construct", help="build the operator realizing a jet table")
    sub.add_argument("--map", required=True, metavar="FILE", help="jet table file")
    sub.add_argument("--degree", required=True, type=int, help="jet degree bound")
    _add_vars(sub)
    sub.set_defaults(handler=_cmd_construct)

    sub = subs.add_parser("check", help="run the randomized law suite")
    sub.add_argument("--law", help="run one law instead of all")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--n", type=int, help="number of variables for generated instances")
    sub.add_argument("--max-order", type=int)
    sub.add_argument(
        "--ci",
        action="store_true",
        help="pin the acceptance-scale bounds; requires an explicit --seed",
    )
    sub.set_defaults(handler=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # bad input; a ParseError writes its own prefix
        print(exc if isinstance(exc, ParseError) else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
