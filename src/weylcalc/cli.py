"""Command-line front end.

Each subcommand is one row of COMMANDS: its name, its help, its
arguments in usage order, and a function from the parsed arguments to
its result; build_parser adds the rows in one loop.  main alone writes
to stdout and stderr and picks the exit code: it prints the result (a
law run's reports line by line, an order of None as -inf), and exits 0
on success, 1 when a law check finds failures, 2 on usage, parse, or
input errors.  Every input error is a ValueError (ParseError is one),
as are an unreadable jet table file and a result with a number too
long to print (poly.render_numerators), and main turns it into its
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


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None


def _check(args: argparse.Namespace) -> list:
    # the law harness is imported here, so that no other command loads it
    from dataclasses import replace

    from .laws import ACCEPTANCE_CONFIG, GenConfig, run_all, run_law

    if args.ci and args.seed is None:
        raise ValueError("--ci requires an explicit --seed")
    overrides = {key: value for key in ("n", "max_order", "trials", "seed") if (value := getattr(args, key)) is not None}
    cfg = replace(ACCEPTANCE_CONFIG if args.ci else GenConfig(), **overrides)
    return [run_law(args.law, cfg)] if args.law else run_all(cfg)


_VARS = ("--vars", dict(type=_variable_count, metavar="N", help="number of variables (default: largest index mentioned)"))
_XI_PREFIX = ("--xi-prefix", dict(
    type=_xi_prefix, default="x", metavar="P", help="prefix for the symbol variables: letters other than t (default: x)"
))
# Per subcommand: its name, its help, its arguments in usage order (a positional's
# name, or an option's flag and add_argument keywords), and its result.
COMMANDS = [
    ("normalize", "print the normal form of an operator expression", ["expr", _VARS],
     lambda args: parse_operator(args.expr, args.vars)),
    ("apply", "apply an operator to a polynomial", ["expr", "poly", _VARS],
     lambda args: parse_action(args.expr, args.poly, n=args.vars)),
    ("comm", "commutator of two operators", ["left", "right", _VARS],
     lambda args: parse_commutator(args.left, args.right, n=args.vars)),
    ("order", "syntactic order of the normal form (-inf for 0)", ["expr", _VARS],
     lambda args: parse_operator(args.expr, args.vars).order),
    ("gorder", "order recomputed from the commutator definition, cross-checked", ["expr", _VARS],
     lambda args: grothendieck_order(parse_operator(args.expr, args.vars))),
    ("symbol", "principal symbol at a grade",
     ["expr", ("--grade", dict(type=int, help="grade (default: the operator's order)")), _XI_PREFIX, _VARS],
     lambda args: principal_symbol(parse_operator(args.expr, args.vars), args.grade).render(args.xi_prefix)),
    ("quantize", "normal-ordered operator lift of a symbol", ["expr", _XI_PREFIX, _VARS],
     lambda args: quantize(parse_symbol(args.expr, n=args.vars, xi_prefix=args.xi_prefix))),
    ("split1", "split an order <= 1 operator as derivation plus multiplication", ["expr", _VARS],
     lambda args: "X = {}\na = {}".format(*split_order_one(parse_operator(args.expr, args.vars)))),
    ("construct", "build the operator realizing a jet table",
     [("--map", dict(required=True, metavar="FILE", help="jet table file")),
      ("--degree", dict(required=True, type=int, help="jet degree bound")), _VARS],
     lambda args: from_jet_map(parse_jet_map(_read(args.map), args.degree, n=args.vars))),
    ("check", "run the randomized law suite",
     [("--law", dict(help="run one law instead of all")), ("--trials", dict(type=int)), ("--seed", dict(type=int)),
      ("--n", dict(type=int, help="number of variables for generated instances")), ("--max-order", dict(type=int)),
      ("--ci", dict(action="store_true", help="pin the acceptance-scale bounds; requires an explicit --seed"))],
     _check),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylcalc",
        description="Exact differential-operator calculus over the rational polynomial ring.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, summary, arguments, run in COMMANDS:
        sub = subs.add_parser(name, help=summary)
        for argument in arguments:
            flag, keywords = (argument, {}) if type(argument) is str else argument
            sub.add_argument(flag, **keywords)
        sub.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:  # printing stays inside: str() of a result raises for a number too long to print
        result = args.run(args)
        if type(result) is not list:
            print("-inf" if result is None else result)
            return 0
        for report in result:  # a law run: each law's line, and a failing law's counterexamples
            print(report.machine_line())
            for line in report.failures:
                print(f"  {line}")
        return 0 if all(report.passed for report in result) else 1
    except ValueError as exc:  # bad input; a ParseError writes its own prefix
        print(exc if isinstance(exc, ParseError) else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
