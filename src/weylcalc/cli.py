"""Command-line front end.

Exit codes: 0 on success, 1 when a law check finds failures, 2 on
usage, parse, or input errors.  Diagnostics go to stderr; results go
to stdout.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .grothendieck import grothendieck_order, split_order_one
from .operators import DiffOp, commutator
from .parser import (
    MAX_INDEX,
    ParseError,
    check_xi_prefix,
    parse_ast,
    parse_jet_map,
    parse_symbol,
    to_diffop,
    to_poly,
    variable_count,
)
from .symbols import principal_symbol, quantize
from .jets import from_jet_map


def _fmt_order(order: int | None) -> str:
    return "-inf" if order is None else str(order)


def _parse_shared(args: argparse.Namespace, *sources: tuple[str, str]) -> list:
    """Evaluate each (kind, text) source, kind "operator" or "poly", in one shared n.

    n is --vars if given, else the largest variable index in any source.
    """
    kinds = {"operator": ({"t", "d"}, to_diffop), "poly": ({"t"}, to_poly)}
    trees = [(kind, parse_ast(text, kinds[kind][0])) for kind, text in sources]
    n = variable_count(args.vars, *(tree for _, tree in trees))
    return [kinds[kind][1](tree, n) for kind, tree in trees]


def _operator_from(args: argparse.Namespace, src: str) -> DiffOp:
    return _parse_shared(args, ("operator", src))[0]


def _print(text: Callable[[], str]) -> int:
    """Print text(); a number too long for str() ends in one error line, not a traceback."""
    try:
        out = text()
    except ValueError:  # the interpreter's limit on int to str conversion
        limit = sys.get_int_max_str_digits()
        print(f"error: the result has a number longer than {limit} digits, too long to print", file=sys.stderr)
        return 2
    print(out)
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    D = _operator_from(args, args.expr)
    return _print(lambda: str(D))


def _cmd_apply(args: argparse.Namespace) -> int:
    D, p = _parse_shared(args, ("operator", args.expr), ("poly", args.poly))
    q = D.apply(p)
    return _print(lambda: str(q))


def _cmd_comm(args: argparse.Namespace) -> int:
    A, B = _parse_shared(args, ("operator", args.left), ("operator", args.right))
    C = commutator(A, B)
    return _print(lambda: str(C))


def _cmd_order(args: argparse.Namespace) -> int:
    print(_fmt_order(_operator_from(args, args.expr).order))
    return 0


def _cmd_gorder(args: argparse.Namespace) -> int:
    print(_fmt_order(grothendieck_order(_operator_from(args, args.expr))))
    return 0


def _cmd_symbol(args: argparse.Namespace) -> int:
    D = _operator_from(args, args.expr)
    try:
        s = principal_symbol(D, args.grade)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _print(lambda: s.render(args.xi_prefix))


def _cmd_quantize(args: argparse.Namespace) -> int:
    try:
        s = parse_symbol(args.expr, n=args.vars, xi_prefix=args.xi_prefix)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    D = quantize(s)
    return _print(lambda: str(D))


def _cmd_split1(args: argparse.Namespace) -> int:
    D = _operator_from(args, args.expr)
    try:
        X, a = split_order_one(D)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _print(lambda: f"X = {X}\na = {a}")


def _cmd_construct(args: argparse.Namespace) -> int:
    try:
        with open(args.map, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.map}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        table = parse_jet_map(text, args.degree, n=args.vars)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    D = from_jet_map(table)
    return _print(lambda: str(D))


def _cmd_check(args: argparse.Namespace) -> int:
    # the law harness is imported here, so that no other command loads it
    from dataclasses import replace

    from .laws import ACCEPTANCE_CONFIG, GenConfig, run_all, run_law

    if args.ci and args.seed is None:
        print("error: --ci requires an explicit --seed", file=sys.stderr)
        return 2
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
    try:
        cfg = replace(base, **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = [run_law(args.law, cfg)] if args.law else run_all(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least one variable, got {n}")
    if n > MAX_INDEX:
        raise argparse.ArgumentTypeError(f"at most {MAX_INDEX} variables, got {n}")
    return n


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
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
