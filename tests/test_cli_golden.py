"""Byte-exact CLI checks run through a real subprocess.

Every case pins stdout exactly (including the trailing newline), the
exit code, and stderr where the message is ours.  GOLDEN_CASES is also
executed by the acceptance suite.
"""

import argparse
import math
import subprocess
import sys

import pytest

from weylcalc.cli import build_parser

GOLDEN_CASES = [
    dict(args=["normalize", "d1*t1"], out="(t1)*d1 + 1\n"),
    dict(
        args=["normalize", "d1*(t1+t2)^2"],
        out="(t1^2 + 2*t1*t2 + t2^2)*d1 + 2*t1 + 2*t2\n",
    ),
    dict(args=["normalize", "t1*d1 - d1*t1"], out="-1\n"),
    dict(args=["apply", "t1*d1*d2", "t1*t2^2"], out="2*t1*t2\n"),
    dict(args=["apply", "d1^2", "t1^3"], out="6*t1\n"),
    # negative fractions keep their signs inside and outside the parentheses
    dict(
        id="normalize negative fractions",
        args=["normalize", "d2*(-1/3*t2^2 + 5/2*t1) - 1/2*t1*d1 - 2/3"],
        out="(-1/2*t1)*d1 + (-1/3*t2^2 + 5/2*t1)*d2 - 2/3*t2 - 2/3\n",
    ),
    dict(id="apply negative fractions", args=["apply", "-1/2*t1*d1 - 2/3", "t1^2 - 3/4*t2"], out="-5/3*t1^2 + 1/2*t2\n"),
    dict(args=["comm", "d2", "t2"], out="1\n"),
    dict(args=["comm", "d1", "t2"], out="0\n"),
    dict(args=["order", "t1*d1*d2 + d1"], out="2\n"),
    dict(args=["order", "t1 - t1"], out="-inf\n"),
    dict(args=["gorder", "t1*d1*d2 + d1"], out="2\n"),
    dict(args=["symbol", "t1*d1*d2 + d1"], out="(t1)*x1*x2\n"),
    dict(args=["symbol", "d1", "--grade", "2"], out="0\n"),
    dict(args=["symbol", "d1^2", "--xi-prefix", "xi"], out="xi1^2\n"),
    dict(
        args=["symbol", "d1*d2", "--grade", "1"],
        out="",
        code=2,
        err="error: grade 1 below the operator order 2\n",
    ),
    dict(args=["quantize", "t1*x1*x2"], out="(t1)*d1*d2\n"),
    dict(
        args=["quantize", "x1^2 + x2"],
        out="",
        code=2,
        err="error: symbol mixes x-degrees 1 and 2; a symbol is homogeneous in x\n",
    ),
    dict(args=["split1", "t1*d1 + t1^2"], out="X = (t1)*d1\na = t1^2\n"),
    dict(
        args=["split1", "d1*d2"],
        out="",
        code=2,
        err="error: cannot split an operator of order 2, need order <= 1\n",
    ),
    dict(
        args=["construct", "--map", "{MAP}", "--degree", "1"],
        map_text="1,0 -> t2\n",
        out="(t2)*d1\n",
    ),
    dict(
        args=["construct", "--map", "{MAP}", "--degree", "1", "--vars", "1"],
        map_text="0 -> t1\n",
        out="(-t1^2)*d1 + t1\n",
    ),
    dict(args=["check", "--law", "jacobi", "--trials", "20", "--seed", "7"], out="jacobi 20 0 PASS\n"),
    dict(
        args=["check", "--ci"],
        out="",
        code=2,
        err="error: --ci requires an explicit --seed\n",
    ),
    dict(
        args=["check", "--law", "no-such", "--seed", "1"],
        out="",
        code=2,
        err_prefix="error: unknown law 'no-such'; known laws: compose-oracle,",
    ),
    # the pinned parse-error case: 1-based byte offset, diagnostics on stderr
    dict(
        args=["normalize", "d1*(t1"],
        out="",
        code=2,
        err="parse error at offset 7: expected ')'\n",
    ),
    dict(
        args=["order", "d3", "--vars", "2"],
        out="",
        code=2,
        err="parse error at offset 1: variable index 3 exceeds the 2 available variables\n",
    ),
    # --vars is checked by argparse: usage plus a one-line diagnostic, exit 2
    dict(
        args=["normalize", "t1", "--vars", "0"],
        out="",
        code=2,
        err="usage: weylcalc normalize [-h] [--vars N] expr\n"
        "weylcalc normalize: error: argument --vars: need at least one variable, got 0\n",
    ),
    dict(
        args=["normalize", "d1", "--vars", "-2"],
        out="",
        code=2,
        err="usage: weylcalc normalize [-h] [--vars N] expr\n"
        "weylcalc normalize: error: argument --vars: need at least one variable, got -2\n",
    ),
    # --xi-prefix must print symbols that parse back: letters, and not t
    dict(
        args=["symbol", "t1*d1+d2", "--xi-prefix", "2"],
        out="",
        code=2,
        err="usage: weylcalc symbol [-h] [--grade GRADE] [--xi-prefix P] [--vars N] expr\n"
        "weylcalc symbol: error: argument --xi-prefix: bad xi prefix '2': need letters other than 't'\n",
    ),
    dict(
        args=["symbol", "t1*d1+d2", "--xi-prefix", "t"],
        out="",
        code=2,
        err="usage: weylcalc symbol [-h] [--grade GRADE] [--xi-prefix P] [--vars N] expr\n"
        "weylcalc symbol: error: argument --xi-prefix: bad xi prefix 't': need letters other than 't'\n",
    ),
    dict(
        args=["symbol", "t1*d1+d2", "--xi-prefix", "x y"],
        out="",
        code=2,
        err="usage: weylcalc symbol [-h] [--grade GRADE] [--xi-prefix P] [--vars N] expr\n"
        "weylcalc symbol: error: argument --xi-prefix: bad xi prefix 'x y': need letters other than 't'\n",
    ),
    dict(
        args=["quantize", "t1*x1", "--xi-prefix", "2"],
        out="",
        code=2,
        err="usage: weylcalc quantize [-h] [--xi-prefix P] [--vars N] expr\n"
        "weylcalc quantize: error: argument --xi-prefix: bad xi prefix '2': need letters other than 't'\n",
    ),
    dict(
        args=["quantize", "t1*t1", "--xi-prefix", "t"],
        out="",
        code=2,
        err="usage: weylcalc quantize [-h] [--xi-prefix P] [--vars N] expr\n"
        "weylcalc quantize: error: argument --xi-prefix: bad xi prefix 't': need letters other than 't'\n",
    ),
    dict(args=["quantize", "t1*xi1*xi2", "--xi-prefix", "xi"], out="(t1)*d1*d2\n"),
    # a long sum is evaluated without recursion
    dict(id="normalize 1200 summands", args=["normalize", "+".join(["t1"] * 1200)], out="1200*t1\n"),
    # parentheses and unary minus nest at most 100 deep
    dict(id="normalize 100 parentheses", args=["normalize", "(" * 100 + "t1" + ")" * 100], out="t1\n"),
    dict(
        id="normalize 101 parentheses",
        args=["normalize", "(" * 101 + "t1" + ")" * 101],
        out="",
        code=2,
        err="parse error at offset 101: parentheses and unary minus nest deeper than 100 levels\n",
    ),
    dict(id="normalize 100 unary minus", args=["normalize", "t1*" + "-" * 100 + "d1"], out="(t1)*d1\n"),
    dict(
        id="normalize 101 unary minus",
        args=["normalize", "t1*" + "-" * 101 + "d1"],
        out="",
        code=2,
        err="parse error at offset 104: parentheses and unary minus nest deeper than 100 levels\n",
    ),
    # numbers and indices are decimal digits: int() must read them
    dict(
        args=["normalize", "t\u00b2"],
        out="",
        code=2,
        err="parse error at offset 2: unexpected character '\u00b2'\n",
    ),
    dict(
        args=["normalize", "\u00b3"],
        out="",
        code=2,
        err="parse error at offset 1: unexpected character '\u00b3'\n",
    ),
    dict(
        args=["normalize", "t1^\u00b2"],
        out="",
        code=2,
        err="parse error at offset 4: unexpected character '\u00b2'\n",
    ),
    dict(args=["normalize", "\u0663*t1"], out="3*t1\n"),
    dict(
        args=["normalize", "\u00e91"],
        out="",
        code=2,
        err="parse error at offset 1: unknown variable '\u00e9'; expected one of: d, t\n",
    ),
    # numbers past the interpreter's int/str limit: one error line, never a traceback
    dict(
        id="normalize 2^15000",
        args=["normalize", "2^15000"],
        out="",
        code=2,
        err="error: the result has a number longer than 4300 digits, too long to print\n",
    ),
    *(
        dict(id=f"{args[0]} 2^15000", args=args, out="", code=2,
             err="error: the result has a number longer than 4300 digits, too long to print\n")
        for args in (["symbol", "2^15000*d1"], ["split1", "2^15000*d1"], ["comm", "2^15000*d1", "t1"],
                     ["apply", "2^15000*d1", "t1"])
    ),
    dict(
        id="construct 2^15000",
        args=["construct", "--map", "{MAP}", "--degree", "0", "--vars", "1"],
        map_text="0 -> 2^15000\n",
        out="",
        code=2,
        err="error: the result has a number longer than 4300 digits, too long to print\n",
    ),
    # map_text None: there is no file at {MAP}
    dict(
        id="construct missing file",
        args=["construct", "--map", "{MAP}", "--degree", "1"],
        map_text=None,
        out="",
        code=2,
        err="error: cannot read {MAP}: No such file or directory\n",
    ),
    dict(
        id="normalize 5000-digit literal",
        args=["normalize", "7" * 5000 + "*t1"],
        out="",
        code=2,
        err="parse error at offset 1: number longer than 4300 digits\n",
    ),
    # variable indices and --vars stop at 100
    dict(
        id="normalize t101",
        args=["normalize", "t101"],
        out="",
        code=2,
        err="parse error at offset 1: variable index 101 exceeds 100\n",
    ),
    dict(
        id="normalize --vars 101",
        args=["normalize", "t1", "--vars", "101"],
        out="",
        code=2,
        err="usage: weylcalc normalize [-h] [--vars N] expr\n"
        "weylcalc normalize: error: argument --vars: at most 100 variables, got 101\n",
    ),
    # powers and jet tables have a budget, checked before the work is done
    dict(
        id="normalize 2^10000000000",
        args=["normalize", "2^10000000000"],
        out="",
        code=2,
        err="parse error at offset 3: exponent larger than 100000\n",
    ),
    dict(
        id="normalize (t1+1)^100000",
        args=["normalize", "(t1+1)^100000"],
        out="",
        code=2,
        err="error: the power ^100000 is too large to expand: "
        "its estimated terms times coefficient bits exceed 1048576\n",
    ),
    dict(
        id="normalize (t1+t2+t3+d1+d2+d3)^40",
        args=["normalize", "(t1+t2+t3+d1+d2+d3)^40"],
        out="",
        code=2,
        err="error: the power ^40 is too large to expand: "
        "its estimated terms times coefficient bits exceed 1048576\n",
    ),
    dict(
        id="construct --degree 100",
        args=["construct", "--map", "{MAP}", "--degree", "100"],
        map_text="1,0 -> t2\n",
        out="",
        code=2,
        err="error: a table of degree 100 in 2 variables has more than 300 monomials\n",
    ),
    # a product that reorders d_i past t_i is estimated like a power before it is expanded
    dict(
        id="normalize d1^300*d2^300*t1^300*t2^300",
        args=["normalize", "d1^300*d2^300*t1^300*t2^300"],
        out="",
        code=2,
        err="error: the product is too large to expand: "
        "its estimated terms times coefficient bits exceed 1048576\n",
    ),
    dict(
        id="normalize d1^1000*t1^1000",
        args=["normalize", "d1^1000*t1^1000"],
        out="",
        code=2,
        err="error: the product is too large to expand: "
        "its estimated terms times coefficient bits exceed 1048576\n",
    ),
    dict(id="normalize t1^100000*d1^100000", args=["normalize", "t1^100000*d1^100000"], out="(t1^100000)*d1^100000\n"),
    # every product is estimated, also one that needs no reordering, and comm's two products as well
    dict(
        id="normalize five (t1+t2+t3)^30 factors",
        args=["normalize", "*".join(["(t1+t2+t3)^30"] * 5)],
        out="",
        code=2,
        err="error: the product is too large to expand: "
        "its estimated terms times coefficient bits exceed 1048576\n",
    ),
    dict(
        id="comm (t1+t2+t3+d1+d2+d3)^8 twice",
        args=["comm", "(t1+t2+t3+d1+d2+d3)^8", "(t1+t2+t3+d1+d2+d3)^8"],
        out="",
        code=2,
        err="error: the product is too large to expand: "
        "its estimated terms times coefficient bits exceed 1048576\n",
    ),
    dict(
        id="comm (t1+t2+t3+d1+d2+d3)^6 twice",
        args=["comm", "(t1+t2+t3+d1+d2+d3)^6", "(t1+t2+t3+d1+d2+d3)^6"],
        out="0\n",
    ),
    # apply is estimated on its own: the words of the operator against the terms of the polynomial
    dict(
        id="apply (t1+t2+t3+d1+d2+d3)^12 to (t1+t2+t3)^40",
        args=["apply", "(t1+t2+t3+d1+d2+d3)^12", "(t1+t2+t3)^40"],
        out="",
        code=2,
        err="error: the action is too large to expand: "
        "its estimated terms times coefficient bits exceed 1048576\n",
    ),
    dict(id="apply d1^1000 to t1^1000", args=["apply", "d1^1000", "t1^1000"], out=f"{math.factorial(1000)}\n"),
    # a grade is nonnegative, also for the zero operator
    dict(
        id="symbol 0 --grade -2",
        args=["symbol", "0", "--grade", "-2"],
        out="",
        code=2,
        err="error: grade must be nonnegative, got -2\n",
    ),
    # check --max-order is bounded like a jet table's degree
    dict(
        id="check --max-order 40 --n 3",
        args=["check", "--law", "interpolation", "--trials", "2", "--seed", "1", "--max-order", "40", "--n", "3"],
        out="",
        code=2,
        err="error: max_order 40 in 3 variables gives a jet basis of 12341 monomials, more than 300\n",
    ),
    dict(
        id="check --max-order 10 --n 3",
        args=["check", "--law", "interpolation", "--trials", "3", "--seed", "1", "--max-order", "10", "--n", "3"],
        out="interpolation 3 0 PASS\n",
    ),
]


def run_case(case, tmp_path):
    argv, err = list(case["args"]), case.get("err")
    if "map_text" in case:
        path = tmp_path / "table.jets"
        if case["map_text"] is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(case["map_text"], encoding="utf-8")
        argv = [a.replace("{MAP}", str(path)) for a in argv]
        err = err and err.replace("{MAP}", str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "weylcalc", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == case["out"], f"{argv}: stdout {proc.stdout!r}"
    assert proc.returncode == case.get("code", 0), f"{argv}: exit {proc.returncode}"
    if err is not None:
        assert proc.stderr == err, f"{argv}: stderr {proc.stderr!r}"
    elif "err_prefix" in case:
        assert proc.stderr.startswith(case["err_prefix"]), f"{argv}: stderr {proc.stderr!r}"
    else:
        assert proc.stderr == "", f"{argv}: stderr {proc.stderr!r}"


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.get("id") or " ".join(c["args"][:2]))
def test_golden(case, tmp_path):
    run_case(case, tmp_path)


def test_check_exit_code_one_on_failure(tmp_path, monkeypatch):
    # a failing law run exits 1 and prints counterexamples under the FAIL line;
    # forcing a failure from outside is easiest through a tiny driver script
    driver = tmp_path / "broken_check.py"
    driver.write_text(
        "import sys\n"
        "import weylcalc.operators as ops\n"
        "ops._binom = lambda a, b: 1\n"
        "from weylcalc.cli import main\n"
        "sys.exit(main(['check', '--law', 'compose-oracle', '--trials', '10', '--seed', '0']))\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, str(driver)], capture_output=True, text=True
    )
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("compose-oracle 10 ") and lines[0].endswith("FAIL")
    assert any(line.startswith("  trial ") for line in lines[1:])


def test_check_runs_every_law():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "weylcalc",
            "check",
            "--trials",
            "2",
            "--seed",
            "5",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 14
    assert all(line.endswith(" PASS") for line in lines)
    assert lines[0].startswith("compose-oracle")


VARS = (["--vars"], "number of variables (default: largest index mentioned)", "N", None, False)
XI = (["--xi-prefix"], "prefix for the symbol variables: letters other than t (default: x)", "P", "x", False)
HELP = (["-h", "--help"], "show this help message and exit", None, argparse.SUPPRESS, False)
EXPR = ("expr", None, None, None, True)
# each subcommand in order: its help, its usage line, and per argument its flags (a
# positional's name), help, metavar, default and whether it is required
SHAPE = [
    ("normalize", "print the normal form of an operator expression", "[-h] [--vars N] expr", [HELP, EXPR, VARS]),
    ("apply", "apply an operator to a polynomial", "[-h] [--vars N] expr poly",
     [HELP, EXPR, ("poly", None, None, None, True), VARS]),
    ("comm", "commutator of two operators", "[-h] [--vars N] left right",
     [HELP, ("left", None, None, None, True), ("right", None, None, None, True), VARS]),
    ("order", "syntactic order of the normal form (-inf for 0)", "[-h] [--vars N] expr", [HELP, EXPR, VARS]),
    ("gorder", "order recomputed from the commutator definition, cross-checked", "[-h] [--vars N] expr",
     [HELP, EXPR, VARS]),
    ("symbol", "principal symbol at a grade", "[-h] [--grade GRADE] [--xi-prefix P] [--vars N] expr",
     [HELP, EXPR, (["--grade"], "grade (default: the operator's order)", None, None, False), XI, VARS]),
    ("quantize", "normal-ordered operator lift of a symbol", "[-h] [--xi-prefix P] [--vars N] expr",
     [HELP, EXPR, XI, VARS]),
    ("split1", "split an order <= 1 operator as derivation plus multiplication", "[-h] [--vars N] expr",
     [HELP, EXPR, VARS]),
    ("construct", "build the operator realizing a jet table", "[-h] --map FILE --degree DEGREE [--vars N]",
     [HELP, (["--map"], "jet table file", "FILE", None, True), (["--degree"], "jet degree bound", None, None, True),
      VARS]),
    ("check", "run the randomized law suite",
     "[-h] [--law LAW] [--trials TRIALS] [--seed SEED] [--n N] [--max-order MAX_ORDER] [--ci]",
     [HELP, (["--law"], "run one law instead of all", None, None, False), (["--trials"], None, None, None, False),
      (["--seed"], None, None, None, False),
      (["--n"], "number of variables for generated instances", None, None, False),
      (["--max-order"], None, None, None, False),
      (["--ci"], "pin the acceptance-scale bounds; requires an explicit --seed", None, False, False)]),
]


def test_every_subcommand_keeps_its_arguments(monkeypatch):
    # the usage lines and the arguments, not the full -h text, whose layout differs
    # across Python versions; a wide terminal keeps each usage on one line
    monkeypatch.setenv("COLUMNS", "200")
    [subs] = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    helps = {action.dest: action.help for action in subs._choices_actions}
    got = [
        (name, helps[name], sub.format_usage(),
         [(a.option_strings or a.dest, a.help, a.metavar, a.default, a.required) for a in sub._actions])
        for name, sub in subs.choices.items()
    ]
    assert got == [(name, help, f"usage: weylcalc {name} {usage}\n", args) for name, help, usage, args in SHAPE]
