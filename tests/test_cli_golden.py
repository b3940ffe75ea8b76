"""Byte-exact CLI checks run through a real subprocess.

Every case pins stdout exactly (including the trailing newline), the
exit code, and stderr where the message is ours.  GOLDEN_CASES is also
executed by the acceptance suite.
"""

import subprocess
import sys

import pytest

GOLDEN_CASES = [
    dict(args=["normalize", "d1*t1"], out="(t1)*d1 + 1\n"),
    dict(
        args=["normalize", "d1*(t1+t2)^2"],
        out="(t1^2 + 2*t1*t2 + t2^2)*d1 + 2*t1 + 2*t2\n",
    ),
    dict(args=["normalize", "t1*d1 - d1*t1"], out="-1\n"),
    dict(args=["apply", "t1*d1*d2", "t1*t2^2"], out="2*t1*t2\n"),
    dict(args=["apply", "d1^2", "t1^3"], out="6*t1\n"),
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
]


def run_case(case, tmp_path):
    argv = list(case["args"])
    if "map_text" in case:
        path = tmp_path / "table.jets"
        path.write_text(case["map_text"], encoding="utf-8")
        argv = [a.replace("{MAP}", str(path)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "weylcalc", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == case["out"], f"{argv}: stdout {proc.stdout!r}"
    assert proc.returncode == case.get("code", 0), f"{argv}: exit {proc.returncode}"
    if "err" in case:
        assert proc.stderr == case["err"], f"{argv}: stderr {proc.stderr!r}"
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
