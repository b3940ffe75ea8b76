"""Seeded random command lines: every one ends in exit 0, 1 or 2, never a traceback.

The in-process cases drive `cli.main` on a few hundred argvs drawn from
one seed: small well-formed inputs, mutated ones, garbage characters,
and oversized powers, degrees, indices and literals.  An exit 2 says
why on one line (argparse puts its usage lines above it), and every
operator or polynomial printed on exit 0 parses back to what the
library computes in this process.  A handful of the same inputs also
run as real `python -m weylcalc` processes.
"""

import contextlib
import io
import random
import subprocess
import sys

import pytest

from weylcalc import cli
from weylcalc.jets import from_jet_map
from weylcalc.operators import commutator
from weylcalc.parser import max_index, parse_ast, parse_jet_map, parse_operator, parse_poly, parse_symbol
from weylcalc.symbols import quantize

SEED = 20261018
CASES = 400

GARBAGE = "@#$%&!?~`'\";:[]{}<>|\\=_.,²½é٣ \t "
LAWS = ["jacobi", "compose-oracle", "symbol-mult", "no-such-law"]


def _small(rng: random.Random, prefixes: str = "td", top: int = 3, depth: int = 0) -> str:
    """A small expression, well formed in the given variable prefixes, indices up to top."""
    roll = rng.random()
    if depth > 2 or roll < 0.35:
        if rng.random() < 0.3:
            return rng.choice(["0", "1", "2", "-3", "1/2", "5/3"])
        return f"{rng.choice(prefixes)}{rng.randint(1, top)}"
    if roll < 0.55:
        return f"({_small(rng, prefixes, top, depth + 1)})^{rng.randint(1, 3)}"
    op = rng.choice(["+", "-", "*"])
    return f"{_small(rng, prefixes, top, depth + 1)}{op}{_small(rng, prefixes, top, depth + 1)}"


def _oversized(rng: random.Random) -> str:
    return rng.choice([
        f"({_small(rng)}+t1)^{rng.choice([40, 5000, 100000])}",
        f"(t1+t2+t3+d1+d2+d3)^{rng.randint(20, 60)}",
        f"t1^{10 ** rng.randint(6, 30)}",
        f"{rng.randint(2, 9)}^{10 ** rng.randint(6, 12)}",
        f"123456789^{rng.randint(50000, 99999)}",
        f"t{rng.choice([101, 1000, 10 ** 12])}*d1",
        "9" * rng.choice([4301, 6000]),
        "t1*" + "(" * 150 + "d1" + ")" * 150,
    ])


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        spot = rng.randint(0, len(chars))
        kind = rng.random()
        if kind < 0.4 and chars:
            del chars[min(spot, len(chars) - 1)]
        elif kind < 0.8:
            chars.insert(spot, rng.choice(GARBAGE + "+-*^/()0123456789tdx"))
        else:
            chars[spot:spot] = list(_small(rng))
    return "".join(chars)


def _expression(rng: random.Random, prefixes: str = "td") -> str:
    roll = rng.random()
    if roll < 0.6:
        return _small(rng, prefixes)
    if roll < 0.75:
        return _mutate(rng, _small(rng, prefixes))
    if roll < 0.9:
        return _oversized(rng)
    return "".join(rng.choice(GARBAGE + "td123") for _ in range(rng.randint(0, 8)))


def _vars(rng: random.Random) -> list[str]:
    return rng.choice([[]] * 6 + [["--vars", "3"]] * 2 + [["--vars", "101"], ["--vars", "0"], ["--vars", "x"]])


def _argv(rng: random.Random, tmp_path) -> list[str]:
    command = rng.choice(
        ["normalize", "apply", "comm", "order", "gorder", "symbol", "quantize", "split1", "construct", "check"]
    )
    if command == "apply":
        return [command, _expression(rng), _expression(rng, "t"), *_vars(rng)]
    if command == "comm":
        return [command, _expression(rng), _expression(rng), *_vars(rng)]
    if command == "symbol":
        grade = rng.choice([[], [], ["--grade", str(rng.randint(-1, 4))], ["--grade", "many"]])
        return [command, _expression(rng), *grade, *_vars(rng)]
    if command == "quantize":
        return [command, _expression(rng, "tx"), *_vars(rng)]
    if command == "construct":
        monomials = rng.sample([(i, j) for i in range(3) for j in range(3 - i)], rng.randint(1, 3))
        values = [_small(rng, "t", 2) if rng.random() < 0.8 else _expression(rng, "t") for _ in monomials]
        lines = [f"{i},{j} -> {value}" for (i, j), value in zip(monomials, values)]
        if rng.random() < 0.2:
            lines.append(_mutate(rng, "1,0 -> t2"))
        path = tmp_path / f"table-{rng.randrange(10**9)}.jets"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        degree = rng.choice(["2"] * 4 + ["3", "1", "-1", "100", str(10**40), "deg"])
        return [command, "--map", str(path), "--degree", degree, *rng.choice([[]] * 4 + [["--vars", "2"], ["--vars", "x"]])]
    if command == "check":
        return [
            command, "--law", rng.choice(LAWS), "--trials", str(rng.randint(-1, 2)),
            "--seed", str(rng.randrange(1000)), *rng.choice([[], ["--n", str(rng.randint(0, 4))]]),
        ]
    return [command, _expression(rng), *_vars(rng)]


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """cli.main as the console script runs it: argparse's exit is an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _variables(argv: list[str], *sources: tuple[str, set[str]]) -> int:
    if "--vars" in argv:
        return int(argv[argv.index("--vars") + 1])
    return max([1] + [max_index(parse_ast(src, prefixes)) for src, prefixes in sources])


def expected(argv: list[str]):
    """What the library computes for an operator or polynomial command, and how to parse stdout."""
    command, args = argv[0], argv[1:]
    td = {"t", "d"}
    if command == "normalize":
        n = _variables(argv, (args[0], td))
        return parse_operator(args[0], n), lambda text: parse_operator(text, n)
    if command == "comm":
        n = _variables(argv, (args[0], td), (args[1], td))
        value = commutator(parse_operator(args[0], n), parse_operator(args[1], n))
        return value, lambda text: parse_operator(text, n)
    if command == "apply":
        n = _variables(argv, (args[0], td), (args[1], {"t"}))
        value = parse_operator(args[0], n).apply(parse_poly(args[1], n))
        return value, lambda text: parse_poly(text, n)
    if command == "quantize":
        n = int(argv[argv.index("--vars") + 1]) if "--vars" in argv else None
        value = quantize(parse_symbol(args[0], n))
        return value, lambda text: parse_operator(text, value.n)
    if command == "construct":
        with open(argv[2], encoding="utf-8") as handle:
            table = parse_jet_map(handle.read(), int(argv[4]))
        value = from_jet_map(table)
        return value, lambda text: parse_operator(text, value.n)
    return None


def check_outcome(argv: list[str], code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        lines = err.splitlines()
        if lines and lines[0].startswith("usage: "):
            lines = [line for line in lines if ": error: " in line]  # argparse's usage, then its one line
        assert len(lines) == 1, (argv, err)
        assert out == "", (argv, out)
    elif code == 0:
        assert err == "", (argv, err)


def test_random_command_lines(tmp_path):
    rng = random.Random(SEED)
    codes = {0: 0, 1: 0, 2: 0}
    reparsed = 0
    for _ in range(CASES):
        argv = _argv(rng, tmp_path)
        code, out, err = run_main(argv)
        check_outcome(argv, code, out, err)
        codes[code] += 1
        if code == 0:
            pair = expected(argv)
            if pair is not None:
                value, parse = pair
                assert parse(out.strip()) == value, (argv, out)
                reparsed += 1
    # the draw reaches every outcome and parses plenty of results back
    assert codes[0] > 80 and codes[2] > 80, codes
    assert reparsed > 40, reparsed


def test_check_max_order_is_bounded_by_the_jet_basis():
    # --max-order near and far past the largest allowed for each --n: C(n + k, n) <= 300
    rng = random.Random(SEED + 1)
    largest = {1: 299, 2: 23, 3: 10}
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.choice([largest[n] - 1, largest[n], largest[n] + 1, rng.randint(0, 10**6)])
        argv = ["check", "--law", rng.choice(LAWS[:3]), "--trials", "1", "--seed", str(rng.randrange(1000)),
                "--n", str(n), "--max-order", str(k)]
        code, out, err = run_main(argv)
        check_outcome(argv, code, out, err)
        assert (code == 2) == (k > largest[n]), (argv, code, err)


SUBPROCESS_CASES = [
    ["normalize", "(t1+t2)^5000"],
    ["normalize", "7^123456789"],
    ["normalize", "t1*²٣@"],
    ["apply", "d1^100001", "t1"],
    ["comm", "t" + "9" * 5000, "d1"],
    ["symbol", "d1*d2", "--grade", "1"],
    ["order", "t1", "--vars", "x"],
    ["check", "--law", "no-such-law", "--seed", "1"],
    ["normalize", "d1^300*d2^300*t1^300*t2^300"],
    ["normalize", "*".join(["(t1+t2+t3)^30"] * 5)],
    ["comm", "(t1+t2+t3+d1+d2+d3)^8", "(t1+t2+t3+d1+d2+d3)^8"],
    ["apply", "(t1+t2+t3+d1+d2+d3)^12", "(t1+t2+t3)^40"],
    ["symbol", "0", "--grade", "-2"],
    ["check", "--law", "interpolation", "--trials", "2", "--seed", "1", "--max-order", "40", "--n", "3"],
    ["check", "--law", "jacobi", "--trials", "3", "--seed", "1", "--max-order", "200", "--n", "3"],
]


@pytest.mark.parametrize("argv", SUBPROCESS_CASES, ids=lambda argv: " ".join(argv)[:40])
def test_processes_never_print_a_traceback(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "weylcalc", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    check_outcome(argv, proc.returncode, proc.stdout, proc.stderr)


def test_apply_skips_words_beyond_the_polynomial_reach_as_a_process():
    # 4960 words in d71..d100 against 4960 terms in t1..t30: no pair meets, and a scan
    # of every pair, in the size check or in apply, takes over a minute; skipped, about 1 s
    words = "(" + "+".join(f"d{i}" for i in range(71, 101)) + ")^3"
    terms = "(" + "+".join(f"t{i}" for i in range(1, 31)) + ")^3"
    proc = subprocess.run(
        [sys.executable, "-m", "weylcalc", "apply", words, terms], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_construct_refuses_a_large_degree_as_a_process(tmp_path):
    path = tmp_path / "table.jets"
    path.write_text("1,0 -> t2\n", encoding="utf-8")
    argv = ["construct", "--map", str(path), "--degree", str(10**40)]
    proc = subprocess.run(
        [sys.executable, "-m", "weylcalc", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    check_outcome(argv, proc.returncode, proc.stdout, proc.stderr)
