"""Seeded inputs, timed passes and exactness oracles for the benchmark workloads.

A workload is driven pass by pass.  `inputs(i)` builds the inputs of pass i
from the run's seed (untimed), `run(inputs)` executes the pass and returns
(wall seconds, per-call seconds, outputs), and `check(inputs, outputs)`
returns (attempted, failed, messages).  The oracles never reuse the code path the
pass timed: a power is checked by applying its base repeatedly, an order by
the construction of the operator, a CLI answer by re-parsing its stdout.

All library calls go through the module namespace `m`, looked up at call
time, so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The package modules; they are also the layers the traced run reports.
LAYERS = ("poly", "operators", "grothendieck", "symbols", "jets", "parser", "laws", "cli")

CHILD_TIMEOUT_S = 60


def import_fresh() -> SimpleNamespace:
    """Import every layer module anew, as a cold start would."""
    for name in [k for k in sys.modules if k == "weylcalc" or k.startswith("weylcalc.")]:
        del sys.modules[name]
    m = SimpleNamespace(**{layer: importlib.import_module(f"weylcalc.{layer}") for layer in LAYERS})
    if SRC not in Path(m.poly.__file__).resolve().parents:
        raise ImportError(f"weylcalc imported from {m.poly.__file__}, not from {SRC}")
    return m


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.choice((1, 2)))


# ---------------------------------------------------------------------------
# battery: the acceptance-scale law battery, many tiny objects


class Battery:
    """`run_all` at ACCEPTANCE_CONFIG scale; one call is one law trial.

    Pass i uses the law seed `seed + 1000003*i`, so pass 0 is exactly
    `weylcalc check --ci --seed <seed>`.  Trials are timed by wrapping the
    entries of the `LAWS` table for the length of the pass: a per-law time
    would put the percentiles between the few slow laws and the many fast ones.
    """

    name = "battery"

    def __init__(self, m: SimpleNamespace, seed: int, workdir: Path):
        self.m = m
        self.seed = seed

    def inputs(self, i: int):
        return replace(self.m.laws.ACCEPTANCE_CONFIG, seed=self.seed + 1000003 * i)

    def run(self, cfg):
        laws = self.m.laws.LAWS
        originals = dict(laws)
        calls: list[float] = []

        def timed(fn):
            def trial(*args):
                start = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    calls.append(time.perf_counter() - start)

            return trial

        laws.update({law: timed(fn) for law, fn in originals.items()})
        try:
            start = time.perf_counter()
            reports = self.m.laws.run_all(cfg)
            wall = time.perf_counter() - start
        finally:
            laws.update(originals)
        return wall, calls, reports

    def check(self, cfg, reports) -> tuple[int, int, list[str]]:
        attempted = len(self.m.laws.LAWS) * cfg.trials
        failed = sum(r.failure_count for r in reports)
        lines = [r.machine_line() for r in reports]
        messages = [f"seed {cfg.seed}: {line}" for line in lines if not line.endswith(" PASS")]
        ran = [(r.law, r.trials) for r in reports]
        if ran != [(law, cfg.trials) for law in self.m.laws.LAWS]:
            failed += 1
            messages.append(f"seed {cfg.seed}: ran {ran}")
        return attempted, failed, messages


# ---------------------------------------------------------------------------
# heavy: a few large objects, per-term arithmetic dominates

POWER = 8  # (sum a_i t_i + b_i d_i)^8: about 1.9k coefficient terms
GORDER_POWER = 5  # grothendieck_order of (c1 t1 d2 + c2 t2 d3 + c3 t3 d1)^5
JET_DEGREE = 6  # dense jet table over the 84 monomials of degree <= 6 in 3 variables


@dataclass
class HeavyInputs:
    field: object  # first-order operator with nonzero symbol
    rotation_power: object  # a power of another first-order field
    table: object  # JetMap
    probe: object  # polynomial for the apply oracle


class Heavy:
    """Five large seeded tasks; one call is one task."""

    name = "heavy"
    TASKS = ("power", "gorder", "from_jet_map", "restriction", "roundtrip")

    def __init__(self, m: SimpleNamespace, seed: int, workdir: Path):
        self.m = m
        self.seed = seed

    def _poly(self, rng: random.Random, n: int, max_degree: int):
        Poly = self.m.poly.Poly
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = _rational(rng)
        return Poly(n, terms)

    def inputs(self, i: int) -> HeavyInputs:
        rng = random.Random(f"heavy:{self.seed}:{i}")
        n = 3
        Poly, DiffOp = self.m.poly.Poly, self.m.operators.DiffOp
        zero = (0,) * n

        def unit(j: int) -> tuple[int, ...]:
            return tuple(1 if k == j else 0 for k in range(n))

        field = DiffOp(
            n,
            {zero: Poly(n, {unit(j): _rational(rng) for j in range(n)}),
             **{unit(j): Poly.const(n, _rational(rng)) for j in range(n)}},
        )
        # c1 t1 d2 + c2 t2 d3 + c3 t3 d1
        rotation = DiffOp(n, {unit((j + 1) % n): Poly(n, {unit(j): _rational(rng)}) for j in range(n)})
        table = self.m.jets.JetMap(
            n,
            JET_DEGREE,
            {I: self._poly(rng, n, 3) for I in self.m.poly.monomials_up_to(n, JET_DEGREE)},
        )
        # t^(8,8,8) is moved by every derivative word of order <= 8
        probe = Poly(n, {(POWER,) * n: 1}) + self._poly(rng, n, 2)
        return HeavyInputs(field, rotation ** GORDER_POWER, table, probe)

    def run(self, inp: HeavyInputs):
        m = self.m
        outputs, calls = {}, []

        def task(name, fn, *args):
            start = time.perf_counter()
            try:
                outputs[name] = fn(*args)
            except Exception:  # reported as a failed task, not a crash of the bench
                outputs[name] = traceback.format_exc()
            calls.append(time.perf_counter() - start)

        task("power", lambda: inp.field ** POWER)
        task("gorder", lambda: m.grothendieck.grothendieck_order(inp.rotation_power))
        task("from_jet_map", lambda: m.jets.from_jet_map(inp.table))
        task("restriction", lambda: m.jets.restriction(outputs["from_jet_map"], JET_DEGREE))
        task("roundtrip", lambda: m.parser.parse_operator(str(outputs["power"]), outputs["power"].n))
        return sum(calls), calls, outputs

    def check(self, inp: HeavyInputs, outputs) -> tuple[int, int, list[str]]:
        DiffOp = self.m.operators.DiffOp
        bad = {}
        power = outputs["power"]
        if not isinstance(power, DiffOp):
            bad["power"] = f"raised {power}"
        elif power.order != POWER:
            bad["power"] = f"order {power.order}, a power of a first-order field says {POWER}"
        else:
            want = inp.probe
            for _ in range(POWER):
                want = inp.field.apply(want)
            if power.apply(inp.probe) != want:
                bad["power"] = f"disagrees with {POWER} applications of the field on {inp.probe}"
        if outputs["gorder"] != GORDER_POWER:
            bad["gorder"] = f"gave {outputs['gorder']}, the construction says {GORDER_POWER}"
        D = outputs["from_jet_map"]
        if not isinstance(D, DiffOp) or (D.order or 0) > JET_DEGREE:
            bad["from_jet_map"] = f"gave {D!s:.200}, not an operator of order <= {JET_DEGREE}"
        if outputs["restriction"] != inp.table:
            bad["restriction"] = "restriction(from_jet_map(table)) differs from the table"
        if outputs["roundtrip"] != power:
            bad["roundtrip"] = "parse(str(P)) differs from P"
        return len(self.TASKS), len(bad), [f"{task}: {why}" for task, why in bad.items()]


# ---------------------------------------------------------------------------
# cli: cold `python -m weylcalc` invocations, interpreter start dominates

CLI_PER_COMMAND = 2  # instances of each subcommand per pass


@dataclass
class CliCommand:
    argv: list[str]
    table_text: str = ""


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str


class Cli:
    """A seeded mix of every subcommand on small expressions; one call is one process."""

    name = "cli"

    def __init__(self, m: SimpleNamespace, seed: int, workdir: Path):
        self.m = m
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()

    # expression generators: small, not in normal form, indices up to 3

    @staticmethod
    def _poly(rng: random.Random, n: int = 3) -> str:
        parts = []
        for _ in range(rng.randint(1, 2)):
            c = _rational(rng)
            mono = "*".join(f"t{rng.randint(1, n)}" for _ in range(rng.randint(0, 2)))
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    def _operator(self, rng: random.Random) -> str:
        products = []
        for _ in range(rng.randint(1, 3)):
            factors = []
            for _ in range(rng.randint(1, 2)):
                kind = rng.randrange(4)
                j = rng.randint(1, 3)
                factors.append(
                    (f"t{j}", f"d{j}", f"({self._poly(rng)})", f"t{j}^2")[kind]
                )
            products.append("*".join(factors))
        return " + ".join(products)

    def _first_order(self, rng: random.Random) -> str:
        parts = [f"({self._poly(rng)})*d{rng.randint(1, 3)}", f"d{rng.randint(1, 3)}*({self._poly(rng)})"]
        return " + ".join(parts[: rng.randint(1, 2)] + [self._poly(rng)])

    def _symbol(self, rng: random.Random) -> str:
        grade = rng.randint(1, 2)
        terms = []
        for _ in range(rng.randint(1, 2)):
            xs = "*".join(f"x{rng.randint(1, 3)}" for _ in range(grade))
            terms.append(f"({self._poly(rng)})*{xs}")
        return " + ".join(terms)

    def _table(self, rng: random.Random, degree: int) -> str:
        lines = []
        for I in self.m.poly.monomials_up_to(2, degree):
            if not lines or rng.random() < 0.7:  # an empty table has no variable count
                lines.append(f"{I[0]},{I[1]} -> {self._poly(rng, 2)}")
        return "\n".join(lines) + "\n"

    def inputs(self, i: int) -> list[CliCommand]:
        rng = random.Random(f"cli:{self.seed}:{i}")
        laws = list(self.m.laws.LAWS)
        commands = []
        for k in range(CLI_PER_COMMAND):
            commands += [
                CliCommand(["normalize", self._operator(rng)]),
                CliCommand(["apply", self._operator(rng), self._poly(rng)]),
                CliCommand(["comm", self._operator(rng), self._operator(rng)]),
                CliCommand(["order", self._operator(rng)]),
                CliCommand(["gorder", self._operator(rng)]),
                CliCommand(["symbol", self._operator(rng)]),
                CliCommand(["quantize", self._symbol(rng)]),
                CliCommand(["split1", self._first_order(rng)]),
                CliCommand(
                    ["check", "--law", rng.choice(laws), "--trials", "3", "--seed", str(rng.randrange(10**6))]
                ),
            ]
            degree = rng.randint(1, 2)
            path = self.workdir / f"table-{i}-{k}.jets"
            text = self._table(rng, degree)
            path.write_text(text, encoding="utf-8")
            commands.append(
                CliCommand(["construct", "--map", str(path), "--degree", str(degree)], text)
            )
        rng.shuffle(commands)
        return commands

    def run(self, commands: list[CliCommand]):
        results, calls = [], []
        for cmd in commands:
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "weylcalc", *cmd.argv],
                    capture_output=True,
                    text=True,
                    env=self.env,
                    cwd=ROOT,
                    timeout=CHILD_TIMEOUT_S,
                )
                result = CliResult(proc.returncode, proc.stdout, proc.stderr)
            except subprocess.TimeoutExpired:
                result = CliResult(None, "", f"timed out after {CHILD_TIMEOUT_S}s")
            calls.append(time.perf_counter() - start)
            results.append(result)
        return sum(calls), calls, results

    def run_in_process(self, commands: list[CliCommand]):
        """The same argv through `cli.main` in this process (no interpreter start)."""
        results, calls = [], []
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.m.cli.main(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    code = None
                    err.write(traceback.format_exc())
            calls.append(time.perf_counter() - start)
            results.append(CliResult(code, out.getvalue(), err.getvalue()))
        return sum(calls), calls, results

    def _expected_match(self, cmd: CliCommand, out: str) -> bool:
        """Does stdout re-parse to what the library computes in this process?"""
        m = self.m
        p = m.parser
        sub, args = cmd.argv[0], cmd.argv[1:]

        def arity(*srcs_prefixes) -> int:
            return max([1] + [p.max_index(p.parse_ast(s, pre)) for s, pre in srcs_prefixes])

        td = {"t", "d"}
        if sub == "check":
            cfg = m.laws.GenConfig(trials=int(args[3]), seed=int(args[5]))
            line = m.laws.run_law(args[1], cfg).machine_line()
            return out == line + "\n" and line.endswith(" PASS")
        if sub == "construct":
            D = m.jets.from_jet_map(p.parse_jet_map(cmd.table_text, int(args[3])))
            return p.parse_operator(out, D.n) == D
        if sub == "quantize":
            s = p.parse_symbol(args[0])
            return p.parse_operator(out, s.n) == m.symbols.quantize(s)
        if sub == "apply":
            n = arity((args[0], td), (args[1], {"t"}))
            want = p.parse_operator(args[0], n).apply(p.parse_poly(args[1], n))
            return p.parse_poly(out, n) == want
        if sub == "comm":
            n = arity((args[0], td), (args[1], td))
            A, B = p.parse_operator(args[0], n), p.parse_operator(args[1], n)
            return p.parse_operator(out, n) == m.operators.commutator(A, B)
        D = p.parse_operator(args[0])
        if sub == "normalize":
            return p.parse_operator(out, D.n) == D
        if sub in ("order", "gorder"):
            order = D.order if sub == "order" else m.grothendieck.grothendieck_order(D)
            return out == ("-inf" if order is None else str(order)) + "\n" and order == D.order
        if sub == "symbol":
            return p.parse_symbol(out, D.n) == m.symbols.principal_symbol(D)
        if sub == "split1":
            X, a = m.grothendieck.split_order_one(D)
            lines = out.splitlines()
            return (
                len(lines) == 2
                and lines[0].startswith("X = ")
                and lines[1].startswith("a = ")
                and p.parse_operator(lines[0][4:], D.n) == X
                and p.parse_poly(lines[1][4:], D.n) == a
            )
        raise ValueError(f"no oracle for subcommand {sub!r}")

    def check(self, commands: list[CliCommand], results: list[CliResult]) -> tuple[int, int, list[str]]:
        failures = []
        for cmd, res in zip(commands, results):
            what = " ".join(cmd.argv)
            if res.code != 0:
                failures.append(f"{what}: exit {res.code}: {res.stderr.strip()[-200:]}")
            elif "Traceback" in res.stderr:
                failures.append(f"{what}: traceback on stderr")
            else:
                try:
                    ok = self._expected_match(cmd, res.stdout)
                except Exception as exc:  # an unparsable stdout is a failed call
                    ok = False
                    what += f" ({type(exc).__name__}: {exc})"
                if not ok:
                    failures.append(f"{what}: stdout {res.stdout.strip()[:200]!r} does not match")
        return len(commands), len(failures), failures


WORKLOADS = {w.name: w for w in (Battery, Heavy, Cli)}
