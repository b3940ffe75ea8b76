#!/usr/bin/env python3
"""weylcalc benchmark: seeded workloads, exact output checks, one JSON result line.

    python3 perfbench/run.py --workload battery|heavy|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

--trace 0 measures the workload for S seconds, tracing off, and reports the
end-to-end metrics.  --trace 1 is the layer run: it runs one pass of every
workload untraced and then traced, so the call counts repeat exactly for a
seed, and reports per-layer metrics, the scaling probes and the tracing
overhead.  --selftest skews the binomial coefficient of composition and
passes only if the battery and heavy checks then report failures, and if
two traced runs on one seed give identical counts.

The last line of stdout is the result object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import LAYERS, ROOT, SRC, WORKLOADS, child_env, import_fresh

OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9  # setup_s is the median of this many fresh imports + input builds
MIN_PASSES = 3
STARTUP_REPEATS = 9  # child processes per cli.interp_ms / cli.import_ms sample
PROBE_POWERS = (6, 8, 10)  # (t1+t2+t3+d1+d2+d3)^k
PROBE_GORDERS = (3, 4, 5, 6)  # grothendieck_order of (t1*d2+t2*d3+t3*d1)^k


def environment() -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            rev = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or rev
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages += messages


def measure(name: str, seed: int, seconds: float, workdir: Path, mutate=None) -> tuple[dict, Tally]:
    """End-to-end metrics of one workload, tracing off."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        m = import_fresh()
        workload = WORKLOADS[name](m, seed, workdir)
        inputs = workload.inputs(0)
        setups.append(time.perf_counter() - start)
    if mutate is not None:
        mutate(m)
    tally, walls, calls = Tally(), [], []
    deadline = None
    i = 0
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        if i:
            inputs = workload.inputs(i)
        gc.collect()
        wall, call_times, outputs = workload.run(inputs)
        tally.add(*workload.check(inputs, outputs))
        if deadline is None:  # pass 0 warms the process up; it is checked, not timed
            deadline = time.perf_counter() + seconds
        else:
            walls.append(wall)
            calls += call_times
        i += 1
    print(f"{name}: {len(walls)} timed passes, {len(calls)} calls, "
          f"{tally.attempted} checked operations, {tally.failed} failed")
    print("pass wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    metrics = {
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "call_p50_ms": (1e3 * statistics.median(calls), "ms", f"median of {len(calls)} calls"),
        "call_p90_ms": (1e3 * p90(calls), "ms", f"p90 of {len(calls)} calls"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (peak_rss_mb(children=name == "cli"), "MB",
                        "largest child" if name == "cli" else "this process"),
    }
    return metrics, tally


def startup_ms(env: dict) -> tuple[float, float]:
    """Median bare-interpreter time and median cold `import weylcalc.cli` time, in ms."""
    interp, imports = [], []
    code = ("import time; t = time.perf_counter(); import weylcalc.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interp.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        imports.append(float(proc.stdout))
    return 1e3 * statistics.median(interp), 1e3 * statistics.median(imports)


def probes(m, tally: Tally) -> dict:
    """The ROADMAP scaling probes, untraced, one timing each."""
    Poly, DiffOp = m.poly.Poly, m.operators.DiffOp
    n = 3
    e = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    out = {}
    total = DiffOp(n, {(0,) * n: Poly(n, {ei: 1 for ei in e}), **{ei: Poly.const(n, 1) for ei in e}})
    for k in PROBE_POWERS:
        start = time.perf_counter()
        P = total ** k
        out[f"probe.power.k{k}_s"] = time.perf_counter() - start
        tally.add(1, int(P.order != k), [] if P.order == k else [f"power probe k={k}: order {P.order}"])
    rotation = DiffOp(n, {e[(i + 1) % n]: Poly(n, {e[i]: 1}) for i in range(n)})
    for k in PROBE_GORDERS:
        Gk = rotation ** k
        start = time.perf_counter()
        order = m.grothendieck.grothendieck_order(Gk)
        out[f"probe.gorder.k{k}_s"] = time.perf_counter() - start
        tally.add(1, int(order != k), [] if order == k else [f"gorder probe k={k}: {order}"])
    return out


# named per-layer metrics: metric prefix -> span name
SPANS = {
    "poly.mul": "poly.Poly.__mul__",
    "poly.derive": "poly.Poly.derive",
    "poly.add": "poly.Poly.__add__",
    "operators.compose": "operators.DiffOp.compose",
    "operators.apply": "operators.DiffOp.apply",
    "operators.render": "operators.DiffOp.__str__",
    "grothendieck.order": "grothendieck.grothendieck_order",
    "jets.from_jet_map": "jets.from_jet_map",
    "jets.restriction": "jets.restriction",
    "symbols.symbol_mul": "symbols.symbol_mul",
    "symbols.principal_symbol": "symbols.principal_symbol",
    "parser.parse_ast": "parser.parse_ast",
    "parser.to_diffop": "parser.to_diffop",
}
CALLS = ("poly.mul", "poly.derive", "poly.add", "operators.compose", "operators.apply",
         "grothendieck.order", "symbols.symbol_mul", "symbols.principal_symbol")
SELF = ("poly.mul", "poly.derive", "poly.add", "operators.compose", "operators.apply",
        "operators.render")
INCLUSIVE = ("grothendieck.order", "jets.from_jet_map", "jets.restriction",
             "symbols.symbol_mul", "parser.parse_ast", "parser.to_diffop")


def layer_run(seed: int, workdir: Path) -> tuple[dict, Tally]:
    """Per-layer metrics from one traced pass of every workload, after two untraced ones."""
    m = import_fresh()
    workloads = [cls(m, seed, workdir) for cls in WORKLOADS.values()]
    inputs = [w.inputs(0) for w in workloads]
    runs = [getattr(w, "run_in_process", w.run) for w in workloads]
    tally = Tally()
    untraced, traced = {}, {}
    cli_calls = []
    for w, run, inp in zip(workloads, runs, inputs):
        for _ in range(2):  # the first pass warms the process up
            gc.collect()
            start = time.perf_counter()
            _, calls, outputs = run(inp)
            untraced[w.name] = time.perf_counter() - start
            tally.add(*w.check(inp, outputs))
        if w.name == "cli":
            cli_calls = calls
    tracer = Tracer()
    results = []
    tracer.instrument(m, LAYERS)
    try:
        for w, run, inp in zip(workloads, runs, inputs):
            gc.collect()
            start = time.perf_counter()
            results.append(tracer.wrap(run, f"bench.{w.name}")(inp)[2])
            traced[w.name] = time.perf_counter() - start
    finally:
        tracer.restore()
    for w, inp, outputs in zip(workloads, inputs, results):
        tally.add(*w.check(inp, outputs))
    a = tracer.analyse()
    s = 1e-9
    metrics = {}
    for key in CALLS:
        metrics[f"{key}.calls"] = (a.calls.get(SPANS[key], 0), "count")
    for key in SELF:
        metrics[f"{key}.self_s"] = (a.self_ns.get(SPANS[key], 0) * s, "s")
    for key in INCLUSIVE:
        metrics[f"{key}.s"] = (a.outer_ns.get(SPANS[key], 0) * s, "s")
    for key in ("poly.mul.terms_out", "operators.compose.terms_out", "parser.bytes"):
        metrics[key] = (a.counts.get(key, 0), "bytes" if key == "parser.bytes" else "count")
    metrics["grothendieck.commutators"] = (a.commutators, "count")
    metrics["grothendieck.commutators_distinct"] = (a.commutators_distinct, "count")
    metrics["grothendieck.useful_ratio"] = (a.commutators_distinct / max(a.commutators, 1), "ratio")
    for law in m.laws.LAWS:
        metrics[f"laws.{law}.s"] = (a.outer_ns.get(f"laws.law.{law}", 0) * s, "s")
    for layer in LAYERS:
        own = sum(v for (root, lay), v in a.layer_self_ns.items() if lay == layer)
        metrics[f"{layer}.self_s"] = (own * s, "s")
    interp_ms, import_ms = startup_ms(child_env())
    metrics["cli.interp_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.main_ms"] = (1e3 * statistics.median(cli_calls), "ms")
    metrics.update({k: (v, "s") for k, v in probes(m, tally).items()})
    metrics["trace.overhead_frac"] = (sum(traced.values()) / sum(untraced.values()) - 1, "ratio")
    metrics["trace.spans"] = (a.spans, "count")

    print(f"{'workload':<10} {'untraced_s':>10} {'traced_s':>10} {'overhead':>9}")
    for name in untraced:
        print(f"{name:<10} {untraced[name]:>10.3f} {traced[name]:>10.3f} "
              f"{traced[name] / untraced[name] - 1:>9.2f}")
    print("self time by layer, seconds:")
    print(f"{'workload':<10}" + "".join(f"{layer:>13}" for layer in ("bench",) + LAYERS))
    for name in untraced:
        row = [a.layer_self_ns.get((f"bench.{name}", layer), 0) * s for layer in ("bench",) + LAYERS]
        print(f"{name:<10}" + "".join(f"{v:>13.4f}" for v in row))
    tracer.write(OUT / "spans", {"seed": seed, "env": environment()})
    print(f"{a.spans} spans written to {(OUT / 'spans.bin').relative_to(ROOT)}")
    return metrics, tally


def result(metrics: dict, tally: Tally) -> dict:
    correct = tally.failed == 0
    for line in tally.messages[:10]:
        print(f"FAILED {line}")
    if correct:
        for key, (value, unit, *note) in metrics.items():
            print(f"{key} = {value:.6g} {unit}" + (f" ({note[0]})" if note else ""))
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # a run whose outputs are wrong reports its failures, not numbers
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()} if correct else {},
    }


def skew_binomial(m) -> None:
    """Off-by-one binomial inside composition, as in the mutation smoke test."""

    def skewed(a, b):
        c = math.comb(a, b)
        return c + 1 if 0 < b < a else c

    m.operators._binom = skewed


def selftest(workdir: Path) -> int:
    """The checks must catch a skewed binomial, and traced counts must repeat exactly."""
    passed = True
    for name in ("battery", "heavy"):
        metrics, tally = measure(name, 1, 0, workdir, mutate=skew_binomial)
        out = result(metrics, tally)
        ok = not out["correct"] and out["failed"] > 0 and not out["metrics"]
        print(f"selftest {name}: {'caught' if ok else 'MISSED'} the skewed binomial "
              f"({out['failed']} of {out['attempted']} failed)")
        passed &= ok
    counts = []
    for _ in range(2):
        metrics, _ = layer_run(1, workdir)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")})
    same = counts[0] == counts[1]
    print(f"selftest counts: {len(counts[0])} counts of two traced runs "
          f"{'are identical' if same else 'DIFFER'}")
    return 0 if passed and same else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "weylcalc" / "__init__.py").is_file():
        print(f"error: no weylcalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment()))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.selftest:
            return selftest(workdir)
        if args.trace:
            metrics, tally = layer_run(args.seed, workdir)
        else:
            metrics, tally = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = result(metrics, tally)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
