"""In-memory span recorder that wraps the package's public functions and methods.

Every wrapped call records one span: name, start, end and the span that was
open when it started (its parent).  Spans live in flat arrays, 24 bytes
each, and are written out once at the end.  A span's self time is its
duration minus the durations of its children.

Constructors (`__init__`, `__new__`, classmethods), comparisons and hashing
are not wrapped, nor is the `MultiIndex` value type: their cost stays in the
self time of whatever called them.  The law functions are private, so they
are wrapped through the `LAWS` table as `laws.law.<name>`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from types import ModuleType, SimpleNamespace

# Dunder methods that do algebra; all other underscore names are skipped.
ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__call__", "__str__",
}
SKIPPED_CLASSES = {"MultiIndex"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self.counts: dict[str, int] = {}
        self.commutator_args: list[tuple] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        """fn with a span around each call; after(args, result) runs outside it."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, open_ = self.name_id, self.parent, self.start, self.end, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0)
            open_.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, key: str, measure):
        def after(args, result):
            self.counts[key] = self.counts.get(key, 0) + measure(args, result)

        return after

    # -- patching the package ---------------------------------------------

    def _setattr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def instrument(self, m: SimpleNamespace, layers: tuple[str, ...]) -> None:
        """Wrap the public functions and methods of every layer module of m."""
        after = {
            "poly.Poly.__mul__": self._count("poly.mul.terms_out", lambda a, r: len(r.terms)),
            "operators.DiffOp.compose": self._count(
                "operators.compose.terms_out", lambda a, r: sum(len(f.terms) for f in r.terms.values())
            ),
            "parser.parse_ast": self._count("parser.bytes", lambda a, r: len(a[0].encode())),
        }
        wrapped: dict = {}
        for layer in layers:
            mod = getattr(m, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    span = f"{layer}.{name}"
                    wrapped[obj] = self.wrap(obj, span, after.get(span))
                elif inspect.isclass(obj) and name not in SKIPPED_CLASSES and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn) or (attr.startswith("_") and attr not in ARITHMETIC):
                            continue
                        if fn not in wrapped:
                            span = f"{layer}.{name}.{fn.__name__}"
                            wrapped[fn] = self.wrap(fn, span, after.get(span))
                        self._setattr(obj, attr, wrapped[fn])
        # Rebind functions in every namespace that imported them by name.
        for mod in [v for k, v in sys.modules.items() if k == "weylcalc" or k.startswith("weylcalc.")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._setattr(mod, name, wrapped[obj])
        # grothendieck's own view of commutator: remember the arguments so the
        # distinct ones can be counted after the run, outside every span.
        inner = m.grothendieck.commutator

        def commutator(a, b):
            self.commutator_args.append((a, b))
            return inner(a, b)

        self._setattr(m.grothendieck, "commutator", commutator)
        laws = m.laws.LAWS
        for law, fn in list(laws.items()):
            self._undo.append((laws, law, fn))
            laws[law] = self.wrap(fn, f"laws.law.{law}")

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def analyse(self) -> SimpleNamespace:
        """Per span name: calls, self ns, outermost inclusive ns; per (root, layer) self ns."""
        n, names = len(self.start), self.names
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(names)
        calls, self_ns, outer_ns, depth = [0] * k, [0] * k, [0] * k, [0] * k
        root = array("i", bytes(4 * n))
        by_root: dict[tuple[str, str], int] = {}
        layer_of = [name.split(".")[0] for name in names]
        active: list[int] = []
        for i in range(n):
            p = parent[i]
            while active and active[-1] != p:
                depth[name_id[active.pop()]] -= 1
            nid = name_id[i]
            dur = end[i] - start[i]
            own = dur - child[i]
            calls[nid] += 1
            self_ns[nid] += own
            if depth[nid] == 0:
                outer_ns[nid] += dur
            depth[nid] += 1
            active.append(i)
            r = i if p < 0 else root[p]
            root[i] = r
            key = (names[name_id[r]], layer_of[nid])
            by_root[key] = by_root.get(key, 0) + own
        distinct = len(set(self.commutator_args))
        return SimpleNamespace(
            spans=n,
            calls=dict(zip(names, calls)),
            self_ns=dict(zip(names, self_ns)),
            outer_ns=dict(zip(names, outer_ns)),
            layer_self_ns=by_root,
            counts=dict(self.counts),
            commutators=len(self.commutator_args),
            commutators_distinct=distinct,
        )

    def write(self, path: Path, meta: dict) -> None:
        """Spans as <path>.bin (name_id i32, parent i32, start i64, end i64 arrays) plus a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as handle:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(handle)
        index = dict(meta, spans=len(self.start), names=self.names,
                     arrays=["name_id:i32", "parent:i32", "start_ns:i64", "end_ns:i64"])
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
