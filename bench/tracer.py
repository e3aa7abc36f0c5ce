"""Spans around calls into each csbb layer, recorded from the benchmark's side.

The traced run wraps csbb's public functions, and the module-level names
through which csbb's own layers call each other, before the registry is
built. Each span adds its time minus its child spans' time (self time) to
its layer, split by the operation's size class. Spans record only while an
operation runs, and are kept in memory. Nothing inside csbb changes.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import foreign_marshal
import json_search

P = ("p10", "p100", "p300", "p1000", "p4000")
H = ("h1", "h10", "h30", "h100", "h400")
S = ("s1", "s30", "s60", "s120", "s200")
D = ("d2", "d4", "d6", "d9", "c300")

# Per-operation layer times, split by size class as listed.
SPLITS = {
    "jsonlang.parse": P + H,
    "concrete.split": (),
    "concrete.lower": H,
    "concrete.lift": H,
    "exprlang.parse": S,
    "terms.decode": S,
    "terms.check": S + D,
    "terms.encode": H,
    "patterns.match_first": P,
    "patterns.match_all": P,
    "patterns.collect": P + S,
    "patterns.instantiate": H,
    "patterns.rewrite": S,
    "pretty.render": (),
    "pretty.read": (),
    "tympanic.load_value": D,
    "tympanic.marshal": D,
}

# Public functions the workloads call, by span name.
API_SPANS = {
    "match_first": "patterns.match_first",
    "match_all": "patterns.match_all",
    "visit_collect": "patterns.collect",
    "visit_rewrite": "patterns.rewrite",
    "instantiate": "patterns.instantiate",
    "encode_term": "terms.encode",
    "pretty_term": "pretty.render",
    "parse_pretty_term": "pretty.read",
    "load_foreign_value": "tympanic.load_value",
    "marshal": "tympanic.marshal",
}

FIXED_COST_REPEATS = 5


class Tracer:
    def __init__(self):
        self.active = False
        self.cls = None
        self.stack: list = []  # child time of each open span
        self.self_s = defaultdict(float)  # (layer, class) -> seconds
        self.calls = defaultdict(int)  # (layer, class) -> calls
        self.sums = defaultdict(float)  # (counter, class) -> total
        self.ops = defaultdict(int)  # class -> operations
        self.requests: list = []  # child requests of the current operation
        self.exprlang = None
        self._gc_start = 0.0
        gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- spans ------------------------------------------------------------

    def span(self, layer: str, fn):
        stack = self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                key = (layer, self.cls)
                self.self_s[key] += dt - stack.pop()
                self.calls[key] += 1
                if stack:
                    stack[-1] += dt

        return traced

    def install(self, m) -> None:
        """Wrap the names csbb's layers call each other through, on fresh modules."""
        c = m.concrete
        c.split_fragment = self.span("concrete.split", c.split_fragment)
        c.lower = self.span("concrete.lower", c.lower)
        c.lift = self.span("concrete.lift", c.lift)
        c.term_from_wire = self.span("terms.decode", c.term_from_wire)
        c.check_term = self.span("terms.check", c.check_term)
        m.tympanic.check_term = self.span("terms.check", m.tympanic.check_term)
        m.tympanic.infer_signature = self.span("tympanic.infer_signature", m.tympanic.infer_signature)
        m.jsonlang.parse_json = self.span("jsonlang.parse", m.jsonlang.parse_json)
        child = self.span("concrete.child", c.SubprocessParser.parse)

        def parse(adapter, nonterminal, text):
            if self.active:
                self.requests.append((nonterminal, text))
            return child(adapter, nonterminal, text)

        c.SubprocessParser.parse = parse
        import csbb.exprlang
        self.exprlang = csbb.exprlang

    def wrap_api(self, api) -> None:
        for name, layer in API_SPANS.items():
            setattr(api, name, self.span(layer, getattr(api, name)))

    # -- operations ---------------------------------------------------------

    def begin(self, cls: str) -> None:
        self.cls = cls
        self.ops[cls] += 1
        self.requests.clear()
        self.active = True

    def end(self) -> None:
        self.active = False
        self.stack.clear()

    def after_op(self, wl, op, out) -> None:
        """Counters read off the finished operation, outside its timing."""
        for key, value in wl.counts(op, out).items():
            self.add(key, value)
        # Replay the child's parses in process, to split child time into
        # parsing and protocol overhead.
        services = {"Stm": self.exprlang.parse_stm, "Expr": self.exprlang.parse_expr}
        for nonterminal, text in self.requests:
            t0 = perf_counter()
            services[nonterminal](text)
            self.add("exprlang.parse", perf_counter() - t0)

    def add(self, counter: str, value: float) -> None:
        self.sums[(counter, self.cls)] += value

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.add("gc.pause", perf_counter() - self._gc_start)
            self.add("gc.collections", 1)

    # -- results ------------------------------------------------------------

    def _total(self, table, name: str, classes=None) -> float:
        return sum(v for (k, c), v in table.items() if k == name and (classes is None or c in classes))

    def metrics(self) -> dict:
        ops = sum(self.ops.values())
        out: dict = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def per_op(total, n):
            return total / n if n else 0.0

        for layer, classes in SPLITS.items():
            table = self.sums if layer == "exprlang.parse" else self.self_s
            put(f"{layer}_ms", 1000 * per_op(self._total(table, layer), ops), "ms")
            for c in classes:
                put(f"{layer}.{c}_ms", 1000 * per_op(self._total(table, layer, (c,)), self.ops[c]), "ms")
        put("jsonlang.parse_calls", per_op(self._total(self.calls, "jsonlang.parse"), ops), "count")
        requests = self._total(self.calls, "concrete.child")
        put("concrete.child_rtt_ms", 1000 * per_op(self._total(self.self_s, "concrete.child"), requests), "ms")
        put("concrete.child_requests", per_op(requests, ops), "count")
        put("terms.nodes", per_op(self._total(self.sums, "terms.nodes"), ops), "count")
        put("patterns.envs", per_op(self._total(self.sums, "envs"), ops), "count")
        put("patterns.collect_hit_ratio",
            per_op(self._total(self.sums, "hits"), self._total(self.sums, "tried")), "ratio")
        infer_calls = self._total(self.calls, "tympanic.infer_signature")
        put("tympanic.infer_signature_ms",
            1000 * per_op(self._total(self.self_s, "tympanic.infer_signature"), infer_calls), "ms")
        put("gc.pause_ms", 1000 * per_op(self._total(self.sums, "gc.pause"), ops), "ms")
        put("gc.collections", per_op(self._total(self.sums, "gc.collections"), ops), "count")
        return out


# ---------------------------------------------------------------------------
# Fixed costs, measured the same way on every workload


def _median_ms(fn, repeats: int = FIXED_COST_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1000 * statistics.median(times)


def cli_import_ms() -> float:
    code = "import time; t = time.perf_counter(); import csbb; print(time.perf_counter() - t)"
    times = []
    for _ in range(FIXED_COST_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return 1000 * statistics.median(times)


def cli_run_ms(work_dir: str) -> float:
    """One `csbb match` from process start to exit, on a fixed 100-property document."""
    doc = os.path.join(work_dir, "cli-input.json")
    with open(doc, "w", encoding="utf-8") as f:
        f.write("{" + ", ".join(f'"k{i}": {i}.5' for i in range(99)) + ', "tag": [1, 2]}')
    argv = [sys.executable, "-m", "csbb", "match", "--lang", "JSON", "--pattern", json_search.Q_FIELD, "--input", doc]

    def run():
        out = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        if out.returncode != 0 or "t = array([number(1.0),number(2.0)])" not in out.stdout:
            raise RuntimeError(f"csbb match failed: {out.returncode} {out.stdout!r} {out.stderr!r}")

    return _median_ms(run)


def child_spawn_ms(m) -> float:
    """Start an ExprLang child and complete its first round trip."""

    def spawn():
        adapter = m.concrete.SubprocessParser([sys.executable, "-m", "csbb.exprlang"])
        try:
            adapter.parse("Expr", "1")
        finally:
            adapter.close()

    return _median_ms(spawn, 3)


def tympanic_setup_ms(m) -> float:
    def setup():
        ty = m.tympanic
        spec = ty.parse_tympanic(foreign_marshal.MAPPING)
        schema = ty.load_schema(foreign_marshal.SCHEMA)
        ty.check_spec(spec, schema)
        ty.infer_signature(spec, schema)

    return _median_ms(setup)


def fixed_costs(m, work_dir: str) -> dict:
    return {
        "concrete.child_spawn_ms": {"value": child_spawn_ms(m), "unit": "ms"},
        "tympanic.setup_ms": {"value": tympanic_setup_ms(m), "unit": "ms"},
        "cli.import_ms": {"value": cli_import_ms(), "unit": "ms"},
        "cli.run_ms": {"value": cli_run_ms(work_dir), "unit": "ms"},
    }
