"""The closed loop that times workload operations, and the statistics it reports.

One client, no threads: each operation starts when the previous one, and its
check, have finished. Only the calls into csbb are timed; generating a round
of inputs and checking outputs happen between timed operations.
"""

from __future__ import annotations

import importlib
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
import types
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 15
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")


@dataclass
class Op:
    cls: str  # size class, e.g. "p4000"
    input: object
    expect: object = None
    deep: bool = False  # fixed input that hits a known fault today


class MissingProgram(Exception):
    pass


def use_checkout() -> None:
    """Make this checkout's src/ the csbb that this process and its children import."""
    if not os.path.isfile(os.path.join(SRC, "csbb", "__init__.py")):
        raise MissingProgram(f"no csbb package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # Child processes (set-up probes, the ExprLang parser, CLI probes) import the same csbb.
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + paths)


def import_csbb() -> types.SimpleNamespace:
    """Import csbb afresh from this checkout's src/ and return its modules.

    Earlier imports are dropped first, so wrappers a tracer installed go too.
    """
    use_checkout()
    for name in [n for n in sys.modules if n == "csbb" or n.startswith("csbb.")]:
        del sys.modules[name]
    return csbb_modules()


def csbb_modules() -> types.SimpleNamespace:
    """csbb's modules as the workloads use them, imported if they are not yet."""
    csbb = importlib.import_module("csbb")
    if not os.path.abspath(csbb.__file__).startswith(os.path.join(SRC, "csbb")):
        raise MissingProgram(f"csbb was imported from {csbb.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        csbb=csbb,
        concrete=csbb.concrete,
        patterns=csbb.patterns,
        terms=csbb.terms,
        tympanic=csbb.tympanic,
        jsonlang=importlib.import_module("csbb.jsonlang"),
        pretty=importlib.import_module("csbb.pretty"),
    )


def make_api(m) -> types.SimpleNamespace:
    """The public functions the workloads call, by layer-span name."""
    match = m.patterns.match
    return types.SimpleNamespace(
        parse_term=m.concrete.parse_term,
        to_pattern=m.concrete.to_pattern,
        match_first=m.patterns.match_first,
        match_all=lambda p, t: list(match(p, t)),
        visit_collect=m.patterns.visit_collect,
        visit_rewrite=m.patterns.visit_rewrite,
        instantiate=m.patterns.instantiate,
        encode_term=m.terms.encode_term,
        pretty_term=m.pretty.pretty_term,
        parse_pretty_term=m.pretty.parse_pretty_term,
        load_foreign_value=m.tympanic.load_foreign_value,
        marshal=m.tympanic.marshal,
    )


def round_rng(seed: int, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so rounds repeat across processes.
    return random.Random(f"{seed}/{index}")


def fault_site(exc: BaseException) -> str:
    """The csbb function the operation called and the innermost one the exception left."""
    sites = []
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = frame.f_code.co_filename
        if os.sep + "csbb" + os.sep in path:
            module = os.path.splitext(os.path.basename(path))[0]
            sites.append(f"{module}.{frame.f_code.co_name}")
    if not sites:
        return "outside csbb"
    return sites[0] if len(sites) == 1 else f"{sites[0]} > {sites[-1]}"


@dataclass
class LoopResult:
    rounds: int = 0
    attempted: int = 0
    elapsed_s: float = 0.0  # time inside timed operations, failed ones included
    latencies_s: list = field(default_factory=list)  # completed operations only
    by_class: dict = field(default_factory=dict)  # size class -> latencies
    # (completed, operation time, machine_ref_ms before the round) of each round
    per_round: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # "Type at module.func" -> count
    wrong: list = field(default_factory=list)  # check messages

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_loop(wl, api, state, seed: int, *, seconds: float | None = None,
             rounds: int | None = None, tracer=None, after_round=None) -> LoopResult:
    """Run whole rounds until `seconds` of operation time or `rounds` rounds.

    `after_round(res)`, if given, is called untimed after each round.
    """
    res = LoopResult()
    while (res.rounds < rounds) if rounds is not None else (res.rounds == 0 or res.elapsed_s < seconds):
        completed, elapsed, ref = len(res.latencies_s), res.elapsed_s, machine_ref_ms()
        for op in wl.make_round(round_rng(seed, res.rounds)):
            res.attempted += 1
            if tracer is not None:
                tracer.begin(op.cls)
            t0 = perf_counter()
            try:
                out = wl.run(api, state, op)
            except Exception as e:
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.end()
                key = f"{type(e).__name__} at {fault_site(e)}"
                res.elapsed_s += dt
                if op.deep:  # a known fault: counted as a failed operation, with its site
                    res.failures[key] = res.failures.get(key, 0) + 1
                else:  # any other operation must not fail
                    res.wrong.append(f"{op.cls}: {key}: {e}"[:300])
                continue
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end()
                tracer.after_op(wl, op, out)
            res.elapsed_s += dt
            res.latencies_s.append(dt)
            res.by_class.setdefault(op.cls, []).append(dt)
            problem = wl.check(op, out)
            if problem is not None:
                res.wrong.append(f"{op.cls}: {problem}")
        res.per_round.append((len(res.latencies_s) - completed, res.elapsed_s - elapsed, ref))
        res.rounds += 1
        if after_round is not None:
            after_round(res)
    return res


def set_up(wl, work_dir: str, tracer=None):
    """Import csbb afresh and set the workload up in this process.

    Returns (modules, state, set-up time in seconds).
    """
    t0 = perf_counter()
    m = import_csbb()
    if tracer is not None:
        tracer.install(m)
    state = wl.setup(m, work_dir)
    return m, state, perf_counter() - t0


class ColdSetups:
    """Set-up times in seconds of fresh interpreters, spread over a timed loop.

    Each probe runs setup_probe.py, so each pays the cold import of csbb and
    of the standard library modules it needs; see that file for what is
    timed. Probes run one at a time between rounds, at even steps of the
    loop's operation time, so their median does not rest on the machine's
    state at one moment. The first runs when the object is made, before the
    loop.
    """

    def __init__(self, wl, work_dir: str, seconds: float):
        use_checkout()
        probe_dir = os.path.join(work_dir, "probe")  # apart from the files the loop's set-up wrote
        os.makedirs(probe_dir, exist_ok=True)
        self.argv = [sys.executable, PROBE, wl.name, probe_dir]
        self.seconds = seconds
        self.times: list = []
        self.probe()

    def probe(self) -> None:
        out = subprocess.run(self.argv, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({out.returncode}): {out.stderr.strip()[-2000:]}")
        self.times.append(float(out.stdout.split()[-1]))

    def after_round(self, res: LoopResult) -> None:
        due = 1 + int((SETUP_REPEATS - 1) * min(1.0, res.elapsed_s / self.seconds))
        while len(self.times) < due:
            self.probe()

    def finish(self) -> list:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


def percentile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_ref_ms() -> float:
    """Time of a fixed pure-Python loop: how fast this machine runs right now.

    Recorded before every round, so a spread between runs can be told apart
    from a change in the program.
    """
    t0 = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return 1000 * (perf_counter() - t0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def end_to_end(res: LoopResult, setup_times: list) -> dict:
    lat_ms = [x * 1000.0 for x in res.latencies_s]
    return {
        "ops_per_s": {"value": len(res.latencies_s) / res.elapsed_s, "unit": "1/s"},
        "op_p50_ms": {"value": percentile(lat_ms, 50), "unit": "ms"},
        "op_p95_ms": {"value": percentile(lat_ms, 95), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def class_summary(res: LoopResult) -> dict:
    """Median and largest latency per size class, in ms: the growth curve."""
    return {
        cls: {"ops": len(lat), "median_ms": 1000 * statistics.median(lat), "max_ms": 1000 * max(lat)}
        for cls, lat in res.by_class.items()
    }
