"""Benchmark for csbb: seeded operation streams timed from outside the program.

    python3 bench/run.py --workload json-search --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the same rounds
untraced and then traced, and prints the per-layer metrics with the tracing
overhead. --workload all runs every workload in turn, each in its own
process. The last line of standard output is the result as one JSON object;
a results file with its provenance goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import expr_rewrite
import foreign_marshal
import harness
import json_build
import json_search
import tracer as tracing

WORKLOADS = {
    wl.name: wl
    for wl in (json_search.Workload(), json_build.Workload(), expr_rewrite.Workload(),
               foreign_marshal.Workload())
}
RESULTS_DIR = os.path.join(harness.ROOT, "bench", "results")


def git_commit() -> str | None:
    """The checked-out commit, or None when the checkout has no .git of its own."""
    if not os.path.exists(os.path.join(harness.ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = os.path.join(RESULTS_DIR, "work", wl.name)
    os.makedirs(work_dir, exist_ok=True)
    rss_start = harness.current_rss_mb()
    # Set-up is timed only with tracing off: its probes, run between rounds, would
    # also slow the untraced loop that the traced one is compared with.
    cold = None if trace else harness.ColdSetups(wl, work_dir, seconds)
    m, state, warm_setup = harness.set_up(wl, work_dir)
    try:
        api = harness.make_api(m)
        before = harness.current_rss_mb()
        round0 = wl.make_round(harness.round_rng(seed, 0))
        inputs_mb = harness.current_rss_mb() - before
        del round0
        res = harness.run_loop(wl, api, state, seed, seconds=seconds,
                               after_round=cold and cold.after_round)
    finally:
        wl.close(state)
    report = {"loop": res, "setup_times": cold and cold.finish(), "warm_setup": warm_setup,
              "rss_start_mb": rss_start, "inputs_mb": inputs_mb}
    if not trace:
        report["metrics"] = harness.end_to_end(res, report["setup_times"])
        return report
    tr = tracing.Tracer()
    try:
        m, state, _ = harness.set_up(wl, work_dir, tracer=tr)
        try:
            api = harness.make_api(m)
            tr.wrap_api(api)
            traced = harness.run_loop(wl, api, state, seed, rounds=res.rounds, tracer=tr)
            metrics = tr.metrics()
            metrics.update(tracing.fixed_costs(m, work_dir))
        finally:
            wl.close(state)
    finally:
        tr.close()
    overhead = 100.0 * (traced.elapsed_s / res.elapsed_s - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    report.update(loop=traced, untraced=res, metrics=metrics)
    return report


def wrong_outputs(report: dict) -> list:
    return report["loop"].wrong + (report["untraced"].wrong if "untraced" in report else [])


def result_line(report: dict) -> dict:
    res = report["loop"]
    return {
        "correct": not wrong_outputs(report),
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": report["metrics"],
    }


def write_results(wl_name: str, seed: int, seconds: float, trace: bool, report: dict) -> str:
    res = report["loop"]
    doc = {
        "workload": wl_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "rounds": res.rounds,
        "attempted": res.attempted,
        "failed": res.failed,
        "failures": res.failures,
        "wrong": wrong_outputs(report)[:20],
        "op_time_s": res.elapsed_s,
        "per_round": res.per_round,
        "classes": harness.class_summary(res),
        "cold_setup_times_s": report["setup_times"],
        "in_process_setup_s": report["warm_setup"],
        "rss_start_mb": report["rss_start_mb"],
        "inputs_mb": report["inputs_mb"],
        "metrics": report["metrics"],
    }
    if "untraced" in report:
        doc["untraced_op_time_s"] = report["untraced"].elapsed_s
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{wl_name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return path


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory stay separate."""
    results = {}
    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
        for metric, v in results[name]["metrics"].items():
            print(f"{name:16s} {metric:34s} {v['value']:14.4f} {v['unit']}")
        print(f"{name:16s} {'attempted / failed':34s} {results[name]['attempted']:>9d} / {results[name]['failed']}")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except harness.MissingProgram as e:
        print(f"cannot run the benchmark: {e}", file=sys.stderr)
        return 2
    path = write_results(args.workload, args.seed, args.seconds, bool(args.trace), report)
    wrong = wrong_outputs(report)
    for problem in wrong[:10]:
        print(f"wrong output: {problem}", file=sys.stderr)
    for failure, count in report["loop"].failures.items():
        print(f"failed: {count} x {failure}", file=sys.stderr)
    print(f"results: {os.path.relpath(path, harness.ROOT)}", file=sys.stderr)
    print(json.dumps(result_line(report)))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
