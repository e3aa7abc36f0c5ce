"""Tests of the benchmark's own checkers and generators.

Not part of the tier-1 suite; run them with

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import expr_rewrite  # noqa: E402
import foreign_marshal  # noqa: E402
import harness  # noqa: E402
import json_build  # noqa: E402
import json_search  # noqa: E402
import run  # noqa: E402

WORKLOADS = (json_search.Workload(), json_build.Workload(), expr_rewrite.Workload(),
             foreign_marshal.Workload())


@pytest.fixture(scope="module")
def m():
    return harness.import_csbb()


def run_ops(wl, m, ops, work_dir):
    """Set the workload up, run each operation, and return (op, output) pairs."""
    st = wl.setup(m, str(work_dir))
    try:
        api = harness.make_api(m)
        return [(op, wl.run(api, st, op)) for op in ops]
    finally:
        wl.close(st)


def smallest_ops(wl, seed: int = 7):
    return [op for op in wl.make_round(harness.round_rng(seed, 0)) if op.cls == wl.classes[0]]


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda wl: wl.name)
def test_smallest_size_completes_and_checks(wl, m, tmp_path):
    ops = smallest_ops(wl)
    assert ops
    for op, out in run_ops(wl, m, ops, tmp_path):
        assert wl.check(op, out) is None


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda wl: wl.name)
def test_same_seed_gives_same_inputs(wl):
    a = wl.make_round(harness.round_rng(3, 2))
    b = wl.make_round(harness.round_rng(3, 2))
    assert [(op.cls, op.input) for op in a] == [(op.cls, op.input) for op in b]
    c = wl.make_round(harness.round_rng(4, 2))
    assert [op.input for op in a] != [op.input for op in c]


def test_json_search_rejects_an_altered_binding(m, tmp_path):
    wl = json_search.Workload()
    op, out = next((op, out) for op, out in run_ops(wl, m, smallest_ops(wl), tmp_path) if out.first)
    assert wl.check(op, out) is None
    altered = m.concrete.parse_term("JSON", '"not the tag"', m.concrete.default_registry())
    assert wl.check(op, _with(out, first={"t": altered})) is not None
    assert wl.check(op, _with(out, every=out.every[:-1])) is not None
    assert wl.check(op, _with(out, rendered=out.rendered[:-1] + ["not a rendering"])) is not None


def test_json_build_rejects_a_dropped_list_element(m, tmp_path):
    wl = json_build.Workload()
    ops = [op for op in wl.make_round(harness.round_rng(7, 0)) if op.cls == "h10"][:3]
    for op, out in run_ops(wl, m, ops, tmp_path):
        assert wl.check(op, out) is None
        dropped = _drop_first_element(out.term)
        assert dropped is not None
        corrupted = _with(out, term=dropped, encoded=m.terms.encode_term(dropped))
        assert wl.check(op, corrupted) is not None


def test_expr_rewrite_rejects_a_skipped_rewrite(m, tmp_path):
    wl = expr_rewrite.Workload()
    ops = [op for op in wl.make_round(harness.round_rng(7, 0)) if op.cls == "s30"]
    pairs = [(op, out) for op, out in run_ops(wl, m, ops, tmp_path)
             if expr_rewrite.simplify(op.expect[0]) != op.expect[0]]
    assert pairs
    for op, out in pairs:
        assert wl.check(op, out) is None
        assert wl.check(op, _with(out, rewritten=out.program)) is not None


def test_foreign_marshal_rejects_a_wrong_constructor(m, tmp_path):
    wl = foreign_marshal.Workload()
    ops = [op for op in wl.make_round(harness.round_rng(7, 0)) if op.cls == "d6"][:5]
    for op, out in run_ops(wl, m, ops, tmp_path):
        assert wl.check(op, out) is None
        wrong = "mul" if out.name != "mul" else "add"
        assert wl.check(op, dataclasses.replace(out, name=wrong)) is not None


@pytest.mark.parametrize("wl", (json_search.Workload(), foreign_marshal.Workload()),
                         ids=lambda wl: wl.name)
def test_deep_operation_fails_only_by_recursion_or_checks(wl, m, tmp_path):
    (op,) = [op for op in wl.make_round(harness.round_rng(1, 0)) if op.deep]
    st = wl.setup(m, str(tmp_path))
    try:
        out = wl.run(harness.make_api(m), st, op)
    except RecursionError:
        return
    finally:
        wl.close(st)
    assert wl.check(op, out) is None


def test_an_ordinary_operation_that_raises_is_a_wrong_output(m, tmp_path):
    wl = json_search.Workload()
    st = wl.setup(m, str(tmp_path))
    try:
        api = harness.make_api(m)

        def parse_term(*args):
            raise ValueError("injected fault")

        api.parse_term = parse_term
        res = harness.run_loop(wl, api, st, 1, rounds=1)
    finally:
        wl.close(st)
    assert res.failed == 1  # the deep document, a known fault
    assert len(res.wrong) == res.attempted - 1
    assert all("ValueError" in problem for problem in res.wrong)
    assert run.result_line({"loop": res, "metrics": {}})["correct"] is False


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "json-search", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _with(out, **changes):
    return types.SimpleNamespace(**{**vars(out), **changes})


def _drop_first_element(t):
    """t with the first element of its first non-empty list removed, or None."""
    kind = type(t).__name__
    if kind == "ListTerm":
        if t.elems:
            return type(t)(t.elems[1:], t.elem_type)
        return None
    if kind == "Con":
        for i, a in enumerate(t.args):
            d = _drop_first_element(a)
            if d is not None:
                return type(t)(t.name, t.type, t.args[:i] + (d,) + t.args[i + 1:])
    return None
