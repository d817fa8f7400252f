"""Tests of the benchmark's own arithmetic and names.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER, layer_metrics, median_seconds
from spans import SETUP_HOOKS, SOLVE_HOOKS, Tracer, installed

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def step(seconds):
        clock.now += seconds

    grandchild = tracer.wrap("grandchild", lambda: step(0.5))

    def child_body(with_grandchild):
        step(1.0)
        if with_grandchild:
            grandchild()
        step(1.0)

    child = tracer.wrap("child", child_body)

    def outer_body():
        step(2.0)
        child(False)
        step(1.0)
        child(True)
        step(3.0)

    tracer.wrap("outer", outer_body)()
    assert tracer.calls == {"outer": 1, "child": 2, "grandchild": 1}
    assert tracer.total["outer"] == 10.5
    assert tracer.total["child"] == 4.5
    assert tracer.self_time["outer"] == 6.0
    assert tracer.self_time["child"] == 4.0
    assert tracer.self_time["grandchild"] == 0.5


def test_a_span_that_raises_is_still_closed():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 1.0
        raise ValueError("boom")

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 2.0
        with pytest.raises(ValueError):
            traced_inner()
        clock.now += 3.0
        return "done"

    assert tracer.wrap("outer", outer)() == "done"
    assert tracer.total["outer"] == 6.0
    assert tracer.self_time["outer"] == 5.0
    assert tracer.self_time["inner"] == 1.0


def test_installed_restores_originals_and_reports_missing_hooks(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.work = lambda x: x + 1
    original = module.work
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer()
    hooks = (("fake_layer", "work", "layer.work"), ("fake_layer", "gone", "layer.gone"),
             ("no_such_module_here", "work", "layer.other"))
    with installed(tracer, hooks) as missing:
        assert module.work is not original
        assert module.work(1) == 2
    assert missing == {"layer.gone", "layer.other"}
    assert module.work is original
    assert tracer.calls["layer.work"] == 1


def test_layer_metrics_report_absent_never_zero_for_required_spans():
    tracer, setup = Tracer(), Tracer()
    tracer.calls["solvers"] = 2
    tracer.total["solvers"] = 4.0
    traced = [{"iterations": 10}, {"iterations": 10}]
    metrics, absent = layer_metrics(
        tracer, setup, missing={"kernels.lap_matrix"},
        required={"solvers", "kernels.inner_step"}, traced=traced,
        fail_rate=0.5, overhead=1.02,
    )
    assert "kernels.lap_matrix.self_s" in absent
    assert "kernels.inner_steps_per_iter" in absent
    assert metrics["kernels.inner_step.self_s"]["value"] == "absent"
    # not required by this workload and never called: a measured zero
    assert metrics["kernels.mm_inner_student.self_s"]["value"] == 0.0
    assert metrics["solvers.iters"]["value"] == 10.0
    assert metrics["solvers.ms_per_iter"]["value"] == 200.0
    assert metrics["fail_rate"]["value"] == 0.5


def test_median_seconds_leaves_out_solves_that_raised():
    records = [{"seconds": 5.0}, {"seconds": 6.0}, {"seconds": 0.01, "error": "EvaluationError"},
               {"seconds": 7.0}]
    assert median_seconds(records) == 6.0
    assert median_seconds([{"seconds": 0.5, "error": "x"}, {"seconds": 0.7, "error": "x"}]) == 0.6


def test_metric_names_and_units_fit_the_charset():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for m in declared:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    for w in BENCHMARK["workloads"]:
        assert NAME.fullmatch(w["name"]), w["name"]


def test_benchmark_json_declares_what_the_runner_reports():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _, _ in PER_LAYER
    ]


def test_every_span_a_metric_reads_has_a_hook():
    spans = {span for _, _, span in SOLVE_HOOKS + SETUP_HOOKS}
    assert {span for _, _, span, _ in PER_LAYER if span is not None} <= spans
