"""Tests of the benchmark's own arithmetic and of tracing's clean removal."""

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTS, END, ERROR, NAME, PARENT, START  # noqa: E402


def span(name, start, end, parent=None, counts=None):
    return [name, start, end, parent, 0, counts, None]


# root [0, 10]
#   a [1, 4]      -> a1 [2, 3]
#   b [5, 9]      -> b1 [5, 6], b2 [7, 8.5]
TREE = [
    span("cli.main", 0.0, 10.0),
    span("scenarios.run", 1.0, 4.0, 0),
    span("lattice.table", 2.0, 3.0, 1, {"cells": 7}),
    span("topology.report", 5.0, 9.0, 0),
    span("topology.cliques", 5.0, 6.0, 3, {"cliques": 4}),
    span("topology.points", 7.0, 8.5, 3, {"points": 2}),
]


def test_self_time_subtracts_children_only():
    assert tracing.self_times(TREE) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])


def test_self_times_sum_to_the_root_duration():
    assert sum(tracing.self_times(TREE)) == pytest.approx(10.0)


def test_busy_time_includes_children():
    busy = tracing.busy_times(TREE)
    assert busy["scenarios.run"] == pytest.approx(3.0)
    assert busy["topology.report"] == pytest.approx(4.0)


def test_pass_metrics_sum_self_time_per_layer():
    metrics = tracing.pass_metrics(TREE, clique_cap=100, criteria=[])
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["scenarios.run_self_s"] == pytest.approx(2.0)
    assert metrics["lattice.self_s"] == pytest.approx(1.0)
    assert metrics["topology.self_s"] == pytest.approx(4.0)
    assert metrics["topology.report_self_s"] == pytest.approx(1.5)
    assert metrics["lattice.table_cells"] == 7
    assert metrics["lattice.cells_per_s"] == pytest.approx(7.0)
    assert metrics["topology.clique_headroom"] == pytest.approx(0.04)


def test_pass_metrics_read_criterion_times_from_run_all():
    spans = [
        span("checks.run_all", 0.0, 5.0, counts={"a_s": 1.25, "b_s": 3.5}),
        span("entanglement.joint", 1.0, 4.0, 0),
    ]
    metrics = tracing.pass_metrics(spans, clique_cap=100, criteria=["a", "b", "c"])
    assert metrics["checks.a_s"] == pytest.approx(1.25)
    assert metrics["checks.b_s"] == pytest.approx(3.5)
    assert metrics["checks.c_s"] == 0
    assert metrics["checks.self_s"] == pytest.approx(2.0)
    assert metrics["entanglement.self_s"] == pytest.approx(3.0)


def test_tracer_records_nesting_errors_and_counts():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("x.inner", lambda n: n * 2, lambda a, k, r: {"out": r})

    def fail():
        raise ValueError("no")

    outer = tracer.wrap("x.outer", lambda: inner(3))
    failing = tracer.wrap("x.fail", fail)
    assert outer() == 6
    with pytest.raises(ValueError):
        failing()
    first, second, third = tracer.spans
    assert (first[NAME], first[PARENT], second[NAME], second[PARENT]) == (
        "x.outer", None, "x.inner", 0)
    assert first[START] < second[START] < second[END] < first[END]
    assert second[COUNTS] == {"out": 6}
    assert third[ERROR] == "ValueError" and third[PARENT] is None


def _snapshot():
    return {
        name: dict(vars(importlib.import_module(name))) for name in tracing.QCAUSAL_MODULES
    }


def _assert_restored(before):
    for name, attributes in before.items():
        now = vars(importlib.import_module(name))
        for attribute, value in attributes.items():
            assert now[attribute] is value, f"{name}.{attribute} not restored"


def test_traced_run_leaves_every_wrapped_attribute_original(tmp_path):
    from qcausal import cli

    scenario = tmp_path / "order.scn"
    scenario.write_text(
        "kind = order\nevents = e1 1.0 -0.99 @g; e2 1.0 0.99 @g; e3 1.5 1.2 @g\n"
        "expectAdmissible = 3\n"
    )
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as patched:
        aliases = {(module.__name__, alias) for module, alias, _ in patched}
        assert {("qcausal.cli", "run_scenario"), ("qcausal.checks", "run_scenario"),
                ("qcausal.scenarios", "run_scenario"), ("qcausal.cli", "main")} <= aliases
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
    _assert_restored(before)
    names = {s[NAME] for s in tracer.spans}
    assert {"cli.main", "scenarios.parse", "scenarios.run", "causal.enumerate"} <= names


def test_wrappers_are_removed_when_the_traced_call_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("stop")
    _assert_restored(before)


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 5, tmp_path / "a")
        again = workloads.generate(name, 5, tmp_path / "a")
        other = workloads.generate(name, 6, tmp_path / "a")
        assert workloads.digest(first) == workloads.digest(again)
        assert workloads.digest(first) != workloads.digest(other)


def test_output_checks_flag_wrong_topology_and_failed_criteria(tmp_path):
    topology, = [item for item in workloads.generate("structure", 5, tmp_path / "in")
                 if item.name == "topology-10x4"]
    (tmp_path / "topology_topology.json").write_text('{"flags": {"sizeCapHit": false}}')
    metrics = dict(workloads.TOPOLOGY_EXPECT[10, 4], cliqueCount=253)
    assert workloads.check(topology, {"metrics": metrics}, tmp_path) == [
        "sizeCapHit = False", "metric cliqueCount = 253, expected 254"]

    battery, = workloads.generate("battery", 5, tmp_path / "in")
    report = {"allPassed": False, "criteria": [
        {"criterion": 1, "name": "epr-perfect-correlation", "verdict": "pass"},
        {"criterion": 3, "name": "no-signaling", "verdict": "fail"}]}
    assert workloads.check(battery, report, tmp_path) == [
        "criterion 3 no-signaling: fail", "allPassed = False"]
