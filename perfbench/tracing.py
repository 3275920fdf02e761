"""Spans around qcausal's public functions, recorded from outside the program.

A traced function is replaced at every module attribute that holds it, so
callers that import a name directly (``cli`` and ``checks`` do) are traced
as well as callers that go through the module. ``installed`` puts the
originals back when it exits, so untraced calls run the unmodified program.

A span is ``[name, start, end, parent, call, counts, error]``; ``counts``
holds the values read from the call's arguments and result. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, CALL, COUNTS, ERROR = range(7)

QCAUSAL_MODULES = (
    "qcausal", "qcausal.quantum", "qcausal.entanglement", "qcausal.lattice",
    "qcausal.topology", "qcausal.causal", "qcausal.scenarios", "qcausal.checks",
    "qcausal.fixtures", "qcausal.cli",
)


def _emitted(args, kwargs, result):
    path = Path(args[0] if args else kwargs["path"])
    data = path.read_bytes()
    rows = data.count(b"\n") - 1 if path.suffix == ".csv" else 0
    return {"bytes": len(data), "rows": rows}


def _table(args, kwargs, result):
    spec = result.spec
    return {"cells": spec.sites * (2 * spec.time_steps - 1)}


def _trials(args, kwargs, result):
    return {"trials": args[1] if len(args) > 1 else kwargs["trials"]}


def _grid(args, kwargs, result):
    step = args[1] if len(args) > 1 else kwargs["grid_step_degrees"]
    return {"angles": len(np.arange(0.0, 360.0, step))}


def _enumerated(args, kwargs, result):
    return {"tried": result.orientation_count, "admissible": result.admissible_count}


def _opens(args, kwargs, result):
    return {"openSets": result.open_set_count, "capHits": int(result.size_cap_hit)}


def _criteria(args, kwargs, result):
    results, _ = result
    return {f"{r.name}_s": r.elapsed for r in results}


# (module, attribute) -> (span name, counter). Span names are "<layer>.<part>".
TRACED = {
    ("qcausal.cli", "main"): ("cli.main", None),
    ("qcausal.scenarios", "parse_scenario"): ("scenarios.parse", None),
    ("qcausal.scenarios", "run_scenario"): ("scenarios.run", None),
    ("qcausal.scenarios", "emit_csv"): ("scenarios.emit", _emitted),
    ("qcausal.scenarios", "emit_json"): ("scenarios.emit", _emitted),
    ("qcausal.lattice", "commutator_table"): ("lattice.table", _table),
    ("qcausal.lattice", "cone_profile"): ("lattice.profile", None),
    ("qcausal.lattice", "commutation_graph"):
        ("lattice.graph", lambda a, k, r: {"vertices": len(r.labels)}),
    ("qcausal.lattice", "pauli_jordan"): ("lattice.point_eval", None),
    ("qcausal.lattice", "canonical_check"): ("lattice.point_eval", None),
    ("qcausal.entanglement", "epr_consistency"): ("entanglement.sample", _trials),
    ("qcausal.entanglement", "maximize_chsh"): ("entanglement.chsh_search", _grid),
    ("qcausal.entanglement", "joint_spin_probabilities"): ("entanglement.joint", None),
    ("qcausal.topology", "maximal_cliques"):
        ("topology.cliques", lambda a, k, r: {"cliques": len(r)}),
    ("qcausal.topology", "points_of_m"):
        ("topology.points", lambda a, k, r: {"points": len(r)}),
    ("qcausal.topology", "generate_topology"): ("topology.generate", _opens),
    ("qcausal.topology", "topology_report"): ("topology.report", None),
    ("qcausal.causal", "enumerate_admissible_orientations"): ("causal.enumerate", _enumerated),
    ("qcausal.causal", "quantum_order"): ("causal.quantum_order", None),
    ("qcausal.causal", "classical_order"): ("causal.classical_order", None),
    ("qcausal.checks", "run_all"): ("checks.run_all", _criteria),
}


class Tracer:
    """Collects spans; ``call`` tags every span with the current CLI call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.call = 0
        self._stack = []

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.call, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span[END] = clock()
                span[ERROR] = type(err).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer):
    """Wrap every alias of each TRACED function; restore the originals on exit."""
    modules = [importlib.import_module(name) for name in QCAUSAL_MODULES]
    patched = []
    try:
        for (home, attribute), (name, counter) in TRACED.items():
            original = getattr(importlib.import_module(home), attribute)
            traced = tracer.wrap(name, original, counter)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, alias, original))
                        setattr(module, alias, traced)
        yield patched
    finally:
        for module, alias, original in reversed(patched):
            setattr(module, alias, original)


def self_times(spans):
    """Each span's duration minus the durations of its child spans."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def busy_times(spans):
    """Total duration of the spans of each name."""
    busy = {}
    for span in spans:
        busy[span[NAME]] = busy.get(span[NAME], 0.0) + span[END] - span[START]
    return busy


LAYERS = ("cli", "scenarios", "lattice", "entanglement", "topology", "causal", "checks")


def pass_metrics(spans, clique_cap, criteria):
    """Per-layer metrics of the spans of one traced pass over a workload's inputs.

    ``*_s`` names other than ``*self_s`` are busy time: the duration of a
    function's spans, children included. ``checks.<criterion>_s`` is the
    criterion's own ``elapsed``, as ``checks.run_all`` returns it.
    """
    self_by_name, calls, errors, counts = {}, {}, {}, {}
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        errors[name] = errors.get(name, 0) + (span[ERROR] is not None)
        for key, value in (span[COUNTS] or {}).items():
            counts[name, key] = counts.get((name, key), 0) + value
    busy = busy_times(spans)

    def b(name):
        return busy.get(name, 0.0)

    def c(name, key):
        return counts.get((name, key), 0)

    def ratio(num, den):
        return num / den if den else 0.0

    largest_clique_family = max(
        (s[COUNTS]["cliques"] for s in spans if s[NAME] == "topology.cliques"), default=0
    )
    metrics = {
        f"{layer}.self_s": sum(v for n, v in self_by_name.items() if n.split(".")[0] == layer)
        for layer in LAYERS
    }
    metrics.update({
        "scenarios.parse_s": b("scenarios.parse"),
        "scenarios.run_self_s": self_by_name.get("scenarios.run", 0.0),
        "scenarios.emit_s": b("scenarios.emit"),
        "scenarios.bytes_written": c("scenarios.emit", "bytes"),
        "scenarios.rows_written": c("scenarios.emit", "rows"),
        "lattice.table_s": b("lattice.table"),
        "lattice.table_cells": c("lattice.table", "cells"),
        "lattice.cells_per_s": ratio(c("lattice.table", "cells"), b("lattice.table")),
        "lattice.profile_s": b("lattice.profile"),
        "lattice.graph_s": b("lattice.graph"),
        "lattice.graph_vertices": c("lattice.graph", "vertices"),
        "lattice.point_eval_s": b("lattice.point_eval"),
        "lattice.point_eval_calls": calls.get("lattice.point_eval", 0),
        "entanglement.sample_s": b("entanglement.sample"),
        "entanglement.trials": c("entanglement.sample", "trials"),
        "entanglement.trials_per_s":
            ratio(c("entanglement.sample", "trials"), b("entanglement.sample")),
        "entanglement.chsh_search_s": b("entanglement.chsh_search"),
        "entanglement.chsh_grid_angles": c("entanglement.chsh_search", "angles"),
        "entanglement.joint_s": b("entanglement.joint"),
        "entanglement.joint_calls": calls.get("entanglement.joint", 0),
        "topology.cliques_s": b("topology.cliques"),
        "topology.cliques_found": c("topology.cliques", "cliques"),
        "topology.clique_headroom": largest_clique_family / clique_cap,
        "topology.points_s": b("topology.points"),
        "topology.points_found": c("topology.points", "points"),
        "topology.generate_s": b("topology.generate"),
        "topology.open_sets": c("topology.generate", "openSets"),
        "topology.cap_hits": c("topology.generate", "capHits"),
        "topology.report_self_s": self_by_name.get("topology.report", 0.0),
        "causal.enumerate_s": b("causal.enumerate"),
        "causal.orientations_tried": c("causal.enumerate", "tried"),
        "causal.admissible_found": c("causal.enumerate", "admissible"),
        "causal.admissible_ratio":
            ratio(c("causal.enumerate", "admissible"), c("causal.enumerate", "tried")),
        "causal.quantum_order_calls": calls.get("causal.quantum_order", 0),
        "causal.classical_order_calls": calls.get("causal.classical_order", 0),
        "causal.cycle_rejections": errors.get("causal.quantum_order", 0),
    })
    metrics.update({f"checks.{name}_s": c("checks.run_all", f"{name}_s") for name in criteria})
    return metrics
