"""Executable acceptance battery.

Each criterion runs at its pinned tolerance against oracle-fixed golden
values and reports pass/fail; runtime limits are part of the pass
condition but measured times stay out of the report so a rerun is
byte-identical.
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import causal, entanglement, fixtures, lattice, quantum, topology
from .scenarios import DEFAULT_SEED, parse_scenario, run_scenario


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    details: dict
    elapsed: float

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} criterion {self.criterion:2d} {self.name} ({self.elapsed:.2f}s)"


def _timed(limit_seconds):
    def wrap(fn):
        def run(seed):
            start = time.perf_counter()
            passed, details = fn(seed)
            elapsed = time.perf_counter() - start
            if elapsed >= limit_seconds:
                passed = False
                details["runtimeLimitExceeded"] = True
            return passed, details, elapsed

        return run

    return wrap


@_timed(1.0)
def _epr_perfect_correlation(seed):
    rates = {
        name: entanglement.epr_consistency(axis, 2000, seed)
        for name, axis in (("z", (0.0, 0.0, 1.0)), ("x", (1.0, 0.0, 0.0)))
    }
    return all(rate == 1.0 for rate in rates.values()), {"agreement": rates}


@_timed(10.0)
def _quantum_lhv_gap(seed):
    _, values = entanglement.lhv_strategies()
    lhv_max = float(values.max())
    _, quantum_max = entanglement.maximize_chsh(entanglement.bell_phi_plus(), 1.0)
    analytic = entanglement.chsh(
        entanglement.bell_phi_plus(),
        entanglement.xz_axis(0.0),
        entanglement.xz_axis(math.pi / 2),
        entanglement.xz_axis(math.pi / 4),
        entanglement.xz_axis(3 * math.pi / 4),
        signs=(1, -1, 1, 1),
    )
    ok = (
        lhv_max == 2.0
        and len(values) == 16
        and float(values.min()) == -2
        and quantum_max >= 2.827
        and abs(analytic - 2 * math.sqrt(2)) <= 1e-10
        and quantum_max - lhv_max >= 0.8
    )
    details = {"lhvMax": lhv_max, "quantumMax": quantum_max, "analyticS": analytic}
    return ok, details


@_timed(30.0)
def _no_signaling(seed):
    """Joint tables of the correlated pair over a 5-degree x-z axis grid,
    [alpha, beta, i, j]: A's +1 marginal must not move with B's axis beta
    (axis 1), nor B's with A's axis alpha (axis 0), by more than 1e-10."""
    axes = [entanglement.xz_axis(math.radians(d)) for d in range(0, 360, 5)]
    joint = entanglement.joint_spin_tables(entanglement.bell_phi_plus(), axes, axes)
    margin_a = joint[:, :, 0, 0] + joint[:, :, 0, 1]
    margin_b = joint[:, :, 0, 0] + joint[:, :, 1, 0]
    worst = float(max(np.ptp(margin_a, axis=1).max(), np.ptp(margin_b, axis=0).max()))
    return worst <= 1e-10, {"worstMarginalSpread": worst}


@_timed(5.0)
def _ghz_unanimity(seed):
    psi = entanglement.ghz(3)
    z_axis = (0.0, 0.0, 1.0)
    worst = 1.0
    for site in range(3):
        others = [s for s in range(3) if s != site]
        for branch in (0, 1):
            collapsed = quantum.collapse(psi, site, z_axis, branch)
            joint = entanglement.joint_spin_probabilities(collapsed, z_axis, z_axis, *others)
            worst = min(worst, float(joint[branch, branch]))
    return abs(worst - 1.0) <= 1e-12, {"worstUnanimousProbability": worst}


@_timed(5.0)
def _eraser_visibility(seed):
    # name -> (marking, erasure, expected visibility)
    cases = {"unmarked": (False, False, 1.0), "marked": (True, False, 0.0),
             "erased": (True, True, 1.0)}
    measured = {
        name: entanglement.eraser_visibility(entanglement.eraser_curve(marking, erasure)[1])
        for name, (marking, erasure, _) in cases.items()
    }
    ok = all(abs(measured[name] - want) <= 1e-12 for name, (_, _, want) in cases.items())
    return ok, {"visibility": measured}


@_timed(5.0)
def _lattice_commutator_structure(seed):
    spec = lattice.LatticeSpec(64, 1.0, 8)
    table = lattice.commutator_table(spec)
    equal_time = table.equal_time_max()
    antisym = table.antisymmetry_max()
    canonical = max(
        abs(lattice.canonical_check(spec, dx) - (1.0 if dx % 64 == 0 else 0.0))
        for dx in range(65)
    )
    ok = equal_time <= 1e-12 and antisym <= 1e-12 and canonical <= 1e-12
    return ok, {
        "equalTimeMaxAbs": equal_time,
        "antisymmetryMaxAbs": antisym,
        "canonicalMaxError": canonical,
    }


@_timed(60.0)
def _emergent_cone(seed):
    golden = fixtures.load_golden()
    section = golden["cone128"]
    cone = fixtures.cone_section(
        section["sites"], section["mass"], section["timeSteps"], section["eps"]
    )
    slices = golden["manySlices128"]
    commuting = fixtures.many_slices_section(
        slices["sites"], slices["mass"], slices["eps"], slices["maxDt"]
    )["commutingSliceCount"]
    confined = all(extent <= dt + section["broadening"] for dt, extent in cone["extents"])
    ok = (
        golden["status"] == "VERIFIED"
        and cone["extents"] == section["extents"]
        and abs(cone["fittedSpeed"] - section["fittedSpeed"]) <= 1e-9
        and abs(cone["fittedSpeed"] - 1.0) <= 0.15
        and cone["broadening"] == section["broadening"]
        and confined
        and commuting == slices["commutingSliceCount"]
        and commuting >= 2
    )
    return ok, {
        "fittedSpeed": cone["fittedSpeed"],
        "broadening": cone["broadening"],
        "commutingSliceCount": commuting,
        "extentsMatchGolden": cone["extents"] == section["extents"],
        "goldenStatus": golden["status"],
    }


@_timed(5.0)
def _remark_reproduction(seed):
    report = topology.topology_report(topology.disjoint_clique_graph(5, 3))
    ok = report.max_hypersurface_size == 1 and report.topology.is_t1
    return ok, {
        "maxHypersurfaceSize": report.max_hypersurface_size,
        "openSetCount": report.topology.open_set_count,
        "pointCount": len(report.points_subfamily),
    }


def _brute_force_points(cliques, n_vertices):
    """All 2^c subfamily intersections, reduced to minimal non-empty sets.

    By doubling: after clique k, ``inter`` holds the intersection of every
    subfamily of the first k, so the c cliques cost 2^c ANDs; entry 0 is the
    empty subfamily. Distinct sets are marked in a ``1 << n_vertices`` table,
    which stays small because criterion 9 draws graphs of at most 12 vertices.
    """
    inter = np.array([(1 << n_vertices) - 1], dtype=np.int64)
    for clique in cliques:
        inter = np.concatenate([inter, inter & sum(1 << v for v in clique)])
    present = np.zeros(1 << n_vertices, dtype=bool)
    present[inter[1:]] = True
    present[0] = False
    # the narrowest int keeps the (d, d) subset test small at d up to 2^n
    distinct = np.flatnonzero(present).astype(np.min_scalar_type(len(present) - 1))
    # subset[o, m] is o ⊆ m; m is minimal when it is its only subset here
    subset = (distinct[:, None] & distinct) == distinct[:, None]
    minimal = distinct[subset.sum(axis=0) == 1]
    return {
        frozenset(v for v in range(n_vertices) if m >> v & 1) for m in minimal.tolist()
    }


def _named_point_graphs():
    shared = topology.CommutationGraph.from_edges(
        ["a1", "a2", "b1", "b2", "v"],
        [("a1", "a2"), ("a1", "v"), ("a2", "v"), ("b1", "b2"), ("b1", "v"), ("b2", "v")],
    )
    return [shared, topology.disjoint_clique_graph(3, 3), topology.complete_graph(5)]


@_timed(30.0)
def _points_oracle_equivalence(seed):
    rng = np.random.default_rng(seed + 9)
    graphs = [(g, topology.maximal_cliques(g)) for g in _named_point_graphs()]
    resamples = 0
    while len(graphs) < 3 + 200:
        n = int(rng.integers(1, 13))
        p = float(rng.uniform(0.15, 0.85))
        adj = rng.random((n, n)) < p
        adj = adj | adj.T
        np.fill_diagonal(adj, True)
        g = topology.CommutationGraph(tuple(f"o{i}" for i in range(n)), adj)
        cliques = topology.maximal_cliques(g)
        if len(cliques) > 18:
            resamples += 1  # keep the 2^c brute force tractable
            continue
        graphs.append((g, cliques))
    mismatches = 0
    for g, cliques in graphs:
        expected = _brute_force_points(cliques, g.size)
        got = set(topology.points_of_m(g, topology.SUBFAMILY).points)
        mismatches += got != expected
    return mismatches == 0, {
        "graphsChecked": len(graphs),
        "mismatches": mismatches,
        "resampledDenseGraphs": resamples,
    }


@_timed(1.0)
def _stronger_causal_ordering(seed):
    golden = fixtures.load_golden()["threeParty"]
    summary = causal.enumerate_admissible_orientations(causal.THREE_PARTY_EVENTS)
    rel = summary.relations
    axioms = not rel.diagonal(axis1=1, axis2=2).any() and not (rel & rel.transpose(0, 2, 1)).any()
    contains, strengthens = causal.extension_masks(summary.classical, rel)
    comparable = summary.comparability[frozenset(golden["witnessPair"])] == "all"
    strict = bool((contains & strengthens).all())
    ok = (
        summary.orientation_count == golden["orientationCount"]
        and summary.admissible_count == golden["admissibleCount"]
        and summary.admissible_count == 3
        and axioms
        and bool(contains.all())
        and comparable
        and golden["witnessComparableInAll"]
        and strict
    )
    return ok, {
        "orientationCount": summary.orientation_count,
        "admissibleCount": summary.admissible_count,
        "witnessComparable": comparable,
        "strictExtension": strict,
    }


def _boost_event_sets(seed):
    """The three-party set and 100 random sets of 2-8 events in 1+1D, as
    (n, 2) coordinate arrays, and the 9 boost velocities."""
    rng = np.random.default_rng(seed + 11)
    event_sets = [causal._coordinates(causal.THREE_PARTY_EVENTS)]
    for _ in range(100):
        count = int(rng.integers(2, 9))
        event_sets.append(rng.uniform(-5, 5, size=(count, 2)))  # row i: (t, x) of event i
    betas = [-0.9, -0.6, -0.3, 0.3, 0.6, 0.9] + [float(b) for b in rng.uniform(-0.9, 0.9, 3)]
    return event_sets, betas


@_timed(30.0)
def _boost_invariance(seed):
    event_sets, betas = _boost_event_sets(seed)
    violations = 0
    for n in sorted({len(coords) for coords in event_sets}):
        stack = np.array([coords for coords in event_sets if len(coords) == n])
        # frame 0 of each set is the set itself; frames 1.. are its boosts
        frames = np.concatenate([stack[:, None], causal._boosted(stack, betas)], axis=1)
        rel = causal._light_cone(frames)
        causal._check_strict_orders(rel.reshape(-1, n, n))
        violations += int((rel[:, 1:] != rel[:, :1]).any(axis=(2, 3)).sum())
    return violations == 0, {
        "eventSets": len(event_sets),
        "boostsPerSet": len(betas),
        "violations": violations,
    }


_DETERMINISM_SCENARIOS = {
    "bell": "kind = bell\naxis = z\ntrials = 500\n",
    "epr": "kind = epr\naxisA = z\naxisB = x\ntrials = 2000\ntolerance = 0.05\n",
    "chsh": "kind = chsh\na0Deg = 0\na1Deg = 90\nb0Deg = 45\nb1Deg = 315\nminS = 2.8\n",
    "lhv": "kind = lhv\ngridStepDegrees = 5\n",
    "eraser": "kind = eraser\nmarking = true\nerasure = true\n",
    "cone": "kind = cone\nsites = 128\nmass = 0.1\ntimeSteps = 32\n",
    "topology": (
        "kind = topology\nsource = chain\nexpectDiscrete = true\n"
        "expectSingletonHypersurfaces = true\n"
    ),
    "order": (
        "kind = order\n"
        "events = e1 1.0 -0.99 @g; e2 1.0 0.99 @g; e3 1.5 1.2 @g\n"
        "witnessPair = e1 e3\nexpectAdmissible = 3\nexpectStrengthened = true\n"
    ),
}


def _run_battery(seed, out_dir):
    outputs = {}
    all_pass = True
    for kind, text in sorted(_DETERMINISM_SCENARIOS.items()):
        scenario = parse_scenario(text)
        report = run_scenario(scenario, out_dir, seed_override=seed)
        all_pass &= report.passed()
        outputs[f"{kind}::report"] = json.dumps(report.to_json_dict(), sort_keys=True).encode()
        for artifact in report.artifacts:
            outputs[f"{kind}::{artifact}"] = (Path(out_dir) / artifact).read_bytes()
    return all_pass, outputs


@_timed(60.0)
def _end_to_end_determinism(seed):
    with tempfile.TemporaryDirectory() as tmp:
        first_pass, first = _run_battery(seed, Path(tmp) / "a")
        second_pass, second = _run_battery(seed, Path(tmp) / "b")
    identical = first.keys() == second.keys() and all(
        first[key] == second[key] for key in first
    )
    ok = first_pass and second_pass and identical
    return ok, {
        "scenarioCount": len(_DETERMINISM_SCENARIOS),
        "artifactsCompared": len(first),
        "byteIdentical": identical,
        "allScenarioVerdictsPass": first_pass and second_pass,
    }


CRITERIA = (
    (1, "epr-perfect-correlation", _epr_perfect_correlation),
    (2, "quantum-lhv-gap", _quantum_lhv_gap),
    (3, "no-signaling", _no_signaling),
    (4, "ghz-unanimity", _ghz_unanimity),
    (5, "eraser-visibility", _eraser_visibility),
    (6, "lattice-commutator-structure", _lattice_commutator_structure),
    (7, "emergent-cone", _emergent_cone),
    (8, "remark-reproduction", _remark_reproduction),
    (9, "points-oracle-equivalence", _points_oracle_equivalence),
    (10, "stronger-causal-ordering", _stronger_causal_ordering),
    (11, "boost-invariance", _boost_invariance),
    (12, "end-to-end-determinism", _end_to_end_determinism),
)


def run_all(seed: int = DEFAULT_SEED):
    """Run every criterion; returns (results, report_dict)."""
    results = []
    for number, name, fn in CRITERIA:
        passed, details, elapsed = fn(seed)
        results.append(CheckResult(number, name, passed, details, elapsed))
    report = {
        "seed": seed,
        "allPassed": all(r.passed for r in results),
        "criteria": [
            {
                "criterion": r.criterion,
                "name": r.name,
                "verdict": "pass" if r.passed else "fail",
                "details": r.details,
            }
            for r in results
        ],
    }
    return results, report
