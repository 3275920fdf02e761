"""Golden fixture access and engine-side regeneration.

The packaged fixture (data/golden.json) stores oracle-verified reference
values. `regenerate` recomputes every section with this package's own
code and labels the result UNVERIFIED; the independent oracle script
(scripts/verify_fixtures.py) recomputes everything from scratch and flips
the label to VERIFIED when the numbers agree.
"""

from __future__ import annotations

import importlib.resources
import json

from . import causal, lattice, topology


def load_golden() -> dict:
    text = importlib.resources.files("qcausal").joinpath("data/golden.json").read_text()
    return json.loads(text)


def _commutator_section(sites, mass, dx_max, dt_max):
    table = lattice.commutator_table(lattice.LatticeSpec(sites, mass, dt_max + 2))
    values = [
        [dx, dt, table.value(dx, dt)] for dx in range(dx_max + 1) for dt in range(dt_max + 1)
    ]
    return {"sites": sites, "mass": mass, "values": values}


def cone_section(sites, mass, time_steps, eps):
    spec = lattice.LatticeSpec(sites, mass, time_steps)
    profile = lattice.cone_profile(lattice.commutator_table(spec), eps)
    return {
        "sites": sites,
        "mass": mass,
        "timeSteps": time_steps,
        "eps": eps,
        "extents": [[int(dt), extent] for dt, extent in profile.per_time_extent],
        "fittedSpeed": profile.fitted_speed,
        "broadening": profile.broadening(),
    }


def many_slices_section(sites, mass, eps, max_dt):
    table = lattice.commutator_table(lattice.LatticeSpec(sites, mass, max_dt + 2))
    count = sum(
        min(abs(table.value(dx, dt)) for dx in range(sites // 2 + 1)) < eps
        for dt in range(1, max_dt + 1)
    )
    return {"sites": sites, "mass": mass, "eps": eps, "maxDt": max_dt, "commutingSliceCount": count}


def _lattice_graph_section(sites, time_steps, mass, eps):
    spec = lattice.LatticeSpec(sites, mass, time_steps)
    graph = lattice.commutation_graph(spec, eps)
    cliques = topology.maximal_cliques(graph)
    slices = [
        frozenset(range(t * sites, (t + 1) * sites)) for t in range(time_steps)
    ]  # labels are laid out t-major
    table = lattice.commutator_table(spec)
    origin_mags = [abs(table.value(0, dt)) for dt in range(1, time_steps)]
    return {
        "sites": sites,
        "timeSteps": time_steps,
        "mass": mass,
        "eps": eps,
        "cliqueCount": len(cliques),
        "sliceCount": time_steps,
        "everySliceIsMaximalClique": all(s in cliques for s in slices),
        "originTimeSeparationMagnitudes": origin_mags,
    }


def _three_party_section():
    events = causal.THREE_PARTY_EVENTS
    summary = causal.enumerate_admissible_orientations(events)
    witness = ("e1", "e3")
    return {
        "events": [
            {"id": e.id, "t": e.t, "x": list(e.x), "group": e.group} for e in events
        ],
        "freePairCount": len(summary.free_pairs),
        "orientationCount": summary.orientation_count,
        "admissibleCount": summary.admissible_count,
        "witnessPair": list(witness),
        "witnessComparableInAll": summary.comparability.get(frozenset(witness)) == "all",
    }


def regenerate() -> dict:
    """Recompute all golden sections with the engine; status UNVERIFIED."""
    return {
        "status": "UNVERIFIED",
        "commutator64": _commutator_section(sites=64, mass=1.0, dx_max=8, dt_max=4),
        "cone128": cone_section(sites=128, mass=0.1, time_steps=32, eps=1e-3),
        "containment64": cone_section(sites=64, mass=1.0, time_steps=16, eps=1e-3),
        "manySlices64": many_slices_section(sites=64, mass=1.0, eps=1e-3, max_dt=8),
        "manySlices128": many_slices_section(sites=128, mass=0.1, eps=1e-3, max_dt=8),
        "latticeGraph8": _lattice_graph_section(sites=8, time_steps=4, mass=1.0, eps=1e-3),
        "threeParty": _three_party_section(),
    }
