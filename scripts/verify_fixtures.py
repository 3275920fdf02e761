#!/usr/bin/env python3
"""Independent oracle for the golden fixtures.

Recomputes every golden quantity from scratch at high precision (mpmath
mode sums at 40 digits, networkx clique enumeration, itertools brute
force) without importing the package under test. Two modes:

    compute              print the reference fixture JSON to stdout
    verify <golden.json> recompute, compare, and flip status to VERIFIED

The script is the authority: `verify` leaves a fixture UNVERIFIED and
exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

import mpmath as mp
import networkx as nx

mp.mp.dps = 40

EPS_MARGIN = 1e-9  # commutator magnitudes must clear the threshold by this


def omega_table(sites, mass):
    return [mp.sqrt(mass**2 + 4 * mp.sin(mp.pi * n / sites) ** 2) for n in range(sites)]


def commutator(sites, omegas, dx, dt):
    """(1/N) sum_n sin(k_n dx - w_n dt) / w_n with k_n = 2 pi n / N."""
    total = mp.mpf(0)
    for n in range(sites):
        k = 2 * mp.pi * n / sites
        total += mp.sin(k * dx - omegas[n] * dt) / omegas[n]
    return total / sites


def extent_row(sites, omegas, dt, eps):
    """Largest |dx| <= N/2 with |D(dx, dt)| >= eps, plus the decision margin."""
    best = 0
    margin = None
    for dx in range(sites // 2, -1, -1):
        mag = abs(commutator(sites, omegas, dx, dt))
        gap = abs(float(mag) - eps)
        margin = gap if margin is None else min(margin, gap)
        if mag >= eps and best == 0:
            best = dx
    return best, margin


def least_squares_slope(xs, ys):
    n = len(xs)
    xbar = Fraction(sum(xs), n)
    ybar = Fraction(sum(ys), n)
    num = sum((Fraction(x) - xbar) * (Fraction(y) - ybar) for x, y in zip(xs, ys))
    den = sum((Fraction(x) - xbar) ** 2 for x in xs)
    return float(num / den)


def cone_section(sites, mass, time_steps, eps):
    omegas = omega_table(sites, mass)
    dts = list(range(1, (time_steps + 1) // 2))
    extents = []
    worst_margin = None
    for dt in dts:
        ext, margin = extent_row(sites, omegas, dt, eps)
        extents.append([dt, ext])
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    speed = least_squares_slope(dts, [e for _, e in extents])
    broadening = max(0, max(e - dt for dt, e in extents))
    return {
        "sites": sites,
        "mass": mass,
        "timeSteps": time_steps,
        "eps": eps,
        "extents": extents,
        "fittedSpeed": speed,
        "broadening": broadening,
        "thresholdMargin": worst_margin,
    }


def commutator_section(sites, mass, dx_max, dt_max):
    omegas = omega_table(sites, mass)
    values = []
    for dx in range(dx_max + 1):
        for dt in range(dt_max + 1):
            values.append([dx, dt, float(commutator(sites, omegas, dx, dt))])
    return {"sites": sites, "mass": mass, "values": values}


def many_slices_section(sites, mass, eps, max_dt):
    """Count time separations dt in 1..max_dt with some spatially remote
    commuting partner, i.e. min_dx |D(dx, dt)| < eps."""
    omegas = omega_table(sites, mass)
    count = 0
    for dt in range(1, max_dt + 1):
        mags = [abs(commutator(sites, omegas, dx, dt)) for dx in range(sites // 2 + 1)]
        if min(mags) < eps:
            count += 1
    return {"sites": sites, "mass": mass, "eps": eps, "maxDt": max_dt, "commutingSliceCount": count}


def lattice_graph_section(sites, time_steps, mass, eps):
    omegas = omega_table(sites, mass)
    dvals = {}
    for dx in range(sites):
        for dt in range(-(time_steps - 1), time_steps):
            dvals[(dx, dt)] = commutator(sites, omegas, dx, dt)
    g = nx.Graph()
    verts = [(x, t) for t in range(time_steps) for x in range(sites)]
    g.add_nodes_from(verts)
    for i, (x1, t1) in enumerate(verts):
        for x2, t2 in verts[i + 1 :]:
            if abs(dvals[((x1 - x2) % sites, t1 - t2)]) < eps:
                g.add_edge((x1, t1), (x2, t2))
    cliques = [frozenset(c) for c in nx.find_cliques(g)]
    slices = [frozenset((x, t) for x in range(sites)) for t in range(time_steps)]
    origin_mags = [float(abs(dvals[(0, dt)])) for dt in range(1, time_steps)]
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


THREE_PARTY_EVENTS = [
    {"id": "e1", "t": 1.0, "x": [-0.99], "group": "g"},
    {"id": "e2", "t": 1.0, "x": [0.99], "group": "g"},
    {"id": "e3", "t": 1.5, "x": [1.2], "group": "g"},
]


def admissible_orders(events):
    """The classical pairs, the free pairs, and the transitive closure (a
    set of pairs) of every acyclic orientation of the free pairs, by brute
    force over all 2^free orientations. Ungrouped events are never linked."""
    ids = [e["id"] for e in events]

    def classically_before(a, b):
        dt = b["t"] - a["t"]
        dx2 = sum((p - q) ** 2 for p, q in zip(a["x"], b["x"]))
        return dt > 0 and dt * dt - dx2 >= 0

    classical = {(a["id"], b["id"]) for a in events for b in events if classically_before(a, b)}
    free = [
        (a["id"], b["id"])
        for a, b in itertools.combinations(events, 2)
        if a["group"] is not None
        and a["group"] == b["group"]
        and (a["id"], b["id"]) not in classical
        and (b["id"], a["id"]) not in classical
    ]
    closures = []
    for flips in itertools.product([False, True], repeat=len(free)):
        g = nx.DiGraph()
        g.add_nodes_from(ids)
        g.add_edges_from(classical)
        for (a, b), flip in zip(free, flips):
            g.add_edge(*((b, a) if flip else (a, b)))
        if nx.is_directed_acyclic_graph(g):
            closures.append(set(nx.transitive_closure(g).edges))
    return classical, free, closures


def order_section(events, witness):
    _, free, closures = admissible_orders(events)
    a, b = witness
    return {
        "events": events,
        "freePairCount": len(free),
        "orientationCount": 2 ** len(free),
        "admissibleCount": len(closures),
        "witnessPair": list(witness),
        "witnessComparableInAll": all((a, b) in c or (b, a) in c for c in closures),
    }


def compute_reference():
    return {
        "status": "VERIFIED",
        "commutator64": commutator_section(sites=64, mass=1.0, dx_max=8, dt_max=4),
        "cone128": cone_section(sites=128, mass=0.1, time_steps=32, eps=1e-3),
        "containment64": cone_section(sites=64, mass=1.0, time_steps=16, eps=1e-3),
        "manySlices64": many_slices_section(sites=64, mass=1.0, eps=1e-3, max_dt=8),
        "manySlices128": many_slices_section(sites=128, mass=0.1, eps=1e-3, max_dt=8),
        "latticeGraph8": lattice_graph_section(sites=8, time_steps=4, mass=1.0, eps=1e-3),
        "threeParty": order_section(THREE_PARTY_EVENTS, ("e1", "e3")),
    }


def compare(reference, candidate, path=""):
    """Yield human-readable mismatch descriptions."""
    if isinstance(reference, dict):
        for key, ref_val in reference.items():
            if key in ("status", "thresholdMargin"):
                continue
            if key not in candidate:
                yield f"{path}.{key}: missing"
                continue
            yield from compare(ref_val, candidate[key], f"{path}.{key}")
    elif isinstance(reference, list):
        if len(reference) != len(candidate):
            yield f"{path}: length {len(candidate)} != {len(reference)}"
            return
        for i, (r, c) in enumerate(zip(reference, candidate)):
            yield from compare(r, c, f"{path}[{i}]")
    elif isinstance(reference, float):
        if abs(reference - float(candidate)) > 1e-9:
            yield f"{path}: {candidate} != {reference} (tol 1e-9)"
    else:
        if reference != candidate:
            yield f"{path}: {candidate} != {reference}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("compute")
    verify = sub.add_parser("verify")
    verify.add_argument("fixture")
    args = parser.parse_args(argv)

    reference = compute_reference()
    if args.mode == "compute":
        json.dump(reference, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    with open(args.fixture, encoding="utf-8") as fh:
        candidate = json.load(fh)
    mismatches = list(compare(reference, candidate))
    if mismatches:
        for line in mismatches:
            print(f"MISMATCH {line}")
        print(f"{args.fixture}: left {candidate.get('status', 'UNVERIFIED')}")
        return 1
    candidate["status"] = "VERIFIED"
    with open(args.fixture, "w", encoding="utf-8") as fh:
        json.dump(candidate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{args.fixture}: VERIFIED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
