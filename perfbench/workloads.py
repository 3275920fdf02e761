"""Seeded inputs for each workload and the checks on their outputs.

Each workload is a fixed list of CLI calls drawn from the workload seed. The
program sees only the scenario files written here (``battery`` runs
``qcausal check``, which needs none). ``check`` returns the problems found in
one call's outputs beyond the generic ones (exit code, scenario verdicts,
listed artifacts), which ``run.py`` applies to every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

FIELD_SITES, FIELD_STEPS = 512, 128
STRUCTURE_LATTICES = ((8, 4), (8, 6), (10, 4))
ORDER_GROUP_SIZE = 5


@dataclass(frozen=True)
class Input:
    """One CLI call: ``argv`` gets ``--out <dir>`` appended when it runs."""

    name: str
    argv: tuple
    report: str
    scenario: str = ""
    expect: dict = field(default_factory=dict)


def _scenario(in_dir, name, text, kind, expect):
    """Write one scenario file; its Input is ``qcausal run <file>``."""
    path = in_dir / f"{name}.scn"
    path.write_text(text, encoding="utf-8")
    return Input(name, ("run", str(path)), f"{kind}_report.json", text, expect)


def _cone(rng, index, in_dir):
    mass = rng.uniform(0.05, 0.3)
    text = (
        "kind = cone\n"
        f"sites = {FIELD_SITES}\nmass = {mass!r}\ntimeSteps = {FIELD_STEPS}\neps = 1e-3\n"
    )
    rows = {"cone_commutators.csv": FIELD_SITES * (2 * FIELD_STEPS - 1),
            "cone_cone.csv": (FIELD_STEPS + 1) // 2 - 1}
    return _scenario(in_dir, f"cone-{index}", text, "cone", {"rows": rows})


def _xz(angle):
    return f"{math.sin(angle)!r},0,{math.cos(angle)!r}"


def _epr(rng, index, in_dir):
    text = (
        "kind = epr\n"
        f"axisA = {_xz(rng.uniform(0, 2 * math.pi))}\naxisB = {_xz(rng.uniform(0, 2 * math.pi))}\n"
        f"trials = 20000\ntolerance = 0.02\nseed = {rng.randrange(2**31)}\n"
    )
    return _scenario(in_dir, f"epr-{index}", text, "epr", {})


def _bell(rng, index, in_dir):
    text = (
        f"kind = bell\naxis = {_xz(rng.uniform(0, 2 * math.pi))}\n"
        f"trials = 20000\nseed = {rng.randrange(2**31)}\n"
    )
    return _scenario(in_dir, f"bell-{index}", text, "bell", {"metrics": {"agreementRate": 1.0}})


def _lhv(rng, index, in_dir):
    return _scenario(in_dir, f"lhv-{index}", "kind = lhv\ngridStepDegrees = 0.5\n", "lhv", {})


# (sites, timeSteps) -> the topology report's metrics at this revision. Every
# lattice hits OPEN_SET_CAP, so openSetCount is the capped family's size.
TOPOLOGY_EXPECT = {
    (8, 4): {"cliqueCount": 76, "pointCount": 32, "pointCountPerObservable": 32,
             "openSetCount": 524289},
    (8, 6): {"cliqueCount": 126, "pointCount": 48, "pointCountPerObservable": 48,
             "openSetCount": 524289},
    (10, 4): {"cliqueCount": 254, "pointCount": 40, "pointCountPerObservable": 40,
              "openSetCount": 524289},
}


def _topology(sites, steps):
    def make(rng, index, in_dir):
        text = f"kind = topology\nsource = lattice\nsites = {sites}\ntimeSteps = {steps}\n"
        expect = {"metrics": TOPOLOGY_EXPECT[sites, steps], "sizeCapHit": True}
        return _scenario(in_dir, f"topology-{sites}x{steps}", text, "topology", expect)

    return make


def _order(rng, index, in_dir):
    # Grouped events sit 2 apart in x and within 0.4 in t, so every pair is
    # spacelike: all 2^10 orientations are tried and the 5! total orders of
    # the group are the admissible ones. The ungrouped pair adds classical
    # relations that cannot close a cycle.
    records = [
        f"g{k} {rng.uniform(-0.2, 0.2)!r} {2 * k + rng.uniform(-0.3, 0.3)!r} @g"
        for k in range(ORDER_GROUP_SIZE)
    ]
    records.append(f"u0 {3 + rng.uniform(-0.5, 0.5)!r} {4 + rng.uniform(-0.5, 0.5)!r}")
    records.append(f"u1 {-3 + rng.uniform(-0.5, 0.5)!r} {20 + rng.uniform(-0.5, 0.5)!r}")
    admissible = math.factorial(ORDER_GROUP_SIZE)
    text = (
        f"kind = order\nevents = {'; '.join(records)}\n"
        f"expectAdmissible = {admissible}\nexpectStrengthened = true\n"
    )
    pairs = ORDER_GROUP_SIZE * (ORDER_GROUP_SIZE - 1) // 2
    expect = {"metrics": {"freePairCount": pairs, "orientationCount": 2**pairs,
                          "admissibleCount": admissible}}
    return _scenario(in_dir, f"order-{index}", text, "order", expect)


def _check(rng, index, in_dir):
    """``qcausal check``: all 12 criteria, at a battery seed drawn from the workload seed."""
    argv = ("check", "--seed", str(rng.randrange(2**31)))
    return Input(f"check-{index}", argv, "check_report.json", expect={"allPassed": True})


# name -> the makers of its inputs, in call order
WORKLOADS = {
    "field": [_cone] * 2,
    "sampling": [_epr, _bell, _lhv],
    "structure": [maker for size in STRUCTURE_LATTICES for maker in (_topology(*size), _order)],
    "battery": [_check],
}


def generate(workload: str, seed: int, in_dir: Path):
    """Write the workload's scenario files under in_dir; return its Inputs.

    in_dir is relative to the working directory the calls run in.
    """
    rng = random.Random(f"{workload}/{seed}")
    in_dir.mkdir(parents=True, exist_ok=True)
    return [maker(rng, index, in_dir) for index, maker in enumerate(WORKLOADS[workload])]


def digest(inputs) -> str:
    """sha256 over every input's argv and scenario file text."""
    h = hashlib.sha256()
    for item in inputs:
        h.update("\0".join(item.argv).encode() + b"\0" + item.scenario.encode() + b"\0")
    return h.hexdigest()


def check(item: Input, report: dict, out: Path):
    """Problems in one call's outputs, beyond exit code, verdicts and artifacts."""
    problems = [f"criterion {c['criterion']} {c['name']}: {c['verdict']}"
                for c in report.get("criteria", []) if c["verdict"] != "pass"]
    if "allPassed" in item.expect and report.get("allPassed") != item.expect["allPassed"]:
        problems.append(f"allPassed = {report.get('allPassed')!r}")
    if "sizeCapHit" in item.expect:
        flags = json.loads((out / "topology_topology.json").read_bytes())["flags"]
        if flags["sizeCapHit"] != item.expect["sizeCapHit"]:
            problems.append(f"sizeCapHit = {flags['sizeCapHit']!r}")
    for key, expected in item.expect.get("metrics", {}).items():
        if report["metrics"].get(key) != expected:
            problems.append(f"metric {key} = {report['metrics'].get(key)!r}, expected {expected!r}")
    for name, rows in item.expect.get("rows", {}).items():
        got = (out / name).read_bytes().count(b"\n") - 1
        if got != rows:
            problems.append(f"{name} has {got} rows, expected {rows}")
    return problems
