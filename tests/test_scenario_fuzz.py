"""Fuzz over scenario text for every kind, run through the CLI.

Each scenario draws small, mostly valid values for a random subset of its
kind's keys, some out of range or just past a cap, and often one malformed
value on top. Whatever the text, `qcausal run` must end with exit 0, 1 or
2 (no exception escapes `main`), and every JSON artifact it leaves must parse
with a parser that rejects NaN and Infinity.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.cli import main
from qcausal.scenarios import SCHEMAS

FLOATS = ["0", "0.5", "1", "-1", "2.5", "1e-3"]
INTS = ["0", "1", "3", "-2", "8"]
BOOLS = ["true", "false"]
AXES = ["z", "x", "y", "0.6,0,0.8", "1,1,0"]
DEGREES = ["0", "45", "90", "135", "-30", "1e300"]
JUNK = ["nan", "-inf", "1e999", "one", "+-", "1,2", "maybe", "e1 e2 e3"]
IDS = ["e1", "e2", "e3", "zz"]

# kind -> key -> raw values to draw from; sizes stay small, and a few values
# sit just past a cap so the size checks fire without running at the cap
VALUES = {
    "bell": {"axis": AXES, "trials": ["1", "40", "0", "-5"], "expectedAgreement": FLOATS},
    "epr": {
        "axisA": AXES,
        "axisB": AXES,
        "trials": ["1", "40", "0", "-5"],
        "tolerance": FLOATS,
        "expectedAgreement": FLOATS,
    },
    "chsh": {
        "a0Deg": DEGREES,
        "a1Deg": DEGREES,
        "b0Deg": DEGREES,
        "b1Deg": DEGREES,
        "signs": ["+++-", "----", "-+++"],
        "minS": FLOATS,
    },
    "lhv": {
        "gridStepDegrees": ["5", "4.5", "0", "-1", "6"],
        "minQuantum": FLOATS,
        "minGap": FLOATS,
    },
    "eraser": {
        "marking": BOOLS,
        "erasure": BOOLS,
        "phaseSamples": ["8", "16", "3", "4097", "-8"],
        "tolerance": FLOATS,
        "expectedVisibility": FLOATS,
    },
    "cone": {
        "sites": ["8", "12", "16", "4"],
        "mass": FLOATS,
        "timeSteps": ["8", "10", "4"],
        "timeStep": FLOATS,
        "eps": ["1e-3", "0.1", "10", "0", "-1"],
        "expectedSpeed": FLOATS,
        "speedTolerance": FLOATS,
    },
    "topology": {
        "source": ["chain", "complete", "lattice", "file", "torus"],
        "file": ["g.txt", "missing.txt"],
        "chainSlices": ["1", "3", "0", "-1", "200"],
        "chainSliceSize": ["1", "2", "3", "0"],
        "completeSize": ["1", "4", "0", "501"],
        "sites": ["8", "4"],
        "mass": FLOATS,
        "timeSteps": ["1", "2"],
        "timeStep": FLOATS,
        "eps": ["1e-3", "0.1", "0", "-1"],
        "includePointComplements": BOOLS,
        "expectDiscrete": BOOLS,
        "expectSingletonHypersurfaces": BOOLS,
    },
    "order": {
        "policy": ["all", "earliest-first"],
        "witnessPair": [f"{a} {b}" for a in IDS for b in IDS],
        "expectAdmissible": INTS,
        "expectStrengthened": BOOLS,
    },
}


@st.composite
def event_lists(draw):
    """Up to four well-formed records, sometimes followed by a broken one."""
    dim = draw(st.integers(1, 2))
    records = []
    for i in range(draw(st.integers(1, 4))):
        t = draw(st.sampled_from(["0", "1", "1.5", "-2"]))
        x = " ".join(draw(st.sampled_from(["0", "0.99", "-0.99", "3"])) for _ in range(dim))
        records.append(f"e{i + 1} {t} {x}{draw(st.sampled_from(['', ' @g', ' @h']))}")
    if draw(st.integers(0, 3)) == 0:
        # a duplicate id, a NaN time, mixed dimensions, a record without coordinates
        records.append(draw(st.sampled_from(["e1 0 0", "e9 nan 0", "e9 0 0 0 0", "e9 1"])))
    return "; ".join(records)


def test_value_pools_cover_every_key():
    for kind, keys in VALUES.items():
        assert set(keys) | {"events"} >= set(SCHEMAS[kind]), kind


@st.composite
def scenario_texts(draw):
    kind = draw(st.sampled_from(sorted(VALUES)))
    lines = [f"kind = {kind}"]
    if kind == "order":
        lines.append(f"events = {draw(event_lists())}")
    values = {key: draw(st.sampled_from(pool)) for key, pool in VALUES[kind].items()
              if draw(st.booleans())}
    if values and draw(st.booleans()):
        values[draw(st.sampled_from(sorted(values)))] = draw(st.sampled_from(JUNK))
    lines.extend(f"{key} = {value}" for key, value in values.items())
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(["turbo = yes", "seed = 7", "seed = x", "nokey"])))
    return "\n".join(lines) + "\n"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(deadline=None, max_examples=200, derandomize=True)
@given(scenario_texts())
def test_any_scenario_text_exits_cleanly_with_strict_json(text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "g.txt").write_text("a b\nb c\nc d\n")
        scenario_file = root / "fuzz.scn"
        scenario_file.write_text(text)
        code = main(["run", str(scenario_file), "--out", str(root / "out")])
        assert code in (0, 1, 2)
        for artifact in (root / "out").glob("*.json"):
            json.loads(artifact.read_text(), parse_constant=_reject_constant)
