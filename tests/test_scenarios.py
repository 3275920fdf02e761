import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.cli import main
from qcausal.fixtures import load_golden
from qcausal.lattice import LatticeSpec, commutator_table, cone_profile
from qcausal.scenarios import (
    DEFAULT_SEED,
    MAX_GRID_ANGLES,
    MAX_ORDER_EVENTS,
    MAX_PHASE_SAMPLES,
    MAX_TABLE_CELLS,
    ScenarioError,
    emit_json,
    parse_scenario,
    run_scenario,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def test_parse_minimal_bell():
    s = parse_scenario("kind = bell\naxis = z\n")
    assert s.kind == "bell"
    assert s.parameters["axis"] == (0.0, 0.0, 1.0)
    assert s.parameters["trials"] == 2000  # default echoed
    assert s.seed is None and s.output_path is None


def test_parse_cone_schema_echo():
    s = parse_scenario("kind = cone\nsites = 128\nmass = 0.1\ntimeSteps = 32\neps = 1e-3\n")
    assert s.kind == "cone"
    assert s.parameters["sites"] == 128
    assert s.parameters["mass"] == 0.1
    assert s.parameters["timeSteps"] == 32
    assert s.parameters["eps"] == 1e-3


def test_parse_comments_seed_and_output_path():
    s = parse_scenario("# full line\nkind = bell # trailing\naxis = x\nseed = 9\noutputPath = run1\n")
    assert s.parameters["axis"] == (1.0, 0.0, 0.0)
    assert s.seed == 9 and s.output_path == "run1"


@pytest.mark.parametrize(
    "text,message",
    [
        ("kind = warp\n", "unknown kind"),
        ("axis = z\n", "missing required key 'kind'"),
        ("kind = bell\naxis = z\nwarp = 1\n", "unknown keys"),
        ("kind = bell\n", "missing required key"),
        ("kind = bell\naxis = z\naxis = x\n", "duplicate"),
        ("kind = bell\naxis = z\ntrials = soon\n", "expected an integer"),
        ("kind = bell\naxis = 1,1,0\n", "not unit length"),
        ("kind = bell\naxis\n", "expected key = value"),
        ("kind = eraser\nmarking = maybe\nerasure = false\n", "true/false"),
        ("kind = chsh\na0Deg = 0\na1Deg = 0\nb0Deg = 0\nb1Deg = 0\nsigns = ++\n", "four"),
        ("kind = order\nevents = e1 1.0\n", "event record"),
        ("kind = topology\nsource = chain\nvariant = perObservable\n", "unknown keys"),
    ],
)
def test_parse_rejections(text, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(text)


def test_parse_events_records():
    s = parse_scenario(
        "kind = order\nevents = e1 1.0 -0.99 @g; e2 1.0 0.99 @g; e3 1.5 1.2 @g\n"
    )
    events = s.parameters["events"]
    assert [e.id for e in events] == ["e1", "e2", "e3"]
    assert events[0].x == (-0.99,) and events[0].group == "g"
    assert s.parameters["policy"] == "all"


def test_unknown_key_runs_no_physics(tmp_path):
    # strict validation happens before dispatch
    with pytest.raises(ScenarioError):
        parse_scenario("kind = lhv\ngridStepDegrees = 1\nturbo = yes\n")


PASS_FAIL = {
    "bell": (
        "kind = bell\naxis = z\ntrials = 300\n",
        "kind = bell\naxis = z\ntrials = 300\nexpectedAgreement = 0.75\n",
    ),
    "epr": (
        "kind = epr\naxisA = z\naxisB = x\ntrials = 2000\ntolerance = 0.05\n",
        "kind = epr\naxisA = z\naxisB = x\ntrials = 2000\ntolerance = 0.01\nexpectedAgreement = 0.9\n",
    ),
    "chsh": (
        "kind = chsh\na0Deg = 0\na1Deg = 90\nb0Deg = 45\nb1Deg = 315\nminS = 2.8\n",
        "kind = chsh\na0Deg = 0\na1Deg = 90\nb0Deg = 45\nb1Deg = 315\nminS = 2.9\n",
    ),
    "lhv": (
        "kind = lhv\ngridStepDegrees = 5\n",
        "kind = lhv\ngridStepDegrees = 5\nminQuantum = 2.8285\n",
    ),
    "eraser": (
        "kind = eraser\nmarking = true\nerasure = false\n",
        "kind = eraser\nmarking = true\nerasure = false\nexpectedVisibility = 0.5\n",
    ),
    "cone": (
        "kind = cone\nsites = 128\nmass = 0.1\ntimeSteps = 32\n",
        "kind = cone\nsites = 128\nmass = 0.1\ntimeSteps = 32\nexpectedSpeed = 3\n",
    ),
    "topology": (
        "kind = topology\nsource = chain\nexpectDiscrete = true\n",
        "kind = topology\nsource = chain\nexpectDiscrete = false\n",
    ),
    "order": (
        "kind = order\nevents = e1 1.0 -0.99 @g; e2 1.0 0.99 @g; e3 1.5 1.2 @g\n"
        "witnessPair = e1 e3\nexpectAdmissible = 3\nexpectStrengthened = true\n",
        "kind = order\nevents = a 0 0; b 0 5\nwitnessPair = a b\n",
    ),
}


@pytest.mark.parametrize("kind", sorted(PASS_FAIL))
def test_exit_codes_per_kind(tmp_path, kind):
    passing, failing = PASS_FAIL[kind]
    good = tmp_path / "good.scn"
    good.write_text(passing)
    bad = tmp_path / "bad.scn"
    bad.write_text(failing)
    assert main(["run", str(good), "--out", str(tmp_path / "good_out")]) == 0
    assert main(["run", str(bad), "--out", str(tmp_path / "bad_out")]) == 2


def test_exit_code_validation_error(tmp_path, capsys):
    broken = tmp_path / "broken.scn"
    broken.write_text("kind = warp\n")
    assert main(["run", str(broken), "--out", str(tmp_path)]) == 1
    assert "unknown kind" in capsys.readouterr().err


def test_exit_code_missing_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path)]) == 1


def test_cli_runs_do_not_share_a_seed_override(tmp_path):
    """The parser is built once per process; one call's --seed must not
    become the next call's default."""
    scenario_file = tmp_path / "bell.scn"
    scenario_file.write_text("kind = bell\naxis = z\ntrials = 10\n")
    seeds = []
    for extra in (["--seed", "12345"], []):
        out = tmp_path / f"out{len(seeds)}"
        assert main(["run", str(scenario_file), "--out", str(out), *extra]) == 0
        seeds.append(json.loads((out / "bell_report.json").read_text())["inputsEcho"]["seed"])
    assert seeds == [12345, DEFAULT_SEED]


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_non_finite_numbers_are_rejected(raw):
    with pytest.raises(ScenarioError, match="finite"):
        parse_scenario(f"kind = lhv\nminGap = {raw}\n")


@pytest.mark.parametrize(
    "text, key",
    [
        # used to run with exit 0 and write NaN/Infinity into order_report.json
        ("kind = order\nevents = a nan 0 @g; b 0 inf @g; c 1 0\n", "events"),
        # used to give a silent withinTolerance: FAIL and echo NaN
        ("kind = epr\naxisA = z\naxisB = x\ntolerance = nan\n", "tolerance"),
    ],
)
def test_non_finite_numbers_are_validation_errors(tmp_path, capsys, text, key):
    scenario_file = tmp_path / "bad.scn"
    scenario_file.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(scenario_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"key {key!r}" in err and "finite" in err
    assert not out.exists()


def test_emit_json_refuses_non_finite_values(tmp_path):
    for value in (float("nan"), float("inf"), float("-inf")):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            emit_json(path, {"metrics": {"x": value}})
        assert not path.exists()


def test_shipped_scenarios_all_pass(tmp_path):
    scenario_files = sorted(SCENARIO_DIR.glob("*.scn"))
    assert len(scenario_files) >= 8
    for path in scenario_files:
        assert main(["run", str(path), "--out", str(tmp_path / path.stem)]) == 0, path.name


def test_csv_headers_and_artifacts(tmp_path):
    run_scenario(
        parse_scenario("kind = cone\nsites = 64\nmass = 1.0\ntimeSteps = 16\nexpectedSpeed = 1.18\nspeedTolerance = 0.05\n"),
        tmp_path,
    )
    commutators = (tmp_path / "cone_commutators.csv").read_text().splitlines()
    assert commutators[0] == "dx,dt,D"
    cone = (tmp_path / "cone_cone.csv").read_text().splitlines()
    assert cone[0] == "dt,extent"
    assert cone[1] == "1.0,2"

    run_scenario(parse_scenario("kind = eraser\nmarking = false\nerasure = false\n"), tmp_path)
    curve = (tmp_path / "eraser_curve.csv").read_text().splitlines()
    assert curve[0] == "phi,probability"
    assert len(curve) == 17


def test_eraser_run_computes_the_curve_once(tmp_path, monkeypatch):
    import qcausal.entanglement

    calls = []
    curve = qcausal.entanglement.eraser_curve

    def counted(cfg):
        calls.append(cfg)
        return curve(cfg)

    monkeypatch.setattr(qcausal.entanglement, "eraser_curve", counted)
    report = run_scenario(
        parse_scenario("kind = eraser\nmarking = true\nerasure = true\n"), tmp_path
    )
    assert report.passed()
    assert len(calls) == 1


def test_runs_write_every_csv_through_emit_csv(tmp_path, monkeypatch):
    """perfbench's tracer wraps `emit_csv` by name and reads the path from args[0]."""
    import qcausal.scenarios

    calls = []
    emit = qcausal.scenarios.emit_csv

    def recorded(*args, **kwargs):
        calls.append(args[0])
        return emit(*args, **kwargs)

    monkeypatch.setattr(qcausal.scenarios, "emit_csv", recorded)
    cone = tmp_path / "cone"
    eraser = tmp_path / "eraser"
    run_scenario(parse_scenario("kind = cone\nsites = 16\nmass = 1.0\ntimeSteps = 8\n"), cone)
    run_scenario(parse_scenario("kind = eraser\nmarking = true\nerasure = false\n"), eraser)
    assert calls == [
        cone / "cone_commutators.csv",
        cone / "cone_cone.csv",
        eraser / "eraser_curve.csv",
    ]
    assert all(path.is_file() for path in calls)


def reference_emit_csv(path, header, rows):
    """The row-by-row writer: one tuple per row and `str()` on every cell."""
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_cone_csvs_match_reference(root, sites, mass, time_steps, time_step):
    text = (
        f"kind = cone\nsites = {sites}\nmass = {mass!r}\n"
        f"timeSteps = {time_steps}\ntimeStep = {time_step!r}\n"
    )
    run_scenario(parse_scenario(text), root / "run")
    spec = LatticeSpec(sites, mass, time_steps, time_step)
    table = commutator_table(spec)
    dts = table.dts()
    rows = (
        (dx, dt, v)
        for dx, column in enumerate(table.values.T.tolist())
        for dt, v in zip(dts, column)
    )
    reference_emit_csv(root / "commutators.csv", "dx,dt,D", rows)
    reference_emit_csv(root / "cone.csv", "dt,extent", cone_profile(table, 1e-3).per_time_extent)
    for name in ("commutators", "cone"):
        written = (root / "run" / f"cone_{name}.csv").read_bytes()
        assert written == (root / f"{name}.csv").read_bytes(), name


@settings(deadline=None, max_examples=40)
@given(
    sites=st.integers(8, 64),
    time_steps=st.integers(8, 24),
    mass=st.floats(0.05, 2.0),
    # 0.1 and 0.3 give dt cells such as 0.30000000000000004.
    time_step=st.one_of(st.sampled_from([0.1, 0.3, 0.7, 1.0]), st.floats(0.05, 1.5)),
)
def test_cone_csvs_equal_row_by_row_writer(sites, time_steps, mass, time_step):
    with tempfile.TemporaryDirectory() as tmp:
        assert_cone_csvs_match_reference(Path(tmp), sites, mass, time_steps, time_step)


def test_cone_csvs_equal_row_by_row_writer_at_benchmark_size(tmp_path):
    assert_cone_csvs_match_reference(tmp_path, 512, 1.0, 128, 1.0)


def test_cone_narrower_than_one_site_reports_and_fails_speed(tmp_path):
    scenario_file = tmp_path / "short.scn"
    scenario_file.write_text(
        "kind = cone\nsites = 8\nmass = 1\ntimeSteps = 8\ntimeStep = 0.0546875\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(scenario_file), "--out", str(out)]) == 2
    report = json.loads((out / "cone_report.json").read_text())
    assert report["metrics"]["fittedSpeed"] == 0.0
    assert report["metrics"]["maxExtent"] == 0
    assert report["verdicts"]["speedWithinTolerance"] == "fail"
    assert report["verdicts"]["equalTimeVanishing"] == "pass"
    assert (out / "cone_cone.csv").read_text() == (
        "dt,extent\n0.0546875,0\n0.109375,0\n0.1640625,0\n"
    )
    assert len((out / "cone_commutators.csv").read_text().splitlines()) == 1 + 8 * 15


@pytest.mark.parametrize("marking, erasure, samples", [(True, False, 9), (False, False, 16)])
def test_eraser_curve_csv_equals_row_by_row_writer(tmp_path, marking, erasure, samples):
    from qcausal.entanglement import EraserConfig, eraser_curve

    text = f"kind = eraser\nmarking = {marking}\nerasure = {erasure}\nphaseSamples = {samples}\n"
    run_scenario(parse_scenario(text), tmp_path / "run")
    phases, probs = eraser_curve(EraserConfig(marking, erasure, samples))
    rows = zip(phases.tolist(), probs.tolist())
    reference_emit_csv(tmp_path / "curve.csv", "phi,probability", rows)
    written = (tmp_path / "run" / "eraser_curve.csv").read_bytes()
    assert written == (tmp_path / "curve.csv").read_bytes()


def test_output_path_prefixes_artifacts(tmp_path):
    scenario = parse_scenario(
        "kind = eraser\nmarking = false\nerasure = false\noutputPath = fringe\n"
    )
    report = run_scenario(scenario, tmp_path)
    assert report.artifacts == ["fringe_curve.csv"]
    assert (tmp_path / "fringe_curve.csv").exists()


def test_eps_override_changes_cone(tmp_path):
    text = "kind = cone\nsites = 64\nmass = 1.0\ntimeSteps = 16\n"
    default = run_scenario(parse_scenario(text), tmp_path / "a")
    overridden = run_scenario(parse_scenario(text + "eps = 0.01\n"), tmp_path / "b")
    assert overridden.metrics["maxExtent"] < default.metrics["maxExtent"]
    assert overridden.inputs_echo["eps"] == 0.01


def test_same_seed_reruns_byte_identical(tmp_path):
    texts = [
        "kind = bell\naxis = x\ntrials = 400\nseed = 21\n",
        "kind = order\nevents = e1 1.0 -0.99 @g; e2 1.0 0.99 @g; e3 1.5 1.2 @g\n",
        "kind = cone\nsites = 32\nmass = 0.5\ntimeSteps = 12\n",
    ]
    for text in texts:
        scenario = parse_scenario(text)
        first = run_scenario(scenario, tmp_path / "a")
        second = run_scenario(scenario, tmp_path / "b")
        assert json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(
            second.to_json_dict(), sort_keys=True
        )
        for artifact in first.artifacts:
            assert (tmp_path / "a" / artifact).read_bytes() == (
                tmp_path / "b" / artifact
            ).read_bytes()


def test_different_seed_changes_sampled_metric(tmp_path):
    scenario = parse_scenario("kind = epr\naxisA = z\naxisB = x\ntrials = 500\ntolerance = 0.2\n")
    first = run_scenario(scenario, tmp_path, seed_override=1)
    second = run_scenario(scenario, tmp_path, seed_override=2)
    assert first.metrics["agreementRate"] != second.metrics["agreementRate"]


def test_order_artifacts_adjacency_and_hasse(tmp_path):
    scenario = parse_scenario(
        "kind = order\nevents = e1 1.0 -0.99 @g; e2 1.0 0.99 @g; e3 1.5 1.2 @g\n"
    )
    report = run_scenario(scenario, tmp_path)
    adjacency = json.loads((tmp_path / "order_classical.json").read_text())
    assert adjacency == {"e1": [], "e2": ["e3"], "e3": []}
    assert (tmp_path / "order_classical_hasse.txt").read_text() == "e2 < e3\n"
    summary = json.loads((tmp_path / "order_summary.json").read_text())
    assert summary["orientationCount"] == 4
    assert summary["admissibleCount"] == 3
    assert summary["comparability"]["e1,e3"] == "all"
    assert f"order_quantum_000.json" in report.artifacts


def test_topology_artifact_stable_keys(tmp_path):
    scenario = parse_scenario("kind = topology\nsource = complete\ncompleteSize = 3\n")
    run_scenario(scenario, tmp_path)
    payload = json.loads((tmp_path / "topology_topology.json").read_text())
    for key in ("points", "cliques", "openSetCount", "flags"):
        assert key in payload
    assert payload["openSetCount"] == 2


def test_topology_file_source_relative_to_scenario(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("a b\nb c\n")
    scenario_file = tmp_path / "topo.scn"
    scenario_file.write_text("kind = topology\nsource = file\nfile = g.txt\n")
    assert main(["run", str(scenario_file), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "topology_topology.json").read_text())
    assert payload["cliques"] == [["a", "b"], ["b", "c"]]


def test_earliest_first_policy(tmp_path):
    scenario = parse_scenario(
        "kind = order\nevents = e1 1.0 -0.99 @g; e2 1.0 0.99 @g; e3 1.5 1.2 @g\n"
        "policy = earliest-first\nwitnessPair = e1 e3\n"
    )
    report = run_scenario(scenario, tmp_path)
    assert report.metrics["orientationCount"] == 2  # tie on e1/e2 branched
    assert report.verdicts["witnessComparable"] is True
    summary = json.loads((tmp_path / "order_summary.json").read_text())
    assert summary["orientationCount"] == 2
    assert summary["admissibleCount"] == 2
    assert summary["comparability"] == {"e1,e2": "all", "e1,e3": "all", "e2,e3": "all"}


def test_run_report_requires_metrics():
    from qcausal.scenarios import RunReport

    with pytest.raises(ValueError):
        RunReport("bell", {}, {}, {}, [])


def test_scenario_resource_error_exit_code(tmp_path):
    # one group of 7 spacelike events: 7! = 5040 admissible orientations, past the cap
    crowd = "; ".join(f"e{i} 0 {10.0 * i} @g" for i in range(7))
    scenario_file = tmp_path / "crowd.scn"
    scenario_file.write_text(f"kind = order\nevents = {crowd}\n")
    assert main(["run", str(scenario_file), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "keys, names",
    [
        ("source = lattice\nsites = 8\ntimeSteps = 63\n", "sites * timeSteps"),
        ("source = chain\nchainSlices = 167\nchainSliceSize = 3\n", "chainSlices * chainSliceSize"),
        ("source = complete\ncompleteSize = 501\n", "completeSize"),
        ("source = file\nfile = g.txt\n", "'file'"),
    ],
)
def test_graph_size_checked_before_building(tmp_path, monkeypatch, capsys, keys, names):
    import qcausal.lattice
    import qcausal.topology

    def refuse(*args, **kwargs):
        raise AssertionError("graph built past the vertex cap")

    for module, name in [
        (qcausal.lattice, "commutation_graph"),
        (qcausal.topology, "disjoint_clique_graph"),
        (qcausal.topology, "complete_graph"),
        (qcausal.topology.CommutationGraph, "from_edges"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    (tmp_path / "g.txt").write_text("".join(f"o{i}\n" for i in range(501)))
    scenario_file = tmp_path / "big.scn"
    scenario_file.write_text("kind = topology\n" + keys)
    assert main(["run", str(scenario_file), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert names in err and "500" in err


def test_unknown_witness_id_is_a_validation_error(tmp_path, capsys):
    # used to end in a KeyError traceback after the order artifacts were written
    scenario_file = tmp_path / "witness.scn"
    scenario_file.write_text(
        "kind = order\nevents = e1 1.0 -0.99 @g; e2 1.0 0.99 @g\nwitnessPair = e1 zz\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(scenario_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'witnessPair'" in err and "'zz'" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "text, key, refused",
    [
        (
            f"kind = eraser\nmarking = true\nerasure = false\n"
            f"phaseSamples = {MAX_PHASE_SAMPLES + 1}\n",
            "phaseSamples",
            "eraser_curve",
        ),
        (
            "kind = order\nevents = "
            + "; ".join(f"e{i} {i} 0" for i in range(MAX_ORDER_EVENTS + 1))
            + "\n",
            "'events'",
            "enumerate_admissible_orientations",
        ),
        ("kind = lhv\ngridStepDegrees = 0.09\n", "gridStepDegrees", "maximize_chsh"),
        ("kind = lhv\ngridStepDegrees = 5e-324\n", "gridStepDegrees", "maximize_chsh"),
        (
            "kind = cone\nsites = 100000\nmass = 1.0\ntimeSteps = 100000\n",
            "sites * (2 * timeSteps - 1)",
            "commutator_table",
        ),
        (
            "kind = cone\nsites = 8192\nmass = 1.0\ntimeSteps = 257\n",
            "sites * (2 * timeSteps - 1)",
            "commutator_table",
        ),
    ],
)
def test_sizes_checked_before_any_work(tmp_path, monkeypatch, capsys, text, key, refused):
    import qcausal.causal
    import qcausal.entanglement
    import qcausal.lattice

    def refuse(*args, **kwargs):
        raise AssertionError("work started past the cap")

    monkeypatch.setattr(qcausal.entanglement, "eraser_curve", refuse)
    monkeypatch.setattr(qcausal.entanglement, "maximize_chsh", refuse)
    monkeypatch.setattr(qcausal.lattice, "commutator_table", refuse)
    monkeypatch.setattr(qcausal.causal, "enumerate_admissible_orientations", refuse)
    scenario_file = tmp_path / "big.scn"
    scenario_file.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(scenario_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert key in err and "more than the" in err
    assert not out.exists() or not any(out.iterdir())


class _Reached(Exception):
    """Raised in place of the expensive step, once the size checks have passed."""


@pytest.mark.parametrize(
    "text, target",
    [
        ("kind = lhv\ngridStepDegrees = 0.1\n", "qcausal.entanglement.maximize_chsh"),
        (
            "kind = cone\nsites = 8192\nmass = 1.0\ntimeSteps = 256\n",
            "qcausal.lattice.commutator_table",
        ),
    ],
)
def test_sizes_at_the_cap_pass_the_size_check(tmp_path, monkeypatch, text, target):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(target, reached)
    assert 360 / 0.1 == MAX_GRID_ANGLES
    assert 8192 * (2 * 256 - 1) == 4_186_112 <= MAX_TABLE_CELLS < 8192 * (2 * 257 - 1)
    with pytest.raises(_Reached):
        run_scenario(parse_scenario(text), tmp_path)


@pytest.mark.parametrize("step", ["0", "-1"])
def test_grid_step_must_be_positive(tmp_path, capsys, step):
    scenario_file = tmp_path / "step.scn"
    scenario_file.write_text(f"kind = lhv\ngridStepDegrees = {step}\n")
    assert main(["run", str(scenario_file), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "grid step must be positive" in err and "Traceback" not in err


def _oracle_mismatches(reference, candidate, path=""):
    """Same keys, floats within 1e-9, everything else equal; `status` is skipped."""
    if isinstance(reference, dict):
        assert isinstance(candidate, dict), path
        keys = set(reference) - {"status"}
        assert set(candidate) - {"status"} == keys, path
        for key in sorted(keys):
            yield from _oracle_mismatches(reference[key], candidate[key], f"{path}.{key}")
    elif isinstance(reference, list):
        if not isinstance(candidate, list) or len(candidate) != len(reference):
            yield path
            return
        for i, (r, c) in enumerate(zip(reference, candidate)):
            yield from _oracle_mismatches(r, c, f"{path}[{i}]")
    elif isinstance(reference, float):
        if not abs(reference - float(candidate)) <= 1e-9:
            yield path
    elif reference != candidate:
        yield path


def test_regen_fixtures_matches_golden(tmp_path, capsys):
    assert main(["regen-fixtures", "--out", str(tmp_path)]) == 0
    regenerated = json.loads((tmp_path / "golden.json").read_text())
    assert regenerated["status"] == "UNVERIFIED"
    assert list(_oracle_mismatches(load_golden(), regenerated)) == []


def test_oracle_verifies_the_packaged_golden_file(tmp_path):
    """The oracle runs isolated (-I) from outside the repo, so neither src/
    nor the working directory is on its path and it cannot import the
    package it checks (unless that is installed into site-packages)."""
    committed = REPO_ROOT / "src" / "qcausal" / "data" / "golden.json"
    copy = tmp_path / "golden.json"
    copy.write_bytes(committed.read_bytes())
    oracle = REPO_ROOT / "scripts" / "verify_fixtures.py"
    done = subprocess.run([sys.executable, "-I", str(oracle), "verify", str(copy)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith(": VERIFIED")
    assert copy.read_bytes() == committed.read_bytes()


def test_clique_cap_error_names_the_size_keys(tmp_path, monkeypatch, capsys):
    import qcausal.topology

    monkeypatch.setattr(qcausal.topology, "CLIQUE_CAP", 10)  # the 8x4 lattice has 76 cliques
    out = tmp_path / "out"
    assert main(["run", str(SCENARIO_DIR / "topology_lattice.scn"), "--out", str(out)]) == 1
    assert "sites * timeSteps gives more than 10 maximal cliques" in capsys.readouterr().err
