"""Scenario parsing, dispatch, and artifact emission.

Scenario files are flat `key = value` text with '#' comments and a
mandatory `kind` key; unknown keys are rejected before any physics runs.
Every run produces a RunReport (metrics, pass/fail verdicts, artifact
paths) and byte-stable CSV/JSON artifacts: identical scenario + seed means
identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from . import causal, entanglement, lattice, topology
from .topology import ResourceLimitError

DEFAULT_SEED = 20260810
# Eraser curve points. The curve is one batched contraction, so time no longer
# sets the cap: a run at it takes about 12 ms. It bounds memory and the CSV,
# both linear in the samples: 32 MB peak RSS (30 MB of it the interpreter and
# numpy) and a 155 KB CSV at the cap.
MAX_PHASE_SAMPLES = 4096
# CHSH grid angles, 360 / gridStepDegrees: a 0.1 degree step. It bounds the
# search's G x G tables (about 430 MB at the cap); the O(G^3) search itself
# still takes about 110 ms per angle there on a 2-core Xeon.
MAX_GRID_ANGLES = 3600
# Cone table cells, sites * (2 * timeSteps - 1). 8192 sites x 256 steps is
# just under it: 214 MB peak RSS, 2.4 s and a 141 MB commutator CSV.
MAX_TABLE_CELLS = 1 << 22
MAX_ORDER_EVENTS = 64  # with MAX_ADMISSIBLE orders at this size a run takes about 0.3 s

NAMED_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


class ScenarioError(ValueError):
    """Malformed scenario text or a module error with scenario context."""


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"expected a finite number, got {raw!r}")
    return value


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ScenarioError(f"expected true/false, got {raw!r}")


def _parse_axis(raw: str):
    if raw.lower() in NAMED_AXES:
        return NAMED_AXES[raw.lower()]
    parts = raw.split(",")
    if len(parts) != 3:
        raise ScenarioError(f"axis must be x, y, z or three comma-separated numbers, got {raw!r}")
    vec = tuple(_parse_float(p.strip()) for p in parts)
    if abs(math.sqrt(sum(c * c for c in vec)) - 1.0) > 1e-10:
        raise ScenarioError(f"axis {raw!r} is not unit length")
    return vec


def _parse_signs(raw: str):
    if len(raw) != 4 or any(c not in "+-" for c in raw):
        raise ScenarioError(f"signs must be four +/- characters, got {raw!r}")
    return tuple(1 if c == "+" else -1 for c in raw)


def _parse_events(raw: str):
    """Records `id t x1 [x2 ...] [@group]` separated by ';'."""
    events = []
    for record in raw.split(";"):
        tokens = record.split()
        if not tokens:
            continue
        group = None
        if tokens[-1].startswith("@"):
            group = tokens[-1][1:]
            tokens = tokens[:-1]
        if len(tokens) < 3:
            raise ScenarioError(f"event record needs id, t and coordinates: {record.strip()!r}")
        events.append(
            causal.Event(tokens[0], _parse_float(tokens[1]),
                         tuple(_parse_float(tok) for tok in tokens[2:]), group)
        )
    if not events:
        raise ScenarioError("no events given")
    return tuple(events)


def _parse_pair(raw: str):
    tokens = raw.split()
    if len(tokens) != 2:
        raise ScenarioError(f"expected two event ids, got {raw!r}")
    return tuple(tokens)


def _parse_choice(*options):
    def parse(raw: str):
        if raw not in options:
            raise ScenarioError(f"expected one of {options}, got {raw!r}")
        return raw

    return parse


# key -> (parser, default); required keys use the REQUIRED sentinel
REQUIRED = object()

SCHEMAS = {
    "bell": {
        "axis": (_parse_axis, REQUIRED),
        "trials": (_parse_int, 2000),
        "expectedAgreement": (_parse_float, 1.0),
    },
    "epr": {
        "axisA": (_parse_axis, REQUIRED),
        "axisB": (_parse_axis, REQUIRED),
        "trials": (_parse_int, 100_000),
        "tolerance": (_parse_float, 0.01),
        "expectedAgreement": (_parse_float, None),
    },
    "chsh": {
        "a0Deg": (_parse_float, REQUIRED),
        "a1Deg": (_parse_float, REQUIRED),
        "b0Deg": (_parse_float, REQUIRED),
        "b1Deg": (_parse_float, REQUIRED),
        "signs": (_parse_signs, (1, 1, 1, -1)),
        "minS": (_parse_float, None),
    },
    "lhv": {
        "gridStepDegrees": (_parse_float, 1.0),
        "minQuantum": (_parse_float, 2.827),
        "minGap": (_parse_float, 0.8),
    },
    "eraser": {
        "marking": (_parse_bool, REQUIRED),
        "erasure": (_parse_bool, REQUIRED),
        "phaseSamples": (_parse_int, 16),
        "tolerance": (_parse_float, 1e-12),
        "expectedVisibility": (_parse_float, None),
    },
    "cone": {
        "sites": (_parse_int, REQUIRED),
        "mass": (_parse_float, REQUIRED),
        "timeSteps": (_parse_int, REQUIRED),
        "timeStep": (_parse_float, 1.0),
        "eps": (_parse_float, 1e-3),
        "expectedSpeed": (_parse_float, 1.0),
        "speedTolerance": (_parse_float, 0.15),
    },
    "topology": {
        "source": (_parse_choice("chain", "complete", "lattice", "file"), REQUIRED),
        "file": (str, None),
        "chainSlices": (_parse_int, 4),
        "chainSliceSize": (_parse_int, 3),
        "completeSize": (_parse_int, 4),
        "sites": (_parse_int, 8),
        "mass": (_parse_float, 1.0),
        "timeSteps": (_parse_int, 4),
        "timeStep": (_parse_float, 1.0),
        "eps": (_parse_float, 1e-3),
        "includePointComplements": (_parse_bool, False),
        "expectDiscrete": (_parse_bool, None),
        "expectSingletonHypersurfaces": (_parse_bool, None),
    },
    "order": {
        "events": (_parse_events, REQUIRED),
        "policy": (_parse_choice("all", "earliest-first"), "all"),
        "witnessPair": (_parse_pair, None),
        "expectAdmissible": (_parse_int, None),
        "expectStrengthened": (_parse_bool, None),
    },
}


# topology source -> the keys it reads; setting another source's key is an error
SOURCE_KEYS = {
    "chain": ("chainSlices", "chainSliceSize"),
    "complete": ("completeSize",),
    "lattice": ("sites", "mass", "timeSteps", "timeStep", "eps"),
    "file": ("file",),
}


@dataclass(frozen=True)
class Scenario:
    kind: str
    parameters: dict
    seed: int | None = None
    output_path: str | None = None

    def __post_init__(self):
        # A path separator would put the artifacts outside the run's directory.
        if any(sep in (self.output_path or "") for sep in "/\\"):
            raise ScenarioError(
                f"key 'outputPath': expected a file-name prefix, got {self.output_path!r}"
            )

    @property
    def stem(self) -> str:
        """Prefix of every artifact file name: `outputPath`, else the kind."""
        return self.output_path or self.kind


def parse_scenario(text: str) -> Scenario:
    """Strict parse: unknown keys, missing keys and bad types all fail."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ScenarioError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    if "kind" not in raw:
        raise ScenarioError("missing required key 'kind'")
    kind = raw.pop("kind")
    if kind not in SCHEMAS:
        raise ScenarioError(f"unknown kind {kind!r}; expected one of {tuple(SCHEMAS)}")

    seed = _parse_int(raw.pop("seed")) if "seed" in raw else None
    output_path = raw.pop("outputPath", None)

    schema = SCHEMAS[kind]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ScenarioError(f"unknown keys for kind {kind!r}: {', '.join(unknown)}")
    parameters = {}
    for key, (parser, default) in schema.items():
        if key in raw:
            try:
                parameters[key] = parser(raw[key])
            except ScenarioError as err:
                raise ScenarioError(f"key {key!r}: {err}") from None
        elif default is REQUIRED:
            raise ScenarioError(f"missing required key {key!r} for kind {kind!r}")
        else:
            parameters[key] = default
    if kind == "topology":
        source = parameters["source"]
        foreign = [k for s, keys in SOURCE_KEYS.items() if s != source for k in keys]
        given = [k for k in foreign if k in raw]
        if given:
            raise ScenarioError(f"key {given[0]!r} is not read by source = {source}")
        if source == "file" and "file" not in raw:
            raise ScenarioError("source = file needs the 'file' key")
        # no defaults for keys the source does not read, so the echo omits them
        parameters = {k: v for k, v in parameters.items() if k not in foreign}
    return Scenario(kind, parameters, seed, output_path)


@dataclass
class RunReport:
    scenario_kind: str
    inputs_echo: dict
    metrics: dict
    verdicts: dict
    artifacts: list

    def __post_init__(self):
        if not self.metrics:
            raise ValueError("report must carry at least one metric")

    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {
            "scenarioKind": self.scenario_kind,
            "inputsEcho": self.inputs_echo,
            "metrics": dict(self.metrics),
            "verdicts": {k: "pass" if v else "fail" for k, v in self.verdicts.items()},
            "artifacts": list(self.artifacts),
        }


def emit_csv(path: Path, header: str, lines) -> None:
    """The header, then rows already formatted as text, each written as it
    comes, so only one item of ``lines`` is held at a time.

    Each item is one row, or several rows joined by newlines, without a
    final newline. Callers write float cells as ``repr``.
    """
    with path.open("w", encoding="utf-8") as file:
        file.write(header + "\n")
        for line in lines:
            file.write(line + "\n")


def emit_json(path: Path, obj) -> None:
    """Strict JSON: a NaN or infinity raises ValueError instead of writing `NaN`."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _echo(value):
    """Events as dicts; json writes every tuple as a list."""
    if isinstance(value, tuple) and value and isinstance(value[0], causal.Event):
        return [asdict(e) for e in value]
    return value


def run_scenario(
    scenario: Scenario,
    out_dir,
    *,
    seed_override: int | None = None,
    base_dir=None,
) -> RunReport:
    """Dispatch to the core modules and write artifacts under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = seed_override if seed_override is not None else scenario.seed
    if seed is None:
        seed = DEFAULT_SEED
    params = dict(scenario.parameters)

    runner = _RUNNERS[scenario.kind]
    try:
        metrics, verdicts, artifacts = runner(
            params, seed=seed, out=out, stem=scenario.stem, base_dir=base_dir
        )
    except ValueError as err:
        raise ScenarioError(f"{scenario.kind} scenario: {err}") from err

    echo = {key: _echo(value) for key, value in params.items()}
    echo["seed"] = seed
    return RunReport(scenario.kind, echo, metrics, verdicts, artifacts)


def _run_bell(params, *, seed, out, stem, base_dir):
    axis = params["axis"]
    psi = entanglement.bell_phi_plus()
    joint = entanglement.joint_spin_probabilities(psi, axis, axis)
    empirical = entanglement.epr_consistency(axis, params["trials"], seed)
    metrics = {
        "agreementRate": empirical,
        "exactAgreement": float(joint[0, 0] + joint[1, 1]),
        "probBothUp": float(joint[0, 0]),
        "probBothDown": float(joint[1, 1]),
    }
    verdicts = {
        "agreementMatchesExpected": abs(empirical - params["expectedAgreement"]) <= 1e-12
    }
    return metrics, verdicts, []


def _run_epr(params, *, seed, out, stem, base_dir):
    joint = entanglement.joint_spin_probabilities(
        entanglement.bell_phi_plus(), params["axisA"], params["axisB"]
    )
    exact = float(joint[0, 0] + joint[1, 1])
    expected = params["expectedAgreement"] if params["expectedAgreement"] is not None else exact
    empirical = entanglement.epr_consistency(
        params["axisA"], params["trials"], seed, axis_b=params["axisB"]
    )
    metrics = {"agreementRate": empirical, "exactAgreement": exact, "expectedAgreement": expected}
    verdicts = {"withinTolerance": abs(empirical - expected) <= params["tolerance"]}
    return metrics, verdicts, []


def _run_chsh(params, *, seed, out, stem, base_dir):
    axes = [
        entanglement.xz_axis(math.radians(params[key]))
        for key in ("a0Deg", "a1Deg", "b0Deg", "b1Deg")
    ]
    psi = entanglement.bell_phi_plus()
    table = entanglement.correlations(psi, axes[:2], axes[2:])
    terms = {f"E{i}{j}": float(table[i, j]) for i in (0, 1) for j in (0, 1)}
    s_value = entanglement.chsh(psi, *axes, signs=params["signs"])
    metrics = {"S": s_value, **terms}
    verdicts = {"withinTsirelson": abs(s_value) <= 2 * math.sqrt(2) + 1e-9}
    if params["minS"] is not None:
        verdicts["sAtLeastMin"] = s_value >= params["minS"]
    return metrics, verdicts, []


def _run_lhv(params, *, seed, out, stem, base_dir):
    step = params["gridStepDegrees"]
    if step > 0:  # maximize_chsh rejects the rest with its own message
        angles = 360 / step  # the grid has ceil(angles) points; ceil overflows on inf
        angles = math.ceil(angles) if angles < math.inf else angles
        _check_size(angles, "gridStepDegrees", "grid angles", MAX_GRID_ANGLES)
    _, values = entanglement.lhv_strategies()
    settings, quantum_max = entanglement.maximize_chsh(entanglement.bell_phi_plus(), step)
    lhv_max = float(values.max())
    metrics = {
        "lhvMax": lhv_max,
        "lhvMin": float(values.min()),
        "strategyCount": len(values),
        "quantumMax": quantum_max,
        "gap": quantum_max - lhv_max,
        "bestA0Deg": settings.a0_deg,
        "bestA1Deg": settings.a1_deg,
        "bestB0Deg": settings.b0_deg,
        "bestB1Deg": settings.b1_deg,
    }
    verdicts = {
        "lhvMaxExactlyTwo": lhv_max == 2.0,
        "quantumAboveMin": quantum_max >= params["minQuantum"],
        "gapAtLeast": metrics["gap"] >= params["minGap"],
    }
    return metrics, verdicts, []


def _run_eraser(params, *, seed, out, stem, base_dir):
    _check_size(params["phaseSamples"], "phaseSamples", "phase samples", MAX_PHASE_SAMPLES)
    marking, erasure = params["marking"], params["erasure"]
    phases, probs = entanglement.eraser_curve(marking, erasure, params["phaseSamples"])
    visibility = entanglement.eraser_visibility(probs)
    if params["expectedVisibility"] is not None:
        expected = params["expectedVisibility"]
    else:
        expected = 1.0 if not marking or erasure else 0.0
    curve_path = f"{stem}_curve.csv"
    emit_csv(
        out / curve_path,
        "phi,probability",
        (f"{phi!r},{p!r}" for phi, p in zip(phases.tolist(), probs.tolist())),
    )
    metrics = {"visibility": visibility, "expectedVisibility": expected}
    verdicts = {"visibilityMatches": abs(visibility - expected) <= params["tolerance"]}
    return metrics, verdicts, [curve_path]


def _commutator_blocks(table):
    """The `dx,dt,D` rows as one text block per dx, dt ascending in each.

    Every dt cell is formatted once into a block template whose D cells are
    `%r`, and no row is built or joined on its own. The table is exactly
    even in dx, so only columns 0 .. N//2 go through `repr`, once each as
    they are reached; a dx > N/2 reuses the block of N - dx with its own dx
    substituted. The blocks are generated as `emit_csv` writes them, so only
    the templates of columns 0 .. N//2 are held, about half the CSV's text.
    """
    template = "\n".join(f"{{dx}},{dt!r},%r" for dt in table.dts())
    sites = table.spec.sites
    blocks = []
    for dx, column in enumerate(table.values.T[: sites // 2 + 1].tolist()):
        blocks.append(template % tuple(column))
        yield blocks[dx].replace("{dx}", str(dx))
    for dx in range(sites // 2 + 1, sites):
        yield blocks[sites - dx].replace("{dx}", str(dx))


def _run_cone(params, *, seed, out, stem, base_dir):
    spec = lattice.LatticeSpec(
        params["sites"], params["mass"], params["timeSteps"], params["timeStep"]
    )
    cells = spec.sites * (2 * spec.time_steps - 1)
    _check_size(cells, "sites * (2 * timeSteps - 1)", "table cells", MAX_TABLE_CELLS)
    eps = params["eps"]
    table = lattice.commutator_table(spec)
    profile = lattice.cone_profile(table, eps)

    equal_time = table.equal_time_max()
    antisym = table.antisymmetry_max()
    commutator_path = f"{stem}_commutators.csv"
    cone_path = f"{stem}_cone.csv"
    emit_csv(out / commutator_path, "dx,dt,D", _commutator_blocks(table))
    emit_csv(
        out / cone_path,
        "dt,extent",
        (f"{dt!r},{extent}" for dt, extent in profile.per_time_extent),
    )

    extents = profile.extents()
    metrics = {
        "fittedSpeed": profile.fitted_speed,
        "maxExtent": int(extents.max()),
        "broadening": profile.broadening(),
        "equalTimeMaxAbs": equal_time,
        "antisymmetryMaxAbs": antisym,
    }
    expected = params["expectedSpeed"]
    verdicts = {
        "equalTimeVanishing": equal_time <= 1e-12,
        "antisymmetryHolds": antisym <= 1e-12,
        "speedWithinTolerance": abs(profile.fitted_speed - expected)
        <= params["speedTolerance"] * abs(expected),
    }
    return metrics, verdicts, [commutator_path, cone_path]


def _check_size(size, keys, what="observables", cap=topology.MAX_CLIQUE_VERTICES):
    if size > cap:
        raise ResourceLimitError(f"{keys} gives {size} {what}, more than the {cap} allowed")


def _build_graph(params, base_dir):
    """The scenario's commutation graph and the keys that set its size; the
    size is checked before the graph is built."""
    source = params["source"]
    if source == "chain":
        keys = "chainSlices * chainSliceSize"
        slices, slice_size = params["chainSlices"], params["chainSliceSize"]
        _check_size(slices * slice_size, keys)
        return topology.disjoint_clique_graph(slices, slice_size), keys
    if source == "complete":
        keys = "completeSize"
        _check_size(params["completeSize"], keys)
        return topology.complete_graph(params["completeSize"]), keys
    if source == "lattice":
        keys = "sites * timeSteps"
        _check_size(params["sites"] * params["timeSteps"], keys)
        spec = lattice.LatticeSpec(
            params["sites"], params["mass"], params["timeSteps"], params["timeStep"]
        )
        return lattice.commutation_graph(spec, params["eps"]), keys
    path = Path(params["file"])
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    labels, edges = topology.parse_edge_list(path.read_text(encoding="utf-8"))
    keys = "the labels in 'file'"
    _check_size(len(labels), keys)
    return topology.CommutationGraph.from_edges(labels, edges), keys


def _run_topology(params, *, seed, out, stem, base_dir):
    graph, keys = _build_graph(params, base_dir)
    try:
        report = topology.topology_report(
            graph, include_point_complements=params["includePointComplements"]
        )
    except ResourceLimitError as err:
        raise ResourceLimitError(f"{keys} gives {err}") from err
    top = report.topology
    json_path = f"{stem}_topology.json"
    emit_json(out / json_path, report.to_json_dict())
    metrics = {
        "pointCount": len(report.points_subfamily),
        "pointCountPerObservable": len(report.points_per_observable),
        "cliqueCount": len(report.cliques),
        "openSetCount": top.open_set_count,
        "maxHypersurfaceSize": report.max_hypersurface_size,
        "specializationChainLength": top.specialization_chain_length(),
    }
    verdicts = {}
    if params["expectDiscrete"] is not None:
        verdicts["discreteMatchesExpected"] = top.is_t1 == params["expectDiscrete"]
    if params["expectSingletonHypersurfaces"] is not None:
        verdicts["singletonHypersurfacesMatch"] = (
            (report.max_hypersurface_size == 1) == params["expectSingletonHypersurfaces"]
        )
    return metrics, verdicts, [json_path]


def _run_order(params, *, seed, out, stem, base_dir):
    events = params["events"]
    _check_size(len(events), "'events'", "events", MAX_ORDER_EVENTS)
    unknown = [i for i in params["witnessPair"] or () if i not in {e.id for e in events}]
    if unknown:
        raise ScenarioError(f"key 'witnessPair': no event {unknown[0]!r} in 'events'")
    summary = causal.enumerate_admissible_orientations(events, params["policy"])
    artifacts = []

    def dump_order(name, order):
        json_path = f"{stem}_{name}.json"
        hasse_path = f"{stem}_{name}_hasse.txt"
        emit_json(out / json_path, order.to_adjacency_dict())
        lines = [f"{a} < {b}" for a, b in order.hasse_edges()]
        (out / hasse_path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        artifacts.extend([json_path, hasse_path])

    dump_order("classical", summary.classical)
    for k, index in enumerate(summary.indices[:32]):
        dump_order(f"quantum_{index:03d}", summary.order(k))
    emit_json(
        out / f"{stem}_summary.json",
        {
            "freePairs": sorted(sorted(p) for p in summary.free_pairs),
            "orientationCount": summary.orientation_count,
            "admissibleCount": summary.admissible_count,
            "comparability": {",".join(sorted(k)): v for k, v in summary.comparability.items()},
        },
    )
    artifacts.append(f"{stem}_summary.json")

    contains, strengthens = causal.extension_masks(summary.classical, summary.relations)
    metrics = {
        "eventCount": len(events),
        "freePairCount": len(summary.free_pairs),
        "orientationCount": summary.orientation_count,
        "admissibleCount": summary.admissible_count,
    }
    verdicts = {"containsClassical": bool(contains.all())}
    if params["witnessPair"] is not None:
        pair = frozenset(params["witnessPair"])
        verdicts["witnessComparable"] = summary.comparability.get(pair) == "all"
    if params["expectStrengthened"] is not None:
        strengthened = bool(summary.indices) and bool((contains & strengthens).all())
        verdicts["strengthened"] = strengthened == params["expectStrengthened"]
    if params["expectAdmissible"] is not None:
        verdicts["admissibleCountMatches"] = summary.admissible_count == params["expectAdmissible"]
    return metrics, verdicts, artifacts


_RUNNERS = {
    "bell": _run_bell,
    "epr": _run_epr,
    "chsh": _run_chsh,
    "lhv": _run_lhv,
    "eraser": _run_eraser,
    "cone": _run_cone,
    "topology": _run_topology,
    "order": _run_order,
}
