import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import lattice
from qcausal.fixtures import load_golden
from qcausal.lattice import (
    CommutatorField,
    ConeProfile,
    LatticeSpec,
    canonical_check,
    commutation_graph,
    commutator_table,
    cone_profile,
    pauli_jordan,
)

SPEC64 = LatticeSpec(64, 1.0, 16)
ORACLE = Path(__file__).resolve().parent.parent / "scripts" / "verify_fixtures.py"


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(4, 1.0, 8)
    with pytest.raises(ValueError):
        LatticeSpec(8, 0.0, 8)
    with pytest.raises(ValueError):
        LatticeSpec(8, 1.0, 1)
    with pytest.raises(ValueError):
        LatticeSpec(8, 1.0, 8, time_step=0.0)


@pytest.mark.parametrize(
    "args",
    [
        (16, math.nan, 4),
        (16, math.inf, 4),
        (16, 0.5, 4, math.nan),
        (16, 0.5, 4, math.inf),
    ],
)
def test_spec_rejects_non_finite_mass_and_time_step(args):
    with pytest.raises(ValueError):
        LatticeSpec(*args)


def test_dispersion_endpoints_and_symmetry():
    _, omegas = lattice._mode_tables(SPEC64.sites, SPEC64.mass)
    assert len(omegas) == 64 and omegas[0] == 1.0
    assert abs(omegas[32] - math.sqrt(5.0)) <= 1e-12
    for n in range(1, 32):
        assert abs(omegas[n] - omegas[64 - n]) <= 1e-12


def test_equal_time_commutator_vanishes():
    assert pauli_jordan(SPEC64, 0, 0.0) == 0.0
    for dx in range(64):
        assert abs(pauli_jordan(SPEC64, dx, 0.0)) <= 1e-12


def test_commutator_matches_golden_oracle():
    golden = load_golden()
    assert golden["status"] == "VERIFIED"
    section = golden["commutator64"]
    spec = LatticeSpec(section["sites"], section["mass"], 8)
    for dx, dt, expected in section["values"]:
        assert abs(pauli_jordan(spec, dx, float(dt)) - expected) <= 1e-12


def test_commutator_antisymmetry_and_periodicity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dx = int(rng.integers(0, 64))
        dt = float(rng.uniform(-8, 8))
        forward = pauli_jordan(SPEC64, dx, dt)
        assert abs(forward + pauli_jordan(SPEC64, -dx, -dt)) <= 1e-12
        assert pauli_jordan(SPEC64, dx + 64, dt) == forward


def test_canonical_check_is_kronecker_delta():
    for dx in range(65):
        expected = 1.0 if dx % 64 == 0 else 0.0
        assert abs(canonical_check(SPEC64, dx) - expected) <= 1e-12


def test_commutator_table_invariants():
    spec = LatticeSpec(16, 0.5, 6)
    table = commutator_table(spec)
    assert table.values.shape == (11, 16)
    assert abs(table.value(0, 0)) <= 1e-12
    assert table.equal_time_max() <= 1e-12
    for step in range(-5, 6):
        for dx in range(16):
            assert abs(table.value(dx, step) + table.value(-dx, -step)) <= 1e-12
    assert table.antisymmetry_max() <= 1e-12
    assert table.value(5 + 16, 2) == table.value(5, 2)
    assert table.value(5 - 16, -3) == table.value(5, -3)
    assert table.dts() == [float(j) for j in range(-5, 6)]


def test_commutator_field_rejects_broken_invariants():
    spec = LatticeSpec(16, 0.5, 6)
    good = commutator_table(spec).values
    nonzero_equal_time = good.copy()
    nonzero_equal_time[5, 3] = 1e-9
    with pytest.raises(ValueError, match="equal time"):
        CommutatorField(spec, nonzero_equal_time)
    skewed = good.copy()
    skewed[7, 3] += 1e-9
    with pytest.raises(ValueError, match="antisymmetry"):
        CommutatorField(spec, skewed)


def test_commutator_field_rejects_a_one_ulp_parity_skew():
    spec = LatticeSpec(16, 0.5, 6)
    values = commutator_table(spec).values.copy()
    # column 3 against its mirror, column 13
    values[:, 3] = np.nextafter(values[:, 3], np.inf)
    with pytest.raises(ValueError, match="parity"):
        CommutatorField(spec, values)


@pytest.mark.parametrize(
    "cell, message",
    [((5, 3), "equal time"), ((7, 3), "antisymmetry"), ((2, 8), "antisymmetry")],
    ids=["equal-time-row", "later-row", "column-n-half"],
)
def test_commutator_field_rejects_a_nan_cell(cell, message):
    spec = LatticeSpec(16, 0.5, 6)
    values = commutator_table(spec).values.copy()
    values[cell] = math.nan
    with pytest.raises(ValueError, match=message):
        CommutatorField(spec, values)


@settings(deadline=None)
@given(
    sites=st.integers(8, 96),
    mass=st.floats(0.05, 3.0),
    time_steps=st.integers(2, 12),
    time_step=st.floats(0.25, 2.0),
)
def test_commutator_table_matches_pauli_jordan(sites, mass, time_steps, time_step):
    spec = LatticeSpec(sites, mass, time_steps, time_step)
    table = commutator_table(spec)
    assert table.values.shape == (2 * time_steps - 1, sites)
    for j in range(-(time_steps - 1), time_steps):
        for dx in range(sites):
            assert abs(table.value(dx, j) - pauli_jordan(spec, dx, j * time_step)) <= 1e-13


@settings(deadline=None)
@given(
    sites=st.integers(8, 96),
    mass=st.floats(0.05, 3.0),
    time_steps=st.integers(2, 12),
    time_step=st.floats(0.25, 2.0),
)
def test_commutator_table_is_even_in_dx(sites, mass, time_steps, time_step):
    # D(-dx, dt) = D(dx, dt) because w_n = w_{N-n}. The table is its even
    # part, so it is exactly even; the raw FFT rows must be even to rounding,
    # so keeping the even part moves no cell by more than that.
    spec = LatticeSpec(sites, mass, time_steps, time_step)
    values = commutator_table(spec).values
    assert np.array_equal(values, mirrored(values))
    raw = rows_by_step(spec, lattice._steps(spec))
    assert np.abs(values - raw).max() <= 1e-13
    assert np.abs(raw - mirrored(raw)).max() <= 1e-13


def mirrored(rows):
    """Each row at -dx mod N: reversing the columns maps dx to N - 1 - dx,
    and rolling one column brings that to -dx mod N."""
    return np.roll(rows[:, ::-1], 1, axis=1)


def rows_by_step(spec, steps):
    """Reference: D(dx, j * h) for each integer step j, one FFT over modes
    per requested step, as it comes out of the FFT."""
    _, omegas = lattice._mode_tables(spec.sites, spec.mass)
    dts = steps * spec.time_step
    return np.fft.ifft(np.exp(-1j * omegas * dts[:, None]) / omegas, axis=1).imag


@settings(deadline=None, max_examples=150)
@given(
    sites=st.integers(8, 600),
    mass=st.floats(0.05, 2.0),
    time_steps=st.integers(8, 140),
    time_step=st.one_of(st.sampled_from([0.1, 0.3, 0.7, 1.0]), st.floats(0.05, 1.5)),
    eps=st.sampled_from([1e-4, 1e-3, 1e-2]),
)
def test_cone_profile_equals_per_row_definition(sites, mass, time_steps, time_step, eps):
    spec = LatticeSpec(sites, mass, time_steps, time_step)
    table = commutator_table(spec)
    steps = np.arange(1, (time_steps + 1) // 2)
    raw = rows_by_step(spec, steps)
    reference = 0.5 * (raw + mirrored(raw))
    assert np.array_equal(table.values[steps + time_steps - 1], reference)
    half = sites // 2
    extents = [
        max((dx for dx in range(half + 1) if abs(row[dx]) >= eps), default=0)
        for row in reference.tolist()
    ]
    profile = cone_profile(table, eps)
    assert profile.per_time_extent == tuple(zip((steps * time_step).tolist(), extents))


def test_commutation_graph_equal_time_edges():
    g = commutation_graph(LatticeSpec(8, 1.0, 3), eps=1e-10)
    for t in range(3):
        for x1 in range(8):
            for x2 in range(x1 + 1, 8):
                assert g.adjacency[t * 8 + x1, t * 8 + x2]


def test_commutation_graph_adjacent_time_non_edge():
    g = commutation_graph(LatticeSpec(64, 1.0, 2), eps=1e-3)
    i = g.labels.index("x0t0")
    j = g.labels.index("x0t1")
    assert not g.adjacency[i, j]  # |D(0, 1)| ~ 0.58 >> eps


def test_commutation_graph_warns_when_complete():
    with pytest.warns(UserWarning, match="complete"):
        commutation_graph(LatticeSpec(8, 1.0, 2), eps=100.0)


def test_cone_profile_matches_golden():
    golden = load_golden()
    for key in ("cone128", "containment64"):
        section = golden[key]
        spec = LatticeSpec(section["sites"], section["mass"], section["timeSteps"])
        profile = cone_profile(commutator_table(spec), section["eps"])
        assert [[int(dt), e] for dt, e in profile.per_time_extent] == section["extents"]
        from_point_sums = []
        for j in range(1, (spec.time_steps + 1) // 2):
            hits = [
                dx
                for dx in range(spec.sites // 2 + 1)
                if abs(pauli_jordan(spec, dx, float(j))) >= section["eps"]
            ]
            from_point_sums.append((float(j), max(hits, default=0)))
        assert list(profile.per_time_extent) == from_point_sums
        assert abs(profile.fitted_speed - section["fittedSpeed"]) <= 1e-9
        assert profile.broadening() == section["broadening"]


def test_cone_profile_extents_nearly_monotone():
    for spec in (LatticeSpec(128, 0.1, 32), LatticeSpec(64, 1.0, 16)):
        extents = cone_profile(commutator_table(spec), 1e-3).extents()
        for previous, current in zip(extents, extents[1:]):
            assert current >= previous - 2


def test_cone_containment_within_broadened_cone():
    golden = load_golden()["containment64"]
    spec = LatticeSpec(golden["sites"], golden["mass"], golden["timeSteps"])
    width = golden["broadening"]
    for j in range(1, (spec.time_steps + 1) // 2):
        for dx in range(spec.sites // 2 + 1):
            if abs(pauli_jordan(spec, dx, float(j))) >= golden["eps"]:
                assert dx <= j + width


def test_equal_time_extent_is_zero():
    # nothing non-commuting at equal time for any eps above rounding noise
    mags = [abs(pauli_jordan(SPEC64, dx, 0.0)) for dx in range(33)]
    assert max(mags) < 1e-12


def test_heavier_mass_never_beats_light_cone_speed():
    masses = (0.05, 0.1, 0.2, 0.4, 0.8)
    speeds = {
        m: cone_profile(commutator_table(LatticeSpec(128, m, 32)), 1e-3).fitted_speed
        for m in masses + (1.6,)
    }
    light_speed = speeds[0.05]
    for m in masses:
        assert speeds[2 * m] <= light_speed * 1.10


def test_cone_wrapped_round_a_small_ring_fits_speed_zero():
    # least squares on extents 3, 4, 3 gives -4.9e-16 in floating point
    profile = cone_profile(commutator_table(LatticeSpec(8, 1.4140625, 8, 1.41796875)), eps=1e-3)
    assert profile.extents().tolist() == [3, 4, 3]
    assert profile.fitted_speed == 0.0


def test_cone_profile_errors():
    # no row reaches eps past dx = 0: a zero-extent profile, not an error
    profile = cone_profile(commutator_table(LatticeSpec(64, 1.0, 16)), eps=50.0)
    assert not profile.extents().any()
    assert profile.fitted_speed == 0.0 and profile.broadening() == 0
    with pytest.raises(ValueError, match="non-negative"):
        ConeProfile(profile.per_time_extent, -0.5, 50.0)
    with pytest.raises(ValueError, match="8 time steps"):
        cone_profile(commutator_table(LatticeSpec(64, 1.0, 6)), eps=1e-3)


@functools.cache
def oracle():
    """The fixture oracle, loaded by path: it imports nothing from the package."""
    spec = importlib.util.spec_from_file_location("verify_fixtures", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A draw whose |D| comes within the oracle's EPS_MARGIN of eps has no
# reliable extent, so its cone is not compared; more than this share of
# such draws fails the test, since then it would compare too little.
MAX_THRESHOLD_SKIP_SHARE = 0.05
# draws of at most 20 sites and 14 steps: about 4 s on a 2-core Xeon VM
ORACLE_DRAWS = 250


def test_table_and_cone_match_the_oracle():
    counts = {"draws": 0, "skips": 0}

    @settings(deadline=None, max_examples=ORACLE_DRAWS)
    @given(
        sites=st.integers(8, 20),
        time_steps=st.integers(8, 14),
        mass=st.floats(0.1, 2.0),
        eps=st.floats(-4.0, -2.0).map(lambda power: 10.0**power),
        data=st.data(),
    )
    def check(sites, time_steps, mass, eps, data):
        table = commutator_table(LatticeSpec(sites, mass, time_steps))
        step = data.draw(st.integers(-(time_steps - 1), time_steps - 1), label="step")
        omegas = oracle().omega_table(sites, mass)
        # every dx, so the half of the table mirrored from dx <= N/2 is
        # checked on its own
        for dx in range(sites):
            expected = float(oracle().commutator(sites, omegas, dx, step))
            assert abs(table.value(dx, step) - expected) <= 1e-13
        counts["draws"] += 1
        section = oracle().cone_section(sites, mass, time_steps, eps)
        if section["thresholdMargin"] < oracle().EPS_MARGIN:
            counts["skips"] += 1
            return
        profile = cone_profile(table, eps)
        assert profile.extents().tolist() == [extent for _, extent in section["extents"]]
        assert profile.broadening() == section["broadening"]
        assert abs(profile.fitted_speed - section["fittedSpeed"]) <= 1e-9

    check()
    assert counts["skips"] <= MAX_THRESHOLD_SKIP_SHARE * counts["draws"], counts
