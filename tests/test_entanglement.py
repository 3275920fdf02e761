import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcausal import entanglement
from qcausal.entanglement import (
    bell_phi_plus,
    chsh,
    correlations,
    epr_consistency,
    eraser_curve,
    eraser_visibility,
    ghz,
    joint_spin_probabilities,
    joint_spin_tables,
    lhv_strategies,
    maximize_chsh,
    xz_axis,
)
from qcausal.quantum import (
    NORM_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    born_index,
    collapse,
    measure_probabilities,
)

Z_AXIS = (0.0, 0.0, 1.0)
X_AXIS = (1.0, 0.0, 0.0)
UNIT = st.floats(-1.0, 1.0, allow_nan=False)


def spin_expectation(psi, axis_a, axis_b):
    """Independent route: <psi|(n_a.sigma) x (n_b.sigma)|psi>."""
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    op_a = sum(c * p for c, p in zip(axis_a, paulis))
    op_b = sum(c * p for c, p in zip(axis_b, paulis))
    amps = psi.amplitudes
    return float(np.real(np.vdot(amps, np.kron(op_a, op_b) @ amps)))


def test_bell_state_amplitudes_and_norm():
    phi = bell_phi_plus()
    assert abs(np.linalg.norm(phi.amplitudes) - 1.0) <= 1e-12
    assert np.allclose(phi.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-15)
    assert np.vdot([0, 1, 0, 0], phi.amplitudes) == 0.0


def test_bell_state_zz_distribution():
    # both up or both down, each with probability 1/2
    joint = joint_spin_probabilities(bell_phi_plus(), Z_AXIS, Z_AXIS)
    assert abs(joint[0, 0] - 0.5) <= 1e-12
    assert abs(joint[1, 1] - 0.5) <= 1e-12
    assert joint[0, 1] <= 1e-15 and joint[1, 0] <= 1e-15


def test_ghz_two_sites_is_bell_state():
    assert np.array_equal(ghz(2).amplitudes, bell_phi_plus().amplitudes)


def test_ghz_three_sites_all_z_outcomes():
    psi = ghz(3)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12
    probs = np.abs(psi.amplitudes) ** 2
    assert abs(probs[0] - 0.5) <= 1e-12          # uuu
    assert abs(probs[-1] - 0.5) <= 1e-12         # ddd
    assert probs[1:-1].max() == 0.0


def test_ghz_rejects_single_site():
    with pytest.raises(ValueError):
        ghz(1)


def correlation(psi, axis_a, axis_b, site_a=0, site_b=1):
    return correlations(psi, [axis_a], [axis_b], site_a, site_b)[0, 0]


def test_correlation_same_axis_is_perfect():
    value = correlation(bell_phi_plus(), Z_AXIS, Z_AXIS)
    assert abs(value - 1.0) <= 1e-12


def test_correlation_orthogonal_axes_vanishes():
    value = correlation(bell_phi_plus(), Z_AXIS, X_AXIS)
    assert abs(value) <= 1e-12


def test_correlation_matches_independent_expectation():
    rng = np.random.default_rng(31)
    phi = bell_phi_plus()
    for _ in range(40):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        engine = correlation(phi, a, b)
        assert abs(engine - spin_expectation(phi, a, b)) <= 1e-10
        assert abs(engine) <= 1.0 + 1e-12


def test_correlation_xz_plane_is_cosine():
    alphas = np.radians(np.arange(0, 360, 7))
    betas = np.radians(np.arange(0, 360, 11))
    axes_a, axes_b = [xz_axis(a) for a in alphas], [xz_axis(b) for b in betas]
    table = correlations(bell_phi_plus(), axes_a, axes_b)
    assert table.shape == (alphas.size, betas.size)
    for (i, j), value in np.ndenumerate(table):
        assert abs(value - math.cos(alphas[i] - betas[j])) <= 1e-10


AXIS = st.tuples(UNIT, UNIT, UNIT).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
    lambda v: np.array(v) / np.linalg.norm(v)
)


@settings(deadline=None, max_examples=60)
@given(
    parts=st.lists(UNIT, min_size=8, max_size=8),
    axes_a=st.lists(AXIS, min_size=1, max_size=4),
    axes_b=st.lists(AXIS, min_size=1, max_size=4),
    swap=st.booleans(),
)
def test_correlations_cells_equal_single_pair_calls(parts, axes_a, axes_b, swap):
    amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
    assume(np.linalg.norm(amps) > 1e-3)
    psi = StateVector.normalized(amps)
    sites = (1, 0) if swap else (0, 1)
    table = correlations(psi, axes_a, axes_b, *sites)
    assert table.shape == (len(axes_a), len(axes_b))
    for (i, j), value in np.ndenumerate(table):
        assert value == correlations(psi, [axes_a[i]], [axes_b[j]], *sites)[0, 0]


def test_correlation_symmetry_under_swap():
    phi = bell_phi_plus()
    a, b = xz_axis(0.3), xz_axis(1.1)
    direct = correlation(phi, a, b)
    swapped_setting = correlation(phi, b, a)
    swapped_sites = correlation(phi, b, a, site_a=1, site_b=0)
    assert abs(direct - swapped_setting) <= 1e-12
    assert abs(direct - swapped_sites) <= 1e-12


def test_correlation_rejects_bad_sites():
    with pytest.raises(ValueError):
        correlations(bell_phi_plus(), [Z_AXIS], [Z_AXIS], site_a=0, site_b=0)
    with pytest.raises(ValueError):
        correlations(bell_phi_plus(), [Z_AXIS], [Z_AXIS], site_a=0, site_b=2)


def test_chsh_spec_sign_convention_hits_quantum_optimum():
    value = chsh(
        bell_phi_plus(),
        xz_axis(0.0),
        xz_axis(math.pi / 2),
        xz_axis(math.pi / 4),
        xz_axis(3 * math.pi / 4),
        signs=(1, -1, 1, 1),
    )
    assert abs(value - 2 * math.sqrt(2)) <= 1e-10


def test_chsh_default_convention_hits_quantum_optimum():
    value = chsh(
        bell_phi_plus(),
        xz_axis(0.0),
        xz_axis(math.pi / 2),
        xz_axis(math.pi / 4),
        xz_axis(-math.pi / 4),
    )
    assert abs(value - 2 * math.sqrt(2)) <= 1e-10


def test_chsh_equal_settings_bounded_by_two():
    axis = xz_axis(0.7)
    value = chsh(bell_phi_plus(), axis, axis, axis, axis)
    assert abs(value) <= 2.0 + 1e-12


def test_maximize_chsh_product_state_classical_bound():
    product = StateVector([1, 0, 0, 0])  # |uu>
    for step in (5.0, 2.5):
        _, best = maximize_chsh(product, step)
        assert best <= 2.0 + 1e-9


def test_maximize_chsh_refinement_monotone():
    for amps in ([1, 0, 0, 1], [0.8, 0, 0, 0.6]):
        psi = bell_phi_plus() if amps == [1, 0, 0, 1] else _normalized(amps)
        coarse = maximize_chsh(psi, 5.0)[1]
        medium = maximize_chsh(psi, 2.5)[1]
        fine = maximize_chsh(psi, 1.0)[1]
        assert coarse <= medium + 1e-12 <= fine + 2e-12


def _normalized(amps):
    return StateVector.normalized(amps)


def test_maximize_chsh_settings_reproduce_value():
    settings, best = maximize_chsh(bell_phi_plus(), 5.0)
    a0, a1, b0, b1 = (
        xz_axis(math.radians(d))
        for d in (settings.a0_deg, settings.a1_deg, settings.b0_deg, settings.b1_deg)
    )
    assert abs(chsh(bell_phi_plus(), a0, a1, b0, b1) - best) <= 1e-10


def xz_block(psi):
    """T_ij = <psi| s_i (x) s_j |psi> for s in (X, Z), from Pauli Kron products."""
    paulis = (PAULI_X, PAULI_Z)
    amps = psi.amplitudes
    return np.array(
        [[np.real(np.vdot(amps, np.kron(p, q) @ amps)) for q in paulis] for p in paulis]
    )


def horodecki_ceiling(psi):
    """Largest CHSH sum over x-z-plane axes: 2 sqrt(s1^2 + s2^2) over the
    singular values of the x-z correlation block (Horodecki, Phys. Lett. A
    200 (1995) 340)."""
    s1, s2 = np.linalg.svd(xz_block(psi), compute_uv=False)
    return 2.0 * math.sqrt(s1 * s1 + s2 * s2)


@settings(deadline=None, max_examples=60)
@given(
    parts=st.lists(UNIT, min_size=8, max_size=8),
    real=st.booleans(),
)
def test_maximize_chsh_meets_horodecki_ceiling(parts, real):
    amps = np.array(parts[:4]) + (0.0 if real else 1j * np.array(parts[4:]))
    assume(np.linalg.norm(amps) > 1e-3)
    psi = StateVector.normalized(amps)
    ceiling = horodecki_ceiling(psi)
    assert maximize_chsh(psi, 5.0)[1] <= ceiling + 1e-12
    best = maximize_chsh(psi, 2.5)[1]
    assert best <= ceiling + 1e-12
    assert ceiling - best < 1e-2


def test_maximize_chsh_is_tsirelson_on_phi_plus():
    phi = bell_phi_plus()
    assert abs(horodecki_ceiling(phi) - 2 * math.sqrt(2)) <= 1e-12
    for step in (5.0, 2.5, 1.0):
        assert abs(maximize_chsh(phi, step)[1] - 2 * math.sqrt(2)) <= 1e-12


def test_maximize_chsh_rejects_coarse_grid():
    with pytest.raises(ValueError):
        maximize_chsh(bell_phi_plus(), 6.0)


def test_chsh_requires_two_site_state():
    axes = (xz_axis(0.0),) * 4
    with pytest.raises(ValueError, match="two-site"):
        chsh(ghz(3), *axes)
    with pytest.raises(ValueError, match="two-site"):
        maximize_chsh(ghz(3), 5.0)


def test_lhv_enumeration():
    responses, values = lhv_strategies()
    assert responses.shape == (16, 4) and values.shape == (16,)
    assert len({tuple(row) for row in responses.tolist()}) == 16
    assert set(responses.flat) == {+1, -1}
    assert float(values.max()) == 2.0
    assert float(values.min()) == -2.0


def test_lhv_strategy_values_follow_the_chsh_formula():
    responses, values = lhv_strategies()
    assert responses.dtype.kind == values.dtype.kind == "i"
    rows = list(itertools.product((+1, -1), repeat=4))
    assert responses.tolist() == [list(row) for row in rows]
    assert values.tolist() == [a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1 for a0, a1, b0, b1 in rows]
    assert values[rows.index((1, 1, 1, -1))] == 2
    assert sorted(set(values.tolist())) == [-2, 2]  # a deterministic strategy reaches a bound


def test_epr_agreement_exact_on_matching_axes():
    assert epr_consistency(Z_AXIS, 500, seed=3) == 1.0
    assert epr_consistency(X_AXIS, 500, seed=3) == 1.0


def test_epr_orthogonal_axes_agreement_half():
    rate = epr_consistency(Z_AXIS, 100_000, seed=13, axis_b=X_AXIS)
    assert abs(rate - 0.5) <= 0.01


def test_epr_rejects_zero_trials():
    with pytest.raises(ValueError):
        epr_consistency(Z_AXIS, 0, seed=1)


def _sample_with_rng(psi, site, axis, rng):
    """Reference definition of one draw: a Born index, then the collapse."""
    index = int(born_index(np.cumsum(measure_probabilities(psi, site, axis)), rng.random()))
    return index, collapse(psi, site, axis, index)


def epr_per_trial(axis, trials, seed, axis_b=None):
    """Reference definition: one A draw, collapse, one B draw, per trial."""
    axis_b = axis if axis_b is None else axis_b
    psi = bell_phi_plus()
    rng = np.random.default_rng(seed)
    agreements = 0
    for _ in range(trials):
        idx_a, collapsed = _sample_with_rng(psi, 0, axis, rng)
        idx_b, _ = _sample_with_rng(collapsed, 1, axis_b, rng)
        agreements += idx_a == idx_b
    return agreements / trials


class RecordingGenerator:
    """A seeded numpy Generator that records the size of every draw."""

    def __init__(self, make, seed, sizes):
        self._rng = make(seed)
        self._sizes = sizes

    def random(self, size=None):
        self._sizes.append(1 if size is None else size)
        return self._rng.random(size)


@st.composite
def unit_axes(draw):
    vec = np.array([draw(UNIT), draw(UNIT), draw(UNIT)])
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return tuple(vec / norm)


@settings(deadline=None, max_examples=60)
@given(
    axis_a=unit_axes(),
    axis_b=st.one_of(st.none(), unit_axes()),
    trials=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_epr_equals_per_trial_loop(axis_a, axis_b, trials, seed):
    expected = epr_per_trial(axis_a, trials, seed, axis_b)
    make = np.random.default_rng
    for chunk in (1, 3, 64, entanglement.SAMPLE_CHUNK):
        sizes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entanglement, "SAMPLE_CHUNK", chunk)
            mp.setattr(np.random, "default_rng", lambda s: RecordingGenerator(make, s, sizes))
            assert epr_consistency(axis_a, trials, seed, axis_b=axis_b) == expected
        assert sum(sizes) == 2 * trials
        assert max(sizes) <= 2 * chunk


class FixedDraws:
    """Stands in for a Generator: hands out the given uniform draws in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self, size=None):
        if size is None:
            return next(self._values)
        return np.array([next(self._values) for _ in range(size)])


def test_batched_epr_raises_like_per_trial_loop_on_impossible_branch(monkeypatch):
    # At 0.5 degrees B's running sum after A = +1 tops out at 1 - 2^-52, so a
    # B draw above it is clamped onto the -1 branch, whose probability is
    # ~1e-34: collapse rejects it in the third trial.
    axis = xz_axis(math.radians(0.5))
    draws = [0.25, 0.5, 0.75, 0.5, 0.25, float(np.nextafter(1.0, 0.0))]
    errors = []
    for run in (epr_per_trial, epr_consistency):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraws(draws))
        with pytest.raises(ValueError, match="impossible outcome") as info:
            run(axis, 3, 0)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def joint_per_pair(psi, axis_a, axis_b, site_a=0, site_b=1):
    """Reference definition, sequential: A's Born probability times B's on the
    state collapsed onto A's outcome. A branch that collapse rejects has
    probability at most NORM_TOL and is read as 0."""
    probs = np.zeros((2, 2))
    for i, prob_a in enumerate(measure_probabilities(psi, site_a, axis_a)):
        if prob_a > NORM_TOL:
            after = collapse(psi, site_a, axis_a, i)
            probs[i] = prob_a * measure_probabilities(after, site_b, axis_b)
    return probs


unit_axes = st.lists(UNIT, min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(lambda v: np.array(v) / np.linalg.norm(v))


@settings(deadline=None, max_examples=150)
@given(data=st.data(), n=st.integers(2, 4))
def test_joint_spin_tables_match_per_pair_reference(data, n):
    parts = data.draw(st.lists(UNIT, min_size=2 ** (n + 1), max_size=2 ** (n + 1)))
    amps = np.array(parts[: 2**n]) + 1j * np.array(parts[2**n :])
    assume(np.linalg.norm(amps) > 1e-3)
    psi = StateVector.normalized(amps)
    site_a, site_b = data.draw(st.permutations(range(n)))[:2]
    axes_a = data.draw(st.lists(unit_axes, min_size=1, max_size=4))
    axes_b = data.draw(st.lists(unit_axes, min_size=1, max_size=4))
    tables = joint_spin_tables(psi, axes_a, axes_b, site_a, site_b)
    assert tables.shape == (len(axes_a), len(axes_b), 2, 2)
    for x, axis_a in enumerate(axes_a):
        for y, axis_b in enumerate(axes_b):
            reference = joint_per_pair(psi, axis_a, axis_b, site_a, site_b)
            assert np.max(np.abs(tables[x, y] - reference)) <= 1e-12


def test_joint_spin_tables_named_cases():
    phi = bell_phi_plus()
    tables = joint_spin_tables(phi, [Z_AXIS, X_AXIS], [Z_AXIS, X_AXIS, (0.0, 1.0, 0.0)])
    assert np.allclose(tables[0, 0], [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)
    assert np.allclose(tables[1, 1], [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)
    assert np.allclose(tables[0, 1], 0.25, atol=1e-15)
    # On Phi+, x on one wing and y on the other are uncorrelated.
    assert np.allclose(tables[1, 2], 0.25, atol=1e-15)
    assert np.array_equal(tables[1, 0], joint_spin_probabilities(phi, X_AXIS, Z_AXIS))


@pytest.mark.parametrize(
    "axes_a, sites",
    [
        ([Z_AXIS], (0, 0)),
        ([Z_AXIS], (0, 2)),
        ([Z_AXIS], (-1, 1)),
        ([(1.0, 1.0, 0.0)], (0, 1)),
        ([Z_AXIS, (float("nan"), 0.0, 0.0)], (0, 1)),
        ([(0.0, 1.0)], (0, 1)),
        (Z_AXIS, (0, 1)),
    ],
)
def test_joint_spin_tables_rejects_bad_input(axes_a, sites):
    with pytest.raises(ValueError):
        joint_spin_tables(bell_phi_plus(), axes_a, [X_AXIS], *sites)


def test_no_signaling_marginals_subgrid():
    phi = bell_phi_plus()
    for alpha_deg in range(0, 360, 45):
        margins = []
        for beta_deg in range(0, 360, 15):
            joint = joint_spin_probabilities(
                phi, xz_axis(math.radians(alpha_deg)), xz_axis(math.radians(beta_deg))
            )
            margins.append(joint[0, 0] + joint[0, 1])
        assert max(margins) - min(margins) <= 1e-10


def test_eraser_visibilities():
    for marking, erasure, expected in ((False, False, 1.0), (True, False, 0.0), (True, True, 1.0)):
        assert abs(eraser_visibility(eraser_curve(marking, erasure)[1]) - expected) <= 1e-12


def test_eraser_curve_shape_and_fringe():
    phases, probs = eraser_curve(False, False, phase_samples=32)
    assert phases.shape == probs.shape == (32,)
    assert np.allclose(probs, np.cos(phases / 2) ** 2, atol=1e-12)


def test_eraser_marked_curve_is_flat():
    _, probs = eraser_curve(True, False)
    assert np.allclose(probs, 0.5, atol=1e-12)


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def eraser_curve_per_phase(marking, erasure, phase_samples):
    """Slow definition: per phase, build path x marker, apply the CNOT, collapse
    the marker onto +x if erasing, then read the path port's +x probability."""
    phases = 2.0 * math.pi * np.arange(phase_samples) / phase_samples
    probs = []
    for phi in phases:
        amps = np.kron(np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2.0), [1.0, 0.0])
        psi = StateVector(CNOT @ amps if marking else amps)
        if erasure:
            psi = collapse(psi, 1, X_AXIS, 0)
        probs.append(measure_probabilities(psi, 0, X_AXIS)[0])
    return phases, np.array(probs)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(False, False), (True, False), (True, True)]),
    st.integers(8, 4096),
)
def test_eraser_curve_matches_per_phase_definition(config, samples):
    phases, probs = eraser_curve(*config, phase_samples=samples)
    ref_phases, ref_probs = eraser_curve_per_phase(*config, samples)
    assert np.array_equal(phases, ref_phases)
    assert probs.shape == ref_probs.shape
    assert np.max(np.abs(probs - ref_probs)) <= 1e-15


def test_eraser_rejects_erasure_without_marking():
    with pytest.raises(ValueError, match="nothing to erase"):
        eraser_curve(False, True)


def test_eraser_rejects_few_samples():
    with pytest.raises(ValueError, match="phase_samples must be >= 8"):
        eraser_curve(False, False, phase_samples=7)
    assert eraser_curve(False, False, phase_samples=8)[0].size == 8


def test_ghz_single_site_collapse_forces_unanimity():
    psi = ghz(3)
    for site in range(3):
        for branch in (0, 1):
            collapsed = collapse(psi, site, Z_AXIS, branch)
            for other in range(3):
                if other == site:
                    continue
                probs = measure_probabilities(collapsed, other, Z_AXIS)
                assert abs(probs[branch] - 1.0) <= 1e-12
