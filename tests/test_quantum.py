import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcausal import entanglement
from qcausal.quantum import (
    NORM_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    STRUCT_TOL,
    StateVector,
    born_index,
    collapse,
    measure_probabilities,
    spin_projectors,
)

UP = StateVector([1, 0])
DOWN = StateVector([0, 1])
PLUS = StateVector.normalized([1, 1])
Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.normalized(amps)


def test_state_vector_rejects_non_unit_norm():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_rejects_empty():
    with pytest.raises(ValueError):
        StateVector(np.array([], dtype=complex))


def test_measure_eigenstate():
    probs = measure_probabilities(UP, 0, Z)
    assert probs.tolist() == [1.0, 0.0]
    assert not probs.flags.writeable


def test_measure_equal_superposition():
    probs = measure_probabilities(PLUS, 0, Z)
    assert abs(probs[0] - 0.5) <= 1e-12
    assert abs(probs[1] - 0.5) <= 1e-12


def test_measure_x_axis_on_up():
    # oracle: P = (I + sigma_x)/2 has every entry 1/2, so <u|P|u> = 1/2
    probs = measure_probabilities(UP, 0, X)
    assert abs(probs[0] - 0.5) <= 1e-12
    assert abs(probs[1] - 0.5) <= 1e-12


def test_probability_conservation_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        probs = measure_probabilities(random_state(rng, 2), 0, axis)
        assert abs(sum(probs) - 1.0) <= 1e-10


def kron_projectors(axis, site, n_sites):
    """Slow definition: the spin projectors (I +- n.sigma)/2 at `site`,
    Kronecker-lifted to operators on the whole 2^n-dimensional register."""
    n_sigma = sum(c * p for c, p in zip(axis, (PAULI_X, PAULI_Y, PAULI_Z)))
    before, after = np.eye(2**site), np.eye(2 ** (n_sites - site - 1))
    return [np.kron(np.kron(before, (np.eye(2) + sign * n_sigma) / 2), after)
            for sign in (1, -1)]


UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n - 1),
        st.lists(st.tuples(UNIT, UNIT), min_size=2**n, max_size=2**n),
    )),
    st.tuples(UNIT, UNIT, UNIT),
)
def test_measure_probabilities_are_the_born_rule_per_branch(register, axis):
    n_sites, site, amps = register
    axis = np.array(axis)
    assume(np.linalg.norm(axis) >= 1e-3 and np.linalg.norm(amps) >= 1e-3)
    axis = axis / np.linalg.norm(axis)
    psi = StateVector.normalized([complex(re, im) for re, im in amps])
    probs = measure_probabilities(psi, site, axis)
    for branch, proj in enumerate(kron_projectors(axis, site, n_sites)):
        projected = proj @ psi.amplitudes
        expected = np.vdot(projected, projected).real
        assert abs(probs[branch] - expected) <= 1e-15
        if probs[branch] > NORM_TOL:
            # rounding in P_i psi is relative to ||psi|| = 1; renormalizing
            # divides it by ||P_i psi||
            collapsed = collapse(psi, site, axis, branch).amplitudes
            error = np.max(np.abs(collapsed - projected / np.sqrt(expected)))
            assert error <= 1e-15 / np.sqrt(expected)
        else:
            with pytest.raises(ValueError, match="impossible outcome"):
                collapse(psi, site, axis, branch)


def test_measure_and_collapse_match_the_lifted_projectors_bit_for_bit():
    """Named states whose projections have few nonzero terms: the Bell pair
    along x-z axes at either site, and z-collapses of GHZ(3)."""
    phi = entanglement.bell_phi_plus()
    for degrees in range(0, 360, 15):
        axis = entanglement.xz_axis(np.radians(degrees))
        for site in (0, 1):
            lifted = kron_projectors(axis, site, 2)
            expected = [np.vdot(p @ phi.amplitudes, p @ phi.amplitudes).real for p in lifted]
            assert measure_probabilities(phi, site, axis).tolist() == expected
    psi = entanglement.ghz(3)
    for site in range(3):
        for branch, proj in enumerate(kron_projectors(Z, site, 3)):
            projected = proj @ psi.amplitudes
            expected = projected / np.sqrt(np.vdot(projected, projected).real)
            assert np.array_equal(collapse(psi, site, Z, branch).amplitudes, expected)


def test_collapse_projects_superposition():
    assert np.allclose(collapse(PLUS, 0, Z, 0).amplitudes, [1, 0], atol=1e-15)


def test_collapse_idempotent_on_eigenstate():
    assert np.array_equal(collapse(UP, 0, Z, 0).amplitudes, UP.amplitudes)


def test_collapse_entangled_pair_first_site():
    # measuring site 0 as up leaves the pair in |uu>
    phi = StateVector.normalized([1, 0, 0, 1])
    out = collapse(phi, 0, Z, 0)
    assert np.allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_collapse_zero_probability_branch_rejected():
    with pytest.raises(ValueError, match="impossible"):
        collapse(UP, 0, Z, 1)


def test_collapse_consistency():
    rng = np.random.default_rng(5)
    for _ in range(25):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        state = random_state(rng, 2)
        for index, prob in enumerate(measure_probabilities(state, 0, axis)):
            if prob > 1e-6:
                again = measure_probabilities(collapse(state, 0, axis, index), 0, axis)
                assert abs(again[index] - 1.0) <= 1e-12


def test_interference_differs_from_classical_mixture():
    # |Psi> = (|u> + |d>)/sqrt2 against |Phi> = same state: amplitude-sum
    # probability is 1, the probability-sum rule would give 1/2.
    def overlap(phi, psi):
        return abs(np.vdot(phi.amplitudes, psi.amplitudes)) ** 2

    prob_amplitude_rule = overlap(PLUS, PLUS)
    classical = 0.5 * overlap(PLUS, UP) + 0.5 * overlap(PLUS, DOWN)
    assert abs(prob_amplitude_rule - 1.0) <= 1e-12
    assert abs(classical - 0.5) <= 1e-12
    assert abs(prob_amplitude_rule - classical) > 0.4


def test_sample_outcome_deterministic_branch():
    draws = [np.random.default_rng(seed).random() for seed in (0, 1, 99, 2**40)]
    assert born_index(np.cumsum(measure_probabilities(UP, 0, Z)), draws).tolist() == [0, 0, 0, 0]
    assert np.array_equal(collapse(UP, 0, Z, 0).amplitudes, UP.amplitudes)


def test_sample_outcome_frequency():
    draws = [np.random.default_rng(seed).random() for seed in range(100_000)]
    hits = born_index(np.cumsum(measure_probabilities(PLUS, 0, Z)), draws).sum()
    assert abs(hits / 100_000 - 0.5) <= 0.01


def test_measure_and_collapse_reject_bad_site_and_branch():
    phi = entanglement.bell_phi_plus()
    for site in (-1, 2):
        with pytest.raises(ValueError, match="outside register of 2 sites"):
            measure_probabilities(phi, site, Z)
        with pytest.raises(ValueError, match="outside register of 2 sites"):
            collapse(phi, site, Z, 0)
    with pytest.raises(ValueError, match="not a register of spin-1/2 sites"):
        measure_probabilities(StateVector.normalized([1, 1, 1]), 0, Z)
    for branch in (-1, 2):
        with pytest.raises(ValueError, match="branch must be 0"):
            collapse(phi, 0, Z, branch)


def test_spin_projectors_z_is_computational_basis():
    plus_proj, minus_proj = spin_projectors([Z])[0]
    assert np.allclose(plus_proj, np.diag([1, 0]), atol=1e-15)
    assert np.allclose(minus_proj, np.diag([0, 1]), atol=1e-15)


def test_spin_projectors_x_entries():
    assert np.allclose(np.abs(spin_projectors([X])), 0.5, atol=1e-15)


def test_spin_projectors_are_valid_pvms():
    """Per axis: Hermitian, idempotent, mutually orthogonal projectors that
    sum to the identity."""
    rng = np.random.default_rng(23)
    axes = rng.normal(size=(25, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    for plus, minus in spin_projectors(axes):
        for proj in (plus, minus):
            assert np.max(np.abs(proj - proj.conj().T)) <= STRUCT_TOL
            assert np.max(np.abs(proj @ proj - proj)) <= STRUCT_TOL
        assert np.max(np.abs(plus @ minus)) <= STRUCT_TOL
        assert np.max(np.abs(plus + minus - np.eye(2))) <= STRUCT_TOL


def test_measure_probabilities_rejects_non_unit_axis():
    with pytest.raises(ValueError, match="unit length"):
        measure_probabilities(UP, 0, (1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="unit length"):
        collapse(UP, 0, (1.0, 1.0, 0.0), 0)


def test_axis_off_unit_length_within_tolerance_passes_the_sum_check():
    # |n| = 1 + 9e-11 passes spin_projectors' STRUCT_TOL, and the squared
    # norms sum to <psi|P_0^2 + P_1^2|psi> = (1 + |n|^2)/2 = 1 + 9e-11 + ...
    axis = np.array([0.6, 0.0, 0.8]) * (1.0 + 9e-11)
    for psi in (UP, PLUS, entanglement.bell_phi_plus()):
        probs = measure_probabilities(psi, 0, axis)
        assert abs(probs.sum() - (1.0 + 9e-11)) <= 1e-15


def test_measure_probabilities_rejects_a_sum_off_one():
    # One ulp inside the axis tolerance, the sum (1 + |n|^2)/2 rounds to
    # 1.0000000001, just past STRUCT_TOL: the sum check is the last guard.
    axis = (0.0, 0.0, 1.0 + STRUCT_TOL - 2.0**-52)
    spin_projectors([axis])  # accepted
    with pytest.raises(ValueError, match="branch probabilities sum to 1.0000000001,"):
        measure_probabilities(UP, 0, axis)


NAN = float("nan")
NAN_AXIS = (NAN, 0.0, 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StateVector([NAN, 0.0]),
        lambda: StateVector.normalized([NAN, 1.0]),
        lambda: measure_probabilities(UP, 0, NAN_AXIS),
        lambda: collapse(UP, 0, NAN_AXIS, 0),
        lambda: spin_projectors([(0.0, 0.0, 1.0), NAN_AXIS]),
        lambda: entanglement.correlations(
            entanglement.bell_phi_plus(), [NAN_AXIS], [(0.0, 0.0, 1.0)]
        ),
        lambda: entanglement.joint_spin_tables(
            entanglement.bell_phi_plus(), [NAN_AXIS], [(0.0, 0.0, 1.0)]
        ),
        lambda: entanglement.epr_consistency(NAN_AXIS, 10, 1),
    ],
    ids=[
        "state", "normalized", "measure_probabilities", "collapse",
        "spin_projectors", "correlations", "joint_spin_tables", "epr",
    ],
)
def test_validators_reject_nan(build):
    with pytest.raises(ValueError):
        build()


def test_spin_projectors_stack_spin_pvms():
    """Entry [k] of the stack is the spin PVM (I +- n_k.sigma)/2 of axis k."""
    rng = np.random.default_rng(29)
    axes = rng.normal(size=(6, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    stacked = spin_projectors(axes)
    assert stacked.shape == (6, 2, 2, 2)
    for axis, pair in zip(axes, stacked):
        assert np.array_equal(pair, spin_projectors([axis])[0])
        lifted = kron_projectors(axis, 0, 1)
        assert np.max(np.abs(pair - lifted)) <= 1e-15
