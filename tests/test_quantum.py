import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcausal import entanglement
from qcausal.quantum import (
    Pvm,
    StateVector,
    born_cumulative,
    born_index,
    collapse,
    embed_pvm,
    measure_probabilities,
    spin_projectors,
    spin_pvm,
)

UP = StateVector([1, 0])
DOWN = StateVector([0, 1])
PLUS = StateVector.normalized([1, 1])
Z = spin_pvm((0.0, 0.0, 1.0))
X = spin_pvm((1.0, 0.0, 0.0))


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
    probs = measure_probabilities(Z, UP)
    assert probs.tolist() == [1.0, 0.0]
    assert Z.eigenvalues() == (1.0, -1.0)
    assert not probs.flags.writeable


def test_measure_equal_superposition():
    probs = measure_probabilities(Z, PLUS)
    assert abs(probs[0] - 0.5) <= 1e-12
    assert abs(probs[1] - 0.5) <= 1e-12


def test_measure_x_axis_on_up():
    # oracle: P = (I + sigma_x)/2 has every entry 1/2, so <u|P|u> = 1/2
    probs = measure_probabilities(X, UP)
    assert abs(probs[0] - 0.5) <= 1e-12
    assert abs(probs[1] - 0.5) <= 1e-12


def test_probability_conservation_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        probs = measure_probabilities(spin_pvm(axis), random_state(rng, 2))
        assert abs(sum(probs) - 1.0) <= 1e-10


UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n - 1),
        st.lists(st.tuples(UNIT, UNIT), min_size=2**n, max_size=2**n),
    )),
    st.tuples(UNIT, UNIT, UNIT),
)
def test_measure_probabilities_are_the_born_rule_per_branch(register, axis):
    n_sites, site, amps = register
    axis = np.array(axis)
    assume(np.linalg.norm(axis) >= 1e-3 and np.linalg.norm(amps) >= 1e-3)
    obs = embed_pvm(spin_pvm(axis / np.linalg.norm(axis)), site, n_sites)
    psi = StateVector.normalized([complex(re, im) for re, im in amps])
    probs = measure_probabilities(obs, psi)
    # the definition entry by entry, and the running sum of the clipped entries
    expected = [float(np.real(np.vdot(psi.amplitudes, proj @ psi.amplitudes)))
                for _, proj in obs.branches]
    assert probs.tolist() == expected
    assert np.array_equal(born_cumulative(obs, psi), np.cumsum(np.clip(expected, 0.0, None)))


def test_collapse_projects_superposition():
    assert np.allclose(collapse(Z, 0, PLUS).amplitudes, [1, 0], atol=1e-15)


def test_collapse_idempotent_on_eigenstate():
    assert np.array_equal(collapse(Z, 0, UP).amplitudes, UP.amplitudes)


def test_collapse_entangled_pair_first_site():
    # measuring site 0 as up leaves the pair in |uu>
    phi = StateVector.normalized([1, 0, 0, 1])
    out = collapse(embed_pvm(Z, 0, 2), 0, phi)
    assert np.allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_collapse_zero_probability_branch_rejected():
    with pytest.raises(ValueError, match="impossible"):
        collapse(Z, 1, UP)


def test_collapse_consistency():
    rng = np.random.default_rng(5)
    for _ in range(25):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        obs = spin_pvm(axis)
        state = random_state(rng, 2)
        for index, prob in enumerate(measure_probabilities(obs, state)):
            if prob > 1e-6:
                again = measure_probabilities(obs, collapse(obs, index, state))
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
    assert born_index(born_cumulative(Z, UP), draws).tolist() == [0, 0, 0, 0]
    assert np.array_equal(collapse(Z, 0, UP).amplitudes, UP.amplitudes)


def test_sample_outcome_frequency():
    draws = [np.random.default_rng(seed).random() for seed in range(100_000)]
    hits = born_index(born_cumulative(Z, PLUS), draws).sum()
    assert abs(hits / 100_000 - 0.5) <= 0.01


def test_spin_pvm_z_is_computational_basis():
    plus_proj = Z.branches[0][1]
    minus_proj = Z.branches[1][1]
    assert np.allclose(plus_proj, np.diag([1, 0]), atol=1e-15)
    assert np.allclose(minus_proj, np.diag([0, 1]), atol=1e-15)


def test_spin_pvm_x_entries():
    assert np.allclose(np.abs(X.branches[0][1]), 0.5, atol=1e-15)
    assert np.allclose(np.abs(X.branches[1][1]), 0.5, atol=1e-15)


def test_spin_pvm_arbitrary_axis_is_valid_pvm():
    rng = np.random.default_rng(23)
    for _ in range(25):
        axis = rng.normal(size=3)
        spin_pvm(axis / np.linalg.norm(axis))  # constructor enforces the invariants


def test_spin_pvm_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        spin_pvm((1.0, 1.0, 0.0))


def test_pvm_rejects_broken_structure():
    p = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="orthogonal"):
        Pvm(((1.0, p), (-1.0, p)))
    with pytest.raises(ValueError, match="identity"):
        Pvm(((1.0, p),))  # incomplete
    with pytest.raises(ValueError, match="distinct"):
        Pvm(((1.0, np.diag([1.0, 0.0])), (1.0, np.diag([0.0, 1.0]))))
    with pytest.raises(ValueError, match="idempotent"):
        Pvm(((1.0, np.full((2, 2), 0.6)),))
    with pytest.raises(ValueError, match="Hermitian"):
        Pvm(((1.0, np.array([[1.0, 1.0], [0.0, 0.0]])),))


# Pvms that pass every structure check at its 1e-10 tolerance, yet give Born
# probabilities outside the ones measure_probabilities accepts.
EPS = 9e-11


def test_measure_probabilities_rejects_a_negative_branch():
    # P0 = diag(-eps, 1), P1 = diag(1 + eps, 0): Hermitian, complete, and
    # idempotent and orthogonal within eps + eps^2. On |0> branch 0 has
    # probability -eps, below -NORM_TOL = -1e-12.
    obs = Pvm(((1.0, np.diag([-EPS, 1.0])), (-1.0, np.diag([1.0 + EPS, 0.0]))))
    with pytest.raises(ValueError, match="negative branch probability"):
        measure_probabilities(obs, UP)
    assert measure_probabilities(obs, DOWN).tolist() == [1.0, 0.0]


def test_measure_probabilities_rejects_a_sum_off_one():
    # one branch I + eps*J on 3 dimensions, J all ones: <u|J|u> = 3 on the
    # uniform state u, so the probabilities sum to 1 + 3 eps
    obs = Pvm(((1.0, np.eye(3) + EPS * np.ones((3, 3))),))
    with pytest.raises(ValueError, match="branch probabilities sum to 1.00000000027"):
        measure_probabilities(obs, StateVector.normalized([1, 1, 1]))
    assert measure_probabilities(obs, StateVector([1, 0, 0])).tolist() == [1.0 + EPS]


NAN = float("nan")
NAN_AXIS = (NAN, 0.0, 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StateVector([NAN, 0.0]),
        lambda: StateVector.normalized([NAN, 1.0]),
        lambda: Pvm(((1.0, [[NAN, 0.0], [0.0, 0.0]]), (-1.0, [[0.0, 0.0], [0.0, 1.0]]))),
        lambda: spin_pvm(NAN_AXIS),
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
        "state", "normalized", "pvm", "spin_pvm",
        "spin_projectors", "correlations", "joint_spin_tables", "epr",
    ],
)
def test_validators_reject_nan(build):
    with pytest.raises(ValueError):
        build()


def test_spin_projectors_stack_spin_pvms():
    rng = np.random.default_rng(29)
    axes = rng.normal(size=(6, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    stacked = spin_projectors(axes)
    assert stacked.shape == (6, 2, 2, 2)
    for axis, (plus, minus) in zip(axes, stacked):
        pvm = spin_pvm(axis)
        assert pvm.eigenvalues() == (1.0, -1.0)
        assert np.array_equal(pvm.branches[0][1], plus)
        assert np.array_equal(pvm.branches[1][1], minus)


def test_embed_pvm_lifts_projectors():
    lifted = embed_pvm(Z, 0, 2)
    assert np.allclose(lifted.branches[0][1], np.diag([1, 1, 0, 0]), atol=1e-15)
    lifted_site1 = embed_pvm(Z, 1, 2)
    assert np.allclose(lifted_site1.branches[0][1], np.diag([1, 0, 1, 0]), atol=1e-15)
    with pytest.raises(ValueError):
        embed_pvm(Z, 2, 2)
    with pytest.raises(ValueError, match="spin-1/2"):
        embed_pvm(Pvm(((1.0, np.eye(3)),)), 0, 2)
