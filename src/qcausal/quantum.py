"""Finite-dimensional state-vector engine.

States are unit vectors, observables are projector-valued measures
(lists of (eigenvalue, projector) pairs with orthogonal projectors
summing to the identity), measurement follows the Born rule

    prob(i) = <psi| P_i |psi> = ||P_i psi||^2

and a registered outcome replaces the state by the renormalized
projection P_i|psi> / ||P_i psi||. A branch is its index i in `Pvm.branches`
throughout (`measure_probabilities`, `collapse`, `born_index`); the labels
are `Pvm.eigenvalues()`. Everything is immutable and pure; all spaces are
finite-dimensional, and registers are of spin-1/2 sites.

There is no unitary evolution here: an experiment that rotates its state
before a measurement rotates the measured axis instead (the Heisenberg
picture), and `spin_projectors` stacks the projectors of many axes so that
one Born-rule contraction covers them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12    # unit-norm and degenerate-branch tolerance
STRUCT_TOL = 1e-10  # projector structure tolerance

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit vector of complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"expected a 1-d amplitude vector, got shape {amps.shape}")
        amps.setflags(write=False)
        if amps.size < 1:
            raise ValueError("state must have dimension >= 1")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector norm {norm} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, values) -> "StateVector":
        """Scale an arbitrary nonzero finite vector to unit norm."""
        arr = np.asarray(values, dtype=complex)
        norm = np.linalg.norm(arr)
        if not 0 < norm < np.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm}")
        return cls(arr / norm)


@dataclass(frozen=True, eq=False)
class Pvm:
    """Projective observable: (eigenvalue, projector) branches.

    Projectors must be Hermitian, idempotent, mutually orthogonal and
    complete; eigenvalues must be pairwise distinct.
    """

    branches: tuple

    def __post_init__(self):
        branches = []
        for value, proj in self.branches:
            proj = np.array(proj, dtype=complex)
            if proj.ndim != 2 or proj.shape[0] != proj.shape[1]:
                raise ValueError(f"expected a square matrix, got shape {proj.shape}")
            proj.setflags(write=False)
            branches.append((float(value), proj))
        if not branches:
            raise ValueError("observable needs at least one branch")
        dim = branches[0][1].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for value, proj in branches:
            if proj.shape[0] != dim:
                raise ValueError("all projectors must share one dimension")
            if not np.max(np.abs(proj - proj.conj().T)) <= STRUCT_TOL:
                raise ValueError(f"projector for eigenvalue {value} is not Hermitian")
            if not np.max(np.abs(proj @ proj - proj)) <= STRUCT_TOL:
                raise ValueError(f"projector for eigenvalue {value} is not idempotent")
            total += proj
        for i, (_, pi) in enumerate(branches):
            for _, pj in branches[i + 1 :]:
                if not np.max(np.abs(pi @ pj)) <= STRUCT_TOL:
                    raise ValueError("projectors of distinct branches must be orthogonal")
        if not np.max(np.abs(total - np.eye(dim))) <= STRUCT_TOL:
            raise ValueError("projectors must sum to the identity")
        values = [value for value, _ in branches]
        if len(set(values)) != len(values):
            raise ValueError("eigenvalues must be pairwise distinct")
        object.__setattr__(self, "branches", tuple(branches))

    @property
    def dimension(self) -> int:
        return self.branches[0][1].shape[0]

    def eigenvalues(self) -> tuple:
        return tuple(value for value, _ in self.branches)


def _check_dims(obs: Pvm, psi: StateVector) -> None:
    if obs.dimension != psi.dimension:
        raise ValueError(
            f"observable dimension {obs.dimension} does not match state dimension {psi.dimension}"
        )


def measure_probabilities(obs: Pvm, psi: StateVector) -> np.ndarray:
    """Read-only Born probabilities: entry i is <psi|P_i|psi> for obs.branches[i]."""
    _check_dims(obs, psi)
    probs = np.array([np.vdot(psi.amplitudes, proj @ psi.amplitudes).real
                      for _, proj in obs.branches])
    if np.any(probs < -NORM_TOL):
        raise ValueError("negative branch probability")
    if not abs(probs.sum() - 1.0) <= STRUCT_TOL:
        raise ValueError(f"branch probabilities sum to {probs.sum()}, not 1")
    probs.setflags(write=False)
    return probs


def collapse(obs: Pvm, branch_index: int, psi: StateVector) -> StateVector:
    """Renormalized projection onto the given branch."""
    _check_dims(obs, psi)
    _, proj = obs.branches[branch_index]
    projected = proj @ psi.amplitudes
    prob = float(np.real(np.vdot(projected, projected)))
    if prob <= NORM_TOL:
        raise ValueError(
            f"branch {branch_index} has probability {prob}; collapse onto an impossible outcome"
        )
    return StateVector(projected / np.sqrt(prob))


def born_cumulative(obs: Pvm, psi: StateVector) -> np.ndarray:
    """Running sum of the Born probabilities, each clipped at 0 first."""
    return np.cumsum(np.clip(measure_probabilities(obs, psi), 0.0, None))


def born_index(cumulative: np.ndarray, draws):
    """Branch index for uniform draws in [0, 1): the first branch whose running
    sum exceeds the draw, clamped to the last branch when rounding leaves the
    total just below 1. Works on one draw or an array of them.
    """
    return np.minimum(np.searchsorted(cumulative, draws, side="right"), cumulative.size - 1)


def spin_projectors(axes) -> np.ndarray:
    """Projectors (I +- n.sigma)/2 for A unit 3-vectors as an (A, 2, 2, 2) array
    indexed [axis, branch, row, col]; branch 0/1 is outcome +1/-1."""
    n = np.asarray(axes, dtype=float)
    if n.ndim != 2 or n.shape[1] != 3:
        raise ValueError("axis must be a 3-vector")
    off = np.abs(np.linalg.norm(n, axis=1) - 1.0)
    if not np.all(off <= STRUCT_TOL):
        raise ValueError(f"axis must be unit length; |axis| differs from 1 by {off.max()}")
    x, y, z = (n[:, k, None, None] for k in range(3))
    n_sigma = x * PAULI_X + y * PAULI_Y + z * PAULI_Z
    return np.stack([(np.eye(2) + n_sigma) / 2, (np.eye(2) - n_sigma) / 2], axis=1)


def spin_pvm(axis) -> Pvm:
    """Spin observable along a unit 3-vector, from `spin_projectors`."""
    plus, minus = spin_projectors([axis])[0]
    return Pvm(((+1.0, plus), (-1.0, minus)))


def embed_pvm(obs: Pvm, site: int, n_sites: int) -> Pvm:
    """Lift a spin-1/2 observable to site `site` of an n-site register."""
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} outside register of {n_sites} sites")
    if obs.dimension != 2:
        raise ValueError(f"observable dimension {obs.dimension}, but a spin-1/2 site has 2")
    before = np.eye(2**site, dtype=complex)
    after = np.eye(2 ** (n_sites - site - 1), dtype=complex)
    branches = tuple(
        (value, np.kron(np.kron(before, proj), after)) for value, proj in obs.branches
    )
    return Pvm(branches)
