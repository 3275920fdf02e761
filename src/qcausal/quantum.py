"""State-vector engine for registers of spin-1/2 sites.

States are unit vectors of 2^n amplitudes, site 0 being the leading tensor
factor. A spin measurement at one site along a unit 3-vector n has the
projectors P_0, P_1 = (I +- n.sigma)/2 for the outcomes +1, -1. It follows
the Born rule

    prob(i) = ||P_i psi||^2

and a registered outcome replaces the state by the renormalized
projection P_i|psi> / ||P_i psi||. A branch is its index i throughout
(`measure_probabilities`, `collapse`, `born_index`). P_i acts on its own
site's axis of the amplitudes, so no operator on the whole register is
built. Everything is immutable and pure.

There is no unitary evolution here: an experiment that rotates its state
before a measurement rotates the measured axis instead (the Heisenberg
picture), and `spin_projectors` stacks the projectors of many axes so that
one Born-rule contraction covers them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12    # unit-norm and degenerate-branch tolerance
STRUCT_TOL = 1e-10  # unit-axis and probability-sum tolerance

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


def site_count(psi: StateVector) -> int:
    """Number of spin-1/2 sites in the register that psi lives on."""
    n = psi.dimension.bit_length() - 1
    if 2**n != psi.dimension:
        raise ValueError(f"dimension {psi.dimension} is not a register of spin-1/2 sites")
    return n


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


def _projections(psi: StateVector, site: int, axis):
    """P_0 psi, P_1 psi for the spin along `axis` at `site`, as the rows of a
    (2, dimension) array, and their squared norms. P_i acts on the middle axis
    of the amplitudes reshaped to (2^site, 2, rest)."""
    n = site_count(psi)
    if not 0 <= site < n:
        raise ValueError(f"site {site} outside register of {n} sites")
    amps = psi.amplitudes.reshape(2**site, 2, -1)
    projected = (spin_projectors([axis])[0][:, None] @ amps).reshape(2, -1)
    return projected, np.array([np.vdot(v, v).real for v in projected])


def measure_probabilities(psi: StateVector, site: int, axis) -> np.ndarray:
    """Read-only Born probabilities [P(+1), P(-1)] of the spin along `axis` at `site`."""
    _, probs = _projections(psi, site, axis)
    if not abs(probs.sum() - 1.0) <= STRUCT_TOL:
        raise ValueError(f"branch probabilities sum to {probs.sum()}, not 1")
    probs.setflags(write=False)
    return probs


def collapse(psi: StateVector, site: int, axis, branch: int) -> StateVector:
    """Renormalized projection onto outcome `branch` (0/1 for +1/-1) of the
    spin along `axis` at `site`."""
    if branch not in (0, 1):
        raise ValueError(f"branch must be 0 (+1) or 1 (-1), got {branch}")
    projected, probs = _projections(psi, site, axis)
    prob = float(probs[branch])
    if prob <= NORM_TOL:
        raise ValueError(
            f"branch {branch} has probability {prob}; collapse onto an impossible outcome"
        )
    return StateVector(projected[branch] / np.sqrt(prob))


def born_index(cumulative: np.ndarray, draws):
    """Branch index for uniform draws in [0, 1): the first branch whose running
    sum exceeds the draw, clamped to the last branch when rounding leaves the
    total just below 1. Works on one draw or an array of them.
    """
    return np.minimum(np.searchsorted(cumulative, draws, side="right"), cumulative.size - 1)
