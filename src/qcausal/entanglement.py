"""Entangled-pair experiments at desk scale.

Builds the maximally correlated two-spin state, evaluates spin-spin
correlations and CHSH sums, enumerates deterministic local-hidden-variable
strategies exhaustively, simulates sequential measurement of both wings,
and runs a minimal two-qubit which-path / erasure model (Scully & Druehl,
Phys. Rev. A 25 (1982) 2208).

Every joint spin table, the CHSH terms and the eraser curve's phases
included, comes from one Born-rule contraction, `joint_spin_tables`; only
`epr_consistency` samples outcomes and collapses the state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quantum import (
    StateVector,
    born_cumulative,
    born_index,
    collapse,
    embed_pvm,
    spin_projectors,
    spin_pvm,
)

SAMPLE_CHUNK = 1 << 16  # trials per batch of draws in epr_consistency


def xz_axis(angle_rad: float) -> np.ndarray:
    """Unit vector in the x-z plane, angle measured from +z."""
    return np.array([math.sin(angle_rad), 0.0, math.cos(angle_rad)])


@dataclass(frozen=True)
class CorrelationSetting:
    axis_a: np.ndarray
    axis_b: np.ndarray

    def __post_init__(self):
        spin_projectors([self.axis_a, self.axis_b])  # both must be unit 3-vectors
        object.__setattr__(self, "axis_a", np.asarray(self.axis_a, dtype=float))
        object.__setattr__(self, "axis_b", np.asarray(self.axis_b, dtype=float))


@dataclass(frozen=True)
class LhvStrategy:
    """Deterministic pre-assignment: (side, setting) -> outcome in {+1, -1}."""

    responses: dict

    def __post_init__(self):
        expected = {(side, setting) for side in "AB" for setting in (0, 1)}
        if set(self.responses) != expected:
            raise ValueError("strategy must assign all four (side, setting) pairs")
        if any(v not in (+1, -1) for v in self.responses.values()):
            raise ValueError("outcomes must be +1 or -1")


@dataclass(frozen=True)
class EraserConfig:
    marking: bool
    erasure: bool
    phase_samples: int = 16

    def __post_init__(self):
        if self.phase_samples < 8:
            raise ValueError("phase_samples must be >= 8")


def bell_phi_plus() -> StateVector:
    """(1/sqrt2)(|uu> + |dd>) in basis order uu, ud, du, dd."""
    amp = 1.0 / math.sqrt(2.0)
    return StateVector(np.array([amp, 0.0, 0.0, amp], dtype=complex))


def ghz(n: int) -> StateVector:
    """(1/sqrt2)(|u...u> + |d...d>) on n spins."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(amps)


def site_count(psi: StateVector) -> int:
    n = psi.dimension.bit_length() - 1
    if 2**n != psi.dimension:
        raise ValueError(f"dimension {psi.dimension} is not a register of spin-1/2 sites")
    return n


def joint_spin_tables(
    psi: StateVector, axes_a, axes_b, site_a: int = 0, site_b: int = 1
) -> np.ndarray:
    """(A, B, 2, 2) table: [x, y, i, j] is the probability of outcome i
    (0/1 for +1/-1) at site_a along axes_a[x] and j at site_b along axes_b[y].

    With the two sites moved to the front of psi, one Born-rule sum covers
    every pair: sum conj(psi[a,b,r]) P_a[x,i,a,c] P_b[y,j,b,d] psi[c,d,r].
    """
    n = site_count(psi)
    if site_a == site_b or not (0 <= site_a < n and 0 <= site_b < n):
        raise ValueError(f"invalid sites ({site_a}, {site_b}) for {n}-site state")
    amps = psi.amplitudes.reshape((2,) * n)
    amps = np.moveaxis(amps, (site_a, site_b), (0, 1)).reshape(2, 2, -1)
    projectors = spin_projectors(axes_a), spin_projectors(axes_b)
    return np.einsum("abr,xiac,yjbd,cdr->xyij", amps.conj(), *projectors, amps).real


def joint_spin_probabilities(
    psi: StateVector, axis_a, axis_b, site_a: int = 0, site_b: int = 1
) -> np.ndarray:
    """2x2 table of joint outcome probabilities.

    Row index 0/1 is outcome +1/-1 at site_a, column likewise at site_b.
    """
    return joint_spin_tables(psi, [axis_a], [axis_b], site_a, site_b)[0, 0]


def _correlations(psi: StateVector, axes_a, axes_b, site_a: int = 0, site_b: int = 1):
    """(A, B) correlations E = sum_ab a*b*prob(a, b), from one table call."""
    signs = np.array([+1.0, -1.0])
    return joint_spin_tables(psi, axes_a, axes_b, site_a, site_b) @ signs @ signs


def correlation(
    psi: StateVector, setting: CorrelationSetting, site_a: int = 0, site_b: int = 1
) -> float:
    """E = sum_ab a*b*prob(a, b) over the joint spin measurement."""
    return float(_correlations(psi, [setting.axis_a], [setting.axis_b], site_a, site_b)[0, 0])


def chsh(psi: StateVector, a0, a1, b0, b1, signs=(1, 1, 1, -1)) -> float:
    """Four-setting correlation sum.

    Default sign convention is S = E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1);
    any of the equivalent conventions can be selected via `signs` (applied to
    E(a0,b0), E(a0,b1), E(a1,b0), E(a1,b1) in that order).
    """
    if site_count(psi) != 2:
        raise ValueError("CHSH needs a two-site state")
    terms = _correlations(psi, (a0, a1), (b0, b1))
    return float(sum(s * t for s, t in zip(signs, terms.flat)))


@dataclass(frozen=True)
class ChshSettings:
    a0_deg: float
    a1_deg: float
    b0_deg: float
    b1_deg: float

    def axes(self):
        return tuple(
            xz_axis(math.radians(t)) for t in (self.a0_deg, self.a1_deg, self.b0_deg, self.b1_deg)
        )


def maximize_chsh(psi: StateVector, grid_step_degrees: float):
    """Best CHSH sum over x-z-plane axes on a regular angle grid.

    For fixed detector-A angles the two b-terms separate, so the search is
    O(G^3) instead of O(G^4). Refining the grid only enlarges the candidate
    set, so the optimum never decreases.
    """
    if not 0 < grid_step_degrees <= 5:
        raise ValueError("grid step must be positive and at most 5 degrees")
    if site_count(psi) != 2:
        raise ValueError("CHSH search needs a two-site state")
    angles = np.arange(0.0, 360.0, grid_step_degrees)
    rad = np.radians(angles)
    basis = np.stack([np.sin(rad), np.cos(rad)])
    xz = (xz_axis(math.pi / 2), xz_axis(0.0))
    table = basis.T @ _correlations(psi, xz, xz) @ basis  # E(alpha_i, beta_j)

    best = -math.inf
    best_idx = None
    for i0 in range(angles.size):
        sums = table[i0][None, :] + table  # [a1, b] -> E(a0,b) + E(a1,b)
        diffs = table[i0][None, :] - table  # [a1, b] -> E(a0,b) - E(a1,b)
        b0_best = sums.max(axis=1)
        b1_best = diffs.max(axis=1)
        totals = b0_best + b1_best
        i1 = int(np.argmax(totals))
        if totals[i1] > best:
            best = float(totals[i1])
            best_idx = (i0, i1, int(np.argmax(sums[i1])), int(np.argmax(diffs[i1])))
    settings = ChshSettings(*(float(angles[i]) for i in best_idx))
    return settings, best


def lhv_chsh_value(strategy: LhvStrategy) -> int:
    r = strategy.responses
    return (
        r[("A", 0)] * r[("B", 0)]
        + r[("A", 0)] * r[("B", 1)]
        + r[("A", 1)] * r[("B", 0)]
        - r[("A", 1)] * r[("B", 1)]
    )


def enumerate_lhv_strategies():
    """All 16 deterministic strategies with their CHSH values."""
    out = []
    for ra0, ra1, rb0, rb1 in itertools.product((+1, -1), repeat=4):
        strategy = LhvStrategy({("A", 0): ra0, ("A", 1): ra1, ("B", 0): rb0, ("B", 1): rb1})
        out.append((strategy, lhv_chsh_value(strategy)))
    return out


def lhv_max_chsh() -> float:
    # Shared randomness only mixes deterministic strategies, so the maximum
    # over all local hidden variable models is attained at one of these 16
    # vertices (convexity).
    return float(max(value for _, value in enumerate_lhv_strategies()))


def _collapse_allowed(obs, psi: StateVector) -> list:
    """Per branch: does `collapse` accept it (probability above NORM_TOL)?"""
    allowed = []
    for index in range(len(obs.branches)):
        try:
            collapse(obs, index, psi)
        except ValueError:
            allowed.append(False)
        else:
            allowed.append(True)
    return allowed


def epr_consistency(axis, trials: int, seed: int, axis_b=None) -> float:
    """Fraction of agreeing outcome pairs under sequential measurement.

    Measures site 0 of the correlated pair, collapses, then measures site 1;
    `axis_b` defaults to the same axis on both wings. Each trial draws one
    uniform number for A and then one for B from a single seeded stream.

    A's outcome leaves one of two collapsed states, so A's Born cumulative
    and B's cumulative for each collapsed state are computed once. The draws
    come in batches of at most 2 * SAMPLE_CHUNK numbers, A's at the even
    positions and B's at the odd ones, which is the order of the per-trial
    loop. The result therefore equals the per-trial definition bit for bit,
    including the ValueError for a drawn branch that `collapse` rejects.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pvm_a = embed_pvm(spin_pvm(axis), 0, 2)
    pvm_b = embed_pvm(spin_pvm(axis if axis_b is None else axis_b), 1, 2)
    psi = bell_phi_plus()
    cum_a = born_cumulative(pvm_a, psi)
    # A's marginal on the pair is 1/2 per branch, so both collapses exist.
    after_a = [collapse(pvm_a, index, psi) for index in range(cum_a.size)]
    cum_b = [born_cumulative(pvm_b, state) for state in after_a]
    allowed_b = np.array([_collapse_allowed(pvm_b, state) for state in after_a])

    rng = np.random.default_rng(seed)
    agreements = 0
    for start in range(0, trials, SAMPLE_CHUNK):
        draws = rng.random(2 * min(SAMPLE_CHUNK, trials - start))
        idx_a = born_index(cum_a, draws[0::2])
        draws_b = draws[1::2]
        idx_b = np.empty_like(idx_a)
        for branch, cum in enumerate(cum_b):
            rows = idx_a == branch
            idx_b[rows] = born_index(cum, draws_b[rows])
        rejected = ~allowed_b[idx_a, idx_b]
        if rejected.any():
            k = int(np.argmax(rejected))
            # Replay the first rejected trial to raise collapse's own error.
            collapse(pvm_b, int(idx_b[k]), after_a[idx_a[k]])
        agreements += int(np.count_nonzero(idx_a == idx_b))
    return agreements / trials


def eraser_curve(cfg: EraserConfig):
    """Detection probability of the path interference port per phase.

    Path qubit (site 0) starts in (|0> + e^{i phi}|1>)/sqrt2; marking copies
    the path onto a marker qubit (site 1) with a CNOT; erasure measures the
    marker along x and keeps the + runs (Lueders rule). The port detects path
    +x. Returns (phases, probabilities).

    The path state is R_z(phi)|+x> with R_z(phi) = diag(1, e^{i phi}), and
    R_z(phi)^dag sigma_x R_z(phi) = n(phi).sigma with n(phi) = (cos phi,
    -sin phi, 0). The CNOT's control is the path, so it commutes with
    R_z(phi), and detecting +x at phase phi is detecting +n(phi) on the
    phi = 0 state: CNOT|+x>|0> = `bell_phi_plus()` when marked, amplitudes
    [1, 0, 1, 0]/sqrt2 when not. So one `joint_spin_tables` call gives every
    phase: with T = joint_spin_tables(psi_0, [n(phi_k)], [x])[:, 0],
    P_k = T[k,0,0] + T[k,0,1] without erasure and
    P_k = T[k,0,0] / (T[k,0,0] + T[k,1,0]) with it.
    """
    if cfg.erasure and not cfg.marking:
        raise ValueError("nothing to erase: erasure requires marking")
    phases = 2.0 * math.pi * np.arange(cfg.phase_samples) / cfg.phase_samples
    if cfg.marking:
        psi = bell_phi_plus()
    else:
        psi = StateVector(np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0))
    ports = np.stack([np.cos(phases), -np.sin(phases), np.zeros_like(phases)], axis=1)
    table = joint_spin_tables(psi, ports, [(1.0, 0.0, 0.0)])[:, 0]
    if cfg.erasure:
        return phases, table[:, 0, 0] / (table[:, 0, 0] + table[:, 1, 0])
    return phases, table[:, 0, 0] + table[:, 0, 1]


def eraser_visibility(probs) -> float:
    """(max - min)/(max + min) of a detection curve's probabilities."""
    hi, lo = float(probs.max()), float(probs.min())
    return (hi - lo) / (hi + lo)
