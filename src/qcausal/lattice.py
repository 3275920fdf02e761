"""Free massive scalar field on a periodic 1+1D lattice.

The Heisenberg-picture field operators at lattice points have a c-number
commutator

    [phi(x, t), phi(x', t')] = i D(x - x', t - t'),
    D(dx, dt) = (1/N) sum_n sin(k_n dx - w_n dt) / w_n,

with k_n = 2 pi n / N and w_n = sqrt(m^2 + 4 sin^2(pi n / N)). D vanishes
identically at equal time, is exactly antisymmetric, and is confined to a
near-light-cone region whose edge this module extracts. Lattice spacing and
signal speed are 1; mass must be positive so every mode frequency is finite.

Since k_n dx = 2 pi n dx / N, the mode sum is an inverse discrete Fourier
transform over modes:

    D(., dt) = Im(ifft(exp(-i w dt) / w)),

so whole rows of D come from one batched FFT (Cooley & Tukey, Math. Comp.
19 (1965) 297) in O(N log N) each. `commutator_table` is the one place that
runs it; the cone profile and the commutation graph read its rows.
`pauli_jordan` keeps the direct sum as the slow point definition.

D is even in dx, D(-dx, dt) = D(dx, dt), because w_n = w_{N-n}. The FFT
rows are even only to rounding, so the table keeps their even part,
(D(dx) + D(-dx)) / 2. Addition commutes in IEEE arithmetic, so that is
exactly even, and a column dx > N/2 is bit for bit column N - dx. The
equal-time and antisymmetry residues stay the FFT's own, not zeros by
construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .topology import CommutationGraph

ANTISYM_TOL = 1e-12


@dataclass(frozen=True)
class LatticeSpec:
    sites: int
    mass: float
    time_steps: int
    time_step: float = 1.0

    def __post_init__(self):
        if self.sites < 8:
            raise ValueError("need at least 8 sites")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValueError("mass must be positive (zero mode otherwise) and finite")
        if self.time_steps < 2:
            raise ValueError("need at least 2 time steps")
        if not (self.time_step > 0 and math.isfinite(self.time_step)):
            raise ValueError("time step must be positive and finite")


@lru_cache(maxsize=32)
def _mode_tables(sites: int, mass: float):
    n = np.arange(sites)
    momenta = 2.0 * np.pi * n / sites
    omegas = np.sqrt(mass * mass + 4.0 * np.sin(np.pi * n / sites) ** 2)
    momenta.setflags(write=False)
    omegas.setflags(write=False)
    return momenta, omegas


def pauli_jordan(spec: LatticeSpec, dx: int, dt: float) -> float:
    """Commutator amplitude D(dx, dt); the operator commutator is i*D.

    dx is a separation mod N, reduced before evaluation so spatial
    periodicity holds exactly.
    """
    momenta, omegas = _mode_tables(spec.sites, spec.mass)
    return float(np.sum(np.sin(momenta * (dx % spec.sites) - omegas * dt) / omegas) / spec.sites)


def canonical_check(spec: LatticeSpec, dx: int) -> float:
    """-dD/d(dt) at dt=0, i.e. (1/N) sum_n cos(k_n dx).

    Equals the equal-time field-momentum commutator: 1 at dx = 0 mod N,
    0 elsewhere.
    """
    momenta, _ = _mode_tables(spec.sites, spec.mass)
    return float(np.sum(np.cos(momenta * (dx % spec.sites))) / spec.sites)


def _steps(spec: LatticeSpec) -> np.ndarray:
    """Integer time steps -(T-1) .. T-1 of every separation in the window."""
    return np.arange(-(spec.time_steps - 1), spec.time_steps)


def _mirrored(rows: np.ndarray) -> np.ndarray:
    """Each row at -dx mod N: reversing the columns maps dx to N - 1 - dx,
    and rolling one column brings that to -dx mod N."""
    return np.roll(rows[:, ::-1], 1, axis=1)


@dataclass(frozen=True, eq=False)
class CommutatorField:
    """D on the (2T-1, N) grid: row j + T - 1 is dt = j * h, column dx mod N."""

    spec: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        # written `not x <= tol` so that a NaN residue fails
        if not self.equal_time_max() <= ANTISYM_TOL:
            raise ValueError("D must vanish at equal time")
        if not self.antisymmetry_max() <= ANTISYM_TOL:
            raise ValueError("antisymmetry D(-dx, -dt) = -D(dx, dt) broken")
        if not np.array_equal(self.values, _mirrored(self.values)):
            raise ValueError("parity D(-dx, dt) = D(dx, dt) broken")

    def equal_time_max(self) -> float:
        return float(np.abs(self.values[self.spec.time_steps - 1]).max())

    def antisymmetry_max(self) -> float:
        """max |D(dx, dt) + D(-dx, -dt)|.

        Reversing the rows maps step j to -j, and `_mirrored` maps dx to
        -dx mod N.
        """
        return float(np.abs(self.values + _mirrored(self.values[::-1])).max())

    def dts(self) -> list:
        """Time separations of the rows, ascending."""
        return (_steps(self.spec) * self.spec.time_step).tolist()

    def value(self, dx: int, step: int) -> float:
        return float(self.values[step + self.spec.time_steps - 1, dx % self.spec.sites])


def commutator_table(spec: LatticeSpec) -> CommutatorField:
    """D on all separations reachable inside the time window, one FFT row per
    step, kept as its exactly even part in dx."""
    _, omegas = _mode_tables(spec.sites, spec.mass)
    dts = _steps(spec) * spec.time_step
    rows = np.fft.ifft(np.exp(-1j * omegas * dts[:, None]) / omegas, axis=1).imag
    return CommutatorField(spec, 0.5 * (rows + _mirrored(rows)))


def commutation_graph(spec: LatticeSpec, eps: float) -> CommutationGraph:
    """Spacetime points as vertices; an edge means the operators commute.

    Vertices are (x, t) for x in 0..N-1, t in 0..T-1; edge present iff
    |D(x - x', (t - t') * h)| < eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    sites, steps = spec.sites, spec.time_steps
    commute = np.abs(commutator_table(spec).values) < eps

    labels = tuple(f"x{x}t{t}" for t in range(steps) for x in range(sites))
    xs = np.tile(np.arange(sites), steps)
    ts = np.repeat(np.arange(steps), sites)
    dx = (xs[:, None] - xs[None, :]) % sites
    dj = ts[:, None] - ts[None, :] + steps - 1
    adjacency = commute[dj, dx]
    np.fill_diagonal(adjacency, True)

    interior = ~np.eye(len(labels), dtype=bool)
    if adjacency[interior].all():
        warnings.warn(f"commutation graph is complete at eps={eps}", stacklevel=2)
    elif not adjacency[interior].any():
        warnings.warn(f"commutation graph is empty at eps={eps}", stacklevel=2)
    return CommutationGraph(labels, adjacency)


@dataclass(frozen=True)
class ConeProfile:
    """Cone edge: per time separation, the farthest non-commuting site."""

    per_time_extent: tuple
    fitted_speed: float
    eps: float

    def __post_init__(self):
        if any(extent < 0 for _, extent in self.per_time_extent):
            raise ValueError("extents must be non-negative")
        if not self.fitted_speed >= 0:
            raise ValueError("fitted speed must be non-negative")

    def extents(self) -> np.ndarray:
        return np.array([extent for _, extent in self.per_time_extent])

    def broadening(self) -> int:
        """Largest overshoot of the extent past the unit-speed cone."""
        return max(0, max(int(e) - int(round(dt)) for dt, e in self.per_time_extent))


def cone_profile(table: CommutatorField, eps: float) -> ConeProfile:
    """Extents for integer time separations 1 .. (T-1)//2, read from the
    table's rows T .. T-1+(T-1)//2, and the least-squares front speed.

    Extents that do not grow give speed 0.0: a cone narrower than one site
    (no |D| >= eps past dx = 0, all extents 0) or one already wrapped round
    a small ring. The slope's sign comes from exact integer sums, so such a
    fit is not a rounding residue such as -4.9e-16."""
    spec = table.spec
    if spec.time_steps < 8:
        raise ValueError("cone profile needs at least 8 time steps")
    if eps <= 0:
        raise ValueError("eps must be positive")
    half = spec.sites // 2
    steps = np.arange(1, (spec.time_steps + 1) // 2)
    hits = np.abs(table.values[steps + spec.time_steps - 1, : half + 1]) >= eps
    # the last dx with |D| >= eps in each row, 0 where there is none
    extents = np.where(hits.any(axis=1), half - np.argmax(hits[:, ::-1], axis=1), 0)
    dts = steps * spec.time_step
    rise = len(steps) * int(steps @ extents) - int(steps.sum()) * int(extents.sum())
    speed = float(np.polyfit(dts, extents.astype(float), 1)[0]) if rise else 0.0
    return ConeProfile(tuple(zip(dts.tolist(), extents.tolist())), speed, eps)
