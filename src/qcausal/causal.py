"""Causal orderings of measurement events.

Events carry Minkowski coordinates (units c = 1). The classical order puts
e before f when f lies in e's closed future light cone (lightlike boundary
included). Measurements of one entanglement group are additionally linked
pairwise by directed enforcement edges; nothing fixes the direction between
spacelike measurements, so it comes from an explicit orientation and
conclusions are quantified over all acyclic orientations. The quantum
order is the transitive closure of classical plus enforcement edges; an
orientation whose closure contains a cycle is inadmissible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .topology import ResourceLimitError

MAX_FREE_PAIRS = 20


class CycleError(ValueError):
    """Orientation forces mutually preceding events."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        loop = " -> ".join(self.cycle + (self.cycle[0],))
        super().__init__(f"enforcement orientation induces a causal cycle: {loop}")


@dataclass(frozen=True)
class Event:
    id: str
    t: float
    x: tuple
    group: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", tuple(float(c) for c in self.x))


def interval(a: Event, b: Event) -> float:
    """(t_b - t_a)^2 - |x_b - x_a|^2."""
    dt = b.t - a.t
    return dt * dt - sum((p - q) ** 2 for p, q in zip(b.x, a.x))


def _check_events(events):
    events = tuple(events)
    if not events:
        raise ValueError("need at least one event")
    ids = [e.id for e in events]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate event ids")
    dims = {len(e.x) for e in events}
    if len(dims) != 1:
        raise ValueError("all events must share one spatial dimension")
    return events


@dataclass(frozen=True, eq=False)
class CausalOrder:
    """Strict partial order over event ids as a reachability matrix."""

    ids: tuple
    relation: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        rel = np.array(self.relation, dtype=bool)
        n = len(ids)
        if rel.shape != (n, n):
            raise ValueError("relation shape does not match id count")
        if np.diag(rel).any():
            raise ValueError("order must be irreflexive")
        if (rel & rel.T).any():
            raise ValueError("order must be antisymmetric")
        closure = rel.copy()
        for k in range(n):
            closure |= np.outer(closure[:, k], closure[k, :])
        if not np.array_equal(closure, rel):
            raise ValueError("order must be transitive")
        rel.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "relation", rel)

    def _index(self, event_id: str) -> int:
        try:
            return self.ids.index(event_id)
        except ValueError:
            raise KeyError(f"unknown event id {event_id!r}") from None

    def before(self, a: str, b: str) -> bool:
        return bool(self.relation[self._index(a), self._index(b)])

    def comparable(self, a: str, b: str) -> bool:
        return self.before(a, b) or self.before(b, a)

    def pairs(self):
        return tuple(
            (self.ids[i], self.ids[j])
            for i in range(len(self.ids))
            for j in range(len(self.ids))
            if self.relation[i, j]
        )

    def contains(self, other: "CausalOrder") -> bool:
        if self.ids != other.ids:
            raise ValueError("orders are over different event sets")
        return bool((self.relation | other.relation == self.relation).all())

    def to_adjacency_dict(self) -> dict:
        order = np.argsort(np.array(self.ids))
        return {
            self.ids[i]: sorted(self.ids[j] for j in range(len(self.ids)) if self.relation[i, j])
            for i in order
        }

    def hasse_edges(self):
        """Covering pairs: a before b with nothing strictly between."""
        n = len(self.ids)
        edges = []
        for i in range(n):
            for j in range(n):
                if not self.relation[i, j]:
                    continue
                if not any(self.relation[i, k] and self.relation[k, j] for k in range(n)):
                    edges.append((self.ids[i], self.ids[j]))
        return sorted(edges)


def classical_order(events) -> CausalOrder:
    """e before f iff t_f > t_e and the interval is causal (>= 0)."""
    events = _check_events(events)
    n = len(events)
    rel = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(events):
        for j, b in enumerate(events):
            rel[i, j] = b.t > a.t and interval(a, b) >= 0
    return CausalOrder(tuple(e.id for e in events), rel)


def boost(events, beta: float):
    """1+1D boost along the first spatial axis (|beta| < 1)."""
    if not abs(beta) < 1:
        raise ValueError("boost velocity must satisfy |beta| < 1")
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    out = []
    for e in events:
        t = gamma * (e.t - beta * e.x[0])
        x0 = gamma * (e.x[0] - beta * e.t)
        out.append(Event(e.id, t, (x0,) + e.x[1:], e.group))
    return tuple(out)


@dataclass(frozen=True)
class Orientation:
    """Direction choices for same-group pairs not ordered classically."""

    direction: dict

    def __post_init__(self):
        normalized = {}
        for key, pair in self.direction.items():
            pair = tuple(pair)
            if frozenset(key) != frozenset(pair) or len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError(f"inconsistent orientation entry {key!r} -> {pair!r}")
            normalized[frozenset(pair)] = pair
        object.__setattr__(self, "direction", normalized)

    @classmethod
    def from_pairs(cls, pairs) -> "Orientation":
        return cls({frozenset(p): tuple(p) for p in pairs})


def same_group_pairs(events):
    events = _check_events(events)
    return tuple(
        frozenset((a.id, b.id))
        for a, b in itertools.combinations(events, 2)
        if a.group is not None and a.group == b.group
    )


def free_pairs(events):
    """Same-group pairs left unordered by the classical light cone."""
    classical = classical_order(events)
    return tuple(
        pair
        for pair in same_group_pairs(events)
        if not classical.comparable(*sorted(pair))
    )


def enforcement_edges(events, orientation: Orientation):
    """One directed edge per same-group pair.

    Classically ordered pairs keep the classical direction; spacelike pairs
    take the orientation's. A missing or classically contradicted entry is
    an error.
    """
    classical = classical_order(events)
    edges = []
    for pair in same_group_pairs(events):
        a, b = sorted(pair)
        if classical.before(a, b) or classical.before(b, a):
            forward = (a, b) if classical.before(a, b) else (b, a)
            chosen = orientation.direction.get(pair)
            if chosen is not None and chosen != forward:
                raise ValueError(
                    f"orientation {chosen} contradicts the classical ordering {forward}"
                )
            edges.append(forward)
        else:
            chosen = orientation.direction.get(pair)
            if chosen is None:
                raise ValueError(f"orientation missing for spacelike pair {tuple(sorted(pair))}")
            edges.append(chosen)
    return tuple(edges)


def _witness_cycle(ids, edge_matrix, i, j):
    """Concrete cycle through two mutually reachable vertices."""

    def path(src, dst):
        parents = {src: None}
        queue = [src]
        while queue:
            v = queue.pop(0)
            if v == dst:
                break
            for w in np.nonzero(edge_matrix[v])[0]:
                if int(w) not in parents:
                    parents[int(w)] = v
                    queue.append(int(w))
        out = [dst]
        while parents[out[-1]] is not None:
            out.append(parents[out[-1]])
        return out[::-1]

    loop = path(i, j) + path(j, i)[1:-1]
    return [ids[v] for v in loop]


def quantum_order(events, orientation: Orientation) -> CausalOrder:
    """Transitive closure of the classical order plus enforcement edges.

    Raises CycleError (with a witness cycle) when the orientation is
    inadmissible; otherwise the result contains the classical order.
    """
    events = _check_events(events)
    ids = tuple(e.id for e in events)
    pos = {event_id: k for k, event_id in enumerate(ids)}
    base = classical_order(events).relation.copy()
    for a, b in enforcement_edges(events, orientation):
        base[pos[a], pos[b]] = True
    closure = base.copy()
    for k in range(len(ids)):
        closure |= np.outer(closure[:, k], closure[k, :])
    mutual = closure & closure.T
    if mutual.any():
        off_diagonal = mutual & ~np.eye(len(ids), dtype=bool)
        i, j = map(int, np.argwhere(off_diagonal)[0])
        raise CycleError(_witness_cycle(ids, base, i, j))
    return CausalOrder(ids, closure)


@dataclass(frozen=True, eq=False)
class AdmissibleOrientation:
    index: int
    orientation: Orientation
    order: CausalOrder


@dataclass(frozen=True, eq=False)
class OrientationSummary:
    events: tuple
    classical: CausalOrder
    free_pairs: tuple
    admissible: tuple
    comparability: dict
    orientation_count: int

    @property
    def admissible_count(self) -> int:
        return len(self.admissible)


def summarize(events, indexed_orientations) -> OrientationSummary:
    """Keep the admissible ones among ``(index, Orientation)`` candidates.

    Each admissible orientation keeps its index, which names its artifacts.
    Reports, per event pair, whether the pair is comparable in every
    admissible quantum order, in some, or in none.
    """
    events = _check_events(events)
    admissible = []
    tried = 0
    for index, orientation in indexed_orientations:
        tried += 1
        try:
            order = quantum_order(events, orientation)
        except CycleError:
            continue
        admissible.append(AdmissibleOrientation(index, orientation, order))

    comparability = {}
    if admissible:
        for a, b in itertools.combinations(sorted(e.id for e in events), 2):
            hits = sum(item.order.comparable(a, b) for item in admissible)
            comparability[frozenset((a, b))] = (
                "all" if hits == len(admissible) else "some" if hits else "none"
            )
    free = tuple(sorted(free_pairs(events), key=sorted))
    return OrientationSummary(
        events, classical_order(events), free, tuple(admissible), comparability, tried
    )


def enumerate_admissible_orientations(events) -> OrientationSummary:
    """Try every direction assignment for the free pairs.

    Bit k of a candidate's index reverses the k-th free pair.
    """
    events = _check_events(events)
    free = tuple(sorted(free_pairs(events), key=sorted))
    if len(free) > MAX_FREE_PAIRS:
        raise ResourceLimitError(f"{len(free)} free pairs exceeds {MAX_FREE_PAIRS}")

    def candidates():
        for index in range(2 ** len(free)):
            directed = []
            for bit, pair in enumerate(free):
                a, b = sorted(pair)
                directed.append((b, a) if index >> bit & 1 else (a, b))
            yield index, Orientation.from_pairs(directed)

    return summarize(events, candidates())


@dataclass(frozen=True)
class ExtensionVerdict:
    holds: bool
    witness: tuple | None
    containment_violation: tuple | None


def strict_extension_check(classical: CausalOrder, quantum: CausalOrder) -> ExtensionVerdict:
    """True iff quantum contains classical and orders at least one new pair."""
    if classical.ids != quantum.ids:
        raise ValueError("orders are over different event sets")
    classical_pairs = set(classical.pairs())
    quantum_pairs = set(quantum.pairs())
    missing = sorted(classical_pairs - quantum_pairs)
    if missing:
        return ExtensionVerdict(False, None, missing[0])
    extra = sorted(quantum_pairs - classical_pairs)
    if not extra:
        return ExtensionVerdict(False, None, None)
    return ExtensionVerdict(True, extra[0], None)


def earliest_first_orientations(events):
    """Orient each free pair from the earlier event; ties branch."""
    events = _check_events(events)
    by_id = {e.id: e for e in events}
    fixed = []
    tied = []
    for pair in sorted(free_pairs(events), key=sorted):
        a, b = sorted(pair)
        if by_id[a].t < by_id[b].t:
            fixed.append((a, b))
        elif by_id[b].t < by_id[a].t:
            fixed.append((b, a))
        else:
            tied.append((a, b))
    out = []
    for flips in itertools.product((False, True), repeat=len(tied)):
        directed = list(fixed)
        for (a, b), flip in zip(tied, flips):
            directed.append((b, a) if flip else (a, b))
        out.append(Orientation.from_pairs(directed))
    return tuple(out)


THREE_PARTY_EVENTS = (
    Event("e1", 1.0, (-0.99,), "g"),
    Event("e2", 1.0, (0.99,), "g"),
    Event("e3", 1.5, (1.2,), "g"),
)
