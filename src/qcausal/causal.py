"""Causal orderings of measurement events.

Events carry Minkowski coordinates (units c = 1). The classical order puts
e before f when f lies in e's closed future light cone (lightlike boundary
included). Measurements of one entanglement group are additionally linked
pairwise by directed enforcement edges; nothing fixes the direction between
spacelike measurements (the free pairs), so conclusions are quantified over
all acyclic orientations of them. ``quantum_order`` is the definition: the
transitive closure of classical plus one given edge per free pair; an
orientation whose closure contains a cycle is inadmissible.

``enumerate_admissible_orientations`` searches depth-first over the free
(spacelike same-group) pairs and cuts a branch at the first cycle. That is
exact: an acyclic partial orientation extends to a full one along a
topological order, so every surviving branch reaches an admissible leaf.
One group of n pairwise-spacelike events has n! of them (Stanley, Discrete
Math. 5 (1973) 171). ``orientation_count`` is the number of orientations
the policy allows: 2^free for ``all``, 2^ties for ``earliest-first``.
``extension_masks`` decides the paper's claim for each admissible order: it
holds every classical pair and orders at least one more.

The light cone and the boost each have one definition, an array kernel
over stacks of event sets: ``_light_cone`` maps (..., n, 1+d) coordinates
to (..., n, n) relations and ``_boosted`` maps them to (..., B, n, 1+d)
under B boosts. ``classical_order`` and ``boost`` call them on one set;
criterion 11 of the battery calls them on one stack per set size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .topology import ResourceLimitError

MAX_ADMISSIBLE = 4096
CHECK_BLOCK = 256  # relations per float32 copy in _check_strict_orders


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
    return dt * dt - sum((p - q) * (p - q) for p, q in zip(b.x, a.x))


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


def _check_strict_orders(rel: np.ndarray):
    """Raise ValueError unless every relation on the last two axes of ``rel``
    is a strict partial order, naming the first axiom the first bad one breaks.

    Transitivity is R.R <= R: one float32 matmul per CHECK_BLOCK relations,
    where ``> 0`` is exact because every term is 0 or 1.
    """
    stack = rel[None] if rel.ndim == 2 else rel
    for start in range(0, len(stack), CHECK_BLOCK):
        block = stack[start : start + CHECK_BLOCK]
        square = block.astype(np.float32)
        # the diagonal of R & R^T is R's own, so this also finds reflexive cells
        bad = (block & block.transpose(0, 2, 1)) | ((square @ square > 0) & ~block)
        if bad.any():
            r = block[bad.any(axis=(1, 2)).argmax()]
            if np.diag(r).any():
                raise ValueError("order must be irreflexive")
            if (r & r.T).any():
                raise ValueError("order must be antisymmetric")
            raise ValueError("order must be transitive")


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
        if len(set(ids)) != n:
            raise ValueError("duplicate event ids")
        _check_strict_orders(rel)
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

    def to_adjacency_dict(self) -> dict:
        order = np.argsort(np.array(self.ids))
        return {
            self.ids[i]: sorted(self.ids[j] for j in range(len(self.ids)) if self.relation[i, j])
            for i in order
        }

    def hasse_edges(self):
        """Covering pairs: a before b with nothing strictly between."""
        rel = self.relation.astype(int)
        cover = self.relation & ~(rel @ rel > 0)
        return sorted((self.ids[i], self.ids[j]) for i, j in np.argwhere(cover).tolist())


def _light_cone(coords) -> np.ndarray:
    """The classical relation of each event set in ``coords``, an (..., n, 1+d)
    array with time first, as an (..., n, n) bool array.

    Entry (i, j) repeats ``interval``'s float operations in its order, so
    the relation is bit for bit the per-pair definition's. Coordinates
    whose interval overflows raise ValueError.
    """
    coords = np.asarray(coords, dtype=float)
    try:
        with np.errstate(over="raise", invalid="ignore"):  # NaN compares false, as in Python
            # d[..., i, j, :]: event j minus event i, time first
            d = coords[..., None, :, :] - coords[..., :, None, :]
            dt = d[..., 0]
            spatial = sum(d[..., k] * d[..., k] for k in range(1, coords.shape[-1]))
            rel = dt * dt - spatial >= 0
    except FloatingPointError as err:
        raise ValueError(f"event coordinates too large for the interval ({err})") from None
    rel &= dt > 0
    return rel


def _boosted(coords, betas) -> np.ndarray:
    """Each event set in ``coords`` (..., n, 1+d) boosted by each beta along
    the first spatial axis: (..., B, n, 1+d) with
    t' = gamma (t - beta x0) and x0' = gamma (x0 - beta t).

    Raises ValueError for |beta| >= 1, for events without a spatial axis
    and for boosted coordinates that overflow.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1] < 2:
        raise ValueError("a boost needs a first spatial axis; the events have x = ()")
    gammas = []
    for beta in betas:
        if not abs(beta) < 1:
            raise ValueError("boost velocity must satisfy |beta| < 1")
        gammas.append(1.0 / math.sqrt(1.0 - beta * beta))
    beta = np.array(betas, dtype=float)[:, None]
    gamma = np.array(gammas)[:, None]
    t, x0 = coords[..., None, :, 0], coords[..., None, :, 1]
    out = np.repeat(coords[..., None, :, :], len(gammas), axis=-3)
    try:
        with np.errstate(over="raise", invalid="ignore"):
            out[..., 0] = gamma * (t - beta * x0)
            out[..., 1] = gamma * (x0 - beta * t)
    except FloatingPointError as err:
        raise ValueError(f"boosted event coordinates too large ({err})") from None
    return out


def _coordinates(events) -> np.ndarray:
    return np.array([(e.t, *e.x) for e in events], dtype=float)


def classical_order(events) -> CausalOrder:
    """e before f iff t_f > t_e and the interval is causal (>= 0)."""
    events = _check_events(events)
    return CausalOrder(tuple(e.id for e in events), _light_cone(_coordinates(events)))


def boost(events, beta: float):
    """1+1D boost along the first spatial axis (|beta| < 1)."""
    events = _check_events(events)
    moved = _boosted(_coordinates(events), [beta])[0].tolist()
    return tuple(Event(e.id, t, tuple(x), e.group) for e, (t, *x) in zip(events, moved))


def _free_pairs(events, classical: CausalOrder):
    return tuple(
        frozenset((a.id, b.id))
        for a, b in itertools.combinations(events, 2)
        if a.group is not None and a.group == b.group and not classical.comparable(a.id, b.id)
    )


def free_pairs(events):
    """Same-group pairs left unordered by the classical light cone."""
    events = _check_events(events)
    return _free_pairs(events, classical_order(events))


def quantum_order(events, directed) -> CausalOrder:
    """Transitive closure of the classical order plus the enforcement edges.

    ``directed`` gives every free pair (``free_pairs``) exactly once, as an
    (earlier, later) id pair; a missing, repeated or non-free pair raises
    ValueError, and so does an orientation whose closure has a causal cycle.
    The search in ``enumerate_admissible_orientations`` never calls this
    definition.
    """
    events = _check_events(events)
    classical = classical_order(events)
    free = set(_free_pairs(events, classical))
    pos = {event_id: k for k, event_id in enumerate(classical.ids)}
    closure = classical.relation.copy()
    given = set()
    for a, b in directed:
        pair = frozenset((a, b))
        if pair not in free:
            raise ValueError(f"({a!r}, {b!r}) is not a free pair")
        if pair in given:
            raise ValueError(f"free pair {tuple(sorted(pair))} given twice")
        given.add(pair)
        closure[pos[a], pos[b]] = True
    if given != free:
        missing = min(tuple(sorted(p)) for p in free - given)
        raise ValueError(f"no direction for free pair {missing}")
    for k in range(len(pos)):
        closure |= np.outer(closure[:, k], closure[k, :])
    if np.diag(closure).any():
        on_cycle = [classical.ids[k] for k in np.flatnonzero(np.diag(closure))]
        raise ValueError(f"enforcement edges close a causal cycle through {', '.join(on_cycle)}")
    return CausalOrder(classical.ids, closure)


@dataclass(frozen=True, eq=False)
class OrientationSummary:
    """Admissible order k is ``relations[k]`` (read-only, in ``classical.ids``
    order) with orientation index ``indices[k]``; the indices ascend."""

    classical: CausalOrder
    free_pairs: tuple
    indices: tuple
    relations: np.ndarray
    comparability: dict
    orientation_count: int

    @property
    def admissible_count(self) -> int:
        return len(self.indices)

    def order(self, k: int) -> CausalOrder:
        return CausalOrder(self.classical.ids, self.relations[k])


def enumerate_admissible_orientations(events, policy="all") -> OrientationSummary:
    """Every admissible orientation of the free pairs that the policy allows.

    ``all`` lets each free pair go either way; ``earliest-first`` directs a
    pair from its earlier event and lets only time ties go either way. Bit
    k of the index reverses the k-th sorted free pair that may go either
    way. Results come in index order, with each event pair's comparability
    over them: in every admissible order, in some, or in none.
    """
    if policy not in ("all", "earliest-first"):
        raise ValueError(f"unknown orientation policy {policy!r}")
    events = _check_events(events)
    classical = classical_order(events)
    ids = classical.ids
    pos = {event_id: k for k, event_id in enumerate(ids)}
    t = {e.id: e.t for e in events}
    eye = np.eye(len(ids), dtype=bool)

    def closed_with(reach, u, v):
        u, v = pos[u], pos[v]
        return reach | np.outer(reach[:, u] | eye[u], reach[v] | eye[v])

    # Classical and forced edges run strictly forward in time, so only the
    # branching pairs can close a cycle.
    free = tuple(sorted(_free_pairs(events, classical), key=sorted))
    reach, branching = classical.relation, []
    for pair in free:
        a, b = sorted(pair)
        if policy == "all" or not (t[a] < t[b] or t[b] < t[a]):
            branching.append((a, b))
        else:
            reach = closed_with(reach, *((a, b) if t[a] < t[b] else (b, a)))
    branching.reverse()  # the last branching pair's bit is the most significant
    # Most significant pair first, so the indices come out in order.
    m = len(branching)
    levels = [(a, b, 1 << (m - 1 - i)) for i, (a, b) in enumerate(branching)]
    indices, found = [], []

    def search(level, reach, index):
        if level == m:
            if len(found) == MAX_ADMISSIBLE:
                raise ResourceLimitError(
                    f"more than {MAX_ADMISSIBLE} admissible orientations; "
                    "give `events` fewer spacelike same-group pairs"
                )
            indices.append(index)
            found.append(reach)
            return
        a, b, weight = levels[level]
        for u, v, bit in ((a, b, 0), (b, a, weight)):
            if not reach[pos[v], pos[u]]:  # else u -> v closes a cycle
                search(level + 1, closed_with(reach, u, v), index + bit)

    search(0, reach, 0)
    relations = np.array(found, dtype=bool).reshape(-1, len(ids), len(ids))
    _check_strict_orders(relations)
    relations.setflags(write=False)
    comparability = {}
    if indices:
        hits = (relations | relations.transpose(0, 2, 1)).sum(axis=0)
        for a, b in itertools.combinations(sorted(ids), 2):
            count = hits[pos[a], pos[b]]
            comparability[frozenset((a, b))] = (
                "all" if count == len(indices) else "some" if count else "none"
            )
    return OrientationSummary(classical, free, tuple(indices), relations, comparability, 2**m)


def extension_masks(classical: CausalOrder, relations):
    """Per relation (one (n, n) relation or a stack, in ``classical.ids``
    order): does it hold every classical pair, and does it order a pair the
    classical order leaves open? A strict extension does both."""
    relations = np.asarray(relations, dtype=bool)
    c = classical.relation
    if relations.shape[-2:] != c.shape:
        raise ValueError(f"relations are not over the {len(c)} classical events")
    contains = ~(c & ~relations).any(axis=(-2, -1))
    strengthens = (relations & ~(c | c.T)).any(axis=(-2, -1))
    return contains, strengthens


THREE_PARTY_EVENTS = (
    Event("e1", 1.0, (-0.99,), "g"),
    Event("e2", 1.0, (0.99,), "g"),
    Event("e3", 1.5, (1.2,), "g"),
)
