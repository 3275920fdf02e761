"""Point sets and finite topologies from commutation graphs.

A commutation graph records which labeled observables commute. Its maximal
cliques are the complete commuting sets; candidate spacetime points are the
minimal non-empty intersections of those sets; each point's commutant
neighborhood (every point whose observables commute with all of its own)
seeds a subbasis, and the coarsest topology containing that subbasis is
generated explicitly. Two readings of "minimal non-empty intersection" are
implemented and surfaced side by side:

    subfamilyIntersection  inclusion-minimal non-empty intersections of
                           subfamilies of maximal cliques (default)
    perObservable          for each observable, the intersection of all
                           maximal cliques containing it

Neither needs the cliques. With N[v] the closed neighborhood of v, the
intersection of the maximal cliques containing v is

    Q_v = {u : N[v] ⊆ N[u]}

(a maximal clique through v lies in N[v], so it takes in every u with
N[v] ⊆ N[u]; an edge v-w with w outside N[u] extends to a maximal clique
without u). A non-empty intersection of cliques contains Q_v for each of
its members v, and every Q_v is such an intersection, so the subfamily
points are the minimal Q_v.

Only the second variant guarantees that every observable lands in some
point; on a finite point set, demanding closed points on top of the
coarsest topology forces discreteness, so point complements join the
subbasis only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUBFAMILY = "subfamilyIntersection"
PER_OBSERVABLE = "perObservable"

MAX_CLIQUE_VERTICES = 500
CLIQUE_CAP = 100_000
OPEN_SET_CAP = 2**20


class ResourceLimitError(RuntimeError):
    """Enumeration exceeded a desk-scale resource cap."""


@dataclass(frozen=True, eq=False)
class CommutationGraph:
    labels: tuple
    adjacency: np.ndarray

    def __post_init__(self):
        labels = tuple(str(label) for label in self.labels)
        if len(labels) < 1:
            raise ValueError("graph needs at least one vertex")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        adj = np.array(self.adjacency, dtype=bool)
        if adj.shape != (len(labels), len(labels)):
            raise ValueError("adjacency shape does not match label count")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if not np.diag(adj).all():
            raise ValueError("every observable must commute with itself")
        adj.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adjacency", adj)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @classmethod
    def from_edges(cls, labels, edges) -> "CommutationGraph":
        labels = tuple(labels)
        pos = {label: i for i, label in enumerate(labels)}
        adj = np.eye(len(labels), dtype=bool)
        for a, b in edges:
            i, j = pos[a], pos[b]
            adj[i, j] = adj[j, i] = True
        return cls(labels, adj)

    @classmethod
    def from_edge_list_text(cls, text: str) -> "CommutationGraph":
        """One edge ("a b") or isolated vertex ("a") per line; '#' comments."""
        labels = set()
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) == 1:
                labels.add(tokens[0])
            elif len(tokens) == 2:
                labels.update(tokens)
                edges.append((tokens[0], tokens[1]))
            else:
                raise ValueError(f"line {lineno}: expected one or two labels, got {len(tokens)}")
        if not labels:
            raise ValueError("empty graph description")
        return cls.from_edges(sorted(labels), edges)


def disjoint_clique_graph(clique_count: int, clique_size: int) -> CommutationGraph:
    """Disjoint union of complete graphs: each slice commutes only internally."""
    labels = [f"s{i}o{j}" for i in range(clique_count) for j in range(clique_size)]
    edges = [
        (f"s{i}o{j}", f"s{i}o{k}")
        for i in range(clique_count)
        for j in range(clique_size)
        for k in range(j + 1, clique_size)
    ]
    return CommutationGraph.from_edges(labels, edges)


def complete_graph(size: int) -> CommutationGraph:
    return CommutationGraph(tuple(f"o{i}" for i in range(size)), np.ones((size, size), bool))


def maximal_cliques(g: CommutationGraph):
    """All maximal pairwise-commuting sets (Bron-Kerbosch with pivoting).

    Returns vertex-index frozensets in a deterministic order.
    """
    if g.size > MAX_CLIQUE_VERTICES:
        raise ValueError(f"clique enumeration limited to {MAX_CLIQUE_VERTICES} vertices")
    neighbors = []
    for i in range(g.size):
        row = set(np.nonzero(g.adjacency[i])[0].tolist())
        row.discard(i)
        neighbors.append(row)
    results = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            results.append(frozenset(clique))
            if len(results) > CLIQUE_CAP:
                raise ResourceLimitError(f"more than {CLIQUE_CAP} maximal cliques")
            return
        pivot = max(candidates | excluded, key=lambda v: (len(neighbors[v] & candidates), -v))
        for v in sorted(candidates - neighbors[pivot]):
            expand(clique + [v], candidates & neighbors[v], excluded & neighbors[v])
            candidates.remove(v)
            excluded.add(v)

    expand([], set(range(g.size)), set())
    return tuple(sorted(results, key=sorted))


@dataclass(frozen=True, eq=False)
class PointSet:
    """Candidate spacetime points as sets of observable indices."""

    points: tuple
    variant: str
    observable_count: int

    def __post_init__(self):
        points = tuple(frozenset(p) for p in self.points)
        if any(not p for p in points):
            raise ValueError("points must be non-empty")
        if self.variant == SUBFAMILY:
            for p in points:
                if any(q < p for q in points):
                    raise ValueError("subfamily-intersection points must form an antichain")
        elif self.variant == PER_OBSERVABLE:
            covered = frozenset().union(*points)
            if covered != frozenset(range(self.observable_count)):
                raise ValueError("per-observable points must cover every observable")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    def points_containing(self, observable_index: int):
        return tuple(i for i, p in enumerate(self.points) if observable_index in p)


def points_of_m(g: CommutationGraph, variant: str = SUBFAMILY) -> PointSet:
    """Minimal non-empty intersections of the complete commuting sets.

    Row v of ``dom`` is Q_v = {u : N[v] ⊆ N[u]}, the intersection of the
    maximal cliques containing v; ``perObservable`` is the distinct Q_v and
    ``subfamilyIntersection`` the inclusion-minimal ones (module docstring).
    Since u ∈ Q_v exactly when Q_u ⊆ Q_v, Q_v is minimal when every such u
    also has v ∈ Q_u.
    """
    adj = g.adjacency.astype(np.int64)
    dom = adj @ (1 - adj).T == 0
    if variant == SUBFAMILY:
        rows = dom[~(dom & ~dom.T).any(axis=1)]
    elif variant == PER_OBSERVABLE:
        rows = dom
    else:
        raise ValueError(f"unknown variant {variant!r}")
    points = {frozenset(np.flatnonzero(row).tolist()) for row in rows}
    return PointSet(tuple(sorted(points, key=sorted)), variant, g.size)


def points_commute(g: CommutationGraph, p, q) -> bool:
    """Definition: every observable of p commutes with every one of q."""
    rows = sorted(p)
    cols = sorted(q)
    return bool(g.adjacency[np.ix_(rows, cols)].all())


def point_commutation(g: CommutationGraph, point_set: PointSet) -> np.ndarray:
    """Boolean matrix: entry (i, j) is ``points_commute`` of points i and j.

    With M the point-membership matrix, points i and j fail to commute
    exactly when (M (1 - A) M^T)[i, j] counts some non-commuting pair.
    """
    members = np.zeros((len(point_set), g.size), dtype=np.int64)
    for i, p in enumerate(point_set.points):
        members[i, list(p)] = 1
    return members @ (1 - g.adjacency.astype(np.int64)) @ members.T == 0


def commutant_neighborhood(g: CommutationGraph, point_set: PointSet, point_index: int):
    """Indices of every point whose observables all commute with this one's."""
    if not 0 <= point_index < len(point_set):
        raise ValueError(f"point index {point_index} out of range")
    row = point_commutation(g, point_set)[point_index]
    return frozenset(np.flatnonzero(row).tolist())


@dataclass(frozen=True, eq=False)
class FiniteTopology:
    """Open sets over point indices, stored as bitmasks."""

    point_count: int
    open_sets: tuple
    subbasis: tuple
    minimal_open_sets: tuple | None
    is_t0: bool | None
    is_t1: bool | None
    points_closed: bool | None
    size_cap_hit: bool

    def __post_init__(self):
        full = (1 << self.point_count) - 1
        if 0 not in self.open_sets or full not in self.open_sets:
            raise ValueError("topology must contain the empty and the full set")

    @property
    def open_set_count(self) -> int:
        return len(self.open_sets)

    def is_open(self, point_indices) -> bool:
        return _mask(point_indices) in set(self.open_sets)

    def is_closed_exhaustive(self) -> bool:
        """Pairwise union/intersection closure check; test-scale only."""
        family = set(self.open_sets)
        return all(a | b in family and a & b in family for a in family for b in family)

    def minimal_opens(self):
        """Smallest open set around each point (intersection of its opens)."""
        if self.minimal_open_sets is None:
            raise ValueError("minimal opens unknown: size cap was hit")
        return self.minimal_open_sets

    def specialization_chain_length(self) -> int:
        """Longest strict chain in the specialization preorder."""
        minimal = self.minimal_opens()
        leq = [
            [bool(minimal[p] >> q & 1) for q in range(self.point_count)]
            for p in range(self.point_count)
        ]
        classes = {}
        for p in range(self.point_count):
            key = frozenset(
                q for q in range(self.point_count) if leq[p][q] and leq[q][p]
            )
            classes.setdefault(key, min(key))
        reps = sorted(classes.values())
        longest = {}

        def chain_from(rep):
            if rep in longest:
                return longest[rep]
            best = 1
            for other in reps:
                if other != rep and leq[rep][other] and not leq[other][rep]:
                    best = max(best, 1 + chain_from(other))
            longest[rep] = best
            return best

        return max((chain_from(rep) for rep in reps), default=0)


def _mask(point_indices) -> int:
    mask = 0
    for p in point_indices:
        mask |= 1 << p
    return mask


def generate_topology(
    subbasis, point_count: int, include_point_complements: bool = False
) -> FiniteTopology:
    """Coarsest topology containing the subbasis.

    Every open set of the generated topology is a union of minimal point
    neighborhoods U_p (the intersection of all subbasis members containing
    p), so the family is enumerated as the distinct subset-unions of the
    U_p. When it outgrows the cap a partial family is returned with
    unknown flags.
    """
    full = (1 << point_count) - 1
    masks = [_mask(s) & full for s in subbasis]
    if include_point_complements:
        masks += [full ^ (1 << p) for p in range(point_count)]
    base_subbasis = tuple(masks)

    minimal = [full] * point_count
    for mask in base_subbasis:
        for p in range(point_count):
            if mask >> p & 1:
                minimal[p] &= mask

    cap_hit = False
    opens = {0, full}
    for u in sorted(set(minimal)):
        additions = {existing | u for existing in opens}
        if len(opens | additions) > OPEN_SET_CAP:
            cap_hit = True
            break
        opens |= additions

    if cap_hit:
        # Minimal opens are exact either way; only the set family is partial.
        return FiniteTopology(
            point_count, tuple(sorted(opens)), base_subbasis, tuple(minimal), None, None, None, True
        )

    points_closed = all(full ^ (1 << p) in opens for p in range(point_count))
    is_t0 = len(set(minimal)) == point_count
    # On a finite space T1 is equivalent to every singleton being closed.
    return FiniteTopology(
        point_count,
        tuple(sorted(opens)),
        base_subbasis,
        tuple(minimal),
        is_t0,
        points_closed,
        points_closed,
        False,
    )


@dataclass(frozen=True, eq=False)
class TopologyReport:
    graph: CommutationGraph
    cliques: tuple
    points_subfamily: PointSet
    points_per_observable: PointSet
    neighborhoods: tuple
    hypersurfaces: tuple
    topology: FiniteTopology

    @property
    def max_hypersurface_size(self) -> int:
        return max(len(h) for h in self.hypersurfaces)

    def to_json_dict(self) -> dict:
        def render(points):
            return [sorted(self.graph.labels[o] for o in p) for p in points]

        return {
            "points": {
                SUBFAMILY: render(self.points_subfamily.points),
                PER_OBSERVABLE: render(self.points_per_observable.points),
            },
            "cliques": sorted(render(self.cliques)),
            "openSetCount": self.topology.open_set_count,
            "flags": {
                "isT0": self.topology.is_t0,
                "isT1": self.topology.is_t1,
                "pointsClosed": self.topology.points_closed,
                "sizeCapHit": self.topology.size_cap_hit,
            },
            "hypersurfaces": sorted(sorted(h) for h in self.hypersurfaces),
            "dimensionProxies": {
                "specializationChainLength": self.topology.specialization_chain_length(),
                "maxHypersurfaceSize": self.max_hypersurface_size,
            },
        }


def topology_report(
    g: CommutationGraph, include_point_complements: bool = False
) -> TopologyReport:
    """Points (both variants), hypersurfaces, and the generated topology."""
    cliques = maximal_cliques(g)
    points = points_of_m(g, SUBFAMILY)
    points_po = points_of_m(g, PER_OBSERVABLE)

    commute = point_commutation(g, points)
    neighborhoods = tuple(frozenset(np.flatnonzero(row).tolist()) for row in commute)
    point_graph = CommutationGraph(tuple(f"p{i}" for i in range(len(points))), commute)
    hypersurfaces = maximal_cliques(point_graph)

    topology = generate_topology(
        neighborhoods, len(points), include_point_complements=include_point_complements
    )
    return TopologyReport(
        g, cliques, points, points_po, neighborhoods, hypersurfaces, topology
    )
