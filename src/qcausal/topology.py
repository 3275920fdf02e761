"""Point sets and finite topologies from commutation graphs.

A commutation graph records which labeled observables commute. Its maximal
cliques are the complete commuting sets; candidate spacetime points are the
minimal non-empty intersections of those sets; each point's commutant
neighborhood (every point whose observables commute with all of its own)
seeds a subbasis, and the coarsest topology containing that subbasis is
generated. Two readings of "minimal non-empty intersection" are
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

A finite topology is exactly its specialization preorder (Alexandrov,
Mat. Sb. 2 (1937) 501): with U_p the smallest open set around p, q lies
below p when q ∈ U_p, and the open sets are the unions of the U_p. So

    T0                               the U_p are distinct
    T1 = points closed = discrete    every U_p = {p}
    S open                           U_p ⊆ S for every p ∈ S

and the chain length is the longest strict chain of the preorder. These
are exact at any size. The open sets are the down-sets of that preorder,
and they are counted, not enumerated (``generate_topology``). Counting
down-sets is #P-complete in general (Provan & Ball, SIAM J. Comput. 12
(1983) 777), so the count runs only until it passes OPEN_SET_CAP.
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


def parse_edge_list(text: str):
    """One edge ("a b") or isolated vertex ("a") per line; '#' comments.

    Returns the sorted labels and the edges, without building a graph.
    """
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
    return sorted(labels), edges


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
        raise ResourceLimitError(f"clique enumeration limited to {MAX_CLIQUE_VERTICES} vertices")
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


def point_commutation(g: CommutationGraph, point_set: PointSet) -> np.ndarray:
    """Boolean matrix: entry (i, j) is true when every observable of point i
    commutes with every observable of point j.

    With M the point-membership matrix, points i and j fail to commute
    exactly when (M (1 - A) M^T)[i, j] counts some non-commuting pair.
    """
    members = np.zeros((len(point_set), g.size), dtype=np.int64)
    for i, p in enumerate(point_set.points):
        members[i, list(p)] = 1
    return members @ (1 - g.adjacency.astype(np.int64)) @ members.T == 0


@dataclass(frozen=True, eq=False)
class FiniteTopology:
    """A finite topology as its minimal opens U_p, stored as bitmasks.

    The properties are read from the U_p (module docstring). The open sets
    are counted, not enumerated: ``open_set_count`` is exact unless
    ``size_cap_hit`` is set, and then it counts the unions of the first k
    distinct U_p, sorted as ints, together with the whole space, for the
    largest k within OPEN_SET_CAP (``generate_topology``).
    """

    point_count: int
    subbasis: tuple
    minimal_open_sets: tuple
    open_set_count: int
    size_cap_hit: bool

    @property
    def is_t0(self) -> bool:
        """Distinct points have distinct minimal opens."""
        return len(set(self.minimal_open_sets)) == self.point_count

    @property
    def is_t1(self) -> bool:
        """Every U_p = {p}; on a finite space this is also discreteness."""
        return all(u == 1 << p for p, u in enumerate(self.minimal_open_sets))

    points_closed = is_t1

    def is_open(self, point_indices) -> bool:
        """S is open when it contains U_p for each of its points p."""
        mask = _mask(point_indices)
        return mask >> self.point_count == 0 and all(
            u | mask == mask for p, u in enumerate(self.minimal_open_sets) if mask >> p & 1
        )

    def specialization_chain_length(self) -> int:
        """Longest strict chain in the specialization preorder.

        Peels the points with no strictly larger point left until none
        remain; the number of peels is the longest chain.
        """
        n = self.point_count
        leq = np.array([[u >> q & 1 for q in range(n)] for u in self.minimal_open_sets], bool)
        above = leq & ~leq.T
        left = np.ones(n, dtype=bool)
        length = 0
        while left.any():
            left &= (above & left).any(axis=1)
            length += 1
        return length


def _mask(point_indices) -> int:
    mask = 0
    for p in point_indices:
        mask |= 1 << p
    return mask


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _down_set_count(members: int, below: list, memo: dict) -> int:
    """Down-sets of the order on the index set ``members``.

    ``below[x]`` is the bitmask of indices at or below x; no index is below
    a smaller one. With x the top index of S, D(S) = D(S minus x) +
    D(S minus ↓x): a down-set leaves x out or holds all of ↓x. ``memo``
    maps bitmasks to counts from ``{0: 1}``; the explicit stack keeps deep
    orders off the recursion limit.
    """
    stack = [members]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        top = s.bit_length() - 1
        without, beside = s ^ (1 << top), s & ~below[top]
        if without in memo and beside in memo:
            memo[s] = memo[without] + memo[beside]
            stack.pop()
        else:
            stack += (without, beside)
    return memo[members]


def generate_topology(
    subbasis, point_count: int, include_point_complements: bool = False
) -> FiniteTopology:
    """Coarsest topology containing the subbasis.

    The minimal open U_p is the intersection of the subbasis members that
    contain p, and the open sets are exactly the unions of the U_p (the
    down-sets of the specialization preorder). The U_p decide every
    property; the open sets are only counted.

    Sorted ascending as ints, the distinct U_p are a linear extension of
    ⊆, so the unions of the first k of them are the down-sets N_k of the
    order they induce, and N_{k+1} = N_k + D(P_k minus ↓u_{k+1}), with P_k
    the first k. ``open_set_count`` is N_k, plus one when the first k do
    not cover every point, for the largest k that keeps it within
    OPEN_SET_CAP; ``size_cap_hit`` is set when that k is not the last.
    """
    full = (1 << point_count) - 1
    masks = [_mask(s) & full for s in subbasis]
    if include_point_complements:
        masks += [full ^ (1 << p) for p in range(point_count)]

    minimal = [full] * point_count
    for mask in masks:
        for p in _bits(mask):
            minimal[p] &= mask

    ordered = sorted(set(minimal))
    index = {u: i for i, u in enumerate(ordered)}
    below, memo = [], {0: 1}
    down_sets, covered, prefix = 1, 0, 0
    cap_hit = False
    for i, u in enumerate(ordered):
        # p ∈ u_i exactly when U_p ⊆ u_i, so ↓u_i is the U_p of u_i's points
        below.append(_mask(index[minimal[p]] for p in _bits(u)))
        grown = down_sets + _down_set_count(prefix & ~below[i], below, memo)
        if grown + ((covered | u) != full) > OPEN_SET_CAP:
            cap_hit = True
            break
        down_sets, covered, prefix = grown, covered | u, prefix | 1 << i
    open_set_count = down_sets + (covered != full)
    return FiniteTopology(point_count, tuple(masks), tuple(minimal), open_set_count, cap_hit)


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
    if points.points == tuple(frozenset({v}) for v in range(g.size)):
        hypersurfaces = cliques  # the point graph is g itself
    else:
        point_graph = CommutationGraph(tuple(f"p{i}" for i in range(len(points))), commute)
        hypersurfaces = maximal_cliques(point_graph)

    topology = generate_topology(
        neighborhoods, len(points), include_point_complements=include_point_complements
    )
    return TopologyReport(
        g, cliques, points, points_po, neighborhoods, hypersurfaces, topology
    )
