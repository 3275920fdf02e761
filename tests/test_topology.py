import functools
import operator
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcausal.topology as topo
from qcausal.lattice import LatticeSpec, commutation_graph, pauli_jordan
from qcausal.topology import (
    PER_OBSERVABLE,
    SUBFAMILY,
    CommutationGraph,
    PointSet,
    ResourceLimitError,
    complete_graph,
    disjoint_clique_graph,
    generate_topology,
    maximal_cliques,
    parse_edge_list,
    point_commutation,
    points_of_m,
    topology_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def labelled(graph, sets):
    return sorted(sorted(graph.labels[i] for i in s) for s in sets)


def shared_vertex_graph():
    return CommutationGraph.from_edges(
        ["a1", "a2", "b1", "b2", "v"],
        [("a1", "a2"), ("a1", "v"), ("a2", "v"), ("b1", "b2"), ("b1", "v"), ("b2", "v")],
    )


def random_graph(rng, max_vertices=12):
    n = int(rng.integers(1, max_vertices + 1))
    adj = rng.random((n, n)) < rng.uniform(0.2, 0.8)
    adj = adj | adj.T
    np.fill_diagonal(adj, True)
    return CommutationGraph(tuple(f"o{i}" for i in range(n)), adj)


def test_graph_validation():
    with pytest.raises(ValueError):
        CommutationGraph((), np.zeros((0, 0), bool))
    with pytest.raises(ValueError, match="symmetric"):
        CommutationGraph(("a", "b"), np.array([[True, True], [False, True]]))
    with pytest.raises(ValueError, match="itself"):
        CommutationGraph(("a", "b"), np.array([[True, False], [False, False]]))
    with pytest.raises(ValueError, match="duplicate"):
        CommutationGraph(("a", "a"), np.eye(2, dtype=bool))


def test_edge_list_parsing():
    text = "# comment\n a b \nc\n\nb c # trailing\n"
    g = CommutationGraph.from_edges(*parse_edge_list(text))
    assert g.labels == ("a", "b", "c")
    assert g.adjacency[0, 1] and g.adjacency[1, 2] and not g.adjacency[0, 2]
    with pytest.raises(ValueError, match="one or two"):
        parse_edge_list("a b c\n")
    with pytest.raises(ValueError, match="empty"):
        parse_edge_list("# nothing\n")


def test_maximal_cliques_complete_graph():
    g = complete_graph(4)
    assert maximal_cliques(g) == (frozenset(range(4)),)


def test_maximal_cliques_disjoint_triangles():
    g = disjoint_clique_graph(2, 3)
    assert maximal_cliques(g) == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_maximal_cliques_sound_and_complete_vs_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(41)
    for _ in range(40):
        g = random_graph(rng)
        ours = set(maximal_cliques(g))
        h = nx.Graph()
        h.add_nodes_from(range(g.size))
        h.add_edges_from(
            (i, j) for i in range(g.size) for j in range(i + 1, g.size) if g.adjacency[i, j]
        )
        theirs = {frozenset(c) for c in nx.find_cliques(h)}
        assert ours == theirs
        for clique in ours:
            members = sorted(clique)
            assert g.adjacency[np.ix_(members, members)].all()
            outside = set(range(g.size)) - clique
            assert all(
                not g.adjacency[list(clique), v].all() for v in outside
            ), "clique must not be extendable"


def test_maximal_cliques_vertex_cap():
    g = complete_graph(501)
    with pytest.raises(ResourceLimitError, match="500"):
        maximal_cliques(g)


def test_topology_report_past_vertex_cap_is_a_resource_limit():
    # every desk-scale cap raises one error type, the vertex cap included
    with pytest.raises(ResourceLimitError, match="limited to 500 vertices"):
        topology_report(complete_graph(501))


def test_maximal_cliques_count_cap():
    # complete 11-partite graph with parts of 3: 3^11 > 1e5 maximal cliques
    n, part = 33, 3
    adj = np.ones((n, n), dtype=bool)
    for start in range(0, n, part):
        adj[start : start + part, start : start + part] = False
    np.fill_diagonal(adj, True)
    g = CommutationGraph(tuple(f"o{i}" for i in range(n)), adj)
    with pytest.raises(ResourceLimitError):
        maximal_cliques(g)


def test_points_shared_vertex_graph():
    g = shared_vertex_graph()
    assert labelled(g, points_of_m(g, SUBFAMILY).points) == [["v"]]
    assert labelled(g, points_of_m(g, PER_OBSERVABLE).points) == [
        ["a1", "a2", "v"],
        ["b1", "b2", "v"],
        ["v"],
    ]


def test_points_disjoint_cliques_both_variants():
    g = disjoint_clique_graph(2, 4)
    expected = [sorted(g.labels[:4]), sorted(g.labels[4:])]
    assert labelled(g, points_of_m(g, SUBFAMILY).points) == sorted(expected)
    assert labelled(g, points_of_m(g, PER_OBSERVABLE).points) == sorted(expected)


def test_points_single_complete_graph():
    g = complete_graph(5)
    for variant in (SUBFAMILY, PER_OBSERVABLE):
        assert points_of_m(g, variant).points == (frozenset(range(5)),)


def brute_force_points(g):
    cliques = maximal_cliques(g)
    masks = [sum(1 << v for v in c) for c in cliques]
    full = (1 << g.size) - 1
    intersections = set()
    for selector in range(1, 2 ** len(masks)):
        inter = full
        for i, mask in enumerate(masks):
            if selector >> i & 1:
                inter &= mask
        if inter:
            intersections.add(inter)
    minimal = {
        m for m in intersections if not any(o != m and o | m == m for o in intersections)
    }
    return {frozenset(v for v in range(g.size) if m >> v & 1) for m in minimal}


def test_points_match_bruteforce_on_random_graphs():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 40:
        g = random_graph(rng, max_vertices=10)
        if len(maximal_cliques(g)) > 16:
            continue
        assert set(points_of_m(g, SUBFAMILY).points) == brute_force_points(g)
        checked += 1


@st.composite
def symmetric_graphs(draw, max_vertices=12):
    n = draw(st.integers(1, max_vertices))
    pairs = n * (n - 1) // 2
    upper = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    adj = np.eye(n, dtype=bool)
    adj[np.triu_indices(n, 1)] = upper
    return CommutationGraph(tuple(f"o{i}" for i in range(n)), adj | adj.T)


def clique_intersections(g, cliques):
    """Per observable, the intersection of the maximal cliques containing it."""
    return {frozenset.intersection(*[c for c in cliques if v in c]) for v in range(g.size)}


def points_commute(g, p, q):
    """Definition: every observable of p commutes with every one of q."""
    return bool(g.adjacency[np.ix_(sorted(p), sorted(q))].all())


def closure_points(g):
    """Minimal sets of the maximal cliques' intersection closure (reference)."""
    family = set(maximal_cliques(g))
    frontier = set(family)
    while frontier:
        fresh = {a & b for a in frontier for b in family} - family - {frozenset()}
        family |= fresh
        frontier = fresh
    return {p for p in family if not any(q < p for q in family)}


@settings(deadline=None, max_examples=200)
@given(symmetric_graphs())
def test_points_and_commutation_match_definitions(g):
    cliques = maximal_cliques(g)
    expected = {
        PER_OBSERVABLE: clique_intersections(g, cliques),
        SUBFAMILY: closure_points(g),
    }
    for variant, points in expected.items():
        point_set = points_of_m(g, variant)
        assert point_set.points == tuple(sorted(points, key=sorted))
        commute = point_commutation(g, point_set)
        for i, p in enumerate(point_set.points):
            for j, q in enumerate(point_set.points):
                assert commute[i, j] == points_commute(g, p, q)


def test_lattice_16x6_points_without_closure():
    # 96 observables and 15,374 maximal cliques: the intersection closure of
    # those cliques outgrew 100,000 sets on this graph.
    g = commutation_graph(LatticeSpec(16, 1.0, 6), 1e-3)
    report = topology_report(g)
    assert len(report.cliques) == 15374
    per_observable = clique_intersections(g, report.cliques)
    minimal = {p for p in per_observable if not any(q < p for q in per_observable)}
    assert set(report.points_per_observable.points) == per_observable
    assert set(report.points_subfamily.points) == minimal


def test_per_observable_covers_everything():
    rng = np.random.default_rng(47)
    for _ in range(25):
        g = random_graph(rng, max_vertices=10)
        points = points_of_m(g, PER_OBSERVABLE)
        covered = frozenset().union(*points.points)
        assert covered == frozenset(range(g.size))


def test_point_set_validation():
    with pytest.raises(ValueError, match="antichain"):
        PointSet((frozenset({0}), frozenset({0, 1})), SUBFAMILY, 2)
    with pytest.raises(ValueError, match="non-empty"):
        PointSet((frozenset(),), SUBFAMILY, 1)
    with pytest.raises(ValueError, match="cover"):
        PointSet((frozenset({0}),), PER_OBSERVABLE, 2)


def test_neighborhoods_disjoint_and_complete():
    chain = topology_report(disjoint_clique_graph(3, 2))
    assert chain.neighborhoods == tuple(frozenset({i}) for i in range(len(chain.points_subfamily)))
    assert topology_report(complete_graph(4)).neighborhoods == (frozenset({0}),)


def test_lattice_neighborhood_matches_commutator_table():
    spec = LatticeSpec(8, 1.0, 4)
    eps = 1e-3
    g = commutation_graph(spec, eps)
    report = topology_report(g)
    points = report.points_subfamily
    # on this instance every point is a single spacetime vertex
    assert all(len(p) == 1 for p in points.points)
    vertex_of = {i: next(iter(p)) for i, p in enumerate(points.points)}

    def coords(vertex):
        label = g.labels[vertex]
        x, t = label[1:].split("t")
        return int(x), int(t)

    for i in range(len(points)):
        neighborhood = report.neighborhoods[i]
        xi, ti = coords(vertex_of[i])
        for j in range(len(points)):
            xj, tj = coords(vertex_of[j])
            commutes = abs(pauli_jordan(spec, xi - xj, float(ti - tj))) < eps
            assert (j in neighborhood) == commutes


def test_generate_topology_discrete_and_indiscrete():
    discrete = generate_topology([[0], [1], [2]], 3)
    assert discrete.open_set_count == 8
    assert discrete.points_closed is True and discrete.is_t1 is True
    indiscrete = generate_topology([[0, 1, 2]], 3)
    assert indiscrete.open_set_count == 2
    assert indiscrete.points_closed is False and indiscrete.is_t0 is False
    nested = generate_topology([[0], [0, 1], [0, 1, 2]], 3)
    assert nested.is_t0 is True and nested.is_t1 is False
    assert nested.open_set_count == 4 and nested.specialization_chain_length() == 3
    assert nested.is_open([0, 1]) and not nested.is_open([1, 2])
    one_open = generate_topology([[1], [2]], 3)  # U_0 is the whole space
    assert one_open.is_t0 is True and one_open.points_closed is False
    assert one_open.specialization_chain_length() == 2


def generated_family(subbasis, n, include_point_complements=False):
    """Every open set, uncapped: the unions of finite intersections of the subbasis."""
    full = (1 << n) - 1
    masks = [sum(1 << p for p in s) for s in subbasis]
    if include_point_complements:
        masks += [full ^ (1 << p) for p in range(n)]
    basis = {full}
    for mask in masks:
        basis |= {b & mask for b in basis}
    opens = {0}
    for b in basis:
        opens |= {o | b for o in opens}
    return opens


def is_closed_exhaustive(family):
    """Pairwise union/intersection closure check; test-scale only."""
    return all(a | b in family and a & b in family for a in family for b in family)


def recursive_chain_length(minimal, n):
    """Longest strict chain of the specialization preorder, one class at a time."""
    leq = [[bool(minimal[p] >> q & 1) for q in range(n)] for p in range(n)]
    classes = {}
    for p in range(n):
        key = frozenset(q for q in range(n) if leq[p][q] and leq[q][p])
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


def test_generate_topology_closure_exhaustive():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        subbasis = [
            [int(v) for v in np.nonzero(rng.random(n) < 0.5)[0]] for _ in range(int(rng.integers(1, 5)))
        ]
        family = generated_family(subbasis, n)
        assert is_closed_exhaustive(family)
        topology = generate_topology(subbasis, n)
        assert topology.is_open(())
        assert topology.is_open(range(n))
        assert not topology.is_open([n])


@st.composite
def subbases(draw, max_points=10):
    n = draw(st.integers(1, max_points))
    points = st.integers(0, n - 1)
    subsets = st.sets(points) | points.map(lambda p: {p})
    return n, draw(st.lists(subsets, max_size=12)), draw(st.booleans())


@settings(deadline=None, max_examples=200)
@given(subbases())
def test_topology_from_minimal_opens_matches_enumeration(case):
    n, subbasis, complements = case
    topology = generate_topology(subbasis, n, include_point_complements=complements)
    family = generated_family(subbasis, n, include_point_complements=complements)
    full = (1 << n) - 1
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    assert topology.is_t0 == all(
        any((o >> p & 1) != (o >> q & 1) for o in family) for p, q in pairs
    )
    assert topology.is_t1 == all(
        any(o >> p & 1 and not o >> q & 1 for o in family) for p, q in pairs
    )
    assert topology.points_closed == all(full ^ (1 << p) in family for p in range(n))
    assert topology.open_set_count == len(family) and not topology.size_cap_hit
    minimal = [
        functools.reduce(operator.and_, (o for o in family if o >> p & 1)) for p in range(n)
    ]
    assert topology.specialization_chain_length() == recursive_chain_length(minimal, n)
    for mask in range(full + 1):
        indices = [p for p in range(n) if mask >> p & 1]
        assert topology.is_open(indices) == (mask in family)


def test_point_complements_force_discreteness():
    # finite T1 rigidity: closed points + coarsest generation = discrete
    rng = np.random.default_rng(59)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        subbasis = [[int(v) for v in np.nonzero(rng.random(n) < 0.5)[0]]]
        topology = generate_topology(subbasis, n, include_point_complements=True)
        assert topology.points_closed is True
        assert topology.open_set_count == 2**n


def capped_union_count(subbasis, n, include_point_complements=False):
    """The open-set count as a union loop stopped at OPEN_SET_CAP (reference).

    Adds the sorted distinct minimal opens one at a time, each time uniting
    it into every open set so far, and stops before the family would pass
    the cap. Returns ``(open_set_count, size_cap_hit)``.
    """
    full = (1 << n) - 1
    masks = [sum(1 << p for p in set(s)) for s in subbasis]
    if include_point_complements:
        masks += [full ^ (1 << p) for p in range(n)]
    minimal = [full] * n
    for mask in masks:
        for p in range(n):
            if mask >> p & 1:
                minimal[p] &= mask
    opens = {0, full}
    for u in sorted(set(minimal)):
        additions = {existing | u for existing in opens}
        if len(opens | additions) > topo.OPEN_SET_CAP:
            return len(opens), True
        opens |= additions
    return len(opens), False


@st.composite
def capped_subbases(draw, max_points=10):
    n = draw(st.integers(0, max_points))
    subsets = st.sets(st.integers(0, n - 1)) if n else st.just(set())
    subbasis = draw(st.lists(subsets, max_size=12))
    return n, subbasis, draw(st.booleans()), draw(st.integers(1, 64))


@settings(deadline=None, max_examples=400)
@given(capped_subbases())
def test_open_set_count_matches_capped_union_loop(case):
    n, subbasis, complements, cap = case
    with mock.patch.object(topo, "OPEN_SET_CAP", cap):
        topology = generate_topology(subbasis, n, include_point_complements=complements)
        expected = capped_union_count(subbasis, n, include_point_complements=complements)
    assert (topology.open_set_count, topology.size_cap_hit) == expected


def test_open_set_count_of_a_large_discrete_space_stops_at_the_cap():
    topology = generate_topology([[p] for p in range(3000)], 3000)
    assert (topology.open_set_count, topology.size_cap_hit) == (2**19 + 1, True)


def test_open_set_count_of_two_long_chains_needs_no_deep_recursion():
    # chain a_i = 2i below a_{i+1}, chain b_i = 2i + 1 below b_{i+1}; sorted,
    # their minimal opens interleave, and a recursive count would go about
    # 1,000 calls deep. The down-sets of two 1,000-chains number 1001².
    evens = [list(range(0, 2 * i, 2)) for i in range(1, 1001)]
    odds = [list(range(1, 2 * i, 2)) for i in range(1, 1001)]
    topology = generate_topology(evens + odds, 2000)
    assert (topology.open_set_count, topology.size_cap_hit) == (1001**2, False)


def test_chain_topology_discrete_without_complements():
    report = topology_report(disjoint_clique_graph(4, 3))
    assert report.topology.open_set_count == 2 ** len(report.points_subfamily)
    assert report.topology.points_closed is True
    assert report.max_hypersurface_size == 1
    assert report.topology.specialization_chain_length() == 1


def label_sets(groups):
    return {frozenset(group) for group in groups}


def relabelling_invariants(g):
    report = topology_report(g)
    payload = report.to_json_dict()
    return {
        "subfamilyPoints": label_sets(payload["points"][SUBFAMILY]),
        "perObservablePoints": label_sets(payload["points"][PER_OBSERVABLE]),
        "cliques": label_sets(payload["cliques"]),
        "counts": (len(report.points_subfamily), len(report.points_per_observable)),
        "flags": payload["flags"],
        "chainLength": payload["dimensionProxies"]["specializationChainLength"],
        "hypersurfaceSizes": sorted(len(h) for h in report.hypersurfaces),
        "openSetCount": payload["openSetCount"],
    }


@settings(deadline=None, max_examples=150)
@given(symmetric_graphs(max_vertices=10), st.data())
def test_report_is_invariant_under_relabelling(g, data):
    order = data.draw(st.permutations(range(g.size)))
    permuted = CommutationGraph(
        tuple(g.labels[i] for i in order), g.adjacency[np.ix_(order, order)]
    )
    before, after = relabelling_invariants(g), relabelling_invariants(permuted)
    assert after == before
    assert not before["flags"]["sizeCapHit"]


def disjoint_union(g, h):
    n = g.size + h.size
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[: g.size, : g.size] = g.adjacency
    adjacency[g.size :, g.size :] = h.adjacency
    labels = tuple(f"g{label}" for label in g.labels) + tuple(f"h{label}" for label in h.labels)
    return CommutationGraph(labels, adjacency)


@settings(deadline=None, max_examples=100)
@given(symmetric_graphs(max_vertices=10), symmetric_graphs(max_vertices=10))
def test_disjoint_union_adds_cliques_and_takes_longer_chain(g, h):
    union = topology_report(disjoint_union(g, h))
    parts = (topology_report(g), topology_report(h))
    assert len(union.cliques) == sum(len(part.cliques) for part in parts)
    assert union.topology.specialization_chain_length() == max(
        part.topology.specialization_chain_length() for part in parts
    )


@settings(deadline=None, max_examples=100)
@given(symmetric_graphs(max_vertices=10), symmetric_graphs(max_vertices=10))
def test_disjoint_union_multiplies_open_set_counts(g, h):
    union = topology_report(disjoint_union(g, h)).topology
    parts = [topology_report(graph).topology for graph in (g, h)]
    assert not any(t.size_cap_hit for t in (union, *parts))
    assert union.open_set_count == parts[0].open_set_count * parts[1].open_set_count


def test_complete_graph_report():
    report = topology_report(complete_graph(4))
    assert len(report.points_subfamily) == 1
    assert len(report.hypersurfaces) == 1
    assert report.topology.open_set_count == 2


def test_lattice_report_slices_and_cap():
    g = commutation_graph(LatticeSpec(8, 1.0, 4), 1e-3)
    report = topology_report(g)
    golden_cliques = 76  # oracle-verified fixture value
    assert len(report.cliques) == golden_cliques
    assert golden_cliques > 4  # strictly more cliques than time slices
    slices = [frozenset(range(t * 8, (t + 1) * 8)) for t in range(4)]
    assert all(s in report.cliques for s in slices)
    assert report.max_hypersurface_size >= 8
    assert report.topology.size_cap_hit is True
    assert report.topology.is_t0 is True  # every U_p = {p}, cap or not
    assert report.topology.specialization_chain_length() >= 1


def test_report_enumerates_cliques_once_per_graph(monkeypatch):
    import qcausal.topology as topo

    sizes = []
    enumerate_cliques = topo.maximal_cliques
    monkeypatch.setattr(
        topo, "maximal_cliques", lambda g: sizes.append(g.size) or enumerate_cliques(g)
    )
    topology_report(shared_vertex_graph())
    assert sizes == [5, 1]  # the observables, then the single point {v}


def counted_report(g):
    """The report and the sizes of the graphs it enumerated cliques on."""
    sizes = []
    enumerate_cliques = topo.maximal_cliques
    with mock.patch.object(
        topo, "maximal_cliques", lambda graph: sizes.append(graph.size) or enumerate_cliques(graph)
    ):
        report = topology_report(g)
    return report, sizes


@st.composite
def singleton_point_graphs(draw):
    """Complete graphs minus a perfect matching, relabelled: every point is {v}."""
    n = 2 * draw(st.integers(1, 5))
    adj = np.ones((n, n), dtype=bool)
    for v in range(0, n, 2):
        adj[v, v + 1] = adj[v + 1, v] = False
    order = draw(st.permutations(range(n)))
    return CommutationGraph(tuple(f"o{i}" for i in range(n)), adj[np.ix_(order, order)])


@settings(deadline=None, max_examples=200)
@given(st.one_of(symmetric_graphs(max_vertices=10), singleton_point_graphs()))
def test_hypersurfaces_match_the_point_graph_cliques(g):
    report, sizes = counted_report(g)
    points = report.points_subfamily
    commute = point_commutation(g, points)
    point_graph = CommutationGraph(tuple(f"p{i}" for i in range(len(points))), commute)
    assert report.hypersurfaces == maximal_cliques(point_graph)
    singletons = points.points == tuple(frozenset({v}) for v in range(g.size))
    assert sizes == ([g.size] if singletons else [g.size, len(points)])


def test_lattice_report_enumerates_cliques_once():
    report, sizes = counted_report(commutation_graph(LatticeSpec(8, 1.0, 4), 1e-3))
    assert sizes == [32]
    assert report.hypersurfaces == report.cliques and len(report.cliques) == 76


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_lattice_report_peak_rss_stays_small():
    # A fresh interpreter, so that no other test's memory counts. It reads
    # VmHWM, the peak RSS of its own address space: on Linux ru_maxrss also
    # keeps the peak of the process image before exec, here the test runner's.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    code = (
        "from qcausal.lattice import LatticeSpec, commutation_graph\n"
        "from qcausal.topology import topology_report\n"
        "topology_report(commutation_graph(LatticeSpec(8, 1.0, 4), 1e-3))\n"
        "status = open('/proc/self/status').read()\n"
        "print(status.split('VmHWM:')[1].split()[0])"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert int(done.stdout.split()[-1]) < 100 * 1024  # KiB


def test_report_json_contract():
    report = topology_report(shared_vertex_graph())
    payload = report.to_json_dict()
    assert set(payload) == {
        "points",
        "cliques",
        "openSetCount",
        "flags",
        "hypersurfaces",
        "dimensionProxies",
    }
    assert payload["points"][SUBFAMILY] == [["v"]]
    assert payload["openSetCount"] == 2
    assert set(payload["flags"]) == {"isT0", "isT1", "pointsClosed", "sizeCapHit"}


def test_points_commute_requires_all_pairs():
    g = shared_vertex_graph()
    a = frozenset({g.index("a1"), g.index("a2")})
    b = frozenset({g.index("b1")})
    assert not points_commute(g, a, b)
    assert points_commute(g, a, frozenset({g.index("v")}))
