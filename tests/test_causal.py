import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcausal import causal, scenarios
from qcausal.causal import (
    MAX_ADMISSIBLE,
    THREE_PARTY_EVENTS,
    CausalOrder,
    Event,
    _check_events,
    boost,
    classical_order,
    enumerate_admissible_orientations,
    extension_masks,
    free_pairs,
    interval,
    quantum_order,
)
from qcausal.topology import ResourceLimitError


def test_classical_order_examples():
    events = (Event("e", 0.0, (0.0,)), Event("f", 2.0, (1.0,)))
    order = classical_order(events)
    assert order.before("e", "f") and not order.before("f", "e")

    spacelike = (Event("e", 0.0, (0.0,)), Event("f", 1.0, (5.0,)))
    assert not classical_order(spacelike).comparable("e", "f")

    lightlike = (Event("e", 0.0, (0.0,)), Event("f", 1.0, (1.0,)))
    assert classical_order(lightlike).before("e", "f")


def classical_by_pairs(events):
    """Reference definition: ``interval`` of every ordered pair."""
    events = _check_events(events)
    n = len(events)
    rel = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(events):
        for j, b in enumerate(events):
            rel[i, j] = b.t > a.t and interval(a, b) >= 0
    return CausalOrder(tuple(e.id for e in events), rel)


def relation_or_error(build, events):
    try:
        return build(events).relation.tolist()
    except ValueError as err:
        return str(err)


@st.composite
def coordinate_sets(draw):
    """1-8 events in 1-10 spatial dimensions, with integer coordinates or
    ones with 1-3 decimals, so that lightlike pairs and rounding ties occur."""
    n, dims = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    decimals = draw(st.integers(0, 3))
    coordinate = st.integers(-6 * 10**decimals, 6 * 10**decimals).map(
        lambda k: float(k) if decimals == 0 else round(k / 10**decimals, decimals)
    )
    return tuple(
        Event(f"e{i}", draw(coordinate), tuple(draw(coordinate) for _ in range(dims)))
        for i in range(n)
    )


@settings(deadline=None, max_examples=300)
@given(coordinate_sets())
# lightlike: dt and dx are the same float d = 4.159 + 6.0, and d ** 2 (pow) rounds above d * d
@example((Event("a", -6.0, (-6.0,)), Event("b", 4.159, (4.159,))))
def test_classical_order_matches_pairwise_intervals(events):
    assert relation_or_error(classical_order, events) == relation_or_error(
        classical_by_pairs, events
    )


@given(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150))
def test_equal_time_and_space_differences_are_lightlike(a, b):
    assume(a != b)
    a, b = sorted((a, b))
    first, second = Event("a", a, (a,)), Event("b", b, (b,))
    assert interval(first, second) == 0.0
    assert classical_order((first, second)).before("a", "b")


def test_classical_order_rejects_duplicates_and_mixed_dims():
    with pytest.raises(ValueError, match="duplicate"):
        classical_order((Event("e", 0.0, (0.0,)), Event("e", 1.0, (0.0,))))
    with pytest.raises(ValueError, match="dimension"):
        classical_order((Event("e", 0.0, (0.0,)), Event("f", 1.0, (0.0, 0.0))))
    with pytest.raises(ValueError, match="too large"):  # (1e200)^2 overflows
        classical_order((Event("e", 0.0, (0.0,)), Event("f", 1e200, (5e199,))))


def test_causal_order_validates_axioms():
    ids = ("a", "b")
    with pytest.raises(ValueError, match="irreflexive"):
        CausalOrder(ids, np.array([[True, False], [False, False]]))
    with pytest.raises(ValueError, match="antisymmetric"):
        CausalOrder(ids, np.array([[False, True], [True, False]]))
    with pytest.raises(ValueError, match="transitive"):
        CausalOrder(
            ("a", "b", "c"),
            np.array(
                [[False, True, False], [False, False, True], [False, False, False]]
            ),
        )


def test_three_party_fixture_geometry():
    e1, e2, e3 = THREE_PARTY_EVENTS
    assert interval(e2, e3) > 0  # timelike
    assert interval(e1, e3) < 0  # spacelike
    assert interval(e1, e2) < 0  # spacelike
    assert free_pairs(THREE_PARTY_EVENTS) == (
        frozenset({"e1", "e2"}),
        frozenset({"e1", "e3"}),
    )


def test_quantum_order_admissible_orientations():
    order = quantum_order(THREE_PARTY_EVENTS, [("e1", "e2"), ("e1", "e3")])
    assert order.before("e1", "e3")

    reverse = quantum_order(THREE_PARTY_EVENTS, [("e2", "e1"), ("e3", "e1")])
    assert reverse.before("e3", "e1")
    contains, strengthens = extension_masks(classical_order(THREE_PARTY_EVENTS), reverse.relation)
    assert contains and strengthens


def test_enforcement_edges_rules():
    # e2 -> e3 is classical; e1-e2 and e1-e3 are the free pairs
    order = quantum_order(THREE_PARTY_EVENTS, [("e1", "e2"), ("e1", "e3")])
    assert set(order.pairs()) == {("e1", "e2"), ("e1", "e3"), ("e2", "e3")}

    cases = [
        ([("e1", "e2")], r"no direction for free pair \('e1', 'e3'\)"),
        ([("e1", "e2"), ("e1", "e3"), ("e2", "e3")], r"\('e2', 'e3'\) is not a free pair"),
        ([("e1", "e2"), ("e1", "e3"), ("e3", "e2")], r"\('e3', 'e2'\) is not a free pair"),
        ([("e1", "e2"), ("e1", "e3"), ("e3", "e1")], r"free pair \('e1', 'e3'\) given twice"),
    ]
    for directed, message in cases:
        with pytest.raises(ValueError, match=message):
            quantum_order(THREE_PARTY_EVENTS, directed)


def test_orientation_validation():
    # a directed entry must be a free pair of two distinct known events
    cases = [
        ([("e1", "e2"), ("e1", "e3"), ("e1", "e1")], r"\('e1', 'e1'\) is not a free pair"),
        ([("e1", "e2"), ("e1", "x")], r"\('e1', 'x'\) is not a free pair"),
    ]
    for directed, message in cases:
        with pytest.raises(ValueError, match=message):
            quantum_order(THREE_PARTY_EVENTS, directed)


def test_quantum_order_cycle_is_rejected_with_witness():
    # with the classical e2 -> e3, e1 -> e2 and e3 -> e1 close e1 e2 e3
    with pytest.raises(ValueError, match="causal cycle through e1, e2, e3$"):
        quantum_order(THREE_PARTY_EVENTS, [("e1", "e2"), ("e3", "e1")])


def test_enumeration_on_three_party_fixture():
    summary = enumerate_admissible_orientations(THREE_PARTY_EVENTS)
    assert summary.orientation_count == 4
    assert summary.admissible_count == 3
    assert summary.comparability[frozenset({"e1", "e3"})] == "all"
    contains, strengthens = extension_masks(summary.classical, summary.relations)
    assert contains.tolist() == strengthens.tolist() == [True] * 3


def test_enumeration_without_free_pairs_reduces_to_classical():
    chained = (
        Event("a1", 0.0, (0.0,), "g1"),
        Event("a2", 2.0, (0.5,), "g1"),
        Event("b1", 0.0, (10.0,), "g2"),
        Event("b2", 3.0, (10.5,), "g2"),
    )
    summary = enumerate_admissible_orientations(chained)
    assert summary.orientation_count == 1
    assert summary.admissible_count == 1
    assert summary.order(0).pairs() == summary.classical.pairs()


def test_enumeration_ungrouped_events_keep_classical_order():
    events = (Event("a", 0.0, (0.0,)), Event("b", 1.0, (5.0,)))
    summary = enumerate_admissible_orientations(events)
    assert summary.orientation_count == 1
    assert summary.order(0).pairs() == summary.classical.pairs()


def test_enumeration_admissible_cap():
    crowd = tuple(Event(f"e{i}", 0.0, (10.0 * i,), "g") for i in range(7))
    assert math.factorial(7) > MAX_ADMISSIBLE
    with pytest.raises(ResourceLimitError, match="events"):
        enumerate_admissible_orientations(crowd)  # 7! = 5040 admissible orientations
    # every one of the 21 pairs is a time tie, so earliest-first branches on all
    with pytest.raises(ResourceLimitError, match="events"):
        enumerate_admissible_orientations(crowd, "earliest-first")


def test_extension_masks_edges():
    classical = classical_order(THREE_PARTY_EVENTS)
    order = quantum_order(THREE_PARTY_EVENTS, [("e1", "e2"), ("e1", "e3")])
    smaller = np.zeros((3, 3), dtype=bool)  # drops the classical e2 -> e3
    contains, strengthens = extension_masks(
        classical, np.stack([classical.relation, order.relation, smaller])
    )
    assert contains.tolist() == [True, True, False]
    assert strengthens.tolist() == [False, True, False]
    assert extension_masks(classical, order.relation) == (True, True)
    # a (1, 1) relation would broadcast against the (3, 3) classical one
    for shape in ((1, 1), (2, 3, 3, 1), (3,)):
        with pytest.raises(ValueError, match="not over the 3 classical events"):
            extension_masks(classical, np.zeros(shape, dtype=bool))


def extension_by_pairs(classical, quantum):
    """Reference definition by set differences of the ordered pairs: does
    quantum hold every classical pair, and order a pair classical leaves open?"""
    classical_pairs = set(classical.pairs())
    quantum_pairs = set(quantum.pairs())
    open_pairs = quantum_pairs - classical_pairs - {(b, a) for a, b in classical_pairs}
    return not classical_pairs - quantum_pairs, bool(open_pairs)


def transitive_closure(n, edges):
    rel = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        rel[i, j] = True
    for k in range(n):
        rel |= np.outer(rel[:, k], rel[k, :])
    return rel


@st.composite
def order_pairs(draw):
    """Two orders over ids e0..e{n-1} in shuffled positions, so that with
    n > 10 the string order (e10 < e2) differs from the numeric one."""
    n = draw(st.integers(1, 14))
    ids = tuple(f"e{k}" for k in draw(st.permutations(range(n))))
    rank = draw(st.permutations(range(n)))  # both orders extend this ranking
    forward = [(i, j) for i in range(n) for j in range(n) if rank[i] < rank[j]]
    edges = st.lists(st.sampled_from(forward), max_size=12) if forward else st.just([])
    classical_edges = draw(edges)
    quantum_edges = draw(edges)
    if draw(st.booleans()):
        quantum_edges += classical_edges  # quantum contains classical
    return (
        CausalOrder(ids, transitive_closure(n, classical_edges)),
        CausalOrder(ids, transitive_closure(n, quantum_edges)),
    )


@settings(deadline=None, max_examples=300)
@given(pair=order_pairs())
def test_extension_masks_match_pairs_reference(pair):
    classical, quantum = pair
    others = (quantum, classical)
    expected = [extension_by_pairs(classical, other) for other in others]
    for other, masks in zip(others, expected):
        assert extension_masks(classical, other.relation) == masks
    stack = np.stack([other.relation for other in others])
    contains, strengthens = extension_masks(classical, stack)
    assert list(zip(contains.tolist(), strengthens.tolist())) == expected


def test_causal_order_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        CausalOrder(("a", "a"), np.zeros((2, 2), dtype=bool))


def test_boost_preserves_classical_order():
    rng = np.random.default_rng(61)
    for _ in range(20):
        events = tuple(
            Event(f"e{i}", float(rng.uniform(-5, 5)), (float(rng.uniform(-5, 5)),))
            for i in range(6)
        )
        reference = classical_order(events).pairs()
        for beta in (-0.9, -0.5, 0.5, 0.9):
            assert classical_order(boost(events, beta)).pairs() == reference
    with pytest.raises(ValueError):
        boost(events, 1.0)


def test_boost_changes_coordinates_but_not_intervals():
    moved = boost(THREE_PARTY_EVENTS, 0.6)
    for before, after in zip(THREE_PARTY_EVENTS, moved):
        assert before.t != after.t
    for i in range(3):
        for j in range(3):
            assert abs(
                interval(THREE_PARTY_EVENTS[i], THREE_PARTY_EVENTS[j])
                - interval(moved[i], moved[j])
            ) <= 1e-9


def test_boost_rejects_events_without_a_spatial_axis():
    with pytest.raises(ValueError, match="first spatial axis"):
        boost((Event("a", 0.0, ()), Event("b", 1.0, ())), 0.5)


def test_boost_raises_when_boosted_coordinates_overflow():
    # gamma = 2.29 at beta = 0.9: both t' and x0' leave the float range
    events = (Event("a", 1e308, (0.0,)), Event("b", 1.7e308, (0.0,)))
    with pytest.raises(ValueError, match="too large"):
        boost(events, 0.9)
    with pytest.raises(ValueError, match="too large"):
        causal._boosted(causal._coordinates(events), [0.3, 0.9])


def boost_by_events(events, beta):
    """Reference definition: each event boosted in Python floats, which
    overflow to infinity silently."""
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return [
        (gamma * (e.t - beta * e.x[0]), gamma * (e.x[0] - beta * e.t), *e.x[1:]) for e in events
    ]


def outcome(build):
    """``build()``'s value, or a ValueError's message with any "too large"
    overflow message read as "too large"."""
    try:
        return build()
    except ValueError as err:
        return "too large" if "too large" in str(err) else str(err)


@st.composite
def boost_stacks(draw):
    """1-3 sets of 1-8 events in 1-3 spatial dimensions, with integer or
    uniform coordinates and at times one near the float limit, and 1-4
    betas in (-0.95, 0.95)."""
    sets, n, dims = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    coordinate = st.one_of(st.integers(-6, 6).map(float), st.floats(-5.0, 5.0))
    coords = np.array(
        [[[draw(coordinate) for _ in range(1 + dims)] for _ in range(n)] for _ in range(sets)]
    )
    huge = draw(st.sampled_from([None, None, None, 1e308, -1.7e308]))
    if huge is not None:
        coords[draw(st.integers(0, sets - 1)), draw(st.integers(0, n - 1)), 0] = huge
    beta = st.one_of(
        st.sampled_from([-0.9, 0.9]), st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)
    )
    return coords, draw(st.lists(beta, min_size=1, max_size=4))


@settings(deadline=None, max_examples=300)
@given(boost_stacks())
def test_stacked_boosts_equal_per_call_boosts(case):
    coords, betas = case
    per_call = []  # per (set, beta) in stack order: (coordinates, relation), either an error
    for c in coords:
        events = tuple(Event(f"e{i}", row[0], tuple(row[1:])) for i, row in enumerate(c.tolist()))
        for beta in betas:
            moved = outcome(lambda: boost(events, beta))
            reference = boost_by_events(events, beta)
            if isinstance(moved, str):
                assert moved == "too large" and not np.isfinite(reference).all()
                per_call.append((moved, moved))
                continue
            assert [(e.t, *e.x) for e in moved] == reference
            relation = outcome(lambda: classical_order(moved).relation.tolist())
            if relation != "too large":
                assert relation == outcome(lambda: classical_by_pairs(moved).relation.tolist())
            per_call.append((reference, relation))

    def stacked():
        moved = causal._boosted(coords, betas)
        return moved, causal._light_cone(moved)

    def checked(r):
        causal._check_strict_orders(r)
        return r.tolist()

    result = outcome(stacked)
    overflowed = any("too large" in entry for entry in per_call)
    assert (result == "too large") == overflowed
    if overflowed:
        return
    n, axes = coords.shape[1:]
    moved, rel = result
    for (moved_coords, relation), m, r in zip(
        per_call, moved.reshape(-1, n, axes), rel.reshape(-1, n, n), strict=True
    ):
        assert np.array_equal(m, np.array(moved_coords))
        assert relation == outcome(lambda: checked(r))


def test_earliest_first_orientation_branches_on_ties():
    summary = enumerate_admissible_orientations(THREE_PARTY_EVENTS, "earliest-first")
    assert summary.orientation_count == 2
    orders = [summary.order(k) for k in range(summary.admissible_count)]
    # e1/e2 are simultaneous (tie, branched); e1 precedes e3 in coordinate time
    assert len(orders) == 2
    for order in orders:
        assert order.before("e1", "e3") and not order.before("e3", "e1")
    directions = {order.before("e1", "e2") for order in orders}
    assert directions == {True, False}
    assert all(order.comparable("e1", "e2") for order in orders)
    with pytest.raises(ValueError, match="policy"):
        enumerate_admissible_orientations(THREE_PARTY_EVENTS, "latest-first")


def test_hasse_edges_drop_transitive_links():
    events = (
        Event("a", 0.0, (0.0,)),
        Event("b", 1.0, (0.0,)),
        Event("c", 2.0, (0.0,)),
    )
    order = classical_order(events)
    assert order.pairs() == (("a", "b"), ("a", "c"), ("b", "c"))
    assert order.hasse_edges() == [("a", "b"), ("b", "c")]
    assert order.to_adjacency_dict() == {"a": ["b", "c"], "b": ["c"], "c": []}


def _brute_force(events, policy):
    """Every orientation the policy allows, each checked by quantum_order."""
    free = sorted(free_pairs(events), key=sorted)
    t = {e.id: e.t for e in events}
    fixed, either = [], []  # earliest-first lets only time ties go either way
    for pair in free:
        a, b = sorted(pair)
        if policy == "earliest-first" and t[a] < t[b]:
            fixed.append((a, b))
        elif policy == "earliest-first" and t[b] < t[a]:
            fixed.append((b, a))
        else:
            either.append((a, b))
    candidates = [
        fixed + [(b, a) if index >> bit & 1 else (a, b) for bit, (a, b) in enumerate(either)]
        for index in range(2 ** len(either))
    ]
    admissible = []
    for index, directed in enumerate(candidates):
        try:
            admissible.append((index, quantum_order(events, directed)))
        except ValueError as err:
            if "causal cycle" not in str(err):
                raise
    comparability = {}
    if admissible:
        for a, b in itertools.combinations(sorted(e.id for e in events), 2):
            hits = sum(order.comparable(a, b) for _, order in admissible)
            comparability[frozenset((a, b))] = (
                "all" if hits == len(admissible) else "some" if hits else "none"
            )
    return tuple(free), admissible, comparability, len(candidates)


@st.composite
def event_sets(draw, max_events=7):
    n = draw(st.integers(1, max_events))
    t = st.integers(0, 2).map(float)  # few times: many ties
    x = st.integers(-6, 6).map(float)
    group = st.sampled_from([None, "g", "h"])
    return tuple(Event(f"e{i}", draw(t), (draw(x),), draw(group)) for i in range(n))


@settings(deadline=None, max_examples=300)
@given(event_sets(), st.sampled_from(["all", "earliest-first"]))
def test_search_matches_brute_force(events, policy):
    assume(len(free_pairs(events)) <= 10)
    free, admissible, comparability, count = _brute_force(events, policy)
    summary = enumerate_admissible_orientations(events, policy)
    assert summary.free_pairs == free
    assert summary.orientation_count == count
    assert summary.indices == tuple(index for index, _ in admissible)
    assert summary.relations.shape == (len(admissible), len(events), len(events))
    for relation, (_, order) in zip(summary.relations, admissible):
        assert np.array_equal(relation, order.relation)
    assert summary.comparability == comparability


@settings(deadline=None, max_examples=200)
@given(event_sets(max_events=6), st.data())
def test_search_matches_the_oracle(load_by_path, events, data):
    oracle = load_by_path("scripts/verify_fixtures.py")
    # integer coordinates, so the oracle's ** and the engine's d * d agree
    assume(len(free_pairs(events)) <= 8)
    as_dicts = [{"id": e.id, "t": e.t, "x": list(e.x), "group": e.group} for e in events]
    ids = sorted(e.id for e in events)
    witness = (data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids)))
    section = oracle.order_section(as_dicts, witness)
    classical, free, closures = oracle.admissible_orders(as_dicts)
    summary = enumerate_admissible_orientations(events, "all")
    assert set(summary.free_pairs) == {frozenset(pair) for pair in free}
    assert (len(summary.free_pairs), summary.orientation_count, summary.admissible_count) == (
        section["freePairCount"],
        section["orientationCount"],
        section["admissibleCount"],
    )
    assert section["witnessComparableInAll"] == (
        summary.comparability.get(frozenset(witness)) == "all"
    )
    comparability = {}
    for a, b in itertools.combinations(ids, 2):
        hits = sum((a, b) in c or (b, a) in c for c in closures)
        comparability[frozenset((a, b))] = (
            "all" if hits == len(closures) else "some" if hits else "none"
        )
    assert summary.comparability == comparability
    contains, strengthens = extension_masks(summary.classical, summary.relations)
    assert bool((contains & strengthens).all()) == all(classical < c for c in closures)


def frame_results(summary):
    relations = list(zip(summary.indices, summary.relations.tolist()))
    return summary.orientation_count, relations, summary.comparability


@st.composite
def events_off_the_light_cone(draw):
    """Events and a boost, with every pair's interval at least 1e-9 from 0.

    Exactly on the cone the sign of the interval is decided by rounding in
    ``boost``; off it a boost with gamma <= 7.1 moves an interval by about
    1e-12 at most.
    """
    n = draw(st.integers(1, 6))
    coordinate = st.floats(-5.0, 5.0)
    group = st.sampled_from([None, "g", "h"])
    events = tuple(
        Event(f"e{i}", draw(coordinate), (draw(coordinate),), draw(group)) for i in range(n)
    )
    assume(all(abs(interval(a, b)) >= 1e-9 for a, b in itertools.combinations(events, 2)))
    return events, draw(st.floats(-0.99, 0.99))


@settings(deadline=None, max_examples=200)
@given(events_off_the_light_cone())
def test_all_policy_is_the_same_in_every_frame(case):
    events, beta = case
    before = enumerate_admissible_orientations(events, "all")
    after = enumerate_admissible_orientations(boost(events, beta), "all")
    assert frame_results(after) == frame_results(before)


def test_earliest_first_depends_on_the_frame():
    # e1 and e2 tie at t = 1 and e1 precedes e3; boosted by 0.5, e2 comes
    # first and e3 precedes e1, so the policy forces both pairs the other way.
    moved = boost(THREE_PARTY_EVENTS, 0.5)
    rest = enumerate_admissible_orientations(THREE_PARTY_EVENTS, "earliest-first")
    boosted = enumerate_admissible_orientations(moved, "earliest-first")
    assert (rest.orientation_count, rest.admissible_count) == (2, 2)
    assert (boosted.orientation_count, boosted.admissible_count) == (1, 1)
    e1, e3 = (rest.classical.ids.index(i) for i in ("e1", "e3"))
    assert not boosted.relations[:, e1, e3].any()
    assert rest.relations[:, e1, e3].all()
    assert frame_results(enumerate_admissible_orientations(moved, "all")) == frame_results(
        enumerate_admissible_orientations(THREE_PARTY_EVENTS, "all")
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_one_spacelike_group_has_factorial_admissible(n):
    # |chi(-1)| of the complete graph K_n is n! (Stanley 1973)
    group = tuple(Event(f"e{i}", 0.0, (10.0 * i,), "g") for i in range(n))
    pairs = n * (n - 1) // 2
    for policy in ("all", "earliest-first"):  # every pair is a time tie
        summary = enumerate_admissible_orientations(group, policy)
        assert summary.orientation_count == 2**pairs
        assert summary.admissible_count == math.factorial(n)
        assert list(summary.comparability.values()) == ["all"] * pairs


def test_earliest_first_index_bits_reverse_the_sorted_ties():
    # every pair is a time tie, so both policies branch on the same six sorted pairs
    events = tuple(Event(f"e{i}", 0.0, (x,), "g") for i, x in enumerate((0.0, 3.0, 1.0, 2.0)))
    summary = enumerate_admissible_orientations(events, "earliest-first")
    assert (summary.orientation_count, summary.admissible_count) == (64, 24)
    assert summary.indices == (
        0, 1, 3, 7, 8, 10, 11, 15, 24, 26, 30, 31, 32, 33, 37, 39, 48, 52, 53, 55, 56, 60, 62, 63
    )
    assert summary.indices == enumerate_admissible_orientations(events, "all").indices


def test_search_builds_no_order_one_orientation_at_a_time(monkeypatch):
    def refuse(*args):
        raise AssertionError("quantum_order called by the search")

    monkeypatch.setattr(causal, "quantum_order", refuse)
    summary = enumerate_admissible_orientations(THREE_PARTY_EVENTS)
    assert summary.indices == (0, 1, 3)


def closure_check(rel):
    """Reference: the n-step np.outer closure check CausalOrder made per order."""
    if np.diag(rel).any():
        raise ValueError("order must be irreflexive")
    if (rel & rel.T).any():
        raise ValueError("order must be antisymmetric")
    closure = rel.copy()
    for k in range(len(rel)):
        closure |= np.outer(closure[:, k], closure[k, :])
    if not np.array_equal(closure, rel):
        raise ValueError("order must be transitive")


def first_error(check, relations):
    try:
        for rel in relations:
            check(rel)
    except ValueError as err:
        return str(err)
    return None


@st.composite
def relations(draw, n, kinds=("order", "flipped", "arbitrary")):
    """A strict order over a random ranking, the same with one cell flipped
    (breaking one axiom or none), or an arbitrary bool matrix."""
    kind = draw(st.sampled_from(kinds))
    if kind == "arbitrary":
        cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        return np.array(cells, dtype=bool).reshape(n, n)
    rank = draw(st.permutations(range(n)))
    forward = [(i, j) for i in range(n) for j in range(n) if rank[i] < rank[j]]
    edges = draw(st.lists(st.sampled_from(forward), max_size=2 * n)) if forward else []
    rel = transitive_closure(n, edges)
    if kind == "flipped":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rel[i, j] = not rel[i, j]
    return rel


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_check_strict_orders_raises_like_closure_check(data):
    n = data.draw(st.integers(1, 7))
    rel = data.draw(relations(n))
    assert first_error(causal._check_strict_orders, [rel]) == first_error(closure_check, [rel])
    # A stack of one valid order with a few drawn relations placed in it,
    # often next to a block boundary. The first failing relation of the
    # stack is the first failing placed one.
    length = data.draw(st.integers(1, 3 * causal.CHECK_BLOCK))
    filler = data.draw(relations(n, kinds=("order",)))
    stack = np.repeat(filler[None], length, axis=0)
    block = causal.CHECK_BLOCK
    near_boundary = st.sampled_from([block - 1, block, 2 * block - 1, 2 * block])
    placed = {}
    for _ in range(data.draw(st.integers(0, 3))):
        position = min(data.draw(st.integers(0, length - 1) | near_boundary), length - 1)
        stack[position] = placed[position] = data.draw(relations(n))
    expected = first_error(closure_check, [filler] + [placed[k] for k in sorted(placed)])
    assert first_error(causal._check_strict_orders, [stack]) == expected
    assert first_error(causal._check_strict_orders, [stack[:0]]) is None


@settings(deadline=None, max_examples=150)
@given(event_sets(), st.sampled_from(["all", "earliest-first"]), st.data())
def test_order_run_verdicts_equal_per_order_checks(events, policy, data):
    assume(len(free_pairs(events)) <= 10)
    ids = [e.id for e in events]
    witness = (data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids)))
    params = {
        "events": events,
        "policy": policy,
        "witnessPair": witness,
        "expectStrengthened": True,
        "expectAdmissible": None,
    }
    with tempfile.TemporaryDirectory() as tmp:
        _, verdicts, _ = scenarios._run_order(
            params, seed=0, out=Path(tmp), stem="order", base_dir=None
        )
    summary = enumerate_admissible_orientations(events, policy)
    orders = [summary.order(k) for k in range(summary.admissible_count)]
    masks = [extension_by_pairs(summary.classical, o) for o in orders]
    assert verdicts["containsClassical"] == all(contains for contains, _ in masks)
    assert verdicts["strengthened"] == (bool(orders) and all(c and s for c, s in masks))
    assert verdicts["witnessComparable"] == (
        bool(orders) and all(o.comparable(*witness) for o in orders)
    )


def test_order_run_verdicts_fail_on_orders_that_break_them(monkeypatch, tmp_path):
    real = enumerate_admissible_orientations(THREE_PARTY_EVENTS)
    ids = real.classical.ids  # the classical order is e2 -> e3

    def relation(*pairs):
        rel = np.zeros((3, 3), dtype=bool)
        for a, b in pairs:
            rel[ids.index(a), ids.index(b)] = True
        return rel

    relations = np.stack([
        relation(("e1", "e2")),  # lacks the classical pair
        real.classical.relation,  # orders nothing new
        relation(("e1", "e2"), ("e1", "e3"), ("e2", "e3")),  # a strict extension
    ])
    built = causal.OrientationSummary(
        real.classical, real.free_pairs, (0, 1, 2), relations, real.comparability, 4
    )
    monkeypatch.setattr(causal, "enumerate_admissible_orientations", lambda *args: built)
    params = {
        "events": THREE_PARTY_EVENTS,
        "policy": "all",
        "witnessPair": None,
        "expectStrengthened": True,
        "expectAdmissible": None,
    }
    _, verdicts, _ = scenarios._run_order(
        params, seed=0, out=tmp_path, stem="order", base_dir=None
    )
    assert verdicts == {"containsClassical": False, "strengthened": False}


def test_order_run_builds_causal_orders_only_to_dump_them(monkeypatch, tmp_path):
    built, classical_calls = [], []
    post_init, classical = CausalOrder.__post_init__, causal.classical_order

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_classical(events):
        classical_calls.append(events)
        return classical(events)

    monkeypatch.setattr(CausalOrder, "__post_init__", counted_post_init)
    monkeypatch.setattr(causal, "classical_order", counted_classical)
    group = "; ".join(f"e{i} 0 {10 * i} @g" for i in range(6))
    scenario = scenarios.parse_scenario(f"kind = order\nevents = {group}\n")
    report = scenarios.run_scenario(scenario, tmp_path)
    assert report.metrics["admissibleCount"] == 720
    # the classical order (built by each classical_order call) and 32 dumped orders
    assert len(built) == len(classical_calls) + 32
    assert len(classical_calls) == 1
