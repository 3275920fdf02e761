"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test prints its own PASS/FAIL line (visible with `pytest -s` or on
failure); the battery is also exercised end to end through the CLI.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import causal, checks, topology
from qcausal.cli import main

SEED = checks.DEFAULT_SEED


@pytest.mark.parametrize(
    "number,name,fn", checks.CRITERIA, ids=[f"c{n:02d}-{name}" for n, name, _ in checks.CRITERIA]
)
def test_criterion(number, name, fn):
    passed, details, elapsed = fn(SEED)
    print(f"{'PASS' if passed else 'FAIL'} criterion {number:2d} {name} ({elapsed:.2f}s)")
    assert passed, f"criterion {number} ({name}) failed: {details}"


def test_battery_report_is_deterministic():
    _, first = checks.run_all(seed=SEED)
    _, second = checks.run_all(seed=SEED)
    assert first["allPassed"] is True
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_cli_check_passes_and_reruns_byte_identically(tmp_path):
    assert main(["check", "--out", str(tmp_path / "a")]) == 0
    assert main(["check", "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "check_report.json").read_bytes()
    second = (tmp_path / "b" / "check_report.json").read_bytes()
    assert first == second


def test_no_signaling_fails_when_b_marginal_follows_a_axis(monkeypatch):
    """A table where A's marginal is flat but B's +1 marginal depends on A's
    axis alpha only: criterion 3 must see B's spread over alpha."""

    def signalling_tables(psi, axes_a, axes_b, site_a=0, site_b=1):
        p_up = np.linspace(0.2, 0.8, len(axes_a))[:, None, None]  # B's +1 marginal
        row = np.concatenate([p_up, 1.0 - p_up], axis=-1) / 2  # [alpha, 1, j]
        table = np.stack([row, row], axis=-2)  # both A outcomes: A's marginal is 1/2
        return np.broadcast_to(table, (len(axes_a), len(axes_b), 2, 2))

    monkeypatch.setattr(checks.entanglement, "joint_spin_tables", signalling_tables)
    passed, details, _ = checks._no_signaling(SEED)
    assert not passed
    assert abs(details["worstMarginalSpread"] - 0.6) <= 1e-12


def per_subset_points(cliques, n_vertices):
    """Criterion 9's oracle by definition: each non-empty subfamily's
    intersection as one masked AND per member, then the minimal non-empty
    results."""
    masks = np.array([sum(1 << v for v in clique) for clique in cliques], dtype=np.int64)
    subsets = np.arange(1, 2 ** len(masks), dtype=np.int64)
    inter = np.full(subsets.shape, (1 << n_vertices) - 1, dtype=np.int64)
    for i in range(len(masks)):
        chosen = (subsets >> i) & 1 == 1
        inter[chosen] &= masks[i]
    distinct = {int(m) for m in inter.tolist() if m}
    minimal = {
        m for m in distinct if not any(o != m and (o | m) == m for o in distinct)
    }
    return {
        frozenset(v for v in range(n_vertices) if m >> v & 1) for m in minimal
    }


@st.composite
def subset_families(draw):
    n = draw(st.integers(1, 12))
    family = draw(st.lists(st.frozensets(st.integers(0, n - 1)), min_size=1, max_size=12))
    return family, n


@settings(max_examples=300, deadline=None)
@given(subset_families())
def test_doubling_oracle_matches_per_subset_oracle(case):
    family, n = case
    assert checks._brute_force_points(family, n) == per_subset_points(family, n)


@pytest.mark.parametrize("index", range(3))
def test_doubling_oracle_on_named_point_graphs(index):
    g = checks._named_point_graphs()[index]
    cliques = topology.maximal_cliques(g)
    expected = per_subset_points(cliques, g.size)
    assert checks._brute_force_points(cliques, g.size) == expected
    assert expected == set(topology.points_of_m(g, topology.SUBFAMILY).points)


def test_points_oracle_enumerates_cliques_once_per_graph(monkeypatch):
    enumerate_cliques, calls = topology.maximal_cliques, []

    def counted(g):
        calls.append(g)
        return enumerate_cliques(g)

    monkeypatch.setattr(topology, "maximal_cliques", counted)
    passed, details, _ = checks._points_oracle_equivalence(SEED)
    assert passed
    assert details["resampledDenseGraphs"] > 0  # the resample rule is exercised
    assert len(calls) == 3 + 200 + details["resampledDenseGraphs"]


def test_boost_invariance_fails_on_a_frame_that_is_not_a_boost(monkeypatch):
    boosted = causal._boosted

    def halved_time(coords, betas):
        out = boosted(coords, betas)
        out[..., 0, :, :] = coords
        out[..., 0, :, 0] /= 2  # the first beta's frame: t' = t / 2, x' = x
        return out

    monkeypatch.setattr(causal, "_boosted", halved_time)
    passed, details, _ = checks._boost_invariance(SEED)
    assert not passed
    assert 1 <= details["violations"] <= details["eventSets"]


def test_boost_invariance_checks_every_boosted_order(monkeypatch):
    # five events that today's float boost leaves non-transitive at this beta
    non_transitive = np.array([(2.0, 1.0), (0.0, -2.0), (2.0, 4.0), (1.0, 0.0), (0.0, -1.0)])
    boosted = causal._boosted

    def one_bad_frame(coords, betas):
        out = boosted(coords, betas)
        if coords.shape[-2] == len(non_transitive):
            out[-1, -1] = boosted(non_transitive, [-0.43856617187632374])[0]
        return out

    monkeypatch.setattr(causal, "_boosted", one_bad_frame)
    with pytest.raises(ValueError, match="order must be transitive"):
        checks._boost_invariance(SEED)


def test_boost_invariance_orders_every_set_in_one_stack_per_size(monkeypatch):
    built, stacks = [], []
    post_init, light_cone = causal.CausalOrder.__post_init__, causal._light_cone

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_light_cone(coords):
        stacks.append(coords)
        return light_cone(coords)

    monkeypatch.setattr(causal.CausalOrder, "__post_init__", counted_post_init)
    monkeypatch.setattr(causal, "_light_cone", counted_light_cone)
    passed, details, _ = checks._boost_invariance(SEED)
    assert passed
    assert len(built) <= 1  # at most the unboosted three-party set
    event_sets, betas = checks._boost_event_sets(SEED)
    sizes = sorted({len(coords) for coords in event_sets})
    assert [stack.shape[-2] for stack in stacks] == sizes
    assert all(stack.shape[1] == 1 + len(betas) for stack in stacks)
    unboosted = [coords.tolist() for stack in stacks for coords in stack[:, 0]]
    assert sorted(unboosted) == sorted(coords.tolist() for coords in event_sets)
    assert details["eventSets"] == len(event_sets) == 101


@pytest.mark.parametrize("seed", [0, 7, SEED, 2**31])
def test_boost_event_sets_are_the_scalar_draws(seed):
    rng = np.random.default_rng(seed + 11)
    expected = [[[e.t, *e.x] for e in causal.THREE_PARTY_EVENTS]]
    for _ in range(100):
        count = int(rng.integers(2, 9))
        expected.append(
            [[float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))] for _ in range(count)]
        )
    random_betas = [float(rng.uniform(-0.9, 0.9)) for _ in range(3)]
    expected_betas = [-0.9, -0.6, -0.3, 0.3, 0.6, 0.9] + random_betas
    event_sets, betas = checks._boost_event_sets(seed)
    assert [coords.tolist() for coords in event_sets] == expected
    assert betas == expected_betas
