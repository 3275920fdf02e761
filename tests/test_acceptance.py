"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test prints its own PASS/FAIL line (visible with `pytest -s` or on
failure); the battery is also exercised end to end through the CLI.
"""

import json

import numpy as np
import pytest

from qcausal import checks
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
