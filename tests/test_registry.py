"""Built-in example registry."""

from __future__ import annotations

import numpy as np
import pytest

from delayvar import registry
from delayvar.problem import constraint_defect, functional_value


def test_names_are_sorted_and_unique():
    names = registry.names()
    assert names == sorted(set(names))
    assert {"example1", "autonomous-lq", "classical-iso"} <= set(names)


def test_unknown_name_raises_key_error():
    with pytest.raises(KeyError):
        registry.get("nonesuch")


def test_example1_ships_consistent_target():
    entry = registry.get("example1")
    problem = entry.build()
    traj = entry.trajectory()
    assert functional_value(problem, traj) == pytest.approx(registry.EXAMPLE1_J, abs=1e-6)
    assert constraint_defect(problem, traj)[0] == pytest.approx(0.0, abs=1e-9)
    assert entry.lam == (0.0,)


def test_example1_summary_calls_the_quartic_a_candidate():
    # its momenta jump by 48 and 24 at t = 1: the quartic is not an extremal
    summary = registry.get("example1").summary
    assert summary == "second-order nonsmooth delayed problem with a piecewise-quartic candidate"
    assert "extremal" not in summary


def test_classical_entry_ships_solution():
    entry = registry.get("classical-iso")
    traj = entry.trajectory()
    ts = np.linspace(0.0, 1.0, 41)
    assert np.allclose(traj.eval(ts, 0)[:, 0], ts * (1 - ts), atol=1e-12)
    assert entry.lam == (4.0,)


def test_classical_checks_pass():
    entry = registry.get("classical-iso")
    assert entry.build().m == 1
    gated = [c for c in entry.checks() if c.gated]
    assert gated and all(c.passed for c in gated), [c.row() for c in gated]


def test_check_rows_format():
    checks = registry.get("example1").checks()
    gated = [c for c in checks if c.gated]
    assert gated and all(c.passed for c in gated)
    name, value, threshold, status = checks[0].row()
    assert status in ("pass", "FAIL", "info")
    float(value), float(threshold)  # 17-digit reprs parse back


def test_lq_energy_is_sampled_in_one_call(monkeypatch):
    """The Hamiltonian-constancy check evaluates H on both regimes' grids in
    one call, not once per grid point: the Noether quantity of the time shift."""
    calls = []
    plain = registry.hamiltonian_noether_quantity

    def counted(cp, group, triple, lam, t):
        calls.append(np.size(t))
        return plain(cp, group, triple, lam, t)

    monkeypatch.setattr(registry, "hamiltonian_noether_quantity", counted)
    checks = registry.get("autonomous-lq").checks()
    assert all(c.passed for c in checks if c.gated)
    assert len(calls) == 1 and calls[0] > 1
