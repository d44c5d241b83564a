"""One sweep per call: no path evaluation is repeated within a call.

Every residual reads the same record of path values, so within one
``verify``, one ``delayvar residuals``, ``conserved`` or ``invariance`` run the
trajectory is never asked twice for the same derivative orders at the same
times, nor for values that nothing reads.  Nor is an expression evaluated for
a partial in a slot it does not name: that partial is an exact zero.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from delayvar import cli, expr
from delayvar.euler_lagrange import PathRecord
from delayvar.registry import get
from delayvar.solver import verify
from delayvar.trajectory import Trajectory


def _count_repeats(monkeypatch, call) -> tuple[int, int]:
    """(repeated, total) point-orders over the Trajectory.eval calls of call()."""
    original = Trajectory.eval
    seen: set = set()
    kept = []  # keeps evaluated trajectories alive, so their ids stay unique
    counts = [0, 0]

    def counting(self, t, order=0, left=False):
        times = np.atleast_1d(np.asarray(t, dtype=float))
        orders = tuple(int(o) for o in np.atleast_1d(order))
        sides = np.broadcast_to(np.asarray(left, dtype=bool), times.shape).tobytes()
        key = (id(self), times.tobytes(), orders, sides)
        points = times.size * len(orders)
        counts[1] += points
        if key in seen:
            counts[0] += points
        seen.add(key)
        kept.append(self)
        return original(self, t, order, left)

    monkeypatch.setattr(Trajectory, "eval", counting)
    call()
    return counts[0], counts[1]


def test_verify_evaluates_each_point_once(monkeypatch):
    entry = get("example1")
    problem, traj = entry.build(), entry.trajectory()
    repeated, total = _count_repeats(
        monkeypatch, lambda: verify(problem, traj, entry.lam, grid_count=200))
    assert total > 0
    assert repeated == 0


def test_residuals_command_evaluates_each_point_once(monkeypatch):
    def run():
        with redirect_stdout(io.StringIO()):
            assert cli.main(["residuals", "--example", "example1", "--grid", "200"]) == 0

    repeated, total = _count_repeats(monkeypatch, run)
    assert total > 0
    assert repeated == 0


def test_verify_command_evaluates_each_point_once(monkeypatch):
    """``delayvar verify example1`` reads the classification, the functionals
    and the DuBois-Reymond quantity from the sweeps ``verify`` already made."""
    def run():
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "example1"]) == 0

    repeated, total = _count_repeats(monkeypatch, run)
    assert total > 0
    assert repeated == 0


def test_conserved_command_evaluates_each_point_once(monkeypatch):
    """``delayvar conserved`` reads the hypothesis residual from its Noether
    record instead of sweeping the path again."""
    def run():
        with redirect_stdout(io.StringIO()):
            assert cli.main(["conserved", "--example", "example1", "--eta", "1",
                             "--xi", "0"]) == 0

    repeated, total = _count_repeats(monkeypatch, run)
    assert total > 0
    assert repeated == 0


def test_invariance_command_evaluates_each_point_once(monkeypatch):
    """``delayvar invariance`` reads the defect and both lemma integrals from
    one record on the nodes of one integrate rule for [t1, t2], and only the
    lemma reads the advanced path: 6 400 point-orders for example1 (512 nodes
    and 5 orders at t and t - tau, 256 nodes at t + tau on the first regime),
    where 64 panels per regime made 12 800 and separate defect and lemma
    records 17 920."""
    def run():
        with redirect_stdout(io.StringIO()):
            assert cli.main(["invariance", "--example", "example1", "--eta", "1",
                             "--xi", "0"]) == 0

    repeated, total = _count_repeats(monkeypatch, run)
    assert repeated == 0
    assert 0 < total <= 6400


def test_invariance_command_builds_one_group_record(monkeypatch):
    """One record with the generator jets, on both regimes' quadrature nodes,
    serves the defect and both lemma integrals; one per regime was built before."""
    original = PathRecord.__init__
    groups = []

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self._along is not None:
            groups.append(self.first)

    monkeypatch.setattr(PathRecord, "__init__", counting)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["invariance", "--example", "example1", "--eta", "1", "--xi", "0"]) == 0
    [first] = groups
    assert first.any() and not first.all()


def _run_cli(argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _verify_example1():
    entry = get("example1")
    verify(entry.build(), entry.trajectory(), entry.lam, grid_count=200)


# example1's L = (qdd + qdd_tau)^2 and g = (qd + qd_tau)^2 read 2 of the 7 slots
# each; evaluating every slot's partial made 31, 20, 15 and 22 calls, and one
# record per regime 13, 8, 10 and 12
@pytest.mark.parametrize("call, ceiling", [
    (_verify_example1, 9),
    (lambda: _run_cli(["residuals", "--example", "example1", "--grid", "200"]), 5),
    (lambda: _run_cli(["conserved", "--example", "example1", "--eta", "1", "--xi", "0"]), 6),
    (lambda: _run_cli(["invariance", "--example", "example1", "--eta", "1", "--xi", "0"]), 8),
], ids=["verify", "residuals", "conserved", "invariance"])
def test_expressions_are_evaluated_only_for_slots_they_read(monkeypatch, call, ceiling):
    calls = []
    plain = expr.bind_eval
    monkeypatch.setattr(expr, "bind_eval", lambda *a: calls.append(a) or plain(*a))
    call()
    assert 0 < len(calls) <= ceiling
