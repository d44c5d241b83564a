"""The regime of a time depends on the time alone: every quantity given times
resolves it per point, so one time array may span both regimes."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from delayvar import jet
from delayvar.dubois_reymond import dr_quantity, dr_residual
from delayvar.euler_lagrange import PathRecord
from delayvar.noether import noether_quantity
from delayvar.optimal_control import second_order_noether_quantity
from delayvar.problem import AugmentedSetup, TransformationGroup, augmented_integrand, \
    problem_from_json
from delayvar.solver import CollocationScheme, solve_el

TIME_SHIFT = TransformationGroup(eta=lambda t, q: 1.0, xi=lambda t, q: np.zeros(1))
BOTH_REGIMES = np.array([0.25, 0.5, 1.25, 1.5])  # example1: t2 - tau = 1
# on example1 with lambda = 0 the DuBois-Reymond bracket is 1152 t^2 - 576 t + 144
# on the first regime and -384 t^3 + 864 t^2 - 576 t + 144 on the second; its
# residual (the bracket's rate, d_1 F = 0) is 2304 t - 576 and -1152 t^2 + 1728 t - 576
BRACKET = [72.0, 144.0, 24.0, -72.0]


@pytest.mark.parametrize("quantity, closed_form", [
    (dr_quantity, BRACKET),
    (dr_residual, [0.0, 576.0, -216.0, -576.0]),
    (lambda setup, traj, t: noether_quantity(setup, TIME_SHIFT, traj, t), BRACKET),
    (lambda setup, traj, t: second_order_noether_quantity(setup, traj, t, eta=1.0), BRACKET),
], ids=["dr_quantity", "dr_residual", "noether_quantity", "second_order_noether_quantity"])
def test_one_call_spans_both_regimes(ex1_setup, ex1_traj, quantity, closed_form):
    swept = quantity(ex1_setup, ex1_traj, BOTH_REGIMES)
    pointwise = [quantity(ex1_setup, ex1_traj, float(t)) for t in BOTH_REGIMES]
    assert all(isinstance(v, float) for v in pointwise)
    assert np.all(np.abs(swept - pointwise) <= 1e-12 * np.maximum(1.0, np.abs(pointwise)))
    assert swept == pytest.approx(closed_form, abs=1e-6)


def test_record_takes_its_regime_from_its_times(ex1_setup, ex1_traj):
    F, problem = augmented_integrand(ex1_setup), ex1_setup.problem
    record = PathRecord(F, problem, ex1_traj, BOTH_REGIMES)
    assert record.first.tolist() == [True, True, False, False]
    assert record.cdur_advanced.shape == (2,)  # read on the first regime's points only
    # t2 - tau is the second regime's
    assert PathRecord(F, problem, ex1_traj, [0.5, 1.0, 1.5]).first.tolist() == [True, False, False]
    assert PathRecord(F, problem, ex1_traj, []).dr_quantity.size == 0


def test_left_limit_record_takes_the_regime_left_of_its_times(ex1_setup, ex1_traj):
    """A left limit at t2 - tau is the first regime's; one at t2 the second's."""
    F, problem = augmented_integrand(ex1_setup), ex1_setup.problem
    record = PathRecord(F, problem, ex1_traj, [0.5, 1.0, 1.5, 2.0], left=True)
    assert record.first.tolist() == [True, True, False, False]


DATA = Path(__file__).parent / "problems"


def _solved(name):
    problem = problem_from_json((DATA / f"{name}.json").read_text())
    traj, lam, _ = solve_el(problem, scheme=CollocationScheme(nodes=8))
    return AugmentedSetup(problem, lam), traj


def _along(args):
    """A generator-like map of t and q: its rates fill the record's ``along``."""
    return jet.hstack([args.values[0] * args.values[1] + jet.sin(args.values[1])])


@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
@pytest.mark.parametrize("case", ["example1", "classical_two_component", "wall_corner",
                                  "breaking_point"])
def test_one_record_equals_one_record_per_regime(request, case, left):
    """A record over both regimes holds, bit for bit, what one record per
    regime holds: the advanced terms enter the first regime's rows alone.
    The times include t2 - tau and t2, so with ``left`` the left limits there."""
    if case == "example1":
        setup, traj = request.getfixturevalue("ex1_setup"), request.getfixturevalue("ex1_traj")
    else:
        setup, traj = _solved(case)
    problem, F = setup.problem, augmented_integrand(setup)
    wall = problem.t2 - problem.tau
    ts = np.concatenate([np.linspace(problem.t1, problem.t2, 41)[1:], [wall, problem.t2]])
    whole = PathRecord(F, problem, traj, ts, along=_along, along_order=2, left=left)
    first = whole.first
    assert first.tolist() == ((np.nextafter(ts, -np.inf) if left else ts) < wall).tolist()
    assert first.any() and not first.all()
    parts = [PathRecord(F, problem, traj, ts[mask], along=_along, along_order=2, left=left)
             for mask in (first, ~first)]
    assert parts[0].first.all() and not parts[1].first.any()

    def joined(read):
        out = np.empty_like(read(whole))
        out[first], out[~first] = read(parts[0]), read(parts[1])
        return out

    reads = [lambda r, j=j: r.psi[j] for j in range(problem.m + 1)] + [
        lambda r, i=i: r.along[i] for i in range(3)] + [
        lambda r: r.dr_quantity, lambda r: r.dr_residual, lambda r: r.cdur_delayed]
    for read in reads:
        assert np.array_equal(read(whole), joined(read))
    assert np.array_equal(whole.cdur_advanced, parts[0].cdur_advanced)
    advanced = [whole.block_partial(b, advanced=True) for b in range(problem.m + 3,
                                                                    2 * problem.m + 4)]
    # F reads a delayed slot, except on the two-component problem
    assert any(np.any(p != 0.0) for p in advanced) is (case != "classical_two_component")
