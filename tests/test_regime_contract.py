"""The regime of a time depends on the time alone: every quantity given times
resolves it per point, so one time array may span both regimes."""

from __future__ import annotations

import numpy as np
import pytest

from delayvar.dubois_reymond import dr_quantity, dr_residual
from delayvar.euler_lagrange import PathRecord
from delayvar.noether import noether_quantity
from delayvar.optimal_control import second_order_noether_quantity
from delayvar.problem import TransformationGroup, augmented_integrand

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
    assert PathRecord(F, problem, ex1_traj, [0.25, 0.5]).first
    assert not PathRecord(F, problem, ex1_traj, [1.0, 1.5]).first  # t2 - tau is second
    with pytest.raises(ValueError, match="both regimes"):
        PathRecord(F, problem, ex1_traj, BOTH_REGIMES)
    assert PathRecord(F, problem, ex1_traj, []).dr_quantity.size == 0  # no times: no straddle


def test_left_limit_record_takes_the_regime_left_of_its_times(ex1_setup, ex1_traj):
    """A left limit at t2 - tau is the first regime's; one at t2 the second's."""
    F, problem = augmented_integrand(ex1_setup), ex1_setup.problem
    assert PathRecord(F, problem, ex1_traj, [0.5, 1.0], left=True).first
    assert not PathRecord(F, problem, ex1_traj, [1.5, 2.0], left=True).first
    with pytest.raises(ValueError, match="both regimes"):
        PathRecord(F, problem, ex1_traj, [1.0, 1.5], left=True)
