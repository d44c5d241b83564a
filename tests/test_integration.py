"""Cross-module scenarios: vector states, second-order solves, and the
variational <-> control route solved both ways."""

from __future__ import annotations

import numpy as np
import pytest

from delayvar.dubois_reymond import dr_residual
from delayvar.euler_lagrange import classify, el_residual, residual_grids
from delayvar.noether import constancy_report, noether_quantity, rho
from delayvar.optimal_control import pmp_residuals, reduce_to_control
from delayvar.problem import (
    AugmentedSetup,
    IsoperimetricProblem,
    TransformationGroup,
    integrand_from_expr,
)
from delayvar.solver import CollocationScheme, solve_el, solve_pmp, verify
from delayvar.trajectory import PolySegment, Trajectory


@pytest.fixture(scope="module")
def vector_problem():
    """Two decoupled components: q0 = t(1-t) with a constraint on it,
    q1 = t free; exercises every R^n path."""
    return IsoperimetricProblem(
        m=1, n=2, tau=0.5, t1=0.0, t2=1.0,
        L=integrand_from_expr("d1q0^2 + d1q1^2", 1, 2),
        g=(integrand_from_expr("d0q0", 1, 2),),
        l=[1.0 / 6.0],
        history=lambda t: np.array([t * (1.0 - t), t]),
        boundary=[[0.0, 1.0]],
    )


@pytest.fixture(scope="module")
def vector_traj():
    # components: t - t^2 and t on one segment
    return Trajectory(2, 1, [PolySegment.from_monomial(
        -0.5, 1.0, [[0.0, 1.0, -1.0], [0.0, 1.0, 0.0]])])


class TestVectorState:
    def test_el_residual_shape_and_value(self, vector_problem, vector_traj):
        setup = AugmentedSetup(vector_problem, [4.0])
        res = el_residual(setup, vector_traj, 0.7)
        assert res.shape == (2,)
        assert np.max(np.abs(res)) <= 1e-8  # both components extremal
        sweep = el_residual(setup, vector_traj, np.array([0.2, 0.4, 0.7]))
        assert sweep.shape == (3, 2)

    def test_wrong_multiplier_shows_in_first_component_only(self, vector_problem,
                                                            vector_traj):
        res = el_residual(AugmentedSetup(vector_problem, [0.0]), vector_traj, 0.7)
        assert abs(res[0]) > 1.0      # 2 qdd0 = -lambda violated
        assert abs(res[1]) <= 1e-9    # q1 = t solves its free equation

    def test_solver_recovers_both_components(self, vector_problem):
        traj, lam, report = solve_el(vector_problem, scheme=CollocationScheme(nodes=24))
        assert report.converged
        assert lam[0] == pytest.approx(4.0, abs=1e-6)
        ts = np.linspace(0.0, 1.0, 101)
        out = traj.eval(ts, 0)
        assert np.max(np.abs(out[:, 0] - ts * (1 - ts))) <= 1e-7
        assert np.max(np.abs(out[:, 1] - ts)) <= 1e-7

    def test_verify_and_classify(self, vector_problem, vector_traj):
        report = verify(vector_problem, vector_traj, [4.0])
        assert report.sup["el_first"] <= 1e-6
        assert report.sup["dr_second"] <= 1e-6
        assert not report.hypothesis_violated
        assert report.abnormal is False
        assert classify(vector_problem, vector_traj).value == "normal"

    def test_vector_group_quantities(self, vector_problem, vector_traj):
        setup = AugmentedSetup(vector_problem, [4.0])
        group = TransformationGroup(eta=lambda t, q: 1.0, xi=lambda t, q: np.zeros(2))
        con = constancy_report(
            lambda t: noether_quantity(setup, group, vector_traj, t), vector_problem,
            residual_grids(vector_problem, vector_traj, count=40))
        assert con.max_deviation <= 1e-6
        # rho with a component-mixing generator
        mix = TransformationGroup(eta=lambda t, q: 0.0,
                                  xi=lambda t, q: np.array([q[1], -q[0]]))
        lift = rho(mix, vector_traj, 1, 0.6)
        # d/dt (q1, -q0) = (1, 2t - 1) at 0.6 -> (1, 0.2)
        assert np.allclose(lift, [1.0, 0.2], atol=1e-7)


@pytest.fixture(scope="module")
def cubic_m2_problem():
    """Second-order problem with inert delay: minimize int qdd^2 with data
    picked so the unique extremal is q = t^3 (fourth derivative zero)."""
    return IsoperimetricProblem(
        m=2, n=1, tau=0.4, t1=0.0, t2=1.0,
        L=integrand_from_expr("qdd^2", 2, 1),
        history=lambda t: np.array([t ** 3]),
        boundary=[[1.0], [3.0]],  # q(1) = 1, qd(1) = 3
    )


class TestSecondOrderSolve:
    def test_recovers_cubic(self, cubic_m2_problem):
        traj, lam, report = solve_el(cubic_m2_problem, scheme=CollocationScheme(nodes=18))
        assert report.converged
        ts = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(traj.eval(ts, 0)[:, 0] - ts ** 3)) <= 1e-8
        # left boundary data came from the history derivatives
        assert abs(traj.eval(0.0, 1)[0]) <= 1e-9

    def test_solution_passes_residual_sweep(self, cubic_m2_problem):
        traj, lam, report = solve_el(cubic_m2_problem, scheme=CollocationScheme(nodes=18))
        setup = AugmentedSetup(cubic_m2_problem, lam)
        ts = residual_grids(cubic_m2_problem, traj, count=80)
        assert np.max(np.abs(el_residual(setup, traj, ts))) <= 1e-9
        drr = np.atleast_1d(dr_residual(setup, traj, ts))
        assert np.max(np.abs(drr)) <= 1e-9

    def test_control_route_agrees(self, cubic_m2_problem):
        """Reduce to the chain control form and solve the Pontryagin system:
        the state component q0 must be the same cubic."""
        cp = reduce_to_control(cubic_m2_problem)
        assert cp.n == 2 and cp.mc == 1
        assert np.allclose(cp.terminal_state, [1.0, 3.0])
        triple, lam, report = solve_pmp(cp, scheme=CollocationScheme(nodes=24))
        assert report.converged
        ts = np.linspace(0.0, 1.0, 81)
        assert np.max(np.abs(triple.q.eval(ts, 0)[:, 0] - ts ** 3)) <= 1e-7
        assert np.max(np.abs(triple.q.eval(ts, 0)[:, 1] - 3 * ts ** 2)) <= 1e-6
        assert np.max(np.abs(triple.u.eval(ts, 0)[:, 0] - 6 * ts)) <= 1e-5
        res = pmp_residuals(cp, triple, lam, np.linspace(0.03, 0.97, 33))
        assert res.sup <= 1e-6
