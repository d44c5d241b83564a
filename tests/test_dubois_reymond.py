"""Generalized momenta, hypothesis residual, DuBois-Reymond quantities."""

from __future__ import annotations

import numpy as np
import pytest

from delayvar import calculus
from delayvar.dubois_reymond import cdur_residual, dr_quantity, dr_residual, psi
from delayvar.errors import EvaluationDomain, JOutOfRange, OutOfDomain
from delayvar.euler_lagrange import (
    residual_grids,
    smooth_breaks,
    stencil_bounds,
)
from delayvar.problem import (
    AugmentedSetup,
    Integrand,
    IsoperimetricProblem,
    args_at,
    augmented_integrand,
    integrand_from_expr,
)
from delayvar.solver import verify
from delayvar.trajectory import PolySegment, Trajectory


def _line_setup():
    """L = qd^2 along q = t (m = 1): an extremal of degree m."""
    problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                   L=integrand_from_expr("qd^2", 1, 1))
    traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0]])])
    return AugmentedSetup(problem, []), traj


class TestPsi:
    def test_example1_values(self, ex1_setup, ex1_traj):
        # psi_2 = d4F = 2(qdd + qdd_tau) = -48 at t = 1.5
        assert psi(ex1_setup, ex1_traj, 2, 1.5)[0] == pytest.approx(-48.0, abs=1e-8)
        # psi_1 = d3F - d/dt d4F = 0 - (-48) = 48
        assert psi(ex1_setup, ex1_traj, 1, 1.5)[0] == pytest.approx(48.0, abs=1e-7)

    def test_constant_integrand_gives_zero(self, ex1_traj):
        problem = IsoperimetricProblem(
            m=2, n=1, tau=1.0, t1=0.0, t2=2.0,
            L=Integrand(lambda v: 0.0 * v[0] + 1.0, name="1"))
        setup = AugmentedSetup(problem, [])
        for j in (1, 2):
            for t in (0.5, 1.5):  # one time in each regime
                assert abs(psi(setup, ex1_traj, j, t)[0]) <= 1e-12

    def test_j_out_of_range(self, ex1_setup, ex1_traj):
        with pytest.raises(JOutOfRange):
            psi(ex1_setup, ex1_traj, 3, 1.5)
        with pytest.raises(JOutOfRange):
            psi(ex1_setup, ex1_traj, 0, 1.5)

    def test_m1_reduction(self):
        """psi_1 equals d3F + d5F(t+tau) (first regime) / d3F (second)."""
        from delayvar import calculus
        from delayvar.problem import args_at, augmented_integrand

        rng = np.random.default_rng(8)
        for _ in range(40):
            coeffs = rng.uniform(-1, 1, size=(1, 6))
            traj = Trajectory(1, 1, [PolySegment(-0.5, 1.0, coeffs)])
            a, b = (float(x) for x in rng.uniform(-1, 1, size=2))
            problem = IsoperimetricProblem(
                m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                L=integrand_from_expr(f"{a!r} * qd^2 + {b!r} * qd * qd_tau", 1, 1))
            setup = AugmentedSetup(problem, [])
            F = augmented_integrand(setup)
            t = rng.uniform(0.55, 0.95)
            direct = calculus.partial(F, 3, args_at(traj, t, 0.5, 1))
            assert psi(setup, traj, 1, t) == pytest.approx(direct, abs=1e-10)
            t = rng.uniform(0.05, 0.45)
            direct = (calculus.partial(F, 3, args_at(traj, t, 0.5, 1))
                      + calculus.partial(F, 5, args_at(traj, t + 0.5, 0.5, 1)))
            assert psi(setup, traj, 1, t) == pytest.approx(direct, abs=1e-10)


class TestCdur:
    def test_example1_hypothesis_fails(self, ex1_setup, ex1_traj):
        assert cdur_residual(ex1_setup, ex1_traj, 0.5) == pytest.approx(-576.0, abs=1e-4)

    def test_no_delay_dependence(self, classical_setup, classical_traj):
        for t in (-0.3, 0.0, 0.25, 0.49):
            assert cdur_residual(classical_setup, classical_traj, t) == pytest.approx(0.0, abs=1e-9)

    def test_constant_trajectory(self, ex1_problem):
        flat = Trajectory(1, 2, [PolySegment(-1.0, 2.0, [[3.0, 0.0, 0.0, 0.0]])])
        setup = AugmentedSetup(ex1_problem, [0.0])
        assert cdur_residual(setup, flat, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self, ex1_setup, ex1_traj):
        with pytest.raises(OutOfDomain):
            cdur_residual(ex1_setup, ex1_traj, 1.5)  # beyond t2 - tau

    def test_trajectory_of_degree_m(self):
        # q^(m+1) of a degree-m path is zero, not an evaluation error
        setup, traj = _line_setup()
        assert np.all(cdur_residual(setup, traj, np.array([-0.4, 0.0, 0.3])) == 0.0)

    def test_unread_delayed_blocks_are_not_evaluated(self):
        """An L that names no delayed slot has exact-zero delayed partials, so
        the hypothesis residual is 0 without evaluating L: log(q) along
        q = t - 2 is non-finite everywhere, which raised EvaluationDomain when
        every slot was evaluated.  L's value still raises where it is read."""
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=integrand_from_expr("log(q)", 1, 1))
        traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[-2.0, 1.0]])])
        setup = AugmentedSetup(problem, [])
        got = cdur_residual(setup, traj, np.array([-0.4, 0.0, 0.3]))
        assert np.array_equal(got, np.zeros(3))
        with pytest.raises(EvaluationDomain):
            dr_quantity(setup, traj, np.array([0.2, 0.7]))


class TestDrQuantity:
    def test_classical_line(self):
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=integrand_from_expr("qd^2", 1, 1))
        traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0]])])
        setup = AugmentedSetup(problem, [])
        for t in (0.2, 0.8):
            assert dr_quantity(setup, traj, t) == pytest.approx(-1.0, abs=1e-10)

    def test_example1_audit_values(self, ex1_setup, ex1_traj):
        # closed form on (1, 2): -384 t^3 + 864 t^2 - 576 t + 144
        assert dr_quantity(ex1_setup, ex1_traj, 1.25) == pytest.approx(24.0, abs=1e-6)
        assert dr_quantity(ex1_setup, ex1_traj, 1.5) == pytest.approx(-72.0, abs=1e-6)


class TestDrResidual:
    def test_classical_line_vanishes(self):
        setup, traj = _line_setup()
        assert dr_residual(setup, traj, 0.7) == pytest.approx(0.0, abs=1e-9)

    def test_embedded_classical_isoperimetric(self, classical_setup, classical_traj):
        # F = qd^2 - 4q along q = t(1-t): quantity is the constant -1
        for t in (0.2, 0.31, 0.6, 0.88):
            assert dr_quantity(classical_setup, classical_traj, t) == pytest.approx(
                -1.0, abs=1e-9)
            assert abs(dr_residual(classical_setup, classical_traj, t)) <= 1e-6

    def test_example1_nonzero(self, ex1_setup, ex1_traj):
        # d/dt of the cubic at 1.5 is -576; the autonomous d1F term is 0
        value = dr_residual(ex1_setup, ex1_traj, 1.5)
        assert value == pytest.approx(-576.0, abs=1e-3)
        assert abs(value) > 10.0

    @pytest.mark.parametrize("count", [200, 20000])
    def test_example1_closed_form(self, ex1_problem, ex1_setup, ex1_traj, count):
        # d/dt of the DR bracket: 2304 t - 576 on (0, 1), -1152 t^2 + 1728 t - 576 on (1, 2)
        ts = residual_grids(ex1_problem, ex1_traj, count=count)
        exact = np.where(ts < 1.0, 2304.0 * ts - 576.0, -1152.0 * ts ** 2 + 1728.0 * ts - 576.0)
        got = dr_residual(ex1_setup, ex1_traj, ts)
        assert np.max(np.abs(got - exact)) <= 3e-6

    def test_matches_definition(self):
        """The identity equals d/dt (F - psi_1 . q') - d_1 F by a stencil on a
        nonlinear n = 2, m = 1 problem with explicit t, delayed terms and lam."""
        L = integrand_from_expr(
            "t * d1q0^2 + sin(d0q0) * d1q1_tau + d0q1 * d0q0_tau * d1q0"
            " + exp(0.3 * t) * d1q1^2 + d1q0 * d1q0_tau", 1, 2)
        g = integrand_from_expr("d0q0 * d1q1 + t * d0q1_tau^2", 1, 2)
        problem = IsoperimetricProblem(m=1, n=2, tau=0.4, t1=0.0, t2=1.0, L=L, g=(g,), l=[0.0])
        rng = np.random.default_rng(17)
        traj = Trajectory(2, 1, [PolySegment(-0.4, 1.0, rng.uniform(-1, 1, size=(2, 6)))])
        setup = AugmentedSetup(problem, [0.7])
        F = augmented_integrand(setup)
        breaks, split = smooth_breaks(problem, traj), problem.t2 - problem.tau
        times = residual_grids(problem, traj, count=60)
        for ts in (times[times < split], times[times > split]):
            lo, hi = (problem.t1, split) if ts[0] < split else (split, problem.t2)
            los, his = stencil_bounds(ts, breaks, lo, hi)
            rate = calculus.total_derivative_many(
                lambda u: dr_quantity(setup, traj, u), ts, 1, los, his,
                calculus.default_step(problem.span, 1))
            reference = rate - calculus.partial(F, 1, args_at(traj, ts, problem.tau, 1))[0]
            got = dr_residual(setup, traj, ts)
            assert np.max(np.abs(got - reference)) <= 1e-8


def test_verify_on_degree_m_extremal():
    setup, traj = _line_setup()
    report = verify(setup.problem, traj, [])
    assert all(value == 0.0 for value in report.sup.values())


def test_dr_linear_in_lambda(ex1_problem, ex1_traj):
    rng = np.random.default_rng(4)
    t = 1.4
    q0 = dr_quantity(AugmentedSetup(ex1_problem, [0.0]), ex1_traj, t)
    q1 = dr_quantity(AugmentedSetup(ex1_problem, [1.0]), ex1_traj, t)
    r0 = dr_residual(AugmentedSetup(ex1_problem, [0.0]), ex1_traj, t)
    r1 = dr_residual(AugmentedSetup(ex1_problem, [1.0]), ex1_traj, t)
    for _ in range(5):
        lam = rng.uniform(-3, 3)
        setup = AugmentedSetup(ex1_problem, [lam])
        assert dr_quantity(setup, ex1_traj, t) == pytest.approx(
            q0 + lam * (q1 - q0), rel=1e-9, abs=1e-9)
        assert dr_residual(setup, ex1_traj, t) == pytest.approx(
            r0 + lam * (r1 - r0), rel=1e-6, abs=1e-5)
