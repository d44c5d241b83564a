"""Transformation groups, invariance checks, conserved quantities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from delayvar import calculus
from delayvar.dubois_reymond import dr_quantity
from delayvar.errors import EmptyGrid, IOutOfRange, NotJetCapable, TransformEscapesDomain
from delayvar.euler_lagrange import PathRecord, residual_grids
from delayvar.noether import (
    constancy_report,
    invariance_check,
    invariance_defect,
    necessary_condition_defect,
    noether_quantity,
    rho,
)
from delayvar.problem import (
    AugmentedSetup,
    Integrand,
    IsoperimetricProblem,
    TransformationGroup,
    integrand_from_expr,
)
from delayvar.trajectory import PolySegment, Trajectory

TIME_SHIFT = TransformationGroup(eta=lambda t, q: 1.0, xi=lambda t, q: np.zeros(1))
IDENTITY = TransformationGroup(eta=lambda t, q: 0.0, xi=lambda t, q: np.zeros(1))
NON_POLYNOMIAL = TransformationGroup(eta=lambda t, q: 0.7 * np.exp(0.3 * t),
                                     xi=lambda t, q: -0.4 * q + 1.3 * np.sin(t))


@pytest.fixture
def scaled_setup(ex1_problem):
    """example1 with the integrand scaled by t: not invariant under the time shift."""
    return AugmentedSetup(IsoperimetricProblem(
        m=2, n=1, tau=1.0, t1=0.0, t2=2.0,
        L=integrand_from_expr("t * (qdd + qdd_tau)^2", 2, 1),
        g=ex1_problem.g, l=ex1_problem.l,
        history=ex1_problem.history, boundary=ex1_problem.boundary), [0.0])


class TestRho:
    def test_pure_time_shift_vanishes(self, ex1_traj):
        for i in (0, 1, 2):
            assert np.all(rho(TIME_SHIFT, ex1_traj, i, 0.5) == 0.0)

    def test_state_scaling_gives_velocity(self, ex1_traj):
        group = TransformationGroup(eta=lambda t, q: 0.0, xi=lambda t, q: q)
        assert rho(group, ex1_traj, 1, 0.5)[0] == pytest.approx(0.5, abs=1e-8)  # qdot(0.5)

    def test_time_dilation(self):
        traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 2.0, [[0.0, 0.0, 1.0]])])
        group = TransformationGroup(eta=lambda t, q: t, xi=lambda t, q: np.zeros(1))
        assert rho(group, traj, 1, 1.0)[0] == pytest.approx(-2.0, abs=1e-8)

    def test_leibniz_lift_closed_form(self):
        # eta = t^2, xi = t q on q = t^3: rho^0 = t^4, rho^1 = 4t^3 - 3t^2 (2t),
        # rho^2 = 12t^2 - 2 (6t)(2t) - 3t^2 (2)
        traj = Trajectory(1, 2, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 0.0, 0.0, 1.0]])])
        group = TransformationGroup(eta=lambda t, q: t ** 2, xi=lambda t, q: t * q)
        ts = np.linspace(-0.45, 1.0, 30)
        for i, exact in enumerate((ts ** 4, -2.0 * ts ** 3, -18.0 * ts ** 2)):
            assert np.max(np.abs(rho(group, traj, i, ts)[:, 0] - exact)) <= 1e-9

    def test_lift_at_the_left_end_of_the_domain(self):
        # the stencil takes the first piece at t = domain[0], as the last at domain[1]
        traj = Trajectory(1, 2, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 0.0, 0.0, 1.0]])])
        group = TransformationGroup(eta=lambda t, q: t ** 2, xi=lambda t, q: t * q)
        assert rho(group, traj, 1, -0.5)[0] == pytest.approx(0.25, abs=1e-9)  # -2 t^3
        assert rho(group, traj, 1, 1.0)[0] == pytest.approx(-2.0, abs=1e-9)

    def test_i_out_of_range(self, ex1_traj):
        with pytest.raises(IOutOfRange):
            rho(TIME_SHIFT, ex1_traj, 3, 0.5)


class TestInvarianceDefect:
    def test_autonomous_time_translation(self, ex1_setup, ex1_traj):
        assert abs(invariance_defect(ex1_setup, TIME_SHIFT, ex1_traj)) <= 1e-6

    def test_identity_group_is_exact(self, ex1_setup, ex1_traj):
        assert invariance_defect(ex1_setup, IDENTITY, ex1_traj) == 0.0

    def test_explicit_time_factor_detected(self, scaled_setup, ex1_traj):
        defect = invariance_defect(scaled_setup, TIME_SHIFT, ex1_traj)
        assert abs(defect) >= 0.1
        # the action rate is int d_1 F dt = int (qdd + qdd_tau)^2 dt = J = 672
        assert defect == pytest.approx(672.0, abs=1e-9)

    def test_example1_state_shift_is_exact(self, ex1_setup, ex1_traj):
        """(qdd + qdd_tau)^2 reads neither q nor q_tau, and a constant xi lifts
        to exact zeros: the defect is zero, not a stencil's remainder."""
        shift = TransformationGroup(eta=lambda t, q: 0.0, xi=lambda t, q: np.ones(1))
        assert abs(invariance_defect(ex1_setup, shift, ex1_traj)) <= 1e-12

    def test_subinterval(self, ex1_setup, ex1_traj):
        assert abs(invariance_defect(ex1_setup, TIME_SHIFT, ex1_traj, (0.25, 1.75))) <= 1e-6

    def test_interval_outside_domain(self, ex1_setup, ex1_traj):
        with pytest.raises(TransformEscapesDomain):
            invariance_defect(ex1_setup, TIME_SHIFT, ex1_traj, (-0.5, 1.0))

    def test_constant_state_shift(self, classical_problem, classical_traj):
        # L = qd^2 under q -> q + s: transformed velocity unchanged, defect 0
        setup = AugmentedSetup(classical_problem, [0.0])
        shift = TransformationGroup(eta=lambda t, q: 0.0, xi=lambda t, q: np.ones(1),
                                    gauge=integrand_from_expr("0", 1, 1))
        assert abs(invariance_defect(setup, shift, classical_traj)) <= 1e-12

    def test_nontrivial_gauge(self):
        """L = qd under q -> q + s t has action rate int d/ds (qd + s) = b - a,
        matched exactly by the gauge Phi = t."""
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=integrand_from_expr("qd", 1, 1))
        traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0, 1.0]])])
        group_nogauge = TransformationGroup(eta=lambda t, q: 0.0,
                                            xi=lambda t, q: np.array([t]))
        setup = AugmentedSetup(problem, [])
        defect_nogauge = invariance_defect(setup, group_nogauge, traj)
        assert defect_nogauge == pytest.approx(1.0, abs=1e-6)
        group = TransformationGroup(eta=lambda t, q: 0.0, xi=lambda t, q: np.array([t]),
                                    gauge=integrand_from_expr("t", 1, 1))
        assert abs(invariance_defect(setup, group, traj)) <= 1e-6


class TestNecessaryCondition:
    def test_autonomous(self, ex1_setup, ex1_traj):
        r1, r2 = necessary_condition_defect(ex1_setup, TIME_SHIFT, ex1_traj)
        assert abs(r1) <= 1e-5 and abs(r2) <= 1e-5

    def test_identity_group(self, ex1_setup, ex1_traj):
        assert necessary_condition_defect(ex1_setup, IDENTITY, ex1_traj) == (0.0, 0.0)

    def test_non_invariant_detected(self, scaled_setup, ex1_traj):
        r1, r2 = necessary_condition_defect(scaled_setup, TIME_SHIFT, ex1_traj)
        # closed form: int of d1F per regime = 48 and 624
        assert abs(r1) >= 0.05 and abs(r2) >= 0.05
        assert r1 == pytest.approx(48.0, abs=1e-5)
        assert r2 == pytest.approx(624.0, abs=1e-5)


class TestInvarianceCheck:
    """The defect is taken at the level of the functional's definition, the
    lemma's integrals from the stacked partials; on [t1, t2] the lemma
    identity equates the defect with their sum, an independent cross-check."""

    @pytest.mark.parametrize("group, expected", [
        (TIME_SHIFT, (672.0, 48.0, 624.0)),
        (TransformationGroup(eta=lambda t, q: t, xi=lambda t, q: 0.5 * q),
         (-1048.8, 624.0, -1672.8)),
    ], ids=["time-shift", "dilation"])
    def test_defect_is_the_sum_of_the_lemma_integrals(self, scaled_setup, ex1_traj, group,
                                                      expected):
        defect, first, second = invariance_check(scaled_setup, group, ex1_traj)
        assert abs(defect - (first + second)) <= 1e-9 * abs(defect)
        assert (defect, first, second) == pytest.approx(expected, rel=1e-12)

    def test_reversed_interval_raises(self, ex1_setup, ex1_traj):
        # eta = t is not a symmetry of example1: the defect on [0.2, 1.6] is far from 0
        dilation = TransformationGroup(eta=lambda t, q: t, xi=lambda t, q: np.zeros(1))
        defect, first, second = invariance_check(ex1_setup, dilation, ex1_traj, (0.2, 1.6))
        assert min(abs(defect), abs(first), abs(second)) >= 100.0
        with pytest.raises(ValueError, match=r"\[1\.6, 0\.2\]"):
            invariance_check(ex1_setup, dilation, ex1_traj, (1.6, 0.2))
        assert invariance_check(ex1_setup, dilation, ex1_traj, (0.7, 0.7)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("interval", [(math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)])
    def test_nan_interval_end_is_named(self, ex1_setup, ex1_traj, interval):
        with pytest.raises(ValueError, match=r"interval \[.*nan.*\] is reversed or not a number"):
            invariance_check(ex1_setup, TIME_SHIFT, ex1_traj, interval)

    def test_subinterval_keeps_its_value(self, scaled_setup, ex1_traj):
        # int_a^b (qdd + qdd_tau)^2 dt = int_a^b 144 (2t - 1)^2 dt, on both sides of
        # t2 - tau and inside the second regime
        assert invariance_defect(scaled_setup, TIME_SHIFT, ex1_traj,
                                 (0.25, 1.75)) == pytest.approx(378.0, rel=1e-12)
        assert invariance_defect(scaled_setup, TIME_SHIFT, ex1_traj,
                                 (1.25, 1.75)) == pytest.approx(294.0, rel=1e-12)

    def test_one_integrate_call_on_one_record(self, monkeypatch, scaled_setup, ex1_traj):
        # integrate's rule for [0, 2] split at the wall t2 - tau = 1: 64 panels of 8 nodes
        calls, records = [], []
        integrate, init = calculus.integrate, PathRecord.__init__

        def counted_integrate(*args, **kwargs):
            calls.append(args[1:3])
            return integrate(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            records.append(len(self.ts))

        monkeypatch.setattr(calculus, "integrate", counted_integrate)
        monkeypatch.setattr(PathRecord, "__init__", counted_init)
        invariance_check(scaled_setup, TIME_SHIFT, ex1_traj)
        assert calls == [(0.0, 2.0)] and records == [512]

    @pytest.mark.parametrize("interval, empty", [((1.25, 1.75), 1), ((0.25, 0.75), 2)],
                             ids=["second-regime", "first-regime"])
    def test_other_regime_integral_is_exactly_zero(self, ex1_setup, ex1_traj, interval, empty):
        values = invariance_check(ex1_setup, NON_POLYNOMIAL, ex1_traj, interval)
        assert values[empty] == 0.0 and values[3 - empty] != 0.0

    # (lam, interval): (defect, first, second) as the per-regime panel rules gave them
    NON_POLYNOMIAL_VALUES = [
        (0.0, None, (-1220.184103916293, 222.27940186912917, -1442.4635057854223)),
        (0.0, (0.25, 1.75), (-667.4396740443202, 213.25112491163358, -717.4472961064998)),
        (0.0, (1.25, 1.75), (-531.6882791241406, 0.0, -624.0789318340976)),
        (0.0, (0.25, 0.75), (-4.809368167927952, 87.58128454202908, 0.0)),
        (0.4, None, (-1096.1601137204723, 221.04752126980048, -1317.2076349902727)),
        (0.4, (0.25, 1.75), (-612.5178852227659, 211.43321676089317, -667.2403168006795)),
    ]

    @pytest.mark.parametrize("lam, interval, expected", NON_POLYNOMIAL_VALUES)
    def test_non_polynomial_group_keeps_its_values(self, ex1_problem, ex1_traj, lam, interval,
                                                   expected):
        got = invariance_check(AugmentedSetup(ex1_problem, [lam]), NON_POLYNOMIAL, ex1_traj,
                               interval)
        for value, want in zip(got, expected):
            assert abs(value - want) <= 1e-13 * max(1.0, abs(want))


class TestNoetherQuantity:
    def test_classical_line(self):
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=integrand_from_expr("qd^2", 1, 1))
        traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0]])])
        setup = AugmentedSetup(problem, [])
        for t in (0.2, 0.8):
            assert noether_quantity(setup, TIME_SHIFT, traj, t) == pytest.approx(
                -1.0, abs=1e-10)

    def test_example1_matches_dr_quantity(self, ex1_setup, ex1_traj):
        assert noether_quantity(ex1_setup, TIME_SHIFT, ex1_traj,
                                1.25) == pytest.approx(24.0, abs=1e-6)

    def test_embedded_classical_constant(self, classical_setup, classical_traj):
        values = [noether_quantity(classical_setup, TIME_SHIFT, classical_traj, t)
                  for t in (0.1, 0.33, 0.62, 0.9)]
        assert np.allclose(values, -1.0, atol=1e-9)

    def test_time_shift_identity_with_dr_quantity(self, ex1_setup, ex1_traj):
        """With eta = 1, xi = 0, gauge = 0 the conserved quantity IS the
        DuBois-Reymond bracket, exactly."""
        for t in (0.3, 0.55, 1.2, 1.83):
            C = noether_quantity(ex1_setup, TIME_SHIFT, ex1_traj, t)
            D = dr_quantity(ex1_setup, ex1_traj, t)
            assert abs(C - D) <= 1e-12


def test_m1_reduction_matches_direct_noether_form():
    """General quantity vs the directly coded first-order theorem to 1e-10."""
    from delayvar import calculus
    from delayvar.problem import args_at, augmented_integrand

    rng = np.random.default_rng(31)
    for _ in range(100):
        coeffs = rng.uniform(-1, 1, size=(1, 6))
        traj = Trajectory(1, 1, [PolySegment(-0.5, 1.0, coeffs)])
        a, b, c = (float(x) for x in rng.uniform(-1, 1, size=3))
        problem = IsoperimetricProblem(
            m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
            L=integrand_from_expr(
                f"{a!r} * qd^2 + {b!r} * q * qd_tau + {c!r} * cos(t) * q_tau", 1, 1))
        setup = AugmentedSetup(problem, [])
        F = augmented_integrand(setup)
        alpha, beta = (float(x) for x in rng.uniform(-1, 1, size=2))
        group = TransformationGroup(eta=lambda t, q: alpha,
                                    xi=lambda t, q, beta=beta: beta * q)
        t = float(rng.uniform(0.55, 0.95))  # the second regime: no advanced term
        momentum = calculus.partial(F, 3, args_at(traj, t, 0.5, 1))
        value = float(F(args_at(traj, t, 0.5, 1).values))
        qd = traj.eval(t, 1)
        q = traj.eval(t, 0)
        direct = (float(momentum @ (beta * q))
                  + (value - float(qd @ momentum)) * alpha)
        general = noether_quantity(setup, group, traj, t)
        assert general == pytest.approx(direct, abs=1e-10 * max(1.0, abs(direct)))


def _gauge_case():
    """L = qd under q -> q + s t with the gauge Phi = t (see test_nontrivial_gauge)."""
    problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                   L=integrand_from_expr("qd", 1, 1))
    traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0, 1.0]])])
    group = TransformationGroup(eta=lambda t, q: 0.0, xi=lambda t, q: np.array([t]),
                                gauge=integrand_from_expr("t", 1, 1))
    return AugmentedSetup(problem, []), group, traj


def _rotation_case():
    """n = 2 with the component-mixing generator of test_integration.py."""
    L = integrand_from_expr("d1q0^2 + d1q1^2 + d0q0 * d0q1_tau", 1, 2)
    problem = IsoperimetricProblem(m=1, n=2, tau=0.5, t1=0.0, t2=1.0, L=L)
    traj = Trajectory(2, 1, [PolySegment.from_monomial(
        -0.5, 1.0, [[0.0, 1.0, -1.0, 0.0], [0.5, 1.0, 0.0, 0.3]])])
    group = TransformationGroup(eta=lambda t, q: t, xi=lambda t, q: np.array([q[1], -q[0]]))
    return AugmentedSetup(problem, []), group, traj


class TestArrayGenerators:
    """Generators get t of shape (npts,) and q of shape (n, npts), as jets;
    sweeps evaluate them once, and scalar-only generators raise."""

    @pytest.mark.parametrize("case", ["example1-time-shift", "gauge", "rotation-n2"])
    def test_quantity_over_grid_matches_pointwise(self, case, ex1_setup, ex1_traj):
        if case == "example1-time-shift":
            setup, group, traj = ex1_setup, TIME_SHIFT, ex1_traj
        else:
            setup, group, traj = _gauge_case() if case == "gauge" else _rotation_case()
        times = residual_grids(setup.problem, traj, count=40)
        split = setup.problem.t2 - setup.problem.tau
        for ts in (times[times < split], times[times > split]):
            swept = noether_quantity(setup, group, traj, ts)
            pointwise = [noether_quantity(setup, group, traj, float(t))
                         for t in ts]
            assert all(isinstance(v, float) for v in pointwise)
            pointwise = np.array(pointwise)
            assert swept.shape == ts.shape
            scale = max(1.0, float(np.max(np.abs(pointwise))))
            assert np.max(np.abs(swept - pointwise)) <= 1e-12 * scale

    def test_scalar_only_generator_goes_through_the_adapter(self, classical_setup,
                                                            classical_traj):
        """A scalar-only generator meets jets and raises NotJetCapable at its
        one call, with no per-point retry; its numpy twin gives the defect."""
        def scalar_eta(t, q):
            return math.cos(t)  # TypeError on arrays and jets

        def scalar_xi(t, q):
            return np.array([0.3 * float(q[0]) * math.sin(t)])

        def array_eta(t, q):
            return np.cos(t)

        def array_xi(t, q):
            return np.array([0.3 * q[0] * np.sin(t)])

        with pytest.raises(TypeError):
            scalar_eta(np.zeros(3), np.zeros((1, 3)))
        scalar = TransformationGroup(eta=scalar_eta, xi=scalar_xi)
        array = TransformationGroup(eta=array_eta, xi=array_xi)
        assert invariance_defect(classical_setup, array, classical_traj) != 0.0
        with pytest.raises(NotJetCapable, match="scalar_xi"):
            invariance_defect(classical_setup, scalar, classical_traj)

    def test_gauge_rejecting_jets_is_named(self, ex1_setup, ex1_traj):
        """A gauge that rejects jets raises NotJetCapable naming the gauge,
        not the record's sampling method that calls it."""
        group = TransformationGroup(eta=lambda t, q: 1.0, xi=lambda t, q: np.zeros(1),
                                    gauge=Integrand(lambda v: math.sin(v[0]), name="sin_gauge"))
        with pytest.raises(NotJetCapable, match=r"^Integrand\(sin_gauge\) rejects"):
            invariance_defect(ex1_setup, group, ex1_traj)
        with pytest.raises(NotJetCapable, match=r"^Integrand\(sin_gauge\) rejects"):
            noether_quantity(ex1_setup, group, ex1_traj, 1.5)

    @pytest.mark.parametrize("defect", [invariance_defect, necessary_condition_defect])
    def test_generator_that_does_not_broadcast_is_called_once(self, classical_setup,
                                                              classical_traj, defect):
        """xi of three components with n = 1: the one integrand evaluation on
        every quadrature node fails, and no per-point retry calls xi again."""
        calls = []

        def xi(t, q):
            calls.append(t)
            return np.zeros(3)

        with pytest.raises(ValueError):
            defect(classical_setup, TransformationGroup(eta=lambda t, q: 0.0, xi=xi),
                   classical_traj)
        assert len(calls) == 1

    def test_constant_vector_xi_on_two_points(self):
        setup, _, traj = _rotation_case()
        group = TransformationGroup(eta=lambda t, q: 0.0, xi=lambda t, q: np.array([1.0, 2.0]))
        ts = np.array([0.6, 0.8])  # npts == n: a 1-D xi is still per component
        swept = noether_quantity(setup, group, traj, ts)
        pointwise = [noether_quantity(setup, group, traj, t) for t in ts]
        assert swept == pytest.approx(pointwise, abs=1e-12)
        assert np.allclose(rho(group, traj, 0, 0.7), [1.0, 2.0])


class TestConstancyReport:
    # classical_problem splits its regimes at t2 - tau = 0.5

    def test_constant_function(self, classical_problem):
        ts = np.concatenate([np.linspace(0.1, 0.4, 7), np.linspace(0.6, 0.9, 7)])
        report = constancy_report(lambda t: 5.0, classical_problem, ts)
        assert report.max_deviation == 0.0
        assert report.means["first"] == 5.0

    def test_linear_function_deviation(self, classical_problem):
        report = constancy_report(lambda t: t, classical_problem, np.linspace(0.5, 1.5, 11))
        assert report.deviations["second"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("ts, regime", [(np.linspace(0.1, 0.4, 7), "first"),
                                            (np.linspace(0.5, 0.9, 5), "second")])
    def test_one_regime_reports_only_its_key(self, classical_problem, ts, regime):
        report = constancy_report(lambda t: 3.0 * t, classical_problem, ts)
        assert list(report.means) == list(report.deviations) == [regime]
        assert np.array_equal(report.values, 3.0 * ts)

    def test_first_regime_keyed_first(self, classical_problem):
        ts = np.array([0.9, 0.2, 0.7, 0.1])  # the second regime's times lead
        report = constancy_report(lambda t: t, classical_problem, ts)
        assert list(report.means) == list(report.deviations) == ["first", "second"]
        assert report.means == {"first": pytest.approx(0.15), "second": pytest.approx(0.8)}
        assert np.array_equal(report.values, ts)

    def test_embedded_classical(self, classical_setup, classical_traj):
        problem = classical_setup.problem
        report = constancy_report(
            lambda t: noether_quantity(classical_setup, TIME_SHIFT, classical_traj, t), problem,
            residual_grids(problem, classical_traj, count=60))
        assert report.max_deviation <= 1e-6

    def test_empty_grids_raise(self, classical_problem):
        with pytest.raises(EmptyGrid):
            constancy_report(lambda t: 1.0, classical_problem, [])

    def test_empty_regime_raises_before_sampling(self, classical_problem):
        def quantity(t):
            raise AssertionError("quantity called on no times")

        with pytest.raises(EmptyGrid):
            constancy_report(quantity, classical_problem, np.zeros(0))

    def test_one_array_call_over_every_regime(self, classical_problem):
        calls = []

        def quantity(ts):
            calls.append(np.shape(ts))
            return 2.0 * ts

        ts = np.concatenate([np.linspace(0.1, 0.4, 7), np.linspace(0.6, 0.9, 5)])
        report = constancy_report(quantity, classical_problem, ts)
        assert calls == [(12,)]  # every regime's times at once, split afterwards
        assert report.deviations["second"] == pytest.approx(0.3, abs=1e-12)
        assert report.deviations["first"] == pytest.approx(0.3, abs=1e-12)
        assert np.array_equal(report.values, 2.0 * ts)

    def test_scalar_only_quantity(self, classical_problem):
        # called once on the time array, a scalar-only quantity raises its own
        # TypeError there: no per-point retry
        calls = []

        def quantity(t):
            calls.append(t)
            return math.sin(t)

        with pytest.raises(TypeError):
            constancy_report(quantity, classical_problem, np.linspace(0.5, 1.5, 11))
        assert len(calls) == 1 and np.shape(calls[0]) == (11,)

    def test_points_first_quantity_raises(self, classical_problem):
        with pytest.raises(ValueError):
            constancy_report(lambda t: t[:, None], classical_problem, np.linspace(0.5, 1.5, 11))
