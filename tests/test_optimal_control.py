"""Hamiltonian layer: PMP residuals, conserved quantities, order reduction."""

from __future__ import annotations

import numpy as np
import pytest

from delayvar import registry
from delayvar.errors import OutOfDomain, WrongOrder
from delayvar.euler_lagrange import PathRecord
from delayvar.noether import noether_quantity
from delayvar.optimal_control import (
    PontryaginTriple,
    control_args_at,
    hamiltonian,
    hamiltonian_integrand,
    hamiltonian_noether_quantity,
    pmp_residuals,
    reduce_to_control,
    second_order_noether_quantity,
)
from delayvar.problem import (
    ArgLayout,
    ArgVector,
    AugmentedSetup,
    ControlProblem,
    Integrand,
    IsoperimetricProblem,
    TransformationGroup,
    args_at,
    augmented_integrand,
    integrand_from_expr,
)
from delayvar.trajectory import PolySegment, Trajectory


def _lq_problem(terminal=None) -> ControlProblem:
    return ControlProblem(
        n=1, mc=1, tau=0.5, t1=0.0, t2=1.0,
        L=Integrand(lambda v: v[2] * v[2], name="u^2"),
        phi=(Integrand(lambda v: v[3] + v[2], name="q_tau + u"),),
        history=lambda t: np.zeros(1),
        terminal_state=terminal,
    )


def _const_triple(q=0.0, u=0.0, p=0.0, lo=-0.5, mid=0.0, hi=1.0):
    def flat(value, a, b):
        return PolySegment(a, b, [[value, 0.0]])

    return PontryaginTriple(
        q=Trajectory(1, 1, [flat(q, lo, hi)]),
        u=Trajectory(1, 1, [flat(u, lo, hi)]),
        p=Trajectory(1, 1, [flat(p, mid, hi)]),
    )


class TestHamiltonian:
    def test_direct_arithmetic(self):
        cp = _lq_problem()
        args = ArgVector([0.0, 0.0, 2.0, 3.0, 0.0, 1.0], ArgLayout.control(1, 1, 0))
        assert hamiltonian(cp, args) == pytest.approx(9.0)

    def test_zero_costate_and_multiplier(self):
        cp = _lq_problem()
        args = ArgVector([0.0, 5.0, 2.0, 3.0, 0.0, 0.0], ArgLayout.control(1, 1, 0))
        assert hamiltonian(cp, args) == pytest.approx(cp.L([0.0, 5.0, 2.0, 3.0, 0.0]))

    def test_constraint_term(self):
        cp = ControlProblem(
            n=1, mc=1, tau=0.5, t1=0.0, t2=1.0,
            L=Integrand(lambda v: 0.0 * v[0], name="0"),
            phi=(Integrand(lambda v: 0.0 * v[0], name="0"),),
            g=(Integrand(lambda v: np.ones_like(np.asarray(v[0], dtype=float)), name="1"),),
            l=[0.0], history=lambda t: np.zeros(1))
        args = ArgVector([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0], ArgLayout.control(1, 1, 1))
        assert hamiltonian(cp, args) == pytest.approx(-2.0)


class TestPmpResiduals:
    def test_stationarity_algebra(self):
        cp = _lq_problem()
        triple = _const_triple(q=0.0, u=-0.5, p=1.0)
        res = pmp_residuals(cp, triple, [], 0.8)  # second regime
        assert res.stationarity[0] == pytest.approx(2 * (-0.5) + 1.0, abs=1e-12)

    def test_costate_independent_of_q(self):
        cp = _lq_problem()
        triple = _const_triple(q=0.3, u=0.0, p=2.0)
        res = pmp_residuals(cp, triple, [], 0.8)
        assert res.costate[0] == pytest.approx(0.0, abs=1e-12)  # pdot = 0, d2H = 0

    def test_state_residual_is_dynamics_defect(self):
        cp = _lq_problem()
        triple = _const_triple(q=0.4, u=0.1, p=0.0)
        res = pmp_residuals(cp, triple, [], 0.8)
        # qdot = 0, phi = q(t - tau) + u = 0.4 + 0.1
        assert res.state[0] == pytest.approx(-0.5, abs=1e-12)

    def test_first_regime_advanced_terms(self):
        cp = _lq_problem()
        triple = _const_triple(q=0.0, u=0.0, p=3.0)
        res = pmp_residuals(cp, triple, [], 0.2)  # first regime
        # costate: pdot + d2H + d4H(t+tau) = 0 + 0 + p(t+tau) = 3
        assert res.costate[0] == pytest.approx(3.0, abs=1e-12)

    def test_constant_paths_of_degree_zero(self):
        # q = 1 (its history), u = 0, p = 0 as degree-0 segments: qdot and pdot are
        # zero past the degree, so state = 0 - (q_tau + u) = -1 and the rest is 0
        cp = registry.get("autonomous-lq").build()

        def flat(value, lo):
            return Trajectory(1, 1, [PolySegment(lo, 1.0, [[value]])])

        triple = PontryaginTriple(q=flat(1.0, -0.5), u=flat(0.0, -0.5), p=flat(0.0, 0.0))
        res = pmp_residuals(cp, triple, [], np.linspace(0.0, 1.0, 9))  # both regimes
        assert np.array_equal(res.state, np.full((9, 1), -1.0))
        assert np.array_equal(res.costate, np.zeros((9, 1)))
        assert np.array_equal(res.stationarity, np.zeros((9, 1)))

    @pytest.mark.parametrize("t", [-0.25, 1.25, np.array([0.5, 1.5])])
    def test_outside_the_horizon_raises(self, t):
        # the triple covers [-0.5, 1]: -0.25 is on it but before t1 = 0
        cp = _lq_problem()
        with pytest.raises(OutOfDomain, match="evaluated on"):
            pmp_residuals(cp, _const_triple(), [], t)

    def test_solver_triple_passes(self):
        from delayvar.solver import CollocationScheme, solve_pmp

        cp = _lq_problem(terminal=[1.0])
        triple, lam, report = solve_pmp(cp, scheme=CollocationScheme(nodes=24))
        assert report.converged
        ts = np.linspace(0.02, 0.98, 49)
        res = pmp_residuals(cp, triple, lam, ts)
        assert res.sup <= 1e-5


class TestHamiltonianNoether:
    def test_time_translation_gives_energy(self):
        cp = _lq_problem()
        triple = _const_triple(q=1.0, u=0.5, p=2.0)
        group = TransformationGroup(eta=lambda t, q, u: 1.0,
                                    xi=lambda t, q, u: np.zeros(1))
        args = control_args_at(cp, triple, [], 0.7)
        assert hamiltonian_noether_quantity(cp, group, triple, [], 0.7) == pytest.approx(
            hamiltonian(cp, args))

    def test_zero_group(self):
        cp = _lq_problem()
        triple = _const_triple(q=1.0, u=0.5, p=2.0)
        group = TransformationGroup(eta=lambda t, q, u: 0.0,
                                    xi=lambda t, q, u: np.zeros(1))
        assert hamiltonian_noether_quantity(cp, group, triple, [], 0.7) == 0.0

    def test_energy_constant_along_solver_triple(self):
        from delayvar.solver import CollocationScheme, solve_pmp

        cp = _lq_problem()  # free terminal state, p(t2) = 0
        triple, lam, report = solve_pmp(cp, scheme=CollocationScheme(nodes=32))
        assert report.converged
        group = TransformationGroup(eta=lambda t, q, u: 1.0,
                                    xi=lambda t, q, u: np.zeros(1))
        ts = np.linspace(0.03, 0.97, 41)
        values = hamiltonian_noether_quantity(cp, group, triple, lam, ts)
        assert values.shape == ts.shape
        assert np.max(np.abs(values - np.mean(values))) <= 1e-5

    def test_energy_drift_recorded_for_genuinely_delayed_extremal(self):
        """Along the fixed-terminal extremal H depends on the delayed state
        (H = -c^2/4 + c q(t - tau) on the second regime), so it is NOT
        constant: the conservation claim needs the advanced-term hypothesis,
        which fails here.  The drift is measured, not hidden."""
        from delayvar.solver import CollocationScheme, solve_pmp

        cp = _lq_problem(terminal=[1.0])
        triple, lam, report = solve_pmp(cp, scheme=CollocationScheme(nodes=32))
        assert report.converged
        ts = np.linspace(0.55, 0.95, 21)
        shift = TransformationGroup(eta=lambda t, q, u: 1.0,
                                    xi=lambda t, q, u: np.zeros(1))
        values = hamiltonian_noether_quantity(cp, shift, triple, lam, ts)
        c = -48.0 / 31.0
        qdel = triple.q.eval(ts - 0.5, 0)[:, 0]
        assert np.allclose(values, -c * c / 4 + c * qdel, atol=1e-8)
        assert np.max(values) - np.min(values) > 0.05


class TestSecondOrderQuantity:
    def test_example1_values(self, ex1_setup, ex1_traj):
        assert second_order_noether_quantity(ex1_setup, ex1_traj, 1.25,
                                             eta=1.0) == pytest.approx(24.0, abs=1e-6)
        assert second_order_noether_quantity(ex1_setup, ex1_traj, 1.5,
                                             eta=1.0) == pytest.approx(-72.0, abs=1e-6)

    def test_zero_generators(self, ex1_setup, ex1_traj):
        assert second_order_noether_quantity(ex1_setup, ex1_traj, 1.25,
                                             eta=0.0) == 0.0

    def test_wrong_order(self, classical_setup, classical_traj):
        with pytest.raises(WrongOrder):
            second_order_noether_quantity(classical_setup, classical_traj, 0.7,
                                          eta=1.0)

    def test_matches_general_quantity_with_lifted_generators(self, ex1_setup, ex1_traj):
        """Corollary quantity with xi1 the time-derivative lift of xi0 equals
        the general higher-order quantity with the same group (1e-8)."""
        from delayvar.noether import rho

        rng = np.random.default_rng(13)
        for _ in range(10):
            eta_c, beta = (float(x) for x in rng.uniform(-1, 1, size=2))
            group = TransformationGroup(eta=lambda t, q: eta_c,
                                        xi=lambda t, q, beta=beta: beta * q)
            ts = rng.uniform(1.05, 1.95, size=5)
            general = noether_quantity(ex1_setup, group, ex1_traj, ts)
            corollary = second_order_noether_quantity(
                ex1_setup, ex1_traj, ts, eta=eta_c,
                xi0=lambda u, q, beta=beta: beta * q,
                xi1=lambda u, q, group=group: rho(group, ex1_traj, 1, u).T)  # (n, npts)
            assert corollary.shape == ts.shape
            assert np.all(np.abs(corollary - general) <= 1e-8 * np.maximum(1.0, np.abs(general)))


def test_both_quantities_take_arrays_with_one_call_per_generator(monkeypatch, ex1_setup,
                                                                   ex1_traj):
    """Both control quantities over a grid: one call of each generator
    (one record for the corollary), and the pointwise values to 1e-12."""
    from delayvar import optimal_control
    from delayvar.solver import CollocationScheme, solve_pmp

    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    cp = _lq_problem(terminal=[1.0])
    triple, lam, report = solve_pmp(cp, scheme=CollocationScheme(nodes=32))
    assert report.converged
    group = TransformationGroup(
        eta=counted("eta", lambda t, q, u: 1.0 + 0.5 * t * u[0]),
        xi=counted("xi", lambda t, q, u: 0.3 * q - u))
    ts = np.linspace(0.03, 0.97, 41)
    pointwise = [hamiltonian_noether_quantity(cp, group, triple, lam, float(t)) for t in ts]
    assert all(isinstance(v, float) for v in pointwise)
    calls.clear()
    swept = hamiltonian_noether_quantity(cp, group, triple, lam, ts)
    assert sorted(calls) == ["eta", "xi"]
    assert np.all(np.abs(swept - pointwise) <= 1e-12 * np.abs(pointwise))

    records = []
    plain = optimal_control.PathRecord
    monkeypatch.setattr(optimal_control, "PathRecord",
                        lambda *args, **kwargs: records.append(1) or plain(*args, **kwargs))
    xi0 = counted("xi0", lambda t, q: 0.7 * q)
    xi1 = counted("xi1", lambda t, q: np.array([t * q[0]]))
    ts = np.linspace(1.05, 1.95, 37)
    pointwise = [second_order_noether_quantity(ex1_setup, ex1_traj, float(t),
                                               eta=0.4, xi0=xi0, xi1=xi1) for t in ts]
    assert all(isinstance(v, float) for v in pointwise)
    calls.clear(), records.clear()
    swept = second_order_noether_quantity(ex1_setup, ex1_traj, ts,
                                          eta=0.4, xi0=xi0, xi1=xi1)
    assert sorted(calls) == ["xi0", "xi1"] and len(records) == 1
    assert np.all(np.abs(swept - pointwise) <= 1e-12 * np.abs(pointwise))


class TestReduceToControl:
    def test_lagrangian_round_trip(self, ex1_problem, ex1_traj):
        cp = reduce_to_control(ex1_problem)
        # control layout slots coincide with the variational flat order
        control_args = [1.5, -3.0625, -13.5, -27.0, 0.0625, 0.5, 3.0]
        assert cp.L(control_args) == pytest.approx(576.0)
        variational = ex1_problem.L(args_at(ex1_traj, 1.5, 1.0, 2).values)
        assert cp.L(control_args) == pytest.approx(float(variational))

    def test_constant_lagrangian(self, ex1_problem):
        problem = type(ex1_problem)(
            m=2, n=1, tau=1.0, t1=0.0, t2=2.0,
            L=Integrand(lambda v: np.ones_like(np.asarray(v[0], dtype=float)), name="1"),
            history=ex1_problem.history, boundary=ex1_problem.boundary)
        cp = reduce_to_control(problem)
        assert cp.L([0.5, 1, 2, 3, 4, 5, 6]) == 1.0

    def test_chain_dynamics(self, ex1_problem):
        cp = reduce_to_control(ex1_problem)
        values = [0.0, 7.0, 5.0, 9.0, 0.0, 0.0, 0.0]  # t, q0, q1, u, delayed...
        assert cp.phi[0](values) == 5.0   # qdot0 = q1
        assert cp.phi[1](values) == 9.0   # qdot1 = u

    def test_terminal_state_and_histories(self, ex1_problem):
        cp = reduce_to_control(ex1_problem)
        assert np.allclose(cp.terminal_state, [-14.0, -32.0])
        assert np.allclose(cp.history(-0.5), [-0.0625, 0.5])   # -t^4, -4t^3
        assert cp.control_history(-0.5)[0] == pytest.approx(-3.0, abs=1e-9)  # -12 t^2

    def test_histories_match_q_and_its_derivatives(self):
        # n = 2: the state history is (q0, q1, q0', q1'), components first, and
        # the control history (q0'', q1''), on a whole time array
        problem = IsoperimetricProblem(
            m=2, n=2, tau=1.0, t1=0.0, t2=2.0, L=integrand_from_expr("d2q0^2 + d2q1^2", 2, 2),
            history=lambda t: np.array([-t ** 4, 2.0 * t ** 3 - t]))
        cp = reduce_to_control(problem)
        ts = np.linspace(-1.0, 0.0, 23)
        q = np.array([-ts ** 4, 2.0 * ts ** 3 - ts])
        qd = np.array([-4.0 * ts ** 3, 6.0 * ts ** 2 - 1.0])
        qdd = np.array([-12.0 * ts ** 2, 12.0 * ts])
        assert cp.history(ts).shape == (4, 23) and cp.control_history(ts).shape == (2, 23)
        assert np.max(np.abs(cp.history(ts) - np.vstack([q, qd]))) <= 1e-12
        assert np.max(np.abs(cp.control_history(ts) - qdd)) <= 1e-12

    def test_wrong_order(self, classical_problem):
        with pytest.raises(WrongOrder):
            reduce_to_control(classical_problem)

    def test_hamiltonian_matches_variational_quantity(self, ex1_setup, ex1_traj):
        """With the momentum identities p1 = -psi_2, p0 = -psi_1 the control
        conserved quantity -p.xi + H eta equals the second-order quantity."""
        cp = reduce_to_control(ex1_setup.problem)
        H = hamiltonian_integrand(cp)
        ts = np.array([1.2, 1.55, 1.85])
        record = PathRecord(augmented_integrand(ex1_setup), ex1_setup.problem, ex1_traj, ts,
                            momenta=(1, 2))
        current = [v[:, 0] for v in ex1_traj.eval(ts, [0, 1, 2])]
        delayed = [v[:, 0] for v in ex1_traj.eval(ts - 1.0, [0, 1, 2])]
        values = [ts, *current, *delayed,
                  -record.psi[1][:, 0], -record.psi[2][:, 0], 0.0 * ts]  # p0, p1, lambda
        energy = H(values)
        variational = second_order_noether_quantity(ex1_setup, ex1_traj, ts,
                                                    eta=1.0)
        assert np.all(np.abs(energy - variational) <= 1e-8 * np.maximum(1.0, np.abs(variational)))

    def test_m1_momentum_identity(self):
        """For phi = u the stationarity residual vanishes exactly when
        p = -(d3 L + d5 L(t+tau)) along the path (first regime)."""
        from delayvar import calculus
        from delayvar.problem import IsoperimetricProblem, augmented_integrand

        rng = np.random.default_rng(17)
        a, b = (float(x) for x in rng.uniform(-1, 1, size=2))
        problem = IsoperimetricProblem(
            m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
            L=integrand_from_expr(f"{a!r} * qd^2 + {b!r} * qd * qd_tau", 1, 1))
        coeffs = rng.uniform(-1, 1, size=(1, 4))
        traj = Trajectory(1, 1, [PolySegment(-0.5, 1.0, coeffs)])
        setup = AugmentedSetup(problem, [])
        F = augmented_integrand(setup)

        # control form: q paired with u = qdot; L_c over (t; q; u; q_tau; u_tau)
        cp = ControlProblem(
            n=1, mc=1, tau=0.5, t1=0.0, t2=1.0,
            L=Integrand(problem.L.fn, name="reindexed"),
            phi=(Integrand(lambda v: v[2], name="u"),),
            history=lambda t: traj.eval(t, 0).T)
        u_traj = Trajectory(1, 1, [PolySegment(-0.5, 1.0, (coeffs[:, 1:]
                                                           * np.arange(1, 4)))])
        for t in (0.1, 0.3, 0.45):
            p_val = -(calculus.partial(F, 3, args_at(traj, t, 0.5, 1))
                      + calculus.partial(F, 5, args_at(traj, t + 0.5, 0.5, 1)))[0]
            p_traj = Trajectory(1, 1, [PolySegment(0.0, 1.0, [[float(p_val), 0.0]])])
            triple = PontryaginTriple(q=traj, u=u_traj, p=p_traj)
            res = pmp_residuals(cp, triple, [], t)
            assert abs(res.stationarity[0]) <= 1e-8
