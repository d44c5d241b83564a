"""Collocation solvers: the delayed EL BVP, the Pontryagin system, and the
aggregate verification report."""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from delayvar import calculus, jet
from delayvar.euler_lagrange import el_residual
from delayvar.optimal_control import PontryaginTriple, pmp_residuals
from delayvar.problem import (
    ArgVector,
    AugmentedSetup,
    ControlProblem,
    Integrand,
    IsoperimetricProblem,
    constraint_defect,
    functional_value,
    integrand_from_expr,
    problem_from_json,
)
from delayvar import expr, problem as problem_module, solver
from delayvar.errors import NotJetCapable
from delayvar.solver import CollocationScheme, solve_el, solve_pmp, verify
from delayvar.trajectory import PolySegment, Trajectory


class TestSolveEl:
    def test_recovers_classical_solution(self, classical_problem):
        traj, lam, report = solve_el(classical_problem, scheme=CollocationScheme(nodes=64))
        assert report.converged
        assert abs(lam[0] - 4.0) <= 1e-5
        ts = np.linspace(0.0, 1.0, 201)
        assert np.max(np.abs(traj.eval(ts, 0)[:, 0] - ts * (1 - ts))) <= 1e-5

    def test_zero_iterations_reports_nonconvergence(self, classical_problem):
        traj, lam, report = solve_el(classical_problem,
                                     scheme=CollocationScheme(nodes=16, max_iterations=0))
        assert not report.converged
        assert report.iterations == 0

    def test_boundary_rows_enforced_even_without_convergence(self, classical_problem):
        traj, lam, report = solve_el(classical_problem,
                                     scheme=CollocationScheme(nodes=16, max_iterations=0))
        # terminal and history matching are linear rows, projected exactly
        assert abs(traj.eval(1.0, 0)[0] - 0.0) <= 1e-10
        assert abs(traj.eval(0.0, 0)[0] - 0.0) <= 1e-10

    def test_start_at_solution_converges_immediately(self, classical_problem, classical_traj):
        traj, lam, report = solve_el(classical_problem, initial=(classical_traj, [4.0]),
                                     scheme=CollocationScheme(nodes=32))
        assert report.converged
        assert report.iterations <= 2
        assert abs(lam[0] - 4.0) <= 1e-8

    @pytest.mark.parametrize("lam", [[1.0, 2.0], [], [float("nan")], [[4.0]]],
                             ids=["two", "none", "nan", "nested"])
    def test_malformed_initial_multipliers_are_named(self, classical_problem, classical_traj,
                                                      lam):
        with pytest.raises(ValueError, match=r"initial multipliers .*need shape \(1,\)"):
            solve_el(classical_problem, initial=(classical_traj, lam),
                     scheme=CollocationScheme(nodes=16))

    def test_solution_is_valid_trajectory(self, classical_problem):
        traj, _, report = solve_el(classical_problem, scheme=CollocationScheme(nodes=24))
        assert report.converged
        traj.validate()

    def test_duplicated_constraint_raises_singular_jacobian(self):
        from delayvar.errors import SingularJacobian

        problem = IsoperimetricProblem(
            m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
            L=integrand_from_expr("qd^2", 1, 1),
            g=(integrand_from_expr("q", 1, 1), integrand_from_expr("q", 1, 1)),
            l=[1 / 6, 1 / 6],
            history=lambda t: np.array([t * (1 - t)]), boundary=[[0.0]])
        with pytest.raises(SingularJacobian):
            solve_el(problem, scheme=CollocationScheme(nodes=16))

    def test_constraint_rejecting_jets(self, classical_problem):
        """A constraint that rejects jets raises NotJetCapable, with no
        finite-difference rows; its numpy twin solves to the exact answer."""
        g = Integrand(lambda v: np.asarray(v[1], dtype=float), name="q as array")
        with pytest.raises(NotJetCapable, match="q as array") as info:
            solve_el(dataclasses.replace(classical_problem, g=(g,)),
                     scheme=CollocationScheme(nodes=64))
        assert isinstance(info.value.__cause__, TypeError)
        twin = Integrand(lambda v: np.multiply(v[1], 1.0), name="q by a ufunc")
        traj, lam, report = solve_el(dataclasses.replace(classical_problem, g=(twin,)),
                                     scheme=CollocationScheme(nodes=64))
        assert report.converged
        assert abs(lam[0] - 4.0) <= 1e-5
        ts = np.linspace(0.0, 1.0, 201)
        assert np.max(np.abs(traj.eval(ts, 0)[:, 0] - ts * (1 - ts))) <= 1e-5

    def test_missing_boundary_raises_before_collocation(self, monkeypatch, classical_problem):
        # natural end conditions have no rows: the record would have m n fewer
        # rows than unknowns
        monkeypatch.setattr(solver, "_mesh", lambda *args: pytest.fail("collocation work"))
        with pytest.raises(ValueError, match="problem has no boundary"):
            solve_el(dataclasses.replace(classical_problem, boundary=None))

    def test_deterministic(self, classical_problem):
        out1 = solve_el(classical_problem, scheme=CollocationScheme(nodes=24))
        out2 = solve_el(classical_problem, scheme=CollocationScheme(nodes=24))
        assert out1[2].residual_norm == out2[2].residual_norm
        assert np.array_equal(out1[1], out2[1])
        ts = np.linspace(0, 1, 37)
        assert np.array_equal(out1[0].eval(ts, 0), out2[0].eval(ts, 0))


def _cosh_problem():
    """L = qd^2 + 4 pi^2 q^2 with g = [q]: EL gives 2 qdd - 8 pi^2 q + lam = 0.
    Built backward from lam* = 1 and q(0) = q(1) = 0, so the solution is
    A cosh(2 pi t) + B sinh(2 pi t) + 1/(8 pi^2) with known A, B."""
    w = 2 * math.pi
    off = 1.0 / (2 * w * w)
    A = -off
    B = (-A * math.cosh(w) - off) / math.sinh(w)

    def exact(t):
        return A * np.cosh(w * t) + B * np.sinh(w * t) + off

    assert abs(exact(0.0)) < 1e-15 and abs(exact(1.0)) < 1e-15

    l_target = (A * math.sinh(w) + B * (math.cosh(w) - 1)) / w + off
    problem = IsoperimetricProblem(
        m=1, n=1, tau=0.25, t1=0.0, t2=1.0,
        L=integrand_from_expr(f"qd^2 + {4 * math.pi ** 2!r} * q^2", 1, 1),
        g=(integrand_from_expr("q", 1, 1),), l=[l_target],
        history=lambda t: np.atleast_1d(exact(t)), boundary=[[0.0]])
    return problem, exact


class TestMeshRefinement:
    def test_error_decreases_with_order_at_least_two(self):
        problem, exact = _cosh_problem()
        ts = np.linspace(0.0, 1.0, 301)
        errors = []
        for nodes in (8, 16, 32):
            traj, lam, report = solve_el(problem, scheme=CollocationScheme(nodes=nodes))
            assert report.converged
            errors.append(float(np.max(np.abs(traj.eval(ts, 0)[:, 0] - exact(ts)))))
        assert errors[1] < errors[0] and errors[2] < errors[1]
        order = math.log2(errors[0] / errors[2]) / 2
        assert order >= 2.0
        assert abs(lam[0] - 1.0) <= 1e-6

    @pytest.mark.parametrize("first, second", [((0.3,), (0.6,)), ((0.3,), (0.2, 0.45, 0.7))])
    def test_extra_knots_inside_the_regimes(self, monkeypatch, classical_problem, first,
                                            second):
        # the record reads its mesh from the edges alone: knots off the uniform
        # grid and, in the second case, regimes of unequal segment counts, so
        # that t2 - tau is not the middle edge
        plain = solver._mesh
        knots = [0.5 * f for f in first] + [0.5 + 0.5 * f for f in second]  # t2 - tau = 0.5

        def uneven(*args):
            panels, edges = plain(*args)
            return panels, np.sort(np.concatenate([edges, knots]))

        monkeypatch.setattr(solver, "_mesh", uneven)
        traj, lam, report = solve_el(classical_problem, scheme=CollocationScheme(nodes=16))
        assert report.converged and report.iterations == 1
        assert abs(lam[0] - 4.0) <= 1e-9
        # 6 history panels, then 6 segments per regime and one more per knot
        assert len(traj.segments) == 6 + 12 + len(knots)
        assert set(knots) <= set(traj.breakpoints())
        ts = np.linspace(-0.5, 1.0, 301)
        assert np.max(np.abs(traj.eval(ts, 0)[:, 0] - ts * (1 - ts))) <= 1e-9
        # the solution interpolated on the same mesh is a start that has converged
        _, _, again = solve_el(classical_problem, initial=(traj, lam),
                               scheme=CollocationScheme(nodes=16))
        assert again.converged and again.iterations == 0

    def test_smooth_solution_converges_at_order_five(self):
        # L = qd^2 + q^2 reads no delayed slot; with q = 1 on the history and
        # q(1) = 0 the extremal is sinh(1 - t) / sinh 1, and J = coth 1.  The sup
        # error on 2001 times falls as 2.9e-9 / 9.2e-11 / 2.9e-12 at nodes 12 / 24 /
        # 48 (orders 4.98 and 4.99), and J superconverges to roundoff.
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=integrand_from_expr("qd^2 + q^2", 1, 1),
                                       history=lambda t: np.array([np.ones_like(t)]),
                                       boundary=[[0.0]])
        ts = np.linspace(0.0, 1.0, 2001)
        errors = []
        for nodes in (12, 24, 48):
            traj, _, report = solve_el(problem, scheme=CollocationScheme(nodes=nodes,
                                                                         tolerance=1e-12))
            assert report.converged
            errors.append(float(np.max(np.abs(traj.eval(ts, 0)[:, 0]
                                              - np.sinh(1.0 - ts) / math.sinh(1.0)))))
            assert abs(functional_value(problem, traj) - 1.0 / math.tanh(1.0)) <= 1e-13
        assert min(math.log2(a / b) for a, b in zip(errors, errors[1:])) >= 4.8

    def test_classical_error_stays_at_roundoff(self, classical_problem):
        # the quadratic solution is represented exactly at every mesh, so the
        # error sits at the roundoff floor instead of showing an order
        ts = np.linspace(0.0, 1.0, 101)
        for nodes in (8, 16, 32):
            traj, _, report = solve_el(classical_problem,
                                       scheme=CollocationScheme(nodes=nodes))
            assert report.converged
            err = float(np.max(np.abs(traj.eval(ts, 0)[:, 0] - ts * (1 - ts))))
            assert err <= 1e-9


def _lq(terminal=None):
    return ControlProblem(
        n=1, mc=1, tau=0.5, t1=0.0, t2=1.0,
        L=Integrand(lambda v: v[2] * v[2], name="u^2"),
        phi=(Integrand(lambda v: v[3] + v[2], name="q_tau + u"),),
        history=lambda t: np.zeros(1), terminal_state=terminal)


class TestSolvePmp:
    def test_trivial_lq_solution_is_zero(self):
        triple, lam, report = solve_pmp(_lq(), scheme=CollocationScheme(nodes=64))
        assert report.converged
        ts = np.linspace(0.0, 1.0, 41)
        for traj in (triple.q, triple.p, triple.u):
            assert np.max(np.abs(traj.eval(ts, 0))) <= 1e-9

    def test_method_of_steps_oracle_with_terminal_state(self):
        """q(1) = 1: costate c(1.5 - t) then c on the two regimes, u = -p/2,
        with c = -48/31 fixed by the terminal condition."""
        triple, lam, report = solve_pmp(_lq(terminal=[1.0]),
                                        scheme=CollocationScheme(nodes=48))
        assert report.converged
        c = -48.0 / 31.0
        ts2 = np.linspace(0.52, 1.0, 25)
        assert np.max(np.abs(triple.p.eval(ts2, 0)[:, 0] - c)) <= 1e-8
        ts1 = np.linspace(0.0, 0.48, 25)
        assert np.max(np.abs(triple.p.eval(ts1, 0)[:, 0] - c * (1.5 - ts1))) <= 1e-8
        assert np.max(np.abs(triple.u.eval(ts1, 0)[:, 0]
                             + triple.p.eval(ts1, 0)[:, 0] / 2)) <= 1e-10
        q_exact = -(c / 2) * (1.5 * ts1 - ts1 ** 2 / 2)
        assert np.max(np.abs(triple.q.eval(ts1, 0)[:, 0] - q_exact)) <= 1e-8
        assert abs(triple.q.eval(1.0, 0)[0] - 1.0) <= 1e-10

    def test_constrained_control_oracle(self):
        """k = 1 with g = u and l = 1: stationarity 2u - lam + p = 0 with
        p = 0 gives u = lam/2, so the multiplier must come out as 2."""
        cp = ControlProblem(
            n=1, mc=1, tau=0.5, t1=0.0, t2=1.0,
            L=Integrand(lambda v: v[2] * v[2], name="u^2"),
            phi=(Integrand(lambda v: v[3] + v[2], name="q_tau + u"),),
            g=(Integrand(lambda v: v[2], name="u"),), l=[1.0],
            history=lambda t: np.zeros(1))
        triple, lam, report = solve_pmp(cp, scheme=CollocationScheme(nodes=32))
        assert report.converged
        assert abs(lam[0] - 2.0) <= 1e-8
        ts = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(triple.u.eval(ts, 0)[:, 0] - 1.0)) <= 1e-8
        assert np.max(np.abs(triple.p.eval(ts, 0))) <= 1e-8

    def test_dynamics_rejecting_jets(self):
        """A phi that rejects jets raises NotJetCapable naming that phi, not
        the Hamiltonian wrapping it; its numpy twin solves."""
        phi = Integrand(lambda v: np.asarray(v[3] + v[2], dtype=float), name="q_tau + u as array")
        with pytest.raises(NotJetCapable, match="q_tau \\+ u as array") as info:
            solve_pmp(dataclasses.replace(_lq(terminal=[1.0]), phi=(phi,)),
                      scheme=CollocationScheme(nodes=16))
        assert isinstance(info.value.__cause__, TypeError)
        twin = Integrand(lambda v: np.add(v[3], v[2]), name="q_tau + u by a ufunc")
        _, _, report = solve_pmp(dataclasses.replace(_lq(terminal=[1.0]), phi=(twin,)),
                                 scheme=CollocationScheme(nodes=16))
        assert report.converged

    def test_start_at_solution_converges_immediately(self):
        scheme = CollocationScheme(nodes=48)
        triple, lam, _ = solve_pmp(_lq(terminal=[1.0]), scheme=scheme)
        again, _, report = solve_pmp(_lq(terminal=[1.0]), initial=(triple, lam), scheme=scheme)
        assert report.converged and report.iterations == 0
        ts = np.linspace(0.0, 1.0, 41)
        for name in ("q", "p", "u"):
            assert np.max(np.abs(getattr(again, name).eval(ts, 0)
                                 - getattr(triple, name).eval(ts, 0))) <= 1e-12, name

    @pytest.mark.parametrize("lam", [[1.0], [float("inf")]], ids=["one", "inf"])
    def test_malformed_initial_multipliers_are_named(self, lam):
        # the LQ problem has no constraint: only an empty multiplier vector fits
        scheme = CollocationScheme(nodes=16)
        triple, _, _ = solve_pmp(_lq(terminal=[1.0]), scheme=scheme)
        with pytest.raises(ValueError, match=r"initial multipliers .*need shape \(0,\)"):
            solve_pmp(_lq(terminal=[1.0]), initial=(triple, lam), scheme=scheme)

    def test_warm_start_calls_each_guess_once(self, monkeypatch):
        scheme = CollocationScheme(nodes=48)
        triple, lam, _ = solve_pmp(_lq(terminal=[1.0]), scheme=scheme)
        guesses, calls = {id(triple.q): "q", id(triple.p): "p", id(triple.u): "u"}, []
        plain = Trajectory.eval

        def counted(traj, t, order=0, left=False):
            if id(traj) in guesses:
                calls.append((guesses[id(traj)], np.shape(t)))
            return plain(traj, t, order, left)

        monkeypatch.setattr(Trajectory, "eval", counted)
        _, _, report = solve_pmp(_lq(terminal=[1.0]), initial=(triple, lam), scheme=scheme)
        assert report.converged and report.iterations == 0
        # one call over all 32 segments, 4 (q, p) or 3 (u) Chebyshev nodes each
        assert calls == [(name, (32 * width,)) for name, width in (("q", 4), ("p", 4), ("u", 3))]

    def test_perturbed_start_converges_to_the_same_multiplier(self):
        cp, scheme = _constrained_control(), CollocationScheme(nodes=16)
        triple, lam, _ = solve_pmp(cp, scheme=scheme)

        def scaled(traj, factor):
            # the history scaled too leaves a jump at t1: the start need not be smooth
            return Trajectory(traj.n, traj.m, [PolySegment(seg.a, seg.b, factor * seg.coeffs)
                                               for seg in traj.segments], validate=False)

        start = (dataclasses.replace(triple, u=scaled(triple.u, 1.3), p=scaled(triple.p, 0.7)),
                 lam + 0.5)
        _, again, report = solve_pmp(cp, initial=start, scheme=scheme)
        assert report.converged and report.iterations >= 1
        assert abs(again[0] - lam[0]) <= 1e-12

    def test_zero_iterations(self):
        triple, lam, report = solve_pmp(_lq(terminal=[1.0]),
                                        scheme=CollocationScheme(nodes=16, max_iterations=0))
        assert not report.converged and report.iterations == 0
        # terminal and continuity rows still enforced linearly
        assert abs(triple.q.eval(1.0, 0)[0] - 1.0) <= 1e-10


def _constrained_control():
    return ControlProblem(
        n=1, mc=1, tau=0.5, t1=0.0, t2=1.0,
        L=Integrand(lambda v: v[2] * v[2], name="u^2"),
        phi=(Integrand(lambda v: v[3] + v[2], name="q_tau + u"),),
        g=(Integrand(lambda v: v[2], name="u"),), l=[1.0],
        history=lambda t: np.zeros(1))


def _cubic_m2():
    return IsoperimetricProblem(
        m=2, n=1, tau=0.4, t1=0.0, t2=1.0,
        L=integrand_from_expr("qdd^2", 2, 1),
        history=lambda t: np.array([t ** 3]),
        boundary=[[1.0], [3.0]])


def _constrained_m2():
    """m = 2, cubic in the path, with a constraint in q', q'' and q'(t - tau):
    the rows take second time derivatives of second partials that vary in t,
    d_q'' d_q'' F = 2 + 2 q' and d_lam d_q'' F = -(q' + q'_tau), and stay
    quadratic in the unknowns."""
    return dataclasses.replace(_cubic_m2(), L=integrand_from_expr("qdd^2 + qd*qdd^2", 2, 1),
                               g=(integrand_from_expr("(qd + qd_tau)*qdd", 2, 1),), l=[0.5])


def _delayed_m1():
    """Delayed arguments in L and g, with tau = 0.3 against regimes of widths
    0.7 and 0.3: rows couple to segments at t - tau and t + tau that the
    shift does not map knot to knot."""
    return IsoperimetricProblem(
        m=1, n=1, tau=0.3, t1=0.0, t2=1.0,
        L=integrand_from_expr("qd^2 + q*q_tau + qd*qd_tau", 1, 1),
        g=(integrand_from_expr("q*q_tau", 1, 1),), l=[0.1],
        history=lambda t: np.array([np.sin(t)]), boundary=[[0.5]])


def _cancelling_m1(L="qd^2 + q*q_tau"):
    """g's delayed term cancels L's in L - lam g at lam = 1, but not at the
    start lam = 0, where the rows still read q(t - tau) and q(t + tau)."""
    return IsoperimetricProblem(
        m=1, n=1, tau=0.3, t1=0.0, t2=1.0,
        L=integrand_from_expr(L, 1, 1), g=(integrand_from_expr("q*q_tau", 1, 1),), l=[0.1],
        history=lambda t: np.array([np.sin(t)]), boundary=[[0.5]])


def _classical_with_multiplier(lam):
    """classical-iso with target l = lam / 24: q = 6 l t (1 - t), multiplier lam."""
    l = lam / 24.0
    problem = IsoperimetricProblem(
        m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
        L=integrand_from_expr("qd^2", 1, 1), g=(integrand_from_expr("q", 1, 1),), l=[l],
        history=lambda t: np.array([6.0 * l * t * (1.0 - t)]), boundary=[[0.0]])
    exact = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 6 * l, -6 * l]])])
    return problem, exact


def _el_record(problem, nodes):
    scheme = CollocationScheme(nodes=nodes)
    return solver._el_collocation(problem, None, scheme)


def _pmp_record(cp, nodes):
    record = solver._pmp_collocation(cp, CollocationScheme(nodes=nodes))
    return record, np.zeros(record.ncoef + cp.k)


def _probed_linear_rows(record, rows_at):
    """The linear rows from segment evaluations at the knots, probed column by
    column: an independent construction of (A, c).  ``rows_at`` gets each
    block's mesh segments and its history segments."""
    def lin(x):
        trajs, _ = record.build(x)
        own = [t.segments[len(b.history):] for t, b in zip(trajs, record.blocks)]
        return np.concatenate(rows_at(own, [b.history for b in record.blocks]))

    nx = record.ncoef + record.k
    r0 = lin(np.zeros(nx))
    cols = []
    for i in range(nx):
        unit = np.zeros(nx)
        unit[i] = 1.0
        cols.append(lin(unit) - r0)
    return np.stack(cols, axis=1), -r0


def _el_rows_at(problem):
    def rows_at(own, histories):
        (segs,), (hist,) = own, histories
        rows = [segs[s].eval(segs[s].b, o) - segs[s + 1].eval(segs[s].b, o)
                for s in range(len(segs) - 1) for o in range(2 * problem.m)]
        rows += [segs[0].eval(problem.t1, o) - hist[-1].eval(problem.t1, o)
                 for o in range(problem.m)]
        rows += [segs[-1].eval(problem.t2, o) - problem.boundary[o] for o in range(problem.m)]
        return rows
    return rows_at


def _pmp_rows_at(cp):
    def rows_at(own, histories):
        (q, p, _), q_hist = own, histories[0]
        rows = []
        for s in range(len(q) - 1):
            rows += [q[s].eval(q[s].b, 0) - q[s + 1].eval(q[s].b, 0),
                     p[s].eval(p[s].b, 0) - p[s + 1].eval(p[s].b, 0)]
        rows.append(q[0].eval(cp.t1, 0) - q_hist[-1].eval(cp.t1, 0))
        rows.append(q[-1].eval(cp.t2, 0) - cp.terminal_state if cp.terminal_state is not None
                    else p[-1].eval(cp.t2, 0))
        return rows
    return rows_at


def _dense_central_jacobian(record, x):
    """Central differences with step 1e-2 (1 + |x_i|): exact to roundoff on rows
    at most quadratic in x, as every row of _RECORDS is."""
    h = 1e-2 * (1.0 + np.abs(x))
    cols = []
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        cols.append((record.residual(xp) - record.residual(xm)) / (2.0 * h[i]))
    return np.stack(cols, axis=1)


# problem, collocation nodes
_PROBLEMS = {
    "classical-16": (lambda: _classical_with_multiplier(4.0)[0], 16),
    "classical-64": (lambda: _classical_with_multiplier(4.0)[0], 64),
    "cubic-m2": (_cubic_m2, 18),
    "constrained-m2": (_constrained_m2, 12),
    "delayed-m1": (_delayed_m1, 9),
    "cancelling-m1": (_cancelling_m1, 9),
    "cancelling-g-is-L": (lambda: _cancelling_m1("q*q_tau"), 9),
    "lq-terminal": (lambda: _lq(terminal=[1.0]), 16),
    "constrained-control": (_constrained_control, 16),
}


def _record(name):
    make, nodes = _PROBLEMS[name]
    problem = make()
    return (_pmp_record if isinstance(problem, ControlProblem) else _el_record)(problem, nodes)


_RECORDS = {name: functools.partial(_record, name) for name in _PROBLEMS}


def _file_record(name):
    """The EL record of a problem file of tests/problems, at nodes 24."""
    path = Path(__file__).parent / "problems" / f"{name}.json"
    return _el_record(problem_from_json(path.read_text()), 24)


_STACKING_RECORDS = {
    "classical-64": _RECORDS["classical-64"],
    "cubic-m2": _RECORDS["cubic-m2"],
    "lq-48": lambda: _pmp_record(_lq(terminal=[1.0]), 48),
    **{name: functools.partial(_file_record, name)
       for name in ("wall_corner", "breaking_point", "classical_two_component")},
}


def _points(value, span):
    """An argument slot on the points in span: a jet's coefficients, an
    array, or a scalar (a multiplier) as it is."""
    if isinstance(value, jet.Jet):
        return jet.Jet([c[span] for c in value.c], value.level)
    return value[span] if np.ndim(value) else value


def _reference_sample(record, b, t, order, left=False):
    """(cols, basis) of block b's order-th derivative at the times t, as the
    record lays out its unknowns: each point's segment by comparison with the
    knots (right limit, or left with ``left``), d^order/dt^order of
    (t - mid) ** j, zero left of the mesh."""
    blk, edges = record.blocks[b], record.edges
    seg = np.sum(t[:, None] > edges[1:-1] if left else t[:, None] >= edges[1:-1], axis=1)
    j = np.arange(blk.width)
    dt = t - 0.5 * (edges[seg] + edges[seg + 1])
    basis = np.array([math.perm(i, order) for i in j]) * dt[:, None] ** np.maximum(j - order, 0)
    basis[t < edges[0]] = 0.0
    cols = (record.offsets[b] + blk.ncomp * blk.width * seg[None, :, None]
            + blk.width * np.arange(blk.ncomp)[:, None, None] + j)
    return cols, basis


def _reference_rows(record, b, t, order, left=False):
    """The dense rows (ncomp, nx) of block b's order-th derivative at one time t."""
    cols, basis = _reference_sample(record, b, np.array([t]), order, left)
    rows = np.zeros((len(cols), record.ncoef + record.k))
    for row, col in zip(rows, cols[:, 0]):
        row[col] = basis[0]
    return rows


def _reference_linear_rows(record, problem):
    """(A, c) key by key: per knot and (block, order), that derivative's left
    limit less its right one; then the last history segment's value at t1
    and the terminal data (EL: orders below m; PMP: q(t2), else p(t2) = 0)."""
    rows = [_reference_rows(record, b, knot, order, True) - _reference_rows(record, b, knot, order)
            for knot in record.edges[1:-1] for b, blk in enumerate(record.blocks)
            for order in range(blk.matched)]
    t1, t2, last = record.edges[0], record.edges[-1], record.blocks[0].history[-1]
    if isinstance(problem, ControlProblem):
        boundary = [(0, t1, 0, last.eval(t1, 0))]
        boundary += [(0, t2, 0, problem.terminal_state) if problem.terminal_state is not None
                     else (1, t2, 0, np.zeros(problem.n))]
    else:
        boundary = [(0, t1, order, last.eval(t1, order)) for order in range(problem.m)]
        boundary += [(0, t2, order, problem.boundary[order]) for order in range(problem.m)]
    rows += [_reference_rows(record, b, t, order) for b, t, order, _ in boundary]
    values = [np.zeros(len(row)) for row in rows[:len(rows) - len(boundary)]]
    values += [np.asarray(value, dtype=float).reshape(-1) for *_, value in boundary]
    return np.concatenate(rows), np.concatenate(values)


def _assert_within_row_scale(got, want):
    """Each entry within 1e-15 of the largest magnitude in its row of want."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


class TestStructuredJacobian:
    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_matches_dense_forward_differences(self, name):
        # the reference is a dense central difference, exact to roundoff on
        # these records, so the exact rows meet it without forward-difference
        # roundoff
        # F's Hessian comes from one nested evaluation on the points axis that
        # holds the current argument vectors of both regimes and the advanced
        # one of the first
        record, x0 = _RECORDS[name]()
        rng = np.random.default_rng(7)
        nl, top = record.nl, record.nl + len(record.c)
        F, calls = record.F, []
        record.F = lambda v: calls.append(1) or F(v)
        for x in (record.project(x0), record.project(x0 + 1e-2 * rng.standard_normal(len(x0)))):
            central = _dense_central_jacobian(record, x)
            calls.clear()
            r, structured = record.residual(x, jacobian=True)
            assert len(calls) == 1
            assert np.array_equal(r, record.residual(x))
            for rows in (slice(0, nl), slice(top, None)):
                scale = max(1.0, float(np.max(np.abs(central[rows]), initial=0.0)))
                assert (np.max(np.abs(structured[rows] - central[rows]), initial=0.0)
                        <= 1e-12 * scale)
            assert np.array_equal(structured[nl:top], record.A)

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_rows_are_the_residual_functions_at_the_collocation_times(self, name):
        # the rows from the sampled paths, with or without the Jacobian, are
        # el_residual / pmp_residuals on the record's trajectories
        problem = _PROBLEMS[name][0]()
        record, x0 = _RECORDS[name]()
        rng = np.random.default_rng(13)
        for _ in range(3):
            x = record.project(x0 + 1e-1 * rng.standard_normal(len(x0)))
            trajs, lam = record.build(x)
            if isinstance(problem, ControlProblem):
                res = pmp_residuals(problem, PontryaginTriple(q=trajs[0], u=trajs[2], p=trajs[1]),
                                    lam, record.times)
                expected = np.concatenate([res.state.ravel(), res.costate.ravel(),
                                           res.stationarity.ravel()])
            else:
                expected = el_residual(AugmentedSetup(problem, lam), trajs[0],
                                       record.times).ravel()
            scale = max(1.0, float(np.max(np.abs(expected))))
            for rows in (record.residual(x), record.residual(x, jacobian=True)[0]):
                assert np.max(np.abs(rows[:record.nl] - expected)) <= 1e-13 * scale

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_basis_recurrence_matches_powers(self, monkeypatch, name):
        # the basis takes dt^j by a running product: every entry of A and of
        # the Jacobian is within 1e-15 of its row's scale from the one with dt ** j
        def powers(dt, width, orders):
            j = np.arange(width)
            return [np.array([math.perm(i, order) for i in j])
                    * dt[:, None] ** np.maximum(j - order, 0) for order in orders]

        record, x0 = _RECORDS[name]()
        x = record.project(x0 + 1e-2 * np.random.default_rng(11).standard_normal(len(x0)))
        _, jac = record.residual(x, jacobian=True)
        monkeypatch.setattr(solver._Collocation, "_bases", staticmethod(powers))
        reference, _ = _RECORDS[name]()
        _, expected = reference.residual(x, jacobian=True)
        for got, want in ((record.A, reference.A), (jac, expected)):
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-15 * scale)

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_setup_tables_match_a_per_key_reference(self, monkeypatch, name):
        # every (cols, basis, h) the rows read, and A and c, from a reference
        # built key by key: the segment by comparison with the knots, the
        # basis with dt ** j, h from its own Trajectory.eval; the record
        # itself evaluates h at most once per unknown block, left of the mesh
        evals, plain = [], Trajectory.eval
        monkeypatch.setattr(Trajectory, "eval", lambda self, t, *args, **kwargs:
                            evals.append(np.asarray(t)) or plain(self, t, *args, **kwargs))
        record, _ = _RECORDS[name]()
        monkeypatch.setattr(Trajectory, "eval", plain)
        assert len(evals) <= len(record.blocks)
        assert all(np.all(t < record.edges[0]) for t in evals)  # h is zero on the mesh
        zero, _ = record.build(np.zeros(record.ncoef + record.k))
        # the points axis: the collocation times at each term shift end to end,
        # a key (block, order, shift) read at those times + (term shift + shift)
        sets = [(record.times[:n], term) for term, (_, n) in record.sets.items()]
        tables = [(sets, record.points, record.table, record.samples)]
        if record.k:
            tables.append(([(record.nodes, 0.0)], *record.at_nodes))
        for sets, points, table, samples in tables:
            assert np.array_equal(points, np.concatenate([ts + term for ts, term in sets]))
            for keys, cols, basis, h in table:
                for key, key_cols, key_basis, key_h in zip(keys, cols, basis[:, 0], h):
                    b, order, shift = key
                    ts = np.concatenate([ts + (shift + term) for ts, term in sets])
                    want_cols, want = _reference_sample(record, b, ts, order)
                    assert np.array_equal(key_cols, want_cols)
                    _assert_within_row_scale(key_basis, want)
                    _assert_within_row_scale(key_h, zero[b].eval(ts, order).T)
                    assert all(np.shares_memory(a, c) for a, c in zip(samples[key], (cols, basis)))
        A, c = _reference_linear_rows(record, _PROBLEMS[name][0]())
        _assert_within_row_scale(record.A, A)
        _assert_within_row_scale(record.c[:, None], c[:, None])

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_projector_is_the_min_norm_correction(self, name):
        # Q R^-T from the QR of A^T is the pseudo-inverse of a full-row-rank A
        record, x0 = _RECORDS[name]()
        reference = np.linalg.pinv(record.A)
        assert np.max(np.abs(record.correction - reference)) <= 1e-12 * np.max(np.abs(reference))
        x = record.project(x0 + 1e-1 * np.random.default_rng(5).standard_normal(len(x0)))
        assert np.max(np.abs(record.A @ x - record.c)) <= 1e-12

    @pytest.mark.parametrize("problem, nodes", [
        (_classical_with_multiplier(4.0)[0], 64), (_delayed_m1(), 9), (_cancelling_m1(), 9),
        (_cancelling_m1("q*q_tau"), 9)], ids=["classical-64", "delayed-m1", "cancelling-m1",
                                             "cancelling-g-is-L"])
    def test_constraint_rows_are_the_constraint_defect(self, problem, nodes):
        record, x0 = _el_record(problem, nodes)
        top = record.nl + len(record.c)
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = record.project(x0 + 1e-1 * rng.standard_normal(len(x0)))
            (traj,), _ = record.build(x)
            assert np.array_equal(record.residual(x)[top:], constraint_defect(problem, traj))

    def test_jacobian_builds_no_path(self, monkeypatch):
        # every path sample is B x + h, fixed when the record is built: an
        # evaluation, with or without its Jacobian, builds no trajectory
        record, x0 = _RECORDS["classical-64"]()
        x = record.project(x0)
        built = []
        init = Trajectory.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Trajectory, "__init__", counted)
        record.residual(x, jacobian=True)
        record.residual(x)
        assert not built

    def test_evaluates_no_residual_per_column(self):
        # every column is exact: the Jacobian comes from the one evaluation
        # that gives the rows, F called once on the points axis that holds
        # every argument vector, and each g once
        for name in sorted(_RECORDS):
            record, x0 = _RECORDS[name]()
            x = record.project(x0)
            calls, F = [], record.F
            record.residual = lambda *args, f=record.residual, **kwargs: \
                calls.append("residual") or f(*args, **kwargs)
            record.F = lambda v: calls.append("F") or F(v)
            record.g = [lambda v, g=g: calls.append("g") or g(v) for g in record.g]
            record.residual(x, jacobian=True)
            assert calls.count("residual") == 1, name
            assert calls.count("F") == 1 and calls.count("g") == record.k, name

    @pytest.mark.parametrize("name", ["classical-64", "cubic-m2", "lq-48", "wall_corner",
                                      "breaking_point", "classical_two_component"])
    def test_stacked_evaluation_matches_one_evaluation_per_set(self, monkeypatch, name):
        # F once on the points axis gives, bit for bit, the rows and Jacobian of
        # one evaluation per (regime, shift) set: the first regime at t, the
        # second at t, the first at t + tau
        record, x0 = _STACKING_RECORDS[name]()
        rng = np.random.default_rng(17)
        xs = [record.project(x0), record.project(x0 + 1e-1 * rng.standard_normal(len(x0)))]
        stacked = [*record.residual(xs[0], jacobian=True), *record.residual(xs[1], jacobian=True),
                   record.residual(xs[1])]
        (_, n), (full, _) = record.sets[max(record.sets)], record.sets[0.0]
        spans = [slice(0, n), slice(n, full.stop), slice(full.stop, full.stop + n)]
        plain, advanced = calculus.derivatives, []
        delayed = [record.layout.block_slice(k) for rows in record.rows
                   for _, k, shift, _ in rows.terms if shift]  # the advanced terms' blocks

        def per_set(f, args, order=0, levels=1):
            if f is not record.F:
                return plain(f, args, order, levels)
            parts = [plain(f, ArgVector([_points(v, span) for v in args.values], args.layout),
                           order, levels) for span in spans]
            advanced.append(any(np.any(parts[-1][1][:, slots]) for slots in delayed))
            return [np.concatenate(part, axis=-1) for part in zip(*parts)]

        monkeypatch.setattr(calculus, "derivatives", per_set)
        reference = [*record.residual(xs[0], jacobian=True),
                     *record.residual(xs[1], jacobian=True), record.residual(xs[1])]
        assert len(advanced) == 3
        assert all(np.array_equal(got, want) for got, want in zip(stacked, reference))
        # where F reads a delayed slot, the advanced terms read nonzero partials
        assert any(advanced) == (name in ("lq-48", "wall_corner", "breaking_point"))

    def test_numpy_constraint_gives_the_exact_jacobian(self, caplog, classical_problem):
        """A constraint written with a numpy ufunc: the chain-rule Jacobian,
        nothing logged, matching dense central differences."""
        g = Integrand(lambda v: np.multiply(v[1], 1.0), name="q by a ufunc")
        record, x0 = _el_record(dataclasses.replace(classical_problem, g=(g,)), 8)
        x = record.project(x0)
        with caplog.at_level(logging.DEBUG, logger="delayvar"):
            _, jac = record.residual(x, jacobian=True)
        assert not caplog.records
        scale = np.max(np.abs(jac))
        assert np.max(np.abs(jac - _dense_central_jacobian(record, x))) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["classical-16", "cubic-m2", "lq-terminal"])
    def test_closed_form_linear_rows_match_probed_evaluation(self, name):
        record, _ = _RECORDS[name]()
        if name == "lq-terminal":
            rows_at = _pmp_rows_at(_lq(terminal=[1.0]))
        else:
            rows_at = _el_rows_at(_cubic_m2() if name == "cubic-m2"
                                  else _classical_with_multiplier(4.0)[0])
        A, c = _probed_linear_rows(record, rows_at)
        assert A.shape == record.A.shape
        assert np.max(np.abs(A - record.A)) <= 1e-13
        assert np.max(np.abs(c - record.c)) <= 1e-13


def _counting(monkeypatch):
    """Count the collocation record's evaluations and the expression
    integrands' bind_eval calls."""
    calls = {"evaluations": 0, "jacobians": 0, "bind_eval": 0}
    residual, bind_eval = solver._Collocation.residual, expr.bind_eval

    def evaluation(record, x, jacobian=False):
        calls["evaluations"] += 1
        calls["jacobians"] += jacobian
        return residual(record, x, jacobian)

    def bound(*args, **kwargs):
        calls["bind_eval"] += 1
        return bind_eval(*args, **kwargs)

    monkeypatch.setattr(solver._Collocation, "residual", evaluation)
    monkeypatch.setattr(expr, "bind_eval", bound)
    return calls


class TestEvaluationBudget:
    # problems linear in their unknowns: the exact Jacobian's first step
    # converges, with one evaluation at the start (rows and Jacobian) and one
    # in the line search (rows alone, no Hessian at the accepted point), F
    # called once in each and each g once; the report counts the same
    def test_el_classical_64(self, monkeypatch, classical_problem):
        calls = _counting(monkeypatch)
        _, _, report = solve_el(classical_problem, scheme=CollocationScheme(nodes=64))
        assert report.converged and report.iterations == 1
        assert calls["evaluations"] <= 2 and calls["jacobians"] == 1
        assert (report.evaluations, report.jacobians) == (calls["evaluations"], 1) == (2, 1)
        assert calls["bind_eval"] <= 6  # per evaluation 1 F call of L and g, 1 of g

    @pytest.mark.parametrize("tol", [1e-7, 1e-9])
    def test_el_cubic_m2(self, monkeypatch, tol):
        calls = _counting(monkeypatch)
        _, _, report = solve_el(_cubic_m2(), scheme=CollocationScheme(nodes=18, tolerance=tol))
        assert report.converged and report.iterations == 1
        assert calls["evaluations"] <= 2 and calls["jacobians"] == 1
        assert (report.evaluations, report.jacobians) == (calls["evaluations"], 1) == (2, 1)
        assert calls["bind_eval"] <= 2

    def test_pmp_lq_terminal_48(self, monkeypatch):
        # H is a plain callable, so its calls are counted at the record
        calls, plain = _counting(monkeypatch), solver.hamiltonian_integrand
        calls["F"] = 0

        def counted(cp):
            H = plain(cp)
            return lambda v: calls.__setitem__("F", calls["F"] + 1) or H(v)

        monkeypatch.setattr(solver, "hamiltonian_integrand", counted)
        _, _, report = solve_pmp(_lq(terminal=[1.0]), scheme=CollocationScheme(nodes=48))
        assert report.converged and report.iterations == 1
        assert calls["evaluations"] <= 2 and calls["jacobians"] == 1
        assert (report.evaluations, report.jacobians) == (calls["evaluations"], 1) == (2, 1)
        assert calls["F"] == calls["evaluations"]


@pytest.mark.parametrize("case, expected", [("classical-64", 2), ("cubic-m2", 2), ("lq-48", 2)])
def test_histories_and_start_are_called_once_each(monkeypatch, classical_problem, case,
                                                   expected):
    # EL: the history, then the straight-line start once over every segment;
    # PMP: the state and the (default zero) control history, from a zero start
    calls = []
    plain = solver.segments_from_callable

    def counted(fn, *args, **kwargs):
        return plain(lambda t: calls.append(np.shape(t)) or fn(t), *args, **kwargs)

    for module in (solver, problem_module):  # the starts, and stitched_history
        monkeypatch.setattr(module, "segments_from_callable", counted)
    _, _, report = _benchmark_solve(case, classical_problem)()
    assert report.converged
    assert len(calls) == expected and all(len(shape) == 1 for shape in calls)


class TestReportedCondition:
    def test_converging_at_its_start_reports_no_condition(self):
        problem, exact = _classical_with_multiplier(10.0)
        _, lam, report = solve_el(problem, initial=(exact, [10.0]),
                                  scheme=CollocationScheme(nodes=16, tolerance=1e-10))
        assert report.converged and report.iterations == 0
        assert lam[0] == 10.0
        assert math.isnan(report.condition)
        assert report.to_dict()["condition"] is None

    @pytest.mark.parametrize("case", ["classical-64", "lq-48"])
    def test_condition_of_the_final_jacobian(self, monkeypatch, classical_problem, case):
        # both converge in one iteration, so the final Jacobian is the one at
        # the projected start
        if case == "classical-64":
            scheme = CollocationScheme(nodes=64)
            record, x0 = solver._el_collocation(classical_problem, None, scheme)
        else:
            scheme = CollocationScheme(nodes=48)
            record = solver._pmp_collocation(_lq(terminal=[1.0]), scheme)
            x0 = np.zeros(record.ncoef + record.k)
        x = record.project(x0.copy())
        expected = float(np.linalg.cond(record.residual(x, jacobian=True)[1]))
        _, _, report = _benchmark_solve(case, classical_problem)()
        calls = _count_linalg(monkeypatch, "cond")
        assert report.iterations == 1
        assert report.condition == expected
        assert report.to_dict()["condition"] == expected
        assert calls["cond"] == 1  # computed on first read, then kept

    def test_failed_solve_reports_nonconvergence(self):
        # a quartic term makes the rows nonlinear in q: one exact Newton step
        # from the quadratic's solution does not reach the tolerance
        problem, exact = _classical_with_multiplier(4.0)
        problem = dataclasses.replace(problem, L=integrand_from_expr("qd^2 + q^4", 1, 1))
        scheme = CollocationScheme(nodes=16, max_iterations=1, tolerance=1e-13)
        _, _, report = solve_el(problem, initial=(exact, [3.0]), scheme=scheme)
        assert not report.converged and report.iterations == 1
        assert report.residual_norm > 1e-13


class TestSolveReason:
    def test_default_solve_converges(self, classical_problem):
        _, _, report = solve_el(classical_problem)
        assert report.converged and report.reason == "converged"
        assert report.to_dict()["reason"] == "converged"

    @pytest.mark.parametrize("max_iterations", [0, 1])
    def test_iteration_cap(self, max_iterations):
        # the problem of test_failed_solve_reports_nonconvergence
        problem, exact = _classical_with_multiplier(4.0)
        problem = dataclasses.replace(problem, L=integrand_from_expr("qd^2 + q^4", 1, 1))
        scheme = CollocationScheme(nodes=16, max_iterations=max_iterations, tolerance=1e-13)
        _, _, report = solve_el(problem, initial=(exact, [3.0]), scheme=scheme)
        assert not report.converged and report.iterations == max_iterations
        assert report.reason == "max-iterations"

    @pytest.mark.parametrize("field, value", [
        ("nodes", 0), ("nodes", -5), ("max_iterations", -3), ("tolerance", 0.0),
        ("tolerance", math.nan), ("tolerance", math.inf),
        # sizes are integers (numpy ones too), not floats, bools or strings
        ("nodes", 64.7), ("nodes", 64.0), ("nodes", True), ("nodes", "64"), ("nodes", None),
        ("nodes", np.float64(16.0)), ("nodes", np.bool_(True)), ("max_iterations", 2.5),
        ("max_iterations", False), ("max_iterations", "3")])
    def test_impossible_scheme_raises(self, field, value):
        with pytest.raises(ValueError, match=field):
            CollocationScheme(**{field: value})

    def test_numpy_integer_sizes_are_sizes(self, classical_problem):
        scheme = CollocationScheme(nodes=np.int64(16), max_iterations=np.int32(1))
        _, lam, report = solve_el(classical_problem, scheme=scheme)
        _, want, _ = solve_el(classical_problem, scheme=CollocationScheme(nodes=16,
                                                                          max_iterations=1))
        assert report.converged and report.iterations == 1
        assert np.array_equal(lam, want)

    def test_tolerance_below_roundoff_stalls(self):
        # residual rows of size 1e6 settle at a roundoff floor near 1e-11, so
        # no step length can take them below 1e-13
        problem, _ = _classical_with_multiplier(1e6)
        _, lam, report = solve_el(problem, scheme=CollocationScheme(nodes=16, tolerance=1e-13))
        assert not report.converged and report.reason == "line-search-stall"
        assert 1e-13 < report.residual_norm <= 1e-9
        assert abs(lam[0] - 1e6) <= 1e-3
        assert report.to_dict()["reason"] == "line-search-stall"


def _count_linalg(monkeypatch, *names):
    calls = {name: 0 for name in names}
    for name in names:
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _benchmark_solve(case, classical_problem):
    return {
        "classical-64": lambda: solve_el(classical_problem, scheme=CollocationScheme(nodes=64)),
        "cubic-m2": lambda: solve_el(_cubic_m2(),
                                     scheme=CollocationScheme(nodes=18, tolerance=1e-7)),
        "lq-48": lambda: solve_pmp(_lq(terminal=[1.0]), scheme=CollocationScheme(nodes=48)),
    }[case]


class TestLinearAlgebraCalls:
    # per Newton iteration one single-column np.linalg.solve and one Cholesky
    # certificate of the condition: no condition SVD, and the projector's
    # reduced QR only when a start violates the linear rows
    @pytest.mark.parametrize("case, most", [("classical-64", 0), ("cubic-m2", 1),
                                            ("lq-48", 1)])
    def test_projector_only_when_a_start_needs_it(self, monkeypatch, classical_problem, case,
                                                  most):
        solve = _benchmark_solve(case, classical_problem)
        calls = _count_linalg(monkeypatch, "pinv", "cond", "solve", "qr")
        _, _, report = solve()
        assert report.converged and report.iterations == 1
        assert calls["cond"] == calls["pinv"] == 0
        assert calls["solve"] == report.iterations
        assert calls["qr"] <= most

    @pytest.mark.parametrize("case", ["classical-64", "cubic-m2", "lq-48"])
    def test_one_column_solve_and_one_cholesky_per_iteration(self, monkeypatch,
                                                             classical_problem, case):
        solve = _benchmark_solve(case, classical_problem)
        calls = _count_linalg(monkeypatch, "cond", "cholesky")
        shapes, original = [], np.linalg.solve

        def recorded(a, b):
            shapes.append((np.shape(a), np.shape(b)))
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        _, _, report = solve()
        assert report.converged and report.iterations == 1
        assert calls == {"cond": 0, "cholesky": report.iterations}
        assert len(shapes) == report.iterations
        assert all(b == a[:1] for a, b in shapes)  # the step's column, no identity


def _with_condition(kind, n, kappa, rng):
    """An n x n matrix of condition about kappa: singular values log-spaced
    between orthogonal factors, rows graded over kappa, or diag(1 .. 1, 1/kappa)."""
    if kind == "random":
        left, _ = np.linalg.qr(rng.standard_normal((n, n)))
        right, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (left * np.logspace(0.0, -np.log10(kappa), n)) @ right.T
    if kind == "row-graded":
        return np.logspace(0.0, -np.log10(kappa), n)[:, None] * rng.standard_normal((n, n))
    return np.diag(np.r_[np.ones(n - 1), 1.0 / kappa])


class TestNewtonStep:
    @staticmethod
    def _step(monkeypatch, jac):
        calls = _count_linalg(monkeypatch, "cond", "solve")
        r = np.linspace(-1.0, 1.0, len(jac))
        step, bound = solver._newton_step(jac, r)
        return step, bound, calls, r

    def test_well_conditioned_runs_no_svd(self, monkeypatch):
        jac = np.random.default_rng(0).standard_normal((60, 60)) + 20.0 * np.eye(60)
        step, bound, calls, r = self._step(monkeypatch, jac)
        assert calls == {"cond": 0, "solve": 1}
        assert np.max(np.abs(jac @ step + r)) <= 1e-13
        assert np.linalg.cond(jac) <= bound <= 1e12

    def test_loose_certificate_falls_back_to_the_exact_condition(self, monkeypatch):
        # kappa_2 = 10^11.5 passes the gate, kappa_F = sqrt(99 + 10^23) ~ 3e12 does not
        jac = np.diag(np.r_[np.ones(99), 10.0 ** -11.5])
        step, bound, calls, r = self._step(monkeypatch, jac)
        assert calls == {"cond": 1, "solve": 1}
        assert bound == pytest.approx(10.0 ** 11.5, rel=1e-12)
        assert np.allclose(step, -r / np.diag(jac), rtol=1e-14, atol=0.0)

    def test_near_singular_raises(self, monkeypatch):
        from delayvar.errors import SingularJacobian

        with pytest.raises(SingularJacobian) as info:
            self._step(monkeypatch, np.diag(np.r_[np.ones(99), 1e-13]))
        assert info.value.condition == pytest.approx(1e13, rel=1e-12)

    def test_exactly_singular_raises_singular_jacobian(self, monkeypatch):
        from delayvar.errors import SingularJacobian

        jac = np.random.default_rng(1).standard_normal((30, 30))
        jac[7] = 0.0
        with pytest.raises(SingularJacobian) as info:
            self._step(monkeypatch, jac)
        assert info.value.condition == math.inf
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("n", [5, 30, 100, 352])
    @pytest.mark.parametrize("kind", ["random", "row-graded", "diagonal"])
    def test_certified_bound_is_above_the_exact_condition(self, monkeypatch, kind, n):
        # a bound returned without the SVD is a bound on kappa_2, for every
        # condition from 1 to 1e14; the well-conditioned ones take no SVD
        from delayvar.errors import SingularJacobian

        rng = np.random.default_rng(n)
        exact = np.linalg.cond
        calls = _count_linalg(monkeypatch, "cond")
        certified, kappas = [], 10.0 ** np.arange(0.0, 14.5, 0.5)
        for kappa in kappas:
            jac = _with_condition(kind, n, kappa, rng)
            before = calls["cond"]
            try:
                _, bound = solver._newton_step(jac, np.ones(n))
            except SingularJacobian:
                continue
            if calls["cond"] == before:
                certified.append(kappa)
                assert bound >= exact(jac), (kind, n, kappa)
        assert certified[:2] == list(kappas[:2])


class TestVerify:
    def test_example1_report(self, ex1_problem, ex1_traj):
        report = verify(ex1_problem, ex1_traj, [0.0])
        assert report.sup["el_first"] <= 1e-7
        assert report.sup["el_second"] <= 1e-7
        assert report.sup["constraint_defect"] <= 1e-6
        assert report.hypothesis_violated          # cdur sup >= 500
        assert report.sup["cdur"] >= 500.0
        assert report.abnormal is False

    def test_classical_report_is_clean(self, classical_problem, classical_traj):
        report = verify(classical_problem, classical_traj, [4.0])
        for key in ("el_first", "el_second", "dr_first", "dr_second", "cdur",
                    "constraint_defect"):
            assert report.sup[key] <= 1e-6, key
        assert not report.hypothesis_violated
        assert report.abnormal is False

    @pytest.mark.parametrize("nodes", [96, 128, 512])
    def test_classical_solution_on_a_fine_mesh(self, classical_problem, nodes):
        # segments shorter than 2e-2: the grid keeps clear of each break by
        # 1 % of the shortest segment, so both regimes keep their times
        traj, lam, _ = solve_el(classical_problem, scheme=CollocationScheme(nodes=nodes))
        report = verify(classical_problem, traj, lam)
        assert max(report.sup["el_first"], report.sup["el_second"]) <= 1e-12
        assert max(report.sup["dr_first"], report.sup["dr_second"]) <= 1e-12

    def test_free_problem_zero_trajectory(self):
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=integrand_from_expr("qd^2", 1, 1))
        traj = Trajectory(1, 1, [PolySegment(-0.5, 1.0, [[0.0, 0.0, 0.0]])])
        report = verify(problem, traj, [])
        assert report.sup["el_first"] == 0.0
        assert report.sup["el_second"] == 0.0
        assert report.abnormal is None
