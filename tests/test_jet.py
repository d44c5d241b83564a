"""Taylor jets and the derivative provider along a path."""

from __future__ import annotations

import dataclasses
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
import sympy as sp

from delayvar import calculus, cli, jet, solver
from delayvar.errors import NotJetCapable
from delayvar.euler_lagrange import el_residual
from delayvar.noether import invariance_defect, rho
from delayvar.problem import ArgLayout, ArgVector, AugmentedSetup, Integrand, \
    IsoperimetricProblem, TransformationGroup, integrand_from_expr
from delayvar.solver import CollocationScheme, verify
from delayvar.trajectory import PolySegment, Trajectory


def _no_stencils(*args, **kwargs):
    raise AssertionError("a jet-capable map reached the stencil fallback")


def test_recurrences_match_sympy():
    """Six Taylor coefficients of a composition of every jet-aware function
    against sympy's series, at several points at once."""
    s = sp.Symbol("s")
    expr = (sp.sin(s) * sp.exp(s / 2) / sp.sqrt(1 + s ** 2) + sp.log(2 + s) ** 1.5
            - sp.cos(s) ** 3 + 2 ** s + sp.Abs(s - 3) * s ** -2)

    def f(x):
        return (jet.sin(x) * jet.exp(x / 2) / jet.sqrt(1 + x ** 2) + jet.log(2 + x) ** 1.5
                - jet.cos(x) ** 3 + 2 ** x + jet.fabs(x - 3) * x ** -2)

    ts = np.array([0.4, 1.1, 2.5])
    got = jet.coefficients(f(jet.variable(ts, 5)), 5)
    for i, t0 in enumerate(ts):
        series = sp.series(expr.subs(s, t0 + s), s, 0, 6).removeO()
        want = [float(series.coeff(s, k)) for k in range(6)]
        assert got[:, i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_nested_jets_give_the_partial_along_the_path():
    """An order-1 jet over a t-jet: d/dx (x^2 y) with x = t^2, y = sin t is
    2 t^2 sin t, and its t-coefficients are that function's."""
    t = jet.variable(np.array([0.7]), 3)
    x, y = t * t, jet.sin(t)
    out = jet.Jet([x, 1.0], level=1) ** 2 * y
    s = sp.Symbol("s")
    series = sp.series((2 * s ** 2 * sp.sin(s)).subs(s, 0.7 + s), s, 0, 4).removeO()
    assert jet.coefficients(out.c[1], 3)[:, 0] == pytest.approx(
        [float(series.coeff(s, k)) for k in range(4)], rel=1e-12)


def test_provider_reads_derivatives_off_one_call():
    calls = []

    def cube(t):
        calls.append(t)
        return t ** 3

    ts = np.array([-1.0, 0.5, 2.0])
    got = calculus.path_derivatives(cube, ts, 4)
    assert len(calls) == 1
    assert np.allclose(got, [ts ** 3, 3 * ts ** 2, 6 * ts, 6 + 0 * ts, 0 * ts], atol=1e-14)
    # a map that ignores its argument is constant in t
    const = calculus.path_derivatives(lambda t: np.full(3, 2.0), ts, 2)
    assert np.array_equal(const, [[2.0] * 3, [0.0] * 3, [0.0] * 3])


def test_provider_falls_back_to_stencils_for_opaque_maps():
    """A map that rejects jets gets no stencils: it raises NotJetCapable, and
    its numpy twin is exact."""
    ts = np.array([0.3, 0.6])

    def opaque(t):
        return np.array([math.sin(x) for x in t])  # math.sin rejects the jets

    with pytest.raises(NotJetCapable, match="opaque") as info:
        calculus.path_derivatives(opaque, ts, 2)
    assert isinstance(info.value.__cause__, TypeError)
    got = calculus.path_derivatives(np.sin, ts, 2)
    assert np.array_equal(got, [np.sin(ts), np.cos(ts), -np.sin(ts)])


def test_opaque_integrand_takes_the_stencils(ex1_traj):
    """An integrand that rejects jets gets no stencils: it raises
    NotJetCapable, and its numpy twin gets the expression integrand's exact
    EL residual."""
    opaque = Integrand(lambda v: np.square(np.asarray(v[3] + v[6], dtype=float)))
    problem = IsoperimetricProblem(m=2, n=1, tau=1.0, t1=0.0, t2=2.0, L=opaque)
    ts = np.array([0.3, 1.4])
    with pytest.raises(NotJetCapable):
        el_residual(AugmentedSetup(problem, []), ex1_traj, ts)
    twin = Integrand(lambda v: np.power(v[3] + v[6], 2))
    res = el_residual(AugmentedSetup(dataclasses.replace(problem, L=twin), []), ex1_traj, ts)
    expression = IsoperimetricProblem(m=2, n=1, tau=1.0, t1=0.0, t2=2.0,
                                      L=integrand_from_expr("(qdd + qdd_tau)^2", 2, 1))
    assert np.array_equal(res, el_residual(AugmentedSetup(expression, []), ex1_traj, ts))


def test_expression_maps_never_reach_the_stencils(monkeypatch, ex1_problem, ex1_traj):
    monkeypatch.setattr(calculus, "total_derivative_many", _no_stencils)
    verify(ex1_problem, ex1_traj, [0.0], grid_count=50)
    with redirect_stdout(io.StringIO()):
        for argv in (["invariance", "--example", "example1", "--eta", "t", "--xi", "q * t"],
                     ["conserved", "--example", "example1", "--eta", "1", "--xi", "q"]):
            assert cli.main(argv) == 0


# ---------------------------------------------------------------------------
# numpy carries jets


def _twin(sin, exp):
    """qd^2 + sin(q) exp(0.3 q_tau) + t qd_tau over the m = 1, n = 1 layout,
    built from the given sin and exp."""
    return Integrand(lambda v: v[2] * v[2] + sin(v[1]) * exp(0.3 * v[3]) + v[0] * v[4])


NUMPY, JET = _twin(np.sin, np.exp), _twin(jet.sin, jet.exp)


def test_numpy_ufunc_integrand_equals_its_jet_twin_bit_for_bit(classical_problem,
                                                               classical_traj):
    layout = ArgLayout.variational(1, 1)
    for values in ([0.4, -0.7, 1.3, 0.2, -0.5],
                   [np.linspace(0.0, 1.0, 4), np.linspace(-1.0, 1.0, 4), np.ones(4),
                    np.full(4, 0.5), np.zeros(4)]):
        args = ArgVector(values, layout)
        for block in range(1, 6):
            assert np.array_equal(calculus.partial(NUMPY, block, args),
                                  calculus.partial(JET, block, args))
    t = jet.variable(np.array([0.2, 0.7]), 2)
    args = ArgVector([t, jet.sin(t), 2.0 * t, t * t, 0.0 * t + 1.0], layout)
    derivatives = calculus.derivatives(NUMPY, args, 2, levels=2)
    assert all(np.array_equal(a, b)
               for a, b in zip(derivatives, calculus.derivatives(JET, args, 2, levels=2)))
    hessian = derivatives[2]
    assert np.max(np.abs(hessian - np.swapaxes(hessian, 1, 2))) <= 1e-14
    ts = np.linspace(0.05, 0.95, 7)
    numpy_problem, jet_problem = (dataclasses.replace(classical_problem, L=L, g=(g,))
                                  for L, g in ((NUMPY, Integrand(lambda v: np.exp(v[1]))),
                                               (JET, Integrand(lambda v: jet.exp(v[1])))))
    assert np.array_equal(el_residual(AugmentedSetup(numpy_problem, [0.5]), classical_traj, ts),
                          el_residual(AugmentedSetup(jet_problem, [0.5]), classical_traj, ts))
    evaluations = []
    for problem in (numpy_problem, jet_problem):
        record, x0 = solver._el_collocation(problem, None, CollocationScheme(nodes=8))
        evaluations.append(record.residual(record.project(x0), jacobian=True))
    assert all(np.array_equal(a, b) for a, b in zip(*evaluations))


def test_ndarray_on_the_left_compares_values():
    x = jet.variable(np.array([0.3, 0.3, 0.3]), 2)
    left = np.array([0.1, 0.3, 0.5])
    assert (left < x).tolist() == [True, False, False]
    assert (left <= x).tolist() == [True, True, False]
    assert (left > x).tolist() == [False, False, True]
    assert (left >= x).tolist() == [False, True, True]


def test_unmapped_ufuncs_and_out_arguments_raise_type_error():
    x = jet.variable(np.array([0.3, 0.6]), 1)
    for call in (lambda: np.floor(x), lambda: np.add(x, 1.0, out=np.zeros(2)),
                 lambda: np.add.reduce(x), lambda: np.array([x, x]) * x):
        with pytest.raises(TypeError):
            call()
    assert np.array_equal(jet.coefficients(np.add(x, 1.0), 1), [[1.3, 1.6], [1.0, 1.0]])


def test_array_of_jets_generator_gives_the_exact_lift():
    """xi = np.array([q[1], -q[0]]) holds jets in an object array: its lift is
    (q1', -q0') exactly, with no stencil."""
    traj = Trajectory(2, 1, [PolySegment.from_monomial(
        -0.5, 1.0, [[0.0, 1.0, -1.0, 0.0], [0.5, 1.0, 0.0, 0.3]])])
    group = TransformationGroup(eta=lambda t, q: 0.0, xi=lambda t, q: np.array([q[1], -q[0]]))
    ts = np.linspace(0.0, 1.0, 9)
    qd = traj.eval(ts, 1)
    assert np.array_equal(rho(group, traj, 1, ts), np.column_stack([qd[:, 1], -qd[:, 0]]))


# ---------------------------------------------------------------------------
# NotJetCapable


def test_math_generator_raises_after_one_call(classical_setup, classical_traj):
    """No per-point retry: the one generator call that met a jet raises,
    naming the generator and chaining its TypeError."""
    calls = []

    def cos_eta(t, q):
        calls.append(t)
        return math.cos(t)

    group = TransformationGroup(eta=cos_eta, xi=lambda t, q: 0.0)
    with pytest.raises(NotJetCapable, match="cos_eta") as info:
        invariance_defect(classical_setup, group, classical_traj)
    assert len(calls) == 1
    assert isinstance(info.value.__cause__, TypeError)
    assert not isinstance(info.value, (TypeError, ValueError))


def test_array_of_jets_integrand_is_not_a_zero_partial():
    f = Integrand(lambda v: np.array([v[1]]) ** 2, name="[q]^2")
    args = ArgVector([0.0, 0.3, 0.0, 0.0, 0.0], ArgLayout.variational(1, 1))
    with pytest.raises(NotJetCapable, match=r"\[q\]\^2"):
        calculus.partial(f, 2, args)
