"""Taylor jets and the derivative provider along a path."""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
import sympy as sp

from delayvar import calculus, cli, jet
from delayvar.euler_lagrange import el_residual
from delayvar.problem import AugmentedSetup, Integrand, IsoperimetricProblem
from delayvar.solver import verify


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
    got = calculus.path_derivatives(cube, ts, 4, _no_stencils)
    assert len(calls) == 1
    assert np.allclose(got, [ts ** 3, 3 * ts ** 2, 6 * ts, 6 + 0 * ts, 0 * ts], atol=1e-14)
    # a map that ignores its argument is constant in t
    const = calculus.path_derivatives(lambda t: np.full(3, 2.0), ts, 2, _no_stencils)
    assert np.array_equal(const, [[2.0] * 3, [0.0] * 3, [0.0] * 3])


def test_provider_falls_back_to_stencils_for_opaque_maps():
    ts = np.array([0.3, 0.6])

    def opaque(t):
        return np.array([math.sin(x) for x in t])  # iterating a jet fails

    got = calculus.path_derivatives(opaque, ts, 2, lambda: (0.0, 1.0, 1.0))
    assert np.allclose(got, [np.sin(ts), np.cos(ts), -np.sin(ts)], atol=1e-6)


def test_opaque_integrand_takes_the_stencils(ex1_traj):
    """An integrand that rejects jets still gets its EL residual, from finite
    differences inside stencils: about 2e-2 here, against terms of size 100,
    where the expression integrand gives 0."""
    opaque = Integrand(lambda v: np.square(np.asarray(v[3] + v[6], dtype=float)))
    problem = IsoperimetricProblem(m=2, n=1, tau=1.0, t1=0.0, t2=2.0, L=opaque)
    res = el_residual(AugmentedSetup(problem, []), ex1_traj, np.array([0.3, 1.4]))
    assert 0.0 < np.max(np.abs(res)) <= 5e-2


def test_expression_maps_never_reach_the_stencils(monkeypatch, ex1_problem, ex1_traj):
    monkeypatch.setattr(calculus, "total_derivative_many", _no_stencils)
    verify(ex1_problem, ex1_traj, [0.0], grid_count=50)
    with redirect_stdout(io.StringIO()):
        for argv in (["invariance", "--example", "example1", "--eta", "t", "--xi", "q * t"],
                     ["conserved", "--example", "example1", "--eta", "1", "--xi", "q"]):
            assert cli.main(argv) == 0
