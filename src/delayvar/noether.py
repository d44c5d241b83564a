"""Transformation-group machinery and Noether conserved quantities.

The generator lift rho^0 = xi(t, q), rho^i = d/dt rho^(i-1) - q^(i) etadot
feeds both the necessary condition of invariance and the conserved quantity.
It is evaluated in its Leibniz form

    rho^i = xi^(i) - sum_{k=1}^{i} C(i, k) q^(i+1-k) eta^(k),

where xi^(k) and eta^(k) are total derivatives along the path, each order one
5-point stencil shared by every lift, and the q derivatives are exact; a
constant generator therefore lifts to exact zeros.  The definition-level
invariance check differentiates the transformed action in the group parameter
numerically, so no symbolic variation calculus is needed.  Group generators
are extended by zero on [t1 - tau, t1).

Each sweep calls eta(t, q) and xi(t, q) once, with t of shape (npts,) and q
of shape (n, npts) (q[i] is component i); eta broadcasts to (npts,), xi to
(n, npts), a 1-D xi of length n being a constant vector.  Generators that
reject arrays or return a shape that does not broadcast are called per point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import calculus
from .dubois_reymond import psi_values
from .errors import EmptyGrid, IOutOfRange, TransformEscapesDomain
from .euler_lagrange import (
    Regime,
    regime_interval,
    smooth_breaks,
    stacked_partial_map,
    stencil_bounds,
)
from .problem import (
    AugmentedSetup,
    IsoperimetricProblem,
    TransformationGroup,
    args_at,
    augmented_integrand,
)
from .trajectory import Grid, Trajectory

__all__ = ["rho", "invariance_defect", "necessary_condition_defect", "noether_quantity",
           "ConstancyReport", "constancy_report"]


def _on_points(generator, ts: np.ndarray, qs: np.ndarray, shape: tuple) -> np.ndarray:
    """generator(t, q) over all points broadcast to ``shape`` ((npts,) or
    (n, npts)): one array call, or one call per point when the generator
    rejects arrays or returns a shape that does not broadcast."""
    try:
        out = np.asarray(generator(ts, qs.T), dtype=float)
        if len(shape) == 2 and out.shape == shape[:1]:  # constant vector
            out = out[:, None]
        return np.broadcast_to(out, shape)
    except (TypeError, ValueError):
        cols = [np.asarray(generator(float(t), q), dtype=float) for t, q in zip(ts, qs)]
        return np.stack(cols, axis=-1).reshape(shape)


def _eta_many(group: TransformationGroup, traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    return _on_points(group.eta, ts, traj.eval(ts, 0), ts.shape)


def _xi_many(group: TransformationGroup, traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """xi at every point; shape (npts, n)."""
    return _on_points(group.xi, ts, traj.eval(ts, 0), (traj.n, len(ts))).T


def _piece_bounds(traj: Trajectory, ts: np.ndarray, lo=None, hi=None):
    """Per-point smooth piece of the trajectory, optionally clipped."""
    breaks = np.asarray(traj.breakpoints())
    dlo, dhi = traj.domain
    return stencil_bounds(ts, breaks, dlo if lo is None else lo, dhi if hi is None else hi)


def _eta_dot_many(group, traj, ts, los, his, h) -> np.ndarray:
    return calculus.total_derivative_many(
        lambda u: _eta_many(group, traj, u)[:, None], ts, 1, los, his, h)[:, 0]


def _generators(group: TransformationGroup, traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """xi and eta at every point side by side; shape (npts, n + 1)."""
    qs = traj.eval(ts, 0)
    xi = _on_points(group.xi, ts, qs, (traj.n, len(ts)))
    eta = _on_points(group.eta, ts, qs, ts.shape)
    return np.vstack([xi, eta[None]]).T


def _lifts(group, traj, ts: np.ndarray, los, his, span: float, top: int):
    """rho^0 .. rho^top, each (npts, n), and eta^(0) .. eta^(top), each (npts,),
    by the Leibniz form; derivative order k of the generators is one stencil
    with step default_step(span, k)."""
    gens = functools.partial(_generators, group, traj)
    derivs = [gens(ts)] + [
        calculus.total_derivative_many(gens, ts, k, los, his, calculus.default_step(span, k))
        for k in range(1, top + 1)]
    etas = [d[:, -1] for d in derivs]
    qs = traj.eval(ts, range(1, top + 1))  # q^(1) .. q^(top)
    rhos = []
    for i in range(top + 1):
        lift = derivs[i][:, :-1]
        for k in range(1, i + 1):
            lift = lift - math.comb(i, k) * qs[i - k] * etas[k][:, None]
        rhos.append(lift)
    return rhos, etas


def rho(group: TransformationGroup, traj: Trajectory, i: int, t) -> np.ndarray:
    """Generator lift rho^i along the trajectory at a time, shape (n,), or at
    a time array, shape (npts, n)."""
    if not 0 <= i <= traj.m:
        raise IOutOfRange(f"i = {i} outside 0..{traj.m}")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    los, his = _piece_bounds(traj, ts)
    span = traj.domain[1] - traj.domain[0]
    out = _lifts(group, traj, ts, los, his, span, i)[0][i]
    return out[0] if np.ndim(t) == 0 else out


def _gauge_many(group: TransformationGroup, traj: Trajectory,
                problem: IsoperimetricProblem, ts: np.ndarray) -> np.ndarray:
    if group.gauge is None:
        return np.zeros(len(ts))
    # constant gauge expressions evaluate to a scalar even for array slots
    values = args_at(traj, ts, problem.tau, problem.m).values
    return np.broadcast_to(np.asarray(group.gauge(values), dtype=float), ts.shape)


def _gauge_dot_many(group, traj, problem, ts, los, his) -> np.ndarray:
    if group.gauge is None:
        return np.zeros(len(ts))
    return calculus.total_derivative_many(
        lambda u: _gauge_many(group, traj, problem, u)[:, None],
        ts, 1, los, his, calculus.default_step(problem.span, 1))[:, 0]


def noether_quantity(setup: AugmentedSetup, group: TransformationGroup, traj: Trajectory,
                     t, regime: Regime) -> float | np.ndarray:
    """sum_j psi_j . rho^(j-1) + (F - sum_j psi_j . q^(j)) eta - gauge at a
    time (a float) or at an array of times inside ``regime`` (an array)."""
    problem = setup.problem
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    F = augmented_integrand(setup)
    bracket = np.asarray(F(args_at(traj, ts, problem.tau, problem.m).values), dtype=float)
    los, his = _piece_bounds(traj, ts)
    rhos, etas = _lifts(group, traj, ts, los, his, traj.domain[1] - traj.domain[0],
                        problem.m - 1)
    lead = np.zeros(len(ts))
    for j, psi_j in enumerate(psi_values(setup, traj, ts, regime), start=1):
        bracket = bracket - np.sum(psi_j * traj.eval(ts, j), axis=1)
        lead = lead + np.sum(psi_j * rhos[j - 1], axis=1)
    out = lead + bracket * etas[0] - _gauge_many(group, traj, problem, ts)
    return float(out[0]) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# invariance


def _transformed_blocks(group, traj, problem, j: int, ts: np.ndarray, s: float,
                        h: float) -> np.ndarray:
    """j-th derivative of the transformed path at parameters ts for group
    parameter s; generators vanish (and stencils stop) left of t1."""
    active = ts >= problem.t1
    out = np.atleast_2d(traj.eval(ts, j)).copy()
    if not np.any(active):
        return out
    ta = ts[active]
    if j == 0:
        out[active] += s * _xi_many(group, traj, ta)
        return out
    los, his = _piece_bounds(traj, ta, lo=problem.t1)  # zero-extension wall at t1

    def prev(us):
        return _transformed_blocks(group, traj, problem, j - 1, us, s, h)

    d_prev = calculus.total_derivative_many(prev, ta, 1, los, his, h)
    denom = 1.0 + s * _eta_dot_many(group, traj, ta, los, his, h)
    out[active] = d_prev / denom[:, None]
    return out


def invariance_defect(setup: AugmentedSetup, group: TransformationGroup, traj: Trajectory,
                      interval: tuple[float, float] | None = None) -> float:
    """d/ds at s = 0 of the transformed action minus the gauge allowance.

    Near zero means the functional is invariant under the group on that
    interval (up to the gauge term).
    """
    problem = setup.problem
    a, b = interval if interval is not None else (problem.t1, problem.t2)
    slack = 1e-9 * max(1.0, problem.span)
    if a < problem.t1 - slack or b > problem.t2 + slack:
        raise TransformEscapesDomain(f"interval [{a}, {b}] leaves [{problem.t1}, {problem.t2}]")
    F = augmented_integrand(setup)
    m, tau = problem.m, problem.tau
    h = calculus.default_step(problem.span, 1)
    base = np.asarray(traj.breakpoints())
    breaks = np.unique(np.concatenate([
        base, base + tau, base - tau,
        [problem.t2 - tau, problem.t1 + tau],
    ]))

    def transformed_action(s: float) -> float:
        def integrand(ts):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            eta = _eta_many(group, traj, ts)
            values: list = [ts + s * eta]
            for shift in (0.0, -tau):
                for j in range(m + 1):
                    block = _transformed_blocks(group, traj, problem, j, ts + shift, s, h)
                    values.extend(block[:, i] for i in range(problem.n))
            los, his = stencil_bounds(ts, breaks, problem.t1, problem.t2)
            jac = 1.0 + s * _eta_dot_many(group, traj, ts, los, his, h)
            return np.asarray(F(values), dtype=float) * jac

        return calculus.integrate(integrand, a, b, breaks)

    action_rate = calculus.derivative_in_parameter(transformed_action).value

    def gauge_rate(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        los, his = stencil_bounds(ts, breaks, *traj.domain)
        return _gauge_dot_many(group, traj, problem, ts, los, his)

    return action_rate - calculus.integrate(gauge_rate, a, b, breaks)


def necessary_condition_defect(setup: AugmentedSetup, group: TransformationGroup,
                               traj: Trajectory) -> tuple[float, float]:
    """The two regime integrals of the invariance lemma; both vanish when the
    functional is invariant up to the gauge term."""
    problem = setup.problem
    F = augmented_integrand(setup)
    m, tau = problem.m, problem.tau
    breaks = smooth_breaks(problem, traj)

    def make_integrand(regime: Regime):
        lo_r, hi_r = regime_interval(problem, regime)
        maps = [stacked_partial_map(F, traj, tau, m, i, regime) for i in range(m + 1)]

        def integrand(ts):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            los, his = stencil_bounds(ts, breaks, lo_r, hi_r)
            args = args_at(traj, ts, tau, m)
            d1 = calculus.partial(F, 1, args)[0]
            value = np.asarray(F(args.values), dtype=float)
            rhos, etas = _lifts(group, traj, ts, los, his, problem.span, max(m, 1))
            total = (-_gauge_dot_many(group, traj, problem, ts, los, his)
                     + d1 * etas[0] + value * etas[1])
            for lam_map, lift in zip(maps, rhos):
                total += np.sum(lam_map(ts) * lift, axis=1)
            return total

        return integrand

    out = []
    for regime in (Regime.FIRST, Regime.SECOND):
        lo_r, hi_r = regime_interval(problem, regime)
        out.append(calculus.integrate(make_integrand(regime), lo_r, hi_r, breaks))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# constancy reporting


@dataclass
class ConstancyReport:
    """Per-regime mean and worst deviation of a would-be constant of motion."""

    means: dict[Regime, float]
    deviations: dict[Regime, float]
    values: dict[Regime, np.ndarray]
    grids: dict[Regime, Grid]
    hypothesis_violated: bool = False

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())


def constancy_report(quantity, grids: dict[Regime, Grid],
                     hypothesis_violated: bool = False) -> ConstancyReport:
    """Sample a time -> real quantity per regime (one array call, else per
    point) and report mean / max |C - mean|."""
    if not grids:
        raise EmptyGrid("constancy report needs at least one regime grid")
    means, devs, values = {}, {}, {}
    for regime, grid in grids.items():
        if len(grid.times) == 0:
            raise EmptyGrid(f"no samples in regime {regime}")
        samples = calculus.sample(quantity, grid.times)
        mean = float(np.mean(samples))
        means[regime] = mean
        devs[regime] = float(np.max(np.abs(samples - mean)))
        values[regime] = samples
    return ConstancyReport(means, devs, values, dict(grids), hypothesis_violated)
