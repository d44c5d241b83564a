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
from .errors import EmptyGrid, IOutOfRange, TransformEscapesDomain
from .euler_lagrange import PathRecord, Regime, regime_interval, smooth_breaks, stencil_bounds
from .problem import AugmentedSetup, TransformationGroup, args_at, augmented_integrand
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


def _generators(group: TransformationGroup, ts: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """xi and eta at every point side by side, q given as (npts, n); shape (npts, n + 1)."""
    xi = _on_points(group.xi, ts, qs, (qs.shape[1], len(ts)))
    eta = _on_points(group.eta, ts, qs, ts.shape)
    return np.vstack([xi, eta[None]]).T


def _along(group: TransformationGroup, ts: np.ndarray, args) -> np.ndarray:
    """xi, eta and the gauge term at the points of ``args``, q read from them;
    shape (npts, n + 2).  A :class:`PathRecord` differentiates it for the lifts."""
    return np.column_stack([_generators(group, ts, args.block(2).T), _gauge(group, ts, args)])


def _leibniz(derivs, qs, n: int):
    """rho^0 .. rho^top, each (npts, n), from the generator derivatives
    derivs[k] (xi^(k) in columns :n, eta^(k) in column n), k = 0..top, and the
    path derivatives qs[j] = q^(j)."""
    return [derivs[i][:, :n] - sum(math.comb(i, k) * qs[i + 1 - k] * derivs[k][:, n:n + 1]
                                   for k in range(1, i + 1)) for i in range(len(derivs))]


def rho(group: TransformationGroup, traj: Trajectory, i: int, t) -> np.ndarray:
    """Generator lift rho^i along the trajectory at a time, shape (n,), or at
    a time array, shape (npts, n)."""
    if not 0 <= i <= traj.m:
        raise IOutOfRange(f"i = {i} outside 0..{traj.m}")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    los, his = _piece_bounds(traj, ts)
    span = traj.domain[1] - traj.domain[0]

    def gens(us):
        return _generators(group, us, traj.eval(us, 0))

    derivs = [calculus.total_derivative_many(gens, ts, k, los, his, calculus.default_step(span, k))
              for k in range(i + 1)]
    out = _leibniz(derivs, traj.eval(ts, range(i + 1)), traj.n)[i]
    return out[0] if np.ndim(t) == 0 else out


def _gauge(group: TransformationGroup, ts: np.ndarray, args) -> np.ndarray:
    if group.gauge is None:
        return np.zeros(len(ts))
    # constant gauge expressions evaluate to a scalar even for array slots
    return np.broadcast_to(np.asarray(group.gauge(args.values), dtype=float), ts.shape)


def _gauge_dot_many(group, traj, problem, ts, los, his) -> np.ndarray:
    if group.gauge is None:
        return np.zeros(len(ts))
    return calculus.total_derivative_many(
        lambda u: _gauge(group, u, args_at(traj, u, problem.tau, problem.m))[:, None],
        ts, 1, los, his, calculus.default_step(problem.span, 1))[:, 0]


def noether_quantity(setup: AugmentedSetup, group: TransformationGroup, traj: Trajectory,
                     t, regime: Regime) -> float | np.ndarray:
    """sum_j psi_j . rho^(j-1) + (F - sum_j psi_j . q^(j)) eta - gauge at a
    time (a float) or at an array of times inside ``regime`` (an array)."""
    problem = setup.problem
    m, n = problem.m, problem.n
    record = PathRecord(augmented_integrand(setup), problem, traj, t, regime,
                        momenta=range(1, m + 1), along=functools.partial(_along, group),
                        along_order=m - 1)
    rhos = _leibniz(record.along, record.q, n)
    out = record.dr_quantity * record.along[0][:, n] - record.along[0][:, n + 1] + sum(
        np.sum(record.psi[j] * lift, axis=1) for j, lift in enumerate(rhos, start=1))
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
    m, n = problem.m, problem.n

    def integrand(ts, regime: Regime):
        record = PathRecord(F, problem, traj, ts, regime, momenta=(),
                            along=functools.partial(_along, group), along_order=max(m, 1))
        gens, rates = record.along[0], record.along[1]
        total = -rates[:, n + 1] + record.d1 * gens[:, n] + record.value * rates[:, n]
        for k, lift in enumerate(_leibniz(record.along, record.q, n)[: m + 1]):
            total += np.sum(record.rate(0, k) * lift, axis=1)
        return total

    breaks = smooth_breaks(problem, traj)
    return tuple(calculus.integrate(functools.partial(integrand, regime=regime),
                                    *regime_interval(problem, regime), breaks)
                 for regime in (Regime.FIRST, Regime.SECOND))


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
