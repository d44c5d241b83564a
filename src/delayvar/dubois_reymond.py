"""Generalized momenta, the advanced-term hypothesis check, and the
DuBois-Reymond first-integral quantities.

The hypothesis residual (the sum of advanced partials dotted with derivative
lifts) is reported but never gates anything downstream: quantities are still
evaluated when it fails, with hypothesis_violated set in reports, because part
of this toolkit's job is auditing candidate trajectories that do not satisfy
the hypothesis.
"""

from __future__ import annotations

import numpy as np

from . import calculus
from .errors import JOutOfRange, OutOfDomain
from .euler_lagrange import (
    Regime,
    regime_interval,
    smooth_breaks,
    stacked_partial_map,
    stencil_bounds,
)
from .problem import AugmentedSetup, args_at, augmented_integrand
from .trajectory import Trajectory

__all__ = ["psi", "psi_values", "cdur_residual", "dr_quantity", "dr_residual"]


def _psi_core(F, problem, traj, j: int, ts: np.ndarray, regime: Regime,
              los, his) -> np.ndarray:
    """psi_j = sum_{i=0}^{m-j} (-1)^i d^i/dt^i Lambda_{i+j}; shape (npts, n)."""
    total = np.zeros((len(ts), problem.n))
    for i in range(problem.m - j + 1):
        fn = stacked_partial_map(F, traj, problem.tau, problem.m, i + j, regime)
        if i == 0:
            term = fn(ts)
        else:
            term = calculus.total_derivative_many(
                fn, ts, i, los, his, calculus.default_step(problem.span, i))
        total += ((-1) ** i) * term
    return total


def psi_values(setup: AugmentedSetup, traj: Trajectory, ts, regime: Regime) -> list[np.ndarray]:
    """[psi_1 .. psi_m] on a time array, each of shape (npts, n)."""
    problem = setup.problem
    F = augmented_integrand(setup)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    lo, hi = regime_interval(problem, regime)
    los, his = stencil_bounds(ts, smooth_breaks(problem, traj), lo, hi)
    return [_psi_core(F, problem, traj, j, ts, regime, los, his)
            for j in range(1, problem.m + 1)]


def psi(setup: AugmentedSetup, traj: Trajectory, j: int, t: float,
        regime: Regime) -> np.ndarray:
    """Generalized momentum psi_j at a single time; shape (n,)."""
    problem = setup.problem
    if not 1 <= j <= problem.m:
        raise JOutOfRange(f"j = {j} outside 1..{problem.m}")
    return psi_values(setup, traj, [t], regime)[j - 1][0]


def cdur_residual(setup: AugmentedSetup, traj: Trajectory, t) -> float | np.ndarray:
    """Advanced-term hypothesis residual
    sum_{j=0}^m d_{j+m+3} F[q](t + tau) . q^(j+1)(t); zero means the
    DuBois-Reymond / Noether hypothesis holds at t."""
    problem = setup.problem
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = problem.t1 - problem.tau, problem.t2 - problem.tau
    slack = 1e-10 * max(1.0, problem.span)
    if np.any(ts < lo - slack) or np.any(ts > hi + slack):
        raise OutOfDomain(f"hypothesis residual is defined on [{lo}, {hi}]")
    F = augmented_integrand(setup)
    adv = args_at(traj, ts + problem.tau, problem.tau, problem.m)
    total = np.zeros(len(ts))
    for j in range(problem.m + 1):
        grad = calculus.partial(F, j + problem.m + 3, adv)  # (n, npts)
        dq = traj.eval(ts, j + 1)  # (npts, n)
        total += np.sum(grad.T * dq, axis=1)
    return float(total[0]) if scalar else total


def dr_quantity(setup: AugmentedSetup, traj: Trajectory, t, regime: Regime) -> float | np.ndarray:
    """F - sum_j psi_j . q^(j): the bracket whose total derivative the
    DuBois-Reymond condition equates to d_1 F."""
    problem = setup.problem
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    F = augmented_integrand(setup)
    value = np.asarray(F(args_at(traj, ts, problem.tau, problem.m).values), dtype=float)
    for j, psi_j in enumerate(psi_values(setup, traj, ts, regime), start=1):
        value = value - np.sum(psi_j * traj.eval(ts, j), axis=1)
    return float(value[0]) if scalar else value


def dr_residual(setup: AugmentedSetup, traj: Trajectory, t, regime: Regime) -> float | np.ndarray:
    """d/dt (F - sum psi_j . q^(j)) - d_1 F; zero along trajectories that
    satisfy the DuBois-Reymond condition."""
    problem = setup.problem
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = regime_interval(problem, regime)
    los, his = stencil_bounds(ts, smooth_breaks(problem, traj), lo, hi)
    # inner psi stencils need room around every outer node
    margin = 2.2 * calculus.default_step(problem.span, max(1, problem.m - 1))
    if problem.m > 1:
        los, his = los + margin, his - margin
    outer = calculus.total_derivative_many(
        lambda u: dr_quantity(setup, traj, u, regime)[:, None],
        ts, 1, los, his, calculus.default_step(problem.span, 1))[:, 0]
    F = augmented_integrand(setup)
    d1 = calculus.partial(F, 1, args_at(traj, ts, problem.tau, problem.m))[0]
    out = outer - d1
    return float(out[0]) if scalar else out
