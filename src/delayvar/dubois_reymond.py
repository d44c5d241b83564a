"""Generalized momenta, the advanced-term hypothesis check, and the
DuBois-Reymond first-integral quantities.

The hypothesis residual (the sum of advanced partials dotted with derivative
lifts) is reported but never gates anything downstream: quantities are still
evaluated when it fails, with hypothesis_violated set in reports, because part
of this toolkit's job is auditing candidate trajectories that do not satisfy
the hypothesis.

The DuBois-Reymond residual is not differentiated numerically.  Along any
piecewise-smooth path, differentiating F - sum_j psi_j . q^(j) with
psi_(j-1) = Lambda_(j-1) - psi_j' telescopes to the identity

    d/dt (F - sum_j psi_j . q^(j)) - d_1 F
        = E(t) . q'(t) + cdur(t - tau) - [first regime] cdur(t),

with E = psi_0 the Euler-Lagrange residual and cdur the hypothesis residual,
so the residual costs one Euler-Lagrange evaluation and two hypothesis sums.
"""

from __future__ import annotations

import numpy as np

from . import calculus
from .errors import JOutOfRange, OutOfDomain
from .euler_lagrange import Regime, momentum
from .problem import AugmentedSetup, args_at, augmented_integrand
from .trajectory import Trajectory

__all__ = ["psi", "psi_values", "cdur_residual", "dr_quantity", "dr_residual"]


def psi_values(setup: AugmentedSetup, traj: Trajectory, ts, regime: Regime) -> list[np.ndarray]:
    """[psi_1 .. psi_m] on a time array, each of shape (npts, n)."""
    problem = setup.problem
    F = augmented_integrand(setup)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return [momentum(F, problem, traj, j, ts, regime) for j in range(1, problem.m + 1)]


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
    # derivatives past the trajectory's degree vanish
    for j in range(min(problem.m, traj.max_degree - 1) + 1):
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
    """d/dt (F - sum psi_j . q^(j)) - d_1 F, zero along trajectories that
    satisfy the DuBois-Reymond condition; evaluated from the identity
    E . q' + cdur(t - tau) - [first regime] cdur(t) (module docstring)."""
    problem = setup.problem
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    E = momentum(augmented_integrand(setup), problem, traj, 0, ts, regime)
    out = np.sum(E * traj.eval(ts, 1), axis=1) + cdur_residual(setup, traj, ts - problem.tau)
    if regime is Regime.FIRST:
        out -= cdur_residual(setup, traj, ts)
    return float(out[0]) if scalar else out
