"""Generalized momenta, the advanced-term hypothesis check, and the
DuBois-Reymond first-integral quantities, read from one ``PathRecord``.

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

with E = psi_0 the Euler-Lagrange residual and cdur the hypothesis residual:
the record holds E, cdur(t - tau) (delayed-block partials at t) and cdur(t)
(the advanced partials it takes for Lambda anyway).
"""

from __future__ import annotations

import numpy as np

from .errors import JOutOfRange, OutOfDomain
from .euler_lagrange import PathRecord
from .problem import AugmentedSetup, augmented_integrand
from .trajectory import Trajectory

__all__ = ["psi", "cdur_residual", "dr_quantity", "dr_residual"]


def psi(setup: AugmentedSetup, traj: Trajectory, j: int, t) -> np.ndarray:
    """Generalized momentum psi_j at a time, shape (n,), or at a time array,
    shape (npts, n)."""
    problem, F = setup.problem, augmented_integrand(setup)
    if not 1 <= j <= problem.m:
        raise JOutOfRange(f"j = {j} outside 1..{problem.m}")
    record = PathRecord(F, problem, traj, t, momenta=[j])
    return record.as_given(record.psi[j])


def cdur_residual(setup: AugmentedSetup, traj: Trajectory, t) -> float | np.ndarray:
    """Advanced-term hypothesis residual
    sum_{j=0}^m d_{j+m+3} F[q](t + tau) . q^(j+1)(t); zero means the
    DuBois-Reymond / Noether hypothesis holds at t.  A :class:`PathRecord`
    gives it at its first regime's points (``cdur_advanced``) and at its times
    less tau (``cdur_delayed``); here it is the delayed-block sum of the record
    at t + tau."""
    problem, F, tau = setup.problem, augmented_integrand(setup), setup.problem.tau
    ts = np.asarray(t, dtype=float)
    lo, hi, slack = problem.t1 - tau, problem.t2 - tau, 1e-10 * max(1.0, problem.span)
    if np.any(ts < lo - slack) or np.any(ts > hi + slack):
        raise OutOfDomain(f"hypothesis residual is defined on [{lo}, {hi}]")
    record = PathRecord(F, problem, traj, ts + tau, momenta=())
    return record.as_given(record.cdur_delayed)


def dr_quantity(setup: AugmentedSetup, traj: Trajectory, t) -> float | np.ndarray:
    """F - sum_j psi_j . q^(j): the bracket whose total derivative the
    DuBois-Reymond condition equates to d_1 F; a float at a time, an array
    at a time array."""
    record = PathRecord(augmented_integrand(setup), setup.problem, traj, t,
                        momenta=range(1, setup.problem.m + 1))
    return record.as_given(record.dr_quantity)


def dr_residual(setup: AugmentedSetup, traj: Trajectory, t) -> float | np.ndarray:
    """d/dt (F - sum psi_j . q^(j)) - d_1 F, zero along trajectories that
    satisfy the DuBois-Reymond condition; evaluated from the identity
    E . q' + cdur(t - tau) - [first regime] cdur(t) (module docstring)."""
    record = PathRecord(augmented_integrand(setup), setup.problem, traj, t, momenta=(0,))
    return record.as_given(record.dr_residual)
