"""Delayed optimal-control layer: Hamiltonian, Pontryagin residuals, the
Hamiltonian-form and the second-order corollary conserved quantities (at a
time or a time array, each generator called once on arrays under the contract
of :class:`delayvar.problem.TransformationGroup`), and the order-reduction map
from m = 2 variational problems to control form.

Hamiltonian argument order is (t; q; u; q_tau; u_tau; p; lambda); the p-block
partial recovers the velocity map, so all Pontryagin conditions are plain
block partials of one integrand.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import calculus
from .errors import OutOfDomain, WrongOrder
from .euler_lagrange import PathRecord
from .noether import _generators, _on_points
from .problem import (
    ArgLayout,
    ArgVector,
    AugmentedSetup,
    ControlProblem,
    Integrand,
    IsoperimetricProblem,
    TransformationGroup,
    augmented_integrand,
)
from .trajectory import Trajectory

__all__ = ["PontryaginTriple", "PmpResiduals", "hamiltonian_integrand", "control_args_at",
           "hamiltonian", "pmp_residuals",
           "hamiltonian_noether_quantity", "second_order_noether_quantity",
           "reduce_to_control"]


@dataclass(frozen=True)
class PontryaginTriple:
    """State / control / costate candidate for a delayed control problem.

    q and u live on [t1 - tau, t2]; the costate p on [t1, t2] only.
    """

    q: Trajectory
    u: Trajectory
    p: Trajectory


def hamiltonian_integrand(cp: ControlProblem) -> Integrand:
    """H = L - lam.g + p.phi over the 7-block control layout."""
    n, mc, k = cp.n, cp.mc, cp.k
    nsub = 1 + 2 * (n + mc)

    def fn(values):  # a callable rejecting jets is named, not this wrapper
        sub = values[:nsub]
        out = calculus.jet_call(cp.L, sub)
        for j in range(k):
            lam_j = values[nsub + n + j]
            out = out - lam_j * calculus.jet_call(cp.g[j], sub)
        for i in range(n):
            out = out + values[nsub + i] * calculus.jet_call(cp.phi[i], sub)
        return out

    return Integrand(fn, name="hamiltonian")


def control_args_at(cp: ControlProblem, triple: PontryaginTriple, lam, t) -> ArgVector:
    """(t, q(t), u(t), q(t-tau), u(t-tau), p(t), lam) with array support."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    t = np.asarray(t, dtype=float)
    q, u, p = triple.q, triple.u, triple.p
    blocks = [q.eval(t, 0), u.eval(t, 0), q.eval(t - cp.tau, 0), u.eval(t - cp.tau, 0),
              p.eval(t, 0), np.broadcast_to(lam, t.shape + lam.shape)]
    return ArgVector.from_blocks(t, blocks, ArgLayout.control(cp.n, cp.mc, len(lam)))


def hamiltonian(cp: ControlProblem, args: ArgVector) -> float | np.ndarray:
    value = hamiltonian_integrand(cp)(args.values)
    return value if np.ndim(value) else float(value)


@dataclass(frozen=True)
class PmpResiduals:
    """Residuals of the delayed Hamiltonian system and stationarity conditions."""

    state: np.ndarray
    costate: np.ndarray
    stationarity: np.ndarray

    @property
    def sup(self) -> float:
        return max(float(np.max(np.abs(r))) for r in
                   (self.state, self.costate, self.stationarity))


def pmp_residuals(cp: ControlProblem, triple: PontryaginTriple, lam, t) -> PmpResiduals:
    """state: qdot - d_p H; costate: pdot + d_q H (+ advanced d_{q_tau} H on
    the first regime); stationarity: d_u H (+ advanced d_{u_tau} H)."""
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    slack = 1e-10 * max(1.0, cp.span)
    if np.any(ts < cp.t1 - slack) or np.any(ts > cp.t2 + slack):
        raise OutOfDomain(f"PMP residuals are evaluated on [{cp.t1}, {cp.t2}]")
    H = hamiltonian_integrand(cp)
    args = control_args_at(cp, triple, lam, ts)
    state = triple.q.eval(ts, 1) - calculus.partial(H, 6, args).T
    costate = triple.p.eval(ts, 1) + calculus.partial(H, 2, args).T
    stationarity = calculus.partial(H, 3, args).T
    first = ts < cp.t2 - cp.tau
    if np.any(first):
        adv = control_args_at(cp, triple, lam, ts[first] + cp.tau)
        costate[first] += calculus.partial(H, 4, adv).T
        stationarity[first] += calculus.partial(H, 5, adv).T
    if scalar:
        return PmpResiduals(state[0], costate[0], stationarity[0])
    return PmpResiduals(state, costate, stationarity)


def hamiltonian_noether_quantity(cp: ControlProblem, group: TransformationGroup,
                                 triple: PontryaginTriple, lam, t) -> float | np.ndarray:
    """-p . xi(t, q, u) + H eta(t, q, u), one expression on both regimes, at a
    time (a float) or at an array of times (an array): one argument vector,
    one H call and one call of each generator."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    args = control_args_at(cp, triple, lam, ts)
    gens = _generators(group, ts, args.block(2).T, args.block(3).T)
    out = hamiltonian(cp, args) * gens[:, cp.n] - np.sum(args.block(6).T * gens[:, :cp.n], axis=1)
    return float(out[0]) if np.ndim(t) == 0 else out


def second_order_noether_quantity(setup: AugmentedSetup, traj: Trajectory, t, eta: float,
                                  xi0=None, xi1=None) -> float | np.ndarray:
    """Second-order conserved quantity F eta + psi_1 . (xi0 - qdot eta)
    + psi_2 . (xi1 - qddot eta) at a time (a float) or at a time array (an
    array); eta is a constant, xi0 and xi1 (None: zero) take (t, q)."""
    problem, F = setup.problem, augmented_integrand(setup)
    if problem.m != 2:
        raise WrongOrder(f"second-order quantity needs m = 2, problem has m = {problem.m}")

    record = PathRecord(F, problem, traj, t, momenta=(1, 2))
    out, shape = record.value * eta, record.q[0].T.shape
    for j, xi in ((1, xi0), (2, xi1)):
        gen = 0.0 if xi is None else _on_points(xi, shape, record.ts, record.q[0]).T
        out = out + np.sum(record.psi[j] * (gen - eta * record.q[j]), axis=1)
    return record.as_given(out)


# ---------------------------------------------------------------------------
# order reduction


def reduce_to_control(problem: IsoperimetricProblem) -> ControlProblem:
    """Rewrite an m = 2 problem as a delayed control problem with state
    (q, qdot), control u = qddot, and chain dynamics phi = (q1, u).

    The flat argument order of the two layouts coincides, so integrands carry
    over unchanged; only block indexing is re-interpreted.
    """
    if problem.m != 2:
        raise WrongOrder(f"order reduction needs m = 2, problem has m = {problem.m}")
    n = problem.n
    n_state, mc = 2 * n, n

    history = control_history = None
    if problem.history is not None:
        hist_traj = Trajectory(n, 1, problem.stitched_history(), validate=False)

        def history(t):  # (q, qdot) components first
            return np.concatenate(hist_traj.eval(t, [0, 1]), axis=-1).T

        def control_history(t):
            return hist_traj.eval(t, 2).T

    terminal = None if problem.boundary is None else problem.boundary.reshape(-1)
    return ControlProblem(
        n=n_state, mc=mc, tau=problem.tau, t1=problem.t1, t2=problem.t2,
        L=problem.L,
        # qdot_i is (q, qdot)'s slot 1 + n + i, and so is u_(i - n) for i >= n
        phi=tuple(Integrand(operator.itemgetter(1 + n + i), name=f"chain_phi_{i}")
                  for i in range(n_state)),
        g=problem.g,
        l=problem.l, history=history, control_history=control_history,
        terminal_state=terminal,
    )
