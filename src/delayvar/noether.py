"""Transformation-group machinery and Noether conserved quantities.

The generator lift rho^0 = xi(t, q), rho^i = d/dt rho^(i-1) - q^(i) etadot
feeds the necessary condition of invariance, the invariance check and the
conserved quantity.  It is evaluated in its Leibniz form

    rho^i = xi^(i) - sum_{k=1}^{i} C(i, k) q^(i+1-k) eta^(k),

where xi^(k) and eta^(k) are total derivatives along the path, all orders
from one pass of the generators over Taylor jets
(:func:`delayvar.calculus.path_derivatives`), and the q derivatives are
exact; a constant generator therefore lifts to exact zeros.  The
definition-level invariance defect is the s-derivative at s = 0 of the
transformed action, taken in closed form from the block partials and the
lifts, so no symbolic variation calculus is needed; :func:`invariance_check`
takes it and the invariance lemma's two regime integrals from one record on
both regimes' quadrature nodes.  Group generators are extended by zero on
[t1 - tau, t1).

Each sweep calls eta(t, q) and xi(t, q) once, under the contract of
:class:`delayvar.problem.TransformationGroup`, with t the time jet and q the
path's jet of shape (n, npts) (q[i] is component i).  numpy ufuncs and
``np.array`` carry jets (``xi = lambda t, q: np.array([q[1], -q[0]])``); a
generator that rejects them (``math.cos``) raises NotJetCapable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import calculus, jet
from .errors import EmptyGrid, IOutOfRange, TransformEscapesDomain
from .euler_lagrange import PathRecord, smooth_breaks
from .problem import AugmentedSetup, ControlProblem, IsoperimetricProblem, TransformationGroup, \
    augmented_integrand
from .trajectory import Trajectory

__all__ = ["rho", "invariance_check", "invariance_defect", "necessary_condition_defect",
           "noether_quantity", "noether_sweep", "ConstancyReport", "constancy_report"]


def _on_points(generator, shape: tuple, t, *blocks):
    """generator(t, *blocks) in one call, the blocks (arrays, or with t the time jet the
    path's jets) given points first: broadcast to ``shape``, a jet when t is one."""
    args, is_jet = (t, *(b.T for b in blocks)), isinstance(t, jet.Jet)
    order = t.order if is_jet else 0
    out = jet.coefficients(calculus.jet_call(generator, *args) if is_jet else generator(*args),
                           order)
    if len(shape) == 2 and out.shape[1:] == shape[:1]:  # constant vector
        out = out[..., None]
    out = np.moveaxis(np.broadcast_to(np.moveaxis(out, 0, -1), shape + (order + 1,)), -1, 0)
    return jet.Jet(out) if is_jet else out[0]


def _generators(group: TransformationGroup, t, *blocks):
    """xi and eta at every point side by side, shape (npts, n + 1), from q
    (and, for a control problem, u) given points first."""
    npts, n = np.shape(jet.value_of(blocks[0]))
    return jet.hstack([_on_points(group.xi, (n, npts), t, *blocks).T,
                       _on_points(group.eta, (npts,), t, *blocks)])


def _along(group: TransformationGroup, args):
    """xi, eta and the gauge term at the points of ``args``, t and q read from
    them; shape (npts, n + 2).  A :class:`PathRecord` differentiates it for the lifts."""
    ts, n = args.values[0], args.layout.blocks[1]
    # a constant gauge expression evaluates to a scalar: 0 t broadcasts it
    gauge = 0.0 * ts + (0.0 if group.gauge is None else calculus.jet_call(group.gauge, args.values))
    return jet.hstack([_generators(group, ts, jet.hstack(args.values[1:n + 1])), gauge])


def _leibniz(derivs, qs, n: int):
    """rho^0 .. rho^top, each (npts, n), from the generator derivatives
    derivs[k] (xi^(k) in columns :n, eta^(k) in column n), k = 0..top, and the
    path derivatives qs[j] = q^(j)."""
    return [derivs[i][:, :n] - sum(math.comb(i, k) * qs[i + 1 - k] * derivs[k][:, n:n + 1]
                                   for k in range(1, i + 1)) for i in range(len(derivs))]


def _lifts(group: TransformationGroup, traj: Trajectory, ts: np.ndarray, qs,
           order: int) -> list[np.ndarray]:
    """rho^0 .. rho^order at ts from the path values qs[j] = q^(j)(ts), j <= order."""
    derivs = calculus.path_derivatives(
        lambda u: _generators(group, u, jet.path(qs, 1, u.order)[0]), ts, order)
    return _leibniz(derivs, qs, traj.n)


def rho(group: TransformationGroup, traj: Trajectory, i: int, t) -> np.ndarray:
    """Generator lift rho^i along the trajectory at a time, shape (n,), or at
    a time array, shape (npts, n)."""
    if not 0 <= i <= traj.m:
        raise IOutOfRange(f"i = {i} outside 0..{traj.m}")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = _lifts(group, traj, ts, traj.eval(ts, range(i + 1)), i)[i]
    return out[0] if np.ndim(t) == 0 else out


def noether_quantity(setup: AugmentedSetup, group: TransformationGroup, traj: Trajectory,
                     t) -> float | np.ndarray:
    """sum_j psi_j . rho^(j-1) + (F - sum_j psi_j . q^(j)) eta - gauge at a
    time (a float) or at an array of times (an array)."""
    out, record = noether_sweep(setup, group, traj, t)
    return record.as_given(out)


def noether_sweep(setup: AugmentedSetup, group: TransformationGroup, traj: Trajectory,
                  t) -> tuple[np.ndarray, PathRecord]:
    """The Noether quantity at the times t, shape (npts,), and the record it
    reads (its ``cdur_delayed`` at every point, ``cdur_advanced`` at the first
    regime's)."""
    problem = setup.problem
    m, n = problem.m, problem.n
    record = PathRecord(augmented_integrand(setup), problem, traj, t,
                        momenta=range(1, m + 1), along=functools.partial(_along, group),
                        along_order=m - 1)
    rhos = _leibniz(record.along, record.q, n)
    out = record.dr_quantity * record.along[0][:, n] - record.along[0][:, n + 1] + sum(
        np.sum(record.psi[j] * lift, axis=1) for j, lift in enumerate(rhos, start=1))
    return out, record


# ---------------------------------------------------------------------------
# invariance


def invariance_check(setup: AugmentedSetup, group: TransformationGroup, traj: Trajectory,
                     interval: tuple[float, float] | None = None) -> tuple[float, float, float]:
    """The invariance defect on [a, b] (default [t1, t2], a <= b) and the lemma's
    integrals over its first- and second-regime pieces, from one record on both
    pieces' quadrature nodes.

    The defect is d/ds at s = 0 of the transformed action minus the gauge allowance,

        int_a^b [d_1 F eta + sum_j d_(j+2) F . rho^j(t) + sum_j d_(j+m+3) F . rho^j(t - tau)
                 + F eta' - (gauge)'] dt,

    with rho^j(t - tau) = 0 left of t1.  The lemma's integrand takes the
    delayed-block terms at t + tau with rho^j(t) instead, on the first regime
    only.  On [t1, t2] the defect is the sum of the two integrals; all three
    vanish when the functional is invariant under the group up to the gauge.
    """
    problem = setup.problem
    a, b = interval if interval is not None else (problem.t1, problem.t2)
    if a > b:
        raise ValueError(f"interval [{a}, {b}] is reversed: it needs a <= b")
    slack = 1e-9 * max(1.0, problem.span)
    if a < problem.t1 - slack or b > problem.t2 + slack:
        raise TransformEscapesDomain(f"interval [{a}, {b}] leaves [{problem.t1}, {problem.t2}]")
    m, n, tau = problem.m, problem.n, problem.tau
    breaks = np.unique(np.append(smooth_breaks(problem, traj), problem.t1 + tau))

    def integrand(ts):
        record = PathRecord(augmented_integrand(setup), problem, traj, ts, momenta=(),
                            along=functools.partial(_along, group), along_order=max(m, 1))
        gens, rates = record.along[0], record.along[1]
        lifts = _leibniz(record.along, record.q, n)[: m + 1]
        defect = record.d1 * gens[:, n] + record.value * rates[:, n] - rates[:, n + 1]
        lemma = defect.copy()
        for j, lift in enumerate(lifts):
            defect += np.sum(record.block_partial(j + 2).T * lift, axis=1)
            lemma += np.sum(record.rate(0, j) * lift, axis=1)
        past = ts - tau >= problem.t1  # the lifts vanish left of t1
        if np.any(past):
            delayed = _lifts(group, traj, ts[past] - tau, [q[past] for q in record.q_delayed], m)
            for j in range(m + 1):
                defect[past] += np.sum(record.block_partial(j + m + 3).T[past] * delayed[j], axis=1)
        return np.column_stack([defect, lemma])

    split = problem.t2 - tau  # an empty piece has no nodes and integrates to 0.0
    rules = [calculus.panel_rule(lo, hi, breaks) if lo < hi else (np.zeros(0),) * 2
             for lo, hi in ((a, min(b, split)), (max(a, split), b))]
    values = integrand(np.concatenate([nodes for nodes, _ in rules]))
    # each piece summed by its own weights, column by column, as calculus.integrate sums it
    first, second = (np.zeros(2) + [weights @ col for col in np.ascontiguousarray(piece.T)]
                     for (_, weights), piece in zip(rules, np.split(values, [len(rules[0][0])])))
    return float(first[0] + second[0]), float(first[1]), float(second[1])


def invariance_defect(setup: AugmentedSetup, group: TransformationGroup, traj: Trajectory,
                      interval: tuple[float, float] | None = None) -> float:
    """The invariance defect on [a, b] (:func:`invariance_check`); near zero
    means the functional is invariant under the group there, up to the gauge term."""
    return invariance_check(setup, group, traj, interval)[0]


def necessary_condition_defect(setup: AugmentedSetup, group: TransformationGroup,
                               traj: Trajectory) -> tuple[float, float]:
    """The two regime integrals of the invariance lemma (:func:`invariance_check`);
    both vanish when the functional is invariant up to the gauge term."""
    return invariance_check(setup, group, traj)[1:]


# ---------------------------------------------------------------------------
# constancy reporting


@dataclass
class ConstancyReport:
    """Mean and worst deviation of a would-be constant of motion on each regime
    its times reach, keyed "first" (t < t2 - tau) then "second", and its
    values in the times' order."""

    means: dict[str, float]
    deviations: dict[str, float]
    values: np.ndarray

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())


def constancy_report(quantity, problem: IsoperimetricProblem | ControlProblem,
                     ts) -> ConstancyReport:
    """Mean and max |C - mean| per regime of a would-be constant C, called once
    on the times ts (a scalar broadcasts); the regimes split at t2 - tau."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        raise EmptyGrid("constancy report needs at least one time")
    values = np.broadcast_to(np.asarray(quantity(ts), dtype=float), ts.shape).copy()
    first = ts < problem.t2 - problem.tau
    means, devs = {}, {}
    for regime, part in (("first", values[first]), ("second", values[~first])):
        if part.size:
            means[regime] = mean = float(np.mean(part))
            devs[regime] = float(np.max(np.abs(part - mean)))
    return ConstancyReport(means, devs, values)
