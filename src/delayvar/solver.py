"""Global collocation solvers for the delayed Euler-Lagrange boundary-value
problem (trajectory and multipliers jointly) and the delayed Pontryagin
system, by damped Newton iteration on a square nonlinear system.

Delayed problems couple retarded (t - tau) and advanced (t + tau) values, so
the full-horizon system is assembled at once rather than marching; the mesh
is uniform per regime with a forced node at t2 - tau.  One collocation record
serves both problems.  Its Jacobian, re-factorized every iteration, takes the
exactly linear rows (continuity, history, terminal data) in closed form, the
isoperimetric rows by the chain rule through the basis, and the collocation
rows by forward differences, with columns grouped by a greedy colouring of
the sparsity the delay and the integrand fix (Curtis, Powell & Reid 1974).
NonConvergence is a returned state (report.converged = False); a numerically
singular Jacobian raises.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import calculus
from .errors import SingularJacobian
from .euler_lagrange import Classification, PathRecord, Regime, ResidualReport, classify, \
    el_residual, residual_grids
from .optimal_control import PontryaginTriple, control_args_at, pmp_residuals
from .problem import ArgLayout, ArgVector, AugmentedSetup, ControlProblem, Integrand, \
    IsoperimetricProblem, args_at, augmented_integrand, integrals
from .trajectory import PolySegment, Trajectory, segments_from_callable

__all__ = ["CollocationScheme", "SolveReport", "solve_el", "solve_pmp", "verify"]


@dataclass(frozen=True)
class CollocationScheme:
    """Collocation mesh and Newton parameters.

    ``nodes`` is the collocation-node count per regime; the basis degree is
    2m + 2 for variational problems and 3 for control problems.
    """

    nodes: int = 64
    max_iterations: int = 50
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_norm: float
    lam: np.ndarray
    condition: float

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "lambda": [float(v) for v in np.atleast_1d(self.lam)],
            # no Jacobian is ever factorized when the start already converges
            "condition": None if math.isnan(self.condition) else self.condition,
        }


def _mesh(t1: float, t2: float, tau: float, nodes: int, colloc: int):
    """Segments per regime, the edges of the uniform two-regime mesh split at
    t2 - tau, and ``colloc`` Gauss collocation times per segment."""
    per_regime = max(1, math.ceil(nodes / colloc))
    edges = np.concatenate([np.linspace(t1, t2 - tau, per_regime + 1),
                            np.linspace(t2 - tau, t2, per_regime + 1)[1:]])
    gauss, _ = np.polynomial.legendre.leggauss(colloc)
    times = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * gauss
                            for a, b in zip(edges[:-1], edges[1:])])
    return per_regime, edges, times


def _row_reads(parts, layout: ArgLayout, argmap: dict, direct, terms) -> set:
    """(unknown block, time shift) pairs a row type reads: ``direct`` ones plus,
    per (partial block, shift) term, the argument blocks that partial of any
    integrand in ``parts`` depends on (moving one from a generic point, up or
    negative, changes the partial or makes it fail), mapped through ``argmap``
    ({argument block: (unknown block, derivative order, time shift)}) and
    shifted.  ``parts`` are probed apart, as in a weighted sum their
    partials could cancel at the probe's weights."""
    base = [0.61 + 0.137 * i for i in range(layout.size)]

    def partial_at(F, block, arg, move):
        values = list(base)
        values[layout.block_slice(arg)] = [move(v) for v in base[layout.block_slice(arg)]]
        try:
            with np.errstate(all="ignore"):
                out = np.asarray(calculus.partial(F, block, ArgVector(values, layout)), float)
        except Exception:  # outside the integrand's domain: proves nothing, so "read"
            return None
        return out if np.all(np.isfinite(out)) else None

    reads = set(direct)
    for F in parts:
        for block, shift in terms:
            ref = partial_at(F, block, 1, float)  # at the generic point itself
            for arg, (unknown, _, arg_shift) in argmap.items():
                outs = (partial_at(F, block, arg, move)
                        for move in (lambda v: 2 * v + 1, lambda v: -v))
                if ref is None or any(out is None or not np.array_equal(out, ref) for out in outs):
                    reads.add((unknown, arg_shift + shift))
    return reads


# a piecewise-polynomial unknown: components, coefficients per component and segment,
# smoothness order, history segments before t1, derivative orders matched at knots
_Block = namedtuple("_Block", "ncomp width m history matched", defaults=(1, (), 1))


class _Collocation:
    """One collocation system and its damped Newton driver.

    Unknowns: each block's coefficients as (segment, component, power), then
    one multiplier per g.  Rows: ``nonlinear(trajs, lam)``, A x - c (continuity
    at knots, then ``boundary``: (block, s, t, order) with that derivative's
    value), then int g(args(trajs, t)) dt - l, ``argmap`` as for _row_reads.
    ``rows``: per collocation row type, its rows per point and the (block,
    shift) pairs it reads; ``reach``: how far from t its stencils sample."""

    def __init__(self, edges, blocks, nonlinear, boundary, rows, times, g, l, args, argmap,
                 reach=0.0):
        self.edges, self.blocks, self.k = edges, blocks, len(g)
        self.nonlinear, self.g, self.l, self.args, self.argmap = nonlinear, g, l, args, argmap
        self.offsets = np.cumsum([0] + [(len(edges) - 1) * b.ncomp * b.width for b in blocks])
        self.ncoef = int(self.offsets[-1])
        lin = [self._evaluation(b, s, edges[s + 1], o) - self._evaluation(b, s + 1, edges[s + 1], o)
               for s in range(len(edges) - 2) for b, blk in enumerate(blocks)
               for o in range(blk.matched)]
        values = [np.asarray(value, dtype=float).reshape(-1) for _, value in boundary]
        self.A = np.vstack(lin + [self._evaluation(*where) for where, _ in boundary])
        self.c = np.concatenate([np.zeros(len(self.A) - sum(map(len, values)))] + values)
        self.pinv = np.linalg.pinv(self.A)
        # the rule integrate uses on the paths' breakpoints and their images under
        # the argument shifts, so the constraint rows equal an integrate of g
        breaks = {seg.a for blk in blocks for seg in blk.history} | set(edges)
        self.nodes, self.weights = calculus.panel_rule(
            edges[0], edges[-1], {x - shift for x in breaks for _, _, shift in argmap.values()})
        self.pattern = self._pattern(rows, times, reach)
        # greedy colouring: a group holds coefficient columns sharing no row
        dense = self.pattern.astype(float)
        conflict = (dense.T @ dense) > 0
        colour = np.full(self.ncoef, -1)
        for col in range(self.ncoef):
            used = colour[conflict[col]]
            colour[col] = np.flatnonzero(~np.isin(np.arange(len(used) + 1), used))[0]
        self.groups = [np.flatnonzero(colour == g) for g in range(colour.max() + 1)]

    def _column(self, b: int, s):
        return self.offsets[b] + s * self.blocks[b].ncomp * self.blocks[b].width

    def _basis(self, b: int, s, t, order: int) -> np.ndarray:
        """d^order/dt^order (t - mid)^j on block b's segments s, j < its width,
        mid computed as PolySegment does; shape t.shape + (width,)."""
        dt = np.asarray(t - 0.5 * (self.edges[s] + self.edges[s + 1]))[..., None]
        j = np.arange(self.blocks[b].width)
        return np.array([math.perm(i, order) for i in j]) * dt ** np.maximum(j - order, 0)

    def _evaluation(self, b: int, s: int, t: float, order: int) -> np.ndarray:
        """x -> order-th derivative of block b on segment s at t, as a matrix."""
        blk, start = self.blocks[b], self._column(b, s)
        out = np.zeros((blk.ncomp, self.ncoef + self.k))
        out[:, start:start + blk.ncomp * blk.width] = np.kron(np.eye(blk.ncomp),
                                                              self._basis(b, s, t, order))
        return out

    def _pattern(self, rows, times: np.ndarray, reach: float) -> np.ndarray:
        """Collocation rows x coefficient columns that may be nonzero: a row at
        t reads its blocks on the segments meeting [t - reach, t + reach] +
        shift, widened by roundoff so a point on a knot takes both neighbours."""
        eps = 1e-9 * max(1.0, self.edges[-1] - self.edges[0])
        parts = []
        for count, reads in rows:
            part = np.zeros((len(times), count, self.ncoef), bool)
            for b, shift in reads:
                first = np.searchsorted(self.edges[1:], times + (shift - reach - eps))
                last = np.searchsorted(self.edges[:-1], times + (shift + reach + eps), "right")
                for p, (lo, hi) in enumerate(zip(first, last)):
                    part[p, :, self._column(b, lo):self._column(b, max(lo, hi))] = True
            parts.append(part.reshape(-1, self.ncoef))
        return np.vstack(parts)

    def build(self, x: np.ndarray) -> tuple[list[Trajectory], np.ndarray]:
        trajs = []
        for b, blk in enumerate(self.blocks):
            coeffs = x[self.offsets[b]:self.offsets[b + 1]].reshape(-1, blk.ncomp, blk.width)
            segs = [PolySegment(a, e, c) for a, e, c in zip(self.edges, self.edges[1:], coeffs)]
            trajs.append(Trajectory(blk.ncomp, blk.m, list(blk.history) + segs, validate=False))
        return trajs, x[self.ncoef:]

    def residual(self, x: np.ndarray) -> np.ndarray:
        trajs, lam = self.build(x)
        parts = [self.nonlinear(trajs, lam), self.A @ x - self.c]
        if self.k:  # as problem.integrals assembles the integrand columns
            values = self.args(trajs, self.nodes).values
            parts.append(self.weights @ np.column_stack(
                [np.broadcast_to(np.asarray(gj(values), dtype=float), self.nodes.shape)
                 for gj in self.g]) - self.l)
        return np.concatenate(parts)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Move x onto A x = c: the linear rows hold whether or not Newton converges."""
        defect = self.A @ x - self.c
        return x if float(np.max(np.abs(defect))) <= 1e-13 else x - self.pinv @ defect

    def jacobian(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """A on the linear rows, the constraint rows by the chain rule, and forward
        differences elsewhere, step 1e-7 (1 + |x_i|), as if column by column."""
        nl, top = self.pattern.shape[0], self.pattern.shape[0] + len(self.c)
        h = 1e-7 * (1.0 + np.abs(x))
        jac = np.zeros((len(r), len(x)))
        jac[nl:top] = self.A
        # coloured groups, then each multiplier (it reaches every collocation row)
        for cols in self.groups + [[j] for j in range(self.ncoef, len(x))]:
            xp = x.copy()
            xp[cols] += h[cols]
            diff = (self.nonlinear(*self.build(xp)) - r[:nl])[:, None]
            mask = self.pattern[:, cols] if cols[0] < self.ncoef else True
            jac[:nl, cols] = np.where(mask, diff, 0.0) / h[cols]
        if self.k:
            self._constraint_rows(self.build(x)[0], jac[top:])
        return jac

    def _constraint_rows(self, trajs, out: np.ndarray) -> None:
        """Add d/dx int g to ``out``: per argument block, g's weighted partials at
        the nodes times the basis of the segment each shifted node falls in
        (right limit at knots, as Trajectory.eval; none on the history)."""
        args = self.args(trajs, self.nodes)
        for arg, (b, order, shift) in self.argmap.items():
            blk, ts = self.blocks[b], self.nodes + shift
            on_mesh = ts >= self.edges[0]
            seg = np.searchsorted(self.edges[1:-1], ts[on_mesh], side="right")
            partials = np.stack([np.broadcast_to(  # (k, ncomp, nodes on the mesh)
                np.reshape(calculus.partial(gj, arg, args), (blk.ncomp, -1)),
                (blk.ncomp, len(ts)))[:, on_mesh] for gj in self.g])
            cols = (self._column(b, seg)[None, :, None] + np.arange(blk.width)
                    + blk.width * np.arange(blk.ncomp)[:, None, None])
            np.add.at(out, (slice(None), cols), (partials * self.weights[on_mesh])[..., None]
                      * self._basis(b, seg, ts[on_mesh], order))

    def solve(self, x0: np.ndarray, scheme: CollocationScheme):
        """Damped Newton from x0: (trajectories, lambda, report), the report's
        condition NaN when no Jacobian was factorized."""
        x = self.project(x0.copy())
        r = self.residual(x)
        norm, condition, iterations = float(np.max(np.abs(r))), math.nan, 0
        while norm > scheme.tolerance and iterations < scheme.max_iterations:
            iterations += 1
            jac = self.jacobian(x, r)
            condition = float(np.linalg.cond(jac))
            if not np.isfinite(condition) or condition > 1e12:
                raise SingularJacobian(
                    f"collocation Jacobian condition estimate {condition:.3e}", condition)
            step = np.linalg.solve(jac, -r)
            alpha = 1.0
            while alpha >= 1e-6:
                x_try = self.project(x + alpha * step)
                r_try = self.residual(x_try)
                norm_try = float(np.max(np.abs(r_try)))
                if norm_try <= (1.0 - 1e-4 * alpha) * norm or norm_try <= scheme.tolerance:
                    break
                alpha *= 0.5
            else:  # the line search stalled
                break
            x, r, norm = x_try, r_try, norm_try
        trajs, lam = self.build(x)
        return trajs, lam, SolveReport(norm <= scheme.tolerance, iterations, norm, lam,
                                       condition)


# ---------------------------------------------------------------------------
# delayed Euler-Lagrange BVP


def solve_el(problem: IsoperimetricProblem, initial=None,
             scheme: CollocationScheme | None = None):
    """Solve the delayed Euler-Lagrange BVP jointly for (trajectory, lambda).

    Unknowns are per-segment polynomial coefficients on a uniform two-regime
    mesh plus the multipliers; equations are the regime-aware differential
    residuals at interior Gauss points, C^(2m-1) continuity at mesh knots,
    history matching at t1, the terminal data, and the isoperimetric defects.
    Returns (trajectory, lambda, report); terminal/history rows are enforced
    to linear precision regardless of convergence.
    """
    scheme = scheme or CollocationScheme()
    record, x0 = _el_collocation(problem, initial, scheme)
    (traj,), lam, report = record.solve(x0, scheme)
    return traj, lam, report


def _el_collocation(problem: IsoperimetricProblem, initial, scheme: CollocationScheme):
    """The EL collocation record and its initial iterate: the supplied guess
    interpolated segment-wise, else the line from the history endpoint to the
    terminal value."""
    m, n, k, tau, t1, t2 = problem.m, problem.n, problem.k, problem.tau, problem.t1, problem.t2
    degree = 2 * m + 2  # 2m + 3 coefficients, 2m fixed by the knot rows: 3 Gauss points
    per_regime, edges, colloc_ts = _mesh(t1, t2, tau, scheme.nodes, 3)
    hist = problem.stitched_history(panels=max(2, per_regime))
    boundary = [((0, 0, t1, order), hist[-1].eval(t1, order)) for order in range(m)]
    if problem.boundary is not None:
        boundary += [((0, len(edges) - 2, t2, order), problem.boundary[order])
                     for order in range(m)]
    # Lambda_i = d_{i+2} F at t + advanced d_{i+m+3} F at t + tau; current argument
    # blocks hold q^(i) at that time, delayed ones tau before.  F = L - lam.g for any lam.
    argmap = {b: (0, (b - 2) % (m + 1), 0.0 if b <= m + 2 else -tau)
              for b in range(2, 2 * m + 4)}
    terms = [(i + 2, 0.0) for i in range(m + 1)] + [(i + m + 3, tau) for i in range(m + 1)]
    reads = _row_reads((problem.L, *problem.g), problem.layout, argmap, (), terms)
    record = _Collocation(
        edges, [_Block(n, degree + 1, m, tuple(hist), 2 * m)],
        nonlinear=lambda trajs, lam: el_residual(
            AugmentedSetup(problem, lam), trajs[0], colloc_ts).ravel(),
        boundary=boundary, rows=[(n, reads)], times=colloc_ts, g=problem.g, l=problem.l,
        args=lambda trajs, ts: args_at(trajs[0], ts, tau, m), argmap=argmap,
        # a 5-point stencil samples at most four steps of the largest order away
        reach=(calculus._WIDTH - 1) * calculus.default_step(problem.span, m))

    if initial is not None:
        guess, lam0 = initial[0].eval, initial[1]
    else:
        q_left = np.atleast_1d(hist[-1].eval(t1, 0))
        q_right = problem.boundary[0] if problem.boundary is not None else q_left
        slope, lam0 = (q_right - q_left) / problem.span, np.zeros(k)

        def guess(t):
            return q_left + slope * (t - t1)

    x0 = np.concatenate([seg.coeffs.ravel() for a, b in ((t1, t2 - tau), (t2 - tau, t2))
                         for seg in segments_from_callable(guess, a, b, per_regime, degree)]
                        + [np.atleast_1d(np.asarray(lam0, dtype=float))])
    return record, x0


# ---------------------------------------------------------------------------
# delayed Pontryagin system


def solve_pmp(cp: ControlProblem, scheme: CollocationScheme | None = None):
    """Solve the delayed Hamiltonian system q-p-u (+ multipliers) by
    collocation.  Terminal policy: fixed q(t2) when the problem supplies one,
    otherwise p(t2) = 0.  Returns (PontryaginTriple, lambda, report).
    """
    scheme = scheme or CollocationScheme()
    record = _pmp_collocation(cp, scheme)
    (q, p, u), lam, report = record.solve(np.zeros(record.ncoef + cp.k), scheme)
    return PontryaginTriple(q=q, u=u, p=p), lam, report


def _pmp_collocation(cp: ControlProblem, scheme: CollocationScheme):
    """The Pontryagin collocation record; its unknown blocks are q, p, u."""
    n, mc, tau, t1, t2 = cp.n, cp.mc, cp.tau, cp.t1, cp.t2
    degree = 3
    # first-order system: d Gauss points per degree-d segment
    per_regime, edges, colloc_ts = _mesh(t1, t2, tau, scheme.nodes, degree)
    q_hist = [PolySegment(t1 - tau, t1, np.zeros((n, 1)))] if cp.history is None else \
        segments_from_callable(cp.history, t1 - tau, t1, panels=max(2, per_regime), degree=3)
    u_hist = segments_from_callable(cp.control_history or (lambda t: np.zeros(mc)),
                                    t1 - tau, t1, panels=2, degree=2)

    Q, P, U = 0, 1, 2  # unknown blocks, in the order of the unknown vector
    boundary = [((Q, 0, t1, 0), q_hist[-1].eval(t1, 0)),
                ((Q, len(edges) - 2, t2, 0), cp.terminal_state) if cp.terminal_state is not None
                else ((P, len(edges) - 2, t2, 0), np.zeros(n))]
    # the rows of pmp_residuals (state qdot - d_p H; costate pdot + d_q H + advanced
    # d_{q_tau} H; stationarity d_u H + advanced d_{u_tau} H) for H's terms L, g, p.phi
    nsub, layout = 1 + 2 * (n + mc), ArgLayout.control(n, mc, cp.k)
    H = [Integrand(lambda v, f=f: f(v[:nsub])) for f in (cp.L, *cp.g)]
    H += [Integrand(lambda v, i=i, f=f: v[nsub + i] * f(v[:nsub])) for i, f in enumerate(cp.phi)]
    argmap = {2: (Q, 0, 0.0), 3: (U, 0, 0.0), 4: (Q, 0, -tau), 5: (U, 0, -tau)}  # of L, g, phi
    h_argmap = {**argmap, 6: (P, 0, 0.0)}
    rows = [(n, _row_reads(H, layout, h_argmap, {(Q, 0.0)}, [(6, 0.0)])),
            (n, _row_reads(H, layout, h_argmap, {(P, 0.0)}, [(2, 0.0), (4, tau)])),
            (mc, _row_reads(H, layout, h_argmap, (), [(3, 0.0), (5, tau)]))]

    def triple(trajs) -> PontryaginTriple:
        return PontryaginTriple(q=trajs[Q], u=trajs[U], p=trajs[P])

    def args(trajs, ts) -> ArgVector:  # (t; q; u; q_tau; u_tau)
        return ArgVector(control_args_at(cp, triple(trajs), (), ts).values[:nsub], cp.layout)

    def nonlinear(trajs, lam):
        res = pmp_residuals(cp, triple(trajs), lam, colloc_ts)
        return np.concatenate([res.state.ravel(), res.costate.ravel(), res.stationarity.ravel()])

    return _Collocation(
        edges, [_Block(n, degree + 1, 1, tuple(q_hist)), _Block(n, degree + 1),
                _Block(mc, degree, 1, tuple(u_hist), 0)],
        nonlinear=nonlinear, boundary=boundary, rows=rows, times=colloc_ts, g=cp.g, l=cp.l,
        args=args, argmap=argmap)


# ---------------------------------------------------------------------------
# aggregate verification


def verify(problem: IsoperimetricProblem, traj: Trajectory, lam,
           tol: float = 1e-6, grid_count: int = 200) -> ResidualReport:
    """Sup-norms of every necessary-condition residual over regime-respecting
    grids, with the hypothesis and abnormality flags.

    The hypothesis flag never gates anything: quantities are evaluated and
    reported even when the advanced-term hypothesis fails.
    """
    F = augmented_integrand(AugmentedSetup(problem, lam))
    grids = residual_grids(problem, traj, count=grid_count)
    def sweep(regime):  # one record per regime, released before the next is built
        record = PathRecord(F, problem, traj, grids[regime].times, regime)
        return (record.ts, record.psi[0], record.dr_residual, record.cdur_delayed,
                record.dr_quantity)

    (ts1, el1, dr1, cdur1, drq1), (ts2, el2, dr2, cdur2, drq2) = map(
        sweep, (Regime.FIRST, Regime.SECOND))
    # cdur(t - tau) over both regimes covers the hypothesis domain [t1 - tau, t2 - tau]
    cdur = np.concatenate([cdur1, cdur2])
    values = integrals(problem, traj, (problem.L, *problem.g))
    abnormal = classify(problem, traj) is Classification.ABNORMAL if problem.k else None
    return ResidualReport(
        times_first=ts1, times_second=ts2, el_first=el1, el_second=el2,
        dr_first=dr1, dr_second=dr2, dr_quantity_first=drq1, dr_quantity_second=drq2,
        functional=float(values[0]), cdur_times=np.concatenate([ts1, ts2]) - problem.tau,
        cdur=cdur, constraint_defect=values[1:] - problem.l,
        hypothesis_violated=bool(np.max(np.abs(cdur)) > tol),
        abnormal=abnormal,
    )
