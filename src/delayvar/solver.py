"""Global collocation solvers for the delayed Euler-Lagrange boundary-value
problem (trajectory and multipliers jointly) and the delayed Pontryagin
system, by damped Newton iteration on a square nonlinear system.

Delayed problems couple retarded (t - tau) and advanced (t + tau) values, so
the full-horizon system is assembled at once rather than marching; the mesh
is uniform per regime with a forced node at t2 - tau.  One collocation record,
described by data, serves both problems.  Every path sample it reads is fixed
at set-up, so affine in the unknowns, B x + h, and one row table gives the
residual and its Jacobian from one evaluation: the linear rows (continuity,
history, terminal data) as they are, the collocation rows from the
integrand's gradient along the path and its Hessian, nested in the same jets
in t under vector-mode seeds (Griewank & Walther, *Evaluating Derivatives*,
3.1 and ch. 13), the isoperimetric rows from g and its partials at the
quadrature nodes.  F is evaluated once per residual, on one points axis: the
collocation times at t, then the first regime's at t + tau.  A callable that
rejects jets raises NotJetCapable naming it.  NonConvergence is a returned
state (report.converged = False); a numerically singular Jacobian raises.
Each Newton iteration is one single-column solve for the step and one
Cholesky factorization of J^T J less a shift, whose success certifies
kappa_2 <= 1e12 without J^-1 (Rump, *BIT* 46 (2006); Higham, *Accuracy and
Stability of Numerical Algorithms*, Thm 10.5); the exact kappa_2, an SVD,
runs only when that certificate fails.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import calculus, jet
from .errors import SingularJacobian
from .euler_lagrange import Classification, PathRecord, ResidualReport, classify, residual_grids
from .optimal_control import PontryaginTriple, hamiltonian_integrand
from .problem import ArgLayout, ArgVector, AugmentedSetup, ControlProblem, \
    IsoperimetricProblem, augmented_integrand, integrals
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
        for name in ("nodes", "max_iterations"):  # numpy integers pass, bools do not
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be at least 1, got {self.nodes}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be non-negative, got {self.max_iterations}")
        if not 0 < self.tolerance < math.inf:  # NaN fails both comparisons
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_norm: float
    lam: np.ndarray
    reason: str  # "converged", "max-iterations" or "line-search-stall"
    evaluations: int  # residual evaluations, with or without the Jacobian
    jacobians: int  # of them, those that also built the Jacobian
    jacobian: np.ndarray | None = field(default=None, repr=False)  # the last one factorized

    @functools.cached_property
    def condition(self) -> float:
        """kappa_2 of the last Jacobian factorized, computed on first read; NaN
        when none was."""
        return math.nan if self.jacobian is None else float(np.linalg.cond(self.jacobian))

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "reason": self.reason,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "evaluations": self.evaluations,
            "jacobians": self.jacobians,
            "lambda": [float(v) for v in np.atleast_1d(self.lam)],
            # no Jacobian is ever factorized when the start already converges
            "condition": None if math.isnan(self.condition) else self.condition,
        }


_GAUSS = np.polynomial.legendre.leggauss(3)[0]  # each segment's collocation times on (-1, 1)


def _mesh(t1: float, t2: float, tau: float, nodes: int):
    """History panels (segments per regime, at least 2) and mesh edges, split at t2 - tau."""
    segments = max(1, math.ceil(nodes / len(_GAUSS)))
    return max(2, segments), np.concatenate([np.linspace(t1, t2 - tau, segments + 1),
                                             np.linspace(t2 - tau, t2, segments + 1)[1:]])


# a piecewise-polynomial unknown: components, coefficients per component and segment,
# smoothness order, history segments before t1, derivative orders matched at knots
_Block = namedtuple("_Block", "ncomp width m history matched", defaults=(1, (), 1))

# a collocation row type: ``count`` rows per point, the sum over ``terms`` (sign, k,
# shift, i) of sign d^i/dt^i d_k F at t + shift (tau: first regime only) and over
# ``direct`` (sign, unknown block, order) of sign times that derivative of the unknown
_Rows = namedtuple("_Rows", "count terms direct", defaults=((),))


class _Collocation:
    """One collocation system and its damped Newton driver, described by data.

    Unknowns: each block's coefficients as (segment, component, power), then
    one multiplier per g.  F and each g read t, the ``argmap`` blocks in turn
    ({argument block 2, 3, ...: (unknown block, derivative order, time
    shift)}), then the multipliers.  Rows: the ``rows`` types in turn,
    point-major at the Gauss nodes of each segment of ``edges`` (first regime
    while t + tau is on the mesh); A x - c (continuity at knots, then
    ``boundary``: (block, t, order) with that derivative's value);
    int g dt - l.  Every path sample a row reads is fixed here, so it is
    B x + h: B by its nonzeros (``_sample``), h the path at x = 0, the history
    left of the mesh and zero on it.
    """

    def __init__(self, edges, blocks, boundary, F, rows, g, l, argmap):
        self.edges, self.blocks, self.k = edges, blocks, len(g)
        self.F, self.rows, self.g, self.l, self.argmap = F, rows, g, l, argmap
        self.times = times = (0.5 * (edges[:-1] + edges[1:])[:, None]
                              + 0.5 * np.diff(edges)[:, None] * _GAUSS).ravel()
        self.layout = ArgLayout((1, *(blocks[b].ncomp for b, _, _ in argmap.values()), self.k))
        self.offsets = np.cumsum([0] + [(len(edges) - 1) * b.ncomp * b.width for b in blocks])
        self.ncoef = int(self.offsets[-1])
        self.nl = len(times) * sum(row.count for row in rows)
        values = [np.asarray(value, dtype=float).reshape(-1) for _, value in boundary]
        knots, per_knot = edges[1:-1], sum(blk.ncomp * blk.matched for blk in blocks)
        self.c = np.concatenate([np.zeros(per_knot * len(knots))] + values)
        self.A, start = np.zeros((len(self.c), self.ncoef + self.k)), 0
        # each block sampled once, at the knots (left limits, then right) and at
        # its boundary times: per knot, each (block, order) in turn, ncomp rows
        # of +1 times that derivative on the knot's left segment and -1 times it
        # on the right; then the boundary rows
        twice, left = np.tile(knots, 2), np.arange(2 * len(knots)) < len(knots)
        n, first = len(twice), np.cumsum([per_knot * len(knots)] + [len(v) for v in values])
        for b, blk in enumerate(blocks):
            ends = [(i, t, o) for i, ((c, t, o), _) in enumerate(boundary) if c == b]
            cols, *bases = self._sample(b, np.append(twice, [t for _, t, _ in ends]),
                                        range(max([blk.matched] + [o + 1 for *_, o in ends])),
                                        np.append(left, [False] * len(ends)))
            for basis in bases[:blk.matched]:
                index = start + per_knot * np.arange(len(knots)) + np.arange(blk.ncomp)[:, None]
                self._scatter(self.A, np.tile(index, 2), (cols[:, :n], basis[:n]),
                              np.eye(blk.ncomp)[..., None] * np.where(left, 1.0, -1.0))
                start += blk.ncomp
            for p, (i, _, o) in enumerate(ends, n):
                size = len(values[i])
                self._scatter(self.A, first[i] + np.arange(size)[:, None],
                              (cols[:, p:p + 1], bases[o][p:p + 1]), np.eye(size)[..., None])
        # the rule integrate uses on the paths' breakpoints and their images under
        # the argument shifts, so the constraint rows equal an integrate of g
        breaks = {seg.a for blk in blocks for seg in blk.history} | set(edges)
        self.nodes, self.weights = calculus.panel_rule(
            edges[0], edges[-1], {x - shift for x in breaks for _, _, shift in argmap.values()})
        # the samples: F's argument vectors on one points axis, the collocation
        # times at each term shift (0, then the advanced shift while t + tau is
        # on the mesh) end to end, with the direct terms; g's at the nodes
        self.order = max(i for row in rows for *_, i in row.terms)  # of the time jets
        shifts = sorted({0.0} | {t[2] for row in rows for t in row.terms})
        sets = [(int(np.count_nonzero(times + shift <= edges[-1])), shift) for shift in shifts]
        ends = np.cumsum([0] + [n for n, _ in sets])
        # per term shift, its span of the points axis and the n times it covers:
        # times ascend, so those with t + shift on the mesh are times[:n]
        self.sets = {shift: (slice(a, e), n) for (n, shift), a, e in zip(sets, ends, ends[1:])}
        reads = {(b, o + r, s) for b, o, s in argmap.values() for r in range(self.order + 1)}
        groups = [(times, sets, reads | {(b, o, 0.0) for row in rows for _, b, o in row.direct})]
        if self.k:
            groups.append((self.nodes, [(len(self.nodes), 0.0)], set(argmap.values())))
        (self.points, self.table, self.samples), *at_nodes = self._samples(groups)
        self.at_nodes = at_nodes[0] if self.k else None

    def _sample(self, b: int, ts: np.ndarray, orders, left=False):
        """B's nonzeros for block b's derivatives of ``orders`` at ts: columns
        (ncomp, points, width), then per order the basis of each point's
        segment, zero on the history: at knots the right one, or the left where
        the bool or per-point mask ``left`` is set, as Trajectory.eval."""
        blk = self.blocks[b]
        seg = np.where(left, np.searchsorted(self.edges[1:-1], ts, side="left"),
                       np.searchsorted(self.edges[1:-1], ts, side="right"))
        cols = (self.offsets[b] + blk.ncomp * blk.width * seg[None, :, None]
                + blk.width * np.arange(blk.ncomp)[:, None, None] + np.arange(blk.width))
        dt = ts - 0.5 * (self.edges[seg] + self.edges[seg + 1])  # mid as PolySegment has it
        on = (ts >= self.edges[0])[:, None]
        return (cols, *(basis * on for basis in self._bases(dt, blk.width, orders)))

    @staticmethod
    def _bases(dt: np.ndarray, width: int, orders) -> list[np.ndarray]:
        """d^order/dt^order dt^j, j < width, per order: each (points, width),
        the falling factorials j!/(j - order)! times columns of one power table
        dt^0 .. dt^(width - 1), a running product."""
        j = np.arange(width)
        powers = np.cumprod(np.where(j > 0, dt[:, None], 1.0), axis=1)
        return [np.array([math.perm(i, order) for i in j]) * powers[:, np.maximum(j - order, 0)]
                for order in orders]

    def _samples(self, groups) -> list[tuple]:
        """Per group (ts, sets, keys), (points, table, samples): the points are
        ts[:n] + shift for each (n, shift) of ``sets`` end to end, read-only,
        and a key (block, order, shift) is sampled at ts[:n] + (set shift +
        its shift); the table holds per block (keys, columns (K, ncomp, P,
        width), basis (K, 1, P, width), h (K, ncomp, P)) for one gather, and
        samples maps each key to its (columns, basis).  Each block takes one
        ``_sample`` over the times it is read at, each time once."""
        tables = [[] for _ in groups]
        for b in sorted({key[0] for *_, keys in groups for key in keys}):
            reach = {}  # (group, time shift): how many of the group's ts are read
            for g, (_, sets, keys) in enumerate(groups):
                for (*_, s), (n, shift) in itertools.product([k for k in keys if k[0] == b], sets):
                    reach[g, s + shift] = max(n, reach.get((g, s + shift), 0))
            start = dict(zip(reach, np.cumsum([0, *reach.values()])))
            ts = np.concatenate([groups[g][0][:n] + s for (g, s), n in reach.items()])
            orders = sorted({o for *_, keys in groups for c, o, _ in keys if c == b})
            cols, *bases = self._sample(b, ts, orders)
            blk, left = self.blocks[b], ts < self.edges[0]
            hs = np.zeros((len(orders), len(ts), blk.ncomp))
            if left.any():  # h: the history left of the mesh, zero on it
                history = Trajectory(blk.ncomp, blk.m, blk.history, validate=False)
                hs[:, left] = history.eval(ts[left], orders)
            bases, hs = np.concatenate(bases), hs.reshape(-1, hs.shape[-1])  # order-major rows
            for g, (_, sets, keys) in enumerate(groups):
                keys = sorted(key for key in keys if key[0] == b)
                if not keys:
                    continue
                at = np.array([np.concatenate([start[g, s + shift] + np.arange(n)
                                               for n, shift in sets]) for *_, s in keys])
                rows = at + len(ts) * np.array([[orders.index(o)] for _, o, _ in keys])
                tables[g].append((keys, np.ascontiguousarray(cols.take(at, 1).swapaxes(0, 1)),
                                  bases.take(rows, 0)[:, None],
                                  np.ascontiguousarray(hs.take(rows, 0).swapaxes(1, 2))))
        out = []
        for (ts, sets, _), table in zip(groups, tables):
            points = np.concatenate([ts[:n] + shift for n, shift in sets])
            points.flags.writeable = False
            out.append((points, table, {key: (cols[k], basis[k, 0]) for keys, cols, basis, _
                                        in table for k, key in enumerate(keys)}))
        return out

    @staticmethod
    def _values(table: list, x: np.ndarray) -> dict:
        """B x + h, shape (ncomp, npts), per key of the table: a gather per block."""
        values = {}
        for keys, cols, basis, h in table:
            values.update(zip(keys, h + (x[cols] * basis).sum(axis=-1)))
        return values

    @staticmethod
    def _scatter(out: np.ndarray, rows: np.ndarray, sample, values: np.ndarray) -> None:
        """Add values[r, c, p] times the sample's B row (c, p) to out[rows[r, p]]
        (out C-contiguous: its flat view takes add.at 3 times faster)."""
        cols, basis = sample[:2]
        index = rows[:, None, :, None] * out.shape[1] + cols[None]
        np.add.at(out.reshape(-1), index.ravel(), (values[..., None] * basis).ravel())

    def interpolate(self, guesses, lam) -> np.ndarray:
        """Unknowns from a start: each block's guess, a callable of the time
        array read as :func:`segments_from_callable` does, interpolated on the
        mesh segments, then the multipliers lam."""
        return np.concatenate(
            [seg.coeffs.ravel() for guess, blk in zip(guesses, self.blocks)
             for seg in segments_from_callable(guess, blk.ncomp, self.edges, blk.width - 1)]
            + [np.atleast_1d(np.asarray(lam, dtype=float))])

    def build(self, x: np.ndarray) -> tuple[list[Trajectory], np.ndarray]:
        trajs = []
        for b, blk in enumerate(self.blocks):
            coeffs = x[self.offsets[b]:self.offsets[b + 1]].reshape(-1, blk.ncomp, blk.width)
            segs = [PolySegment(a, e, c) for a, e, c in zip(self.edges, self.edges[1:], coeffs)]
            trajs.append(Trajectory(blk.ncomp, blk.m, list(blk.history) + segs, validate=False))
        return trajs, x[self.ncoef:]

    def residual(self, x: np.ndarray, jacobian: bool = False):
        """The rows at x; with ``jacobian``, (rows, Jacobian) from the same
        evaluations, F's Hessian nested in the jets that give its gradient."""
        top = self.nl + len(self.c)
        r, jac = np.empty(top + self.k), np.zeros((top + self.k, len(x))) if jacobian else None
        r[self.nl:top] = self.A @ x - self.c
        if jacobian:
            jac[self.nl:top] = self.A
        self._collocation_rows(x, r, jac)
        if self.k:  # int g - l on the panel rule, each g seeded once: value and partials
            points, table, samples = self.at_nodes
            args = self._vector(self._values(table, x), points, 0, x)
            parts, grads = zip(*(calculus.derivatives(gj, args) for gj in self.g))
            r[top:] = self.weights @ np.column_stack([part[0] for part in parts]) - self.l
            rows = np.broadcast_to(top + np.arange(self.k)[:, None], (self.k, len(points)))
            for arg, key in self.argmap.items() if jacobian else ():
                self._scatter(jac, rows, samples[key], np.stack(
                    grads)[:, 0, self.layout.block_slice(arg)] * self.weights)
        return (r, jac) if jacobian else r

    def _vector(self, values: dict, ts: np.ndarray, order: int, x) -> ArgVector:
        """The arguments at the times ts: the time jet of ``order`` (the times
        at order 0), each argmap block's samples as jets in t, the multipliers."""
        slots = [jet.variable(ts, order) if order else ts]
        for b, o, s in self.argmap.values():
            coeffs = [values[b, o + r, s] / math.factorial(r) for r in range(order + 1)]
            slots += [jet.Jet([c[i] for c in coeffs]) if order else coeffs[0][i]
                      for i in range(len(coeffs[0]))]
        return ArgVector(slots + list(x[self.ncoef:]), self.layout)

    def _collocation_rows(self, x, r, jac) -> None:
        """Set the collocation rows, a term sign i! times the t^i coefficient of
        d_k F on its shift's span of the points axis; given jac, add their
        derivatives: sum_b sum_q i!/(i - q)! c_q times block b's samples, the
        order raised by i - q, at t + shift + b's shift, c_q the t^q
        coefficient of d_b d_k F (d_lam d_k F for the multipliers)."""
        values, layout, start, size = self._values(self.table, x), self.layout, 0, len(self.times)
        now, _ = self.sets[0.0]  # every time at t
        _, grad, *hess = calculus.derivatives(  # F, its gradient and, given jac, its Hessian
            self.F, self._vector(values, self.points, self.order, x), self.order,
            1 if jac is None else 2)
        if jac is not None:  # per shift, (order, slot, slot): the Hessian blocks not all zero
            hess, blocks = hess[0], [layout.block_slice(arg) for arg in self.argmap]
            touched = {shift: np.any(hess[..., span], axis=-1).tolist()
                       for shift, (span, _) in self.sets.items()}
        for rows in self.rows:
            index = start + rows.count * np.arange(size) + np.arange(rows.count)[:, None]
            start += rows.count * size
            out = np.zeros(index.shape)  # (count, points)
            for sign, b, order in rows.direct:
                out += sign * values[b, order, 0.0][:, now]
                if jac is not None:
                    cols, basis = self.samples[b, order, 0.0]
                    self._scatter(jac, index, (cols[:, now], basis[now]),
                                  sign * np.eye(rows.count)[..., None] * np.ones(size))
            for sign, k, shift, i in rows.terms:
                (span, n), own = self.sets[shift], layout.block_slice(k)
                out[:, :n] += sign * math.factorial(i) * grad[i, own, span]
                if jac is None:
                    continue
                for cols, (b, order, arg_shift) in zip(blocks, self.argmap.values()):
                    for q in range(i + 1):
                        if not any(any(row[cols]) for row in touched[shift][q][own]):
                            continue
                        sample_cols, basis = self.samples[b, order + i - q, arg_shift]
                        self._scatter(jac, index[:, :n], (sample_cols[:, span], basis[span]),
                                      sign * math.perm(i, q) * hess[q, own, cols, span])
                if self.k:
                    lam = layout.block_slice(layout.nblocks)
                    jac[index[:, None, :n], self.ncoef + np.arange(self.k)[:, None]] += \
                        sign * math.factorial(i) * hess[i, own, lam, span]
            r[index] = out

    @functools.cached_property  # built the first time a start violates A x = c
    def correction(self) -> np.ndarray:
        """Q R^-T from the reduced QR A^T = Q R: times A x - c, the min-norm
        move onto A x = c, as A has full row rank."""
        q, r = np.linalg.qr(self.A.T)
        return q @ np.linalg.inv(r).T

    def project(self, x: np.ndarray) -> np.ndarray:
        """Move x onto A x = c: the linear rows hold whether or not Newton converges."""
        defect = self.A @ x - self.c
        return x if float(np.max(np.abs(defect))) <= 1e-13 else x - self.correction @ defect

    def solve(self, x0: np.ndarray, scheme: CollocationScheme):
        """Damped Newton from x0: (trajectories, lambda, report), each step one
        ``_newton_step``.  A line-search trial evaluates the rows alone, the
        start and each point Newton goes on from their Jacobian too."""
        x = self.project(x0.copy())
        r, jac = self.residual(x, jacobian=True)
        norm, last, iterations = float(np.max(np.abs(r))), None, 0
        reason, evaluations, jacobians = "max-iterations", 1, 1
        while norm > scheme.tolerance and iterations < scheme.max_iterations:
            iterations += 1
            if jac is None:
                r, jac = self.residual(x, jacobian=True)
                evaluations, jacobians = evaluations + 1, jacobians + 1
            step, _ = _newton_step(jac, r)
            last, jac, alpha = jac, None, 1.0  # the report keeps the last one factorized
            while alpha >= 1e-6:
                x_try = self.project(x + alpha * step)
                r_try = self.residual(x_try)
                evaluations += 1
                norm_try = float(np.max(np.abs(r_try)))
                if norm_try <= (1.0 - 1e-4 * alpha) * norm or norm_try <= scheme.tolerance:
                    break
                alpha *= 0.5
            else:  # no step length down to 1e-6 decreased the residual
                reason = "line-search-stall"
                break
            x, r, norm = x_try, r_try, norm_try
        trajs, lam = self.build(x)
        reason = "converged" if norm <= scheme.tolerance else reason
        return trajs, lam, SolveReport(reason == "converged", iterations, norm, lam, reason,
                                       evaluations, jacobians, last)


_U = np.finfo(float).eps / 2  # unit roundoff
_ETA = float(np.finfo(float).smallest_subnormal)
_OUT = 1.0 + 2.0 ** -40  # above the rounding of the few scalar operations in a bound


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


def _newton_step(jac: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, float]:
    """The Newton step -J^-1 r from one single-column ``np.linalg.solve``, and a
    bound on kappa_2(J) that passed the 1e12 gate: the one a Cholesky
    factorization of J^T J - s I certifies (Rump, "Verification of positive
    definiteness", *BIT* 46 (2006) 433-452), or the exact kappa_2 (an SVD) when
    that factorization fails or its bound exceeds 1e12 or is not finite.
    Raises SingularJacobian when the exact kappa_2 exceeds 1e12 too, or the
    solve meets an exactly zero pivot.

    The certificate, u the unit roundoff and gamma_k = k u / (1 - k u).  Let
    G = fl(J^T J), T an upper bound on ||J||_F^2 (and on trace G and on
    trace H below), H = fl(G - s I) and R^T R the Cholesky factorization of H,
    if it runs to completion.  Then lambda_min(J^T J) >= s - E, E the sum of
      forming G:     ||G - J^T J||_2 <= gamma_n || |J|^T |J| ||_2 <= gamma_n T;
      the diagonal:  ||H - (G - s I)||_2 = max_i |fl(G_ii - s) - (G_ii - s)|
                     <= u max_i G_ii <= u T, as every H_ii > 0;
      Cholesky:      ||R^T R - H||_2 <= gamma_(n+1) ||R||_F^2
                     <= gamma_(n+1) / (1 - gamma_(n+1)) trace(H),
    the last from |R^T R - H| <= gamma_(n+1) |R^T| |R| (Higham, *Accuracy and
    Stability of Numerical Algorithms*, Thm 10.5) and ||R||_F^2 = trace(R^T R),
    taken twice to cover LAPACK's blocked potrf.  As R^T R is semidefinite,
    lambda_min(H) >= -||R^T R - H||_2, and Weyl's inequality carries that
    through the diagonal and G to J^T J.  So sigma_min^2 >= s - E and
    kappa_2 <= ||J||_F / sigma_min <= sqrt(T / (s - E)).

    Every quantity is inflated the way that loosens the bound: T is
    fl(trace G) times 1 + 3 gamma_(n+1), above 1 / (1 - gamma_n)^2, and E
    the terms above; for gradual underflow (eta the least subnormal) T adds
    n^2 eta and E adds 8 (n + 2)^2 (1 + T) eta; T, E and the bound are then
    raised by 1 + 2^-40.  The shift s = 2 E depends on n, u and T alone, so
    the certified floor s - E is s / 2 and the bound is about
    1 / sqrt(3 gamma_n): kappa_2 <= 3e6 at n = 352.  A Jacobian nearer
    singular than that cannot pass the factorization and takes the SVD.
    """
    n = len(r)
    try:
        step = np.linalg.solve(jac, -r)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"collocation Jacobian is singular ({exc})", math.inf) from exc
    gram = jac.T @ jac
    norm2 = (float(np.trace(gram)) * (1.0 + 3.0 * _gamma(n + 1)) + n * n * _ETA) * _OUT
    error = ((_gamma(n) + _U + 2.0 * _gamma(n + 1) / (1.0 - _gamma(n + 1))) * norm2
             + 8.0 * (n + 2) ** 2 * (1.0 + norm2) * _ETA) * _OUT
    shift, bound = 2.0 * error, math.inf
    if math.isfinite(shift):
        gram.flat[::n + 1] -= shift
        try:
            np.linalg.cholesky(gram)
            bound = math.sqrt(norm2 / (shift - error)) * _OUT
        except np.linalg.LinAlgError:
            pass
    if not bound <= 1e12:
        bound = float(np.linalg.cond(jac))
        if not bound <= 1e12:
            raise SingularJacobian(f"collocation Jacobian condition {bound:.3e}", bound)
    return step, bound


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
    if problem.boundary is None:  # no rows impose natural end conditions
        raise ValueError("problem has no boundary")
    m, n, k, tau, t1, t2 = problem.m, problem.n, problem.k, problem.tau, problem.t1, problem.t2
    degree = 2 * m + 2  # 2m + 3 coefficients, 2m fixed by the knot rows: 3 Gauss points
    panels, edges = _mesh(t1, t2, tau, scheme.nodes)
    hist = problem.stitched_history(panels)
    boundary = ([((0, t1, order), hist[-1].eval(t1, order)) for order in range(m)]
                + [((0, t2, order), problem.boundary[order]) for order in range(m)])
    # E = sum_i (-1)^i d^i/dt^i Lambda_i, Lambda_i = d_{i+2} F at t + advanced d_{i+m+3} F
    # at t + tau; current argument blocks hold q^(i) at that time, delayed ones tau before
    argmap = {b: (0, (b - 2) % (m + 1), 0.0 if b <= m + 2 else -tau)
              for b in range(2, 2 * m + 4)}
    terms = [((-1) ** i, i + first, shift, i) for i in range(m + 1)
             for first, shift in ((2, 0.0), (m + 3, tau))]
    size = problem.layout.size

    def lagrangian(v):  # F = L - lam . g, the multipliers a last argument block
        args = v[:size]
        return sum((-v[size + j] * calculus.jet_call(gj, args) for j, gj in enumerate(problem.g)),
                   calculus.jet_call(problem.L, args))

    record = _Collocation(
        edges, [_Block(n, degree + 1, m, tuple(hist), 2 * m)], boundary, lagrangian,
        [_Rows(n, terms)], [lambda v, gj=gj: calculus.jet_call(gj, v[:size]) for gj in problem.g],
        problem.l, argmap)

    if initial is not None:
        return record, record.interpolate([lambda t: initial[0].eval(t).T], initial[1])
    q_left = hist[-1].eval(t1, 0)[:, None]
    slope = (problem.boundary[0][:, None] - q_left) / problem.span
    return record, record.interpolate([lambda t: q_left + slope * (t - t1)], np.zeros(k))


# ---------------------------------------------------------------------------
# delayed Pontryagin system


def solve_pmp(cp: ControlProblem, initial=None, scheme: CollocationScheme | None = None):
    """Solve the delayed Hamiltonian system q-p-u (+ multipliers) by
    collocation.  Terminal policy: fixed q(t2) when the problem supplies one,
    otherwise p(t2) = 0.  ``initial``: a (PontryaginTriple, lambda) guess,
    interpolated segment-wise, else zero; either start is projected onto the
    linear rows.  Returns (PontryaginTriple, lambda, report).
    """
    scheme = scheme or CollocationScheme()
    record = _pmp_collocation(cp, scheme)
    if initial is None:
        x0 = np.zeros(record.ncoef + cp.k)
    else:
        guess, lam0 = initial
        x0 = record.interpolate([lambda t, path=path: path.eval(t).T
                                 for path in (guess.q, guess.p, guess.u)], lam0)
    (q, p, u), lam, report = record.solve(x0, scheme)
    return PontryaginTriple(q=q, u=u, p=p), lam, report


def _pmp_collocation(cp: ControlProblem, scheme: CollocationScheme):
    """The Pontryagin collocation record; its unknown blocks are q, p, u."""
    n, mc, tau, t1, t2 = cp.n, cp.mc, cp.tau, cp.t1, cp.t2
    degree = 3  # first-order system: 4 coefficients, 1 fixed by the knot rows: 3 Gauss points
    panels, edges = _mesh(t1, t2, tau, scheme.nodes)
    q_hist = [PolySegment(t1 - tau, t1, np.zeros((n, 1)))] if cp.history is None else \
        segments_from_callable(cp.history, n, np.linspace(t1 - tau, t1, panels + 1), degree)
    u_hist = segments_from_callable(cp.control_history or (lambda t: 0.0), mc,
                                    np.linspace(t1 - tau, t1, 3), degree=2)

    Q, P, U = 0, 1, 2  # unknown blocks, in the order of the unknown vector
    boundary = [((Q, t1, 0), q_hist[-1].eval(t1, 0)),
                ((Q, t2, 0), cp.terminal_state) if cp.terminal_state is not None
                else ((P, t2, 0), np.zeros(n))]
    # the rows of pmp_residuals: state qdot - d_p H; costate pdot + d_q H + advanced
    # d_{q_tau} H; stationarity d_u H + advanced d_{u_tau} H, H with lam its block 7
    rows = [_Rows(n, [(-1.0, 6, 0.0, 0)], [(1.0, Q, 1)]),
            _Rows(n, [(1.0, 2, 0.0, 0), (1.0, 4, tau, 0)], [(1.0, P, 1)]),
            _Rows(mc, [(1.0, 3, 0.0, 0), (1.0, 5, tau, 0)])]
    # H's blocks; L, g and phi read the first five
    argmap = {2: (Q, 0, 0.0), 3: (U, 0, 0.0), 4: (Q, 0, -tau), 5: (U, 0, -tau), 6: (P, 0, 0.0)}
    return _Collocation(
        edges, [_Block(n, degree + 1, 1, tuple(q_hist)), _Block(n, degree + 1),
                _Block(mc, degree, 1, tuple(u_hist), 0)],
        boundary, hamiltonian_integrand(cp), rows,
        [lambda v, gj=gj: calculus.jet_call(gj, v[:cp.layout.size]) for gj in cp.g], cp.l, argmap)


# ---------------------------------------------------------------------------
# aggregate verification


def verify(problem: IsoperimetricProblem, traj: Trajectory, lam,
           grid_count: int = 200) -> ResidualReport:
    """Sup-norms of every necessary-condition residual over regime-respecting
    grids, with the hypothesis flag (the cdur sup above 1e-6) and the
    abnormality flag.

    The hypothesis flag never gates anything: quantities are evaluated and
    reported even when the advanced-term hypothesis fails.
    """
    F = augmented_integrand(AugmentedSetup(problem, lam))
    record = PathRecord(F, problem, traj, residual_grids(problem, traj, count=grid_count))
    # cdur(t - tau) over both regimes covers the hypothesis domain [t1 - tau, t2 - tau]
    el, dr, drq, cdur = record.psi[0], record.dr_residual, record.dr_quantity, record.cdur_delayed
    first = record.first
    values = integrals(problem, traj, (problem.L, *problem.g))
    abnormal = classify(problem, traj) is Classification.ABNORMAL if problem.k else None
    return ResidualReport(
        el_first=el[first], el_second=el[~first], dr_first=dr[first], dr_second=dr[~first],
        dr_quantity_first=drq[first], dr_quantity_second=drq[~first], functional=float(values[0]),
        cdur=cdur, constraint_defect=values[1:] - problem.l,
        hypothesis_violated=bool(np.max(np.abs(cdur)) > 1e-6), abnormal=abnormal,
    )
