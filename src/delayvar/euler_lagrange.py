"""Two-regime delayed Euler-Lagrange residuals and extremizer classification.

The optimality conditions split at t2 - tau: on the first regime
[t1, t2 - tau] every stacked partial carries an advanced (t + tau) companion;
on the second regime [t2 - tau, t2] it does not.  The stacked partials

    Lambda_i(t) = d_{i+2} F[q](t)  (+ d_{i+m+3} F[q](t + tau) on the first regime)

are the shared building block for the differential residual, the integral
form, and the generalized momenta psi_j = sum_i (-1)^i d^i/dt^i Lambda_(i+j),
of which the differential residual is psi_0 (:func:`momentum`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial import Chebyshev, Legendre, Polynomial

from . import calculus
from .errors import DegenerateGrid, NoConstraints
from .problem import AugmentedSetup, Integrand, IsoperimetricProblem, args_at, augmented_integrand
from .trajectory import Grid, Trajectory

__all__ = ["Regime", "Classification", "PolynomialFit", "ResidualReport", "regime_of",
           "regime_interval", "smooth_breaks", "stencil_bounds", "stacked_partial_map",
           "momentum", "el_residual", "el_integral_function", "el_integral_lhs",
           "el_integral_defect", "classify", "residual_grids", "format_column", "csv_text"]


class Regime(Enum):
    FIRST = "first"    # t1 <= t <= t2 - tau: advanced terms present
    SECOND = "second"  # t2 - tau <= t <= t2


class Classification(Enum):
    NORMAL = "normal"
    ABNORMAL = "abnormal"


def regime_of(problem: IsoperimetricProblem, t) -> Regime:
    """Regime of a time or of times inside one regime (ValueError if they
    straddle it); t = t2 - tau itself belongs to the second regime."""
    second = np.asarray(t) >= problem.t2 - problem.tau
    if np.any(second) != np.all(second):
        raise ValueError("times lie in both regimes")
    return Regime.SECOND if np.all(second) else Regime.FIRST


def regime_interval(problem: IsoperimetricProblem, regime: Regime) -> tuple[float, float]:
    split = problem.t2 - problem.tau
    return (problem.t1, split) if regime is Regime.FIRST else (split, problem.t2)


def smooth_breaks(problem: IsoperimetricProblem, traj: Trajectory) -> np.ndarray:
    """Times where any stacked-partial map can lose smoothness: trajectory
    breakpoints, their +-tau images, and the regime wall t2 - tau."""
    base = np.asarray(traj.breakpoints())
    pts = np.concatenate([base, base + problem.tau, base - problem.tau,
                          [problem.t2 - problem.tau]])
    return np.unique(pts)


def stencil_bounds(ts, breaks: np.ndarray, lo: float, hi: float):
    """Per-point interval a stencil may occupy: between neighboring breaks,
    clipped to the regime interval [lo, hi]."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    idx = np.searchsorted(breaks, ts)
    below = np.where(idx > 0, breaks[np.maximum(idx - 1, 0)], -np.inf)
    above = np.where(idx < len(breaks), breaks[np.minimum(idx, len(breaks) - 1)], np.inf)
    return np.maximum(below, lo), np.minimum(above, hi)


def stacked_partial_map(F: Integrand, traj: Trajectory, tau: float, m: int,
                        index: int, regime: Regime):
    """t |-> Lambda_index(t) as a vectorized map returning (npts, n)."""

    def fn(ts):
        out = calculus.partial(F, index + 2, args_at(traj, ts, tau, m)).T
        if regime is Regime.FIRST:
            out = out + calculus.partial(F, index + m + 3, args_at(traj, ts + tau, tau, m)).T
        return out

    return fn


def momentum(F: Integrand, problem: IsoperimetricProblem, traj: Trajectory, j: int,
             ts: np.ndarray, regime: Regime) -> np.ndarray:
    """psi_j = sum_{i=0}^{m-j} (-1)^i d^i/dt^i Lambda_{i+j} at times inside one
    regime, shape (npts, n); psi_0 is the Euler-Lagrange residual of F."""
    lo, hi = regime_interval(problem, regime)
    los, his = stencil_bounds(ts, smooth_breaks(problem, traj), lo, hi)
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


def el_residual(setup: AugmentedSetup, traj: Trajectory, t) -> np.ndarray:
    """Differential-form Euler-Lagrange residual of F = L - lam.g at t.

    Zero along extremals.  Accepts scalar t (returns shape (n,)) or an array
    (returns (npts, n)); regimes are resolved per point.
    """
    problem = setup.problem
    F = augmented_integrand(setup)
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((len(ts), problem.n))
    second = ts >= problem.t2 - problem.tau
    for regime, mask in ((Regime.FIRST, ~second), (Regime.SECOND, second)):
        if np.any(mask):
            out[mask] = momentum(F, problem, traj, 0, ts[mask], regime)
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# integral form


class _PiecewiseCheb:
    """Chebyshev interpolants per smooth piece of a vector-valued map."""

    def __init__(self, pieces):
        self.pieces = pieces  # list of (a, b, [Chebyshev per component])
        self._edges = np.array([p[0] for p in pieces] + [pieces[-1][1]])

    @classmethod
    def fit(cls, fn, lo: float, hi: float, inner_breaks, ncomp: int, deg: int = 24):
        edges = [lo] + sorted(x for x in set(inner_breaks) if lo < x < hi) + [hi]
        pieces = []
        for a, b in zip(edges[:-1], edges[1:]):
            k = np.arange(deg + 1)
            nodes = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * (2 * k + 1) / (2 * (deg + 1)))
            vals = np.asarray(fn(nodes))  # (deg+1, ncomp)
            polys = [Chebyshev.fit(nodes, vals[:, c], deg, domain=[a, b])
                     for c in range(ncomp)]
            pieces.append((a, b, polys))
        return cls(pieces)

    def __call__(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = np.clip(np.searchsorted(self._edges, ts, side="right") - 1, 0, len(self.pieces) - 1)
        out = np.empty((len(ts), len(self.pieces[0][2])))
        for pi in np.unique(idx):
            mask = idx == pi
            for c, poly in enumerate(self.pieces[pi][2]):
                out[mask, c] = poly(ts[mask])
        return out

    def antiderivative(self, base: float) -> "_PiecewiseCheb":
        """Antiderivative vanishing at ``base`` (an endpoint of the domain)."""
        ncomp = len(self.pieces[0][2])
        raw = []
        offsets = np.zeros(ncomp)
        for a, b, polys in self.pieces:
            ints = [p.integ(lbnd=a) for p in polys]
            raw.append((a, b, ints, offsets.copy()))
            offsets = offsets + np.array([float(p(b)) for p in ints])
        pieces = [(a, b, [p + off for p, off in zip(ints, offs)])
                  for a, b, ints, offs in raw]
        out = _PiecewiseCheb(pieces)
        shift = out(np.array([base]))[0]
        return _PiecewiseCheb([(a, b, [p - s for p, s in zip(polys, shift)])
                               for a, b, polys in out.pieces])


def el_integral_function(setup: AugmentedSetup, traj: Trajectory, regime: Regime):
    """The integral-form left-hand side as a vectorized callable on the regime.

    Nested integrals all start at t2 - tau.  The i = m term is the bare
    integrand with sign -1, the convention under which applying d^m/dt^m
    reproduces the differential form up to the overall factor (-1)^(m-1).
    """
    problem = setup.problem
    F = augmented_integrand(setup)
    lo, hi = regime_interval(problem, regime)
    base = problem.t2 - problem.tau
    inner = smooth_breaks(problem, traj)
    terms = []
    for i in range(problem.m + 1):
        level = _PiecewiseCheb.fit(
            stacked_partial_map(F, traj, problem.tau, problem.m, i, regime),
            lo, hi, inner, problem.n)
        for _ in range(problem.m - i):
            level = level.antiderivative(base)
        sign = -1.0 if i == problem.m else (-1.0) ** (problem.m - i - 1)
        terms.append((sign, level))

    def fn(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return sum(sign * level(ts) for sign, level in terms)

    return fn


def el_integral_lhs(setup: AugmentedSetup, traj: Trajectory, t, regime: Regime) -> np.ndarray:
    """Integral-form LHS at a single time; equals a degree-(m-1) polynomial
    of t along extremals."""
    return el_integral_function(setup, traj, regime)(np.array([float(t)]))[0]


@dataclass(frozen=True)
class PolynomialFit:
    """Least-squares degree-(m-1) fit of the integral form; near-zero residual
    certifies the integral-form Euler-Lagrange equations."""

    coefficients: np.ndarray  # (m, n), monomial coefficients in t, ascending
    residual_sup: float


def el_integral_defect(setup: AugmentedSetup, traj: Trajectory, grid: Grid,
                       regime: Regime) -> PolynomialFit:
    problem = setup.problem
    if len(grid) < problem.m + 1:
        raise DegenerateGrid(f"need at least {problem.m + 1} samples, got {len(grid)}")
    lo, hi = regime_interval(problem, regime)
    ts = np.asarray(grid.times)
    samples = el_integral_function(setup, traj, regime)(ts)  # (npts, n)
    coeffs = np.zeros((problem.m, problem.n))
    resid = 0.0
    for c in range(problem.n):
        fit = Legendre.fit(ts, samples[:, c], problem.m - 1, domain=[lo, hi])
        resid = max(resid, float(np.max(np.abs(fit(ts) - samples[:, c]))))
        mono = fit.convert(kind=Polynomial).coef
        coeffs[: len(mono), c] = mono
    return PolynomialFit(coeffs, resid)


# ---------------------------------------------------------------------------
# grids + classification


def residual_grids(problem: IsoperimetricProblem, traj: Trajectory, count: int = 200,
                   eps_knot: float = 1e-2) -> dict[Regime, Grid]:
    """Regime-respecting grids on [t1, t2], clear of breakpoints and t2 - tau."""
    exclude = smooth_breaks(problem, traj)
    grid = Grid.build(problem.t1, problem.t2, count, exclude=exclude, eps_knot=eps_knot)
    split = problem.t2 - problem.tau
    return {
        Regime.FIRST: Grid(grid.times[grid.times < split], eps_knot),
        Regime.SECOND: Grid(grid.times[grid.times > split], eps_knot),
    }


def classify(problem: IsoperimetricProblem, traj: Trajectory,
             tol: float | None = None) -> Classification:
    """Abnormal iff the constraint integrands themselves satisfy the delayed
    Euler-Lagrange equations along the trajectory."""
    if problem.k == 0:
        raise NoConstraints("classification needs at least one constraint")
    grids = residual_grids(problem, traj, count=100)
    sup = 0.0
    for gj in problem.g:
        for regime, grid in grids.items():
            res = momentum(gj, problem, traj, 0, np.asarray(grid.times), regime)
            sup = max(sup, float(np.max(np.linalg.norm(res, axis=1))))
    if tol is None:
        tol = 1e-6 * (1.0 + sup)
    return Classification.ABNORMAL if sup <= tol else Classification.NORMAL


# ---------------------------------------------------------------------------
# reporting


@dataclass
class ResidualReport:
    """Per-grid-point residuals with regime sup-norms and hypothesis flags."""

    times_first: np.ndarray
    times_second: np.ndarray
    el_first: np.ndarray
    el_second: np.ndarray
    dr_first: np.ndarray | None = None
    dr_second: np.ndarray | None = None
    cdur_times: np.ndarray | None = None
    cdur: np.ndarray | None = None
    constraint_defect: np.ndarray | None = None
    hypothesis_violated: bool = False
    abnormal: bool | None = None

    @property
    def sup(self) -> dict[str, float]:
        out = {
            "el_first": float(np.max(np.linalg.norm(self.el_first, axis=1))),
            "el_second": float(np.max(np.linalg.norm(self.el_second, axis=1))),
        }
        if self.dr_first is not None:
            out["dr_first"] = float(np.max(np.abs(self.dr_first)))
            out["dr_second"] = float(np.max(np.abs(self.dr_second)))
        if self.cdur is not None:
            out["cdur"] = float(np.max(np.abs(self.cdur)))
        if self.constraint_defect is not None:
            out["constraint_defect"] = float(np.max(np.abs(self.constraint_defect), initial=0.0))
        return out

    def to_csv(self) -> str:
        times = np.concatenate([self.times_first, self.times_second])
        regimes = ["first"] * len(self.times_first) + ["second"] * len(self.times_second)
        el = np.concatenate([self.el_first, self.el_second])
        header = ["t", "regime"] + [f"el_{i}" for i in range(el.shape[1])]
        columns = [times, regimes, *el.T]
        if self.dr_first is not None:
            header.append("dr_residual")
            columns.append(np.concatenate([self.dr_first, self.dr_second]))
        return csv_text(header, columns)

    def to_json(self) -> str:
        payload = {"sup": self.sup, "hypothesis_violated": self.hypothesis_violated}
        if self.abnormal is not None:
            payload["abnormal"] = self.abnormal
        if self.constraint_defect is not None:
            payload["constraint_defect"] = list(self.constraint_defect)
        return json.dumps(payload, indent=2)


def format_column(values) -> list[str]:
    """Each value at 17 significant digits, formatted in one call."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def csv_text(header: list[str], columns) -> str:
    """CSV text: the header row, then row j holds entry j of every column.

    A column is a list of str (written as given) or an array of numbers
    (written by :func:`format_column`).  No cell needs CSV quoting: cells are
    numbers, empty, or plain names.
    """
    cells = [col if isinstance(col, list) else format_column(col) for col in columns]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*cells)])
