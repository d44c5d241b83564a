"""Differentiation and integration engine.

Block partials of integrands (dual-number > finite difference), total time
derivatives by 5-point stencils that never cross a regime bound or trajectory
breakpoint, composite Gauss-Legendre quadrature, and the s = 0 parameter
derivative used by the invariance checks.

A :class:`Stencil` places one order's nodes and weights the samples taken
there; :func:`total_derivative_many` samples a map of several columns once,
so the residual record of :mod:`delayvar.euler_lagrange` differentiates all
its stacked partials of one order from one path evaluation.  Steps come from
:func:`default_step`: span * 1e-4 for order 1, and 10x more per further order
(the roundoff floor eps*|f|/h^k would otherwise dominate at the tolerances).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .dual import Dual, derivative_of
from .errors import BlockOutOfRange, StencilCrossesBreakpoint

__all__ = ["default_step", "Stencil", "total_derivative_many", "partial", "sample", "integrate",
           "derivative_in_parameter", "ParamDerivative", "fd_weights"]

_WIDTH = 5


def fd_weights(offsets, order: int) -> np.ndarray:
    """Finite-difference weights at x = 0 for nodes ``offsets`` (Fornberg)."""
    x = np.asarray(offsets, dtype=float)
    npts = len(x)
    c = np.zeros((npts, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, npts):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


# _WEIGHTS[order, s + 2]: the 5-point stencil shifted by s nodes, s = -2 (fully left) .. 2
_WEIGHTS = np.array([[fd_weights(np.arange(_WIDTH) - 2 + s, order) for s in range(-2, 3)]
                     for order in range(_WIDTH)])


def default_step(span: float, order: int = 1) -> float:
    """Default stencil step for a problem of time span ``span``."""
    return span * 1e-4 * (10.0 ** max(0, order - 1))


class Stencil:
    """Order-``order`` 5-point stencils at ``ts``, each inside its point's [los, his]
    (off-centre near the ends): ``apply`` turns samples at the flat ``nodes`` into
    the derivatives at ts.  Order 0 is ts itself."""

    def __init__(self, ts, order: int, los, his, h: float):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        self.order, self.nodes = order, ts
        if order == 0:
            return
        if order >= _WIDTH:
            raise StencilCrossesBreakpoint(f"5-point stencil cannot produce order {order}")
        los = np.broadcast_to(np.asarray(los, dtype=float), ts.shape)
        his = np.broadcast_to(np.asarray(his, dtype=float), ts.shape)
        if np.any(his - los <= 0):
            raise StencilCrossesBreakpoint("empty interval between breakpoints")
        self._h = np.minimum(h, (his - los) / _WIDTH)
        if np.any(self._h <= 1e-13 * np.maximum(1.0, np.abs(ts))):
            raise StencilCrossesBreakpoint("no stencil fits between the surrounding breakpoints")
        s_min = np.ceil(2.0 - (ts - los) / self._h - 1e-12)
        s_max = np.floor((his - ts) / self._h - 2.0 + 1e-12)
        if np.any(s_min > s_max):
            raise StencilCrossesBreakpoint("stencil placement failed near a breakpoint")
        self._shift = np.clip(0.0, s_min, s_max).astype(int)
        self.nodes = (ts[:, None] + (np.arange(_WIDTH) - 2 + self._shift[:, None])
                      * self._h[:, None]).ravel()

    def apply(self, values) -> np.ndarray:
        """Derivatives at ts from ``values`` of shape (len(nodes), ...)."""
        values = np.asarray(values)
        if self.order == 0:
            return values
        npts = len(self._shift)
        vals = values.reshape((npts, _WIDTH) + values.shape[1:])
        # subtract the on-point value (node index 2 - shift): derivative weights
        # annihilate constants, and doing it explicitly makes that exact
        center = vals[np.arange(npts), 2 - self._shift]
        vals = vals - center[:, None]
        weights = _WEIGHTS[self.order, self._shift + 2]  # (npts, 5)
        scale = self._h ** (-self.order)
        extra = (1,) * (vals.ndim - 2)
        return np.sum(vals * (weights * scale[:, None]).reshape(weights.shape + extra), axis=1)


def total_derivative_many(fn, ts, order: int, los, his, h: float) -> np.ndarray:
    """order-th time derivative of ``fn`` at each of ``ts`` (vectorized).

    ``fn`` must accept a flat time array and return shape (npts, ...).  Bounds
    ``los``/``his`` give, per point, the interval the stencil may occupy.
    """
    stencil = Stencil(ts, order, los, his, h)
    return stencil.apply(fn(stencil.nodes))


def partial(f, block: int, args) -> np.ndarray:
    """Gradient of integrand ``f`` with respect to one argument block.

    A dual-number forward pass, exact for integrands built from arithmetic
    and the toolkit's dual-aware functions; central finite differences for
    callables that reject dual numbers.
    Returns shape (block_len,) for scalar argument slots, (block_len, npts)
    when slots hold arrays.
    """
    layout = args.layout
    if block < 1 or block > layout.nblocks:
        raise BlockOutOfRange(f"block {block} outside 1..{layout.nblocks}")
    sl = layout.block_slice(block)
    if sl.start == sl.stop:
        return np.zeros(0)
    values = args.values
    try:
        return np.stack([_dual_slot(f, values, i) for i in range(sl.start, sl.stop)])
    except TypeError:
        return np.stack([_fd_slot(f, values, i) for i in range(sl.start, sl.stop)])


def _dual_slot(f, values, i):
    v = values[i]
    seeded = list(values)
    seed = np.ones_like(np.asarray(v, dtype=float)) if np.ndim(v) else 1.0
    seeded[i] = Dual(v, seed)
    out = f(seeded)
    return np.asarray(derivative_of(out, like=v), dtype=float)


def _fd_slot(f, values, i):
    v = np.asarray(values[i], dtype=float)
    h = np.maximum(1e-6, 1e-6 * np.abs(v))
    up, dn = list(values), list(values)
    up[i] = v + h
    dn[i] = v - h
    return (np.asarray(f(up), dtype=float) - np.asarray(f(dn), dtype=float)) / (2.0 * h)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def integrate(fn: Callable, a: float, b: float, breaks=()) -> float:
    """Composite 8-node Gauss-Legendre over panels split at ``breaks``.

    Panels never straddle a break and are at most (b - a)/64 wide; exact to
    roundoff for piecewise polynomials of degree <= 15.
    """
    if b <= a:
        return 0.0
    pts = (float(a), *sorted(x for x in set(float(x) for x in breaks) if a < x < b), float(b))
    nodes, weights = _panel_rule(pts)
    return float(weights @ sample(fn, nodes))


@functools.lru_cache(maxsize=32)
def _panel_rule(pts: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the composite rule on panel points ``pts``."""
    target = (pts[-1] - pts[0]) / 64.0
    nodes, weights = [], []
    for lo, hi in zip(pts[:-1], pts[1:]):
        k = max(1, math.ceil((hi - lo) / target - 1e-12))
        edges = np.linspace(lo, hi, k + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        nodes.append((mids[:, None] + half * _GL_NODES[None, :]).ravel())
        weights.append(np.tile(half * _GL_WEIGHTS, k))
    rule = np.concatenate(nodes), np.concatenate(weights)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def sample(fn: Callable, ts: np.ndarray) -> np.ndarray:
    """fn on a time array in one call; per point if it rejects arrays or changes shape."""
    try:
        vals = np.array(fn(ts), dtype=float)
        if vals.shape == ts.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(t)) for t in ts])


class ParamDerivative(NamedTuple):
    value: float
    error: float


def derivative_in_parameter(fn: Callable[[float], float]) -> ParamDerivative:
    """d/ds at s = 0 by central differences with Richardson extrapolation
    over h in {1e-3, 5e-4}; carries an error estimate."""
    h = 1e-3
    d1 = (fn(h) - fn(-h)) / (2.0 * h)
    d2 = (fn(h / 2) - fn(-h / 2)) / h
    value = (4.0 * d2 - d1) / 3.0
    return ParamDerivative(value, abs(value - d2))
