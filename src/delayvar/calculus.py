"""Differentiation and integration engine.

Block partials of integrands, their gradient and Hessian along a path
(:func:`derivatives`: one call on jets seeding every slot at once), time
derivatives along a path (:func:`path_derivatives`: one call of a map on the
time jet gives d^0 .. d^K/dt^K exactly) and the s = 0 parameter derivative,
all from Taylor jets (:mod:`delayvar.jet`), the only way a user callable is
differentiated: one that rejects jets raises NotJetCapable (:func:`jet_call`).
Also composite Gauss-Legendre quadrature, its integrand called once on the
array of every node, and the 5-point stencils (:class:`Stencil`, steps from
:func:`default_step`) that no differentiation uses: they are the independent
finite-difference reference for the tests.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from . import jet
from .errors import BlockOutOfRange, NotJetCapable, StencilCrossesBreakpoint

__all__ = ["default_step", "Stencil", "total_derivative_many", "jet_call", "path_derivatives",
           "partial", "derivatives", "panel_rule", "integrate",
           "derivative_in_parameter", "fd_weights"]

_WIDTH = 5


def fd_weights(offsets, order: int) -> np.ndarray:
    """Finite-difference weights at x = 0 for nodes ``offsets``: the moment
    conditions sum_j w_j x_j^i = order! [i = order], i < len(offsets)."""
    x = np.asarray(offsets, dtype=float)
    return np.linalg.solve(np.vander(x, increasing=True).T,
                           np.eye(len(x))[order] * math.factorial(order))


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
    """order-th time derivative of ``fn`` at each of ``ts``, in one call of fn.

    ``fn`` must accept a flat time array and return shape (npts, ...).  Bounds
    ``los``/``his`` give, per point, the interval the stencil may occupy.
    """
    stencil = Stencil(ts, order, los, his, h)
    return stencil.apply(fn(stencil.nodes))


def jet_call(fn, *args):
    """fn(*args) for a user callable given jets; its TypeError, the sign of
    one that rejects jets, raised as NotJetCapable naming it."""
    try:
        return fn(*args)
    except TypeError as exc:
        raise NotJetCapable(f"{fn!r} rejects Taylor jets ({exc}); write it with arithmetic, "
                            "the delayvar.jet functions or numpy ufuncs") from exc


def path_derivatives(fn, ts, order: int) -> np.ndarray:
    """d^0 .. d^order/dt^order of a map along a path at ``ts``; shape
    (order + 1, npts, ...).

    ``fn(t)`` is called once with t the time jet of ``order`` at ts and returns
    a jet whose coefficients have shape (npts, ...), an array of such jets, or
    a plain array, which is constant in t.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    coeffs = jet.coefficients(jet_call(fn, jet.variable(ts, order)), order)
    scale = [float(math.factorial(i)) for i in range(order + 1)]
    coeffs *= np.reshape(scale, (-1,) + (1,) * (coeffs.ndim - 1))  # its own array: no copy
    return coeffs


def partial(f, block: int, args):
    """Gradient of integrand ``f`` with respect to one argument block, its
    slots seeded one at a time by an order-1 jet: exact for integrands built
    from arithmetic, the jet-aware functions and their numpy ufuncs.  A slot
    outside ``f.reads`` (:class:`delayvar.problem.Integrand`) is an exact zero,
    f not called for it.  Shape (block_len,) for scalar slots, (block_len, npts)
    for array slots, and a jet in t of that shape for jet slots (an array if no
    slot is read); NotJetCapable if f rejects jets.
    """
    layout = args.layout
    if block < 1 or block > layout.nblocks:
        raise BlockOutOfRange(f"block {block} outside 1..{layout.nblocks}")
    sl = layout.block_slice(block)
    if sl.start == sl.stop:
        return np.zeros(0)
    reads = getattr(f, "reads", None)
    read = [i for i in range(sl.start, sl.stop) if reads is None or i in reads]
    like = jet.value_of(args.values[sl.start])
    if not read:
        return np.zeros((sl.stop - sl.start,) + np.shape(like))
    slots = [_split(*_seeded(f, args.values, [{i: 1.0}]))[1] if i in read else None
             for i in range(sl.start, sl.stop)]
    return jet.stack([0.0 if d is None else d for d in slots], like)


def derivatives(f, args, order: int = 0, levels: int = 1) -> list[np.ndarray]:
    """Taylor coefficients 0 .. order in t of f, its gradient and (levels = 2)
    its Hessian along a path, slots holding time jets of at least ``order``
    (or arrays, at order 0); shapes (order + 1,) + (slots,) * j + (npts,),
    [r, k, b] the t^r coefficient of d_b d_k f.  One evaluation on ``levels``
    nested order-1 jets in vector mode (Griewank & Walther, *Evaluating
    Derivatives*, 3.1): at each, slot i's epsilon coefficient is row i of an
    identity matrix, an inner level's on an earlier axis; NotJetCapable if f
    rejects jets."""
    size, pts = len(args.values), np.shape(jet.value_of(args.values[0]))
    out, level = _seeded(f, args.values, [
        dict(enumerate(np.eye(size).reshape((size, size) + (1,) * (levels - d - 1 + len(pts)))))
        for d in range(levels)])
    head, tail = _split(out, level + levels - 1)
    found = [head, tail] if levels == 1 else [_split(head, level)[0], *_split(tail, level)]
    return [np.zeros(shape) if x is None else np.broadcast_to(jet.coefficients(x, order), shape)
            for x, shape in zip(found, [(order + 1,) + (size,) * j + pts for j in range(3)])]


def _seeded(f, values, seeds):
    """f on the values under order-1 jets d levels above every jet in them,
    seeds[d] mapping slots to their epsilon coefficients there: the output and
    the innermost seed level; NotJetCapable for an array of jets."""
    level = 1 + max([v.level for v in values if type(v) is jet.Jet], default=-1)
    seeded = list(values)
    for depth, level_seeds in enumerate(seeds):
        for i, eps in level_seeds.items():
            seeded[i] = jet.Jet([seeded[i], eps], level + depth)
    out = jet_call(f, seeded)
    if isinstance(out, np.ndarray) and out.dtype == object:
        raise NotJetCapable(f"{f!r} returns an array of jets, not one value per point")
    return out, level


def _split(x, level: int):
    """x's value and epsilon term (None: zero) in the jet variable of ``level``."""
    if isinstance(x, jet.Jet) and x.level == level:
        return x.c[0], (x.c[1] if x.order else None)
    return x, None


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def integrate(fn: Callable, a: float, b: float, breaks=()):
    """Composite 8-node Gauss-Legendre over panels split at ``breaks``.

    Panels never straddle a break and are at most (b - a)/64 wide; exact to
    roundoff for piecewise polynomials of degree <= 15.  fn is called once,
    on the array of every node, and returns shape (npts,) or (npts, k); the
    result is a float or an array of shape (k,).  Each column takes the dot
    product a lone column would, so stacking integrands changes no value.
    """
    if b <= a:
        return 0.0
    nodes, weights = panel_rule(a, b, breaks)
    values = np.asarray(fn(nodes), dtype=float)
    if values.ndim == 1:
        return float(weights @ values)
    return np.array([weights @ col for col in np.ascontiguousarray(values.T)])


def panel_rule(a: float, b: float, breaks=()) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of :func:`integrate`'s rule on [a, b] (a < b)
    split at ``breaks``."""
    return _panel_rule((float(a), *sorted(x for x in set(float(x) for x in breaks) if a < x < b),
                        float(b)))


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


def derivative_in_parameter(fn: Callable) -> float:
    """d/ds fn(s) at s = 0, from one call on the order-1 jet in s."""
    return float(jet.coefficients(jet_call(fn, jet.variable(0.0, 1)), 1)[1])
