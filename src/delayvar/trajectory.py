"""Piecewise-polynomial candidate paths on [t1 - tau, t2].

Paths are stored segment-by-segment in the monomial basis shifted to each
segment midpoint (better conditioned than global monomials).  Evaluation at a
knot takes the right limit (the right-hand segment), except at the final
endpoint where the last segment is used; a time within 1e-12 of the span of
a knot is at the knot.  ``Trajectory.eval`` takes one derivative order or a
sequence of them; a sequence shares one domain check, segment lookup and
power table.  Trajectories are immutable after construction and evaluation
is pure, so they are safe to share between threads.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import OrderTooHigh, OutOfDomain

__all__ = ["PolySegment", "Trajectory", "example1_trajectory", "segments_from_callable"]


class PolySegment:
    """One polynomial piece on [a, b], coefficients in powers of (t - (a+b)/2).

    ``coeffs`` has shape (n, degree+1), one coefficient row per state component.
    """

    __slots__ = ("a", "b", "coeffs", "mid")

    def __init__(self, a: float, b: float, coeffs):
        if not a < b:
            raise ValueError(f"segment needs a < b, got [{a}, {b}]")
        self.a = float(a)
        self.b = float(b)
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        self.mid = 0.5 * (self.a + self.b)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @classmethod
    def from_monomial(cls, a: float, b: float, coeffs) -> "PolySegment":
        """Build from coefficients in plain powers of t (per component), by the
        Taylor shift t^j = sum_k C(j, k) mid^(j-k) (t - mid)^k as one product."""
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        mid, powers = 0.5 * (a + b), range(coeffs.shape[1])
        shift = np.array([[math.comb(j, k) * mid ** max(j - k, 0) for k in powers] for j in powers])
        return cls(a, b, coeffs @ shift)

    def eval(self, t, order: int = 0) -> np.ndarray:
        """order-th derivative at t (scalar or array); shape t.shape + (n,)."""
        if order < 0:
            raise OrderTooHigh(f"derivative order {order} is negative")
        t = np.asarray(t, dtype=float)
        if order > self.degree:
            return np.zeros(t.shape + (self.n,))
        return np.moveaxis(P.polyval(t - self.mid, P.polyder(self.coeffs.T, order)), 0, -1)


class Trajectory:
    """Contiguous polynomial segments with controlled inter-segment smoothness.

    Derivatives of order 0..m-1 must match across every interior knot except
    at declared nonsmooth knots, where only continuity of the value itself is
    required.
    """

    def __init__(self, n: int, m: int, segments, nonsmooth_knots=(), validate: bool = True):
        self.n = int(n)
        self.m = int(m)
        self.segments = tuple(segments)
        self.nonsmooth_knots = tuple(sorted(float(k) for k in nonsmooth_knots))
        if not self.segments:
            raise ValueError("trajectory needs at least one segment")
        self._slack = 1e-12 * max(1.0, self.domain[1] - self.domain[0])
        starts = np.array([s.a for s in self.segments[1:]])  # interior, widened by the slack
        self._right_of, self._left_of = starts - self._slack, starts + self._slack
        self._mids = np.array([s.mid for s in self.segments])
        self.max_degree = max(s.degree for s in self.segments)
        self._stacked_cache: dict[int, np.ndarray] = {}
        if validate:
            self.validate()

    def _stacked(self, order: int) -> np.ndarray:
        """All segments' order-th derivative coefficients, zero-padded and
        power-major: shape (max_degree + 1 - order, nseg, n)."""
        cached = self._stacked_cache.get(order)
        if cached is None:
            if order == 0:
                cached = np.zeros((self.max_degree + 1, len(self.segments), self.n))
                for i, s in enumerate(self.segments):
                    cached[: s.degree + 1, i] = s.coeffs.T
            else:  # d/dx sum c_k x^k = sum (k + 1) c_(k+1) x^k, as in polyder
                prev = self._stacked(order - 1)
                cached = prev[1:] * np.arange(1.0, len(prev))[:, None, None]
            self._stacked_cache[order] = cached
        return cached

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        for seg in self.segments:
            if seg.n != self.n:
                raise ValueError(f"segment has {seg.n} components, trajectory has {self.n}")
            if not np.isfinite(np.append(seg.coeffs, (seg.a, seg.b))).all():
                raise ValueError(f"segment [{seg.a}, {seg.b}] has a non-finite end or coefficient")
        for left, right in zip(self.segments, self.segments[1:]):
            if abs(left.b - right.a) >= self._slack:
                raise ValueError(f"gap/overlap at {left.b} vs {right.a}")
            self._check_knot(left, right)

    def _check_knot(self, left: PolySegment, right: PolySegment) -> None:
        knot = right.a
        nonsmooth = any(abs(knot - k) < 1e-9 for k in self.nonsmooth_knots)
        orders = (0,) if nonsmooth else range(self.m)
        for order in orders:
            lv = left.eval(left.b, order)
            rv = right.eval(right.a, order)
            tol = 1e-9 * max(1.0, float(np.max(np.abs(lv))), float(np.max(np.abs(rv))))
            if np.max(np.abs(lv - rv)) > tol:
                kind = "value" if order == 0 else f"order-{order} derivative"
                raise ValueError(f"{kind} mismatch at knot {knot}: {lv} vs {rv}")

    # -- evaluation ---------------------------------------------------------

    @property
    def domain(self) -> tuple[float, float]:
        return self.segments[0].a, self.segments[-1].b

    def breakpoints(self) -> list[float]:
        """Segment boundaries in increasing order, endpoints included."""
        return [s.a for s in self.segments] + [self.segments[-1].b]

    def eval(self, t, order=0, left=False):
        """order-th derivative of the active segment at t (right limit at knots,
        left limit where the bool or per-point mask ``left`` is set).

        ``order`` may also be a sequence of orders: the result is then a list
        with one array per order, from one domain check, segment lookup and
        power table.  Each array has shape t.shape + (n,) for scalar or 1-D t.
        An order past ``max_degree`` is zero, as in :meth:`PolySegment.eval`.
        """
        batched = np.ndim(order) > 0
        orders = list(order) if batched else [order]
        if min(orders, default=0) < 0:
            raise OrderTooHigh(f"derivative order {min(orders)} is negative")
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.domain
        slack = 1e-10 * max(1.0, hi - lo)
        if (t < lo - slack).any() or (t > hi + slack).any():
            bad = t[(t < lo - slack) | (t > hi + slack)][0]
            raise OutOfDomain(f"t = {bad} outside [{lo}, {hi}]")
        t = t.clip(lo, hi)
        idx = np.searchsorted(self._right_of, t, side="right")  # a knot goes right
        if np.any(left):
            idx = np.where(left, np.searchsorted(self._left_of, t, side="left"), idx)
        x = t - self._mids[idx]
        powers = np.empty((max(self.max_degree + 1 - min(orders, default=0), 1), len(x)))
        powers[0] = 1.0
        for k in range(1, len(powers)):
            np.multiply(powers[k - 1], x, out=powers[k])
        outs = []
        term = np.empty((len(x), self.n))
        for o in orders:
            table = self._stacked(min(o, self.max_degree + 1))  # (K, nseg, n), K = 0 past it
            # idx is in range by construction; mode="clip" skips the buffered copy
            out = table[0].take(idx, axis=0, mode="clip") if len(table) else np.zeros_like(term)
            for k in range(1, len(table)):
                table[k].take(idx, axis=0, out=term, mode="clip")
                term *= powers[k][:, None]
                out += term
            outs.append(out[0] if scalar else out)
        return outs if batched else outs[0]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        record = {
            "n": self.n,
            "m": self.m,
            "segments": [
                {"a": s.a, "b": s.b, "coeffs": s.coeffs.tolist()} for s in self.segments
            ],
            "nonsmooth_knots": list(self.nonsmooth_knots),
        }
        return json.dumps(record, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        """Read :meth:`to_json`'s record; ValueError names a non-object record, a key
        it does not write, an n or m not a JSON integer, a segment not of JSON
        numbers a, b, coeffs, or nonsmooth_knots not a list of finite numbers."""
        record = json.loads(text)
        if not isinstance(record, dict):
            raise ValueError(f"a trajectory file must hold a JSON object, got {record!r}")
        unknown = set(record) - {"n", "m", "segments", "nonsmooth_knots"}
        if unknown:
            raise ValueError(f"unknown trajectory keys {sorted(unknown)}")
        for key in ("n", "m"):
            if type(record[key]) is not int:
                raise ValueError(f"trajectory {key} must be an integer, got {record[key]!r}")
        segments = record["segments"]
        for s in segments if isinstance(segments, list) else [segments]:  # a non-list as is
            if not (isinstance(s, dict) and sorted(s) == ["a", "b", "coeffs"]
                    and all(type(s[key]) in (int, float) for key in "ab")
                    and np.asarray(s["coeffs"]).dtype.kind in "if"):
                raise ValueError(f"segments must be a list of objects of the numbers a, b and "
                                 f"coeffs, got {s!r}")
        knots = record.get("nonsmooth_knots", [])
        if not (isinstance(knots, list) and all(type(k) in (int, float) and math.isfinite(k)
                                                for k in knots)):
            raise ValueError(f"nonsmooth_knots must be a list of finite numbers, got {knots!r}")
        segments = [PolySegment(s["a"], s["b"], s["coeffs"]) for s in segments]
        return cls(record["n"], record["m"], segments, knots)


def segments_from_callable(fn, n: int, edges, degree: int = 4):
    """A list of :class:`PolySegment` interpolating an n-component callable of
    time at the degree + 1 Chebyshev points of each panel between consecutive
    entries of the array ``edges``, exact for polynomials of degree <=
    ``degree``.  ``fn`` is called once, on every node, its value read
    components first, broadcast to (n, npts): a 1-D value of length n is a
    constant vector, a points-first (npts, n) one a ValueError.  All panels
    share one inverse Vandermonde matrix on the nodes in (-1, 1); a panel's
    coefficients in powers of (t - mid) are its row times half^-j.
    """
    mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    nodes, inverse = _chebyshev_fit(degree)
    ts = (mids[:, None] + halves[:, None] * nodes).ravel()  # panel-major
    if len(ts) == n:  # an (n, n) value reads both ways: one more time, its value dropped
        ts = np.append(ts, edges[0])
    ys = np.asarray(fn(ts), dtype=float)
    if ys.shape == (n,):  # constant vector
        ys = ys[:, None]
    try:
        ys = np.broadcast_to(ys, (n, len(ts))).T[:mids.size * (degree + 1)]
    except ValueError:
        raise ValueError(f"{fn!r} returned shape {ys.shape} on {len(ts)} times; expected "
                         f"components first, ({n}, {len(ts)})") from None
    coeffs = (inverse @ ys.reshape(mids.size, degree + 1, n)
              / halves[:, None, None] ** np.arange(degree + 1)[:, None])  # (panels, degree + 1, n)
    return [PolySegment(lo, hi, c.T) for lo, hi, c in zip(edges[:-1], edges[1:], coeffs)]


@functools.lru_cache(maxsize=32)
def _chebyshev_fit(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only: the degree + 1 Chebyshev points in (-1, 1) and the inverse of
    their Vandermonde matrix, shared by every :func:`segments_from_callable`."""
    nodes = np.cos(np.pi * (2 * np.arange(degree + 1) + 1) / (2 * (degree + 1)))
    fit = nodes, np.linalg.inv(np.vander(nodes, increasing=True))
    for arr in fit:
        arr.flags.writeable = False
    return fit


def example1_trajectory() -> Trajectory:
    """The nonsmooth piecewise quartic: -t^4, t^4, -t^4 + 2 on [-1,0], (0,1], (1,2].

    The first derivative jumps at t = 1 (declared nonsmooth); t = 0 is a
    smooth knot.
    """
    segs = [
        PolySegment.from_monomial(-1.0, 0.0, [[0.0, 0.0, 0.0, 0.0, -1.0]]),
        PolySegment.from_monomial(0.0, 1.0, [[0.0, 0.0, 0.0, 0.0, 1.0]]),
        PolySegment.from_monomial(1.0, 2.0, [[2.0, 0.0, 0.0, 0.0, -1.0]]),
    ]
    return Trajectory(n=1, m=2, segments=segs, nonsmooth_knots=(1.0,))
