"""Truncated Taylor series (jets) for forward-mode differentiation.

A :class:`Jet` holds the Taylor coefficients c_0 .. c_K (the k-th derivative
over k!) of a quantity in one variable.  Coefficients are floats, numpy
arrays (one series per point) or jets in an inner variable, so jets nest: an
order-1 jet over jets in t is a dual number whose derivative part is itself a
jet in t.  ``level`` tells the variables apart; a jet meeting one of a lower
level treats it as a constant.  Arithmetic uses Cauchy products, integer
powers by products, and the standard recurrences for / sqrt exp log sin cos
(Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 13), other powers
going through exp and log.  numpy ufuncs of arithmetic, comparison and the
functions below run the jet's own, and ``np.array`` of jets is an object
array that :func:`coefficients` reads, so maps written with either are
jet-capable; ``float``, ``math`` and float-typed arrays raise TypeError.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["Jet", "variable", "path", "value_of", "coefficients", "stack", "hstack",
           "sin", "cos", "exp", "log", "sqrt", "fabs"]


def _defer(method):
    """Binary operator: the outer jet's reflected operator runs when ``other``
    is a jet of a higher level (Python skips it for operands of one type);
    ``peer`` says whether other is a jet of this level."""
    name = method.__name__.replace("__", "__r", 1)

    def run(self, other):
        if isinstance(other, Jet) and other.level > self.level:
            return getattr(other, name)(self)
        return method(self, other, isinstance(other, Jet) and other.level == self.level)

    run.__name__ = method.__name__
    return run


class Jet:
    __slots__ = ("c", "level")

    def __init__(self, c, level: int = 0):
        self.c, self.level = c if type(c) is list else list(c), level

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """NEP 13: a mapped ufunc, called plainly, runs the jet's operation (the
        reflected one for an ndarray on the left: ``operator`` would recurse);
        numpy raises TypeError for the rest, an object array on the left too."""
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _UNARY:
            return _UNARY[ufunc](inputs[0])
        if ufunc not in _BINARY:
            return NotImplemented
        (forward, reflected), (left, right) = _BINARY[ufunc], inputs
        if isinstance(left, Jet):
            return getattr(left, forward)(right)
        if type(left) is np.ndarray and left.dtype == object:
            return NotImplemented
        return getattr(right, reflected)(left)

    def __array__(self, dtype=None, copy=None):
        """A 0-d object array holding the jet; TypeError for a numeric dtype."""
        if dtype is not None and np.dtype(dtype) != object:
            raise TypeError("a jet is not an array of numbers")
        out = np.empty((), dtype=object)
        out[()] = self
        return out

    def __repr__(self):
        return f"Jet({self.c!r}, level={self.level})"

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def _new(self, c) -> "Jet":
        return Jet(c, self.level)

    # indexing acts on the coefficient arrays (components, points)
    def __getitem__(self, key):
        return self._new(c[key] for c in self.c)

    def __iter__(self):
        return (self[i] for i in range(np.shape(value_of(self))[0]))

    @property
    def T(self) -> "Jet":
        return self._new(np.transpose(c) for c in self.c)

    @_defer
    def __add__(self, other, peer):
        if peer:
            return self._new([a + b for a, b in zip(self.c, other.c)])
        return self._new([self.c[0] + other] + self.c[1:])

    __radd__ = __add__  # other is a constant here

    @_defer
    def __sub__(self, other, peer):
        if peer:
            return self._new([a - b for a, b in zip(self.c, other.c)])
        return self._new([self.c[0] - other] + self.c[1:])

    def __rsub__(self, other):
        return self._new([other - self.c[0]] + [-a for a in self.c[1:]])

    def __neg__(self):
        return self._new([-a for a in self.c])

    @_defer
    def __mul__(self, other, peer):
        if not peer:
            return self._new([a * other for a in self.c])
        return self._new([_dot(self.c, other.c, k) for k in range(min(len(self.c), len(other.c)))])

    __rmul__ = __mul__

    @_defer
    def __truediv__(self, other, peer):
        if not peer:
            return self._new([a / other for a in self.c])
        return self._new(_divide(self.c, other.c))

    def __rtruediv__(self, other):
        return self._new(_divide([other] + [0.0] * self.order, self.c))

    @_defer
    def __pow__(self, other, peer):
        if not peer and not isinstance(other, Jet) and np.ndim(other) == 0 \
                and float(other).is_integer():
            return _integer_power(self, int(other))
        return exp(other * log(self))  # x^y = exp(y log x); needs x > 0

    def __rpow__(self, other):
        return exp(self * log(other))


# comparisons act on values (used e.g. for domain checks)
for _op in ("lt", "le", "gt", "ge"):
    setattr(Jet, f"__{_op}__", lambda self, other, op=getattr(operator, _op):
            op(value_of(self), value_of(other)))


def _dot(a, b, k: int, start: int = 0):
    """sum_{j=start..k} a_j b_(k-j)."""
    out = a[start] * b[k - start]
    for j in range(start + 1, k + 1):
        out = out + a[j] * b[k - j]
    return out


def _divide(a, b) -> list:
    """Coefficients of a / b: c_k = (a_k - sum_{j=1..k} b_j c_(k-j)) / b_0."""
    c = [a[0] / b[0]]
    for k in range(1, min(len(a), len(b))):
        c.append((a[k] - _dot(b, c, k, 1)) / b[0])
    return c


def _integer_power(x: Jet, k: int) -> Jet:
    """x^k by products: exact at x = 0, where exp(k log x) is not."""
    if k < 0:
        return 1.0 / _integer_power(x, -k)
    out = x * 0.0 + 1.0 if k == 0 else x
    for _ in range(k - 1):
        out = out * x
    return out


def variable(ts, order: int) -> Jet:
    """The independent variable at ts as a jet of ``order``: ts + h."""
    ts = np.asarray(ts, dtype=float)
    return Jet([ts, np.ones_like(ts)][: order + 1] + [np.zeros_like(ts)] * (order - 1))


def path(derivs, count: int, order: int) -> list[Jet]:
    """Jets of ``order`` of q, q', ..., q^(count - 1) from derivs[j] = q^(j)
    (count + order entries): block j has coefficients q^(j + r) / r!."""
    return [Jet([derivs[j + r] / math.factorial(r) if r > 1 else derivs[j + r]
                 for r in range(order + 1)]) for j in range(count)]


def value_of(x):
    """Constant term of a possibly nested jet; anything else as it is."""
    while isinstance(x, Jet):
        x = x.c[0]
    return x


def coefficients(x, order: int) -> np.ndarray:
    """Coefficients 0..order of x (a jet in t, or a constant) on a new first
    axis, broadcast to one shape and zero past the series.  The items of a
    list or tuple, or of an object array of jets, are broadcast together and
    stacked on the second axis."""
    if isinstance(x, np.ndarray) and x.dtype == object:
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        parts = np.broadcast_arrays(*(np.moveaxis(coefficients(v, order), 0, -1) for v in x))
        return np.moveaxis(np.stack(parts), -1, 0)
    terms = x.c[: order + 1] if isinstance(x, Jet) else [x]
    terms = list(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in terms)))
    return np.stack(terms + [np.zeros_like(terms[0])] * (order + 1 - len(terms)))


def _order(items) -> int:
    orders = [len(v.c) - 1 for v in items if type(v) is Jet]
    return max(orders) if orders else -1


def stack(items, like=0.0):
    """np.stack of the items, scalars taking the shape of ``like``; a jet,
    stacked order by order and broadcast together, if any item is one."""
    order = _order(items)
    if order < 0:
        return np.stack([np.asarray(v, dtype=float) if np.ndim(v) else np.full(np.shape(like), v)
                         for v in items])
    series = [v.c[: order + 1] if isinstance(v, Jet) else [v] for v in items]
    out = np.zeros((order + 1, len(items)) + np.broadcast_shapes(
        np.shape(like), *(np.shape(c) for cs in series for c in cs)))
    for i, cs in enumerate(series):  # written in place: no stacked copies
        for r, c in enumerate(cs):
            out[r, i] = c
    return Jet(out)


def hstack(blocks):
    """np.column_stack of (npts,) or (npts, w) blocks; a jet if any block is one."""
    if _order(blocks) < 0:
        return np.column_stack(blocks)
    return stack([c for b in blocks for c in (b.T if np.ndim(value_of(b)) == 2 else [b])]).T


def _sincos(x: Jet) -> tuple[Jet, Jet]:
    a, s, c = x.c, [sin(x.c[0])], [cos(x.c[0])]
    for k in range(1, len(a)):
        s.append(sum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-sum(j * a[j] * s[k - j] for j in range(1, k + 1)) / k)
    return x._new(s), x._new(c)


def sin(x):
    return _sincos(x)[0] if isinstance(x, Jet) else np.sin(x)


def cos(x):
    return _sincos(x)[1] if isinstance(x, Jet) else np.cos(x)


def exp(x):
    if not isinstance(x, Jet):
        return np.exp(x)
    a, e = x.c, [exp(x.c[0])]
    for k in range(1, len(a)):
        e.append(sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k)
    return x._new(e)


def log(x):
    if not isinstance(x, Jet):
        return np.log(x)
    a, out = x.c, [log(x.c[0])]
    for k in range(1, len(a)):
        out.append((a[k] - sum(j * out[j] * a[k - j] for j in range(1, k)) / k) / a[0])
    return x._new(out)


def sqrt(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
    a, s = x.c, [sqrt(x.c[0])]
    for k in range(1, len(a)):
        s.append((a[k] - sum(s[j] * s[k - j] for j in range(1, k))) / (2.0 * s[0]))
    return x._new(s)


def fabs(x):
    return x * np.sign(value_of(x)) if isinstance(x, Jet) else np.abs(x)


# the ufuncs a jet runs itself: one-argument ones, and (operator, reflected operator)
_UNARY = {np.negative: operator.neg, np.sin: sin, np.cos: cos, np.exp: exp, np.log: log,
          np.sqrt: sqrt, np.absolute: fabs}
_BINARY = {np.add: ("__add__", "__radd__"), np.subtract: ("__sub__", "__rsub__"),
           np.multiply: ("__mul__", "__rmul__"), np.true_divide: ("__truediv__", "__rtruediv__"),
           np.power: ("__pow__", "__rpow__"), np.less: ("__lt__", "__gt__"),
           np.less_equal: ("__le__", "__ge__"), np.greater: ("__gt__", "__lt__"),
           np.greater_equal: ("__ge__", "__le__")}
