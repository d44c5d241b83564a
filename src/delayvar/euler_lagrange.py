"""Two-regime delayed Euler-Lagrange residuals and extremizer classification.

The optimality conditions split at t2 - tau: on the first regime
[t1, t2 - tau] every stacked partial carries an advanced (t + tau) companion;
on the second regime [t2 - tau, t2] it does not.  The stacked partials

    Lambda_i(t) = d_{i+2} F[q](t)  (+ d_{i+m+3} F[q](t + tau) on the first regime)

and their rates come from one :class:`PathRecord` per (F, trajectory, times):
the differential residual E = psi_0, the momenta
psi_j = sum_i (-1)^i d^i/dt^i Lambda_(i+j), their jumps at the breaks, the
DuBois-Reymond and Noether quantities all read from it.  A regime is the
mask t < t2 - tau, which the record resolves per point, so no function takes
a regime and one time array (a :func:`residual_grids` grid) spans both.  The
record takes every rate from one forward pass of Taylor jets
(:func:`delayvar.calculus.path_derivatives`), exact to roundoff, so residuals
of exact extremals sit at roundoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import calculus, jet
from .errors import EmptyGrid, NoConstraints
from .problem import AugmentedSetup, ControlProblem, Integrand, IsoperimetricProblem, \
    augmented_integrand, check_components, path_args
from .trajectory import Trajectory

__all__ = ["Classification", "ResidualReport", "smooth_breaks", "stencil_bounds", "PathRecord",
           "el_residual", "momentum_jumps", "classify", "residual_grids", "csv_text"]


class Classification(Enum):
    NORMAL = "normal"
    ABNORMAL = "abnormal"


def smooth_breaks(problem: IsoperimetricProblem | ControlProblem,
                  traj: Trajectory) -> np.ndarray:
    """Times where any stacked-partial map can lose smoothness, ascending: the
    regime wall t2 - tau, trajectory breakpoints and their +-tau images.  Times
    within 1e-12 of the span of each other are one break, kept as the first
    of them in that order: the wall, else the trajectory's own knot."""
    base = np.asarray(traj.breakpoints())
    pts = np.concatenate([[problem.t2 - problem.tau], base, base + problem.tau,
                          base - problem.tau])
    order = np.argsort(pts, kind="stable")
    firsts = np.flatnonzero(np.diff(pts[order], prepend=-np.inf) > 1e-12 * max(1.0, problem.span))
    return pts[np.minimum.reduceat(order, firsts)]


def stencil_bounds(ts, breaks: np.ndarray, lo: float, hi: float):
    """Per-point interval a reference stencil may occupy: between neighboring
    breaks, clipped to the regime interval [lo, hi].  A break takes the piece
    to its left, except the first break, which takes the first piece."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    idx = np.searchsorted(breaks, ts)
    idx = np.where(ts == breaks[0], 1, idx)
    below = np.where(idx > 0, breaks[np.maximum(idx - 1, 0)], -np.inf)
    above = np.where(idx < len(breaks), breaks[np.minimum(idx, len(breaks) - 1)], np.inf)
    return np.maximum(below, lo), np.minimum(above, hi)


class PathRecord:
    """F along a trajectory at times ``ts``: the one sweep that every residual reads.

    ``first`` marks the first regime's points, ts < t2 - tau.  The path is
    evaluated once at ts, at ts - tau and, when the advanced arguments are
    read, at ts + tau on the first regime's points; q^(j)(ts), q^(j)(ts - tau)
    are kept (zero past the degree).  One call of the derivative provider on
    their jets gives d^i/dt^i Lambda_k(ts) for k >= min(momenta) and i up to
    the highest rate that the momenta psi_j, j in ``momenta``, need (the
    advanced partials enter the first regime's rows alone), and the rates of
    ``along(args)`` (the Noether generators) up to ``along_order``.
    Order-0 quantities are constant terms: the block partials at ts, F,
    d_1 F and the hypothesis sums are taken once each, when asked.  A point
    at the domain's right end is a left limit, and so is its delayed argument.
    With ``left`` every point and its shifts are left limits, and a point's
    regime is the one just left of it: a left limit at t2 - tau is the first's.
    """

    def __init__(self, F: Integrand, problem: IsoperimetricProblem, traj: Trajectory, ts,
                 momenta=None, along=None, along_order: int = 0, left: bool = False):
        m, tau = problem.m, problem.tau
        check_components(problem, traj)
        self._scalar = np.ndim(ts) == 0
        self.ts = ts = np.atleast_1d(np.asarray(ts, dtype=float))
        self.F, self.m, self.n = F, m, problem.n
        self.first = (np.nextafter(ts, -np.inf) if left else ts) < problem.t2 - tau
        rows = np.flatnonzero(self.first)  # a slice when they are contiguous: views, not copies
        self._rows = slice(rows[0], rows[-1] + 1) if len(rows) and rows[-1] - rows[0] < len(rows) \
            else rows
        self.traj, self.tau, self._along, self._left = traj, tau, along, left
        momenta = range(m + 1) if momenta is None else momenta
        order = max([m - j for j in momenta] + [along_order])
        self._momenta, self._ks = tuple(momenta), range(min(momenta, default=m + 1), m + 1)
        self._count = m + 1 + max(order, 1)
        self.q = traj.eval(ts, range(self._count), left)
        self.q_delayed = traj.eval(ts - tau, range(self._count), left or ts >= traj.domain[1])
        self._current = path_args(ts, self.q[: m + 1], self.q_delayed[: m + 1])
        self._partials, self.along = {}, []
        if not self._ks and along is None:
            return
        rates = calculus.path_derivatives(self._sample, ts, order)
        self._rates = rates[:, :, :len(self._ks) * self.n]
        self.along = list(rates[:along_order + 1, :, len(self._ks) * self.n:])

    @functools.cached_property
    def _advanced(self):
        """The path at ts + tau and the argument vector there, on the first regime's points."""
        ts = self.ts[self._rows] + self.tau
        path = self.traj.eval(ts, range(self._count), self._left)
        return path, path_args(ts, path[: self.m + 1],
                               [q[self._rows] for q in self.q[: self.m + 1]])

    def _sample(self, t):
        """Lambda_k for k in ks, then ``along``, side by side, at the time jet t,
        from the kept path values (at t + tau too on the first regime's points)."""
        current, delayed = (jet.path(p, self.m + 1, t.order) for p in (self.q, self.q_delayed))
        args = path_args(t, current, delayed)
        cols = [calculus.partial(self.F, k + 2, args).T for k in self._ks]
        if self._along is not None:
            cols.append(self._along(args))
        table = jet.hstack(cols)
        if self._ks and self.first.any():
            first, n = self._rows, self.n
            advanced = path_args(t[first] + self.tau,
                                 jet.path(self._advanced[0], self.m + 1, t.order),
                                 [c[first] for c in current])
            if not isinstance(table, jet.Jet):
                table = jet.Jet(jet.coefficients(table, t.order))
            for i, k in enumerate(self._ks):  # each coefficient of the partial, into its rows
                extra = calculus.partial(self.F, k + self.m + 3, advanced).T
                for c, e in zip(table.c, extra.c if isinstance(extra, jet.Jet) else [extra]):
                    c[first, i * n:(i + 1) * n] += e
        return table

    def block_partial(self, block: int, advanced: bool = False) -> np.ndarray:
        """d_block F at ts, or if ``advanced`` at ts + tau on the first regime's
        points, taken once; shape (len, npts)."""
        if (advanced, block) not in self._partials:
            args = self._advanced[1] if advanced else self._current
            self._partials[advanced, block] = calculus.partial(self.F, block, args)
        return self._partials[advanced, block]

    def rate(self, i: int, k: int) -> np.ndarray:
        """d^i/dt^i Lambda_k at ts, shape (npts, n); order 0 for any k."""
        if k in self._ks:
            c = (k - self._ks.start) * self.n
            return self._rates[i, :, c:c + self.n]
        out = self.block_partial(k + 2).T
        if self.first.any():
            out = out.copy()
            out[self._rows] += self.block_partial(k + self.m + 3, advanced=True).T
        return out

    def as_given(self, values):
        """values, a row per point, as the times came: a scalar time's row (a float if scalar)."""
        if not self._scalar:
            return values
        return values[0] if np.ndim(values) > 1 else float(values[0])

    @functools.cached_property
    def psi(self) -> dict:
        """The momenta psi_j = sum_i (-1)^i d^i/dt^i Lambda_(i+j), j in ``momenta``."""
        return {j: sum((-1) ** i * self.rate(i, i + j) for i in range(self.m - j + 1))
                for j in self._momenta}

    @functools.cached_property
    def value(self) -> np.ndarray:
        """F[q](ts)."""
        return np.broadcast_to(np.asarray(self.F(self._current.values), dtype=float),
                               self.ts.shape)

    @property
    def d1(self) -> np.ndarray:
        """d_1 F[q](ts), the explicit time dependence."""
        return self.block_partial(1)[0]

    def _hypothesis(self, advanced: bool, qs) -> np.ndarray:
        # terms past the trajectory's degree vanish
        return sum((np.sum(self.block_partial(j + self.m + 3, advanced).T * qs[j + 1], axis=1)
                    for j in range(min(self.m + 1, self.traj.max_degree))),
                   np.zeros(len(qs[0])))

    @functools.cached_property
    def cdur_delayed(self) -> np.ndarray:
        """The hypothesis residual at ts - tau, from the delayed-block partials at ts."""
        return self._hypothesis(False, self.q_delayed)

    @functools.cached_property
    def cdur_advanced(self) -> np.ndarray:
        """The hypothesis residual at the first regime's points, ts[first], from
        the advanced partials; shape (count of first,)."""
        return self._hypothesis(True, [q[self._rows] for q in self.q[: self.m + 2]])

    @functools.cached_property
    def dr_quantity(self) -> np.ndarray:
        """F - sum_j psi_j . q^(j)."""
        return self.value - sum(np.sum(self.psi[j] * self.q[j], axis=1)
                                for j in range(1, self.m + 1))

    @functools.cached_property
    def dr_residual(self) -> np.ndarray:
        """E . q' + cdur(t - tau) - [first regime] cdur(t) (:mod:`delayvar.dubois_reymond`)."""
        out = np.sum(self.psi[0] * self.q[1], axis=1) + self.cdur_delayed
        if self.first.any():
            out[self._rows] -= self.cdur_advanced
        return out


def el_residual(setup: AugmentedSetup, traj: Trajectory, t) -> np.ndarray:
    """Differential-form Euler-Lagrange residual of F = L - lam.g at t.

    Zero along extremals.  Accepts scalar t (returns shape (n,)) or an array
    (returns (npts, n)); regimes are resolved per point.
    """
    record = PathRecord(augmented_integrand(setup), setup.problem, traj, t, momenta=(0,))
    return record.as_given(record.psi[0])


def momentum_jumps(setup: AugmentedSetup, traj: Trajectory):
    """The breaks x of :func:`smooth_breaks` inside (t1, t2), shape (nb,); the
    momentum jumps [psi_j](x) = psi_j(x+) - psi_j(x-), shape (nb, m, n), column
    j - 1 for j = 1..m; and the path jumps [q^(i)](x), shape (nb, m, n), column i.

    A path that satisfies the Euler-Lagrange equations on each smooth piece is
    stationary iff every momentum jump vanishes (the Weierstrass-Erdmann corner
    condition, with the advanced terms in psi_j on the first regime).  One
    right-limit and one left-limit record read them.
    """
    problem, F, m = setup.problem, augmented_integrand(setup), setup.problem.m
    xs = smooth_breaks(problem, traj)
    xs = xs[(xs > problem.t1) & (xs < problem.t2)]
    sides = [PathRecord(F, problem, traj, xs, range(1, m + 1), left=left) for left in (False, True)]
    jumps = np.subtract(*(np.stack([*r.psi.values(), *r.q[:m]], axis=1) for r in sides))
    return xs, jumps[:, :m], jumps[:, m:]


# ---------------------------------------------------------------------------
# grids + classification


def residual_grids(problem: IsoperimetricProblem | ControlProblem, traj: Trajectory,
                   count: int = 200) -> np.ndarray:
    """count uniform times on [t1, t2], ascending, without those within 1 % of
    the trajectory's shortest segment of a smooth break, t2 - tau among them;
    the first regime's times are those below t2 - tau (EmptyGrid if a regime
    keeps none)."""
    if count <= 0:
        raise EmptyGrid(f"requested grid of {count} points")
    times = np.linspace(problem.t1, problem.t2, count)
    width = 1e-2 * np.min(np.diff(traj.breakpoints()))
    for x in smooth_breaks(problem, traj):  # one break at a time: cheaper than a broadcast
        times = times[np.abs(times - x) >= width]
    split = problem.t2 - problem.tau
    for regime, kept in (("first", times < split), ("second", times > split)):
        if not kept.any():
            raise EmptyGrid(f"no time of the {count}-point grid in the {regime} regime")
    return times


def classify(problem: IsoperimetricProblem, traj: Trajectory) -> Classification:
    """Abnormal iff the constraint integrands themselves satisfy the delayed
    Euler-Lagrange equations along the trajectory: their residual sup is at
    most 1e-6 (1 + sup)."""
    if problem.k == 0:
        raise NoConstraints("classification needs at least one constraint")
    ts = residual_grids(problem, traj, count=100)
    sup = 0.0
    for gj in problem.g:
        res = PathRecord(gj, problem, traj, ts, momenta=(0,)).psi[0]
        sup = max(sup, float(np.max(np.linalg.norm(res, axis=1))))
    return Classification.ABNORMAL if sup <= 1e-6 * (1.0 + sup) else Classification.NORMAL


# ---------------------------------------------------------------------------
# reporting


@dataclass
class ResidualReport:
    """Per-grid-point residuals with regime sup-norms and hypothesis flags."""

    el_first: np.ndarray
    el_second: np.ndarray
    dr_first: np.ndarray
    dr_second: np.ndarray
    dr_quantity_first: np.ndarray  # F - sum_j psi_j . q^(j) on the grids
    dr_quantity_second: np.ndarray
    functional: float  # J, from the quadrature of the constraint defects
    cdur: np.ndarray
    constraint_defect: np.ndarray
    hypothesis_violated: bool
    abnormal: bool | None  # None without constraints

    @property
    def sup(self) -> dict[str, float]:
        return {
            "el_first": float(np.max(np.linalg.norm(self.el_first, axis=1))),
            "el_second": float(np.max(np.linalg.norm(self.el_second, axis=1))),
            "dr_first": float(np.max(np.abs(self.dr_first))),
            "dr_second": float(np.max(np.abs(self.dr_second))),
            "cdur": float(np.max(np.abs(self.cdur))),
            "constraint_defect": float(np.max(np.abs(self.constraint_defect), initial=0.0)),
        }


# A block with fewer numbers than this is written by one `%` operation on a
# row template; from it on, by the byte table.  The table's fixed cost is some
# 100 numpy calls (about 0.15 ms), which `%` spends on about 350 numbers.  On
# blocks of five numeric columns (Python 3.11, numpy 2.4, a 2-core Xeon, best
# of 15) the template took 0.17 / 0.23 / 0.27 ms at 400 / 500 / 600 numbers
# and the table 0.19 / 0.21 / 0.22 ms; with two columns the two met near 450.
_TABLE_FROM = 512
# A larger block is cut into tables of at most this many numbers, so that
# the formatter's temporaries (some 20 arrays of 8 bytes per number) stay
# small.  On the residuals table (88 200 numbers in two blocks; same machine,
# best of 30) csv_text took 12.3 ms at 8 192, 13.3-14.3 ms at 4 096 and
# 16 384, and 15.4 ms with one table per block, and a `residuals --grid
# 20000` process peaked at 38.7 MiB against 44.8 MiB (42.0 MiB with the
# template throughout).
_TABLE_NUMBERS = 8192

_POW10 = 10.0 ** np.arange(21)  # 1e0 .. 1e20, each exactly a double
# Every operand of the uint64 work is a uint64: in numpy 1.x a uint64 scalar
# with a Python int gives float64.
_U = np.uint64
_BYTES = _U(0x0101010101010101)  # 1 in every byte of a word


def csv_text(header: list[str], *blocks) -> str:
    """CSV text: the header row, then the rows of each block in turn.

    A block is a list of columns, and its row j holds entry j of every
    column.  A column is a list of str (written as given) or an array of
    numbers (written at 17 significant digits: the bytes of ``%.17g``).  A
    block with fewer columns than the header leaves the last cells of its
    rows empty.  No cell needs CSV quoting: cells are numbers, empty, or
    plain names.
    """
    text = [",".join(header) + "\n"]
    for columns in blocks:
        tail = "," * (len(header) - len(columns)) + "\n"
        rows, width = len(columns[0]), sum(not isinstance(col, list) for col in columns)
        if rows * width < _TABLE_FROM:
            text.append(_rows_by_template(columns, tail))
            continue
        step = max(1, _TABLE_NUMBERS // width)
        text += (_rows_by_table([col[i:i + step] for col in columns], tail)
                 for i in range(0, rows, step))
    return "".join(text)


def _rows_by_template(columns, tail: str) -> str:
    """The block's rows from one ``%`` operation: a row template per row,
    applied to the cells in row-major order."""
    width, rows = len(columns), len(columns[0])
    flat = [None] * (width * rows)
    for j, col in enumerate(columns):
        flat[j::width] = col if isinstance(col, list) else np.asarray(col, dtype=float).tolist()
    row = ",".join("%s" if isinstance(col, list) else "%.17g" for col in columns)
    return (row + tail) * rows % tuple(flat)


def _rows_by_table(columns, tail: str) -> str:
    """The block's rows from one uint8 table, a row per CSV row, whose zero
    bytes are padding: a number takes 32 bytes (its text, then the separator
    that follows it), a str column its longest UTF-8 encoding."""
    rows = len(columns[0])
    numeric = np.stack([col for col in columns if not isinstance(col, list)], axis=1)
    cells = _number_cells(numeric).reshape(rows, numeric.shape[1], 32)
    pieces, seps = [], [","] * (len(columns) - 1) + [tail]
    numbers = iter(range(numeric.shape[1]))
    for col, sep in zip(columns, seps):
        if isinstance(col, list):
            pieces.append(np.array([s.encode() for s in col]).view(np.uint8).reshape(rows, -1))
        else:  # the separator's first 8 bytes go in the number's free bytes
            cell = cells[:, next(numbers)]
            cell[:, 24:24 + len(sep[:8])] = np.frombuffer(sep[:8].encode(), np.uint8)
            pieces.append(cell)
            sep = sep[8:]
        if sep:
            pieces.append(np.broadcast_to(np.frombuffer(sep.encode(), np.uint8), (rows, len(sep))))
    table = cells if len(pieces) == numeric.shape[1] else np.concatenate(pieces, axis=1)
    flat = table.reshape(-1)
    return flat[flat != 0].tobytes().decode()


def _printf_cells(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each value, as uint8 rows (len(values), 24) padded
    with zero bytes: the longest such text, ``-2.2250738585072014e-308``,
    has 24 characters."""
    texts = ["%.17g" % v for v in values.tolist()]
    return np.array(texts, dtype="S24").view(np.uint8).reshape(len(texts), 24)


def _digit_bytes(w: np.ndarray) -> None:
    """Turn uint64 values below 1e8, in place, into their 8 decimal digits
    (0..9), one per byte, the first digit in the low byte.  Each step splits
    every lane of a word in two; below 1e4 the quotient by 100 is
    (x * 10486) >> 20, and below 100 the quotient by 10 is (x * 103) >> 10,
    and no product leaves its lane."""
    q = w // _U(10000)
    w -= q * _U(10000)
    w <<= _U(32)
    w |= q
    for div, mul, shift, mask, lane in ((100, 10486, 20, 0x0000007F0000007F, 16),
                                        (10, 103, 10, 0x000F000F000F000F, 8)):
        q = (w * _U(mul)) >> _U(shift)
        q &= _U(mask)
        w -= q * _U(div)
        w <<= _U(lane)
        w |= q


def _number_cells(x) -> np.ndarray:
    """``'%.17g' % v`` for each v of x, as uint8 rows (x.size, 32) padded with
    zero bytes: the text in bytes 0..23, bytes 24..31 zero.

    Where %g writes no exponent, 1e-4 <= |v| < 1e17, the digits come from
    exact integer work.  There k = floor(log10 |v|) lies in [-4, 16], the
    scale 10^(16 - k) is an exact double, so Dekker's product gives
    |v| 10^(16 - k) = p + e exactly, and D = p + floor(e), plus one when the
    rest of e is above 1/2 or is 1/2 and D is odd, is the 17 correctly
    rounded digits that dtoa prints.  A value whose D has not 17 digits (log10
    off by one next to a power of ten, or a carry to 1e17) is written by
    ``%``, as are NaN, the infinities and exponent notation.  Zeros are
    ``0`` and ``-0``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    a[~fixed] = 1.0
    k = np.log10(a)
    np.floor(k, out=k)
    np.clip(k, -4, 16, out=k)
    k = k.astype(np.intp)
    b = _POW10[16 - k]
    p = a * b
    c = a * 134217729.0  # Dekker's split, by 2^27 + 1
    ah = c - (c - a)
    a -= ah
    c = b * 134217729.0
    bh = c - (c - b)
    b -= bh
    e = ah * bh
    e -= p
    e += ah * b
    e += a * bh
    e += a * b
    c = np.floor(e)
    e -= c
    digits = p.astype(np.int64)
    digits += c.astype(np.int64)
    digits += (e > 0.5) | ((e == 0.5) & (digits & 1 == 1))
    fixed &= (digits >= 10 ** 16) & (digits < 10 ** 17)
    digits[~fixed] = 0  # zeros, and the rows `%` writes, take the layout of 0
    k[~fixed] = 0
    # The text as three little-endian words: word 0 holds the sign in byte 2,
    # the zeros of "0.000" in bytes 3..6 and the first digit in byte 7; words
    # 1 and 2 hold digits 1..8 and 9..16.
    digits = digits.view(_U)
    word0 = digits // _U(10 ** 16)
    digits -= word0 * _U(10 ** 16)
    w = np.empty((2, x.size), _U)
    w[0] = digits // _U(10 ** 8)
    w[1] = digits - w[0] * _U(10 ** 8)
    _digit_bytes(w)
    # per exponent: the bytes below the point's place (the point goes at byte
    # 8 + k) in each word, and the ASCII zeros word 0 writes from the integer
    # part's first byte, 7 + min(k, 0), on.  A mask of the low c bytes is two
    # shifts by 4c bits, as one shift by 64 bits is undefined.
    kt = np.arange(-4, 17)
    half = np.stack([np.minimum(kt + 8, 8), np.clip(kt, 0, 8), np.clip(kt - 8, 0, 8),
                     np.minimum(kt, 0) + 7]).astype(_U) << _U(2)
    masks = ((_U(1) << half) << half) - _U(1)
    masks[3] = (_BYTES & ~masks[3]) * _U(0x30)
    low0, low1, low2, ascii0 = (row[k + 4] for row in masks)
    # 1 in every byte at or below the last nonzero digit of words 1, 2
    z = w + _U(0x7F7F7F7F7F7F7F7F)
    z &= _U(0x8080808080808080)
    z >>= _U(7)
    for shift in (8, 16, 32):
        z |= z >> _U(shift)
    z[0] |= (w[1] != 0) * _BYTES
    point = (k < 0) | ((z[0] & ~low1) | (z[1] & ~low2) != 0)
    z[0] |= low1  # the integer part's digits, zero or not
    z[1] |= low2
    z &= _BYTES
    z *= _U(0x30)
    w += z
    word0 <<= _U(56)
    word0 += ascii0
    word0[np.signbit(x)] |= _U(ord("-") << 16)
    # every byte below the point's place moves down one, and the point takes
    # the byte that frees
    out = np.zeros((x.size, 4), "<u8")
    out[:, 0] = (word0 & ~low0) | ((word0 & low0) >> _U(8)) | ((w[0] & low1) << _U(56))
    out[:, 1] = (w[0] & ~low1) | ((w[0] & low1) >> _U(8)) | ((w[1] & low2) << _U(56))
    out[:, 2] = (w[1] & ~low2) | ((w[1] & low2) >> _U(8))
    out = out.view(np.uint8)
    rows = np.flatnonzero(point)
    out.reshape(-1)[rows * 32 + k[rows] + 7] = ord(".")
    rows = np.flatnonzero(~fixed & (x != 0))
    out[rows, :24] = _printf_cells(x[rows])
    return out
