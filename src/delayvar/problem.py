"""Problem records, argument layouts, and functional evaluation.

The integrand argument vector is flat: slot 0 carries t, followed by the
blocks q, q', ..., q^(m) and then the delayed blocks q(t-tau), ...,
q^(m)(t-tau), each of length n.  Control-problem integrands use the layout
(t; q; u; q_tau; u_tau) and the Hamiltonian adds (p; lambda) blocks.

All records are immutable after construction and evaluation is pure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import calculus, expr, jet
from .errors import DerivativeOrderTooHigh, OutOfDomain
from .trajectory import Trajectory, segments_from_callable

__all__ = ["ArgLayout", "ArgVector", "Integrand", "IsoperimetricProblem", "AugmentedSetup",
           "ControlProblem", "TransformationGroup", "args_at", "path_args", "augmented_integrand",
           "check_components", "integrals", "functional_value", "constraint_values",
           "constraint_defect", "problem_from_json", "integrand_from_expr", "variational_names"]


@dataclass(frozen=True)
class ArgLayout:
    """Block lengths of a flat argument vector; block indices are 1-based."""

    blocks: tuple[int, ...]

    @classmethod
    def variational(cls, m: int, n: int) -> "ArgLayout":
        return cls((1,) + (n,) * (2 * (m + 1)))

    @classmethod
    def control(cls, n: int, mc: int, k: int = 0) -> "ArgLayout":
        """Hamiltonian layout (t; q; u; q_tau; u_tau; p; lambda)."""
        return cls((1, n, mc, n, mc, n, k))

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        return sum(self.blocks)

    def block_slice(self, block: int) -> slice:
        start = sum(self.blocks[: block - 1])
        return slice(start, start + self.blocks[block - 1])


def variational_names(m: int, n: int) -> dict[str, int]:
    """Expression names -> slots of :meth:`ArgLayout.variational`: t, then
    d{j}q{i} and d{j}q{i}_tau for j <= m, i < n, and for n = 1 the sugar q, qd,
    qdd (orders <= m) and q_tau, qd_tau, qdd_tau."""
    layout, slots = ArgLayout.variational(m, n), {"t": 0}
    for block in range(2, layout.nblocks + 1):
        j, suffix = (block - 2) % (m + 1), "_tau" if block > m + 2 else ""
        start = layout.block_slice(block).start
        slots.update({f"d{j}q{i}{suffix}": start + i for i in range(n)})
        if n == 1 and j <= 2:
            slots["q" + "d" * j + suffix] = start
    return slots


class ArgVector:
    """Flat argument values (scalars or per-slot arrays) plus their layout."""

    __slots__ = ("values", "layout")

    def __init__(self, values, layout: ArgLayout):
        self.values = list(values)
        self.layout = layout
        if len(self.values) != layout.size:
            raise ValueError(f"{len(self.values)} values for a layout of size {layout.size}")

    @classmethod
    def from_blocks(cls, t, blocks, layout: ArgLayout) -> "ArgVector":
        """t, then each component of each block as one slot: floats at a scalar
        time, else the blocks' arrays (or jets in t) along their last axis."""
        scalar = np.ndim(jet.value_of(t)) == 0
        return cls([float(t) if scalar else t] + [
            float(b[i]) if scalar else b[..., i]
            for b in blocks for i in range(np.shape(jet.value_of(b))[-1])], layout)

    def block(self, b: int) -> np.ndarray:
        return np.asarray(self.values[self.layout.block_slice(b)])


class Integrand:
    """Scalar integrand over a flat argument vector.

    ``fn(values) -> value`` must be deterministic and accept numpy arrays and
    the toolkit's Taylor jets (:mod:`delayvar.jet`) in the slots, as
    arithmetic, the jet-aware math functions and their numpy ufuncs do: jets
    give its block gradients and their time derivatives along a path exactly
    (:func:`delayvar.calculus.partial`); one that rejects them raises NotJetCapable.
    ``reads`` is the frozenset of slots fn reads, derived for expression
    integrands (:func:`integrand_from_expr`, :func:`augmented_integrand`), or
    None, any slot, for a callable: partials in the other slots are exact
    zeros that are not evaluated.
    """

    __slots__ = ("fn", "name", "reads")

    def __init__(self, fn: Callable, name: str = ""):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "integrand")
        self.reads: frozenset[int] | None = None

    def __call__(self, values):
        return self.fn(values)

    def __repr__(self):
        return f"Integrand({self.name})"


def integrand_from_expr(text: str, m: int, n: int) -> Integrand:
    """Compile an expression over :func:`variational_names`; it reads the slots
    of the names it contains.  A name of a derivative order above m raises
    DerivativeOrderTooHigh, any other name outside the table UnknownVariable."""
    ast, slots = expr.parse(text), variational_names(m, n)
    for name in sorted(expr.names(ast) - slots.keys()):
        base = name.removesuffix("_tau")
        canonical = re.fullmatch(r"d(\d+)q(\d+)", base)
        order = (len(base) - 1 if n == 1 and base in ("qd", "qdd") else
                 int(canonical[1]) if canonical and int(canonical[2]) < n else -1)
        if order > m:
            raise DerivativeOrderTooHigh(name, order, m)
    integrand = Integrand(expr.compiled(ast, slots), name=text)
    integrand.reads = frozenset(slots[name] for name in expr.names(ast))
    return integrand


def _targets(g: tuple[Integrand, ...], l) -> np.ndarray:
    """The constraint targets l as floats: one finite value per integrand in g."""
    l = np.atleast_1d(np.asarray(l, dtype=float))
    if len(g) != len(l):
        raise ValueError(f"{len(g)} constraint integrands but {len(l)} targets")
    if not np.all(np.isfinite(l)):
        raise ValueError(f"constraint targets must be finite, got {l.tolist()}")
    return l


@dataclass(frozen=True)
class IsoperimetricProblem:
    """Higher-order isoperimetric variational problem with one fixed delay."""

    m: int
    n: int
    tau: float
    t1: float
    t2: float
    L: Integrand
    g: tuple[Integrand, ...] = ()
    l: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # q on [t1 - tau, t1]: called once on a time array, its value read components
    # first, (n, npts), as segments_from_callable reads it
    history: Callable | None = None
    boundary: np.ndarray | None = None  # rows i = 0..m-1: q^(i)(t2)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got m = {self.m}, n = {self.n}")
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "l", _targets(self.g, self.l))
        if self.boundary is not None:
            b = np.asarray(self.boundary, dtype=float).reshape(self.m, self.n)
            object.__setattr__(self, "boundary", b)
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not self.tau < self.t2 - self.t1:
            raise ValueError("need tau < t2 - t1")

    @property
    def k(self) -> int:
        return len(self.g)

    @property
    def layout(self) -> ArgLayout:
        return ArgLayout.variational(self.m, self.n)

    @property
    def span(self) -> float:
        return self.t2 - self.t1

    def stitched_history(self, panels: int = 4):
        """History callable interpolated into polynomial segments on [t1-tau, t1]."""
        if self.history is None:
            raise ValueError("problem has no history function")
        return segments_from_callable(self.history, self.n, np.linspace(
            self.t1 - self.tau, self.t1, panels + 1), degree=self.m + 2)


@dataclass(frozen=True)
class AugmentedSetup:
    """A problem together with its multiplier vector, fixing F = L - lam . g."""

    problem: IsoperimetricProblem
    lam: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "lam", lam)
        if len(lam) != self.problem.k:
            raise ValueError(f"lambda has {len(lam)} entries for {self.problem.k} constraints")
        if not np.all(np.isfinite(lam)):
            raise ValueError(f"lambda must be finite, got {lam.tolist()}")


@dataclass(frozen=True)
class ControlProblem:
    """Delayed optimal-control problem: minimize int L dt s.t. qdot = phi."""

    n: int
    mc: int
    tau: float
    t1: float
    t2: float
    L: Integrand
    phi: tuple[Integrand, ...]
    g: tuple[Integrand, ...] = ()
    l: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # q and u on [t1 - tau, t1]: each called once on a time array, its value read
    # components first, (n, npts) and (mc, npts), as segments_from_callable reads it
    history: Callable | None = None
    control_history: Callable | None = None
    terminal_state: np.ndarray | None = None  # fixed q(t2); None => p(t2) = 0

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(self.phi))
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "l", _targets(self.g, self.l))
        if self.terminal_state is not None:
            q = np.atleast_1d(np.asarray(self.terminal_state, dtype=float))
            object.__setattr__(self, "terminal_state", q)
        if not 0 < self.tau < self.t2 - self.t1:
            raise ValueError("need 0 < tau < t2 - t1")
        if len(self.phi) != self.n:
            raise ValueError("phi must have one component per state dimension")

    @property
    def k(self) -> int:
        return len(self.g)

    @property
    def layout(self) -> ArgLayout:
        """Layout of L / g / phi arguments: (t; q; u; q_tau; u_tau)."""
        return ArgLayout((1, self.n, self.mc, self.n, self.mc))

    @property
    def span(self) -> float:
        return self.t2 - self.t1


@dataclass(frozen=True)
class TransformationGroup:
    """Infinitesimal generators of an s-parameter transformation group.

    eta and xi are each called once per sweep, with t of shape (npts,), q of
    shape (n, npts) and, for a control problem, u of shape (mc, npts) (or the
    time jet and the path's jets of those shapes, see :mod:`delayvar.noether`);
    eta broadcasts to (npts,) and xi to (n, npts), a 1-D xi of length n being
    a constant vector.  The gauge term is an integrand over the problem's
    argument layout (None means identically zero).
    """

    eta: Callable
    xi: Callable
    gauge: Integrand | None = None


# ---------------------------------------------------------------------------
# argument assembly and functional evaluation


def args_at(traj: Trajectory, t, tau: float, m: int) -> ArgVector:
    """[q]^m_tau(t): current and delayed derivative blocks along a trajectory.

    t may be an array, in which case every slot holds an array.
    """
    t = np.asarray(t, dtype=float)
    return path_args(t, traj.eval(t, range(m + 1)), traj.eval(t - tau, range(m + 1)))


def path_args(t, current, delayed) -> ArgVector:
    """[q]^m_tau(t) from the blocks q .. q^(m) at t (``current``) and at t - tau
    (``delayed``): arrays, or jets in t (:func:`delayvar.jet.path`) with t the
    time jet."""
    t = t if isinstance(t, jet.Jet) else np.asarray(t, dtype=float)
    n = np.shape(jet.value_of(current[0]))[-1]
    layout = ArgLayout.variational(len(current) - 1, n)
    return ArgVector.from_blocks(t, (*current, *delayed), layout)


def augmented_integrand(setup: AugmentedSetup) -> Integrand:
    """F = L - lam . g, reading the slots that L and the g_j with lam_j != 0 read."""
    L, gs, lam = setup.problem.L, setup.problem.g, setup.lam
    if not len(lam):
        return L
    terms = [(lj, gj) for lj, gj in zip(lam, gs) if lj != 0.0]

    def fn(values):  # a callable rejecting jets is named, not this wrapper
        out = calculus.jet_call(L, values)
        for lj, gj in terms:
            out = out - lj * calculus.jet_call(gj, values)
        return out

    F = Integrand(fn, name=f"{L.name} - lam.g")
    reads = [L.reads] + [gj.reads for _, gj in terms]
    if None not in reads:
        F.reads = frozenset().union(*reads)
    return F


def _quadrature_breaks(problem: IsoperimetricProblem, traj: Trajectory) -> list[float]:
    breaks = set(traj.breakpoints())
    breaks.update(b + problem.tau for b in traj.breakpoints())
    breaks.add(problem.t2 - problem.tau)
    return sorted(breaks)


def check_components(problem: IsoperimetricProblem, traj: Trajectory) -> None:
    """ValueError unless the trajectory has the problem's n components."""
    if traj.n != problem.n:
        raise ValueError(f"trajectory has {traj.n} components, problem has n = {problem.n}")


def _check_coverage(problem: IsoperimetricProblem, traj: Trajectory) -> None:
    check_components(problem, traj)
    lo, hi = traj.domain
    slack = 1e-9 * max(1.0, problem.span)
    if lo > problem.t1 - problem.tau + slack or hi < problem.t2 - slack:
        raise OutOfDomain(
            f"trajectory covers [{lo}, {hi}], problem needs "
            f"[{problem.t1 - problem.tau}, {problem.t2}]"
        )


def integrals(problem: IsoperimetricProblem, traj: Trajectory, integrands) -> np.ndarray:
    """int_{t1}^{t2} f[q]^m_tau(t) dt for each integrand f, by panel quadrature
    split at breaks, from one path evaluation per set of nodes."""
    _check_coverage(problem, traj)
    if not integrands:
        return np.zeros(0)

    def fn(ts):
        values = args_at(traj, ts, problem.tau, problem.m).values
        return np.column_stack([np.broadcast_to(np.asarray(f(values), dtype=float), ts.shape)
                                for f in integrands])

    return calculus.integrate(fn, problem.t1, problem.t2, _quadrature_breaks(problem, traj))


def functional_value(problem: IsoperimetricProblem, traj: Trajectory) -> float:
    """J = int_{t1}^{t2} L[q]^m_tau(t) dt."""
    return float(integrals(problem, traj, [problem.L])[0])


def constraint_values(problem: IsoperimetricProblem, traj: Trajectory) -> np.ndarray:
    """I_j = int g_j dt for every constraint integrand."""
    return integrals(problem, traj, problem.g)


def constraint_defect(problem: IsoperimetricProblem, traj: Trajectory) -> np.ndarray:
    return constraint_values(problem, traj) - problem.l


# ---------------------------------------------------------------------------
# problem files


def _history_from_exprs(texts: Sequence[str]):
    fns = [expr.compiled(expr.parse(s), {"t": 0}) for s in texts]

    def history(t):  # components first; constants broadcast against the others
        return np.array(np.broadcast_arrays(*[fn([t]) for fn in fns]), dtype=float)

    return history


def _reals(key: str, value, count: int) -> np.ndarray:
    """A JSON list of ``count`` numbers as floats, else a ValueError naming ``key``."""
    if not (isinstance(value, list) and len(value) == count
            and all(type(v) in (int, float) for v in value)):
        raise ValueError(f"{key} must be a list of {count} numbers, got {value!r}")
    return np.array(value, dtype=float)


def problem_from_json(text: str) -> IsoperimetricProblem:
    """Parse the problem-file schema.

    Fields: m, n, tau, t1, t2 (JSON numbers), L (expression), g (list of
    expressions), k (optional, the number of g), l (list of finite reals, one
    per g), history (expression in t for every component, or a list of n),
    boundary {"q": [...], "qd": [...], ...} giving q^(i)(t2) under the key
    "q" + "d" * i for every i < m: the solver has no rows that leave one free.
    Any other key, a field of another JSON type or a non-object file raises ValueError.
    """
    record = json.loads(text)
    if not isinstance(record, dict):
        raise ValueError(f"a problem file must hold a JSON object, got {record!r}")
    unknown = set(record) - {"m", "n", "tau", "t1", "t2", "L", "g", "k", "l", "history",
                             "boundary"}
    if unknown:
        raise ValueError(f"unknown problem-file keys {sorted(unknown)}")
    m, n = record["m"], record["n"]
    if not all(type(v) in (int, float) and float(v).is_integer() and v >= 1 for v in (m, n)):
        raise ValueError(f"m and n must be integers, got m = {m!r}, n = {n!r}; need m >= 1 "
                         f"and n >= 1")
    m, n = int(m), int(n)
    for key in ("tau", "t1", "t2"):
        if type(record[key]) not in (int, float):
            raise ValueError(f"{key} must be a number, got {record[key]!r}")
    L, gs = record["L"], record.get("g", [])
    if not (isinstance(gs, list) and all(isinstance(s, str) for s in [L, *gs])):
        raise ValueError(f"L must be an expression and g a list of them, got {L!r}, {gs!r}")
    L = integrand_from_expr(L, m, n)
    g = tuple(integrand_from_expr(s, m, n) for s in gs)
    if record.get("k", len(g)) != len(g):
        raise ValueError(f"k = {record['k']!r} but {len(g)} constraint expressions given")
    hist = record.get("history")
    texts = [hist] if isinstance(hist, str) else hist
    if not (hist is None or isinstance(texts, list) and all(isinstance(s, str) for s in texts)):
        raise ValueError(f"history must be an expression in t or a list of {n}, got {hist!r}")
    if isinstance(hist, list) and len(hist) != n:
        raise ValueError(f"history lists {len(hist)} expressions for n = {n}")
    hist = None if hist is None else _history_from_exprs(texts)
    boundary = record.get("boundary")
    if "boundary" in record:
        keys = ["q" + "d" * i for i in range(m)]
        if not isinstance(boundary, dict):
            raise ValueError(f"boundary must be an object, got {boundary!r}")
        if sorted(boundary) != keys:
            raise ValueError(f"boundary must list the keys {keys}, got {sorted(boundary)}")
        boundary = [_reals(f"boundary {key}", boundary[key], n) for key in keys]
    return IsoperimetricProblem(
        m=m, n=n, tau=float(record["tau"]), t1=float(record["t1"]), t2=float(record["t2"]),
        L=L, g=g, l=_reals("l", record.get("l", []), len(g)), history=hist, boundary=boundary,
    )
