"""In-memory spans around delayvar's public functions, for the traced run.

``Tracer.install`` replaces each traced function at every name a caller looks
it up by (``delayvar.solver.el_residual``, ``delayvar.cli.invariance_defect``,
``Trajectory.eval`` ...) and ``uninstall`` puts the originals back.  A span
records its name, parent span, operation, start, end, self seconds (its
duration minus the time of the traced calls inside it) and the points it
handled.  Functions called more than ~1e4 times per operation are aggregated
(calls, points, self seconds) instead of opening one span per call.

``layer_metrics`` turns one traced pass into the per-layer metrics named in
``PER_LAYER``; a layer that does not run on a workload reports zeros.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

import numpy as np

from delayvar import calculus, cli, dubois_reymond, euler_lagrange, expr, noether, \
    optimal_control, problem, solver
from delayvar.trajectory import PolySegment, Trajectory

SOLVE_CASES = ("el-classical-64", "el-cubic-m2", "pmp-lq-terminal")
SOLVERS = ("solver.solve_el", "solver.solve_pmp")
LINALG = ("linalg.solve", "linalg.cond", "linalg.pinv")


def _arg(index: int, keyword: str):
    """Points handled: the size of one positional-or-keyword argument."""

    def points(args, kwargs) -> int:
        value = args[index] if len(args) > index else kwargs.get(keyword)
        return int(np.size(value))

    return points


def _columns(args, kwargs) -> int:
    return int(np.shape(args[0])[-1])


# (span name, owner, attribute, points of one call, aggregated, counts nodes
# through the callable argument)
TRACED = (
    ("solver.solve_el", solver, "solve_el", None, False, False),
    ("solver.solve_pmp", solver, "solve_pmp", None, False, False),
    ("solver.verify", solver, "verify", None, False, False),
    ("trajectory.eval", Trajectory, "eval", _arg(1, "t"), True, False),
    ("segment.eval", PolySegment, "eval", _arg(1, "t"), True, False),
    ("trajectory.init", Trajectory, "__init__", None, True, False),
    ("euler_lagrange.el_residual", euler_lagrange, "el_residual", _arg(2, "t"), False, False),
    ("dubois_reymond.dr_residual", dubois_reymond, "dr_residual", _arg(2, "t"), False, False),
    ("dubois_reymond.cdur_residual", dubois_reymond, "cdur_residual", _arg(2, "t"), False, False),
    ("dubois_reymond.dr_quantity", dubois_reymond, "dr_quantity", _arg(2, "t"), False, False),
    ("optimal_control.pmp_residuals", optimal_control, "pmp_residuals", _arg(3, "t"),
     False, False),
    ("problem.args_at", problem, "args_at", _arg(1, "t"), True, False),
    ("problem.constraint_defect", problem, "constraint_defect", None, False, False),
    ("calculus.total_derivative_many", calculus, "total_derivative_many", None, False, True),
    ("calculus.partial", calculus, "partial", None, True, False),
    ("calculus.integrate", calculus, "integrate", None, False, True),
    ("calculus.derivative_in_parameter", calculus, "derivative_in_parameter", None,
     False, False),
    ("expr.bind_eval", expr, "bind_eval", None, True, False),
    ("expr.parse", expr, "parse", None, False, False),
    ("noether.invariance_defect", noether, "invariance_defect", None, False, False),
    ("noether.necessary_condition_defect", noether, "necessary_condition_defect", None,
     False, False),
    ("noether.noether_quantity", noether, "noether_quantity", None, False, False),
    ("noether.constancy_report", noether, "constancy_report", None, False, False),
    ("cli.main", cli, "main", None, False, False),
)

# per-layer metrics: (name, unit); calls/points/self_s triples follow TRACED
PER_LAYER: list[tuple[str, str]] = [
    ("solver.newton_iters", "count"),
    ("solver.unknowns", "count"),
    ("solver.residual_evals", "count"),
    ("solver.residual_evals_per_iter", "count"),
    ("solver.linalg_s", "s"),
    ("solver.self_s", "s"),
    *((f"solver.{case}.{what}", "count") for case in SOLVE_CASES
      for what in ("unknowns", "newton_iters", "residual_evals")),
    ("solver.verify.calls", "count"),
    ("solver.verify.self_s", "s"),
    ("trajectory.eval.calls", "count"),
    ("trajectory.eval.points", "count"),
    ("trajectory.eval.self_s", "s"),
    ("segment.eval.calls", "count"),
    ("segment.eval.points", "count"),
    ("segment.eval.self_s", "s"),
    ("trajectory.constructions", "count"),
    *((f"{name}.{what}", unit) for name in (
        "euler_lagrange.el_residual", "dubois_reymond.dr_residual",
        "dubois_reymond.cdur_residual", "dubois_reymond.dr_quantity",
        "optimal_control.pmp_residuals", "problem.args_at")
      for what, unit in (("calls", "count"), ("points", "count"), ("self_s", "s"))),
    ("problem.constraint_defect.calls", "count"),
    ("problem.constraint_defect.self_s", "s"),
    ("calculus.total_derivative_many.calls", "count"),
    ("calculus.total_derivative_many.nodes", "count"),
    ("calculus.total_derivative_many.self_s", "s"),
    ("calculus.total_derivative_many.callback_s", "s"),
    ("calculus.partial.calls", "count"),
    ("calculus.partial.self_s", "s"),
    ("calculus.integrate.calls", "count"),
    ("calculus.integrate.nodes", "count"),
    ("calculus.integrate.self_s", "s"),
    ("calculus.integrate.callback_s", "s"),
    ("calculus.derivative_in_parameter.calls", "count"),
    ("calculus.derivative_in_parameter.self_s", "s"),
    ("expr.bind_eval.calls", "count"),
    ("expr.bind_eval.self_s", "s"),
    ("expr.parse.calls", "count"),
    ("expr.parse.self_s", "s"),
    *((f"noether.{fn}.{what}", unit) for fn in (
        "invariance_defect", "necessary_condition_defect", "noether_quantity",
        "constancy_report")
      for what, unit in (("calls", "count"), ("self_s", "s"))),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.out_files", "count"),
    ("cli.out_bytes_per_file", "B"),
    # filled by run.py from the pass as a whole
    ("trace.overhead_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.spans", "count"),
    ("check.max_err", "abs"),
    ("check.fail_share", "ratio"),
]


class Tracer:
    """Spans and aggregates for the calls of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, op, name, start, end, self_s, points]
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])  # calls, points, s
        self.op = 0
        self._stack: list[list] = []  # frames: [enclosing span id, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, points=None, aggregate=False, count_nodes=False):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        if aggregate:
            stat = self.aggregates[name]

            def traced(*args, **kwargs):
                frame = [stack[-1][0] if stack else None, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    stat[0] += 1
                    stat[2] += elapsed - frame[1]
                    if points is not None:
                        stat[1] += points(args, kwargs)
        else:
            def traced(*args, **kwargs):
                if count_nodes and args:
                    # the caller's integrand or generator: count the nodes it
                    # is evaluated at, and time it as a child of this span
                    args = (self._wrap(f"{name}.callback", args[0], _arg(0, "ts"),
                                       aggregate=True),) + args[1:]
                span = [len(spans), stack[-1][0] if stack else None, self.op, name,
                        0.0, 0.0, 0.0, points(args, kwargs) if points is not None else 0]
                spans.append(span)
                frame = [span[0], 0.0]
                stack.append(frame)
                span[4] = start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[5] = end = clock()
                    stack.pop()
                    if stack:
                        stack[-1][1] += end - start
                    span[6] = end - start - frame[1]

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _replace(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function where its callers look it up."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "delayvar" or key.startswith("delayvar."))]
        for name, owner, attr, points, aggregate, count_nodes in TRACED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, points, aggregate, count_nodes)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        # the solver reaches numpy's linear algebra as np.linalg.*: give it a
        # view of numpy whose linalg has solve / cond / pinv wrapped
        linalg = types.SimpleNamespace(**{
            key: getattr(np.linalg, key) for key in dir(np.linalg) if not key.startswith("_")})
        for span_name in LINALG:
            attr = span_name.split(".")[1]
            setattr(linalg, attr, self._wrap(span_name, getattr(np.linalg, attr), _columns))
        self._replace(solver, "np", _NumpyView(np, linalg))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, case_ops: dict[int, str]) -> dict[str, float]:
        """Per-layer metrics of the pass; case_ops maps op ids to case names."""
        out = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER}
        by_id = dict(enumerate(self.spans))

        def solver_of(span):
            while span is not None and span[3] not in SOLVERS:
                span = by_id.get(span[1])
            return span

        totals: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
        for span in self.spans:
            total = totals[span[3]]
            total[0] += 1
            total[1] += span[7]
            total[2] += span[6]
        for name, stat in self.aggregates.items():
            total = totals[name]
            for i in range(3):
                total[i] += stat[i]

        per_solve: dict[int, dict[str, int]] = defaultdict(
            lambda: {"unknowns": 0, "newton_iters": 0, "residual_evals": 0})
        for span in self.spans:
            owner = solver_of(by_id.get(span[1]))
            if owner is None:
                continue
            record = per_solve[owner[0]]
            if span[3] in LINALG:
                record["unknowns"] = max(record["unknowns"], span[7])
                out["solver.linalg_s"] += span[5] - span[4]
                if span[3] == "linalg.solve":
                    record["newton_iters"] += 1
            elif span[1] == owner[0] and span[3] in ("euler_lagrange.el_residual",
                                                     "optimal_control.pmp_residuals"):
                record["residual_evals"] += 1
        for solve_id, record in per_solve.items():
            case = case_ops.get(by_id[solve_id][2])
            for what, value in record.items():
                out[f"solver.{what}"] += value
                if case in SOLVE_CASES:
                    out[f"solver.{case}.{what}"] += value
        if out["solver.newton_iters"]:
            out["solver.residual_evals_per_iter"] = (out["solver.residual_evals"]
                                                     / out["solver.newton_iters"])
        out["solver.self_s"] = sum(totals[name][2] for name in SOLVERS)

        for name, (calls, points, self_s) in totals.items():
            for key, value in ((f"{name}.calls", calls), (f"{name}.points", points),
                               (f"{name}.self_s", self_s)):
                if key in out:
                    out[key] = value
        out["trajectory.constructions"] = totals["trajectory.init"][0]
        for name in ("calculus.total_derivative_many", "calculus.integrate"):
            calls, nodes, callback_s = totals[f"{name}.callback"]
            out[f"{name}.nodes"] = nodes
            out[f"{name}.callback_s"] = callback_s
        out["trace.spans"] = len(self.spans)
        return out


class _NumpyView:
    """numpy as seen by one module, with a replaced ``linalg`` namespace."""

    def __init__(self, module, linalg):
        self._module = module
        self.linalg = linalg

    def __getattr__(self, key):
        return getattr(self._module, key)
