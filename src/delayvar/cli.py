"""Command-line interface.

Subcommands: residuals, conserved, invariance, solve, verify, list.
Exit codes: 0 success, 1 gated verification failure, 2 invalid input (bad
files and flags, caught where they are read) or a DelayVarError, 3 solver
non-convergence; any other exception keeps its traceback.  CSV cells and text
reports print numbers as ``%.17g``, JSON (``--json`` summaries, ``solve`` files)
as Python's shortest round-trip repr, so runs are reproducible and diffable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import expr, registry
from .errors import DelayVarError
from .euler_lagrange import PathRecord, csv_text, residual_grids
from .noether import constancy_report, invariance_check, noether_sweep
from .problem import AugmentedSetup, TransformationGroup, augmented_integrand, \
    check_components, integrand_from_expr, problem_from_json
from .solver import CollocationScheme, solve_el, solve_pmp
from .trajectory import Trajectory

FMT = "{:.17g}"


def _fmt(x) -> str:
    return FMT.format(float(x))


@contextlib.contextmanager
def _user_input():
    """Bad files and flags: their OSError, KeyError or ValueError as a DelayVarError."""
    try:
        yield
    except (OSError, KeyError, ValueError) as err:
        raise DelayVarError(str(err)) from err


def _read(path: str, parse):
    """parse(the text of the file at ``path``), as user input."""
    with _user_input(), open(path, encoding="utf-8") as handle:
        return parse(handle.read())


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with _user_input(), open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _example(name: str):
    """The registry entry called ``name``."""
    if name not in registry.names():
        raise DelayVarError(f"unknown example {name!r}; known: {', '.join(registry.names())}")
    return registry.get(name)


def _source(args):
    """(problem, registry entry) from --example, or (problem read from --problem, None)."""
    if args.example is not None:
        entry = _example(args.example)
        return entry.build(), entry
    if args.problem is None:
        raise DelayVarError("need --example NAME or --problem FILE")
    return _read(args.problem, problem_from_json), None


def _trajectory(text: str) -> Trajectory:
    """A --trajectory file: a trajectory's JSON, or a variational ``solve --out``
    file, whose "trajectory" key holds one."""
    record = json.loads(text)
    record = record.get("trajectory", record) if isinstance(record, dict) else record
    if not (isinstance(record, dict) and "segments" in record):
        raise ValueError("expected a trajectory JSON object (n, m, segments) or the output "
                         "of `delayvar solve --out` on a variational problem")
    return Trajectory.from_json(json.dumps(record))


def _load_variational(args):
    """Resolve (setup, trajectory) from the --example / --problem, --trajectory
    and --lambda flags."""
    problem, entry = _source(args)
    if entry is None:
        traj, lam = None, np.zeros(problem.k)
    elif entry.kind != "variational":
        raise DelayVarError(f"example {args.example!r} is a control problem")
    else:
        traj = entry.trajectory() if entry.trajectory else None
        lam = np.asarray(entry.lam, dtype=float)
    if args.trajectory:
        traj = _read(args.trajectory, _trajectory)
    if traj is None:
        raise DelayVarError("no trajectory: pass --trajectory FILE or use an example "
                            "that ships one")
    with _user_input():
        check_components(problem, traj)
        if args.lam is not None:
            lam = np.asarray([float(v) for v in args.lam.split(",") if v.strip() != ""],
                             dtype=float)
        setup = AugmentedSetup(problem, lam)
    return setup, traj


def _tolerance(args) -> float:
    """The --tol flag of a report: finite and >= 0."""
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise DelayVarError(f"--tol must be finite and >= 0, got {args.tol!r}")
    return args.tol


def _group_from_exprs(args, problem):
    """eta/xi expressions over (t, q...) and an optional gauge expression."""
    slots = {"t": 0, "q": 1, **{f"q{i}": 1 + i for i in range(problem.n)}}
    eta_fn = expr.compiled(expr.parse(args.eta), slots)
    xi_fns = [expr.compiled(expr.parse(s), slots) for s in args.xi.split(",")]
    if len(xi_fns) == 1 and problem.n > 1:
        xi_fns = xi_fns * problem.n
    if len(xi_fns) != problem.n:
        raise DelayVarError(f"xi needs {problem.n} components, got {len(xi_fns)}")

    def eta(t, q):
        return eta_fn([t, *q])

    def xi(t, q):  # one entry per component; constants broadcast against the others
        return [fn([t, *q]) for fn in xi_fns]

    gauge = integrand_from_expr(args.gauge, problem.m, problem.n) if args.gauge else None
    return TransformationGroup(eta=eta, xi=xi, gauge=gauge)


# ---------------------------------------------------------------------------
# subcommands


def cmd_residuals(args) -> int:
    setup, traj = _load_variational(args)
    problem, F = setup.problem, augmented_integrand(setup)
    record = PathRecord(F, problem, traj, residual_grids(problem, traj, count=args.grid))
    columns = [record.ts, *record.psi[0].T, record.dr_quantity, record.dr_residual]
    split = np.count_nonzero(record.first)  # the first regime's times come first
    # cdur(t) is defined on [t1 - tau, t2 - tau]: the second regime's rows leave it empty
    blocks = [[col[:split] for col in columns] + [record.cdur_advanced],
              [col[split:] for col in columns]]
    # the hypothesis on its whole domain: cdur(t - tau) at every time
    sup = {"el": float(np.max(np.linalg.norm(record.psi[0], axis=1))),
           "dr_residual": float(np.max(np.abs(record.dr_residual))),
           "cdur": float(np.max(np.abs(record.cdur_delayed)))}
    del record, columns  # released before the text is built
    text = csv_text(["t"] + [f"el_{i}" for i in range(problem.n)]
                    + ["dr_quantity", "dr_residual", "cdur"], *blocks)
    _write_out(text, args.out)
    if args.out not in (None, "-") or args.json:
        print(json.dumps({"sup": sup, "grid": args.grid}, indent=2))
    return 0


def cmd_conserved(args) -> int:
    tol = _tolerance(args)
    setup, traj = _load_variational(args)
    problem = setup.problem
    group = _group_from_exprs(args, problem)
    ts = residual_grids(problem, traj, count=args.grid)
    values, record = noether_sweep(setup, group, traj, ts)
    report = constancy_report(lambda _: values, problem, ts)
    # the hypothesis on its whole domain: cdur(t - tau) at every time
    violated = float(np.max(np.abs(record.cdur_delayed))) > tol
    names = np.where(record.first, "first", "second").tolist()
    flags = ["1" if violated else "0"] * len(ts)
    _write_out(csv_text(["t", "regime", "C", "cdur_flag"], [ts, names, values, flags]), args.out)
    summary = json.dumps({"mean": report.means, "deviation": report.deviations,
                          "hypothesis_violated": violated}, indent=2)
    if args.out not in (None, "-") or args.json:
        print(summary)
    return 0


def cmd_invariance(args) -> int:
    tol = _tolerance(args)
    setup, traj = _load_variational(args)
    group = _group_from_exprs(args, setup.problem)
    defect, nc1, nc2 = invariance_check(setup, group, traj)
    payload = {
        "invariance_defect": defect,
        "necessary_condition_defect": {"first": nc1, "second": nc2},
        "invariant_within_tol": abs(defect) <= tol,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"invariance defect            {_fmt(defect)}")
        print(f"necessary condition (first)  {_fmt(nc1)}")
        print(f"necessary condition (second) {_fmt(nc2)}")
        print(f"invariant within {_fmt(tol)}: {'yes' if payload['invariant_within_tol'] else 'no'}")
    return 0


def cmd_solve(args) -> int:
    with _user_input():
        scheme = CollocationScheme(nodes=args.nodes, tolerance=args.tol,
                                   max_iterations=args.maxiter)
    problem, entry = _source(args)
    kind = "variational" if entry is None else entry.kind
    if kind == "variational" and (problem.history is None or problem.boundary is None):
        raise DelayVarError("problem has no " + (
            "history function" if problem.history is None else "boundary"))
    if kind == "control":
        triple, lam, report = solve_pmp(problem, scheme=scheme)
        paths = {"state": triple.q, "control": triple.u, "costate": triple.p}
    else:
        traj, lam, report = solve_el(problem, scheme=scheme)
        paths = {"trajectory": traj}
    payload = {**{key: json.loads(path.to_json()) for key, path in paths.items()},
               "lambda": [float(v) for v in lam], "report": report.to_dict()}
    _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if report.converged else 3


def cmd_verify(args) -> int:
    checks = _example(args.name).checks()
    if args.json:
        print(json.dumps([{
            "check": c.name, "value": float(c.value), "threshold": float(c.threshold),
            "passed": bool(c.passed), "gated": bool(c.gated),
        } for c in checks], indent=2))
    else:
        width = max(len(c.name) for c in checks)
        print(f"{'check':<{width}}  {'value':>24}  {'threshold':>24}  status")
        for c in checks:
            name, value, threshold, status = c.row()
            print(f"{name:<{width}}  {value:>24}  {threshold:>24}  {status}")
    return 0 if all(c.passed for c in checks if c.gated) else 1


def cmd_list(args) -> int:
    for name in registry.names():
        entry = registry.get(name)
        print(f"{name:<16} [{entry.kind}]  {entry.summary}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="delayvar",
        description="Residuals, conservation laws, and collocation solvers for "
                    "isoperimetric variational problems with time delay.")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {  # each subcommand declares the ones it reads
        "grid": dict(type=int, default=200, help="grid point count"),
        "tol": dict(type=float, default=1e-6),
        "out": dict(help="output path (default: standard output)"),
        "json": dict(action="store_true", help="machine-readable summary"),
        "eta": dict(default="0", help="time generator expression in t, q"),
        "xi": dict(default="0", help="state generator expression(s), comma-separated"),
        "gauge": dict(help="gauge-term expression over the integrand arguments"),
    }

    def add_source(p, *names):
        p.add_argument("--example", help="built-in problem name (see `delayvar list`)")
        p.add_argument("--problem", help="problem JSON file")
        p.add_argument("--trajectory", help="trajectory JSON file")
        p.add_argument("--lambda", dest="lam", help="comma-separated multiplier values")
        for name in names:
            p.add_argument(f"--{name}", **options[name])

    p = sub.add_parser("residuals", help="Euler-Lagrange / DuBois-Reymond residual sweep")
    add_source(p, "grid", "out", "json")
    p.set_defaults(fn=cmd_residuals)

    p = sub.add_parser("conserved", help="Noether conserved-quantity report")
    add_source(p, "grid", "tol", "out", "json", "eta", "xi", "gauge")
    p.set_defaults(fn=cmd_conserved)

    p = sub.add_parser("invariance", help="invariance defect under a transformation group")
    add_source(p, "tol", "json", "eta", "xi", "gauge")
    p.set_defaults(fn=cmd_invariance)

    p = sub.add_parser("solve", help="solve the delayed boundary-value problem")
    p.add_argument("--example")
    p.add_argument("--problem")
    p.add_argument("--nodes", type=int, default=CollocationScheme.nodes,
                   help="collocation nodes per regime")
    p.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    p.add_argument("--maxiter", type=int, default=CollocationScheme.max_iterations)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run a built-in example's verification suite")
    p.add_argument("name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("list", help="list built-in examples")
    p.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DelayVarError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
