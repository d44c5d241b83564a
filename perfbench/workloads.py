"""The benchmark's workloads: user-level delayvar calls with closed-form oracles.

Every case is one operation a user issues (a solve, a verification sweep or
a CLI command).  ``build`` makes a workload's inputs from a seed; the seed
changes data values only, never sizes, so every seed does the same amount of
work.  Each case's ``evaluate`` turns the call's result into a verdict: pass
or fail against the tolerance the repository's own tests pin, the worst
absolute deviation from the closed form, and a digest of the output bytes
(used to prove that tracing does not change results).

Calls go through module attributes (``solver.solve_el``, ``cli.main``) at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from delayvar import cli, solver
from delayvar.problem import ControlProblem, Integrand, IsoperimetricProblem, integrand_from_expr
from delayvar.trajectory import PolySegment, Trajectory, example1_trajectory

WORKLOADS = ("solve", "sweep", "noether")

# closed-form constraint value of the example1 quartic (registry.EXAMPLE1_I)
EXAMPLE1_I = 1248.0 / 5.0


@dataclass(frozen=True)
class Verdict:
    ok: bool
    max_err: float
    digest: str
    detail: str = ""


@dataclass(frozen=True)
class Case:
    name: str
    call: Callable[[], object]
    evaluate: Callable[[object], Verdict]

    def judge(self, result, raised: str | None = None) -> Verdict:
        """Verdict on one call: a raised error or malformed output fails."""
        if raised is not None:
            return Verdict(False, float("inf"), raised, raised)
        try:
            return self.evaluate(result)
        except Exception as err:  # output the oracle cannot read
            return Verdict(False, float("inf"), "", f"{type(err).__name__}: {err}")


@dataclass(frozen=True)
class Params:
    """Seeded data values; 1.0 reproduces the data of the repository's tests."""

    classical_scale: float  # classical target l = scale / 6
    lq_terminal: float      # LQ terminal state q(1)
    example1_scale: float   # example1 quartic (and its data) times this
    eta: float              # time-translation generator constant
    xi: float               # state-shift generator constant

    @classmethod
    def from_seed(cls, seed: int) -> "Params":
        # A narrow band: wider scales change Newton iteration counts, and so
        # the work, on top of the values.  Four decimals keep CLI flags short.
        rng = random.Random(seed)
        return cls(*(round(0.9 + 0.2 * rng.random(), 4) for _ in range(5)))

    @classmethod
    def canonical(cls) -> "Params":
        return cls(1.0, 1.0, 1.0, 1.0, 1.0)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _traj_bytes(traj: Trajectory) -> bytes:
    return b"".join(np.ascontiguousarray(s.coeffs).tobytes() for s in traj.segments)


def _verdict(errors: dict[str, tuple[float, float | None]], digest: str,
             flags: dict[str, bool]) -> Verdict:
    """errors maps a check name to (deviation, pinned tolerance or None); a
    deviation without a pinned tolerance is recorded but cannot fail.  flags
    are pass/fail checks without a deviation."""
    bad = [name for name, (err, tol) in errors.items()
           if not np.isfinite(err) or (tol is not None and err > tol)]
    bad += [name for name, ok in flags.items() if not ok]
    worst = max(err for err, _ in errors.values())
    return Verdict(not bad, float(worst), digest, "failed: " + ", ".join(bad) if bad else "")


def _exit_verdict(code: int, stdout: str) -> Verdict:
    return Verdict(False, float("inf"), _digest(code, stdout), f"exit code {code}")


def _sup(values) -> float:
    return float(np.max(np.abs(values)))


# ---------------------------------------------------------------------------
# solve: collocation Newton on three problem sizes


def _classical_problem(l: float) -> IsoperimetricProblem:
    return IsoperimetricProblem(
        m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
        L=integrand_from_expr("qd^2", 1, 1),
        g=(integrand_from_expr("q", 1, 1),),
        l=[l],
        history=lambda t: np.array([6.0 * l * t * (1.0 - t)]),
        boundary=[[0.0]],
    )


def _cubic_problem(c: float) -> IsoperimetricProblem:
    return IsoperimetricProblem(
        m=2, n=1, tau=0.4, t1=0.0, t2=1.0,
        L=integrand_from_expr("qdd^2", 2, 1),
        history=lambda t: np.array([c * t ** 3]),
        boundary=[[c], [3.0 * c]],
    )


def _lq_problem(a: float) -> ControlProblem:
    return ControlProblem(
        n=1, mc=1, tau=0.5, t1=0.0, t2=1.0,
        L=Integrand(lambda v: v[2] * v[2], name="u^2"),
        phi=(Integrand(lambda v: v[3] + v[2], name="q_tau + u"),),
        history=lambda t: np.zeros(1), terminal_state=[a])


def _el_digest(result) -> str:
    traj, lam, report = result
    return _digest(_traj_bytes(traj), np.asarray(lam).tobytes(), report.to_dict())


def _solve_cases(p: Params) -> list[Case]:
    l = p.classical_scale / 6.0
    classical = _classical_problem(l)
    # The cubic keeps c = 1: at tolerance 1e-7 its Newton iteration count
    # jumps between 5 and 7 for c in [0.9, 1.1] (the residual floor sits near
    # the tolerance), so a seeded c would change the work, not just values.
    c = 1.0
    cubic = _cubic_problem(c)
    a = p.lq_terminal
    lq = _lq_problem(a)

    def check_classical(result) -> Verdict:
        traj, lam, report = result
        ts = np.linspace(0.0, 1.0, 201)
        return _verdict({
            "lambda": (abs(float(lam[0]) - 24.0 * l), 1e-5),
            "q": (_sup(traj.eval(ts, 0)[:, 0] - 6.0 * l * ts * (1.0 - ts)), 1e-5),
        }, _el_digest(result), {"converged": report.converged})

    def check_cubic(result) -> Verdict:
        traj, lam, report = result
        ts = np.linspace(0.0, 1.0, 101)
        return _verdict({
            "q": (_sup(traj.eval(ts, 0)[:, 0] - c * ts ** 3), 1e-8),
            "qd(0)": (abs(float(traj.eval(0.0, 1)[0])), 1e-9),
        }, _el_digest(result), {"converged": report.converged})

    def check_lq(result) -> Verdict:
        triple, lam, report = result
        cost = -48.0 * a / 31.0
        ts1 = np.linspace(0.0, 0.48, 25)
        ts2 = np.linspace(0.52, 1.0, 25)
        p1 = triple.p.eval(ts1, 0)[:, 0]
        digest = _digest(_traj_bytes(triple.q), _traj_bytes(triple.u), _traj_bytes(triple.p),
                         np.asarray(lam).tobytes(), report.to_dict())
        return _verdict({
            "p second regime": (_sup(triple.p.eval(ts2, 0)[:, 0] - cost), 1e-8),
            "p first regime": (_sup(p1 - cost * (1.5 - ts1)), 1e-8),
            "u + p/2": (_sup(triple.u.eval(ts1, 0)[:, 0] + p1 / 2), 1e-10),
            "q first regime": (_sup(triple.q.eval(ts1, 0)[:, 0]
                                    + (cost / 2) * (1.5 * ts1 - ts1 ** 2 / 2)), 1e-8),
            "q(1)": (abs(float(triple.q.eval(1.0, 0)[0]) - a), 1e-10),
        }, digest, {"converged": report.converged})

    return [
        Case("el-classical-64",
             lambda: solver.solve_el(classical, scheme=solver.CollocationScheme(nodes=64)),
             check_classical),
        Case("el-cubic-m2",
             lambda: solver.solve_el(cubic, scheme=solver.CollocationScheme(nodes=18,
                                                                            tolerance=1e-7)),
             check_cubic),
        Case("pmp-lq-terminal",
             lambda: solver.solve_pmp(lq, scheme=solver.CollocationScheme(nodes=48)),
             check_lq),
    ]


# ---------------------------------------------------------------------------
# sweep: residual audits over few calls with many points


def _example1(s: float) -> tuple[IsoperimetricProblem, Trajectory]:
    """example1 scaled by s: L and g are quadratic and the EL operator is
    linear, so s * quartic is an exact extremal (lambda = 0) of the problem
    with history, terminal data times s and constraint level times s^2."""
    problem = IsoperimetricProblem(
        m=2, n=1, tau=1.0, t1=0.0, t2=2.0,
        L=integrand_from_expr("(qdd + qdd_tau)^2", 2, 1),
        g=(integrand_from_expr("(qd + qd_tau)^2", 2, 1),),
        l=[s * s * EXAMPLE1_I],
        history=lambda t: np.array([-s * t ** 4]),
        boundary=[[-14.0 * s], [-32.0 * s]],
    )
    base = example1_trajectory()
    traj = Trajectory(base.n, base.m, [PolySegment(g.a, g.b, s * g.coeffs) for g in base.segments],
                      nonsmooth_knots=base.nonsmooth_knots)
    return problem, traj


def _dr_closed_form(ts: np.ndarray) -> np.ndarray:
    """DuBois-Reymond quantity (time-translation Noether quantity) of the
    example1 quartic: 1152 t^2 - 576 t + 144 on (0, 1), -384 t^3 + 864 t^2
    - 576 t + 144 on (1, 2)."""
    first = 1152 * ts ** 2 - 576 * ts + 144
    second = -384 * ts ** 3 + 864 * ts ** 2 - 576 * ts + 144
    return np.where(ts < 1.0, first, second)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _read_csv(path: Path) -> tuple[bytes, list[list[str]]]:
    data = path.read_bytes()
    return data, list(csv.reader(data.decode().splitlines()))


def _sweep_cases(p: Params, tmp: Path) -> list[Case]:
    s = p.example1_scale
    problem, traj = _example1(s)

    def verify_case(name: str, grid: int) -> Case:
        def check(report) -> Verdict:
            sup = report.sup
            digest = _digest(*(np.asarray(v).tobytes() for v in (
                report.el_first, report.el_second, report.dr_first, report.dr_second,
                report.cdur, report.constraint_defect)), report.hypothesis_violated,
                report.abnormal)
            return _verdict({
                "el first": (sup["el_first"], 1e-7),
                "el second": (sup["el_second"], 1e-7),
                "constraint defect": (sup["constraint_defect"], 1e-6),
            }, digest, {"hypothesis flagged": report.hypothesis_violated,
                        "cdur sup >= 500": sup["cdur"] >= 500.0,
                        "normal": report.abnormal is False})

        return Case(name, lambda: solver.verify(problem, traj, [0.0], grid_count=grid), check)

    out = tmp / "residuals.csv"
    argv = ["residuals", "--example", "example1", "--grid", "20000", "--out", str(out)]

    def check_residuals(result) -> Verdict:
        code, stdout = result
        if code != 0:
            return _exit_verdict(code, stdout)
        data, rows = _read_csv(out)
        header, body = rows[0], rows[1:]
        ts = np.array([float(r[0]) for r in body])
        el = np.array([float(r[1]) for r in body])
        drq = np.array([float(r[2]) for r in body])
        summary = json.loads(stdout)
        return _verdict({
            "el sup": (summary["sup"]["el"], 1e-7),
            "el column": (_sup(el), 1e-7),
            "dr quantity": (_sup(drq - _dr_closed_form(ts)), 1e-6),
        }, _digest(code, stdout, data), {
            "header": header == ["t", "el_0", "dr_quantity", "dr_residual", "cdur"],
            "rows": len(body) > 15000,
            "cdur sup >= 500": summary["sup"]["cdur"] >= 500.0})

    return [verify_case("verify-ex1-200", 200), verify_case("verify-ex1-20k", 20000),
            Case("residuals-ex1-20k", lambda: _run_cli(argv), check_residuals)]


# ---------------------------------------------------------------------------
# noether: the CLI's expression-generator path


_FLOAT = r"([-+0-9.eE]+|nan|inf)"


def _invariance_values(stdout: str) -> tuple[float, float, float]:
    def grab(label: str) -> float:
        match = re.search(re.escape(label) + r"\s+" + _FLOAT, stdout)
        if match is None:
            raise ValueError(f"no {label!r} line in invariance output")
        return float(match.group(1))

    return (grab("invariance defect"), grab("necessary condition (first)"),
            grab("necessary condition (second)"))


def _noether_cases(p: Params, tmp: Path) -> list[Case]:
    eta, xi = f"{p.eta:.4f}", f"{p.xi:.4f}"
    time_shift = ["invariance", "--example", "example1", "--eta", eta, "--xi", "0"]
    state_shift = ["invariance", "--example", "example1", "--eta", "0", "--xi", xi]
    out = tmp / "conserved.csv"
    conserved = ["conserved", "--example", "example1", "--eta", eta, "--xi", "0",
                 "--out", str(out), "--json"]

    def check_invariance(pinned: bool):
        # the time shift is pinned at 1e-6 (tests/test_cli.py) and its
        # necessary-condition integrals at 1e-5 (acceptance criterion 8); no
        # test pins the state shift, whose defect is recorded only
        def check(result) -> Verdict:
            code, stdout = result
            if code != 0:
                return _exit_verdict(code, stdout)
            defect, nc1, nc2 = _invariance_values(stdout)
            return _verdict({
                "invariance defect": (abs(defect), 1e-6 if pinned else None),
                "necessary condition": (max(abs(nc1), abs(nc2)), 1e-5 if pinned else None),
            }, _digest(code, stdout), {})

        return check

    def check_conserved(result) -> Verdict:
        code, stdout = result
        if code != 0:
            return _exit_verdict(code, stdout)
        data, rows = _read_csv(out)
        body = rows[1:]
        ts = np.array([float(r[0]) for r in body])
        values = np.array([float(r[2]) for r in body])
        second = ts > 1.0
        err = np.abs(values - float(eta) * _dr_closed_form(ts))
        summary = json.loads(stdout)
        return _verdict({
            "C second regime": (_sup(err[second]), 1e-5),   # tests/test_cli.py
            "C first regime": (_sup(err[~second]), None),   # no test pins it
        }, _digest(code, stdout, data), {
            "header": rows[0] == ["t", "regime", "C", "cdur_flag"],
            "hypothesis flagged": summary["hypothesis_violated"] is True,
            "not constant on the second regime": summary["deviation"]["second"] > 1.0})

    return [
        Case("invariance-time-shift", lambda: _run_cli(time_shift), check_invariance(True)),
        Case("invariance-state-shift", lambda: _run_cli(state_shift), check_invariance(False)),
        Case("conserved-ex1", lambda: _run_cli(conserved), check_conserved),
    ]


def build(workload: str, params: Params, tmp: Path) -> list[Case]:
    """The workload's cases, in the fixed order of every pass."""
    if workload == "solve":
        return _solve_cases(params)
    if workload == "sweep":
        return _sweep_cases(params, tmp)
    if workload == "noether":
        return _noether_cases(params, tmp)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
