"""Built-in example problems and their verification suites.

Each entry bundles a problem builder, the analytic trajectory / multipliers
when one is known, and the gated checks `delayvar verify` runs.  The
second-order nonsmooth example ships with l equal to the closed-form value of
its constraint functional (1248/5), so the shipped trajectory has zero
isoperimetric defect.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .euler_lagrange import momentum_jumps, residual_grids
from .noether import constancy_report, noether_quantity
from .optimal_control import hamiltonian_noether_quantity, pmp_residuals
from .problem import (
    AugmentedSetup,
    ControlProblem,
    Integrand,
    IsoperimetricProblem,
    TransformationGroup,
    integrand_from_expr,
)
from .solver import CollocationScheme, solve_el, solve_pmp, verify
from .trajectory import PolySegment, Trajectory, example1_trajectory

__all__ = ["Check", "RegistryEntry", "get", "names", "EXAMPLE1_J", "EXAMPLE1_I"]

# closed-form values of the nonsmooth example's functionals:
# J = 144 int_0^2 (2t-1)^2 dt, I = 16 int_0^2 (3t^2-3t+1)^2 dt
EXAMPLE1_J = 672.0
EXAMPLE1_I = 1248.0 / 5.0


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float
    passed: bool
    gated: bool = True

    def row(self) -> tuple[str, str, str, str]:
        status = "pass" if self.passed else ("FAIL" if self.gated else "info")
        return (self.name, f"{self.value:.17g}", f"{self.threshold:.17g}", status)


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    kind: str  # "variational" | "control"
    summary: str
    build: Callable[[], IsoperimetricProblem | ControlProblem]
    trajectory: Callable[[], Trajectory] | None = None
    lam: tuple[float, ...] = ()
    checks: Callable[[], list[Check]] | None = None


def _example1_problem() -> IsoperimetricProblem:
    return IsoperimetricProblem(
        m=2, n=1, tau=1.0, t1=0.0, t2=2.0,
        L=integrand_from_expr("(qdd + qdd_tau)^2", 2, 1),
        g=(integrand_from_expr("(qd + qd_tau)^2", 2, 1),),
        l=[EXAMPLE1_I],
        history=lambda t: np.array([-(t ** 4)]),
        boundary=[[-14.0], [-32.0]],
    )


def _example1_checks() -> list[Check]:
    problem = _example1_problem()
    traj = example1_trajectory()
    report = verify(problem, traj, [0.0])
    sup = report.sup
    out = [
        Check("el residual sup (first regime)", sup["el_first"], 1e-7, sup["el_first"] <= 1e-7),
        Check("el residual sup (second regime)", sup["el_second"], 1e-7, sup["el_second"] <= 1e-7),
    ]
    q2, qd2 = (float(v[0]) for v in traj.eval(2.0, [0, 1]))
    out.append(Check("q(t2) = -14", abs(q2 + 14.0), 1e-9, abs(q2 + 14.0) <= 1e-9))
    out.append(Check("qdot(t2) = -32", abs(qd2 + 32.0), 1e-9, abs(qd2 + 32.0) <= 1e-9))
    J, I = report.functional, float(report.constraint_defect[0] + problem.l[0])
    out.append(Check(f"J = {EXAMPLE1_J}", abs(J - EXAMPLE1_J), 1e-6, abs(J - EXAMPLE1_J) <= 1e-6))
    out.append(Check(f"I = {EXAMPLE1_I}", abs(I - EXAMPLE1_I), 1e-6, abs(I - EXAMPLE1_I) <= 1e-6))
    out.append(Check("classification = normal", float(report.abnormal is False), 1.0,
                     report.abnormal is False))
    # DR constancy is reported, NOT gated: the advanced-term hypothesis fails
    # along this trajectory, so constancy is not a claim we can substantiate.
    deviation = max(float(np.max(np.abs(v - np.mean(v))))
                    for v in (report.dr_quantity_first, report.dr_quantity_second))
    out.append(Check("dr-quantity deviation (not gated)", deviation,
                     float("inf"), True, gated=False))
    out.append(Check("hypothesis violated (reported)",
                     1.0 if report.hypothesis_violated else 0.0, 1.0,
                     report.hypothesis_violated, gated=False))
    # reported, NOT gated: the quartic satisfies EL piecewise, but psi_1 and psi_2 jump at t = 1
    jump = float(np.max(np.abs(momentum_jumps(AugmentedSetup(problem, [0.0]), traj)[1])))
    out.append(Check("momentum jump sup (not gated)", jump, 1e-9, jump <= 1e-9, gated=False))
    return out


def _classical_problem() -> IsoperimetricProblem:
    return IsoperimetricProblem(
        m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
        L=integrand_from_expr("qd^2", 1, 1),
        g=(integrand_from_expr("q", 1, 1),),
        l=[1.0 / 6.0],
        history=lambda t: np.array([t * (1.0 - t)]),
        boundary=[[0.0]],
    )


def _classical_trajectory() -> Trajectory:
    seg = PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0, -1.0]])
    return Trajectory(1, 1, [seg])


def _classical_checks() -> list[Check]:
    problem = _classical_problem()
    traj, lam, report = solve_el(problem, scheme=CollocationScheme(nodes=64))
    out = [Check("solver converged", report.residual_norm, 1e-9, report.converged)]
    out.append(Check("lambda = 4", abs(float(lam[0]) - 4.0), 1e-5,
                     abs(float(lam[0]) - 4.0) <= 1e-5))
    ts = np.linspace(problem.t1, problem.t2, 201)
    sup_err = float(np.max(np.abs(traj.eval(ts, 0)[:, 0] - ts * (1.0 - ts))))
    out.append(Check("sup|q - t(1-t)|", sup_err, 1e-5, sup_err <= 1e-5))
    report2 = verify(problem, traj, lam)
    dr_sup = max(report2.sup["dr_first"], report2.sup["dr_second"])
    out.append(Check("dr residual sup", dr_sup, 1e-6, dr_sup <= 1e-6))
    setup = AugmentedSetup(problem, lam)
    jump = float(np.max(np.abs(momentum_jumps(setup, traj)[1]), initial=0.0))
    out.append(Check("momentum jump sup", jump, 1e-9, jump <= 1e-9))
    group = TransformationGroup(eta=lambda t, q: 1.0, xi=lambda t, q: np.zeros(1))
    con = constancy_report(functools.partial(noether_quantity, setup, group, traj), problem,
                           residual_grids(problem, traj, count=60))
    out.append(Check("noether constancy deviation", con.max_deviation, 1e-6,
                     con.max_deviation <= 1e-6))
    return out


def _lq_problem() -> ControlProblem:
    def L_fn(v):
        return v[2] * v[2]

    def phi_fn(v):
        return v[3] + v[2]

    return ControlProblem(
        n=1, mc=1, tau=0.5, t1=0.0, t2=1.0,
        L=Integrand(L_fn, name="u^2"),
        phi=(Integrand(phi_fn, name="q_tau + u"),),
        history=lambda t: np.ones(1),
    )


def _lq_checks() -> list[Check]:
    cp = _lq_problem()
    triple, lam, report = solve_pmp(cp, scheme=CollocationScheme(nodes=64))
    out = [Check("solver converged", report.residual_norm, 1e-9, report.converged)]
    ts = residual_grids(cp, triple.q, 200)
    res = pmp_residuals(cp, triple, lam, ts)
    out.append(Check("pmp residual sup", res.sup, 1e-6, res.sup <= 1e-6))
    shift = TransformationGroup(eta=lambda t, q, u: 1.0, xi=lambda t, q, u: np.zeros(1))
    con = constancy_report(
        functools.partial(hamiltonian_noether_quantity, cp, shift, triple, lam), cp, ts)
    # the energy H, one expression on both regimes: deviation measured around the global mean
    dev = float(np.max(np.abs(con.values - np.mean(con.values))))
    out.append(Check("hamiltonian constancy deviation", dev, 1e-5, dev <= 1e-5))
    return out


_ENTRIES = {
    "example1": RegistryEntry(
        name="example1", kind="variational",
        summary="second-order nonsmooth delayed problem with a piecewise-quartic candidate",
        build=_example1_problem, trajectory=example1_trajectory, lam=(0.0,),
        checks=_example1_checks),
    "classical-iso": RegistryEntry(
        name="classical-iso", kind="variational",
        summary="embedded classical isoperimetric problem (inert delay), solution t(1-t), lambda 4",
        build=_classical_problem, trajectory=_classical_trajectory, lam=(4.0,),
        checks=_classical_checks),
    "autonomous-lq": RegistryEntry(
        name="autonomous-lq", kind="control",
        summary="delayed linear-quadratic control problem (autonomous; energy conservation)",
        build=_lq_problem, checks=_lq_checks),
}


def get(name: str) -> RegistryEntry:
    return _ENTRIES[name]


def names() -> list[str]:
    return sorted(_ENTRIES)
