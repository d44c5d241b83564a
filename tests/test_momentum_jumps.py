"""The first-order condition at the breaks: momentum jumps.

A path that satisfies the delayed Euler-Lagrange equations on each smooth
piece has the first variation

    delta(J - lam . I)[xi] = -sum_x sum_{j=1..m} [psi_j](x) . xi^(j-1)(x)

along a test function xi (zero with its first m - 1 derivatives at t1 and
t2, and on the history), so it is stationary iff psi_1 .. psi_m are
continuous at every break, the wall t2 - tau included.  The two problem
files hold problems whose minimisers have corners: at the wall, and at the
breaking points t1 + k tau and t2 - k tau.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from delayvar import registry
from delayvar.euler_lagrange import PathRecord, momentum_jumps, smooth_breaks
from delayvar.noether import invariance_check
from delayvar.problem import (
    AugmentedSetup,
    TransformationGroup,
    augmented_integrand,
    functional_value,
    problem_from_json,
)
from delayvar.solver import solve_el
from delayvar.trajectory import PolySegment, Trajectory

DATA = Path(__file__).parent / "problems"


def _problem(name):
    return problem_from_json((DATA / f"{name}.json").read_text())


def _ramps(history, edges, slopes):
    """The history segment, then the continuous path with the given slope on
    each interval between the edges, starting from q(t1) = 0."""
    segs, value = [history], 0.0
    for a, b, slope in zip(edges[:-1], edges[1:], slopes):
        segs.append(PolySegment.from_monomial(a, b, [[value - slope * a, slope]]))
        value += slope * (b - a)
    return Trajectory(1, 1, segs)


def _wall_corner():
    """L = qd^2 + qd_tau^2, tau = 0.5 on [0, 1], history 0, q(1) = 1: slope
    2/3, then 4/3 past the wall, J = 4/3 (a convex problem: its minimum)."""
    history = PolySegment.from_monomial(-0.5, 0.0, [[0.0]])
    return _problem("wall_corner"), _ramps(history, [0.0, 0.5, 1.0], [2 / 3, 4 / 3])


def _breaking_point():
    """L = (qd + qd_tau)^2, tau = 0.3 on [0, 1], history t, q(1) = 0: constant
    slopes between the breaking points, psi_1 = 2/3 throughout, J = 1/15."""
    history = PolySegment.from_monomial(-0.3, 0.0, [[0.0, 1.0]])
    edges = [0.0, 0.1, 0.3, 0.4, 0.6, 0.7, 0.9, 1.0]
    slopes = [-1.0, -2 / 3, 4 / 3, 2 / 3, -4 / 3, -1 / 3, 5 / 3]
    return _problem("breaking_point"), _ramps(history, edges, slopes)


CORNER_PATHS = {"wall-corner": (_wall_corner, 4 / 3, [0.5]),
                "breaking-point": (_breaking_point, 1 / 15, [0.1, 0.3, 0.4, 0.6, 0.7, 0.9])}


@pytest.mark.parametrize("name", CORNER_PATHS)
def test_corner_paths_are_stationary(name):
    build, J, corners = CORNER_PATHS[name]
    problem, traj = build()
    assert traj.eval(problem.t2, 0)[0] == pytest.approx(problem.boundary[0, 0], abs=1e-15)
    assert functional_value(problem, traj) == pytest.approx(J, abs=1e-14)
    xs, psi, q = momentum_jumps(AugmentedSetup(problem, []), traj)
    assert psi.shape == q.shape == (len(xs), 1, 1)
    assert set(corners) <= set(xs)
    assert np.max(np.abs(psi)) <= 1e-12 and np.max(np.abs(q)) <= 1e-12


def test_example1_is_stationary_on_each_piece_only(ex1_setup, ex1_traj):
    """The shipped quartic satisfies EL on each piece, yet psi_1 jumps 0 -> 48
    and psi_2 -48 -> -24 at t = 1, where q' jumps 4 -> -4."""
    xs, psi, q = momentum_jumps(ex1_setup, ex1_traj)
    assert xs.tolist() == [1.0]
    assert psi[0, :, 0] == pytest.approx([48.0, 24.0], abs=1e-9)
    assert q[0, :, 0] == pytest.approx([0.0, -8.0], abs=1e-12)


def test_classical_solution_has_no_jump():
    entry = registry.get("classical-iso")
    problem = entry.build()
    traj, lam, report = solve_el(problem)
    assert report.converged
    xs, psi, q = momentum_jumps(AugmentedSetup(problem, lam), traj)
    assert len(xs) > 1 and np.max(np.abs(psi)) <= 1e-9 and np.max(np.abs(q)) <= 1e-12


@pytest.mark.parametrize("name, corner", [("wall_corner", 0.5), ("breaking_point", 0.3)])
def test_solver_paths_jump_where_the_delay_couples(name, corner):
    """solve_el imposes C^(2m - 1) at every mesh knot instead of continuous
    momenta, so on these problems it returns a path that satisfies EL on each
    piece but is not stationary: psi_1 jumps by -2 at one break and nowhere
    else.  The jump pins that defect of the solver."""
    problem = _problem(name)
    traj, lam, report = solve_el(problem)
    assert report.converged
    xs, psi, _ = momentum_jumps(AugmentedSetup(problem, lam), traj)
    at = np.flatnonzero(np.abs(xs - corner) <= 1e-12)
    assert psi[at, 0, 0] == pytest.approx([-2.0], abs=1e-9)
    assert np.max(np.abs(np.delete(psi, at, axis=0)), initial=0.0) <= 1e-9


def _example1_path(ex1_problem, ex1_traj):
    return ex1_problem, ex1_traj, [0.0]


def _solver_path(name):
    def build(*_):
        problem = _problem(name)
        traj, lam, _ = solve_el(problem)
        return problem, traj, lam
    return build


def _corner_path(build):
    return lambda *_: (*build(), [])


# test functions xi with xi' for m = 2: zero with xi' at t1 and t2
BUMP = (lambda t: t ** 2 * (2 - t) ** 2, lambda t: 2 * t * (2 - t) * (2 - 2 * t))
TILTED_BUMP = (lambda t: (t - 1) * BUMP[0](t), lambda t: BUMP[0](t) + (t - 1) * BUMP[1](t))
PARABOLA = (lambda t: t * (1 - t),)


@pytest.mark.parametrize("case, xi, expected", [
    (_example1_path, BUMP, -48.0),
    (_example1_path, TILTED_BUMP, -24.0),
    (_solver_path("wall_corner"), PARABOLA, 0.5),
    (_solver_path("breaking_point"), PARABOLA, 0.42),
    (_corner_path(_wall_corner), PARABOLA, 0.0),
    (_corner_path(_breaking_point), PARABOLA, 0.0),
], ids=["example1-bump", "example1-tilted-bump", "wall-corner-solver",
        "breaking-point-solver", "wall-corner-path", "breaking-point-path"])
def test_first_variation_is_the_sum_of_the_jumps(ex1_problem, ex1_traj, case, xi, expected):
    """invariance_check with eta = 0 is the first variation along xi.  It
    equals -sum_x sum_j [psi_j](x) xi^(j-1)(x): the paper's integral form of
    the Euler-Lagrange equations, read at the breaks."""
    problem, traj, lam = case(ex1_problem, ex1_traj)
    setup = AugmentedSetup(problem, lam)
    group = TransformationGroup(eta=lambda t, q: 0.0 * t, xi=lambda t, q: xi[0](t))
    variation = invariance_check(setup, group, traj)[0]
    xs, psi, _ = momentum_jumps(setup, traj)
    jumps = -sum(np.sum(psi[:, j - 1, 0] * xi[j - 1](xs)) for j in range(1, problem.m + 1))
    assert variation == pytest.approx(expected, abs=1e-10)
    assert jumps == pytest.approx(variation, abs=1e-10)


def test_breaks_are_returned_once():
    """tau = 0.3 images of the breaking-point knots miss them by roundoff
    (0.7 - 0.3 = 0.39999999999999997): each break is one time, the knot itself."""
    problem, traj = _breaking_point()
    breaks = smooth_breaks(problem, traj)
    assert np.all(np.diff(breaks) > 1e-12 * problem.span)
    assert set(traj.breakpoints()) <= set(breaks)
    assert breaks.tolist() == pytest.approx(
        [-0.6, -0.3, -0.2, 0.0, 0.1, 0.3, 0.4, 0.6, 0.7, 0.9, 1.0, 1.2, 1.3], abs=1e-15)


def test_one_sided_reads_survive_roundoff():
    """A time one ulp off a knot reads the side asked for."""
    _, traj = _breaking_point()
    for knot, below, above in ((0.1, -1.0, -2 / 3), (0.4, 4 / 3, 2 / 3)):
        for t in (np.nextafter(knot, 0.0), knot, np.nextafter(knot, 1.0)):
            assert traj.eval(t, 1, left=True)[0] == pytest.approx(below, abs=1e-12)
            assert traj.eval(t, 1)[0] == pytest.approx(above, abs=1e-12)


def test_left_record_reads_the_left_pieces():
    """At the breaking point 0.4 = 0.1 + tau, both limits of psi_1 are 2/3;
    the one-sided path values come from the pieces either side."""
    problem, traj = _breaking_point()
    F = augmented_integrand(AugmentedSetup(problem, []))
    right, left = (PathRecord(F, problem, traj, [0.4], range(1, 2), left=side)
                   for side in (False, True))
    assert (right.q[1][0, 0], left.q[1][0, 0]) == pytest.approx((2 / 3, 4 / 3), abs=1e-12)
    assert (right.q_delayed[1][0, 0], left.q_delayed[1][0, 0]) == pytest.approx(
        (-2 / 3, -1.0), abs=1e-12)
    assert right.psi[1][0, 0] == pytest.approx(2 / 3, abs=1e-12)
    assert left.psi[1][0, 0] == pytest.approx(2 / 3, abs=1e-12)
