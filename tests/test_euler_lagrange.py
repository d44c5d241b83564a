"""Delayed Euler-Lagrange residuals: differential form, classification, and
the m = 1 reduction property."""

from __future__ import annotations

import numpy as np
import pytest

from delayvar import calculus
from delayvar.errors import EmptyGrid, NoConstraints, OutOfDomain
from delayvar.euler_lagrange import (
    Classification,
    PathRecord,
    classify,
    csv_text,
    el_residual,
    residual_grids,
    smooth_breaks,
    stencil_bounds,
)
from delayvar.problem import (
    ArgLayout,
    AugmentedSetup,
    IsoperimetricProblem,
    args_at,
    augmented_integrand,
    integrand_from_expr,
)
from delayvar.solver import verify
from delayvar.trajectory import PolySegment, Trajectory


def test_regime_split_convention(ex1_problem, ex1_setup, ex1_traj):
    F = augmented_integrand(ex1_setup)
    first = PathRecord(F, ex1_problem, ex1_traj, [0.99, 1.0, 1.5]).first
    assert first.tolist() == [True, False, False]  # t2 - tau itself is the second regime's


class TestDifferentialForm:
    def test_example1_second_regime(self, ex1_setup, ex1_traj):
        assert abs(el_residual(ex1_setup, ex1_traj, 1.5)[0]) <= 1e-10

    def test_example1_first_regime(self, ex1_setup, ex1_traj):
        assert abs(el_residual(ex1_setup, ex1_traj, 0.5)[0]) <= 1e-10

    def test_example1_full_sweep(self, ex1_problem, ex1_setup, ex1_traj):
        res = el_residual(ex1_setup, ex1_traj, residual_grids(ex1_problem, ex1_traj, count=200))
        assert np.max(np.abs(res)) <= 1e-10

    @pytest.mark.parametrize("count", [200, 20000])
    def test_example1_verify_is_exact(self, ex1_problem, ex1_traj, count):
        """The rates are Taylor coefficients, not stencils: the exact extremal
        leaves roundoff only, on coarse and fine grids alike."""
        sup = verify(ex1_problem, ex1_traj, [0.0], grid_count=count).sup
        assert sup["el_first"] <= 1e-10 and sup["el_second"] <= 1e-10

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    def test_example1_at_t1_the_regime_wall_and_t2(self, ex1_setup, ex1_traj, t):
        """Knots and ends, where no stencil fits: right limits at t1 and at the
        wall t2 - tau = 1 (the nonsmooth knot), left limits at t2, where the
        delayed argument sits on that knot too."""
        assert abs(el_residual(ex1_setup, ex1_traj, t)[0]) <= 1e-10

    def test_fifth_order_extremal(self):
        """L = (q^(5))^2 has the Euler-Lagrange residual -2 q^(10), zero on
        q = t^9: rates of order five, past any 5-point stencil."""
        problem = IsoperimetricProblem(m=5, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=integrand_from_expr("d5q0^2", 5, 1))
        coeffs = [[0.0] * 9 + [1.0]]
        traj = Trajectory(1, 5, [PolySegment.from_monomial(-0.5, 1.0, coeffs)])
        ts = np.linspace(0.0, 1.0, 41)
        scale = np.max(np.abs(2.0 * traj.eval(ts, 5)))  # the size of Lambda_5
        res = el_residual(AugmentedSetup(problem, []), traj, ts)
        assert np.max(np.abs(res)) <= 1e-9 * scale

    def test_classical_line_is_extremal(self):
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=integrand_from_expr("qd^2", 1, 1))
        traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0]])])
        setup = AugmentedSetup(problem, [])
        for t in (0.2, 0.45, 0.6, 0.9):
            assert abs(el_residual(setup, traj, t)[0]) <= 1e-10

    @pytest.mark.parametrize("t", [5.0, -3.0, [1.5, 2.01]])
    def test_times_outside_the_domain_raise(self, ex1_setup, ex1_traj, t):
        with pytest.raises(OutOfDomain):
            el_residual(ex1_setup, ex1_traj, t)

    def test_nonextremal_is_flagged(self, classical_problem):
        # q = t^3 is not an extremal of the lambda = 0 problem
        traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 0.0, 0.0, 1.0]])])
        setup = AugmentedSetup(classical_problem, [0.0])
        assert abs(el_residual(setup, traj, 0.6)[0]) > 1.0


def test_stacked_partial_and_its_rate(ex1_setup, ex1_traj):
    """d4F = 2(qdd + qdd_tau) = -48 at t = 1.5; its time derivative on (1, 2)
    is the constant -48 (the map is -24(2t - 1))."""
    from delayvar.euler_lagrange import PathRecord
    from delayvar.problem import augmented_integrand

    F = augmented_integrand(ex1_setup)
    args = args_at(ex1_traj, 1.5, 1.0, 2)
    assert calculus.partial(F, 4, args)[0] == pytest.approx(-48.0, abs=1e-9)
    record = PathRecord(F, ex1_setup.problem, ex1_traj, [1.5])
    assert record.rate(0, 2)[0, 0] == pytest.approx(-48.0, abs=1e-9)
    assert record.rate(1, 2)[0, 0] == pytest.approx(-48.0, abs=1e-7)


class TestResidualGrids:
    def test_excludes_neighbourhoods_of_smooth_breaks(self, ex1_problem, ex1_traj):
        # example1's segments have length 1, so the width is 1e-2
        times = residual_grids(ex1_problem, ex1_traj, count=200)
        first, second = times[times < 1.0], times[times >= 1.0]
        assert np.all(first < 1.0) and np.all(second > 1.0)
        assert np.all(np.diff(times) > 0)
        breaks = smooth_breaks(ex1_problem, ex1_traj)
        assert np.min(np.abs(times[:, None] - breaks)) >= 1e-2

    def test_example1_sweep_grid(self, ex1_problem, ex1_traj):
        times = residual_grids(ex1_problem, ex1_traj, count=20000)
        assert (np.count_nonzero(times < 1.0), np.count_nonzero(times >= 1.0)) == (9800, 9800)

    def test_example1_sweep_grid_is_one_ascending_array(self, ex1_problem, ex1_traj):
        # both regimes end to end: 19 600 times, 9 800 below t2 - tau = 1, and 1 itself absent
        times = residual_grids(ex1_problem, ex1_traj, count=20000)
        assert times.shape == (19600,) and np.all(np.diff(times) > 0)
        assert np.count_nonzero(times < 1.0) == 9800
        assert 1.0 not in times

    def test_width_is_relative_to_the_shortest_segment(self, classical_problem):
        # 100 segments of length 0.015 on [-0.5, 1]: an absolute 1e-2 would
        # drop every time; 1 % of 0.015 keeps most of them
        edges = np.linspace(-0.5, 1.0, 101)
        traj = Trajectory(1, 1, [PolySegment.from_monomial(a, b, [[0.0, 1.0, -1.0]])
                                 for a, b in zip(edges[:-1], edges[1:])])
        times = residual_grids(classical_problem, traj, count=200)
        gaps = np.min(np.abs(times[:, None] - smooth_breaks(classical_problem, traj)), axis=1)
        assert len(times) > 150
        assert np.all(gaps >= 1.5e-4) and np.any(gaps < 1e-2)

    @pytest.mark.parametrize("count", [0, -1])
    def test_zero_count_raises(self, ex1_problem, ex1_traj, count):
        with pytest.raises(EmptyGrid):
            residual_grids(ex1_problem, ex1_traj, count=count)

    def test_regimes_are_float_arrays(self, ex1_problem, ex1_traj):
        times = residual_grids(ex1_problem, ex1_traj, count=200)
        assert times[0] < 1.0 < times[-1]  # the first regime's times come first
        for ts in (times[times < 1.0], times[times > 1.0]):
            assert isinstance(ts, np.ndarray) and ts.dtype == float and ts.ndim == 1
            assert np.all(np.diff(ts) > 0)

    def test_empty_regime_raises(self, classical_problem):
        # the times 0, 1/3, 2/3, 1: a smooth knot at 2/3 and the breaks at 0 and 1
        # leave 1/3 in the first regime and nothing in the second
        traj = Trajectory(1, 1, [PolySegment.from_monomial(a, b, [[0.0, 1.0, -1.0]])
                                 for a, b in ((-0.5, 2.0 / 3.0), (2.0 / 3.0, 1.0))])
        with pytest.raises(EmptyGrid, match="second regime"):
            residual_grids(classical_problem, traj, count=4)

    def test_everything_excluded_raises(self, ex1_problem, ex1_traj):
        with pytest.raises(EmptyGrid):  # the times 0, 1, 2 are all breakpoints
            residual_grids(ex1_problem, ex1_traj, count=3)


class TestClassify:
    def test_example1_is_normal(self, ex1_problem, ex1_traj):
        assert classify(ex1_problem, ex1_traj) is Classification.NORMAL

    def test_g_equal_l_is_abnormal(self, ex1_problem, ex1_traj):
        problem = IsoperimetricProblem(
            m=2, n=1, tau=1.0, t1=0.0, t2=2.0, L=ex1_problem.L,
            g=(ex1_problem.L,), l=[672.0],
            history=ex1_problem.history, boundary=ex1_problem.boundary)
        assert classify(problem, ex1_traj) is Classification.ABNORMAL

    def test_zero_constraint_is_abnormal(self, ex1_problem, ex1_traj):
        problem = IsoperimetricProblem(
            m=2, n=1, tau=1.0, t1=0.0, t2=2.0, L=ex1_problem.L,
            g=(integrand_from_expr("0", 2, 1),), l=[0.0],
            history=ex1_problem.history, boundary=ex1_problem.boundary)
        assert classify(problem, ex1_traj) is Classification.ABNORMAL

    def test_no_constraints_raises(self, ex1_problem, ex1_traj):
        problem = IsoperimetricProblem(
            m=2, n=1, tau=1.0, t1=0.0, t2=2.0, L=ex1_problem.L,
            history=ex1_problem.history, boundary=ex1_problem.boundary)
        with pytest.raises(NoConstraints):
            classify(problem, ex1_traj)


def _random_m1_case(rng):
    """Random degree-5 trajectory and smooth delayed integrand, m = 1."""
    coeffs = rng.uniform(-1, 1, size=(1, 6))
    traj = Trajectory(1, 1, [PolySegment(-0.5, 1.0, coeffs)])
    a, b, c, d, e = (float(x) for x in rng.uniform(-1, 1, size=5))
    text = (f"{a!r} * qd^2 + {b!r} * q * q_tau + {c!r} * sin(q) * qd_tau"
            f" + {d!r} * t * q + {e!r} * qd * qd_tau")
    problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                   L=integrand_from_expr(text, 1, 1))
    return AugmentedSetup(problem, []), traj, problem


def test_m1_reduction_matches_direct_form():
    """The general alternating-sum residual equals the directly coded
    first-order theorem (up to its sign convention) to 1e-10."""
    rng = np.random.default_rng(2024)
    layout = ArgLayout.variational(1, 1)
    for _ in range(100):
        setup, traj, problem = _random_m1_case(rng)
        F = augmented_integrand(setup)
        breaks = smooth_breaks(problem, traj)

        def direct(t):
            first = t < problem.t2 - problem.tau
            lo, hi = (0.0, 0.5) if first else (0.5, 1.0)
            los, his = stencil_bounds([t], breaks, lo, hi)

            def momentum(us):
                out = calculus.partial(F, 3, args_at(traj, us, 0.5, 1)).T
                if first:
                    out = out + calculus.partial(F, 5, args_at(traj, us + 0.5, 0.5, 1)).T
                return out

            dm = calculus.total_derivative_many(momentum, [t], 1, los, his,
                                                calculus.default_step(1.0, 1))[0]
            force = calculus.partial(F, 2, args_at(traj, t, 0.5, 1))
            if first:
                force = force + calculus.partial(F, 4, args_at(traj, t + 0.5, 0.5, 1))
            return dm - force

        for t in (0.21, 0.41, 0.66, 0.93):
            general = el_residual(setup, traj, t)
            assert np.max(np.abs(general + direct(t))) <= 1e-10 * max(
                1.0, float(np.max(np.abs(general))))


def test_el_residual_linear_in_lambda(ex1_problem, ex1_traj):
    rng = np.random.default_rng(77)
    for t in (0.35, 1.45):
        r0 = el_residual(AugmentedSetup(ex1_problem, [0.0]), ex1_traj, t)
        r1 = el_residual(AugmentedSetup(ex1_problem, [1.0]), ex1_traj, t)
        for _ in range(5):
            lam = rng.uniform(-4, 4)
            rl = el_residual(AugmentedSetup(ex1_problem, [lam]), ex1_traj, t)
            expected = r0 + lam * (r1 - r0)
            assert np.allclose(rl, expected, atol=1e-7 * (1 + abs(lam)))


def _mixed_table(rows):
    """Three numeric columns (signed zeros, subnormals, exponents to +-300,
    NaN and infinities among random values) and two str columns, with empty
    cells."""
    rng = np.random.default_rng(2022)
    special = np.array([0.0, -0.0, 5e-324, -2.2e-310, 1e-300, -3.5e300, np.nan, np.inf, -np.inf])
    numbers = []
    for _ in range(3):
        col = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 301, rows)
        picks = rng.random(rows) < 0.2
        col[picks] = rng.choice(special, int(np.sum(picks)))
        numbers.append(col)
    names = rng.choice(["first", "second", ""], rows).tolist()
    flags = rng.choice(["0", "1", ""], rows).tolist()
    return ["t", "regime", "a", "b", "flag"], [numbers[0], names, numbers[1], numbers[2], flags]


@pytest.mark.parametrize("header, columns", [
    (["t", "name", "v"], [np.arange(8.0), ["a", "b", "", "d", "e", "f", "g", "h"],
                          np.array([0.1, -0.0, 1.0 / 3.0, 1e-300, -2.5e17, np.nan, np.inf, 7.0])]),
    _mixed_table(20_000),
], ids=["small", "mixed-20k"])
def test_csv_text_formats_like_17_digit_format(header, columns):
    # compared as line lists: a failing comparison then names the first
    # differing row at once, where a diff of the whole text takes minutes
    cells = [col if isinstance(col, list) else [f"{v:.17g}" for v in col] for col in columns]
    rows = [header, *(list(row) for row in zip(*cells))]
    text = csv_text(header, columns)
    assert text.endswith("\n") and text.split("\n")[:-1] == [",".join(row) for row in rows]
    # two blocks, the second without the last column: its rows end in an empty cell
    half = len(columns[0]) // 2
    for row in rows[1 + half:]:
        row[-1] = ""
    text = csv_text(header, [col[:half] for col in columns], [col[half:] for col in columns[:-1]])
    assert text.endswith("\n") and text.split("\n")[:-1] == [",".join(row) for row in rows]
    assert csv_text(["a", "b"], [np.zeros(0), []]) == "a,b\n"

