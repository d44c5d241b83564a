"""Piecewise-polynomial trajectories: evaluation, invariants, serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from delayvar.errors import OrderTooHigh, OutOfDomain
from delayvar.problem import args_at
from delayvar.trajectory import (
    PolySegment,
    Trajectory,
    example1_trajectory,
    segments_from_callable,
)


class TestEval:
    def test_piecewise_quartic_values(self, ex1_traj):
        assert ex1_traj.eval(1.5, 0)[0] == pytest.approx(-3.0625, abs=1e-12)
        assert ex1_traj.eval(2.0, 1)[0] == pytest.approx(-32.0, abs=1e-12)
        assert ex1_traj.eval(-0.5, 0)[0] == pytest.approx(-0.0625, abs=1e-12)
        assert ex1_traj.eval(2.0, 0)[0] == pytest.approx(-14.0, abs=1e-12)

    def test_right_limit_at_knot(self, ex1_traj):
        # right segment rules at interior knots; last segment at t2
        assert ex1_traj.eval(1.0, 0)[0] == pytest.approx(1.0, abs=1e-12)
        assert ex1_traj.eval(1.0, 1)[0] == pytest.approx(-4.0, abs=1e-12)

    def test_third_derivative(self, ex1_traj):
        assert ex1_traj.eval(0.5, 3)[0] == pytest.approx(12.0, abs=1e-12)

    def test_out_of_domain(self, ex1_traj):
        with pytest.raises(OutOfDomain):
            ex1_traj.eval(2.5, 0)
        with pytest.raises(OutOfDomain):
            ex1_traj.eval(-1.5, 0)

    def test_order_too_high(self, ex1_traj):
        # past the quartic's degree a derivative is zero; only a negative order raises
        assert np.array_equal(ex1_traj.eval(0.5, 5), np.zeros(1))
        assert np.array_equal(ex1_traj.eval(np.array([0.5, 1.5]), 9), np.zeros((2, 1)))
        with pytest.raises(OrderTooHigh, match="negative"):
            ex1_traj.eval(0.5, -1)

    def test_vectorized(self, ex1_traj):
        ts = np.array([-0.5, 0.5, 1.5])
        out = ex1_traj.eval(ts, 0)
        assert out.shape == (3, 1)
        assert np.allclose(out[:, 0], [-0.0625, 0.0625, -3.0625])


def _mixed_degree_trajectory(m: int = 2) -> Trajectory:
    """History of degree m + 2 next to mesh segments of degree 2m + 2 (n = 2);
    the random mesh coefficients are not smooth, so validation is off."""
    rng = np.random.default_rng(3)
    hist = segments_from_callable(lambda t: np.array([np.sin(t), t ** 3]), 2,
                                  np.linspace(-0.5, 0.0, 3), degree=m + 2)
    edges = np.linspace(0.0, 1.0, 4)
    mesh = [PolySegment(a, b, rng.uniform(-2, 2, size=(2, 2 * m + 3)))
            for a, b in zip(edges[:-1], edges[1:])]
    return Trajectory(2, m, hist + mesh, validate=False)


class TestBatchedEval:
    def test_orders_match_single_order_and_segment_eval(self):
        traj = _mixed_degree_trajectory()
        segs = traj.segments
        knots = [s.a for s in segs]
        rng = np.random.default_rng(5)
        ts = np.concatenate([rng.uniform(-0.5, 1.0, 40), knots, [traj.domain[1]]])
        orders = range(traj.max_degree + 1)  # above the history's degree 4 too
        batched = traj.eval(ts, orders)
        assert len(batched) == len(orders)
        for order, got in zip(orders, batched):
            assert np.array_equal(got, traj.eval(ts, order))
            # the active segment: right limit at knots, the last one at the end
            active = [segs[i] for i in np.searchsorted(knots, ts, side="right") - 1]
            expected = np.stack([s.eval(t, order) for s, t in zip(active, ts)])
            scale = np.maximum(1.0, np.abs(expected))
            assert np.all(np.abs(got - expected) <= 1e-13 * scale)
        assert np.all(batched[5][ts < 0.0] == 0.0)  # order 5 > history degree

    def test_scalar_time(self):
        traj = _mixed_degree_trajectory()
        values = traj.eval(0.25, [0, 2, 6])
        assert [v.shape for v in values] == [(2,)] * 3
        for order, got in zip((0, 2, 6), values):
            assert np.array_equal(got, traj.eval(np.array([0.25]), order)[0])

    def test_stacked_equals_polyder_zero_padded(self):
        traj = _mixed_degree_trajectory()
        for order in range(traj.max_degree + 1):
            width = traj.max_degree + 1 - order
            expected = np.zeros((width, len(traj.segments), traj.n))
            for i, seg in enumerate(traj.segments):
                d = P.polyder(seg.coeffs.T, order)  # (degree + 1 - order, n)
                expected[: len(d), i] = d
            assert np.array_equal(traj._stacked(order), expected)

    def test_batched_errors(self, ex1_traj):
        with pytest.raises(OutOfDomain):
            ex1_traj.eval(np.array([0.5, 2.5]), range(3))
        value, slope, fifth = ex1_traj.eval(0.5, [0, 1, 5])  # order 5 > degree 4: zero
        assert (value[0], slope[0]) == pytest.approx((0.0625, 0.5), abs=1e-12)
        assert np.array_equal(fifth, np.zeros(1))
        with pytest.raises(OrderTooHigh, match="negative"):
            ex1_traj.eval(0.5, [-1, 0])

    @pytest.mark.parametrize("t", [0.3, np.array([-0.5, 0.0, 0.25, 1.0])])
    @pytest.mark.parametrize("left", [False, True])
    def test_past_the_degree_is_segment_eval(self, t, left):
        """Orders past max_degree are PolySegment.eval's zeros, shaped as order
        0 is, batched between orders within it, with or without a left mask."""
        traj = _mixed_degree_trajectory()  # every segment has degree <= 6
        mask = np.asarray(t) > 0.1 if left else False
        orders = [0, traj.max_degree + 3, 2, traj.max_degree + 1]
        got = traj.eval(t, orders, mask)
        for order, out in zip(orders, got):
            assert np.array_equal(out, traj.eval(t, order, mask))
        for order, out in zip(orders[1::2], got[1::2]):  # the orders past the degree
            for seg in traj.segments:
                assert np.array_equal(out, seg.eval(t, order))
        assert got[1].shape == got[0].shape == np.shape(t) + (2,)

    def test_only_orders_past_the_degree(self):
        traj = Trajectory(1, 1, [PolySegment(0.0, 1.0, [[2.0]])])  # a constant
        assert traj.eval(0.5, 0) == pytest.approx([2.0])
        low, high = traj.eval(np.array([0.0, 0.5, 1.0]), [1, 5], left=True)
        assert np.array_equal(low, np.zeros((3, 1))) and np.array_equal(high, np.zeros((3, 1)))


class TestShiftedEval:
    """Delayed and advanced values are eval at the shifted time."""

    def test_delay_shift(self, ex1_traj):
        assert ex1_traj.eval(1.5 - 1.0, 2)[0] == pytest.approx(3.0, abs=1e-12)

    def test_advance_shift(self, ex1_traj):
        assert ex1_traj.eval(0.5 + 1.0, 2)[0] == pytest.approx(-27.0, abs=1e-12)

    def test_zero_shift_is_eval(self, ex1_traj):
        ts = np.array([-0.3, 0.7, 1.9])
        swept = ex1_traj.eval(ts + 0.0, 1)
        for t, row in zip(ts, swept):
            assert row == pytest.approx(ex1_traj.eval(t, 1))

    def test_escaping_shift(self, ex1_traj):
        with pytest.raises(OutOfDomain):
            ex1_traj.eval(1.5 + 1.0, 0)


class TestInvariants:
    def test_breakpoints(self, ex1_traj):
        assert ex1_traj.breakpoints() == [-1.0, 0.0, 1.0, 2.0]

    def test_single_segment_breakpoints(self):
        traj = Trajectory(1, 1, [PolySegment(0.0, 1.0, [[1.0, 2.0]])])
        assert traj.breakpoints() == [0.0, 1.0]

    def test_identical_adjacent_segments_keep_boundary(self):
        segs = [PolySegment(0.0, 0.5, [[1.0]]), PolySegment(0.5, 1.0, [[1.0]])]
        assert Trajectory(1, 1, segs).breakpoints() == [0.0, 0.5, 1.0]

    def test_segment_needs_a_lt_b(self):
        with pytest.raises(ValueError):
            PolySegment(1.0, 1.0, [[1.0]])

    def test_gap_rejected(self):
        segs = [PolySegment(0.0, 0.5, [[0.0]]), PolySegment(0.6, 1.0, [[0.0]])]
        with pytest.raises(ValueError, match="gap"):
            Trajectory(1, 1, segs)

    def test_derivative_jump_rejected_when_smooth(self):
        # q = t then q = 2t - 0.5: continuous value, kinked slope
        segs = [PolySegment.from_monomial(0.0, 0.5, [[0.0, 1.0]]),
                PolySegment.from_monomial(0.5, 1.0, [[-0.5, 2.0]])]
        Trajectory(1, 1, segs)  # m = 1: only values must match
        with pytest.raises(ValueError, match="derivative"):
            Trajectory(1, 2, segs)

    def test_declared_nonsmooth_knot_allows_jump(self):
        segs = [PolySegment.from_monomial(0.0, 0.5, [[0.0, 1.0]]),
                PolySegment.from_monomial(0.5, 1.0, [[-0.5, 2.0]])]
        traj = Trajectory(1, 2, segs, nonsmooth_knots=(0.5,))
        assert traj.eval(0.5, 0)[0] == pytest.approx(0.5)

    def test_no_segments_rejected(self):
        with pytest.raises(ValueError, match="at least one segment"):
            Trajectory(1, 1, [])

    def test_segment_component_count_rejected(self):
        segs = [PolySegment(0.0, 0.5, [[0.0], [1.0]]), PolySegment(0.5, 1.0, [[0.0]])]
        with pytest.raises(ValueError, match="segment has 1 components, trajectory has 2"):
            Trajectory(2, 1, segs)

    def test_value_jump_rejected_even_at_nonsmooth_knot(self):
        segs = [PolySegment(0.0, 0.5, [[0.0]]), PolySegment(0.5, 1.0, [[1.0]])]
        with pytest.raises(ValueError, match="value"):
            Trajectory(1, 1, segs, nonsmooth_knots=(0.5,))

    def test_example1_is_valid(self):
        example1_trajectory().validate()


def test_eval_matches_analytic_differentiation():
    """Segment evaluation vs direct coefficient differentiation, to 1e-12."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        coeffs = rng.uniform(-1, 1, size=(2, 6))
        seg = PolySegment(-0.3, 1.1, coeffs)
        traj = Trajectory(2, 1, [seg])
        ts = rng.uniform(-0.3, 1.1, size=8)
        for order in range(6):
            c = coeffs
            for _ in range(order):
                c = c[:, 1:] * np.arange(1, c.shape[1])
            expected = np.stack([np.polyval(ci[::-1], ts - seg.mid) for ci in c], axis=-1)
            got = traj.eval(ts, order)
            scale = np.maximum(1.0, np.abs(expected))
            assert np.all(np.abs(got - expected) <= 1e-12 * scale)


def _shift_by_derivatives(a: float, b: float, coeffs) -> np.ndarray:
    """Reference Taylor shift: the k-th coefficient about the midpoint is the
    k-th derivative of the monomial polynomial there over k!."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    mid = 0.5 * (a + b)
    return np.stack([P.polyval(mid, P.polyder(coeffs.T, k)) / math.factorial(k)
                     for k in range(coeffs.shape[1])], axis=1)


class TestFromMonomial:
    def test_example1_segments_are_bit_identical(self, ex1_traj):
        # (t - 1/2 + 1/2)^4 = x^4 + 2x^3 + 3/2 x^2 + 1/2 x + 1/16 on [0, 1], and so on
        monomial = ([[0.0, 0.0, 0.0, 0.0, -1.0]], [[0.0, 0.0, 0.0, 0.0, 1.0]],
                    [[2.0, 0.0, 0.0, 0.0, -1.0]])
        for seg, coeffs in zip(ex1_traj.segments, monomial):
            assert np.array_equal(seg.coeffs, _shift_by_derivatives(seg.a, seg.b, coeffs))
        assert np.array_equal(ex1_traj.segments[1].coeffs, [[0.0625, 0.5, 1.5, 2.0, 1.0]])

    def test_matches_the_derivative_shift(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = float(rng.uniform(-3.0, 3.0))
            b = a + float(rng.uniform(0.1, 3.0))
            coeffs = rng.uniform(-1.0, 1.0, size=(2, int(rng.integers(1, 8))))
            expected = _shift_by_derivatives(a, b, coeffs)
            got = PolySegment.from_monomial(a, b, coeffs).coeffs
            assert np.all(np.abs(got - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))


def test_shifted_eval_identity_property(ex1_traj):
    """The delayed slots of args_at hold eval at t - tau (here tau = -s)."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = rng.uniform(-1.0, 1.0)
        t = rng.uniform(max(-1.0, -1.0 - s), min(2.0, 2.0 - s))
        delayed_qd = args_at(ex1_traj, t, -s, 1).block(5)
        assert delayed_qd == pytest.approx(ex1_traj.eval(t + s, 1))


class TestJson:
    def test_round_trip(self, ex1_traj):
        clone = Trajectory.from_json(ex1_traj.to_json())
        assert clone.n == 1 and clone.m == 2
        assert clone.nonsmooth_knots == (1.0,)
        ts = np.linspace(-1, 2, 31)
        for order in range(3):
            assert np.allclose(clone.eval(ts, order), ex1_traj.eval(ts, order), atol=1e-13)

    @pytest.mark.parametrize("key, value, message", [
        ("n", 1.0, "trajectory n must be an integer"),  # integral, but not a JSON integer
        ("segments", {"a": 0}, "segments must be a list of objects"),
        ("nonsmooth", [1.0], "unknown trajectory keys \\['nonsmooth'\\]"),
        ("nonsmooth_knots", 5, "nonsmooth_knots must be a list of finite numbers, got 5"),
        ("nonsmooth_knots", ["1"], "nonsmooth_knots must be a list of finite numbers"),
        ("nonsmooth_knots", [float("nan")], "nonsmooth_knots must be a list of finite numbers"),
        ("nonsmooth_knots", [True], "nonsmooth_knots must be a list of finite numbers"),
        # key None: the value replaces the whole record
        (None, 5, "a trajectory file must hold a JSON object, got 5"),
        (None, "x", "a trajectory file must hold a JSON object, got 'x'"),
        (None, [1, 2], "a trajectory file must hold a JSON object"),
    ])
    def test_bad_record_raises(self, ex1_traj, key, value, message):
        record = json.loads(ex1_traj.to_json())
        record = value if key is None else {**record, key: value}
        with pytest.raises(ValueError, match=message):
            Trajectory.from_json(json.dumps(record))

    @pytest.mark.parametrize("field", ["a", "b", "coeffs"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_numbers_raise(self, ex1_traj, field, value):
        record = json.loads(ex1_traj.to_json())
        segment = record["segments"][0]
        if field == "coeffs":
            segment["coeffs"][0][0] = value
        else:
            segment[field] = value
        with pytest.raises(ValueError):
            Trajectory.from_json(json.dumps(record))


class TestHistoryStitching:
    def test_polynomial_history_is_exact(self):
        segs = segments_from_callable(lambda t: np.array([t * (1 - t)]), 1,
                                      np.linspace(-0.5, 0.0, 4), degree=3)
        traj = Trajectory(1, 1, segs, validate=False)
        ts = np.linspace(-0.5, 0.0, 17)
        assert np.allclose(traj.eval(ts, 0)[:, 0], ts * (1 - ts), atol=1e-12)
        assert np.allclose(traj.eval(ts, 1)[:, 0], 1 - 2 * ts, atol=1e-10)

    def test_transcendental_history_is_accurate(self):
        segs = segments_from_callable(lambda t: np.array([np.sin(t)]), 1,
                                      np.linspace(-1.0, 0.0, 5), degree=6)
        traj = Trajectory(1, 1, segs, validate=False)
        ts = np.linspace(-1.0, 0.0, 23)
        assert np.max(np.abs(traj.eval(ts, 0)[:, 0] - np.sin(ts))) < 1e-8

    @pytest.mark.parametrize("degree", [2, 4, 6])
    def test_reproduces_polynomials_up_to_its_degree(self, degree):
        rng = np.random.default_rng(11)
        coeffs = rng.uniform(-2, 2, size=(2, degree + 1))
        coeffs[1, degree // 2 + 1:] = 0.0  # a second component of lower degree

        def fn(t):
            return P.polyval(t, coeffs.T)

        segs = segments_from_callable(fn, 2, np.linspace(-0.5, 1.7, 23), degree=degree)
        assert len(segs) == 22 and all(seg.coeffs.shape == (2, degree + 1) for seg in segs)
        traj = Trajectory(2, 1, segs, validate=False)
        ts = np.linspace(-0.5, 1.7, 301)
        # exact up to roundoff, which order j amplifies by about half^-j = 20^j
        for order, bound in ((0, 1e-14), (1, 1e-12)):
            exact = P.polyval(ts, P.polyder(coeffs.T, order)).T
            assert np.max(np.abs(traj.eval(ts, order) - exact)) <= bound * float(
                np.max(np.abs(exact))), order

    def test_matches_per_panel_polyfit(self):
        # the reference: one least-squares fit of that degree per panel, at the
        # panel's Chebyshev points
        a, b, panels, degree = -1.0, 0.0, 5, 6
        segs = segments_from_callable(np.sin, 1, np.linspace(a, b, panels + 1), degree=degree)
        k = np.arange(degree + 1)
        nodes = np.cos(np.pi * (2 * k + 1) / (2 * (degree + 1)))
        edges = np.linspace(a, b, panels + 1)
        for seg, lo, hi in zip(segs, edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            ts = mid + half * nodes
            reference = PolySegment(lo, hi, P.polyfit(ts - mid, np.sin(ts), degree)[None])
            grid = np.linspace(lo, hi, 41)
            scale = float(np.max(np.abs(reference.eval(grid))))
            assert np.max(np.abs(seg.eval(grid) - reference.eval(grid))) <= 1e-13 * scale

    def test_scalar_only_callable(self):
        # called once on the node array, a scalar-only callable raises its own
        # TypeError there: no per-point retry
        calls = []

        def fn(t):
            calls.append(t)
            return math.sin(t)

        with pytest.raises(TypeError):
            segments_from_callable(fn, 1, np.linspace(-1.0, 0.0, 5), degree=6)
        assert len(calls) == 1

    def test_one_call_on_the_node_array(self):
        calls = []

        def fn(t):
            calls.append(np.array(t))
            return np.array([t * (1 - t), 2.0 * t])

        segs = segments_from_callable(fn, 2, np.linspace(-0.5, 1.0, 4), degree=4)
        assert len(calls) == 1 and calls[0].shape == (15,)
        # the nodes: each panel's five Chebyshev points, panel by panel
        edges = np.linspace(-0.5, 1.0, 4)
        per_panel = calls[0].reshape(3, 5)
        assert np.all((per_panel > edges[:-1, None]) & (per_panel < edges[1:, None]))
        ts = np.linspace(-0.5, 1.0, 31)
        traj = Trajectory(2, 1, segs, validate=False)
        assert np.allclose(traj.eval(ts), np.column_stack([ts * (1 - ts), 2.0 * ts]),
                           atol=1e-13)

    @pytest.mark.parametrize("n, value, expected", [
        (1, lambda t: t ** 2, lambda ts: ts[None] ** 2),          # (npts,) for n = 1
        (2, lambda t: np.array([t, -t]), lambda ts: np.array([ts, -ts])),  # (n, npts)
        (2, lambda t: np.array([1.5, -2.0]), lambda ts: np.array([[1.5], [-2.0]]) + 0 * ts),
        (3, lambda t: 0.25, lambda ts: np.full((3, len(ts)), 0.25)),  # a scalar constant
        (1, lambda t: np.array([3.0]), lambda ts: np.full((1, len(ts)), 3.0)),
    ])
    def test_value_shapes(self, n, value, expected):
        segs = segments_from_callable(value, n, np.linspace(0.0, 1.0, 3), degree=3)
        assert all(seg.coeffs.shape == (n, 4) for seg in segs)
        ts = np.linspace(0.0, 1.0, 17)
        got = Trajectory(n, 1, segs, validate=False).eval(ts).T
        assert np.allclose(got, expected(ts), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_points_first_value_raises(self, n):
        # (npts, n), (npts, 1) included, is not read as n components
        with pytest.raises(ValueError, match="components first"):
            segments_from_callable(lambda t: np.column_stack([t] * n), n,
                                   np.linspace(0.0, 1.0, 3), degree=3)

    def test_as_many_nodes_as_components(self):
        # a control history with mc = 6 on the solver's 2 panels of 3 nodes:
        # six nodes for six components, so one more time goes with the call
        calls = []

        def components(t):
            calls.append(np.shape(t))
            return np.array([k * t for k in range(1, 7)])

        with pytest.raises(ValueError, match="components first"):
            segments_from_callable(lambda t: components(t).T, 6, np.linspace(0.0, 1.0, 3),
                                   degree=2)
        segs = segments_from_callable(components, 6, np.linspace(0.0, 1.0, 3), degree=2)
        assert calls == [(7,), (7,)]
        ts = np.linspace(0.0, 1.0, 9)
        got = Trajectory(6, 1, segs, validate=False).eval(ts)
        assert np.allclose(got, np.outer(ts, np.arange(1, 7)), atol=1e-14)
