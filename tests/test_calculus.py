"""Differentiation and integration engine."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayvar import calculus, expr, jet
from delayvar.calculus import (
    default_step,
    derivative_in_parameter,
    fd_weights,
    integrate,
    partial,
    total_derivative_many,
)
from delayvar.errors import BlockOutOfRange, NotJetCapable, StencilCrossesBreakpoint
from delayvar.problem import ArgLayout, ArgVector, Integrand, integrand_from_expr


def test_fd_weights_reproduce_classic_tables():
    assert np.allclose(fd_weights(np.arange(5) - 2, 1) * 12, [1, -8, 0, 8, -1])
    assert np.allclose(fd_weights(np.arange(5) - 2, 2) * 12, [-1, 16, -30, 16, -1])
    assert np.allclose(fd_weights(np.arange(5), 1) * 12, [-25, 48, -36, 16, -3])


INF = np.inf

# m = 2, n = 2: every block has two slots, and a name reads one of them
_SLOT_NAMES = ["t", "d0q0", "d1q1", "d2q0", "d0q1_tau", "d1q0_tau", "d2q1_tau"]


def _polynomials(depth: int):
    """Random ``+ - * ^int`` expressions over m = 2, n = 2 names and constants."""
    leaf = st.one_of(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(expr.Num),
                     st.sampled_from(_SLOT_NAMES).map(expr.Var))
    if depth == 0:
        return leaf
    sub = _polynomials(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda t: expr.Bin(*t)),
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(
            lambda t: expr.Bin("^", t[0], expr.Num(float(t[1])))),
    )


class TestTotalDerivative:
    def test_first_derivative(self):
        got = total_derivative_many(lambda t: t ** 2, [3.0], 1, [-INF], [INF], 1e-4)[0]
        assert got == pytest.approx(6.0, abs=1e-9)

    def test_second_derivative(self):
        got = total_derivative_many(lambda t: t ** 3, [2.0], 2, [-INF], [INF], 1e-3)[0]
        assert got == pytest.approx(12.0, abs=1e-7)

    def test_one_sided_near_bound(self):
        got = total_derivative_many(lambda t: t ** 3, [2.0], 1, [2.0], [3.0], 1e-3)[0]
        assert got == pytest.approx(12.0, abs=1e-7)

    def test_polynomial_order1_accuracy(self):
        # degree <= 4 polynomials differentiate to 1e-8 absolute
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.uniform(-1, 1, size=5)
            t0 = rng.uniform(-1, 1)
            dc = np.polyder(np.poly1d(c[::-1]))
            got = total_derivative_many(lambda t: np.polyval(c[::-1], t), [t0], 1,
                                        [-INF], [INF], 1e-4)[0]
            assert abs(got - dc(t0)) <= 1e-8

    def test_no_room_raises(self):
        with pytest.raises(StencilCrossesBreakpoint):
            total_derivative_many(lambda t: t, [1.0], 1, [1.0], [1.0 + 1e-15], 1e-4)

    def test_constant_differentiates_to_exact_zero(self):
        got = total_derivative_many(lambda t: np.full_like(t, 5.0), [0.3], 1, [-INF], [INF], 1e-4)
        assert got[0] == 0.0


def test_weight_table_rows_are_fd_weights():
    for order in range(5):
        for shift in range(-2, 3):
            assert np.array_equal(calculus._WEIGHTS[order, shift + 2],
                                  fd_weights(np.arange(5) - 2 + shift, order))


def test_mixed_shift_call_equals_per_point_calls():
    # points near both bounds take every placement from fully right to fully left
    ts = np.array([0.0, 1e-3, 0.5, 1.0 - 1e-3, 1.0, 0.002, 0.998])
    h = 1e-3
    shifts = set(calculus.Stencil(ts, 1, 0.0, 1.0, h)._shift.tolist())
    assert shifts == {-2, -1, 0, 1, 2}
    for order in (1, 2, 3):
        batched = total_derivative_many(np.sin, ts, order, 0.0, 1.0, h)
        single = [total_derivative_many(np.sin, [t], order, 0.0, 1.0, h)[0] for t in ts]
        assert np.array_equal(batched, single)
        exact = (np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))[order - 1](ts)
        assert np.allclose(batched, exact, atol=1e-5)


class TestPartial:
    def _args(self, values, m=1, n=1):
        return ArgVector(values, ArgLayout.variational(m, n))

    def test_square_slot(self):
        f = Integrand(lambda v: v[2] ** 2, name="qd^2")
        got = partial(f, 3, self._args([0.0, 0.0, 3.0, 0.0, 0.0]))
        assert got[0] == pytest.approx(6.0, abs=1e-12)

    def test_autonomous_time_partial_is_zero(self):
        f = Integrand(lambda v: v[1] * v[3], name="q*q_tau")
        assert partial(f, 1, self._args([0.7, 2.0, 0.0, 5.0, 0.0]))[0] == 0.0

    def test_empty_multiplier_block(self):
        # the control layout's block 7 holds the k multipliers: none when k = 0
        H = Integrand(lambda v: v[2] ** 2, name="u^2")
        args = ArgVector([0.0, 1.0, 2.0, 1.0, 2.0, 0.5], ArgLayout.control(1, 1, 0))
        got = partial(H, 7, args)
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_block_out_of_range(self):
        f = Integrand(lambda v: v[1], name="q")
        with pytest.raises(BlockOutOfRange):
            partial(f, 6, self._args([0.0] * 5))

    def test_opaque_callables_raise_not_jet_capable(self):
        f = Integrand(lambda v: math.sin(v[1]), name="math.sin(q)")  # rejects jets
        with pytest.raises(NotJetCapable, match=r"math\.sin\(q\)") as info:
            partial(f, 2, self._args([0.0, 0.3, 0.0, 0.0, 0.0]))
        assert isinstance(info.value.__cause__, TypeError)
        twin = Integrand(lambda v: np.sin(v[1]), name="np.sin(q)")  # the ufunc carries jets
        assert partial(twin, 2, self._args([0.0, 0.3, 0.0, 0.0, 0.0]))[0] == np.cos(0.3)

    def test_dual_matches_fd_on_random_integrands(self):
        """Order-1 jets (the dual-number case) against central differences of
        the same integrand on floats, taken here, to 1e-6 on random arguments."""
        rng = np.random.default_rng(5)
        layout = ArgLayout.variational(1, 1)
        smooth = Integrand(lambda v: jet.sin(v[1]) * v[2] + jet.exp(v[3] * 0.3) + v[0] * v[4],
                           name="smooth")
        h = 1e-6
        for _ in range(100):
            values = list(rng.uniform(-2, 2, size=5))
            for block in range(1, 6):
                exact = partial(smooth, block, ArgVector(values, layout))
                up, dn = list(values), list(values)
                up[block - 1] += h
                dn[block - 1] -= h
                approx = (smooth(up) - smooth(dn)) / (2.0 * h)
                assert np.allclose(approx, exact, rtol=1e-6, atol=1e-6)

    def test_unread_block_is_zero_without_a_call(self, monkeypatch):
        calls = []
        plain = expr.bind_eval
        monkeypatch.setattr(expr, "bind_eval", lambda *a: calls.append(a) or plain(*a))
        f = integrand_from_expr("qd^2", 1, 1)
        args = ArgVector([np.zeros(3), np.full(3, np.nan), np.arange(3.0), np.zeros(3),
                          np.zeros(3)], ArgLayout.variational(1, 1))
        for block in (1, 2, 4, 5):
            got = partial(f, block, args)
            assert type(got) is np.ndarray and np.array_equal(got, np.zeros((1, 3)))
        assert not calls
        assert np.array_equal(partial(f, 3, args), [2.0 * np.arange(3.0)]) and len(calls) == 1

    @settings(max_examples=200, deadline=None)
    @given(_polynomials(3), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_skipped_slots_change_no_bit(self, ast, seed, jets):
        """partial of an expression integrand, which skips the slots it does not
        name, equals bit for bit that of the same function as a plain callable,
        every slot evaluated; on array slots and on time-jet slots."""
        f = integrand_from_expr(expr.to_str(ast), 2, 2)
        rng = np.random.default_rng(seed)
        layout = ArgLayout.variational(2, 2)
        if jets:
            values = [jet.variable(rng.uniform(0, 1, 4), 2)] + [
                jet.Jet(list(rng.uniform(-2, 2, (3, 4)))) for _ in range(layout.size - 1)]
        else:
            values = [rng.uniform(0, 1, 4)] + list(rng.uniform(-2, 2, (layout.size - 1, 4)))
        args = ArgVector(values, layout)
        for block in range(1, layout.nblocks + 1):
            got, want = partial(f, block, args), partial(f.fn, block, args)  # fn: no reads
            assert type(got) is type(want)
            assert np.array_equal(jet.coefficients(got, 2), jet.coefficients(want, 2))

    def test_vectorized_partial(self):
        f = Integrand(lambda v: v[1] ** 3, name="q^3")
        qs = np.array([1.0, 2.0, -1.0])
        args = ArgVector([np.zeros(3), qs, np.zeros(3), np.zeros(3), np.zeros(3)],
                         ArgLayout.variational(1, 1))
        assert np.allclose(partial(f, 2, args)[0], 3 * qs ** 2)


class TestIntegrate:
    def test_cubic(self):
        assert integrate(lambda t: t ** 3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_quartic_oracle(self):
        # closed form: 144 int_0^2 (2t-1)^2 dt = 24[(2t-1)^3]_0^2 = 672
        assert integrate(lambda t: 144 * (2 * t - 1) ** 2, 0.0, 2.0) == pytest.approx(672.0, abs=1e-9)

    def test_empty_interval(self):
        assert integrate(lambda t: 1.0, 1.0, 1.0) == 0.0

    def test_exact_degree_15_single_panel(self):
        rng = np.random.default_rng(9)
        c = rng.uniform(-1, 1, size=16)
        p = np.poly1d(c[::-1])
        ip = p.integ()
        got = integrate(lambda t: np.polyval(c[::-1], t), -0.7, 0.9)
        assert got == pytest.approx(ip(0.9) - ip(-0.7), abs=1e-12)

    def test_breaks_handle_kinks(self):
        got = integrate(np.abs, -1.0, 1.0, breaks=[0.0])
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_scalar_only_integrand_raises(self):
        # a scalar-only integrand raises its own TypeError at its one call
        calls = []

        def fn(t):
            calls.append(t)
            return math.cos(t)

        with pytest.raises(TypeError):
            integrate(fn, 0.0, 1.0)
        assert len(calls) == 1 and np.shape(calls[0]) == (64 * 8,)

    def test_integrand_is_called_once(self):
        # its failure propagates at once, with no per-point retry
        calls = []

        def fn(t):
            calls.append(t)
            return np.zeros((3, 2)) + t  # does not broadcast over the nodes

        with pytest.raises(ValueError):
            integrate(fn, 0.0, 1.0)
        assert len(calls) == 1
        calls.clear()
        assert integrate(lambda t: calls.append(t) or np.cos(t), 0.0, 1.0) == pytest.approx(
            math.sin(1.0), abs=1e-15)
        assert len(calls) == 1

    def test_stacked_columns_take_their_lone_values(self):
        # each column's integral is the one it has alone, bit for bit
        rng = np.random.default_rng(3)
        coeffs = rng.uniform(-1, 1, size=(4, 9))
        columns = [lambda t, c=c: np.polyval(c, t) * np.cos(3 * t) for c in coeffs]
        stacked = integrate(lambda t: np.column_stack([f(t) for f in columns]), -0.4, 1.3,
                            breaks=[0.5])
        assert stacked.shape == (4,)
        assert stacked.tolist() == [integrate(f, -0.4, 1.3, breaks=[0.5]) for f in columns]

    def test_cached_panel_rule_is_read_only_and_stable(self):
        seen = []

        def fn(t):
            seen.append(t)
            return np.cos(t)

        first = integrate(fn, -0.3, 1.7, breaks=[0.2, 1.1])
        assert integrate(fn, -0.3, 1.7, breaks=[1.1, 0.2, 0.2]) == first
        assert seen[0] is seen[1]  # one cached node array for the same panels
        nodes, weights = calculus._panel_rule((-0.3, 0.2, 1.1, 1.7))
        assert nodes is seen[0]
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert first == pytest.approx(np.sin(1.7) - np.sin(-0.3), abs=1e-13)
        assert calculus._panel_rule.cache_info().maxsize <= 64


class TestParamDerivative:
    """One call on the order-1 jet in s: exact, and a float."""

    def test_affine(self):
        assert derivative_in_parameter(lambda s: 3 * s + 7) == 3.0

    def test_even_function(self):
        assert derivative_in_parameter(lambda s: s ** 2) == 0.0

    def test_numpy_ufunc_is_exact(self):
        out = derivative_in_parameter(np.sin)
        assert type(out) is float and out == 1.0


def test_default_step_scales_with_order():
    assert default_step(2.0, 1) == pytest.approx(2e-4)
    assert default_step(2.0, 2) == pytest.approx(2e-3)


def test_hessian_along_a_path():
    # f = q^2 qd + t q along q = t^2: d_q d_q f = 2 qd = 4t, d_q d_qd f = 2 q = 2t^2,
    # d_qd d_qd f = 0 and d_t d_q f = 1; every other slot pair is zero
    ts = np.array([0.2, 0.7])
    t = jet.variable(ts, 2)
    args = ArgVector([t, t * t, 2.0 * t, 0.0 * t, 0.0 * t], ArgLayout.variational(1, 1))

    def f(v):
        return v[1] * v[1] * v[2] + v[0] * v[1]

    zero, one = 0 * ts, 1 + 0 * ts  # Taylor coefficients: d^r/dt^r over r!
    expected = np.zeros((3, 5, 5, 2))
    for k, b, coeffs in ((2, 2, [4 * ts, 4 * one, zero]), (2, 3, [2 * ts ** 2, 4 * ts, 2 * one]),
                         (1, 2, [one, zero, zero])):
        expected[:, k - 1, b - 1] = expected[:, b - 1, k - 1] = coeffs
    value, grad, got = calculus.derivatives(f, args, 2, levels=2)
    assert got.shape == (3, 5, 5, 2)
    assert np.allclose(got, expected, rtol=0, atol=1e-14)
    assert np.max(np.abs(got - np.swapaxes(got, 1, 2))) <= 1e-14  # d_b d_k f = d_k d_b f
    # the gradient from the same evaluation: d_t f = q = t^2, d_q f = 2 q qd + t
    # = 4 t^3 + t and d_qd f = q^2 = t^4
    expected = np.zeros((3, 5, 2))
    expected[:, 0] = [ts ** 2, 2 * ts, one]
    expected[:, 1] = [4 * ts ** 3 + ts, 12 * ts ** 2 + 1, 12 * ts]
    expected[:, 2] = [ts ** 4, 4 * ts ** 3, 6 * ts ** 2]
    assert grad.shape == (3, 5, 2)
    assert np.allclose(grad, expected, rtol=0, atol=1e-14)
    assert np.allclose(value, [2 * ts ** 5 + ts ** 3, 10 * ts ** 4 + 3 * ts ** 2,
                               20 * ts ** 3 + 3 * ts], rtol=0, atol=1e-14)  # f = 2 t^5 + t^3
    alone = calculus.derivatives(f, args, 2)  # one order-1 level: f and its gradient
    assert all(np.max(np.abs(a - b)) <= 1e-14 for a, b in zip(alone, (value, grad)))


def test_hessian_of_scalar_slots_and_untouched_maps():
    args = ArgVector([0.5, 0.3, -2.0, 0.0, 0.0], ArgLayout.variational(1, 1))
    _, grad, got = calculus.derivatives(lambda v: v[1] * v[2] + v[0], args, levels=2)
    assert got.shape == (1, 5, 5)
    assert got[0, 1, 2] == got[0, 2, 1] == 1.0 and np.count_nonzero(got) == 2
    assert np.array_equal(grad, [[1.0, -2.0, 0.3, 0.0, 0.0]])
    for f, order, value, expected in ((lambda v: 3.0, 1, [3.0, 0.0], np.zeros((2, 5))),
                                      (lambda v: 2.0 * v[1], 0, [0.6], [[0.0, 2.0, 0, 0, 0]])):
        for levels in (1, 2):
            found = calculus.derivatives(f, args, order, levels)
            assert np.array_equal(found[0], value) and np.array_equal(found[1], expected)
        assert np.array_equal(found[2], np.zeros((order + 1, 5, 5)))
    for levels in (1, 2):
        with pytest.raises(NotJetCapable, match="array of jets"):
            calculus.derivatives(lambda v: np.array([v[1], v[2]]) ** 2, args, 0, levels)


class TestFallbackLogging:
    """No map falls back to finite differences or stencils: one that rejects
    jets raises NotJetCapable, chaining the TypeError, and the delayvar
    logger records nothing."""

    def test_partial(self, caplog):
        f = Integrand(lambda v: np.asarray(v[1], dtype=float) ** 2, name="q^2 on arrays")
        args = ArgVector([0.0, 0.3, 0.0, 0.0, 0.0], ArgLayout.variational(1, 1))
        with caplog.at_level(logging.DEBUG, logger="delayvar"), \
                pytest.raises(NotJetCapable, match="q\\^2 on arrays") as info:
            partial(f, 2, args)
        assert "a jet is not an array" in str(info.value.__cause__)
        assert not caplog.records
        twin = Integrand(lambda v: np.asarray(v[1]) ** 2)  # a 0-d object array holds the jet
        assert partial(twin, 2, args)[0] == 0.6

    def test_path_derivatives(self, caplog):
        ts = np.array([0.3, 0.5])
        with caplog.at_level(logging.DEBUG, logger="delayvar"), \
                pytest.raises(NotJetCapable) as info:
            calculus.path_derivatives(lambda t: np.asarray(t, dtype=float) ** 2, ts, 1)
        assert "a jet is not an array" in str(info.value.__cause__)
        assert not caplog.records
        out = calculus.path_derivatives(lambda t: np.power(t, 2), ts, 1)  # the ufunc twin
        assert np.array_equal(out, [ts ** 2, 2 * ts])

    def test_jet_capable_maps_log_nothing(self, caplog):
        args = ArgVector([0.0, 0.3, 0.0, 0.0, 0.0], ArgLayout.variational(1, 1))
        with caplog.at_level(logging.DEBUG, logger="delayvar"):
            partial(Integrand(lambda v: v[1] * v[1]), 2, args)
            calculus.path_derivatives(lambda t: t * t, np.array([0.3]), 1)
        assert not caplog.records
