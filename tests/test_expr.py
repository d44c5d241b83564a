"""Expression language: grammar, errors, evaluation, round-trip property."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from delayvar.errors import (
    DerivativeOrderTooHigh,
    EvaluationDomain,
    ExprSyntaxError,
    UnknownVariable,
)
from delayvar.expr import Bin, Call, Neg, Num, Var, bind_eval, compiled, parse, to_str
from delayvar.problem import ArgLayout, integrand_from_expr, variational_names


def test_power_parses_right_associative():
    ast = parse("qd^2")
    assert ast == Bin("^", Var("qd"), Num(2.0))
    assert parse("q^2^3") == Bin("^", Var("q"), Bin("^", Num(2.0), Num(3.0)))


def test_unary_minus_binds_below_power():
    # -q^2 is -(q^2); q^-2 allows a negated exponent
    assert parse("-q^2") == Neg(Bin("^", Var("q"), Num(2.0)))
    assert parse("q^-2") == Bin("^", Var("q"), Neg(Num(2.0)))


def test_parenthesized_round_trip():
    ast = parse("(qdd + qdd_tau)^2")
    assert parse(to_str(ast)) == ast


def test_trailing_whitespace_is_ignored():
    assert parse("q + 1  ") == parse("q + 1")


@pytest.mark.parametrize("text", ["q^(t + 1)", "q^(2*t)", "q^sin(t)", "(-q)^2"])
def test_compound_power_round_trip(text):
    # the random ASTs draw integer exponents only; these are compound operands of ^
    ast = parse(text)
    assert parse(to_str(ast)) == ast


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("q@2")
    assert err.value.position == 1


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2t")


@pytest.mark.parametrize("text", ["(q", "foo(q)", "q + *"])
def test_malformed_expression_raises(text):
    # an unclosed parenthesis, an unknown function, an operator with no operand
    with pytest.raises(ExprSyntaxError):
        parse(text)


def test_constants_fold():
    assert parse("pi") == Num(math.pi)
    assert math.isclose(bind_eval(parse("cos(pi)"), variational_names(1, 1), [0.0] * 5), -1.0)


def test_bind_eval_examples():
    slots = variational_names(2, 1)
    # slots: t, q, qd, qdd, q_tau, qd_tau, qdd_tau
    args = [0.0, 0.0, 0.0, -27.0, 0.0, 0.0, 3.0]
    assert bind_eval(parse("(qdd + qdd_tau)^2"), slots, args) == pytest.approx(576.0, abs=1e-12)
    assert bind_eval(parse("qd^2"), variational_names(1, 1), [0.0, 0.0, 3.0, 0.0, 0.0]) == 9.0


def test_derivative_order_too_high():
    # the order is known when the text is compiled: no evaluation is needed
    with pytest.raises(DerivativeOrderTooHigh):
        integrand_from_expr("d3q0", 2, 1)


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        bind_eval(parse("zz"), variational_names(1, 1), [0.0] * 5)


@pytest.mark.parametrize("text, m, n, error", [
    ("qdd", 1, 1, DerivativeOrderTooHigh),  # sugar for an order above m
    ("d0q5", 1, 1, UnknownVariable),        # a component index past n
    ("qdd_tau", 1, 1, DerivativeOrderTooHigh),   # delayed sugar above m
    ("d2q1_tau", 1, 2, DerivativeOrderTooHigh),  # delayed canonical name above m
    ("d17q0", 3, 2, DerivativeOrderTooHigh),     # any order above m, not only the sugar's
    ("d3q2", 3, 2, UnknownVariable),             # a component past n at an order above m
])
def test_name_outside_the_binding_raises(text, m, n, error):
    with pytest.raises(error):
        integrand_from_expr(text, m, n)


def test_table_binding_unknown_name():
    # a name the table lacks fails when compiled, and when evaluated directly
    with pytest.raises(UnknownVariable, match="'s'"):
        compiled(parse("t + s"), {"t": 0})
    with pytest.raises(UnknownVariable, match="'s'"):
        bind_eval(parse("t + s"), {"t": 0}, [0.0])


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_variational_names_land_in_their_layout_blocks(m, n):
    """Every name's slot lies in the ArgLayout.variational block its name
    says: t in block 1, order j undelayed in block 2 + j, delayed in block
    m + 3 + j, component i at offset i."""
    layout, slots = ArgLayout.variational(m, n), variational_names(m, n)
    sugar = {"q": 0, "qd": 1, "qdd": 2}
    assert slots.pop("t") == layout.block_slice(1).start
    for name, slot in slots.items():
        base, delayed = name.removesuffix("_tau"), name.endswith("_tau")
        j, i = (sugar[base], 0) if base in sugar else map(int, base[1:].split("q"))
        assert j <= m and i < n
        block = layout.block_slice(2 + j + delayed * (m + 1))
        assert slot == block.start + i, name
    expected = 2 * (m + 1) * n + (2 * (min(m, 2) + 1) if n == 1 else 0)
    assert len(slots) == expected
    assert sorted(set(slots.values())) == list(range(1, layout.size))


def test_canonical_names_and_sugar_agree():
    slots = variational_names(2, 1)
    args = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert bind_eval(parse("d2q0_tau"), slots, args) == bind_eval(parse("qdd_tau"), slots, args)
    assert bind_eval(parse("d0q0"), slots, args) == 1.0


def test_evaluation_domain_error():
    with pytest.raises(EvaluationDomain):
        bind_eval(parse("log(q)"), variational_names(1, 1), [0.0, -1.0, 0.0, 0.0, 0.0])
    with pytest.raises(EvaluationDomain):
        bind_eval(parse("1/q"), variational_names(1, 1), [0.0, 0.0, 0.0, 0.0, 0.0])


def test_array_evaluation():
    slots = variational_names(1, 1)
    args = [np.zeros(3), np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros(3), np.zeros(3)]
    out = bind_eval(parse("q^2 + qd"), slots, args)
    assert np.allclose(out, [2.0, 5.0, 10.0])


# ---------------------------------------------------------------------------
# random-AST round trip and reference-evaluator agreement

_NAMES = ["t", "q", "qd", "q_tau", "qd_tau"]


def _asts(depth: int):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
        st.sampled_from(_NAMES).map(Var),
    )
    if depth == 0:
        return leaf
    sub = _asts(depth - 1)
    return st.one_of(
        leaf,
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: Bin(*t)),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), sub).map(lambda t: Call(*t)),
        # keep exponents small integers so evaluation stays finite
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(
            lambda t: Bin("^", t[0], Num(float(t[1])))),
    )


@settings(max_examples=1000, deadline=None)
@given(_asts(3))
def test_round_trip_property(ast):
    assert parse(to_str(ast)) == ast


_ULPS = 4


def _reference_eval(node, env):
    """Independent recursive evaluator over a name -> value environment."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_reference_eval(node.operand, env)
    if isinstance(node, Call):
        x = _reference_eval(node.arg, env)
        if node.fn in ("sin", "cos"):
            # sin and cos move by up to |x| times the relative error of x: past
            # this size, the few ulps by which two evaluators may compute x
            # (numpy's exp and math.exp differ by one at exp(34.6)) take the
            # result outside the 1e-12 bound, whichever evaluator is right
            assume(abs(x) * _ULPS * sys.float_info.epsilon <= 1e-12)
        return getattr(math, node.fn if node.fn != "abs" else "fabs")(x)
    a = _reference_eval(node.left, env)
    b = _reference_eval(node.right, env)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a ** b}[node.op]


@settings(max_examples=300, deadline=None)
@example(Neg(Call("sin", Call("exp", Num(34.599289892693456)))), [0.0] * 5)
@given(_asts(3), st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                          min_size=5, max_size=5))
def test_agrees_with_reference_evaluator(ast, values):
    slots = variational_names(1, 1)
    env = dict(zip(_NAMES, values))
    args = [env["t"], env["q"], env["qd"], env["q_tau"], env["qd_tau"]]
    try:
        expected = _reference_eval(ast, env)
    except (ZeroDivisionError, OverflowError, ValueError):
        return
    if not math.isfinite(expected) or abs(expected) > 1e12:
        return
    got = bind_eval(ast, slots, args)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
