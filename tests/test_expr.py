"""Expression language: grammar, errors, evaluation, round-trip property."""

from __future__ import annotations

import keyword
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
from delayvar.expr import Bin, Call, Neg, Num, Var, bind_eval, compiled, names, parse, to_str
from delayvar.problem import ArgLayout, integrand_from_expr, variational_names

import expr_reference


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


# ---------------------------------------------------------------------------
# the grammar's boundary, deep nesting, and agreement with the hand-written parser

def _outcome(parser, text):
    try:
        return parser(text)
    except ExprSyntaxError:
        return ExprSyntaxError


@pytest.mark.parametrize("text", [
    "0x10", "1_000", "1j", "q**2", "q # c", "q.real", "q[0]", "q < 1", "q == 1", "+q", "~q",
    "'q'", "α", "(q, t)", "sin(q, t)", "sin()", "sin(x=q)", "q(t)", "2(q)", "(sin)(q)",
    "q if t else 1",
])
def test_python_forms_outside_the_grammar_raise(text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


@pytest.mark.parametrize("text, expected", [
    ("01", Num(1.0)),
    ("007.5", Num(7.5)),
    (" q", Var("q")),
    ("q\n+ 1", Bin("+", Var("q"), Num(1.0))),
    ("q\v+ 1", Bin("+", Var("q"), Num(1.0))),
    ("q\u00a0+ 1", Bin("+", Var("q"), Num(1.0))),  # no-break space
    ("q\u2003+ 1", Bin("+", Var("q"), Num(1.0))),  # em space
    ("1e999", Num(math.inf)),
], ids=["leading-zero", "leading-zeros-float", "leading-space", "newline", "vertical-tab",
        "no-break-space", "em-space", "inf"])
def test_grammar_forms_python_alone_refuses_are_accepted(text, expected):
    assert parse(text) == expected


def test_syntax_error_points_at_the_offending_token():
    # a character index into the text as given, or len(text) at the end of input
    for text, position, found in [("q if t else 1", 2, "if"), ("q +", 3, "end of input"),
                                  ("foo(q)", 0, "foo"), ("sin(q) + None", 9, "None")]:
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert (err.value.position, err.value.found) == (position, found), text


@pytest.mark.parametrize("text, expected", [
    ("(" * 150 + "t" + ")" * 150, Var("t")),  # within Python's 200 nested parentheses
    ("(" * 400 + "t" + ")" * 400, ExprSyntaxError),
    ("-" * 3000 + "t", ExprSyntaxError),
    ("-" * 100_000 + "t", ExprSyntaxError),  # past the parser's own stack
    ("q" + "^q" * 600, None),  # either outcome, but no RecursionError
    ("q" + "^q" * 5000, ExprSyntaxError),
    ("+".join(["q"] * 5000), ExprSyntaxError),
], ids=["parens-150", "parens-400", "minus-3000", "minus-100000", "power-600", "power-5000",
        "sum-5000"])
def test_deep_nesting_gives_a_tree_or_a_syntax_error(text, expected):
    got = _outcome(parse, text)
    assert got == expected or expected is None and (got is ExprSyntaxError or names(got) == {"q"})


def test_nesting_past_the_recursion_limit_is_a_syntax_error():
    # Python's parser or the walk runs out of stack: a syntax error, not a RecursionError
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        with pytest.raises(ExprSyntaxError):
            parse("-" * 400 + "t")
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("text", ["None", "True", "if", "and", "lambda", "not", "in",
                                  "None + q", "sin(lambda)"])
def test_python_keywords_are_not_names(text):
    # the hand-written parser read a keyword as a Var, which failed only when compiled
    assert any(keyword.iskeyword(name) for name in names(expr_reference.parse(text)))
    with pytest.raises(ExprSyntaxError):
        parse(text)


_FRAGMENTS = [
    "q", "t", "qd", "q_tau", "sin", "exp", "abs", "pi", "e", "0", "1", "01", "2.5", ".5", "1e3",
    "1e999", "+", "-", "*", "/", "^", "(", ")", " ", "\n", "\u00a0",
    "**", "0x", "_", "j", "#", ".", "[", "]", ",", "=", "<",
    "None", "True", "if", "else", "and", "not", "lambda", "for", "in", "is", "await", "yield",
    "α", "é",
]


@settings(max_examples=1000, deadline=None)
@example("(exp)(q)")
@example("q if t else 1")
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join))
def test_agrees_with_the_hand_written_parser(text):
    expected = _outcome(expr_reference.parse, text)
    got = _outcome(parse, text)
    if expected is not ExprSyntaxError and any(map(keyword.iskeyword, names(expected))):
        assert got is ExprSyntaxError, text  # the one intended difference
    else:
        assert got == expected, text
