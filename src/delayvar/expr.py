"""Small expression language for integrands, histories, and group generators.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus, which binds tighter than ``*``/``/``.
Recognized functions: sin, cos, exp, log, sqrt, abs.  Constants pi and e are
folded into numeric literals at parse time.  Names mean nothing here: a plain
name -> slot table, checked when the expression is compiled, maps each to a
slot of the flat argument sequence the expression is evaluated on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import jet
from .errors import EvaluationDomain, ExprSyntaxError, UnknownVariable

__all__ = ["Ast", "Num", "Var", "Neg", "Bin", "Call", "parse", "to_str", "names", "bind_eval",
           "compiled"]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Ast"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Ast"
    right: "Ast"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Ast"


Ast = Num | Var | Neg | Bin | Call


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^()])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):  # trailing whitespace only
                break
            raise ExprSyntaxError(at, ("number", "name", "operator"), text[at])
        kind = m.lastgroup  # the group's name is the token kind: num, name or op
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, value, pos = self.peek()
        raise ExprSyntaxError(pos, expected, value if kind != "end" else "end of input")

    def expect_op(self, op: str):
        kind, value, _ = self.peek()
        if kind == "op" and value == op:
            return self.next()
        self.fail((repr(op),))

    def parse(self) -> Ast:
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail(("operator", "end of input"))
        return node

    def chain(self, ops: str, operand) -> Ast:
        """operand ((one of ops) operand)*, left-associative."""
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            node = Bin(self.next()[1], node, operand())
        return node

    def expr(self) -> Ast:
        return self.chain("+-", self.term)

    def term(self) -> Ast:
        return self.chain("*/", self.factor)

    def factor(self) -> Ast:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Ast:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Ast:
        kind, value, pos = self.peek()
        if kind == "num":
            self.next()
            return Num(float(value))
        if kind == "name":
            self.next()
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(pos, ("function name",), value)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            if value in CONSTANTS:
                return Num(CONSTANTS[value])
            return Var(value)
        if kind == "op" and value == "(":
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail(("number", "name", "'('"))


def parse(text: str) -> Ast:
    """Parse an expression; raises :class:`ExprSyntaxError` with a byte offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# pretty-printer (precedence-aware; parse(to_str(ast)) == ast)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _render(node: Ast) -> tuple[str, int]:
    if isinstance(node, Num):
        if node.value < 0:  # render as negation so the text re-parses
            return f"-{-node.value!r}", _PREC["neg"]
        return repr(node.value), _PREC["atom"]
    if isinstance(node, Var):
        return node.name, _PREC["atom"]
    if isinstance(node, Call):
        inner, _ = _render(node.arg)
        return f"{node.fn}({inner})", _PREC["atom"]
    if isinstance(node, Neg):
        inner, prec = _render(node.operand)
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    assert isinstance(node, Bin)
    lhs, lp = _render(node.left)
    rhs, rp = _render(node.right)
    prec = _PREC[node.op]
    if node.op == "^":
        # left operand of ^ must be a bare atom; right side re-parses at factor level
        if lp < _PREC["atom"]:
            lhs = f"({lhs})"
        if rp < _PREC["neg"]:
            rhs = f"({rhs})"
    else:
        if lp < prec:
            lhs = f"({lhs})"
        # -, / are left-associative: right operand needs strictly higher precedence
        if rp < prec or (rp == prec and node.op in "-/"):
            rhs = f"({rhs})"
        if node.op in "+*" and rp == prec:
            rhs = f"({rhs})"
    return f"{lhs} {node.op} {rhs}", prec


def to_str(node: Ast) -> str:
    """Render back to source text such that ``parse(to_str(ast)) == ast``."""
    return _render(node)[0]


def names(node: Ast) -> frozenset[str]:
    """The variable names ``node`` reads."""
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Num):
        return frozenset()
    if isinstance(node, Bin):
        return names(node.left) | names(node.right)
    return names(node.operand if isinstance(node, Neg) else node.arg)


# ---------------------------------------------------------------------------
# evaluation

_FN = {"sin": jet.sin, "cos": jet.cos, "exp": jet.exp, "log": jet.log,
       "sqrt": jet.sqrt, "abs": jet.fabs}


def _ev(node: Ast, slots, args):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return args[slots[node.name]]
    if isinstance(node, Neg):
        return -_ev(node.operand, slots, args)
    if isinstance(node, Call):
        return _FN[node.fn](_ev(node.arg, slots, args))
    assert isinstance(node, Bin)
    a = _ev(node.left, slots, args)
    b = _ev(node.right, slots, args)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return a ** b


def bind_eval(node: Ast, slots: dict[str, int], args):
    """Evaluate over a flat argument sequence (floats, arrays, or jets), each
    name read from ``args[slots[name]]``."""
    try:
        with np.errstate(all="ignore"):
            result = _ev(node, slots, args)
    except ZeroDivisionError as err:
        raise EvaluationDomain(str(err)) from None
    except KeyError as err:
        raise UnknownVariable(err.args[0]) from None
    check = jet.value_of(result)
    if not np.all(np.isfinite(check)):
        raise EvaluationDomain(f"expression evaluated to a non-finite value: {check!r}")
    return result


def compiled(node: Ast, slots: dict[str, int]):
    """Close the AST over a name -> slot table, yielding a plain args -> value
    callable; a name the table lacks raises UnknownVariable here, not when called."""
    missing = names(node) - slots.keys()
    if missing:
        raise UnknownVariable(min(missing))

    def fn(args):
        return bind_eval(node, slots, args)

    fn.__name__ = f"expr<{to_str(node)}>"
    return fn
