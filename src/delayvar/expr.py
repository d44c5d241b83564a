"""Small expression language for integrands, histories, and group generators.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus, which binds tighter than ``*``/``/``.
Recognized functions: sin, cos, exp, log, sqrt, abs.  Constants pi and e are
folded into numeric literals at parse time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import jet
from .errors import (
    DerivativeOrderTooHigh,
    EvaluationDomain,
    ExprSyntaxError,
    UnknownVariable,
)

__all__ = ["Ast", "Num", "Var", "Neg", "Bin", "Call", "Binding", "TableBinding",
           "parse", "to_str", "names", "bind_eval", "compiled"]

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
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
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

    def expr(self) -> Ast:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                node = Bin(value, node, self.term())
            else:
                return node

    def term(self) -> Ast:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                node = Bin(value, node, self.factor())
            else:
                return node

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
# bindings

_DQ_RE = re.compile(r"^d(\d+)q(\d+)(_tau)?$")


class Binding:
    """Maps variable names to slots of the variational argument layout.

    Canonical names are ``d{j}q{i}`` and ``d{j}q{i}_tau`` for derivative order
    ``0 <= j <= m`` and component ``0 <= i < n``, plus ``t``.  For n = 1 and
    m <= 2 the sugar names q, qd, qdd, q_tau, qd_tau, qdd_tau are accepted.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n

    def slot_of(self, name: str) -> int:
        m, n = self.m, self.n
        if name == "t":
            return 0
        if n == 1:
            sugar = {"q": (0, 0, False), "qd": (1, 0, False), "qdd": (2, 0, False),
                     "q_tau": (0, 0, True), "qd_tau": (1, 0, True), "qdd_tau": (2, 0, True)}
            if name in sugar:
                j, i, delayed = sugar[name]
                if j > m:
                    raise DerivativeOrderTooHigh(name, j, m)
                return self._slot(j, i, delayed)
        match = _DQ_RE.match(name)
        if match:
            j, i = int(match.group(1)), int(match.group(2))
            if i >= n:
                raise UnknownVariable(name)
            if j > m:
                raise DerivativeOrderTooHigh(name, j, m)
            return self._slot(j, i, match.group(3) is not None)
        raise UnknownVariable(name)

    def _slot(self, j: int, i: int, delayed: bool) -> int:
        base = 1 + (self.m + 1) * self.n if delayed else 1
        return base + j * self.n + i


class TableBinding:
    """Binding backed by an explicit name -> slot table (generators, controls)."""

    def __init__(self, table: dict[str, int]):
        self.table = dict(table)

    def slot_of(self, name: str) -> int:
        try:
            return self.table[name]
        except KeyError:
            raise UnknownVariable(name) from None


# ---------------------------------------------------------------------------
# evaluation

_FN = {"sin": jet.sin, "cos": jet.cos, "exp": jet.exp, "log": jet.log,
       "sqrt": jet.sqrt, "abs": jet.fabs}


def _ev(node: Ast, binding, args):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return args[binding.slot_of(node.name)]
    if isinstance(node, Neg):
        return -_ev(node.operand, binding, args)
    if isinstance(node, Call):
        return _FN[node.fn](_ev(node.arg, binding, args))
    assert isinstance(node, Bin)
    a = _ev(node.left, binding, args)
    b = _ev(node.right, binding, args)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return a ** b


def bind_eval(node: Ast, binding, args):
    """Evaluate over a flat argument sequence (floats, arrays, or jets)."""
    try:
        with np.errstate(all="ignore"):
            result = _ev(node, binding, args)
    except ZeroDivisionError as err:
        raise EvaluationDomain(str(err)) from None
    check = jet.value_of(result)
    if not np.all(np.isfinite(check)):
        raise EvaluationDomain(f"expression evaluated to a non-finite value: {check!r}")
    return result


def compiled(node: Ast, binding):
    """Close the AST over a binding, yielding a plain args -> value callable."""

    def fn(args):
        return bind_eval(node, binding, args)

    fn.__name__ = f"expr<{to_str(node)}>"
    return fn
