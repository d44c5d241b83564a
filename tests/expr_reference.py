"""The hand-written recursive-descent parser that ``delayvar.expr.parse`` replaced,
kept verbatim as the reference of the differential test in ``test_expr.py``.

It reads the grammar in ``delayvar.expr``'s module docstring and builds the same
``Num`` / ``Var`` / ``Neg`` / ``Bin`` / ``Call`` trees.
"""

from __future__ import annotations

import re

from delayvar.errors import ExprSyntaxError
from delayvar.expr import _FN, CONSTANTS, Ast, Bin, Call, Neg, Num, Var

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
                if value not in _FN:
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
