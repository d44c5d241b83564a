"""Small expression language for integrands, histories, and group generators.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus, which binds tighter than ``*``/``/``.
This is Python's expression grammar with ``^`` for ``**``, narrowed to these
forms, and Python's parser reads it: a NAME is an ASCII identifier that is not
a Python keyword.  Recognized functions: sin, cos, exp, log, sqrt, abs.
Constants pi and e are folded into numeric literals at parse time.  Names mean
nothing here: a plain name -> slot table, checked when the expression is
compiled, maps each to a slot of the flat argument sequence the expression is
evaluated on.
"""

from __future__ import annotations

import ast
import keyword
import math
import re
from dataclasses import dataclass

import numpy as np

from . import jet
from .errors import EvaluationDomain, ExprSyntaxError, UnknownVariable

__all__ = ["Ast", "Num", "Var", "Neg", "Bin", "Call", "parse", "to_str", "names", "bind_eval",
           "compiled"]

CONSTANTS = {"pi": math.pi, "e": math.e}
_FN = {"sin": jet.sin, "cos": jet.cos, "exp": jet.exp, "log": jet.log,
       "sqrt": jet.sqrt, "abs": jet.fabs}


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
# tokenizer / parser: the tokenizer decides what a token is, Python's parser the rest

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


_PY_OPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div, "^": ast.Pow}
_OPS = {py: op for op, py in _PY_OPS.items()}
_GRAMMAR = ("number", "name", "operator + - * / ^", "call of " + ", ".join(_FN))


def parse(text: str) -> Ast:
    """Parse an expression; raises :class:`ExprSyntaxError` at the offending token.

    Python's parser reads the tokens, joined by spaces, with ``^`` as ``**``
    and each number as the float literal Python reads to the same value
    (``1e999`` for inf); one walk narrows its tree to the grammar above.
    """
    tokens = _tokenize(text)
    source = " ".join(repr(float(value)).replace("inf", "1e999") if kind == "num"
                      else "**" if value == "^" else value for kind, value, _ in tokens)

    def at(col: int) -> int:  # no token holds a space: token i follows i of them
        return source.count(" ", 0, col)

    def error(i: int, expected: tuple[str, ...]) -> ExprSyntaxError:
        kind, value, pos = tokens[i]
        return ExprSyntaxError(pos, expected, value if kind != "end" else "end of input")

    def walk(node: ast.expr) -> Ast:
        match node:
            case ast.Constant(float() as value):
                return Num(value)
            case ast.Name(name):
                return Num(CONSTANTS[name]) if name in CONSTANTS else Var(name)
            case ast.UnaryOp(ast.USub(), operand):
                return Neg(walk(operand))
            case ast.BinOp(left, op, right) if type(op) in _OPS:
                return Bin(_OPS[type(op)], walk(left), walk(right))
            # Python drops the parentheses of (sin)(q): the name must precede its '('
            case ast.Call(ast.Name(fn) as f, [arg], []) if (
                    fn in _FN and source.startswith(" (", f.end_col_offset)):
                return Call(fn, walk(arg))
        # at a keyword inside the node (if, and, None, ...), else at its first token
        first, last = at(node.col_offset), at(node.end_col_offset)
        raise error(next((i for i in range(first, last + 1) if keyword.iskeyword(tokens[i][1])),
                         first), _GRAMMAR)

    try:
        return walk(ast.parse(source, mode="eval").body)
    except SyntaxError as err:  # offset 0 is the end of input
        raise error(at(err.offset - 1 if err.offset else len(source)),
                    (f"a well-formed expression ({err.msg})",)) from None
    except (MemoryError, RecursionError):  # nested too deeply for the parser or the walk
        raise error(0, ("an expression nested less deeply",)) from None


# ---------------------------------------------------------------------------
# printer: Python's own, so parse(to_str(ast)) == ast

def _to_python(node: Ast) -> ast.expr:
    match node:
        case Num(value) if value < 0:  # as a negation, so the text re-parses
            return ast.UnaryOp(ast.USub(), ast.Constant(-value))
        case Num(value):
            return ast.Constant(value)
        case Var(name):
            return ast.Name(name)
        case Neg(operand):
            return ast.UnaryOp(ast.USub(), _to_python(operand))
        case Bin(op, left, right):
            return ast.BinOp(_to_python(left), _PY_OPS[op](), _to_python(right))
        case Call(fn, arg):
            return ast.Call(ast.Name(fn), [_to_python(arg)], [])


def to_str(node: Ast) -> str:
    """Render back to source text such that ``parse(to_str(ast)) == ast``."""
    return ast.unparse(_to_python(node)).replace("**", "^")


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

    return fn
