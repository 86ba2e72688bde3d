"""Tiny arithmetic expression language for curvature functions of s.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right associative
    atom   := NUMBER | 's' | 'pi' | 'e'
            | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sin | cos | tan | exp | log | sqrt | abs

'^' binds tighter than unary minus, so -s^2 means -(s^2). Parse errors
carry the byte offset of the offending token.

A parse tree is data: every node is one Expr record (op, args). op is
"num" (args is the value alone), "s", "pi" or "e" (no args), "neg", a
binary operator, or a function name; args holds the operand nodes.
Equality, hashing and repr are the tuple's. One table, _BINARY, gives
each binary operator its function and its printer levels, and both
evaluation and printing read it. The printer emits a canonical form that
re-parses to an equal tree. number() builds a constant as the tree its
text parses to, so a numeric curvature round-trips through its text too.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import (EvaluationError, ExpressionSyntaxError,
                     UnknownIdentifierError)

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

# printer precedence levels
_LVL_ADD, _LVL_MUL, _LVL_NEG, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5

# op: (function, level of the node, of its left operand, of its right one);
# ^ is right associative and binds above unary minus
_BINARY = {
    "+": (operator.add, _LVL_ADD, _LVL_ADD, _LVL_MUL),
    "-": (operator.sub, _LVL_ADD, _LVL_ADD, _LVL_MUL),
    "*": (operator.mul, _LVL_MUL, _LVL_MUL, _LVL_NEG),
    "/": (np.divide, _LVL_MUL, _LVL_MUL, _LVL_NEG),
    "^": (np.power, _LVL_POW, _LVL_ATOM, _LVL_NEG),
}


class Expr(NamedTuple):
    """A parse-tree node (op, args); see the module docstring."""

    op: str
    args: tuple = ()

    def __call__(self, s):
        """Evaluate at a scalar or ndarray s; raise on non-finite results."""
        arr = np.asarray(s, dtype=float)
        with np.errstate(all="ignore"):
            out = np.asarray(_eval(self, arr), dtype=float)
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape).copy()
        bad = ~np.isfinite(out)
        if np.any(bad):
            where = arr[bad].ravel()[0] if arr.shape else float(arr)
            raise EvaluationError(
                f"expression '{self}' is not finite at s = {where}")
        if arr.ndim == 0:
            return float(out)
        return out

    def to_text(self) -> str:
        return _text(self, _LVL_ADD)

    def __str__(self) -> str:
        return self.to_text()


def number(value) -> Expr:
    """The constant `value` as the tree its text parses to: a negative
    value, -0.0 included, is the negation of its magnitude."""
    v = float(value)
    if math.copysign(1.0, v) < 0.0:
        return Expr("neg", (Expr("num", (-v,)),))
    return Expr("num", (v,))


def _eval(node: Expr, s):
    op, args = node
    if op == "num":
        return args[0]
    if op == "s":
        return s
    if op in CONSTANTS:
        return CONSTANTS[op]
    if op == "neg":
        return -_eval(args[0], s)
    if op in _BINARY:
        return _BINARY[op][0](_eval(args[0], s), _eval(args[1], s))
    return FUNCTIONS[op](_eval(args[0], s))


def _text(node: Expr, level: int) -> str:
    op, args = node
    if op == "num":
        v = args[0]
        return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if op in FUNCTIONS:
        return f"{op}({_text(args[0], _LVL_ADD)})"
    if op == "neg":
        mine, text = _LVL_NEG, "-" + _text(args[0], _LVL_NEG)
    elif op in _BINARY:
        _, mine, left, right = _BINARY[op]
        text = f"{_text(args[0], left)}{op}{_text(args[1], right)}"
    else:  # s, pi, e
        return op
    return f"({text})" if level > mine else text


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def next(self):
        """Return (kind, value, offset); kind EOF at end of input."""
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos] in " \t\r\n":
            self.pos += 1
        if self.pos >= n:
            return ("EOF", "", n)
        start = self.pos
        ch = text[start]
        if ch in "+-*/^()":
            self.pos += 1
            kind = {"(": "LPAREN", ")": "RPAREN"}.get(ch, "OP")
            return (kind, ch, start)
        if ch.isdigit() or ch == ".":
            i = start
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lit = text[start:i]
            try:
                value = float(lit)
            except ValueError:
                raise ExpressionSyntaxError(f"bad number literal {lit!r}",
                                            offset=start) from None
            self.pos = i
            return ("NUM", value, start)
        if ch.isalpha() or ch == "_":
            i = start
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            self.pos = i
            return ("IDENT", text[start:i], start)
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", offset=start)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _Tokenizer(text)
        self.tok = self.tokens.next()

    def advance(self):
        self.tok = self.tokens.next()

    def expect(self, kind, what):
        if self.tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {what}", offset=self.tok[2])
        value = self.tok[1]
        self.advance()
        return value

    def parse(self) -> Expr:
        node = self.expr()
        if self.tok[0] != "EOF":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {self.tok[1]!r}", offset=self.tok[2])
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.tok[0] == "OP" and self.tok[1] in "+-":
            op = self.tok[1]
            self.advance()
            node = Expr(op, (node, self.term()))
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.tok[0] == "OP" and self.tok[1] in "*/":
            op = self.tok[1]
            self.advance()
            node = Expr(op, (node, self.unary()))
        return node

    def unary(self) -> Expr:
        if self.tok[0] == "OP" and self.tok[1] == "-":
            self.advance()
            return Expr("neg", (self.unary(),))
        if self.tok[0] == "OP" and self.tok[1] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.tok[0] == "OP" and self.tok[1] == "^":
            self.advance()
            node = Expr("^", (node, self.unary()))
        return node

    def atom(self) -> Expr:
        kind, value, offset = self.tok
        if kind == "NUM":
            self.advance()
            return Expr("num", (value,))
        if kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        if kind == "IDENT":
            self.advance()
            if value == "s" or value in CONSTANTS:
                return Expr(value)
            if value in FUNCTIONS:
                self.expect("LPAREN", f"'(' after function {value!r}")
                arg = self.expr()
                self.expect("RPAREN", "')'")
                return Expr(value, (arg,))
            raise UnknownIdentifierError(f"unknown identifier {value!r}",
                                         offset=offset)
        raise ExpressionSyntaxError("expected a number, name, or '('",
                                    offset=offset)


def parse_expression(text: str) -> Expr:
    """Parse an expression in s; raises ExpressionSyntaxError with offset."""
    if not isinstance(text, str):
        raise TypeError(f"expected an expression string, got {type(text)}")
    return _Parser(text).parse()
