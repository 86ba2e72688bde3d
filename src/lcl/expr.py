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
carry the byte offset of the offending token. The printer emits a
canonical form that re-parses to an identical tree.
"""

from __future__ import annotations

import math

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


class Expr:
    """Base class of the parse-tree nodes. A node is never changed once
    built; its fields are its __slots__, which equality, hashing and repr
    read, so two parses of one text compare equal."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def _eval(self, s):
        raise NotImplementedError

    def _text(self, level: int) -> str:
        raise NotImplementedError

    def __call__(self, s):
        """Evaluate at a scalar or ndarray s; raise on non-finite results."""
        arr = np.asarray(s, dtype=float)
        with np.errstate(all="ignore"):
            out = np.asarray(self._eval(arr), dtype=float)
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
        return self._text(_LVL_ADD)

    def __str__(self) -> str:
        return self.to_text()


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def _eval(self, s):
        return self.value

    def _text(self, level):
        v = self.value
        return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)


class Var(Expr):
    __slots__ = ()

    def _eval(self, s):
        return s

    def _text(self, level):
        return "s"


class Const(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _eval(self, s):
        return CONSTANTS[self.name]

    def _text(self, level):
        return self.name


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def _eval(self, s):
        return -self.operand._eval(s)

    def _text(self, level):
        inner = self.operand._text(_LVL_NEG)
        text = "-" + inner
        return f"({text})" if level > _LVL_NEG else text


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op  # one of + - * / ^
        self.left = left
        self.right = right

    def _eval(self, s):
        a = self.left._eval(s)
        b = self.right._eval(s)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            with np.errstate(all="ignore"):
                return np.divide(a, b)
        return np.power(a, b)

    def _text(self, level):
        if self.op in "+-":
            mine, left_lvl, right_lvl = _LVL_ADD, _LVL_ADD, _LVL_MUL
        elif self.op in "*/":
            mine, left_lvl, right_lvl = _LVL_MUL, _LVL_MUL, _LVL_NEG
        else:  # ^ is right associative and binds above unary minus
            mine, left_lvl, right_lvl = _LVL_POW, _LVL_ATOM, _LVL_NEG
        text = f"{self.left._text(left_lvl)}{self.op}{self.right._text(right_lvl)}"
        return f"({text})" if level > mine else text


class Call(Expr):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        self.func = func
        self.arg = arg

    def _eval(self, s):
        return FUNCTIONS[self.func](self.arg._eval(s))

    def _text(self, level):
        return f"{self.func}({self.arg._text(_LVL_ADD)})"


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
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.tok[0] == "OP" and self.tok[1] in "*/":
            op = self.tok[1]
            self.advance()
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.tok[0] == "OP" and self.tok[1] == "-":
            self.advance()
            return Neg(self.unary())
        if self.tok[0] == "OP" and self.tok[1] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.tok[0] == "OP" and self.tok[1] == "^":
            self.advance()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        kind, value, offset = self.tok
        if kind == "NUM":
            self.advance()
            return Num(float(value))
        if kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        if kind == "IDENT":
            self.advance()
            if value == "s":
                return Var()
            if value in CONSTANTS:
                return Const(value)
            if value in FUNCTIONS:
                self.expect("LPAREN", f"'(' after function {value!r}")
                arg = self.expr()
                self.expect("RPAREN", "')'")
                return Call(value, arg)
            raise UnknownIdentifierError(f"unknown identifier {value!r}",
                                         offset=offset)
        raise ExpressionSyntaxError("expected a number, name, or '('",
                                    offset=offset)


def parse_expression(text: str) -> Expr:
    """Parse an expression in s; raises ExpressionSyntaxError with offset."""
    if not isinstance(text, str):
        raise TypeError(f"expected an expression string, got {type(text)}")
    return _Parser(text).parse()
