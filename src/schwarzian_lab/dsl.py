"""Tiny expression language for one-parameter analytic families f_n(z).

Grammar (whitespace between tokens is ignored)::

    expr    := term { ("+" | "-") term }
    term    := factor { ("*" | "/") factor }
    factor  := "-" factor | primary [ "^" integer ]
    primary := number | "z" | "n" | "i"
             | ("exp" | "log") "(" expr ")"
             | "(" expr ")"
    number  := digits [ "." digits ]
    integer := [ "-" ] digits

The caret needs an integer literal exponent and is non-associative, so
``z^2^3`` is a parse error.  It binds tighter than unary minus on its left
operand: ``-z^2`` reads as ``-(z^2)``.  There is no implicit
multiplication.  ``log`` is the principal branch.  The only identifiers
are ``z`` (the variable), ``n`` (the real family index), ``i``, ``exp``
and ``log``; anything else is a parse error.

Parse failures raise :class:`ParseError` with a character offset into the
source; evaluation failures raise :class:`EvalError` carrying the source
span of the offending subexpression.  Inputs are bounded so that no source
can exhaust the stack or run unbounded work: at most :data:`MAX_DEPTH`
levels of nesting, number literals within the double range, and integer
exponents of magnitude at most :data:`MAX_EXPONENT`.

Evaluation here is a walk of the tree, one ``jet_*`` operation per
node: :func:`eval_jet` at a point, and :func:`eval_jet_seeded` from a
seed jet.  The walk is the one function that dispatches on node kinds:
it takes its operations as a table per kind, of complex jets, of balls,
or of ``codegen``'s writer of lane functions.  A batch of samples takes
another path, which gives the same bits: ``codegen.eval_jet_lanes``
runs the lane function that ``codegen`` generates from the tree, by
this walk, once per family, statistic and process, and
hands each sample that failed, or might have, back to this walk, from
``jets.jet_var`` at its point, with a jet of the statistic's order
(``codegen.Statistic.order``).  The walk then fails only where a part of
that jet leaves the double range, as the lane function does.  At a
:class:`~.ball.Ball` point, or from a seed of balls, the same walk runs
the same operations on balls; it differs only in that each number
literal is a ball of half an ulp, so the result encloses the exact jet
of the expression as written.

A failed walk raises the :class:`EvalError` of its first failure, the one
a recursive evaluation would raise: a node's left operand before its
right, and both before the node's own operation; a redone sample takes
that failure's flag.  One sample's failure leaves the other samples'
values bit-identical, and every path gives the same bits.
"""

from __future__ import annotations

import cmath
import math
from typing import Tuple

from .ball import Ball, literal
from .jets import (
    _PLAIN,
    MAX_ORDER,
    Jet,
    JetError,
    _as_jet,
    jet_add,
    jet_const,
    jet_mul,
    jet_neg,
    jet_sub,
    jet_var,
)
from .record import Record, _set

__all__ = [
    "MAX_DEPTH",
    "MAX_EXPONENT",
    "Span",
    "Node",
    "Var",
    "Param",
    "ImagUnit",
    "ConstNum",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "PowInt",
    "Exp",
    "Log",
    "FamilyExpr",
    "ParseError",
    "EvalError",
    "parse",
    "pretty_print",
    "eval_jet",
    "eval_jet_seeded",
    "lex_number",
]

Span = Tuple[int, int]

# The parser recurses up to four frames per parenthesis, function call or
# unary minus, and compiling, evaluating, printing and pickling a tree
# recurse a few frames per level of it, so both nestings are capped well
# inside the interpreter's default limit of 1000 frames.
MAX_DEPTH = 100
# jet_pow_int multiplies |k| times
MAX_EXPONENT = 1000

_NO_SPAN: Span = (0, 0)


class Node(Record):
    """Base class for expression tree nodes.

    A node's fields are its operands and attributes, in order, then its
    source ``span``.  ``_compare`` names all but the span, which ``==``,
    the hash and the repr leave out; the tree's checks and walks read a
    node's children from it.
    """

    __slots__ = ()


class _Leaf(Node):
    __slots__ = _fields = ("span",)
    _compare = ()

    def __init__(self, span: Span = _NO_SPAN):
        _set(self, "span", span)


class Var(_Leaf):
    __slots__ = ()


class Param(_Leaf):
    __slots__ = ()


class ImagUnit(_Leaf):
    __slots__ = ()


class ConstNum(Node):
    __slots__ = _fields = ("value", "span")
    _compare = ("value",)

    def __init__(self, value: complex, span: Span = _NO_SPAN):
        _set(self, "value", value)
        _set(self, "span", span)


class _Binary(Node):
    __slots__ = _fields = ("lhs", "rhs", "span")
    _compare = ("lhs", "rhs")

    def __init__(self, lhs: Node, rhs: Node, span: Span = _NO_SPAN):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "span", span)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Neg(Node):
    __slots__ = _fields = ("operand", "span")
    _compare = ("operand",)

    def __init__(self, operand: Node, span: Span = _NO_SPAN):
        _set(self, "operand", operand)
        _set(self, "span", span)


class PowInt(Node):
    __slots__ = _fields = ("base", "exponent", "span")
    _compare = ("base", "exponent")

    def __init__(self, base: Node, exponent: int, span: Span = _NO_SPAN):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "span", span)


class _Call(Node):
    __slots__ = _fields = ("arg", "span")
    _compare = ("arg",)

    def __init__(self, arg: Node, span: Span = _NO_SPAN):
        _set(self, "arg", arg)
        _set(self, "span", span)


class Exp(_Call):
    __slots__ = ()


class Log(_Call):
    __slots__ = ()


class ParseError(ValueError):
    """Syntax error with a character offset into the source text."""

    def __init__(self, position: int, message: str, expected: str):
        super().__init__(f"parse error at offset {position}: {message}")
        self.position = position
        self.message = message
        self.expected = expected

    def __reduce__(self):
        return type(self), (self.position, self.message, self.expected), vars(self)


class EvalError(ArithmeticError):
    """Evaluation failure tagged with the offending subexpression's span."""

    def __init__(self, span: Span, message: str, point: complex | None = None):
        super().__init__(
            f"evaluation error at source span {span[0]}..{span[1]}: {message}"
        )
        self.span = span
        self.message = message
        self.point = point

    def __reduce__(self):
        return type(self), (self.span, self.message, self.point), vars(self)


class FamilyExpr(Record):
    """A parsed family expression; immutable once built.

    Structural equality compares the tree only, not the source text it was
    parsed from, and a family is unhashable.  A family holds nothing of its
    lane function: ``codegen.family`` keeps the last one made, with its
    tree, and an equal family (a fresh parse, an unpickled copy) takes it.
    """

    __slots__ = _fields = ("root", "source")
    _compare = ("root",)
    __hash__ = None

    def __init__(self, root: Node, source: str = ""):
        _set(self, "root", root)
        _set(self, "source", source)

    def __repr__(self):
        return f"FamilyExpr(root={self.root!r}, source={self.source!r})"


# ---------------------------------------------------------------------------
# lexer

_DIGITS = set("0123456789")
_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_RESERVED = {"z", "n", "i", "exp", "log"}


def lex_number(source: str, pos: int) -> tuple[str, int]:
    """Scan a ``digits[.digits]`` literal at ``pos``; returns (text, end)."""
    j = pos
    n = len(source)
    while j < n and source[j] in _DIGITS:
        j += 1
    if j == pos:
        raise ParseError(pos, "expected a number", "digits")
    if j < n and source[j] == ".":
        j += 1
        if j >= n or source[j] not in _DIGITS:
            raise ParseError(j, "expected digits after the decimal point", "digits")
        while j < n and source[j] in _DIGITS:
            j += 1
    text = source[pos:j]
    if not math.isfinite(float(text)):
        raise ParseError(pos, "number literal is beyond the double range", "at most 1.8e308")
    return text, j


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    # each token is (kind, text, pos): kind is "number", "ident", one of
    # "+-*/^()", or "eof"
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _DIGITS:
            text, j = lex_number(source, i)
            tokens.append(("number", text, i))
            i = j
            continue
        if ch in _LETTERS:
            j = i
            while j < n and (source[j] in _LETTERS or source[j] in _DIGITS):
                j += 1
            name = source[i:j]
            if name not in _RESERVED:
                raise ParseError(
                    i, f"unknown identifier {name!r}", "one of z, n, i, exp, log"
                )
            tokens.append(("ident", name, i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(i, f"unexpected character {ch!r}", "a valid token")
    tokens.append(("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser

_PRIMARY_EXPECTED = "a number, 'z', 'n', 'i', 'exp(', 'log(', '(' or unary '-'"
# the binary operators of each level, loosest first: an expression's, then a term's
_SUMS = {"+": Add, "-": Sub}
_PRODUCTS = {"*": Mul, "/": Div}


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # parentheses, calls and unary minuses now open

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> int:
        """The position of the next token, which must be a ``kind``."""
        got, _, pos = self.advance()
        if got != kind:
            raise ParseError(pos, f"expected {kind!r}", kind)
        return pos

    def nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(
                pos,
                f"more than {MAX_DEPTH} nested parentheses, calls and unary minuses",
                "a shallower expression",
            )

    def expression(self) -> Node:
        left = self.term()
        while (kind := _SUMS.get(self.peek()[0])) is not None:
            self.advance()
            right = self.term()
            left = kind(left, right, span=(left.span[0], right.span[1]))
        return left

    def term(self) -> Node:
        left = self.factor()
        while (kind := _PRODUCTS.get(self.peek()[0])) is not None:
            self.advance()
            right = self.factor()
            left = kind(left, right, span=(left.span[0], right.span[1]))
        return left

    def factor(self) -> Node:
        kind, _, pos = self.peek()
        if kind == "-":
            self.advance()
            self.nest(pos)
            operand = self.factor()
            self.depth -= 1
            return Neg(operand, span=(pos, operand.span[1]))
        base = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            k, end = self.int_literal()
            return PowInt(base, k, span=(base.span[0], end))
        return base

    def int_literal(self) -> tuple[int, int]:
        sign = 1
        kind, text, pos = self.peek()
        start = pos
        if kind == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "number" or "." in text:
            raise ParseError(pos, "exponent must be an integer literal", "an integer")
        self.advance()
        k = int(text)
        if k > MAX_EXPONENT:
            raise ParseError(
                start, f"exponent magnitude exceeds {MAX_EXPONENT}", "a smaller exponent"
            )
        return sign * k, pos + len(text)

    def primary(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            return ConstNum(complex(float(text)), span=(pos, pos + len(text)))
        if kind == "ident":
            self.advance()
            end = pos + len(text)
            if text == "z":
                return Var(span=(pos, end))
            if text == "n":
                return Param(span=(pos, end))
            if text == "i":
                return ImagUnit(span=(pos, end))
            self.expect("(")
            self.nest(pos)
            arg = self.expression()
            self.depth -= 1
            span = (pos, self.expect(")") + 1)
            return Exp(arg, span=span) if text == "exp" else Log(arg, span=span)
        if kind == "(":
            self.advance()
            self.nest(pos)
            inner = self.expression()
            self.depth -= 1
            # the parenthesized node, rebuilt once with the span of its parentheses
            span = (pos, self.expect(")") + 1)
            return type(inner)(*inner._key(inner), span=span)
        raise ParseError(pos, "expected a primary expression", _PRIMARY_EXPECTED)


def parse(source: str) -> FamilyExpr:
    """Parse source text into a :class:`FamilyExpr`, or raise ParseError."""
    parser = _Parser(_tokenize(source))
    root = parser.expression()
    kind, text, pos = parser.peek()
    if kind != "eof":
        raise ParseError(pos, f"unexpected token {text!r}", "end of input or an operator")
    _check_depth(root)
    return FamilyExpr(root, source)


def _check_depth(root: Node) -> None:
    # a chain like z+z+...+z deepens the tree without deepening the
    # parser's recursion, so the tree is measured on its own, iteratively
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(
                node.span[0],
                f"expression tree deeper than {MAX_DEPTH} operators",
                "a shallower expression",
            )
        stack.extend((c, depth + 1) for c in node._key(node) if isinstance(c, Node))


# ---------------------------------------------------------------------------
# pretty printer

# minimum context precedence at which each construct may appear bare
_LEVEL_SUM = 1
_LEVEL_PRODUCT = 2
_LEVEL_UNARY = 3
_LEVEL_POWER = 4
_LEVEL_ATOM = 9
# each binary node's symbol and level, from the parser's tables: a right
# operand binds one level tighter, as the operators are left-associative
_BINARY = {
    kind: (symbol, level)
    for level, table in ((_LEVEL_SUM, _SUMS), (_LEVEL_PRODUCT, _PRODUCTS))
    for symbol, kind in table.items()
}


def _format_number(value: complex) -> str:
    # the grammar's number token is a plain nonnegative decimal; parser
    # produced constants are always of that shape
    if value.imag != 0.0 or value.real < 0.0:
        raise ValueError(f"constant {value!r} is not a grammar number literal")
    re = value.real
    if re == int(re) and abs(re) < 1e16:
        return repr(int(re))
    text = repr(re)
    if "e" in text or "E" in text:
        from decimal import Decimal  # only the printer needs it

        text = format(Decimal(text), "f")
    return text


def _pp(node: Node, ctx: int) -> str:
    if isinstance(node, Var):
        return "z"
    if isinstance(node, Param):
        return "n"
    if isinstance(node, ImagUnit):
        return "i"
    if isinstance(node, ConstNum):
        return _format_number(node.value)
    if isinstance(node, Exp):
        return f"exp({_pp(node.arg, 0)})"
    if isinstance(node, Log):
        return f"log({_pp(node.arg, 0)})"
    if type(node) in _BINARY:
        symbol, level = _BINARY[type(node)]
        text = f"{_pp(node.lhs, level)}{symbol}{_pp(node.rhs, level + 1)}"
    elif isinstance(node, Neg):
        text = f"-{_pp(node.operand, _LEVEL_UNARY)}"
        level = _LEVEL_UNARY
    elif isinstance(node, PowInt):
        text = f"{_pp(node.base, _LEVEL_ATOM)}^{node.exponent}"
        level = _LEVEL_POWER
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if level < ctx:
        return f"({text})"
    return text


def pretty_print(expr: FamilyExpr | Node) -> str:
    """Render a tree back to source text with a minimal set of parentheses.

    Reparsing the output of ``pretty_print`` always reproduces the tree it
    was given, up to source spans.
    """
    node = expr.root if isinstance(expr, FamilyExpr) else expr
    return _pp(node, 0)


# ---------------------------------------------------------------------------
# evaluation: a tree walk

# the operation the walk calls per node, at any jet length, the guarded
# ones jets' plain node operations; a literal takes its seed's order
_JET_OPS = {
    ConstNum: jet_const, Add: jet_add, Sub: jet_sub, Mul: jet_mul, Div: _PLAIN.quotient,
    Neg: jet_neg, Exp: _PLAIN.exp, Log: _PLAIN.log, PowInt: _PLAIN.power,
}
# i's jet per order
_I = tuple(jet_const(1j, k) for k in range(MAX_ORDER + 1))


def _ball_jet(j: Jet, ball=Ball) -> Jet:
    # a constant's jet with its value made a ball: exact, or a literal's
    return _as_jet((ball(j[0]), *j[1:]))


# a ball evaluation differs only in its literals, each known only to half
# an ulp, the rounding of its text; n and i are exact (_walked)
_BALL_OPS = {**_JET_OPS, ConstNum: lambda c, order: _ball_jet(jet_const(c, order), literal)}


def _walk(node: Node, ops: dict, leaves: dict, point):
    # one operation per node, ``ops[kind]``, its operands first, the left
    # before the right, a leaf's value from ``leaves``; the first failure,
    # a JetError, raises its EvalError, labelled with point
    kind = type(node)
    if kind in leaves:
        return leaves[kind]
    if kind is ConstNum:
        return ops[kind](node.value, len(leaves[Var]) - 1)
    if kind is PowInt:
        args = (_walk(node.base, ops, leaves, point), node.exponent)
    elif kind is Neg:
        args = (_walk(node.operand, ops, leaves, point),)
    elif kind is Exp or kind is Log:
        args = (_walk(node.arg, ops, leaves, point),)
    else:
        args = (_walk(node.lhs, ops, leaves, point), _walk(node.rhs, ops, leaves, point))
    try:
        return ops[kind](*args)
    except JetError as exc:
        raise EvalError(node.span, str(exc), point) from exc


def _walked(root: Node, n: float, seed: Jet, point) -> Jet:
    # one evaluation of a tree by the walk, of the seed's order, on balls
    # where the seed's value is a ball, raising the EvalError of its first
    # failure, labelled with the point (a ball's midpoint)
    order = len(seed) - 1
    ops, nj, i = _JET_OPS, jet_const(n, order), _I[order]
    if type(seed[0]) is Ball:
        ops, nj, i, point = _BALL_OPS, _ball_jet(nj), _ball_jet(i), complex(point)
    return _walk(root, ops, {Var: seed, Param: nj, ImagUnit: i}, point)


def eval_jet(expr: FamilyExpr, n: float, z: complex | Ball, *, order: int = 3) -> Jet:
    """Evaluate the jet of f_n at z, of order ``order``: its order + 1 parts.

    The family index n is real and enters the arithmetic as a complex
    number with zero imaginary part.  At a :class:`~.ball.Ball` z the jet's
    parts are balls: their midpoints are the jet at z's midpoint, bit for
    bit, and each encloses that derivative of the expression as written
    (every literal the number its text names) at every point of z's ball.
    The order runs from 0 to ``jets.MAX_ORDER``, at a point or a ball; any
    other raises ValueError.  The jet's parts are the first parts of a jet
    of any higher order, bit for bit; the evaluation fails where one of
    its parts leaves the double range, as a statistic of that order is
    redone.  ``bound`` takes f(z0) and f(z) at order 1 so.
    """
    seed = jet_var(z, order)
    return _walked(expr.root, n, seed, seed[0])


def eval_jet_seeded(expr: FamilyExpr, n: float, seed: Jet, point: complex | None = None) -> Jet:
    """Evaluate with the variable leaf seeded by an arbitrary jet.

    Seeding with the jet of another function g at z computes the jet of the
    composition f_n(g(z)) by the chain rule; ``point`` only labels errors.
    The result is of the seed's order, which runs from 0 to
    ``jets.MAX_ORDER`` (ValueError otherwise).  A seed whose value is a
    ball evaluates on balls, as :func:`eval_jet`.  A seed with a part that
    is not finite, a ball's by its midpoint, raises ValueError, as
    ``jets.jet_var`` refuses such a point: no jet holds one.
    """
    if not 1 <= len(seed) <= MAX_ORDER + 1:  # the seed's order is first read here
        raise ValueError(f"a jet's order runs from 0 to {MAX_ORDER}, not {len(seed) - 1}")
    if not all(map(cmath.isfinite, seed)):
        raise ValueError("eval_jet_seeded requires a seed of finite parts")
    seed = _as_jet(seed)
    return _walked(expr.root, n, seed, seed[0] if point is None else point)

