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

One compiled tree walker evaluates every expression, over a batch of
lanes at once: a lane is one evaluation, (n, seed jet, point), and each
node's closure runs once per batch, with its jet operation applied to all
lanes by a lane kernel from ``jets``.  :func:`eval_jet_lanes` returns one
entry per lane, its jet or the :class:`EvalError` of its first failure;
:func:`eval_jet`, :func:`eval_jet_seeded` and :func:`eval_jet_bounded`
are one-lane calls that raise that error.  The first failure is the one a
recursive evaluation would raise: a node's left operand before its right,
and both before the node's own operation.  Later nodes pass a failed
lane's error through untouched and never raise it, so one lane's failure
leaves the other lanes' jets bit-identical.  The bounded walker, behind
:func:`eval_jet_bounded`, runs the ``bounded_*`` twins of the operations
lane by lane and yields the same jets together with their error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from decimal import Decimal
from typing import Callable, NamedTuple, Tuple

from .jets import (
    BoundedJet,
    ComplexJet3,
    JetError,
    _as_jet,
    bounded_add,
    bounded_const,
    bounded_div,
    bounded_exact,
    bounded_exp,
    bounded_log,
    bounded_mul,
    bounded_neg,
    bounded_sub,
    jet_const,
    jet_pow_int,
    jet_var,
    lanes_add,
    lanes_div,
    lanes_exp,
    lanes_log,
    lanes_mul,
    lanes_neg,
    lanes_sub,
)

__all__ = [
    "MAX_DEPTH",
    "MAX_EXPONENT",
    "LANE_BLOCK",
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
    "eval_jet_bounded",
    "eval_jet_lanes",
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


class Node:
    """Base class for expression tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Node):
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Param(Node):
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class ImagUnit(Node):
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class ConstNum(Node):
    value: complex
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Add(Node):
    lhs: Node
    rhs: Node
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Sub(Node):
    lhs: Node
    rhs: Node
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Mul(Node):
    lhs: Node
    rhs: Node
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Div(Node):
    lhs: Node
    rhs: Node
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Neg(Node):
    operand: Node
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class PowInt(Node):
    base: Node
    exponent: int
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Exp(Node):
    arg: Node
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Log(Node):
    arg: Node
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


class ParseError(ValueError):
    """Syntax error with a character offset into the source text."""

    def __init__(self, position: int, message: str, expected: str):
        super().__init__(f"parse error at offset {position}: {message}")
        self.position = position
        self.message = message
        self.expected = expected


class EvalError(ArithmeticError):
    """Evaluation failure tagged with the offending subexpression's span."""

    def __init__(self, span: Span, message: str, point: complex | None = None):
        super().__init__(
            f"evaluation error at source span {span[0]}..{span[1]}: {message}"
        )
        self.span = span
        self.message = message
        self.point = point


@dataclass(eq=True)
class FamilyExpr:
    """A parsed family expression; immutable once built.

    Structural equality compares the tree only, not the source text it was
    parsed from.  Instances are safe to share across scan worker processes.
    """

    root: Node
    source: str = field(default="", compare=False)

    def __post_init__(self):
        self._compiled = None

    def __getstate__(self):
        return {"root": self.root, "source": self.source}

    def __setstate__(self, state):
        self.root = state["root"]
        self.source = state["source"]
        self._compiled = None


# ---------------------------------------------------------------------------
# lexer

_DIGITS = set("0123456789")
_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_RESERVED = {"z", "n", "i", "exp", "log"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "ident", one of "+-*/^()", or "eof"
    text: str
    pos: int


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


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _DIGITS:
            text, j = lex_number(source, i)
            tokens.append(_Token("number", text, i))
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
            tokens.append(_Token("ident", name, i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(i, f"unexpected character {ch!r}", "a valid token")
    tokens.append(_Token("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser

_PRIMARY_EXPECTED = "a number, 'z', 'n', 'i', 'exp(', 'log(', '(' or unary '-'"


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # parentheses, calls and unary minuses now open

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, f"expected {kind!r}", kind)
        return self.advance()

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
        while True:
            kind = self.peek().kind
            if kind == "+":
                self.advance()
                right = self.term()
                left = Add(left, right, span=(left.span[0], right.span[1]))
            elif kind == "-":
                self.advance()
                right = self.term()
                left = Sub(left, right, span=(left.span[0], right.span[1]))
            else:
                return left

    def term(self) -> Node:
        left = self.factor()
        while True:
            kind = self.peek().kind
            if kind == "*":
                self.advance()
                right = self.factor()
                left = Mul(left, right, span=(left.span[0], right.span[1]))
            elif kind == "/":
                self.advance()
                right = self.factor()
                left = Div(left, right, span=(left.span[0], right.span[1]))
            else:
                return left

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            self.nest(tok.pos)
            operand = self.factor()
            self.depth -= 1
            return Neg(operand, span=(tok.pos, operand.span[1]))
        base = self.primary()
        if self.peek().kind == "^":
            self.advance()
            k, end = self.int_literal()
            return PowInt(base, k, span=(base.span[0], end))
        return base

    def int_literal(self) -> tuple[int, int]:
        sign = 1
        tok = self.peek()
        start = tok.pos
        if tok.kind == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "number" or "." in tok.text:
            raise ParseError(
                tok.pos, "exponent must be an integer literal", "an integer"
            )
        self.advance()
        k = int(tok.text)
        if k > MAX_EXPONENT:
            raise ParseError(
                start, f"exponent magnitude exceeds {MAX_EXPONENT}", "a smaller exponent"
            )
        return sign * k, tok.pos + len(tok.text)

    def primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = complex(float(tok.text))
            return ConstNum(value, span=(tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "ident":
            self.advance()
            end = tok.pos + len(tok.text)
            if tok.text == "z":
                return Var(span=(tok.pos, end))
            if tok.text == "n":
                return Param(span=(tok.pos, end))
            if tok.text == "i":
                return ImagUnit(span=(tok.pos, end))
            self.expect("(")
            self.nest(tok.pos)
            arg = self.expression()
            self.depth -= 1
            rp = self.expect(")")
            span = (tok.pos, rp.pos + 1)
            return Exp(arg, span=span) if tok.text == "exp" else Log(arg, span=span)
        if tok.kind == "(":
            self.advance()
            self.nest(tok.pos)
            inner = self.expression()
            self.depth -= 1
            rp = self.expect(")")
            return replace(inner, span=(tok.pos, rp.pos + 1))
        raise ParseError(tok.pos, "expected a primary expression", _PRIMARY_EXPECTED)


def parse(source: str) -> FamilyExpr:
    """Parse source text into a :class:`FamilyExpr`, or raise ParseError."""
    parser = _Parser(_tokenize(source))
    root = parser.expression()
    tail = parser.peek()
    if tail.kind != "eof":
        raise ParseError(
            tail.pos, f"unexpected token {tail.text!r}", "end of input or an operator"
        )
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
        stack.extend((c, depth + 1) for c in vars(node).values() if isinstance(c, Node))


# ---------------------------------------------------------------------------
# pretty printer

# minimum context precedence at which each construct may appear bare
_LEVEL_SUM = 1
_LEVEL_PRODUCT = 2
_LEVEL_UNARY = 3
_LEVEL_POWER = 4
_LEVEL_ATOM = 9


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
    if isinstance(node, Add):
        text = f"{_pp(node.lhs, _LEVEL_SUM)}+{_pp(node.rhs, _LEVEL_PRODUCT)}"
        level = _LEVEL_SUM
    elif isinstance(node, Sub):
        text = f"{_pp(node.lhs, _LEVEL_SUM)}-{_pp(node.rhs, _LEVEL_PRODUCT)}"
        level = _LEVEL_SUM
    elif isinstance(node, Mul):
        text = f"{_pp(node.lhs, _LEVEL_PRODUCT)}*{_pp(node.rhs, _LEVEL_UNARY)}"
        level = _LEVEL_PRODUCT
    elif isinstance(node, Div):
        text = f"{_pp(node.lhs, _LEVEL_PRODUCT)}/{_pp(node.rhs, _LEVEL_UNARY)}"
        level = _LEVEL_PRODUCT
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
# evaluation

# lanes walked at once: a node keeps one list of this many jets alive
# while its other operand is evaluated, so this bounds the memory a
# batch can take at MAX_DEPTH lists of it
LANE_BLOCK = 1024

# (n jets, variable jets) -> one entry per lane: a jet, or the EvalError of
# the lane's first failure
_Compiled = Callable[[list, list], list]


class _Ops(NamedTuple):
    """The arithmetic the walker runs on, one lane operation per node kind.

    ``lift`` and ``const`` make one value at compile time; every other
    entry takes its operands' lane lists and the node's ``fail``.
    """

    lift: Callable  # an exactly known ComplexJet3 into this arithmetic
    const: Callable
    neg: Callable
    add: Callable
    sub: Callable
    mul: Callable
    div: Callable
    exp: Callable
    log: Callable


def _same(j: ComplexJet3) -> ComplexJet3:
    return j


def _per_lane(op: Callable) -> Callable:
    """Lift a one-jet operation to lanes, with the kernels' failure rule.

    A lane whose operand failed keeps that failure (the left operand's,
    where both did); a lane the operation fails on gets ``fail(exc)``.
    """

    def run(*args):
        *operands, fail = args
        out = []
        for lane in zip(*operands):
            failed = [x for x in lane if isinstance(x, EvalError)]
            if failed:
                out.append(failed[0])
                continue
            try:
                out.append(op(*lane))
            except JetError as exc:
                out.append(fail(exc))
        return out

    return run


def _ops(bounded: bool) -> _Ops:
    # built from this module's names each time a family is compiled, not
    # once at import, so that rebinding them (bench/tracer.py does, to
    # count jet operations per layer) reaches the compiled walker
    if bounded:
        return _Ops(
            bounded_exact, bounded_const, *map(_per_lane, (
                bounded_neg, bounded_add, bounded_sub, bounded_mul,
                bounded_div, bounded_exp, bounded_log,
            )),
        )
    return _Ops(
        _same, jet_const, lanes_neg, lanes_add, lanes_sub, lanes_mul, lanes_div,
        lanes_exp, lanes_log,
    )


def _failure(span: Span) -> Callable[[JetError], EvalError]:
    # the lane's point is filled in once the batch is done
    def fail(exc: JetError) -> EvalError:
        err = EvalError(span, str(exc))
        err.__cause__ = exc
        return err

    return fail


def _compile(node: Node, ops: _Ops) -> _Compiled:
    # each closure maps the lanes' n jets N and variable jets Z to one
    # entry per lane: operands run lhs first, then the node's own operation
    if isinstance(node, Var):
        return lambda N, Z: Z
    if isinstance(node, Param):
        return lambda N, Z: N
    if isinstance(node, (ImagUnit, ConstNum)):
        cj = ops.lift(jet_const(1j)) if isinstance(node, ImagUnit) else ops.const(node.value)
        return lambda N, Z: [cj] * len(Z)

    fail = _failure(node.span)
    if isinstance(node, (Add, Sub, Mul, Div)):
        fa = _compile(node.lhs, ops)
        fb = _compile(node.rhs, ops)
        op = {Add: ops.add, Sub: ops.sub, Mul: ops.mul, Div: ops.div}[type(node)]
        return lambda N, Z: op(fa(N, Z), fb(N, Z), fail)
    if isinstance(node, (Neg, Exp, Log)):
        fa = _compile(node.arg if isinstance(node, (Exp, Log)) else node.operand, ops)
        op = {Neg: ops.neg, Exp: ops.exp, Log: ops.log}[type(node)]
        return lambda N, Z: op(fa(N, Z), fail)
    if isinstance(node, PowInt):
        fa = _compile(node.base, ops)
        k = node.exponent
        one = ops.lift(jet_const(1.0))
        mul, div = ops.mul, ops.div

        def run_pow(N, Z):
            U = fa(N, Z)
            # x^0 is one, but a failed base still fails
            ones = [u if isinstance(u, EvalError) else one for u in U] if k <= 0 else None
            return jet_pow_int(
                U, k, lambda A, B: mul(A, B, fail), lambda A, B: div(A, B, fail), ones
            )

        return run_pow
    raise TypeError(f"not an expression node: {node!r}")


def _compiled(expr: FamilyExpr) -> _Compiled:
    fn = expr._compiled
    if fn is None:
        fn = _compile(expr.root, _ops(bounded=False))
        expr._compiled = fn
    return fn


def _one_lane(fn: _Compiled, nj, seed, point, finish=_as_jet):
    # the one lane's jet, or its failure raised
    (j,) = fn([nj], [seed])
    if isinstance(j, EvalError):
        j.point = point
        raise j
    return finish(j)


def eval_jet_lanes(expr: FamilyExpr, n: float, seeds) -> list:
    """Evaluate f_n once per lane in one walk of the expression tree.

    Lane k has the variable leaf seeded by ``seeds[k]``, a jet, as in
    :func:`eval_jet_seeded`; the seed's value labels the lane's errors.
    Returns one entry per lane: its :class:`ComplexJet3`, or the
    :class:`EvalError` of its first failure, which is the one the single
    evaluation would raise.  Each lane's jet is bit-identical to the
    single evaluation's.  The lanes are walked LANE_BLOCK at a time.
    """
    fn = _compiled(expr)
    nj = jet_const(complex(n))
    out = []
    for start in range(0, len(seeds), LANE_BLOCK):
        Z = seeds[start : start + LANE_BLOCK]
        out += fn([nj] * len(Z), Z)
    try:
        return list(map(_as_jet, out))
    except TypeError:  # some lane failed: an EvalError is not iterable
        pass
    for k, j in enumerate(out):
        if isinstance(j, EvalError):
            j.point = seeds[k].v
        else:
            out[k] = _as_jet(j)
    return out


def eval_jet(expr: FamilyExpr, n: float, z: complex) -> ComplexJet3:
    """Evaluate the order-3 jet of f_n at z.

    The family index n is real and enters the arithmetic as a complex
    number with zero imaginary part.
    """
    z = complex(z)
    return _one_lane(_compiled(expr), jet_const(complex(n)), jet_var(z), z)


def eval_jet_seeded(
    expr: FamilyExpr, n: float, seed: ComplexJet3, point: complex | None = None
) -> ComplexJet3:
    """Evaluate with the variable leaf seeded by an arbitrary jet.

    Seeding with the jet of another function g at z computes the jet of the
    composition f_n(g(z)) by the chain rule; ``point`` only labels errors.
    """
    at = seed.v if point is None else point
    return _one_lane(_compiled(expr), jet_const(complex(n)), seed, at)


def eval_jet_bounded(
    expr: FamilyExpr, n: float, seed: BoundedJet, point: complex | None = None
) -> BoundedJet:
    """:func:`eval_jet_seeded` with a first-order running error bound.

    The jet is bit-identical to the unbounded evaluation with the seed's
    jet; ``err`` bounds its distance from the exact jet of the expression
    at the seed's exact value, with the seed's own ``err`` carried in and
    every literal taken as known only to half an ulp (``n`` and ``i`` are
    exact).  Seed with ``bounded_exact(jet_var(z))`` for f_n at a point z.
    The walker is compiled anew on each call, since bounds are wanted
    only where a fixed tolerance could not decide.
    """
    at = seed.jet.v if point is None else point
    nj = bounded_exact(jet_const(complex(n)))
    fn = _compile(expr.root, _ops(bounded=True))
    return _one_lane(fn, nj, seed, at, finish=_same)  # bounded ops build BoundedJets
