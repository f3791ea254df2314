"""The batch path: a statistic over groups of samples, by Python source generated per family.

The lane function evaluates f_n at groups of samples of one family, one
lane per sample, in one loop of straight-line code, as sympy's
``lambdify`` compiles an expression, and :func:`family` keeps the last
one made in this process.  :func:`eval_jet_lanes` runs it on every
batch, a family's first included, and hands every sample it redoes to
the tree walk of ``dsl``, which also serves the single-point calls (one
point, another seed, a ball).  It returns a statistic, never
jets: a lane is one sample, one point, walked once at the statistic's
order (1 to 5), and the lane function runs the statistic's formula
inline on the sample's jet.  A call covers groups of samples, a grid
point's or a segment's, and keeps only each group's largest statistic,
or the largest of each of its slots, and the flags of its failed
samples.  The scans and ``bound`` (max |f'|) keep one slot; the
``hypotheses`` floor sweep keeps four: -|f'|, |f''|, |f'''| and |S|.  For
a statistic with an ascent (``scan-sd``'s), the same call then refines
each group's largest by a few steps of ascent inside the group's disk,
from the sample that gave it, so a ``scan-sd`` family has one lane
function.

It walks the tree by ``dsl``'s one walk, whose operation per node kind
here runs the jet formulas of ``jets`` on symbolic values (``_Sym``) to
write straight-line source, and it runs a statistic's formula on the
inputs of ``jets``' trace (``_Trace``), one line per traced operation,
folding nothing.  The guarded node operations, the reciprocal, the
quotient, exp, log and the integer power, are ``jets``' own
(``jets._Jets``): the writer overrides their hooks alone, so a refusal
rule is written from its source test in ``jets`` and stated nowhere
here.  A symbolic value knows, per float part, either the part exactly
(a float) or what little is certain of it before run time (a
``_Part``).  An operation whose result is then
exactly known, or is exactly an existing value, emits no code; any other
operation emits one line, but only once something emitted uses it.  Every
rule below is exact in IEEE arithmetic, signed zeros included, so the
generated code computes bit for bit what the ``jet_*`` operations would.
The rules assume finite operands: a value is thrown away only when it is
known to be finite, and the emitted checks catch every lane on which a
node leaves the finite range in a part of its jet, of the statistic's
order (see ``_lanes_source``).
"""

from __future__ import annotations

import cmath
import math
import re
from functools import partial
from typing import Callable, NamedTuple

from .dsl import (
    _I,
    Add,
    ConstNum,
    Div,
    EvalError,
    Exp,
    FamilyExpr,
    ImagUnit,
    Log,
    Mul,
    Neg,
    Node,
    Param,
    PowInt,
    Sub,
    Var,
    _walk,
    _walked,
)
from .jets import (
    VAR_D1,
    ZERO,
    _NEGATION,
    JetError,
    OverflowAtPoint,
    _Hot,
    _Jets,
    _Trace,
    _chain,
    _difference,
    _inverse,
    _log_inverse,
    _product,
    _sum,
    jet_const,
    jet_pow_int,
    jet_var,
)
from .schwarzian import (
    _DEGENERATE_TEST,
    CRITICAL_POINT_FLOOR,
    _critical,
    _degenerate,
    _free_of,
    _mobius_parts,
    _peel,
)

# an integer power up to this exponent is written out as products; a
# larger one calls jet_pow_int
_INLINE_POWER = 8
# rounds of the ascent that refines each group's best sample, for a
# statistic with one (scan-sd's)
_ASCENT_ROUNDS = 2
# a generated line's targets, where it binds names, and the names in a
# line, which include those it reads
_TARGETS = re.compile(r"(\w+(?:, \w+)*) = ")
_NAME = re.compile(r"\b[A-Za-z_]\w*")
# the jets formulas a node runs, per jet length, each the straight-line
# code of its trace once it is hot (jets._Hot): the formula's operations in
# its order, so the same source, without the loops over its plan.  They
# are unchecked copies of those jets checks; negation and the
# reciprocal's are jets'
_UNCHECKED = {f: _Hot(f) for f in (_sum, _difference, _product, _chain)}
# the line of each opaque function of a node operation
_FORMS = {
    cmath.exp: "exp({})", cmath.log: "log({})", _inverse: "1.0 / {}", _log_inverse: "1.0 / {}",
}
# the seed of a Moebius map's numerator and denominator, whose jets of
# order 1 at 0 are its coefficients
_AT_ZERO = jet_var(0j, 1)


class _Part:
    """A float part of a generated intermediate, known only at run time."""

    __slots__ = ("zero", "finite", "nonzero")

    def __init__(self, zero=False, finite=False, nonzero=False):
        self.zero = zero  # is a zero of some sign when the operands are finite
        self.finite = finite  # is finite on every lane that reaches it
        self.nonzero = nonzero  # is never zero: n's real part, checked per batch


def _is_zero(x) -> bool:
    return x.zero if type(x) is _Part else x == 0.0


def _is_finite(x) -> bool:
    return x.finite if type(x) is _Part else math.isfinite(x)


def _signed_zero(x, sign: float) -> bool:
    return type(x) is float and x == 0.0 and math.copysign(1.0, x) == sign


def _p_neg(x):
    return -x if type(x) is float else _Part(x.zero, x.finite, x.nonzero)


def _p_add(x, y):
    if type(x) is float and type(y) is float:
        return x + y
    for p, q in ((x, y), (y, x)):
        if _signed_zero(q, -1.0):
            return p  # p + -0 is p
        if _is_zero(q) and _is_finite(q):
            if p.nonzero if type(p) is _Part else p != 0.0:
                return p  # c + 0 is c for c nonzero
            if _signed_zero(p, 1.0):
                return 0.0  # +0 + 0 is +0
    zero = _is_zero(x) and _is_zero(y)
    return _Part(zero, zero and _is_finite(x) and _is_finite(y))


def _p_mul(x, y):
    if type(x) is float and type(y) is float:
        return x * y
    if type(y) is float and y == 1.0:
        return x  # x * 1 is x
    if type(x) is float and x == 1.0:
        return y
    zero = _is_zero(x) or _is_zero(y)
    return _Part(zero, zero and _is_finite(x) and _is_finite(y))


def _c_parts(x):
    # a float operand enters complex arithmetic as complex(x, 0.0)
    if type(x) is _Sym:
        return x.re, x.im
    if type(x) is float:
        return x, 0.0
    return x.real, x.imag


def _c_add(a, b):
    return _p_add(a[0], b[0]), _p_add(a[1], b[1])


def _c_sub(a, b):
    # IEEE subtraction adds the negation, signed zeros included
    return _p_add(a[0], _p_neg(b[0])), _p_add(a[1], _p_neg(b[1]))


def _c_mul(a, b):
    # CPython's complex product, float operands converted as above
    (ar, ai), (br, bi) = a, b
    return (
        _p_add(_p_mul(ar, br), _p_neg(_p_mul(ai, bi))),
        _p_add(_p_mul(ar, bi), _p_mul(ai, br)),
    )


_RULES = {"+": _c_add, "-": _c_sub, "*": _c_mul}


class _Sym:
    """A complex intermediate of a generated lane function."""

    __slots__ = ("gen", "name", "form", "args", "re", "im", "lane")

    def __init__(self, gen, name, re, im, lane, form=None, args=()):
        self.gen = gen
        self.name = name
        self.form = form  # source template of its line, None once written
        self.args = args
        self.re = re
        self.im = im
        self.lane = lane  # varies per lane, so it lives in the loop

    def __add__(self, other):
        return self.gen.op("+", self, other)

    def __radd__(self, other):
        return self.gen.op("+", other, self)

    def __sub__(self, other):
        return self.gen.op("-", self, other)

    def __rsub__(self, other):
        return self.gen.op("-", other, self)

    def __mul__(self, other):
        return self.gen.op("*", self, other)

    def __rmul__(self, other):
        return self.gen.op("*", other, self)

    def __neg__(self):
        return self.gen.neg(self)

    def finite(self) -> bool:
        return _is_finite(self.re) and _is_finite(self.im)


def _not_finite(names: list, test: str = "isfinite") -> str:
    # a condition that holds where some part is not finite; a sum of finite
    # parts can overflow, so each part is tested only once the sum fails
    if len(names) == 1:
        return f"not {test}({names[0]})"
    each = " and ".join(f"{test}({x})" for x in names)
    return f"not {test}({' + '.join(names)}) and not ({each})"


class _Lanes(_Jets):
    """Writer of the lane function: the jet formulas on symbolic values.

    Its values are jets of order ``order`` whose parts are complex
    constants or ``_Sym``s, made by ``dsl``'s walk on its ``ops``.  The
    node operations are ``jets``' own (``_Jets``), and this writer
    overrides their hooks alone: a refusal rule is a check written from
    its source test, an opaque function a line, and x^0 checks what it
    drops.  A known value that fails, by the refusal rules of ``jets`` or
    past the double range, raises JetError, which the walk raises as
    EvalError.  What a line binds and reads is in its text, where an
    ascent's start finds the names it keeps (``_lanes_source``).
    """

    inline = _INLINE_POWER

    def __init__(self, order: int = 3):
        self.order = order
        self.consts: dict = {}  # bound name -> constant
        self.names: dict = {}  # constant bits -> bound name
        self.prelude: list[str] = []  # loop-invariant lines
        self.body: list[str] = []  # per-lane lines
        self.invariants: list[_Sym] = []  # written loop-invariant values
        self.memo: dict = {}  # (op, operands) -> result
        self.values: dict = {}  # exactly known parts -> existing value
        self.tails: dict = {}  # a formula's line's right-hand side -> the name it first bound
        self.invariants_checked = 0  # invariants whose check is written
        self.count = 0
        # n is real, so its imaginary part is +0; the prelude checks that
        # its real part is nonzero
        self.n = self.sym(_Part(finite=True, nonzero=True), 0.0, False, name="N")
        # the operation of each node kind for dsl's walk: a literal's jet
        # of its seed's order, as the walk's own, and each other node's lines
        self.ops = {
            ConstNum: jet_const, Neg: self.negation, Div: self.quotient, Exp: self.exp,
            Log: self.log, PowInt: self.power, Add: partial(self.node, _UNCHECKED[_sum]),
            Sub: partial(self.node, _UNCHECKED[_difference]),
            Mul: partial(self.node, _UNCHECKED[_product]),
        }

    # -- values --------------------------------------------------------

    def text(self, x) -> str:
        """Source for a value, writing its line and its operands' first."""
        if type(x) is _Sym:
            if x.form is not None:
                self.block(x.lane).append(f"{x.name} = " + x.form.format(*map(self.text, x.args)))
                x.form = None
                if not x.lane:
                    self.invariants.append(x)
            return x.name
        if type(x) is float:
            return f"({x!r})"
        key = (x.real.hex(), x.imag.hex())
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"k{len(self.names)}"
            self.consts[name] = x
        return name

    def block(self, lane: bool) -> list:
        return self.body if lane else self.prelude

    def sym(self, re, im, lane, form=None, args=(), name=None):
        if type(re) is float and type(im) is float:
            return complex(re, im)
        key = tuple(p.hex() if type(p) is float else id(p) for p in (re, im))
        hit = self.values.get(key)
        if hit is None:
            if name is None:
                name = f"t{self.count}"
                self.count += 1
            hit = self.values[key] = _Sym(self, name, re, im, lane, form, args)
        return hit

    def op(self, kind: str, a, b):
        key = [id(x) if type(x) is _Sym else (type(x), x.real.hex(), x.imag.hex()) for x in (a, b)]
        if kind != "-":
            key.sort(key=repr)  # complex + and * are commutative, bit for bit
        key = (kind, *key)
        hit = self.memo.get(key)
        if hit is None:
            re, im = _RULES[kind](_c_parts(a), _c_parts(b))
            lane = any(type(x) is _Sym and x.lane for x in (a, b))
            hit = self.memo[key] = self.sym(re, im, lane, "{} %s {}" % kind, (a, b))
        return hit

    def neg(self, a: _Sym):
        key = ("neg", id(a))
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self.sym(_p_neg(a.re), _p_neg(a.im), a.lane, "-{}", (a,))
        return hit

    def apply(self, fn, u):
        """``fn(u)`` for an exp, log or 1/x whose guard passed: finite."""
        if type(u) is not _Sym:
            return fn(u)
        return self.sym(_Part(finite=True), _Part(finite=True), u.lane, _FORMS[fn], (u,))

    # -- checks --------------------------------------------------------

    def check(self, lane: bool, condition: str) -> None:
        """Fail where ``condition`` holds: raise into the lane's handler,
        which redoes it, or out of the prelude, so that every lane of the
        batch is redone."""
        self.block(lane).extend((f"if {condition}:", "    raise JetError('a check failed')"))

    def refuse(self, u, refused, test: str, error: type, message: str) -> None:
        """The check before an opaque function of u: the rule's source
        ``test`` in the generated code, where a value that is not finite
        fails too, or, for a known u, the rule's predicate, now, as jets'
        own hook: a known value that it refuses fails every lane."""
        if type(u) is not _Sym:
            return super().refuse(u, refused, test, error, message)
        cond = test.format(self.text(u))
        if not u.finite():
            cond = f"not isfinite({u.name}) or {cond}"
        self.check(u.lane, cond)

    def unchecked(self, jet) -> list:
        """The parts of a jet that may not be finite on a lane.

        A loop-invariant part is written, and so checked with the batch.
        """
        for x in jet:
            if type(x) is _Sym and not x.lane:
                self.text(x)
        return [x for x in jet if type(x) is _Sym and x.lane and not x.finite()]

    def node(self, table: _Hot, a: tuple, b: tuple) -> tuple:
        # the formula's unchecked copy; a node's exactly known parts are its
        # parts on every lane, so one that is not finite fails every lane
        jet = _UNCHECKED[table.formula][len(a)](a, b)
        if not all(cmath.isfinite(x) for x in jet if type(x) is not _Sym):
            raise JetError("a literal part is not finite")
        return jet

    def mobius(self, pq: tuple) -> None:
        """Fail every lane where the Moebius map P / Q, ``pq``, is
        degenerate at n (``schwarzian._degenerate``): its coefficients are
        P's and Q's jets at 0, loop-invariant, so the check is the
        prelude's, or, where they are known, made now, and raises."""
        (b, a), (d, c) = (self.walk(x, _AT_ZERO) for x in pq)
        if any(type(x) is _Sym for x in (a, b, c, d)):
            self.check(False, _DEGENERATE_TEST.format(*map(self.text, (a, b, c, d))))
        elif _degenerate(a, b, c, d):
            raise JetError("a degenerate Moebius map")

    # -- nodes ---------------------------------------------------------

    def walk_lane(self, root: Node) -> tuple:
        """The root's jet at the lane's point ``zv``, of the writer's order."""
        zv = self.sym(_Part(finite=True), _Part(finite=True), True, name="zv")
        return self.walk(root, (zv, VAR_D1, *(ZERO,) * (self.order - 1)))

    def walk(self, node: Node, var: tuple) -> tuple:
        """A node's jet where its variable's is ``var``, of that jet's
        order, by ``dsl``'s walk on this writer's operations (``ops``):
        where a known value fails, the walk raises its EvalError."""
        order = len(var) - 1
        leaves = {Var: var, Param: (self.n, *(ZERO,) * order), ImagUnit: _I[order]}
        return _walk(node, self.ops, leaves, None)

    def negation(self, a: tuple) -> tuple:
        return _NEGATION[len(a)](a)

    def zeroth(self, u: tuple) -> tuple:
        # x^0 is one, but a failed base still fails: check what is dropped
        parts = [self.text(x) for x in self.unchecked(u)]
        if parts:
            self.check(True, _not_finite(parts))
        return super().zeroth(u)

    def power_call(self, u: tuple, k: int) -> tuple:
        if not any(type(x) is _Sym for x in u):
            return jet_pow_int(u, k)
        lane = any(type(x) is _Sym and x.lane for x in u)
        out = tuple(self.sym(_Part(finite=True), _Part(finite=True), lane) for _ in u)
        names, args = ", ".join(x.name for x in out), ", ".join(map(self.text, u))
        self.block(lane).append(f"{names} = pow_int(({args}), {k})")
        if not lane:
            self.invariants += out
        return out


# a lane whose f' may be critical (``schwarzian._critical``) is redone, and
# the walk decides: the test of its two parts, formatted with the parts' names
_CRITICAL_GUARD = " and ".join(
    f"abs({{1}}.{part}) <= {CRITICAL_POINT_FLOOR!r}" for part in ("real", "imag")
)


class Statistic(NamedTuple):
    """What a lane function returns per group of samples.

    A lane is one sample, a point.  ``lane`` is the formula of a sample's
    value from its jet, written once on plain operands, as the ``jets``
    formulas are, and run inline by the lane function.  With ``critical``,
    a sample whose f' is critical takes ``critical(jet)`` in place of the
    formula, and one whose f' may be is redone.  A value may be a tuple,
    one per slot of ``start``, and the lane function keeps the largest of
    each slot over each group of samples, from the slot's start.
    ``order`` is the order of the sample's jet, the highest part the
    formula reads, from 1 to ``jets.MAX_ORDER``: 1 for f# and |f'|, which
    read f and f' alone, 3 by default, 4 for S' and 5 for S''.  It sets
    the seed's length, and the lane function and the walk that redoes a
    sample compute and check that jet's parts alone, so one rule flags a
    sample "Overflow": a part of some node's jet past the double range, a
    modulus past it (an OverflowError), or a value that is nan or inf in
    any slot.  Such a sample counts for nothing.  A redone sample's value,
    from :func:`_redo`, is bound to the fast path's names, so ``lane``
    computes each value, never handing back a part as it is.  With an
    ``ascent``, the lane function refines each group's largest value, of
    a statistic of one slot, by ascent inside the group's disk
    (:func:`_ascent`): ``ascent`` is the rise statistic, of a higher
    order, whose four slots are F (this statistic's value, bit for bit),
    a and the two parts of D, and which takes this statistic's split.
    The sample's jet is that of the tree's split (:func:`_split`), an
    inner tree g under an outer map F: with ``peel`` (``scan-sd``'s S),
    the peel rule's, ``schwarzian._peel``, and the formula reads g's jet
    and S_F's coefficients, ``lane(jet, outer)``, or, where g is a
    Moebius map of z, whose S_g is 0, g's jet two orders below ``order``
    and ``lane(jet, outer, True)``; otherwise the identity split, F the
    variable and g the root, and ``lane(jet)``.  The critical test reads
    f' of F's walk at order 1 from g's first two parts, as the root's walk
    computes it, so no part of f above f' is computed, checked or
    flagged.  The fields are module-level functions
    and numbers, so that a pickled copy is equal, and :func:`family`
    gives it the lane function of the statistic it copies.
    """

    lane: Callable
    critical: Callable | None = None
    start: tuple = (-1.0,)
    order: int = 3
    ascent: "Statistic | None" = None
    peel: bool = False


def _split(root: Node, stat: Statistic) -> tuple:
    """The tree's split for a statistic, ``(F, g, args, left, mobius)``,
    root = F o g: for one that peels, the peel rule's
    (``schwarzian._peel``), with ``args`` S_F's coefficients, ``(outer,)``;
    otherwise the identity split, F the variable, g the root, no args and
    no left operands.  The formula reads g's jet and ``args``, and
    ``left`` are the operands free of z that the root's walk takes before
    g.  ``mobius`` is None, or, for one that peels where g is a Moebius
    map of z (``schwarzian._mobius_parts``), the map's numerator and
    denominator: then S_g is 0, ``args`` end with True, and the lane
    function and the redo walks, of the statistic and of its rise, walk g
    two orders below the statistic's, but at an n where the map is
    degenerate, which they test, where they walk it as a g that is no
    Moebius map, with ``args`` without True."""
    if stat.peel:
        outer_tree, inner, outer, left = _peel(root)
        mobius = _mobius_parts(inner)
        return outer_tree, inner, (outer,) if mobius is None else (outer, True), left, mobius
    return Var(), root, (), (), None



def _degenerate_at(mobius: tuple, n: float) -> bool:
    # whether the Moebius map P / Q is degenerate at n, as the lane
    # function's prelude tests it, from P's and Q's jets at 0; a walk that
    # fails, or a modulus past the double range, counts as degenerate, so
    # that g's own walk decides the flag
    try:
        (b, a), (d, c) = (_walked(x, n, _AT_ZERO, 0j) for x in mobius)
        return _degenerate(a, b, c, d)
    except ArithmeticError:
        return True


def _redo(split: tuple, n: float, stat: Statistic, w):
    """A redone sample's value at ``w`` by the walk of the tree's split
    (:func:`_split`), or its flag.  It walks the operands on g's left, g
    at the split's order for the statistic, then F from g's first two
    parts, f's jet of order 1, so that it fails first where the root's
    walk does, but on a part of f above f', which it never computes.  The
    flag is that of the EvalError a walk raises ("Pole" or "Overflow"),
    ``critical(jet)`` where f' is critical, and "Overflow" for a modulus
    past the double range; a value is the formula's on g's jet and the
    split's args."""
    outer_tree, inner, args, left, mobius = split
    order = stat.order
    if mobius is not None:
        if _degenerate_at(mobius, n):
            args = args[:-1]
        else:
            order -= 2
    try:
        try:
            for tree in left:
                _walked(tree, n, jet_var(w, 0), w)
            j = _walked(inner, n, jet_var(w, order), w)
            head = _walked(outer_tree, n, j[:2], w)
        except EvalError as err:
            return "Overflow" if isinstance(err.__cause__, OverflowAtPoint) else "Pole"
        if stat.critical is not None and _critical(head[1]):
            return stat.critical(j)
        return stat.lane(j, *args)
    except OverflowError:
        return "Overflow"


def _indent(lines, depth: int = 1) -> list:
    return ["    " * depth + line for line in lines]


def _lanes_function(root: Node, stat: Statistic):
    """Compile the lane function of a tree and statistic."""
    source, namespace = _lanes_source(root, stat)
    exec(compile(source, "<family lanes>", "exec"), namespace)
    return namespace["lanes"]


def _formula(t: _Lanes, jet: tuple, stat: Statistic, checked: int = 0, head: tuple = (),
             args: tuple = ()) -> list:
    """Write a statistic's formula on ``jet``, the parts of a lane's jet at
    ``zv``, into ``t``'s body, after the checks of the parts of ``head``
    and of ``jet`` from ``checked`` on, of the invariants written since
    the last such check, and of a critical f', ``head[1]``, and return the
    names of its value's slots.  ``jet`` is the inner tree's of the
    split (:func:`_split`), ``head`` the root's of order 1, or, for a
    formula that follows another, empty, and the formula reads the
    split's ``args`` after ``jet``.

    The formula runs on ``jets._Trace`` inputs named for the parts, and
    each operation of its trace becomes one line, in the order the trace
    made them, which is the order Python evaluates the formula: nothing is
    folded, so the lines compute what the formula computes on numbers.  A
    formula that follows another (``checked`` above 0, the rise of an
    ascent) takes the name of an earlier line with the same right-hand
    side, so it reuses what the statistic computed at the same point.  A
    statistic's own formula reuses nothing: its slots would then share
    names where two of them are one operation (``x3, x2, x2, x8 = got``
    for ``z^0``'s floor sweep), and a redone lane binds its value to
    those names."""
    parts = list(map(t.text, jet))
    critical = list(map(t.text, head))
    # the root's f and f' where they are no parts of g's jet
    own = [x for x in head if not any(x is y for y in jet)]
    unchecked = [x.name for x in t.unchecked([*own, *jet[checked:]])]
    invariant = [x.name for x in t.invariants[t.invariants_checked:] if not x.finite()]
    t.invariants_checked = len(t.invariants)
    if invariant:
        t.check(False, _not_finite(invariant))
    if unchecked:
        t.check(True, _not_finite(unchecked))
    if stat.critical is not None and not checked:
        t.check(True, _CRITICAL_GUARD.format(*critical))
    made: list = []
    traced = tuple(_Trace(made, "", name=x) for x in parts)
    value = stat.lane(traced, *args)
    for x in made:
        if x.name is None:
            text = x.form.format(*(a.name if type(a) is _Trace else f"({a!r})" for a in x.args))
            x.name = t.tails.get(text) if checked else None
            if x.name is None:
                x.name = f"x{len(t.body)}"
                t.tails.setdefault(text, x.name)
                t.body.append(f"{x.name} = {text}")
    return [x.name for x in (value if type(value) is tuple else (value,))]


def _ascent(sample: list | None, rise: list | None, rises: list, start: float,
            kept: list | None) -> list:
    """The lines that refine a group's ``best`` by ascent from ``at``, its
    argmax sample, inside the disk of radius ``radius`` about the group's
    first sample, ``zc``; they run after the group's keep.

    ``rises`` name the rise statistic's slots: F, the statistic's value
    bit for bit and bound to its name, a, and the two parts of D, F's
    gradient times a positive factor, such that a^2 / (2 |D|) is
    F / (2 |grad F|).  ``sample`` is the statistic's fast path at zv, and
    ``rise`` the lines that follow it there for the rise; both are None
    where every evaluation is redone.  ``kept`` names the values of the
    fast path that ``rise`` and the ascent read, which the keep holds as
    the tuple ``kept`` for an argmax the fast path gave, and None for one
    it redid: the start binds them from the tuple, and runs ``sample``
    only where it is None.  The rise runs at ``at``, and then
    at the candidate of each round but the last: the point a step along D
    from ``at``, projected back into the disk.  The first step is
    min(radius, a^2 / (2 |D|)).  A candidate is accepted only where F
    rises: the group moves there (``at``), takes its D, and its step
    doubles; otherwise the step halves.  So a candidate's F comes first,
    and its D only where F rises; the last round reads F alone.  A
    candidate that fails, or is not finite, is rejected and not flagged,
    so the flags stay those of the samples; where the rise at the argmax
    fails, the group does not climb.  A failed evaluation is redone by
    ``rise(zv)``, or in the last round ``redo(zv)``, whose flag leaves F
    at ``start``, below any best.
    """
    f, a, d_re, d_im = rises
    direction = [f"mag = hypot({d_re}, {d_im})",
                 f"ud = complex({d_re}, {d_im}) / mag if mag else 0j"]
    # the point a step along ud from at, in the disk
    candidate = ["zv = at + step * ud", "off = zv - zc", "m = hypot(off.real, off.imag)",
                 "zv = zv if m <= radius else zc + off * (radius / m)"]
    # a rejected candidate halves the step; a failed start ends the ascent
    reject = ["if step is None:", "    break", "step = step * 0.5", "continue"]
    # the accept rule: a candidate whose F does not rise is rejected, and
    # its D is not taken
    flat = [f"if step is not None and not {f} > best:", "    step = step * 0.5", "    continue"]
    climb = ["got = rise(zv)", "if type(got) is str:", *_indent(reject),
             f"{', '.join(rises)} = got", *flat]
    last = [f"{f} = redo(zv)", f"if type({f}) is str:", f"    {f} = {start!r}"]
    if sample is not None:
        # the start binds the argmax sample's kept values, where it has them
        point = ["if step is not None or kept is None:", *_indent([*sample, *flat]), "else:",
                 f"    {', '.join(kept)}, = kept"]
        climb = ["try:", *_indent([*point, *rise]), "except (OverflowError, JetError):",
                 *_indent(climb)]
        last = ["try:", *_indent(sample), "except (OverflowError, JetError):", *_indent(last)]
    return ["if at is not None:", *_indent([
        "zc = G[0]", "zv = at", "step = None",
        # the start, at the argmax, then each round but the last
        f"for r in range({_ASCENT_ROUNDS}):", *_indent([
            "if step is not None:",
            *_indent([*candidate, "if not isfinite(zv):", "    step = step * 0.5", "    continue"]),
            *climb,
            f"if {_not_finite(rises, 'finite')}:", *_indent(reject),
            "if step is None:",
            *_indent([*direction, f"step = {a} * {a} / (2.0 * mag) if mag else radius",
                      "step = step if step < radius else radius"]),
            "else:",
            *_indent([f"best = {f}", "at = zv", "step = step * 2.0", *direction]),
        ]),
        "else:",  # the last round
        *_indent([*candidate, "if isfinite(zv):", *_indent([
            *last, f"if {f} > best and finite({f}):", f"    best = {f}"])]),
    ])]


def _lanes_source(root: Node, stat: Statistic) -> tuple:
    """The lane function's source and namespace.

    ``fn(N, Z, redo)`` evaluates f_n at samples, finite complex points,
    N being complex(n), or None for an n that is not real.  ``Z`` is an
    iterable of groups, each an iterable of samples, both read once, and
    it returns one ``(best, flags)`` per group: the largest statistic over
    the group's samples, -1.0 if none has one, and the frozenset of the
    flags of its failed samples; with several slots, the largest of each
    slot, then the flags.  A sample whose evaluation fails takes
    ``redo(point)``, its value or its flag, in place of the fast path's.
    So one call pays the fixed cost and the n-only prelude for all its
    groups, and each group's result depends on its own lanes alone:
    ``best`` and the flags are reset per group, the flags to a shared
    empty frozenset that a failure replaces.

    With an ascent the function is ``fn(N, Z, redo, rise, radius)``, each
    group a sequence whose first sample is the centre of a disk of radius
    ``radius``, and a group's ``best`` is refined by the ascent
    (:func:`_ascent`) from its argmax, the sample of its largest value,
    the first of equals.  The tree is walked once, at the rise
    statistic's order: the statistic's fast path is the lines of the
    first parts of the root's jet, which are the bits of a walk at its own
    order, and of its formula; the rise's are the lines that follow them,
    for the parts above and the rise's formula, which takes the values
    the statistic's formula made.  So the rise at a point costs what the
    statistic's lines leave to do, and an ascent evaluation that fails
    takes ``rise(point)``, or ``redo(point)`` in the last round.  A power
    past ``_INLINE_POWER``, computed whole, and ``x^0``'s check read the
    parts above the statistic's order too, so a sample is redone where
    one of those leaves the finite range, and the walk gives its value.

    The tree walked at the statistic's order is the inner tree g of the
    statistic's split (:func:`_split`), the root itself but for a
    statistic that peels, and "the root's jet" above is g's; then the
    outer map F is walked from g's first two parts, at order 1, which
    writes F's guards (exp's, the reciprocal's and log's floors) and the
    lines of f and f', which are checked with g's parts and read by the
    critical guard.  Where g is a Moebius map, every order here is two
    lower, for the statistic and its rise, and the prelude first tests
    that the map is not degenerate at n, or the test is made once, here,
    where the map's coefficients hold no n (``_Lanes.mobius``): where it
    fails, every lane is redone, and the redo walk takes g at the
    statistic's own order.  So the lane function of ``exp(z/(n*z+1))``
    under ``scan-sd``'s S walks g at order 3, and writes no line of exp's
    chain but exp(g) and exp(g) g'.

    Each lane runs in one ``try``, whose every check raises JetError, so a
    lane is redone in one place, the ``except`` handler.  The handler
    binds the redone value to the names of the fast path's value, and
    both reach one keep: the lines that flag a value past the double
    range and fold any other into the group's largest, noting its sample
    for an ascent.  With an ascent, the fast path's keep also keeps, as
    the tuple ``kept``, the values that the rise's lines and the ascent
    read, found in the lines themselves: the names that the fast path's
    lines bind (``_TARGETS``), in that order, that a line of the rise
    names (``_NAME``), or that name a slot of the rise; and the handler
    runs a copy of the keep that keeps None; so the ascent's start at a
    fast argmax runs only the rise's lines.  Where a loop-invariant part
    fails, or n, where the tree holds it, is 0 or not real, the prelude
    raises, and a loop of the handler and the keep redoes every lane,
    group by group, ascent included, before the main loop, which then has
    none; where a literal fails, that loop is all.

    The jets are of the statistic's order, so no line of f'' or f''' of an
    order-1 statistic is emitted.  A lane is redone when a node of it
    leaves the finite range in a part: such a value reaches the output,
    which checks the parts not known finite, or the check before an
    opaque function (exp, log, 1/x), the only places where a non-finite
    value can turn finite again; ``x^0`` checks its base's parts.  A part
    never depends on parts of higher order, so those it computes are the
    bits of a walk of any order.  A statistic's critical guard, and an
    exception in its formula, redo a lane too.  So a redone lane is not
    always a failed one, but every failed lane is redone.  A sum of parts
    is checked as a whole, and each part only where the sum is not
    finite.
    """
    # with an ascent, one walk at the rise's order: the statistic reads its
    # first parts, which are the bits of a walk at its own order
    rise = stat.ascent
    outer_tree, inner, args, _, mobius = _split(root, stat)
    # a Moebius g is walked two orders below the statistic's
    lower = 0 if mobius is None else 2
    t = _Lanes((stat.order if rise is None else rise.order) - lower)
    try:
        if mobius is not None:
            t.mobius(mobius)
        out = t.walk_lane(inner)
        # f's jet of order 1: the outer map's nodes on the first two parts of g's
        head = t.walk(outer_tree, out[:2])
    except (EvalError, JetError):  # a literal fails, or the map is degenerate: every lane is redone
        out = None
    if out is None:
        values = [f"g{k}" for k in range(len(stat.start))]
        rises = [*values, *(f"h{k}" for k in range(1, len(rise.start)))] if rise else []
    else:
        values = _formula(t, out[: stat.order - lower + 1], stat, head=head, args=args)
        sample = t.body[:]
        rises = []
        if rise is not None:
            # the rise's lines follow the statistic's, at the same point, and
            # check the parts above the statistic's order; its F is the value
            rises = [*values, *_formula(t, out, rise, stat.order - lower + 1, args=args)[1:]]
            # the fast path's values that the rise's lines or the ascent read,
            # in the order the fast path binds them
            read = {x for line in t.body[len(sample):] for x in _NAME.findall(line)}.union(rises)
            kept = [x for m in map(_TARGETS.match, sample) if m for x in m[1].split(", ")
                    if x in read]
    best = ["best", *(f"best{k}" for k in range(1, len(stat.start)))]
    # with an ascent, the keep also names the sample of the largest first slot
    argmax = ["at"] if rise is not None else []
    # a group's flags stay the shared empty set until one of its lanes fails
    reset = [*(f"{b} = {x!r}" for b, x in zip(best, stat.start)), *(f"{a} = None" for a in argmax),
             "flags = noflags"]
    handler = ["got = redo(zv)", "if type(got) is str:", "    flags |= {got}", "    continue",
               f"{', '.join(values)} = got"]
    # a value past the double range in any slot is an overflow (tested by
    # math.isfinite, faster on a float); keep each slot's larger value
    keep = [f"if {_not_finite(values, 'finite')}:", "    flags |= {'Overflow'}", "    continue"]
    fold = [[f"if {v} > {b}:", f"    {b} = {v}"] for b, v in zip(best, values)]
    fold[0] += [f"    {a} = zv" for a in argmax]
    keep += [line for lines in fold for line in lines]

    def each_group(lines: list, fast: bool) -> list:
        # lines run per lane of each group, then its ascent, if any; the
        # group's result is appended after them
        ascent = []
        if rise is not None:
            ascent = _ascent(sample if fast else None, t.body[len(sample):] if fast else None,
                             rises, stat.start[0], kept if fast else None)
        return ["for G in Z:", *_indent(reset), "    for zv in G:", *_indent(lines, 2),
                *_indent(ascent), f"    append(({', '.join([*best, 'flags'])}))"]

    # every lane redone, in order, where a literal fails or the prelude does
    redo_all = each_group(handler + keep, False)
    if out is None:
        loop = redo_all
    else:
        setup = [
            "try:", "    if N is None or not N.real:", "        raise JetError('n is 0 or not real')",
            *_indent(t.prelude), "except (OverflowError, JetError):", *_indent(redo_all),
            "    Z = ()",
        ] if not _free_of(root, Param) else []
        redone = handler
        if argmax:
            # the argmax's kept values, set in the fold of the one slot: the
            # fast path's, or None for a redone sample, which the handler
            # folds itself
            redone = [*handler, *keep, "    kept = None", "continue"]
            keep = [*keep, f"    kept = ({', '.join(kept)},)"]
        loop = [*setup, *each_group([
            "try:", *_indent(sample), "except (OverflowError, JetError):", *_indent(redone), *keep,
        ], True)]
    src = [
        "def lanes(N, Z, redo, " + "rise, radius, " * bool(argmax) + "*, "
        + "".join(f"{k}={k}, " for k in t.consts)
        + "isfinite=isfinite, finite=finite, exp=exp, log=log, pow_int=pow_int, noflags=noflags"
        + ", hypot=hypot" * bool(argmax) + "):",
        *_indent(["out = []", "append = out.append", *loop, "return out"]),
    ]
    namespace = dict(
        t.consts, isfinite=cmath.isfinite, finite=math.isfinite, exp=cmath.exp, log=cmath.log,
        pow_int=jet_pow_int, JetError=JetError, inf=math.inf, hypot=math.hypot,
        noflags=frozenset(),
    )
    return "\n".join(src) + "\n", namespace


# the last lane function generated, with its tree, its statistic and the
# tree's split for the statistic (``_split``)
_last: tuple = (None, None, None, None)


def family(expr: FamilyExpr, stat: Statistic):
    """The lane function of a family and statistic.

    This process keeps one, the last: a call with its tree and statistic,
    or with an equal tree (a fresh parse, respaced) and an equal statistic,
    takes it; any other call generates and compiles another in its place.
    A command scans one family with one statistic, so it generates one.
    An equal tree takes the entry's place, so that the calls after it find
    it by identity, with no comparison."""
    return _entry(expr, stat)[2]


def _entry(expr: FamilyExpr, stat: Statistic) -> tuple:
    # the cache's entry for the family and statistic, as ``family`` says;
    # the split is the caller's tree's, whose nodes the redo walks take
    global _last
    root, last, fn, split = _last
    if expr.root is not root or stat is not last:
        if expr.root != root or stat != last:
            fn = _lanes_function(expr.root, stat)
        _last = (expr.root, stat, fn, _split(expr.root, stat))
    return _last


def eval_jet_lanes(expr: FamilyExpr, n: float, points, stat, radius: float | None = None):
    """Evaluate a statistic of f_n over groups of samples, by the family's lane function.

    ``stat`` is a :class:`Statistic`.  ``points`` is an iterable of
    groups, each an iterable of samples, all read once, so either may be a
    generator; a sample is a finite complex point, and a point that is
    not finite is the caller's to refuse.  One call of the lane function
    covers every group, and returns one result per group, in order:
    ``(best, flags)``, the largest statistic over the group's samples,
    -1.0 if none has one, and the frozenset of the flags of its samples
    that failed; for several slots, ``(best, best1, ..., flags)``, each
    from the slot's start value.  A group's result depends on its own
    samples alone, and each sample's value is the one the walk of the
    tree's split for the statistic gives (:func:`_split`), bit for bit:
    for a statistic that does not peel, that of its jet from
    :func:`~schwarzian_lab.dsl.eval_jet` at ``stat.order``.  The lane
    function's one handler redoes a sample by :func:`_redo`, which walks
    the split from ``jet_var`` at the sample's point, g at ``stat.order``,
    whose every part is checked, as the lane function checks them, and
    gives the sample's value, or the flag of its failure.

    For a statistic with an ascent, each group is a sequence whose first
    sample is the centre of a disk of radius ``radius``, and the same call
    refines each group's ``best`` by ascent inside its disk; an ascent
    candidate that fails is redone by the walk of the rise statistic, on
    the same split.
    """
    _, _, fn, split = _entry(expr, stat)
    jet_const(n)  # refuses an n that is not finite, before any lane runs
    redo = partial(_redo, split, n, stat)
    # the lane function takes n real, so that N's imaginary part is +0
    N = complex(n) if isinstance(n, (int, float)) else None
    if stat.ascent is None:
        return fn(N, points, redo)
    return fn(N, points, redo, partial(_redo, split, n, stat.ascent), radius)
