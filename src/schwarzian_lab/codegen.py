"""Python source generated once per family: the lane function behind ``dsl``.

The lane function evaluates a batch of lanes of one family in one loop of
straight-line code, as sympy's ``lambdify`` compiles an expression, and
:func:`family` keeps it per process.  ``dsl.eval_jet_lanes`` runs it on
every batch, a family's first included; ``dsl`` walks the tree for the
single-point calls (one point, another seed, bounded jets) and for every
lane the lane function hands back.

It runs the jet formulas of ``jets`` on symbolic values
(``_Sym``) to write straight-line source.  A symbolic value knows, per
float part, either the part exactly (a float) or what little is certain
of it before run time (a ``_Part``).  An operation whose result is then
exactly known, or is exactly an existing value, emits no code; any other
operation emits one line, but only once something emitted uses it.  Every
rule below is exact in IEEE arithmetic, signed zeros included, so the
generated code computes bit for bit what the ``jet_*`` operations would.
The rules assume finite operands: a value is thrown away only when it is
known to be finite, and the emitted checks catch every lane on which a
node leaves the finite range (see ``_lanes_source``).
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

from .dsl import (
    Add,
    ConstNum,
    Div,
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
)
from .jets import (
    DIVISION_FLOOR,
    EXP_REAL_GUARD,
    VAR_D1,
    ZERO,
    JetError,
    OverflowAtPoint,
    _as_jet,
    _chain,
    _difference,
    _exponential,
    _logarithm,
    _negation,
    _product,
    _reciprocal,
    _sum,
    jet_const,
    jet_pow_int,
    modulus,
)

# generated families kept per process: a scan evaluates one family, an
# identity check two, and each kept family holds its compiled code
_CACHE_SIZE = 4
# an integer power up to this exponent is written out as products; a
# larger one calls jet_pow_int
_INLINE_POWER = 8


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


class _LiteralFails(Exception):
    """A subexpression of literals alone fails, so every lane fails."""


def _inverse(w: complex) -> complex:
    return 1.0 / w


def _below_floor(w: complex) -> bool:
    # a literal the floor check refuses; past the double range it overflows
    try:
        return modulus(w) <= DIVISION_FLOOR
    except OverflowAtPoint:
        return True


def _exp_refused(w: complex) -> bool:
    return abs(w.real) > EXP_REAL_GUARD


class _Lanes:
    """Writer of the lane function: the jet formulas on symbolic values.

    Its values are jets whose parts are complex constants or ``_Sym``s.
    """

    def __init__(self):
        self.consts: dict = {}  # bound name -> constant
        self.names: dict = {}  # constant bits -> bound name
        self.prelude: list[str] = []  # loop-invariant lines
        self.body: list[str] = []  # per-lane lines
        self.invariants: list[_Sym] = []  # written loop-invariant values
        self.memo: dict = {}  # (op, operands) -> result
        self.values: dict = {}  # exactly known parts -> existing value
        self.count = 0
        self.n_used = False
        # n is real, so its imaginary part is +0; the prelude checks that
        # its real part is nonzero
        self.n = self.sym(_Part(finite=True, nonzero=True), 0.0, False, name="N")
        zv = self.sym(_Part(finite=True), _Part(finite=True), True, name="zv")
        self.var = (zv, VAR_D1, ZERO, ZERO)

    # -- values --------------------------------------------------------

    def text(self, x) -> str:
        """Source for a value, writing its line and its operands' first."""
        if type(x) is _Sym:
            if x.form is not None:
                line = f"{x.name} = " + x.form.format(*map(self.text, x.args))
                x.form = None
                self.block(x.lane).append(line)
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

    def opaque(self, form: str, fn, u):
        """``fn(u)`` for an exp, log or 1/x whose guard passed: finite."""
        if type(u) is not _Sym:
            return fn(u)
        return self.sym(_Part(finite=True), _Part(finite=True), u.lane, form, (u,))

    # -- checks --------------------------------------------------------

    def check(self, lane: bool, condition: str) -> None:
        """Fail where ``condition`` holds: the lane, or the whole batch."""
        fail = ["    append(redo(s))", "    continue"] if lane else ["    return None"]
        self.block(lane).extend([f"if {condition}:", *fail])

    def guard(self, u, test: str, refused) -> None:
        """The check before an opaque function of u: ``test`` in the
        generated code, where a value that is not finite fails too, or
        ``refused(u)`` now for a literal."""
        if type(u) is not _Sym:
            if refused(u):
                raise _LiteralFails
            return
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

    def node(self, jet: tuple) -> tuple:
        # a node's exactly known parts are its parts on every lane, so one
        # that is not finite fails every lane
        if not all(cmath.isfinite(x) for x in jet if type(x) is not _Sym):
            raise _LiteralFails
        return jet

    # -- nodes ---------------------------------------------------------

    def walk(self, node: Node) -> tuple:
        """A node's jet: its operands left before right, then the node."""
        kind = type(node)
        if kind is Var:
            return self.var
        if kind is Param:
            self.n_used = True
            return self.n, ZERO, ZERO, ZERO
        if kind is ImagUnit:
            return jet_const(1j)
        if kind is ConstNum:
            return jet_const(node.value)
        fields = [v for k, v in vars(node).items() if k != "span"]
        return self.apply(node, *(self.walk(v) if isinstance(v, Node) else v for v in fields))

    def reciprocal(self, b: tuple) -> tuple:
        self.guard(b[0], f"abs({{}}) <= {DIVISION_FLOOR!r}", _below_floor)
        return self.node(_chain(b, _reciprocal(self.opaque("1.0 / {}", _inverse, b[0]))))

    def apply(self, node: Node, *args) -> tuple:
        kind = type(node)
        if kind is Neg:
            return _negation(*args)
        if kind in (Add, Sub, Mul):
            return self.node({Add: _sum, Sub: _difference, Mul: _product}[kind](*args))
        if kind is Div:
            a, b = args
            return self.node(_product(a, self.reciprocal(b)))
        if kind is Exp:
            (u,) = args
            self.guard(u[0], f"abs({{}}.real) > {EXP_REAL_GUARD!r}", _exp_refused)
            return self.node(_chain(u, _exponential(self.opaque("exp({})", cmath.exp, u[0]))))
        if kind is Log:
            (u,) = args
            self.guard(u[0], f"abs({{}}) <= {DIVISION_FLOOR!r}", _below_floor)
            lg = self.opaque("log({})", cmath.log, u[0])
            return self.node(_chain(u, _logarithm(lg, self.opaque("1.0 / {}", _inverse, u[0]))))
        u, k = args  # PowInt
        if k == 0:
            # x^0 is one, but a failed base still fails: check what is dropped
            parts = self.unchecked(u)
            if parts:
                self.check(True, f"not isfinite({' + '.join(map(self.text, parts))})")
            return jet_const(1.0)
        if abs(k) > _INLINE_POWER:
            return self.power_call(u, k)
        acc = u
        for _ in range(abs(k) - 1):
            acc = self.node(_product(acc, u))
        if k < 0:
            acc = self.node(_product(jet_const(1.0), self.reciprocal(acc)))
        return acc

    def power_call(self, u: tuple, k: int) -> tuple:
        if not any(type(x) is _Sym for x in u):
            try:
                return jet_pow_int(u, k)
            except JetError:
                raise _LiteralFails from None
        lane = any(type(x) is _Sym and x.lane for x in u)
        out = tuple(self.sym(_Part(finite=True), _Part(finite=True), lane) for _ in range(4))
        line = f"{', '.join(x.name for x in out)} = pow_int(({', '.join(map(self.text, u))}), {k})"
        self.block(lane).append(line)
        if not lane:
            self.invariants += out
        return out


def _lanes_function(root: Node):
    """Compile the lane function of a tree, or None if it always fails."""
    source, namespace = _lanes_source(root)
    if source is None:
        return None
    exec(compile(source, "<family lanes>", "exec"), namespace)
    return namespace["lanes"]


def _lanes_source(root: Node) -> tuple:
    """The lane function's source and namespace; (None, None) if it always fails.

    ``fn(N, Z, redo)`` evaluates f_n at each seed of ``Z`` with the
    variable's jet (``jets.jet_var``), N being complex(n); any other seed,
    and any lane whose evaluation fails, gets ``redo(seed)`` in place of
    its jet.  It returns None when a loop-invariant part fails, so that
    every lane is redone.  A lane is redone when a node of it leaves the
    finite range: such a value reaches the output, where the parts not
    known finite are checked, or the check before an opaque function
    (exp, log, 1/x), the only places where a non-finite value can turn
    finite again; ``x^0`` checks its base.  So a redone lane is not always
    a failed one, but every failed lane is redone.
    """
    t = _Lanes()
    try:
        out = t.walk(root)
    except _LiteralFails:
        return None, None
    parts = ", ".join(map(t.text, out))
    unchecked = " + ".join(x.name for x in t.unchecked(out))
    invariant = " + ".join(x.name for x in t.invariants if not x.finite())
    prelude = (["if not N.real:", "    return None"] if t.n_used else []) + t.prelude
    if invariant:
        prelude += [f"if not isfinite({invariant}):", "    return None"]
    result = f"append(as_jet(({parts})))"
    if unchecked:
        result = f"if isfinite({unchecked}):\n    {result}\nelse:\n    append(redo(s))"
    src = [
        "def lanes(N, Z, redo, *, " + "".join(f"{k}={k}, " for k in t.consts)
        + "isfinite=isfinite, exp=exp, log=log, as_jet=as_jet, pow_int=pow_int,"
        + " VAR_D1=VAR_D1, ZERO=ZERO):",
        "    try:", *("        " + line for line in prelude or ["pass"]),
        "    except (OverflowError, JetError):", "        return None",
        "    out = []", "    append = out.append", "    for s in Z:",
        "        zv, z1, z2, z3 = s",
        "        if z1 is not VAR_D1 or z2 is not ZERO or z3 is not ZERO:",
        "            append(redo(s))", "            continue",
        "        try:", *("            " + line for line in t.body or ["pass"]),
        "        except (OverflowError, JetError):",
        "            append(redo(s))", "            continue",
        *("        " + line for line in result.split("\n")),
        "    return out",
    ]
    namespace = dict(
        t.consts, isfinite=cmath.isfinite, exp=cmath.exp, log=cmath.log, as_jet=_as_jet,
        pow_int=jet_pow_int, VAR_D1=VAR_D1, ZERO=ZERO, JetError=JetError,
    )
    return "\n".join(src) + "\n", namespace


class _Family:
    """The lane function of one tree, generated on its first batch."""

    def __init__(self, root: Node):
        self.root = root

    @cached_property
    def lanes(self):
        return _lanes_function(self.root)


# tree -> _Family
_FAMILIES: dict = {}


def family(expr: FamilyExpr) -> _Family:
    """The lane function of a family, shared by equal trees."""
    fam = expr._compiled
    if fam is None:
        fam = _FAMILIES.get(expr.root)
        if fam is None:
            if len(_FAMILIES) >= _CACHE_SIZE:
                del _FAMILIES[next(iter(_FAMILIES))]
            fam = _FAMILIES[expr.root] = _Family(expr.root)
        expr._compiled = fam
    return fam
