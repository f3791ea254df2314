"""Complex jet arithmetic of any order up to :data:`MAX_ORDER`.

A jet of order k carries the value and first k derivatives of an
analytic function at one point of the complex plane: a :class:`Jet` of
k + 1 parts, 1 for f# and |f'|, 3 for the Schwarzian derivative, 4 for S'
and 5 for S''.  A jet of order k seeds its variable and its constants
with k + 1 parts (:func:`jet_var`, :func:`jet_const`), and the operations
below propagate every part through field arithmetic, the exp/log
primitives and Mobius maps, without symbolic differentiation.

Jets never hold non-finite components: an operation that would produce
``inf`` or ``nan`` in any part raises :class:`OverflowAtPoint` instead.
A part never depends on the parts of higher order of its operands, so
an order-k jet is the first k + 1 parts of a jet of any higher order,
bit for bit, and fails where one of them is not finite.  A division
whose denominator magnitude sits at or below the floor raises
:class:`DivisionByZeroAtPoint`.  A denominator whose magnitude is past
the double range, where ``abs`` itself would overflow, raises
:class:`OverflowAtPoint`; :func:`modulus` is that ``abs`` for every
caller.

Every formula is written once, for any order, as a function of plain
operands (the ``_sum`` ... ``_mobius`` section below): the Leibniz
product, Faa di Bruno's chain rule, the derivative lists of the
reciprocal, exp and log, and the chain rule through a Mobius map, each
part a fixed plan of terms summed in one order, so a part has the same
bits in a jet of any order.  The ``jet_*`` operations run them on
complex numbers and check the result, one call per node of ``dsl``'s
tree walk; ``codegen`` runs the same functions on symbolic operands to
generate each family's straight-line lane function, so both paths run
the same float operations in the same order.  A formula that the walk
or codegen calls often at one jet length is compiled, once, from a trace
of itself into straight-line code that makes the same operations on the
same operands in the same order (``_Hot``), once the calls have cost
about what compiling does.  A formula's code keeps every operation, for
any operands, balls included: it folds nothing, unlike codegen's
symbolic values, which fold the float parts they know before run time
on a lane's finite operands.  Codegen runs the same trace on a
statistic's formula, whose lines fold nothing either.

The guarded node operations, the reciprocal, the quotient, exp, log and
the integer power, are written once too, as :class:`_Jets`, whose
operations call four hooks alone: refuse an operand by a refusal rule,
apply an opaque function (exp, log or 1/x), run a formula as a node's
jet, and x^0.  Each refusal rule, the division floor and the exp guard,
is stated in this module alone, as a predicate on a value and beside it
the same rule as a source test for generated code.  The plain hooks run
here, for :func:`jet_div`, :func:`jet_exp`, :func:`jet_log`,
:func:`jet_pow_int` and ``dsl``'s walk tables; ``codegen``'s lane writer
subclasses the class and overrides the hooks alone, so it writes the
same operations, in the same order, and restates no rule.

The ``jet_*`` operations run unchanged on jets whose parts are balls
(:class:`~schwarzian_lab.ball.Ball`), as ``dsl.eval_jet`` at a ball
gives them, of any order.  Such a jet's midpoints are the plain jet's
values, its checks decide on them, and each part encloses the exact
derivative of the same expression at every point of the seed's ball.
"""

from __future__ import annotations

import cmath
import math
from functools import partial, reduce
from operator import add, itemgetter, mul, neg, sub, truediv

from .ball import Ball

__all__ = [
    "Jet",
    "ComplexJet3",
    "JetError",
    "DivisionByZeroAtPoint",
    "OverflowAtPoint",
    "DIVISION_FLOOR",
    "EXP_REAL_GUARD",
    "MAX_ORDER",
    "modulus",
    "jet_var",
    "jet_const",
    "jet_add",
    "jet_sub",
    "jet_neg",
    "jet_mul",
    "jet_div",
    "jet_exp",
    "jet_log",
    "jet_pow_int",
    "jet_mobius",
]

# |denominator| at or below this counts as a division by zero
DIVISION_FLOOR = 1e-300
# |Re u| beyond this would push exp out of the finite double range
EXP_REAL_GUARD = 700.0

_isfinite = cmath.isfinite


class JetError(ArithmeticError):
    """Base class for jet evaluation failures."""

    def __init__(self, message: str, point: complex | None = None):
        super().__init__(message)
        self.point = point


class DivisionByZeroAtPoint(JetError):
    """Denominator (or log argument) magnitude at or below the floor."""


class OverflowAtPoint(JetError):
    """A jet component left the finite double range."""


class Jet(tuple):
    """A jet of order k: the value and first k derivatives of an analytic
    function at a point, its k + 1 parts, of every order alike.

    ``Jet(v, d1, ...)`` builds one from its parts, and its first four are
    also named ``v``, ``d1``, ``d2`` and ``d3``.
    """

    __slots__ = ()

    def __new__(cls, *parts):
        return tuple.__new__(cls, parts)

    def __getnewargs__(self):
        return tuple(self)

    v, d1, d2, d3 = (property(itemgetter(k)) for k in range(4))


# the same class, under the name the package has exported for order-3 jets
ComplexJet3 = Jet

_OVERFLOW = "jet component overflowed the finite range"
# a jet is built as a plain tuple of its parts; _as_jet names it
_as_jet = partial(tuple.__new__, Jet)

# the identity map's first derivative, and every other zero derivative
VAR_D1 = 1.0 + 0.0j
ZERO = 0.0j


def modulus(w: complex) -> float:
    """``abs(w)``, raising OverflowAtPoint where |w| is past the double range.

    ``abs`` of a finite complex raises a bare OverflowError once its
    modulus overflows (both parts near 1.5e308).
    """
    try:
        return abs(w)
    except OverflowError:
        raise OverflowAtPoint("modulus overflowed the finite range", w) from None


# each refusal rule, stated here alone, twice: its predicate on a value,
# for the node operations (_Jets) on numbers, balls and codegen's literals,
# and beside it its source test, the same rule in a generated line,
# formatted with the value's name, for codegen's lanes
_FLOOR_TEST = f"abs({{}}) <= {DIVISION_FLOOR!r}"


def _below_floor(w) -> bool:
    # the floor's refusal of a denominator or a log argument; past the
    # double range modulus raises, as the source test's abs does
    return modulus(w) <= DIVISION_FLOOR


_EXP_TEST = f"abs({{}}.real) > {EXP_REAL_GUARD!r}"


def _exp_refused(w) -> bool:
    # the exp guard's refusal
    return abs(w.real) > EXP_REAL_GUARD


# ---------------------------------------------------------------------------
# formulas
#
# Each takes and returns plain tuples of a jet's parts, the value first,
# of any length up to MAX_ORDER + 1, whose operands support +, - and *
# with complex numbers and floats: complex numbers or balls here, symbolic
# values when codegen generates the lane function from them.  A part of
# order k reads only the parts of order at most k of the operands.  Each
# part is a sum over a fixed plan of terms (Griewank and Walther,
# *Evaluating Derivatives*, ch. 13, in derivatives rather than Taylor
# coefficients), summed left to right in one fixed order, so a part of a
# longer jet has the bits of the same part of a shorter one.  A coefficient
# of 1 is never multiplied in.  Sums are associated symmetrically so that
# swapping a product's operands yields the identical floating-point result.


def _leibniz_plan(k: int) -> tuple:
    # part k of a product: per j <= k - j, C(k, j) times the pair
    # a^(k-j) b^(j) + a^(j) b^(k-j), or a^(j) b^(j) alone where j = k - j
    return tuple((j, float(math.comb(k, j))) for j in range(k // 2 + 1))


def _partitions(k: int, m: int, least: int = 1) -> list:
    # the partitions of k into m parts, each at least ``least``, as
    # ascending tuples in lexicographic order
    if m == 1:
        return [(k,)] if k >= least else []
    return [(j, *rest) for j in range(least, k // m + 1) for rest in _partitions(k - j, m - 1, j)]


def _faa_di_bruno_plan(k: int) -> tuple:
    # part k >= 1 of w(u): per m from k down to 1, per partition p of k into
    # m parts, the Bell coefficient k! / prod_i (i!^c_i c_i!) times
    # w^(m) prod_{i in p} u^(i), for c_i the multiplicity of i in p
    plan = []
    for m in range(k, 0, -1):
        for p in _partitions(k, m):
            den = 1
            for i in set(p):
                den *= math.factorial(i) ** p.count(i) * math.factorial(p.count(i))
            plan.append((m, float(math.factorial(k) // den), p))
    return tuple(plan)


# the highest order of a jet: S'' reads f^(5)
MAX_ORDER = 5
_LEIBNIZ = tuple(_leibniz_plan(k) for k in range(MAX_ORDER + 1))
_FAA_DI_BRUNO = tuple(_faa_di_bruno_plan(k) for k in range(1, MAX_ORDER + 1))


# a formula's calls at one jet length before it is compiled (_Hot).
# Tracing and compiling one takes 50 to 350 us and saves 0.2 to 3.7 us a
# call, so it pays for itself after 70 to 410 calls, by formula and
# length (CPython 3.11, x86-64); compiled at the 200th, no formula's calls
# cost more than 2.6 times the cheaper of never compiling and compiling
# at once.  A command of the checks-mix benchmark's stream makes at most
# 36 calls at one (formula, length), so it compiles nothing, and a
# long run of them compiles what it uses.  Compiled at once, that
# benchmark's cold starts (setup_s) read 12% slower
_HOT = 200


class _Trace:
    """A value of a formula's trace (:func:`_compiled`, and
    ``codegen._formula`` for a statistic's): an input, or one operation on
    earlier values."""

    __slots__ = ("made", "form", "args", "uses", "name")

    def __init__(self, made: list, form: str, args: tuple = (), name: str | None = None):
        self.made = made  # every value of the trace, in the order made
        self.form = form
        self.args = args
        self.uses = 0
        self.name = name  # the name it is bound to; None while written out where used
        for x in args:
            if type(x) is _Trace:
                x.uses += 1
        made.append(self)

    def text(self) -> str:
        if self.name is not None:
            return self.name
        operands = (x.text() if type(x) is _Trace else repr(x) for x in self.args)
        return "(" + self.form.format(*operands) + ")"

    def op(self, form: str, *args) -> "_Trace":
        return _Trace(self.made, form, args)

    # the formulas add and subtract parts, and multiply by coefficients;
    # codegen's statistics also divide, and take moduli, halves and
    # conjugates
    def __add__(self, other):
        return self.op("{} + {}", self, other)

    def __radd__(self, other):
        return self.op("{} + {}", other, self)

    def __sub__(self, other):
        return self.op("{} - {}", self, other)

    def __mul__(self, other):
        return self.op("{} * {}", self, other)

    def __rmul__(self, other):
        return self.op("{} * {}", other, self)

    def __truediv__(self, other):
        return self.op("{} / {}", self, other)

    def __neg__(self):
        return self.op("-{}", self)

    def __abs__(self):
        return self.op("abs({})", self)

    @property
    def real(self):
        return self.op("{}.real", self)

    @property
    def imag(self):
        return self.op("{}.imag", self)

    def conjugate(self):
        return self.op("{}.conjugate()", self)


def _compiled(formula, args, checked: bool = False):
    # the code of ``formula`` at the shape of ``args``, from its trace on
    # operands named for their places, a jet's parts unpacked, and a count
    # passed as the number it is.  Each part of the result, and each value
    # used more than once, is bound to a name where the trace made it; any
    # other is written out where it is used.  So the code makes the
    # formula's operations on the same operands, and the formula's bits,
    # and, as each formula here makes a value used once just before its
    # use, in the formula's order, which codegen's names follow.  If
    # ``checked``, the code then does what _checked does with the result
    made: list = []
    names = [f"x{k}" for k in range(len(args))]
    lines = []
    traced = []
    for name, x in zip(names, args):
        if type(x) is int:
            traced.append(x)
        elif isinstance(x, tuple):
            parts = tuple(_Trace(made, "", name=f"{name}_{k}") for k in range(len(x)))
            lines.append(f"{''.join(p.name + ', ' for p in parts)}= {name}")
            traced.append(parts)
        else:
            traced.append(_Trace(made, "", name=name))
    out = formula(*traced)
    result = {id(x) for x in out}
    for k, x in enumerate(made):
        if x.name is None and (x.uses > 1 or id(x) in result):
            lines.append(f"t{k} = {x.text()}")
            x.name = f"t{k}"
    parts = "".join(x.name + ", " for x in out)
    if not checked:
        lines.append(f"return ({parts})")
    else:
        finite = " and ".join(f"isfinite({x.name})" for x in out)
        lines += [f"if {finite}:", f"    return new(Jet, ({parts}))", "raise OverflowAtPoint(OVERFLOW)"]
    source = f"def f({', '.join(names)}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace: dict = dict(
        isfinite=_isfinite, new=tuple.__new__, Jet=Jet, OverflowAtPoint=OverflowAtPoint,
        OVERFLOW=_OVERFLOW,
    )
    exec(compile(source, "<jets formula>", "exec"), namespace)
    return namespace["f"]


class _Hot(dict):
    """A formula's function per jet length: the formula as written,
    counting its calls, until _HOT calls at that length, and from then on
    the straight-line code of its trace at that length (:func:`_compiled`),
    which makes the same operations on the same operands, so the same
    bits, without the loops over its plan.  If ``checked``, it checks its
    result, as :func:`_checked` does.  Codegen runs the unchecked ones,
    and its own unchecked copies of the checked ones, on symbolic values:
    the code makes the formula's operations in the formula's order, so
    the source codegen writes is the same either way."""

    def __init__(self, formula, checked: bool = False):
        super().__init__()
        self.formula = formula
        self.checked = checked

    def __missing__(self, n: int):
        checked = self.checked
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            if calls == _HOT:
                self[n] = _compiled(self.formula, args, checked)
            out = self.formula(*args)
            return _checked(out) if checked else out

        self[n] = counted
        return counted


def _scaled(c: float, x):
    # c x, for an integer coefficient c, with no product by 1 or -1
    return x if c == 1.0 else -x if c == -1.0 else c * x


def _sum(a, b) -> tuple:
    return tuple(map(add, a, b))


def _difference(a, b) -> tuple:
    return tuple(map(sub, a, b))


def _negation(a) -> tuple:
    return tuple(map(neg, a))


def _product(a, b) -> tuple:
    """Leibniz rule: (ab)^(k) is the sum over j of C(k, j) a^(k-j) b^(j)."""
    out = []
    for k in range(len(a)):
        acc = None
        for j, c in _LEIBNIZ[k]:
            term = _scaled(c, a[j] * b[j] if 2 * j == k else a[k - j] * b[j] + a[j] * b[k - j])
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def _chain(u, w) -> tuple:
    """Faa di Bruno's formula: ``w`` holds the outer function's value and
    derivatives at u's value, as many as u has parts."""
    out = [w[0]]
    for plan in _FAA_DI_BRUNO[: len(u) - 1]:
        acc = None
        for m, c, p in plan:
            monomial = u[p[0]]  # prod_{i in p} u^(i), left to right
            for i in p[1:]:
                monomial = monomial * u[i]
            term = _scaled(c, w[m] * monomial)
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def _reciprocal(w, count: int) -> tuple:
    """1/x and its first count - 1 derivatives at x, from w = 1/x:
    (-1)^k k! w^(k+1), each power p the product of the powers p - p//2
    and p//2, and scaled as soon as it is made."""
    powers = [None, w]
    out = [w] if count else []  # log's jet of order 0 takes none
    for p in range(2, count + 1):
        powers.append(powers[p - p // 2] * powers[p // 2])
        out.append(_scaled((-1.0) ** (p - 1) * math.factorial(p - 1), powers[p]))
    return tuple(out)


# the formulas the jet operations call, per jet length: _PRODUCT[length];
# those whose result is a node's check it
_SUM = _Hot(_sum, True)
_DIFFERENCE = _Hot(_difference, True)
_NEGATION = _Hot(_negation)
_PRODUCT = _Hot(_product, True)
_CHAIN = _Hot(_chain, True)
_RECIPROCAL = _Hot(_reciprocal)


def _mobius(u, a, b, c, r) -> tuple:
    """(a w + b)/(c w + d) after u, for ad - bc = 1, from r = 1/(c w + d).

    The chain rule (Faa di Bruno's plan, as :func:`_chain`) takes the
    map's closed-form derivatives at w = u's value, the m-th
    (-c)^(m-1) m! r^(m+1).  The quotient rule on (a u + b)/(c u + d)
    would instead find d1 as the difference of a (c u + d) and c (a u + b),
    which grow with |u| while the difference stays ad - bc = 1, and lose
    digits to the cancellation.  The chain is taken in s_k = r u_k: each
    monomial of the plan takes c into every factor but its last, its
    coefficient is m! times the plan's, its sign (-1)^(m-1) is taken by
    negating it (a product by a negative coefficient would round the sign
    of a zero part otherwise), and the sum is multiplied by r, so that at
    order 3

        d1 = r s1,  d2 = r (-2 (c s1) s1 + s2),  d3 = r (6 (c s1)(c s1) s1 - 6 (c s1) s2 + s3),

    and a large u, whose r^2 underflows while u1^3 overflows, meets no
    0 * inf.
    """
    s = [r * x for x in u[1:]]  # s[k - 1] is s_k
    cs = [c * x for x in s[: len(s) // 2]]  # no partition puts a larger part before its last
    out = [(a * u[0] + b) * r]
    for plan in _FAA_DI_BRUNO[: len(s)]:
        acc = None
        for m, bell, p in plan:
            monomial = reduce(mul, (*(cs[i - 1] for i in p[:-1]), s[p[-1] - 1]))
            term = _scaled(math.factorial(m) * bell, monomial)
            term = term if m % 2 else -term
            acc = term if acc is None else acc + term
        out.append(r * acc)
    return tuple(out)


_MOBIUS = _Hot(_mobius)


# ---------------------------------------------------------------------------
# one jet at a time


def _checked(j: tuple) -> Jet:
    # the one rule past the double range: a node fails where a part is not finite
    for x in j:
        if not _isfinite(x):
            raise OverflowAtPoint(_OVERFLOW)
    return _as_jet(j)


# per order, the parts after the value of the identity map's jet and of a
# constant's; the latter keyed by order, so that jet_const, which takes no
# check on the walk's path, raises KeyError at an order outside 0..MAX_ORDER
_VAR_TAIL = tuple((VAR_D1, *(ZERO,) * MAX_ORDER)[:k] for k in range(MAX_ORDER + 1))
_CONST_TAIL = {k: (ZERO,) * k for k in range(MAX_ORDER + 1)}


def jet_var(z0: complex | Ball, order: int = 3) -> Jet:
    """Jet of the identity map at ``z0``, a number or a ball of points, of order ``order``."""
    if not 0 <= order <= MAX_ORDER:  # the order of eval_jet's seed is first read here
        raise ValueError(f"a jet's order runs from 0 to {MAX_ORDER}, not {order}")
    if type(z0) is not Ball:
        z0 = complex(z0)
    if not _isfinite(z0):
        raise ValueError("jet_var requires a finite point")
    return _as_jet((z0,) + _VAR_TAIL[order])


def jet_const(c: complex, order: int = 3) -> Jet:
    """Jet of a constant function, of order ``order``."""
    try:
        c = complex(c)
        finite = _isfinite(c)
    except OverflowError:  # an integer past the double range
        finite = False
    if not finite:
        raise ValueError("jet_const requires a finite value")
    return _as_jet((c,) + _CONST_TAIL[order])


def jet_add(a: Jet, b: Jet) -> Jet:
    return _SUM[len(a)](a, b)


def jet_sub(a: Jet, b: Jet) -> Jet:
    return _DIFFERENCE[len(a)](a, b)


def jet_neg(a: Jet) -> Jet:
    return _as_jet(_NEGATION[len(a)](a))


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Leibniz product rule."""
    return _PRODUCT[len(a)](a, b)


# the opaque functions of the node operations, on a complex number; over a
# ball each is the ball's own
_inverse = partial(truediv, 1.0)
_log_inverse = partial(truediv, 1.0)  # log's 1/x
_ON_BALLS = {
    cmath.exp: Ball.exp, cmath.log: Ball.log, _inverse: _inverse,
    # no part of log's jet is enclosed over a ball that meets its cut
    _log_inverse: lambda b: 1.0 / b.off_cut(),
}


class _Jets:
    """The guarded node operations, each written once: the reciprocal,
    the quotient, exp, log and the integer power.

    They call four hooks alone: ``refuse`` an operand by a refusal rule,
    given as its predicate and its source test; ``apply`` an opaque
    function, exp, log or 1/x, to an operand that passed; run a formula,
    by its table (_Hot), as a ``node``'s jet; and ``zeroth``, x^0.  A
    power past ``inline`` is handed whole to ``power_call``, which only a
    writer with a finite ``inline`` defines.  The hooks here are the
    plain ones, on complex numbers and balls: a refusal raises its typed
    JetError, a ball takes its own exp and log, and every node is checked
    (_checked).  ``codegen``'s lane writer overrides the hooks alone, so
    it writes the same operations, in the same order, as source.
    """

    # the plain walk writes every power out as products
    inline = math.inf

    def refuse(self, w, refused, test: str, error: type, message: str) -> None:
        # the rule's predicate on the operand; its source test is a writer's
        if refused(w):
            raise error(message, w)

    def apply(self, fn, w):
        return fn(w) if type(w) is not Ball else _ON_BALLS[fn](w)

    def node(self, table: _Hot, a: tuple, b: tuple) -> Jet:
        return table[len(a)](a, b)

    def zeroth(self, u: tuple) -> Jet:
        return jet_const(1.0, len(u) - 1)  # as many parts as u

    def reciprocal(self, b: tuple) -> tuple:
        bv = b[0]
        self.refuse(bv, _below_floor, _FLOOR_TEST, DivisionByZeroAtPoint,
                    "division by (near-)zero denominator")
        n = len(b)
        return self.node(_CHAIN, b, _RECIPROCAL[n](self.apply(_inverse, bv), n))

    def quotient(self, a: tuple, b: tuple) -> tuple:
        return self.node(_PRODUCT, a, self.reciprocal(b))

    def exp(self, u: tuple) -> tuple:
        uv = u[0]
        self.refuse(uv, _exp_refused, _EXP_TEST, OverflowAtPoint,
                    "exp argument outside the overflow guard")
        # exp's derivatives: exp u, every one
        return self.node(_CHAIN, u, (self.apply(cmath.exp, uv),) * len(u))

    def log(self, u: tuple) -> tuple:
        uv = u[0]
        self.refuse(uv, _below_floor, _FLOOR_TEST, DivisionByZeroAtPoint, "log of (near-)zero value")
        lg, w = self.apply(cmath.log, uv), self.apply(_log_inverse, uv)
        n = len(u)
        # log's derivatives: log u, then those of 1/x at u, one order down
        return self.node(_CHAIN, u, (lg, *_RECIPROCAL[n - 1](w, n - 1)))

    def power(self, u: tuple, k: int) -> tuple:
        if k == 0:
            return self.zeroth(u)
        if abs(k) > self.inline:
            return self.power_call(u, k)
        acc = u
        for _ in range(abs(k) - 1):
            acc = self.node(_PRODUCT, acc, u)
        # a negative power: the reciprocal of the positive one
        return acc if k > 0 else self.quotient(jet_const(1.0, len(u) - 1), acc)


# the plain operations, which dsl's walk tables take as they are
_PLAIN = _Jets()


def jet_div(a: Jet, b: Jet) -> Jet:
    """Quotient a/b, computed as a times the reciprocal jet of b."""
    return _PLAIN.quotient(a, b)


def jet_exp(u: Jet) -> Jet:
    """Exponential of a jet; guards |Re u| to stay inside finite doubles."""
    return _PLAIN.exp(u)


def jet_log(u: Jet) -> Jet:
    """Principal-branch logarithm of a jet."""
    return _PLAIN.log(u)


def jet_pow_int(u: Jet, k: int) -> Jet:
    """Integer power by repeated multiplication; negative k via reciprocal."""
    return _PLAIN.power(u, k)


def jet_mobius(u: Jet, a: complex, b: complex, c: complex, d: complex) -> Jet:
    """Jet of (a w + b)/(c w + d) applied after u, for ad - bc = 1 (:func:`_mobius`).

    On a ball jet the coefficients count as exact.  The map's derivatives
    scale with ad - bc, which normalized coefficients meet only to
    roundoff, so each part of the ball jet after its value is multiplied
    by a ball about 1 that holds ad - bc.
    """
    den = c * u[0] + d
    if _below_floor(den):
        raise DivisionByZeroAtPoint("Moebius map evaluated at its pole", den)
    # as complex numbers, which the compiled formula takes as operands,
    # where it would take an int for a count
    j = _MOBIUS[len(u)](u, complex(a), complex(b), complex(c), 1.0 / den)
    if type(u[0]) is Ball:
        det = (Ball(a) * d - Ball(b) * c).about(1.0)
        j = (j[0], *(x * det for x in j[1:]))
    return _checked(j)
