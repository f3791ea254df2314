"""Complex midpoint-radius balls, which enclose the exact results of rounded arithmetic.

A :class:`Ball` is the closed disk of complex numbers within ``rad`` of
``mid`` (Rump, "Verification methods", *Acta Numerica* 2010; Johansson,
"Arb", *IEEE Trans. Computers* 2017).  Each operation gives a ball that
contains the exact operation applied to every member of its operands,
and takes its midpoint from the very float operation that plain code
makes on the operands' midpoints.  Code written for complex numbers thus
runs unchanged on balls: the midpoints repeat its values bit for bit,
and the radii bound how far those values lie from the exact ones.  A
number operand counts as exact, a ball of radius 0.

Each radius adds the radii carried in, the second-order term and the
midpoint operation's own rounding, and is rounded upward.  This module
is the only place that knows a rounding rule.  The one assumption it
takes on trust is the accuracy of ``cmath.exp`` and ``cmath.log``,
:data:`LIBM_ERROR`.  A ball that meets log's branch cut, or holds 0
under division, gets an infinite radius, as does any radius that is not
a number.  The rules hold while no intermediate underflows by more than
the absolute term every radius carries.

A ball reads as its midpoint where code tests a computed value:
``complex(b)``, ``b.real``, ``b.imag`` and ``abs(b)`` are the midpoint's.
So the checks that ``jets`` and ``schwarzian`` make on values (a floor,
a guard, finiteness) decide on balls exactly as on the plain values.
"""

from __future__ import annotations

import cmath
import math

__all__ = ["UNIT_ROUNDOFF", "LIBM_ERROR", "Ball", "literal", "radius"]

# unit roundoff of double precision: rounding to nearest puts each part of
# a result within UNIT_ROUNDOFF of that part's own magnitude
UNIT_ROUNDOFF = 2.0**-53
_U = UNIT_ROUNDOFF
# taken on trust: cmath.exp(w) lies within LIBM_ERROR |exp w| of exp w,
# and cmath.log(w) within LIBM_ERROR (1 + |log w|) of log w (on 20,000
# random points, mpmath at 200 bits measured at most 2.2 U and 0.9 U)
LIBM_ERROR = 4.0 * _U
# CPython's complex product lies within sqrt(5) U |x y| of x y (Brent,
# Percival and Zimmermann, Math. Comp. 2007); 3U of the computed product
# covers that
_MUL = 3.0 * _U
# CPython's complex quotient (Smith's method) lies within (4 + sqrt(2)) U
# |x / y| of x / y, to first order
_DIV = 8.0 * _U
# a radius takes at most 16 float operations on nonnegative terms, each
# within U of its own value, so scaling by _UP rounds it upward; _TINY is
# the absolute term that covers underflow.  math.hypot is within an ulp
# of |w|, so _DOWN scales it to a lower bound.
_UP = 1.0 + 2.0**-44
_DOWN = 1.0 - 2.0**-50
_TINY = 2.0**-1060
_INF = math.inf


def _up(r: float) -> float:
    # r rounded upward; infinite where r is infinite or not a number
    return r * _UP + _TINY if r < _INF else _INF


def _mag(w) -> float:
    # |w|, infinite past the double range
    return math.hypot(w.real, w.imag)


def _parts(x) -> tuple:
    return (x.mid, x.rad) if type(x) is Ball else (x, 0.0)


class Ball:
    """The closed disk of complex numbers within ``rad`` of ``mid``."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad: float = 0.0):
        self.mid = mid
        self.rad = rad

    def __repr__(self) -> str:
        return f"Ball({self.mid!r}, {self.rad!r})"

    # the midpoint, where code tests a computed value

    def __complex__(self) -> complex:
        return complex(self.mid)

    def __abs__(self) -> float:
        return abs(self.mid)

    @property
    def real(self) -> float:
        return self.mid.real

    @property
    def imag(self) -> float:
        return self.mid.imag

    # enclosures

    def __neg__(self) -> Ball:
        return Ball(-self.mid, self.rad)

    def __add__(self, other) -> Ball:
        m, r = _parts(other)
        return _sum(self.mid + m, self.rad + r)

    def __radd__(self, other) -> Ball:
        return _sum(other + self.mid, self.rad)

    def __sub__(self, other) -> Ball:
        m, r = _parts(other)
        return _sum(self.mid - m, self.rad + r)

    def __rsub__(self, other) -> Ball:
        return _sum(other - self.mid, self.rad)

    def __mul__(self, other) -> Ball:
        m, r = _parts(other)
        return _product(self.mid * m, self.mid, self.rad, m, r)

    def __rmul__(self, other) -> Ball:
        return _product(other * self.mid, other, 0.0, self.mid, self.rad)

    def __truediv__(self, other) -> Ball:
        m, r = _parts(other)
        return _quotient(self.mid / m, self.mid, self.rad, m, r)

    def __rtruediv__(self, other) -> Ball:
        return _quotient(other / self.mid, other, 0.0, self.mid, self.rad)

    def exp(self) -> Ball:
        """exp over the ball, with cmath.exp's midpoint."""
        e, r = cmath.exp(self.mid), self.rad
        # |exp a - exp x| = |exp x| |exp(a - x) - 1| <= |exp x| (exp r - 1),
        # and exp r - 1 <= r + r^2 for r <= 1
        grown = r + r * r if r <= 1.0 else _INF
        return Ball(e, _up(_mag(e) * (grown + LIBM_ERROR)))

    def off_cut(self) -> Ball:
        """This ball, or its midpoint with an infinite radius where the
        ball meets log's branch cut, the ray (-inf, 0].

        The principal log jumps across its cut and has no derivative on
        it, so over such a ball neither log nor any of its derivatives
        is enclosed.
        """
        x, r = self.mid, self.rad
        low = _mag(x) * _DOWN
        # the distance from x to the cut, from below
        if r < (low if x.real > 0.0 else min(low, abs(x.imag))):
            return self
        return Ball(x, _INF)

    def log(self) -> Ball:
        """Principal log over the ball, with cmath.log's midpoint;
        infinite where the ball meets the cut (:meth:`off_cut`)."""
        x, r = self.mid, self.off_cut().rad
        lg = cmath.log(x)
        if r == _INF:
            return Ball(lg, _INF)
        # log is analytic on the ball, and |1/t| <= 1/(|x| - r) there
        low = _mag(x) * _DOWN
        return Ball(lg, _up(r / (low - r) + LIBM_ERROR * (1.0 + _mag(lg))))

    def about(self, c) -> Ball:
        """The ball about ``c`` that contains this one."""
        return Ball(c, _up(_mag(self.mid - c) + self.rad))


def _sum(s, r: float) -> Ball:
    # rounding to nearest puts s within U |s| of the exact sum
    return Ball(s, _up(r + _U * _mag(s)))


def _product(p, x, rx: float, y, ry: float) -> Ball:
    # a b, for |a - x| <= rx and |b - y| <= ry, lies within
    # |x| ry + rx |y| + rx ry of x y
    return Ball(p, _up(_mag(x) * ry + rx * (_mag(y) + ry) + _MUL * _mag(p)))


def _quotient(q, x, rx: float, y, ry: float) -> Ball:
    # a / b lies within (rx + |x / y| ry) / (|y| - ry) of x / y, for
    # |a - x| <= rx and |b - y| <= ry < |y|
    low = _mag(y) * _DOWN
    gap = low - ry
    if not gap > 0.0:
        return Ball(q, _INF)
    ratio = _mag(x) / low
    return Ball(q, _up((rx + ratio * ry) / gap + _DIV * ratio + _TINY / low))


def literal(c) -> Ball:
    """A number literal's double, which lies within half an ulp of the number written."""
    return Ball(c, _up(_U * _mag(c)))


def radius(x) -> float:
    """A ball's radius; 0 for a number, which is exact."""
    return x.rad if type(x) is Ball else 0.0
