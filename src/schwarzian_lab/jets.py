"""Order-3 complex jet arithmetic.

A :class:`ComplexJet3` carries the value and first three derivatives of an
analytic function at one point of the complex plane.  The operations below
propagate all four components through field arithmetic and the exp/log
primitives, which is exactly enough to evaluate Schwarzian derivatives
without symbolic differentiation.

Jets never hold non-finite components: an operation that would produce
``inf`` or ``nan`` raises :class:`OverflowAtPoint` instead.  An operation
given an ``order`` below 3 checks only the parts up to that order, for a
statistic that reads no others, and leaves the parts above it as they
come, which may be ``inf`` or ``nan``; a part never depends on the parts
of higher order of its operands, so the checked parts are the same bits
either way.  A division whose denominator magnitude sits at or below the
floor raises :class:`DivisionByZeroAtPoint`.  A denominator whose
magnitude is past the double range, where ``abs`` itself would overflow,
raises :class:`OverflowAtPoint`; :func:`modulus` is that ``abs`` for every
caller.

Every formula is written once, as a function of plain operands (the
``_sum`` ... ``_mobius`` section below).  The ``jet_*`` operations run
them on complex numbers and check the result, one call per node of
``dsl``'s tree walk; ``codegen`` runs the same functions on symbolic
operands to generate each family's straight-line lane function, so both
paths run the same float operations in the same order.

The ``jet_*`` operations run unchanged on jets whose parts are balls
(:class:`~schwarzian_lab.ball.Ball`), as ``dsl.eval_jet`` at a ball
gives them.  Such a jet's midpoints are the plain jet's values, its
checks decide on them, and each part encloses the exact derivative of
the same expression at every point of the seed's ball.
"""

from __future__ import annotations

import cmath
from functools import partial
from typing import NamedTuple

from .ball import Ball

__all__ = [
    "ComplexJet3",
    "JetError",
    "DivisionByZeroAtPoint",
    "OverflowAtPoint",
    "DIVISION_FLOOR",
    "EXP_REAL_GUARD",
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


class ComplexJet3(NamedTuple):
    """Value and first three derivatives of an analytic function at a point."""

    v: complex
    d1: complex
    d2: complex
    d3: complex


_OVERFLOW = "jet component overflowed the finite range"
# a jet is built as a plain 4-tuple; _as_jet names it
_as_jet = partial(tuple.__new__, ComplexJet3)

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


# ---------------------------------------------------------------------------
# formulas
#
# Each takes and returns plain 4-tuples of operands that support +, - and
# * with complex numbers and floats: complex numbers or balls here,
# symbolic values when codegen generates the lane function from them.
# Sums are associated symmetrically so that swapping a product's operands
# yields the identical floating-point result.


def _sum(a, b) -> tuple:
    return a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]


def _difference(a, b) -> tuple:
    return a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]


def _negation(a) -> tuple:
    return -a[0], -a[1], -a[2], -a[3]


def _product(a, b) -> tuple:
    """Leibniz product rule through order three."""
    av, a1, a2, a3 = a
    bv, b1, b2, b3 = b
    return (
        av * bv,
        a1 * bv + av * b1,
        (a2 * bv + av * b2) + 2.0 * (a1 * b1),
        (a3 * bv + av * b3) + 3.0 * (a2 * b1 + a1 * b2),
    )


def _chain(u, w) -> tuple:
    """Order-3 chain rule: ``w`` holds the outer function's value and first
    three derivatives at u's value."""
    _, u1, u2, u3 = u
    w0, w1, w2, w3 = w
    return (
        w0,
        w1 * u1,
        w2 * (u1 * u1) + w1 * u2,
        w3 * (u1 * u1 * u1) + 3.0 * (w2 * (u1 * u2)) + w1 * u3,
    )


def _reciprocal(w) -> tuple:
    """1/x and its derivatives at x, from w = 1/x."""
    w2 = w * w
    return w, -w2, 2.0 * (w2 * w), -6.0 * (w2 * w2)


def _exponential(e) -> tuple:
    """exp and its derivatives at u, from e = exp(u)."""
    return e, e, e, e


def _logarithm(lg, w) -> tuple:
    """log and its derivatives at u, from lg = log(u) and w = 1/u."""
    w2 = w * w
    return lg, w, -w2, 2.0 * (w2 * w)


def _mobius(u, a, b, c, r) -> tuple:
    """(a w + b)/(c w + d) after u, for ad - bc = 1, from r = 1/(c w + d).

    The chain rule takes the map's closed-form derivatives at w = u's
    value: with r = 1/(c w + d) they are r^2, -2c r^3 and 6c^2 r^4.  The
    quotient rule on (a u + b)/(c u + d) would instead find d1 as the
    difference of a (c u + d) and c (a u + b), which grow with |u| while
    the difference stays ad - bc = 1, and lose digits to the
    cancellation.  The chain is taken in s, p, q = r u1, r u2, r u3:

        d1 = r s,  d2 = r (p - 2c s^2),  d3 = r (6c^2 s^3 - 6c s p + q),

    so that a large u, whose r^2 underflows while u1^3 overflows, meets no
    0 * inf.
    """
    w, u1, u2, u3 = u
    s, p, q = r * u1, r * u2, r * u3
    cs = c * s
    return (
        (a * w + b) * r,
        r * s,
        r * (p - 2.0 * (cs * s)),
        r * (6.0 * (cs * cs * s) - 6.0 * (cs * p) + q),
    )


# ---------------------------------------------------------------------------
# one jet at a time


def _checked(j: tuple, order: int = 3) -> ComplexJet3:
    # the one rule past the double range: a node fails where a part of
    # order at most ``order`` is not finite; the parts above it go unchecked
    v, d1, d2, d3 = j
    if (_isfinite(v) and (order < 1 or _isfinite(d1)) and (order < 2 or _isfinite(d2))
            and (order < 3 or _isfinite(d3))):
        return _as_jet(j)
    raise OverflowAtPoint(_OVERFLOW)


def jet_var(z0: complex | Ball) -> ComplexJet3:
    """Jet of the identity map at ``z0``, a number or a ball of points."""
    if type(z0) is not Ball:
        z0 = complex(z0)
    if not _isfinite(z0):
        raise ValueError("jet_var requires a finite point")
    return ComplexJet3(z0, VAR_D1, ZERO, ZERO)


def jet_const(c: complex) -> ComplexJet3:
    """Jet of a constant function."""
    try:
        c = complex(c)
        finite = _isfinite(c)
    except OverflowError:  # an integer past the double range
        finite = False
    if not finite:
        raise ValueError("jet_const requires a finite value")
    return ComplexJet3(c, ZERO, ZERO, ZERO)


def jet_add(a: ComplexJet3, b: ComplexJet3, order: int = 3) -> ComplexJet3:
    return _checked(_sum(a, b), order)


def jet_sub(a: ComplexJet3, b: ComplexJet3, order: int = 3) -> ComplexJet3:
    return _checked(_difference(a, b), order)


def jet_neg(a: ComplexJet3) -> ComplexJet3:
    return _as_jet(_negation(a))


def jet_mul(a: ComplexJet3, b: ComplexJet3, order: int = 3) -> ComplexJet3:
    """Leibniz product rule through order three."""
    return _checked(_product(a, b), order)


def _reciprocal_jet(b: ComplexJet3, order: int = 3) -> ComplexJet3:
    bv = b[0]
    if modulus(bv) <= DIVISION_FLOOR:
        raise DivisionByZeroAtPoint("division by (near-)zero denominator", bv)
    return _checked(_chain(b, _reciprocal(1.0 / bv)), order)


def jet_div(a: ComplexJet3, b: ComplexJet3, order: int = 3) -> ComplexJet3:
    """Quotient a/b, computed as a times the reciprocal jet of b."""
    return jet_mul(a, _reciprocal_jet(b, order), order)


def jet_exp(u: ComplexJet3, order: int = 3) -> ComplexJet3:
    """Exponential of a jet; guards |Re u| to stay inside finite doubles."""
    uv = u[0]
    if abs(uv.real) > EXP_REAL_GUARD:
        raise OverflowAtPoint("exp argument outside the overflow guard", uv)
    e = uv.exp() if type(uv) is Ball else cmath.exp(uv)
    return _checked(_chain(u, _exponential(e)), order)


def jet_log(u: ComplexJet3, order: int = 3) -> ComplexJet3:
    """Principal-branch logarithm of a jet."""
    uv = u[0]
    if modulus(uv) <= DIVISION_FLOOR:
        raise DivisionByZeroAtPoint("log of (near-)zero value", uv)
    if type(uv) is Ball:
        # no part of log's jet is enclosed over a ball that meets its cut
        uv = uv.off_cut()
        lg = uv.log()
    else:
        lg = cmath.log(uv)
    return _checked(_chain(u, _logarithm(lg, 1.0 / uv)), order)


_ONE = ComplexJet3(1.0 + 0.0j, ZERO, ZERO, ZERO)


def jet_pow_int(u: ComplexJet3, k: int, order: int = 3) -> ComplexJet3:
    """Integer power by repeated multiplication; negative k via reciprocal."""
    if k < 0:
        return jet_div(_ONE, jet_pow_int(u, -k, order), order)
    if k == 0:
        return _ONE
    acc = u
    for _ in range(k - 1):
        acc = jet_mul(acc, u, order)
    return acc


def jet_mobius(u: ComplexJet3, a: complex, b: complex, c: complex, d: complex) -> ComplexJet3:
    """Jet of (a w + b)/(c w + d) applied after u, for ad - bc = 1 (:func:`_mobius`).

    On a ball jet the coefficients count as exact.  The map's derivatives
    scale with ad - bc, which normalized coefficients meet only to
    roundoff, so the ball jet's derivatives are multiplied by a ball about
    1 that holds ad - bc.
    """
    w = u[0]
    den = c * w + d
    if modulus(den) <= DIVISION_FLOOR:
        raise DivisionByZeroAtPoint("Moebius map evaluated at its pole", den)
    j = _mobius(u, a, b, c, 1.0 / den)
    if type(w) is Ball:
        det = (Ball(a) * d - Ball(b) * c).about(1.0)
        j = (j[0], j[1] * det, j[2] * det, j[3] * det)
    return _checked(j)
