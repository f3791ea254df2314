"""Order-3 complex jet arithmetic.

A :class:`ComplexJet3` carries the value and first three derivatives of an
analytic function at one point of the complex plane.  The operations below
propagate all four components through field arithmetic and the exp/log
primitives, which is exactly enough to evaluate Schwarzian derivatives
without symbolic differentiation.

Jets never hold non-finite components: an operation that would produce
``inf`` or ``nan`` raises :class:`OverflowAtPoint` instead, and a division
whose denominator magnitude sits at or below the floor raises
:class:`DivisionByZeroAtPoint`.  A denominator whose magnitude is past the
double range, where ``abs`` itself would overflow, raises
:class:`OverflowAtPoint`; :func:`modulus` is that ``abs`` for every caller.

Every formula is written once, as a function of plain operands (the
``_sum`` ... ``_logarithm`` section below).  The ``jet_*`` operations run
them on complex numbers and check the result, one call per node of
``dsl``'s tree walk; ``codegen`` runs the same functions on symbolic
operands to generate each family's straight-line lane function, so both
paths run the same float operations in the same order.

Each operation also has a ``bounded_*`` twin on :class:`BoundedJet`, which
computes the bit-identical jet and, beside it, a first-order running
error bound per component (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 3): the error carried in by the operands, propagated
through the operation's derivatives, plus the operation's own rounding.
"""

from __future__ import annotations

import cmath
from functools import partial
from typing import NamedTuple

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
    "UNIT_ROUNDOFF",
    "BoundedJet",
    "bounded_exact",
    "bounded_const",
    "bounded_neg",
    "bounded_add",
    "bounded_sub",
    "bounded_mul",
    "bounded_div",
    "bounded_exp",
    "bounded_log",
    "bounded_pow_int",
    "bounded_mobius",
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
# * with complex numbers and floats: complex numbers here, magnitudes for
# the error bounds below, symbolic values when codegen generates the lane
# function from them.  Sums are associated symmetrically so that swapping
# a product's operands yields the identical floating-point result.


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


# ---------------------------------------------------------------------------
# one jet at a time


def _checked(j: tuple) -> ComplexJet3:
    v, d1, d2, d3 = j
    if _isfinite(v) and _isfinite(d1) and _isfinite(d2) and _isfinite(d3):
        return _as_jet(j)
    raise OverflowAtPoint(_OVERFLOW)


def jet_var(z0: complex) -> ComplexJet3:
    """Jet of the identity map at ``z0``."""
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


def jet_add(a: ComplexJet3, b: ComplexJet3) -> ComplexJet3:
    return _checked(_sum(a, b))


def jet_sub(a: ComplexJet3, b: ComplexJet3) -> ComplexJet3:
    return _checked(_difference(a, b))


def jet_neg(a: ComplexJet3) -> ComplexJet3:
    return _as_jet(_negation(a))


def jet_mul(a: ComplexJet3, b: ComplexJet3) -> ComplexJet3:
    """Leibniz product rule through order three."""
    return _checked(_product(a, b))


def _reciprocal_jet(b: ComplexJet3) -> ComplexJet3:
    bv = b[0]
    if modulus(bv) <= DIVISION_FLOOR:
        raise DivisionByZeroAtPoint("division by (near-)zero denominator", bv)
    return _checked(_chain(b, _reciprocal(1.0 / bv)))


def jet_div(a: ComplexJet3, b: ComplexJet3) -> ComplexJet3:
    """Quotient a/b, computed as a times the reciprocal jet of b."""
    return jet_mul(a, _reciprocal_jet(b))


def jet_exp(u: ComplexJet3) -> ComplexJet3:
    """Exponential of a jet; guards |Re u| to stay inside finite doubles."""
    uv = u[0]
    if abs(uv.real) > EXP_REAL_GUARD:
        raise OverflowAtPoint("exp argument outside the overflow guard", uv)
    return _checked(_chain(u, _exponential(cmath.exp(uv))))


def jet_log(u: ComplexJet3) -> ComplexJet3:
    """Principal-branch logarithm of a jet."""
    uv = u[0]
    if modulus(uv) <= DIVISION_FLOOR:
        raise DivisionByZeroAtPoint("log of (near-)zero value", uv)
    return _checked(_chain(u, _logarithm(cmath.log(uv), 1.0 / uv)))


_ONE = ComplexJet3(1.0 + 0.0j, ZERO, ZERO, ZERO)


def jet_pow_int(
    u: ComplexJet3, k: int, mul=jet_mul, div=jet_div, one=_ONE
) -> ComplexJet3:
    """Integer power by repeated multiplication; negative k via reciprocal.

    ``mul``, ``div`` and ``one`` let :func:`bounded_pow_int` run the same
    steps on bounded jets.
    """
    if k < 0:
        return div(one, jet_pow_int(u, -k, mul, div, one))
    if k == 0:
        return one
    acc = u
    for _ in range(k - 1):
        acc = mul(acc, u)
    return acc


def jet_mobius(u: ComplexJet3, a: complex, b: complex, c: complex, d: complex) -> ComplexJet3:
    """Jet of (a w + b)/(c w + d) applied after u, for ad - bc = 1.

    The chain rule takes the map's closed-form derivatives at w = u.v:
    with r = 1/(c w + d) they are r^2, -2c r^3 and 6c^2 r^4.  The quotient
    rule on (a u + b)/(c u + d) would instead find d1 as the difference of
    a (c u + d) and c (a u + b), which grow with |u| while the difference
    stays ad - bc = 1, and lose digits to the cancellation.  The chain is
    taken in u's derivatives scaled by r, s, p, q = r u1, r u2, r u3:

        d1 = r s,  d2 = r (p - 2c s^2),  d3 = r (6c^2 s^3 - 6c s p + q),

    so that a large u, whose r^2 underflows while u1^3 overflows, meets no
    0 * inf.
    """
    w = u[0]
    den = c * w + d
    if modulus(den) <= DIVISION_FLOOR:
        raise DivisionByZeroAtPoint("Moebius map evaluated at its pole", den)
    r = 1.0 / den
    _, u1, u2, u3 = u
    s, p, q = r * u1, r * u2, r * u3
    cs = c * s
    return _checked((
        (a * w + b) * r,
        r * s,
        r * (p - 2.0 * (cs * s)),
        r * (6.0 * (cs * cs * s) - 6.0 * (cs * p) + q),
    ))


# ---------------------------------------------------------------------------
# running error bounds

# unit roundoff of double precision: a complex result rounded per
# component lies within UNIT_ROUNDOFF times its modulus of the exact one
UNIT_ROUNDOFF = 2.0**-53
_U = UNIT_ROUNDOFF
# own rounding of a Leibniz product, in units of U times the sum of the
# magnitude products |a_i||b_j| behind each component: every complex
# product is within 3U, the sums and the factors 2 and 3 add a few U more
_C_MUL = 8.0
# own rounding of a chain-rule step, in units of U times the magnitude
# terms of each component: the outer derivatives w0..w3 are computed to
# within about 42U (the reciprocal's -6 w^4), the chain formula adds 14U
_C_CHAIN = 64.0
# absolute rounding of log's real part near |u| = 1, where log|u| is tiny
_LOG_ABS = 4.0 * _U

# (e0, e1, e2, e3): nonnegative bounds on each component's error
Err = tuple[float, float, float, float]


class BoundedJet(NamedTuple):
    """A computed jet and first-order bounds on each component's error.

    ``err[k]`` bounds the distance of ``jet[k]`` from the exact value of
    the same expression, to first order in the unit roundoff.
    """

    jet: ComplexJet3
    err: Err


_EXACT = (0.0, 0.0, 0.0, 0.0)


def _mags(j: ComplexJet3) -> Err:
    return (modulus(j.v), modulus(j.d1), modulus(j.d2), modulus(j.d3))


def _product_err(a: Err, ea: Err, b: Err, eb: Err) -> Err:
    # jet_mul's formula on magnitudes
    return tuple(
        p + q + _C_MUL * _U * m
        for p, q, m in zip(_product(a, eb), _product(ea, b), _product(a, b))
    )


def _chain_bound(u: BoundedJet, w: tuple, rho: float) -> tuple[Err, Err]:
    """Magnitude terms and error bound of _chain's output.

    ``w`` holds |w0|..|w4|, the outer function's value and derivatives at
    u.v in magnitude (w4 carries the error of u.v into d3); ``rho`` is the
    relative rounding of the outer derivatives and the chain formula.
    """
    e0, e1, e2, e3 = u.err
    mags = _mags(u.jet)
    w1 = w[1]
    mag = _chain(mags, w[:4])
    # the chain rule's coefficients of e0: its output with the outer
    # derivatives one order up
    c0, c1, c2, c3 = _chain(mags, w[1:])
    propagated = (
        c0 * e0,
        c1 * e0 + w1 * e1,
        c2 * e0 + 2.0 * c1 * e1 + w1 * e2,
        c3 * e0 + 3.0 * c2 * e1 + 3.0 * c1 * e2 + w1 * e3,
    )
    return mag, tuple(p + rho * m for p, m in zip(propagated, mag))


def bounded_exact(j: ComplexJet3) -> BoundedJet:
    """A jet known exactly, such as the variable at a given point."""
    return BoundedJet(j, _EXACT)


def bounded_const(c: complex) -> BoundedJet:
    """A literal, known only to half an ulp: the rounding of its text."""
    j = jet_const(c)
    return BoundedJet(j, (_U * modulus(j.v), 0.0, 0.0, 0.0))


def bounded_neg(a: BoundedJet) -> BoundedJet:
    return BoundedJet(jet_neg(a.jet), a.err)


def _sum_bound(a: BoundedJet, b: BoundedJet, j: ComplexJet3) -> BoundedJet:
    return BoundedJet(
        j, tuple(x + y + _U * m for x, y, m in zip(a.err, b.err, _mags(j)))
    )


def bounded_add(a: BoundedJet, b: BoundedJet) -> BoundedJet:
    return _sum_bound(a, b, jet_add(a.jet, b.jet))


def bounded_sub(a: BoundedJet, b: BoundedJet) -> BoundedJet:
    return _sum_bound(a, b, jet_sub(a.jet, b.jet))


def bounded_mul(a: BoundedJet, b: BoundedJet) -> BoundedJet:
    j = jet_mul(a.jet, b.jet)
    return BoundedJet(j, _product_err(_mags(a.jet), a.err, _mags(b.jet), b.err))


def bounded_div(a: BoundedJet, b: BoundedJet) -> BoundedJet:
    j = jet_div(a.jet, b.jet)
    m = 1.0 / modulus(b.jet.v)
    m2 = m * m
    recip, recip_err = _chain_bound(
        b, (m, m2, 2.0 * m2 * m, 6.0 * m2 * m2, 24.0 * m2 * m2 * m), _C_CHAIN * _U
    )
    return BoundedJet(j, _product_err(_mags(a.jet), a.err, recip, recip_err))


def bounded_exp(u: BoundedJet) -> BoundedJet:
    j = jet_exp(u.jet)
    e = modulus(j.v)
    return BoundedJet(j, _chain_bound(u, (e, e, e, e, e), _C_CHAIN * _U)[1])


def bounded_log(u: BoundedJet) -> BoundedJet:
    """Bounded principal log; the bound is infinite where the value's
    error disk meets the branch cut, since the branch itself is unknown."""
    j = jet_log(u.jet)
    uv = u.jet.v
    if uv.real < 0.0 and abs(uv.imag) <= u.err[0]:
        return BoundedJet(j, (float("inf"),) * 4)
    m = 1.0 / modulus(uv)
    m2 = m * m
    _, (e0, e1, e2, e3) = _chain_bound(
        u, (modulus(j.v), m, m2, 2.0 * m2 * m, 6.0 * m2 * m2), _C_CHAIN * _U
    )
    return BoundedJet(j, (e0 + _LOG_ABS, e1, e2, e3))


_BOUNDED_ONE = BoundedJet(_ONE, _EXACT)


def bounded_pow_int(u: BoundedJet, k: int) -> BoundedJet:
    return jet_pow_int(u, k, bounded_mul, bounded_div, _BOUNDED_ONE)


def bounded_mobius(
    u: BoundedJet, a: complex, b: complex, c: complex, d: complex
) -> BoundedJet:
    """Bounded :func:`jet_mobius`; the coefficients count as exact.

    Near the pole, c w + d is the small difference of rounded terms of
    size |c w| + |d|, which scales the relative error of r by that ratio.
    Normalized coefficients meet ad - bc = 1 only to roundoff, and the
    map's derivatives scale with ad - bc, so its distance from 1 counts
    as a relative error of d1..d3.
    """
    j = jet_mobius(u.jet, a, b, c, d)
    w, u1, u2, u3 = u.jet
    r = 1.0 / modulus(c * w + d)
    mc = modulus(c)
    cr = mc * r
    kappa = (mc * modulus(w) + modulus(d)) * r
    # jet_mobius's scaling: u's derivatives and errors times r, and the
    # map's k-th derivative, k! |c|^(k-1) r^(k+1), over r^k
    scaled = BoundedJet(_as_jet((w, r * u1, r * u2, r * u3)), tuple(r * e for e in u.err))
    mag, (e0, e1, e2, e3) = _chain_bound(
        scaled,
        (modulus(j.v), r, 2.0 * cr, 6.0 * mc * cr, 24.0 * mc * mc * cr),
        (_C_CHAIN + 16.0 * kappa) * _U,
    )
    # the value multiplies r by a w + b, itself rounded at |a w| + |b|
    e0 += 4.0 * _U * (modulus(a) * modulus(w) + modulus(b)) * r
    ad, bc = a * d, b * c
    det_dev = modulus(ad - bc - 1.0) + 4.0 * _U * (modulus(ad) + modulus(bc))
    return BoundedJet(
        j, (e0, e1 + det_dev * mag[1], e2 + det_dev * mag[2], e3 + det_dev * mag[3])
    )
