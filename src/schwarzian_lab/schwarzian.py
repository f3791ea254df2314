"""Schwarzian and spherical derivative operators, with Moebius algebra.

The Schwarzian derivative of f is  S_f = f'''/f' - (3/2)(f''/f')^2,
computed here from an order-3 jet by one formula,
``_schwarzian_derivatives``, which also gives S' and S'' from jets of
order 4 and 5.  ``scan-sd`` takes them by the composition law
S_{F o g} = (S_F o g) g'^2 + S_g instead: the peel rule, ``_peel``,
splits a tree into an outer map F and its inner tree g, and
``_peeled_derivatives`` adds F's chain terms to that formula's S of g's
jet, so that no part of F o g above f' is computed; where g is a Moebius
map of z (``_mobius_parts``), S_g is 0 and the chain terms alone read g's
jet two orders lower.  Marty's
f# = |f'| / (1 + |f|^2) is one formula too, ``_spherical``.  Moebius
transformations (az+b)/(cz+d) are the kernel of S: applying one after f leaves S_f
unchanged, and S of a Moebius map itself vanishes identically.  The
checkers at the bottom verify these identities numerically at a point and
return an :class:`IdentityReport` rather than a bare boolean, so callers
see the actual gap and the tolerance that judged it.  Where the fixed
tolerances cannot decide, a checker runs the code that computed its two
sides again at a :class:`~.ball.Ball` of radius 0 about its point: the
balls enclose each side's exact value, so their radii bound how much of
the gap roundoff can explain.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from .ball import Ball, radius
from .dsl import (
    Add,
    ConstNum,
    Div,
    Exp,
    FamilyExpr,
    Log,
    Mul,
    Neg,
    Node,
    PowInt,
    Sub,
    Var,
    eval_jet,
    eval_jet_seeded,
)
from .jets import (
    DivisionByZeroAtPoint,
    Jet,
    OverflowAtPoint,
    jet_const,
    jet_div,
    jet_mobius,
    jet_sub,
    jet_var,
    modulus,
)
from .record import Record

__all__ = [
    "CRITICAL_POINT_FLOOR",
    "DEFAULT_TOL_ABS",
    "DEFAULT_TOL_REL",
    "RECIPROCAL_GUARD",
    "CONJUGACY_TOL",
    "POINT_AT_INFINITY",
    "CriticalPointError",
    "PoleOfMobius",
    "GuardViolation",
    "ConjugacyViolated",
    "DegenerateMobiusError",
    "Mobius",
    "IdentityReport",
    "spherical_derivative",
    "schwarzian",
    "mobius_apply",
    "mobius_compose",
    "mobius_inverse",
    "mobius_jet",
    "mobius_on_jet",
    "check_mobius_invariance",
    "check_composition_law",
    "check_reciprocal",
    "check_conjugation",
]

# |f'| at or below this floor makes the Schwarzian undefined at the point
CRITICAL_POINT_FLOOR = 1e-12
DEFAULT_TOL_ABS = 1e-10
DEFAULT_TOL_REL = 1e-8
# reciprocal check refuses points where f(z) sits this close to the
# omitted value
RECIPROCAL_GUARD = 1e-9
# pointwise tolerance for phi(f(z)) = g(phi(z)) in the conjugation check
CONJUGACY_TOL = 1e-10

# marker returned by mobius_apply at the pole
POINT_AT_INFINITY = complex(math.inf, math.inf)


class CriticalPointError(ArithmeticError):
    """Schwarzian requested where |f'| is at or below the floor."""

    def __init__(self, message: str, point: complex | None = None, label: str = ""):
        super().__init__(message)
        self.point = point
        self.label = label


class PoleOfMobius(ArithmeticError):
    """Jet of a Moebius map requested at its pole z = -d/c."""

    def __init__(self, point: complex):
        super().__init__(f"Moebius map has a pole at z = {point}")
        self.point = point

    def __reduce__(self):
        return type(self), (self.point,), vars(self)


class GuardViolation(ValueError):
    """A checker's distance guard failed at the chosen point."""


class ConjugacyViolated(ValueError):
    """phi(f(z)) and g(phi(z)) disagree beyond the pointwise tolerance."""

    def __init__(self, gap: float, tol: float):
        super().__init__(
            f"conjugacy gap {gap:.3e} exceeds the pointwise tolerance {tol:.3e}"
        )
        self.gap = gap
        self.tol = tol

    def __reduce__(self):
        return type(self), (self.gap, self.tol), vars(self)


class DegenerateMobiusError(ValueError):
    """Coefficients with ad - bc (numerically) zero."""


# The two statistics, each written once as a formula on a jet's parts
# (value first), with the builtin abs, which raises OverflowError past the
# double range.  The functions below run them on complex numbers; a scan's
# generated lane function runs the same formulas inline (codegen.Statistic).


def _spherical(j) -> float:
    m = abs(j[0])
    return abs(j[1]) / (1.0 + m * m)


def _schwarzian_derivatives(j) -> tuple:
    """(S,) from a jet of order 3, (S, S') from one of order 4 and
    (S, S', S'') from one of order 5: the one formula of S, which
    :func:`schwarzian`, the floor sweep and ``scan-sd`` all run.

    With q_k = f^(k) / f' (so q_k' = q_(k+1) - q_2 q_k), S = q3 - 1.5 q2^2,
    S' = q4 - 4 q2 q3 + 3 q2^3 and
    S'' = q5 - 5 q2 q4 - 4 q3^2 + 17 q2^2 q3 - 9 q2^4.
    """
    d1 = j[1]
    q2, q3 = j[2] / d1, j[3] / d1
    q22 = q2 * q2
    s = q3 - 1.5 * q22
    if len(j) < 5:
        return (s,)
    q4 = j[4] / d1
    ds = q4 - 4.0 * (q2 * q3) + 3.0 * (q22 * q2)
    if len(j) < 6:
        return s, ds
    q5 = j[5] / d1
    return s, ds, q5 - 5.0 * (q2 * q4) - 4.0 * (q3 * q3) + 17.0 * (q22 * q3) - 9.0 * (q22 * q22)


# S_F(w) = a + c / (2 w^2) of an outer map that the peel rule takes off a
# root, as (a, c): (0, 0) for an affine map and the identity, exp's
# constant a = -1/2, and log's and an integer power k's c, 1 and 1 - k^2
_S_AFFINE = (0.0, 0.0)
_S_EXP = -0.5
_C_LOG = 1.0


def _free_of(node: Node, kind: type) -> bool:
    # whether no node of the tree is a ``kind``: z's Var, or n's Param
    return type(node) is not kind and all(
        _free_of(v, kind) for v in node._key(node) if isinstance(v, Node)
    )


def _wrapped(node: Node) -> tuple | None:
    # the tree inside an affine wrapper at the node, -g, g + b, b + g, g - b,
    # b - g, a g, g a or g / a for a and b free of z, and the wrapper's
    # operand on g's left, or None; None where the node is no such wrapper
    kind = type(node)
    if kind is Neg:
        return node.operand, None
    if kind in (Add, Sub, Mul, Div):
        lhs_free, rhs_free = _free_of(node.lhs, Var), _free_of(node.rhs, Var)
        if rhs_free and not lhs_free:
            return node.lhs, None
        if lhs_free and not rhs_free and kind is not Div:
            return node.rhs, node.lhs
    return None


def _peel(root: Node) -> tuple:
    """The peel rule's split of a tree into an outer map F and its inner
    tree g, root = F o g, as ``(F, g, outer, left)``.

    Affine wrappers, -g, g + b, b + g, g - b, b - g, a g, g a and g / a
    for a and b free of z, come off first, any number of them, and then
    one exp, log or integer power k other than 0.  F is the outer map as a
    tree whose ``Var`` stands where g stood: ``Var`` itself where nothing
    comes off, the identity case, with g the root.  ``outer`` is S_F's
    (a, c) for :func:`_peeled_derivatives`, and ``left`` the operands free
    of z that the root's walk takes before g, in that order.  Where g is a
    Moebius map of z (:func:`_mobius_parts`), the root's included in the
    identity case, S_g is 0 and ``scan-sd`` walks g two orders lower.
    """
    path, left, outer = [], [], _S_AFFINE
    node = root
    while True:
        kind = type(node)
        if kind is Exp or kind is Log or kind is PowInt and node.exponent:
            if kind is Exp:
                outer = (_S_EXP, 0.0)
            else:
                outer = (0.0, _C_LOG if kind is Log else 1.0 - node.exponent**2)
            inner = node._key(node)[0]
            path.append((node, inner))
            node = inner
            break
        wrapped = _wrapped(node)
        if wrapped is None:
            break
        inner, operand = wrapped
        if operand is not None:
            left.append(operand)
        path.append((node, inner))
        node = inner
    outer_tree = Var()
    for parent, child in reversed(path):
        outer_tree = type(parent)(
            *(outer_tree if v is child else v for v in parent._values(parent))
        )
    return outer_tree, node, outer, tuple(left)


def _affine(node: Node) -> bool:
    # whether a tree is affine in z: free of z, z itself, or sums,
    # differences and negations of such trees, and their products with and
    # quotients by trees free of z
    kind = type(node)
    if kind is Var or _free_of(node, Var):
        return True
    if kind is Neg:
        return _affine(node.operand)
    if kind is Add or kind is Sub:
        return _affine(node.lhs) and _affine(node.rhs)
    if kind is Mul:
        return _free_of(node.lhs, Var) and _affine(node.rhs) or (
            _affine(node.lhs) and _free_of(node.rhs, Var))
    return kind is Div and _affine(node.lhs) and _free_of(node.rhs, Var)


def _mobius_parts(node: Node) -> tuple | None:
    """A tree's numerator and denominator, ``(P, Q)``, where it is a
    Moebius map of z, and None where it is not recognised as one.

    A Moebius map here is P / Q, each of P and Q affine in z or free of z,
    under any affine wrappers (those the peel rule takes off), and an
    affine tree is P / 1; a tree free of z is none.  Its S is 0 wherever
    it is not constant, that is where (a, b, c, d), P = a z + b and
    Q = c z + d, is not degenerate (:func:`_degenerate`), which depends on
    n and is the caller's to test.
    """
    while (wrapped := _wrapped(node)) is not None:
        node = wrapped[0]
    if _free_of(node, Var):
        return None
    if type(node) is Div and _affine(node.lhs) and _affine(node.rhs):
        return node.lhs, node.rhs
    return (node, ConstNum(1 + 0j, node.span)) if _affine(node) else None


# the test of Moebius coefficients (a, b, c, d) whose ad - bc is
# numerically zero: it cancels catastrophically where |ad| + |bc| dwarfs
# it.  The predicate, and the source test that codegen writes with the
# coefficients' names, compute the same operations; both raise past the
# double range (modulus its typed error, abs OverflowError)
def _degenerate(a, b, c, d) -> bool:
    ad, bc = a * d, b * c
    return modulus(ad - bc) <= 1e-12 * max(1.0, modulus(ad) + modulus(bc))


_DEGENERATE_TEST = "abs({0} * {3} - {1} * {2}) <= 1e-12 * max(1.0, abs({0} * {3}) + abs({1} * {2}))"


def _plus(s, term):
    # S_g's part plus a chain term, where None stands for S_g = 0
    return term if s is None else s + term


def _peeled_derivatives(j, outer=_S_AFFINE, mobius=False) -> tuple:
    """S, S' and S'' of F o g from g's jet ``j`` and ``outer``, the (a, c)
    of S_F(w) = a + c / (2 w^2) (:func:`_peel`): as many as
    :func:`_schwarzian_derivatives` gives from a jet of its order, or, for
    a Moebius g (``mobius``), from a jet two orders lower.

    By the composition law S_{F o g} = (S_F o g) g'^2 + S_g: the formula's
    S of g, plus the chain terms whose coefficient is not 0, so that the
    identity case, (0, 0), is S_g itself.  S_g of a Moebius g is 0, so its
    S, S' and S'' are the chain terms alone, which read g to orders 1, 2
    and 3, and each is 0 in the identity case (0 times g').  For a
    constant S_F = a (exp), S = S_g + a g'^2, S' = S_g' + 2a g' g'' and
    S'' = S_g'' + 2a (g''^2 + g' g''').  For S_F = c / (2 w^2) (log and
    powers), with u = g'/g, v = g''/g and p = u' = v - u^2,
    S = S_g + (c/2) u^2, S' = S_g' + c u p and
    S'' = S_g'' + c (p^2 + u (g'''/g - u v) - 2 u^2 p).
    """
    s = [None] * (len(j) - 1) if mobius else list(_schwarzian_derivatives(j))
    a, c = outer
    if a:
        g1 = j[1]
        s[0] = _plus(s[0], a * (g1 * g1))
        if len(s) > 1:
            g2 = j[2]
            s[1] = _plus(s[1], (2.0 * a) * (g1 * g2))
        if len(s) > 2:
            s[2] = _plus(s[2], (2.0 * a) * (g2 * g2 + g1 * j[3]))
    elif c:
        g0 = j[0]
        u = j[1] / g0
        uu = u * u
        s[0] = _plus(s[0], (0.5 * c) * uu)
        if len(s) > 1:
            v = j[2] / g0
            p = v - uu
            s[1] = _plus(s[1], c * (u * p))
        if len(s) > 2:
            s[2] = _plus(s[2], c * (p * p + u * (j[3] / g0 - u * v) - 2.0 * (uu * p)))
    # S_g alone, 0, as 0 times g', a value of g's jet as every other is
    return tuple(0.0 * j[1] if x is None else x for x in s)


def spherical_derivative(j: Jet) -> float:
    """Marty's statistic |f'| / (1 + |f|^2) from a jet.

    Raises OverflowAtPoint where |f| or |f'| is past the double range, and
    ValueError for a jet of order 0.
    """
    if len(j) < 2:
        raise ValueError("the spherical derivative needs a jet of order 1 or more, got order 0")
    try:
        return _spherical(j)
    except OverflowError:  # abs past the double range
        for w in j[:2]:
            modulus(w)  # raises the typed error, labelled with the value
        raise


def _critical(d1: complex) -> bool:
    # |f'| <= floor needs both parts within it, and testing them first keeps
    # abs away from a modulus past the double range, where it raises; the
    # lane function's critical guard (codegen) tests the same two parts
    floor = CRITICAL_POINT_FLOOR
    return abs(d1.real) <= floor and abs(d1.imag) <= floor and abs(d1) <= floor


def schwarzian(j: Jet) -> complex:
    """Schwarzian derivative from a jet of order 3 or more; ValueError for
    a jet of a lower order.

    It reads f's own jet, as a caller that holds a jet alone must (``eval``
    and the identity checks); ``scan-sd`` takes S of a tree by the peel
    rule instead (:func:`_peel`, :func:`_peeled_derivatives`), from the
    jet of the tree inside its outer map.
    """
    if len(j) < 4:
        raise ValueError(f"the Schwarzian needs a jet of order 3 or more, got order {len(j) - 1}")
    d1 = j[1]
    if _critical(d1):
        raise CriticalPointError(
            f"Schwarzian undefined: |f'| = {abs(d1):.3e} at or below floor "
            f"{CRITICAL_POINT_FLOOR:.3e}"
        )
    return _schwarzian_derivatives(j)[0]


class Mobius(Record):
    """Moebius transformation (az+b)/(cz+d), stored with ad - bc = 1.

    Construction normalizes the determinant to one and fixes the overall
    sign so the first nonzero coefficient has argument in [0, pi); the two
    matrix representatives +/-(a,b,c,d) therefore collapse to a single
    canonical one, which keeps composition results comparable.  An
    unpickled copy keeps the stored coefficients, bit for bit.
    """

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ValueError(f"Mobius coefficients must be finite: {(a, b, c, d)!r}")
        det = a * d - b * c
        if _degenerate(a, b, c, d):
            raise DegenerateMobiusError(
                f"degenerate coefficients: ad - bc = {det!r}"
            )
        s = cmath.sqrt(det)
        a, b, c, d = a / s, b / s, c / s, d / s
        for entry in (a, b, c, d):
            if entry != 0:
                phase = cmath.phase(entry)
                if phase < 0.0 or phase == math.pi:
                    a, b, c, d = -a, -b, -c, -d
                break
        super().__init__(a, b, c, d)


def mobius_apply(m: Mobius, z: complex) -> complex:
    """Apply the map to a point of the extended plane.

    Returns :data:`POINT_AT_INFINITY` when cz + d = 0.
    """
    w = m.c * z + m.d
    if w == 0:
        return POINT_AT_INFINITY
    return (m.a * z + m.b) / w


def mobius_compose(m1: Mobius, m2: Mobius) -> Mobius:
    """Composition m1 after m2 (matrix product of the representatives)."""
    return Mobius(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def mobius_inverse(m: Mobius) -> Mobius:
    return Mobius(m.d, -m.b, -m.c, m.a)


def mobius_on_jet(m: Mobius, j: Jet) -> Jet:
    """Jet of the Moebius map applied after the function the jet describes.

    Raises DivisionByZeroAtPoint where j.v sits at the map's pole.
    """
    return jet_mobius(j, m.a, m.b, m.c, m.d)


def mobius_jet(m: Mobius, z: complex) -> Jet:
    """Order-3 jet of the map itself at z; raises PoleOfMobius at -d/c."""
    try:
        return mobius_on_jet(m, jet_var(z))
    except DivisionByZeroAtPoint as exc:
        raise PoleOfMobius(complex(z)) from exc


class IdentityReport(Record):
    """Outcome of a pointwise identity check.

    The verdict takes three clauses in order, and ``rule`` names the one
    that decided:

    1. ``"abs"``: passed when abs_gap <= tol_abs.
    2. ``"rel"``: passed when rel_gap <= tol_rel.  With tol_rel = 0 a
       failure here is final, so zero tolerances ask for exact agreement.
       A checker refuses a tolerance that is nan or negative (ValueError).
    3. ``"bound"``: passed when abs_gap <= error_bound and the bound is
       finite.  ``error_bound`` is the sum of the radii of the balls that
       the checker's own code gives for its two sides when run at a ball
       about its point, so it bounds the rounding error of both sides
       together, and a gap within it is one that roundoff can explain;
       literals count as known to half an ulp.  It is computed only here,
       once both fixed clauses have failed.

    ``tolerance_used`` is the threshold of the deciding clause: tol_abs,
    tol_rel or error_bound.  ``error_bound`` is None unless clause 3 ran.
    """

    __slots__ = _fields = (
        "lhs", "rhs", "abs_gap", "rel_gap", "passed", "tolerance_used", "error_bound", "rule"
    )


def _report(
    sides: Callable[[complex | Ball], tuple],
    z: complex,
    tol_abs: float,
    tol_rel: float,
) -> IdentityReport:
    """Judge ``sides(z)``; the bound clause runs ``sides`` at a ball about z."""
    if not (tol_abs >= 0.0 and tol_rel >= 0.0):
        name, tol = ("tol_rel", tol_rel) if tol_abs >= 0.0 else ("tol_abs", tol_abs)
        raise ValueError(f"{name} must be a nonnegative number, got {tol!r}")
    z = complex(z)
    lhs, rhs = sides(z)
    abs_gap = modulus(lhs - rhs)
    denom = max(modulus(lhs), modulus(rhs))
    rel_gap = abs_gap / denom if denom > 0.0 else 0.0
    if abs_gap <= tol_abs:
        return IdentityReport(lhs, rhs, abs_gap, rel_gap, True, tol_abs, None, "abs")
    if rel_gap <= tol_rel or not tol_rel > 0.0:
        return IdentityReport(
            lhs, rhs, abs_gap, rel_gap, rel_gap <= tol_rel, tol_rel, None, "rel"
        )
    # each ball's midpoint is the side computed above, and the radii are
    # rounded upward with room for this sum's own rounding
    bound = sum(map(radius, sides(Ball(z))))
    passed = math.isfinite(bound) and abs_gap <= bound
    return IdentityReport(lhs, rhs, abs_gap, rel_gap, passed, bound, bound, "bound")


def check_mobius_invariance(
    f: FamilyExpr,
    n: float,
    m: Mobius,
    z: complex,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> IdentityReport:
    """Compare S of (m after f) against S of f at z."""

    def sides(z):
        jf = eval_jet(f, n, z)
        rhs = schwarzian(jf)
        return schwarzian(mobius_on_jet(m, jf)), rhs

    return _report(sides, z, tol_abs, tol_rel)


def check_composition_law(
    f: FamilyExpr,
    g: FamilyExpr,
    n: float,
    z: complex,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> IdentityReport:
    """Check S_{g o f}(z) = S_g(f(z)) f'(z)^2 + S_f(z).

    The left side evaluates g's tree with its variable seeded by the jet of
    f, so the composed jet comes from the chain rule and not from any reuse
    of the right side.  Raises :class:`OverflowAtPoint` when either side
    leaves the finite range, as when f'(z)^2 overflows.
    """

    def sides(z):
        jf = eval_jet(f, n, z)
        try:
            s_f = schwarzian(jf)
        except CriticalPointError as exc:
            raise CriticalPointError(str(exc), z, label="f") from exc
        jg_at_fz = eval_jet(g, n, jf.v)
        try:
            s_g = schwarzian(jg_at_fz)
        except CriticalPointError as exc:
            raise CriticalPointError(str(exc), jf.v, label="g") from exc
        lhs = schwarzian(eval_jet_seeded(g, n, jf, point=z))
        rhs = s_g * (jf.d1 * jf.d1) + s_f
        if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
            # e.g. S_g = 0 times an overflowed f'^2: 0 * inf is nan, no verdict
            raise OverflowAtPoint(
                f"composition law sides not finite: lhs {lhs}, rhs {rhs}", z
            )
        return lhs, rhs

    return _report(sides, z, tol_abs, tol_rel)


def check_reciprocal(
    f: FamilyExpr,
    n: float,
    omitted: complex,
    z: complex,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> IdentityReport:
    """Compare S of 1/(f - w) against S of f at z, w the omitted value.

    For w = 0 this is the reciprocal identity S_{1/f} = S_f; a general
    omitted value is first shifted away, which changes no Schwarzian.
    """

    def sides(z):
        jf = eval_jet(f, n, z)
        if modulus(jf.v - omitted) <= RECIPROCAL_GUARD:
            raise GuardViolation(
                f"f(z) = {jf.v} is within {RECIPROCAL_GUARD:.1e} of the omitted value {omitted}"
            )
        shifted = jet_sub(jf, jet_const(omitted))
        lhs = schwarzian(jet_div(jet_const(1.0), shifted))
        return lhs, schwarzian(jf)

    return _report(sides, z, tol_abs, tol_rel)


def check_conjugation(
    f: FamilyExpr,
    g: FamilyExpr,
    phi: Mobius,
    n: float,
    z: complex,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> IdentityReport:
    """Check S_g(phi(z)) phi'(z)^2 = S_f(z) for phi-conjugate families.

    First verifies the semiconjugacy phi(f(z)) = g(phi(z)) pointwise to
    :data:`CONJUGACY_TOL` and raises :class:`ConjugacyViolated` when it fails, since
    the identity is meaningless for unrelated families.
    """

    def sides(z):
        jf = eval_jet(f, n, z)
        phi_of_fz = mobius_apply(phi, jf.v)
        phi_of_z = mobius_apply(phi, z)
        if not (cmath.isfinite(phi_of_fz) and cmath.isfinite(phi_of_z)):
            raise PoleOfMobius(complex(z))
        jg = eval_jet(g, n, phi_of_z)
        gap = modulus(phi_of_fz - jg.v)
        if gap > CONJUGACY_TOL:
            raise ConjugacyViolated(gap, CONJUGACY_TOL)
        jphi = mobius_jet(phi, z)
        s_g = schwarzian(jg)
        lhs = s_g * (jphi.d1 * jphi.d1)
        return lhs, schwarzian(jf)

    return _report(sides, z, tol_abs, tol_rel)
