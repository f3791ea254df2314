"""Error bounds and identity verdicts against a high-precision oracle.

When both fixed tolerances reject a gap, a checker passes it only if the
gap lies within the error bound of its two sides, the radii of the balls
its own code gives for them at a ball about its point
(``IdentityReport.rule == "bound"``).  For the examples pinned on the
property tests in test_schwarzian.py, which fixed tolerances once failed,
these tests differentiate the very same trees with sympy and evaluate
the derivatives to 50 digits at the exact binary values of the inputs.
They show that the bound covers each side's actual rounding error and
that the gap lies within it.  A negative control shows that a genuine
relative defect of 1e-6 at a well-conditioned point still fails.

Beneath that, each jet operation on balls is checked against the exact
derivatives of the same operation applied to the cubic Taylor polynomial
of its operands, and a literal's half-ulp uncertainty is checked where
it is all the error there is.
"""

import math
import random

import pytest

sp = pytest.importorskip("sympy")

from schwarzian_lab import (  # noqa: E402
    FamilyExpr,
    Mobius,
    check_composition_law,
    check_conjugation,
    check_mobius_invariance,
    eval_jet,
    mobius_apply,
    mobius_inverse,
    parse,
    schwarzian,
)
from schwarzian_lab.ball import Ball  # noqa: E402
from schwarzian_lab.jets import (  # noqa: E402
    ComplexJet3,
    jet_add,
    jet_div,
    jet_exp,
    jet_log,
    jet_mobius,
    jet_mul,
    jet_pow_int,
    jet_sub,
)
from schwarzian_lab.dsl import (  # noqa: E402
    Add,
    ConstNum,
    Div,
    Exp,
    ImagUnit,
    Log,
    Mul,
    Neg,
    Param,
    PowInt,
    Sub,
    Var,
)

import support  # noqa: E402

DIGITS = 50
W = sp.Symbol("w")
T = sp.Symbol("t")
# a relative tolerance this small rejects every nonzero gap, so the
# bound clause runs and the report carries the bound
FORCE_BOUND = 5e-324

# (seed, z) pinned on test_property_conjugation_of_transported_family
CONJUGATION_PINS = [(174, 1e-9 + 0j), (2143, 0j), (46, 1 + 0j), (45803, 1e-12 + 0j)]


def exact(c: complex):
    """The exact binary value of a double complex number."""
    c = complex(c)
    return sp.Rational(c.real) + sp.I * sp.Rational(c.imag)


def to_sympy(node, n: int):
    if isinstance(node, Var):
        return W
    if isinstance(node, Param):
        return sp.Integer(n)
    if isinstance(node, ImagUnit):
        return sp.I
    if isinstance(node, ConstNum):
        return exact(node.value)
    if isinstance(node, Add):
        return to_sympy(node.lhs, n) + to_sympy(node.rhs, n)
    if isinstance(node, Sub):
        return to_sympy(node.lhs, n) - to_sympy(node.rhs, n)
    if isinstance(node, Mul):
        return to_sympy(node.lhs, n) * to_sympy(node.rhs, n)
    if isinstance(node, Div):
        return to_sympy(node.lhs, n) / to_sympy(node.rhs, n)
    if isinstance(node, Neg):
        return -to_sympy(node.operand, n)
    if isinstance(node, PowInt):
        return to_sympy(node.base, n) ** node.exponent
    if isinstance(node, Exp):
        return sp.exp(to_sympy(node.arg, n))
    if isinstance(node, Log):
        return sp.log(to_sympy(node.arg, n))
    raise TypeError(f"not an expression node: {node!r}")


def exact_schwarzian(f: FamilyExpr, n: int, point):
    """S_f at an exact point, from symbolic derivatives taken to DIGITS."""
    expr = to_sympy(f.root, n)
    derivatives = []
    for _ in range(3):
        expr = sp.diff(expr, W)
        derivatives.append(expr.evalf(DIGITS, subs={W: point}))
    d1, d2, d3 = derivatives
    return d3 / d1 - sp.Rational(3, 2) * (d2 / d1) ** 2


def error(computed: complex, exact_value) -> float:
    return float(abs(sp.N(exact(computed) - exact_value, DIGITS)))


def transported_pair(seed: int):
    """(f, g, phi, n) as test_property_conjugation_of_transported_family builds them."""
    rng = random.Random(seed)
    f = support.random_family(rng)
    phi = support.random_mobius(rng)
    inner = support.mobius_tree(mobius_inverse(phi), Var())
    g = FamilyExpr(support.mobius_tree(phi, support.subst_var(f.root, inner)))
    return f, g, phi, rng.randint(1, 6)


@pytest.mark.parametrize("seed, z", CONJUGATION_PINS)
def test_conjugation_pins_pass_by_a_bound_that_covers_the_oracle(seed, z):
    f, g, phi, n = transported_pair(seed)
    rep = check_conjugation(f, g, phi, n, z)
    assert rep.passed and rep.rule == "bound"
    a, b, c, d = (exact(x) for x in (phi.a, phi.b, phi.c, phi.d))
    w = exact(z)
    den = c * w + d
    dphi = (a * d - b * c) / den**2
    lhs_exact = exact_schwarzian(g, n, (a * w + b) / den) * dphi**2
    rhs_exact = exact_schwarzian(f, n, w)
    assert rep.error_bound >= error(rep.lhs, lhs_exact) + error(rep.rhs, rhs_exact)
    assert rep.abs_gap <= rep.error_bound


def test_invariance_pin_passes_and_its_bound_covers_the_oracle():
    # pinned on test_property_invariance_for_random_families
    rng = random.Random(2326)
    f = support.random_family(rng)
    rng.randint(1, 8)
    n = rng.randint(1, 8)
    m = Mobius(1, 0, 1, 1)
    rep = check_mobius_invariance(f, n, m, 0j)
    # the closed-form Moebius jet leaves a roundoff-sized gap
    assert rep.passed and rep.rule == "abs" and rep.abs_gap <= 1e-15
    forced = check_mobius_invariance(f, n, m, 0j, tol_abs=0.0, tol_rel=FORCE_BOUND)
    assert forced.rule == "bound"
    # S is invariant under Moebius maps, so both sides have the same value
    s_exact = exact_schwarzian(f, n, exact(0j))
    assert forced.error_bound >= error(forced.lhs, s_exact) + error(forced.rhs, s_exact)


def test_conjugation_within_rounding_of_a_pole_is_uncertified():
    # pinned on test_property_conjugation_of_transported_family.  f holds
    # z*z + 4, which vanishes at 2i, an ulp from z, and g takes z back
    # through phi's inverse of a rounded phi(z).  The computed lhs keeps no
    # digit, so only a bound past its error would be sound; the balls must
    # hold S_g over a ball about phi(z) whose preimage holds 2i, and there
    # S_g is unbounded
    f, g, phi, n = transported_pair(546863)
    z = 1.9999999999999998j
    rep = check_conjugation(f, g, phi, n, z)
    s_exact = exact_schwarzian(f, n, exact(z))
    assert error(rep.rhs, s_exact) <= 1e-12 * abs(s_exact)
    assert error(rep.lhs, s_exact) > 1e12 * abs(s_exact)
    assert rep.rule == "bound" and rep.error_bound == math.inf and not rep.passed


def test_negative_control_relative_defect_of_1e_minus_6_fails():
    # phi(z) = nz carries exp(nz) to n exp(z).  Adding eps (w - w0)^3 to g,
    # with w0 = phi(z), leaves g and its first two derivatives at w0
    # alone, so the pointwise conjugacy pre-check sees nothing, but moves
    # g''' by 6 eps and hence S_g by 6 eps / g'(w0).
    n, z = 4, 0.2 + 0j
    f, g0, phi = parse("exp(n*z)"), parse("n*exp(z)"), Mobius(4, 0, 0, 1)
    w0 = mobius_apply(phi, z)
    jg = eval_jet(g0, n, w0)
    eps = 1e-6 * schwarzian(jg) * jg.d1 / 6.0
    bump = Mul(ConstNum(eps), PowInt(Sub(Var(), ConstNum(w0)), 3))
    g = FamilyExpr(Add(g0.root, bump))
    rep = check_conjugation(f, g, phi, n, z)
    assert not rep.passed
    assert rep.rule == "bound"
    assert rep.rel_gap == pytest.approx(1e-6, rel=1e-3)
    assert rep.error_bound <= 1e-6 * rep.abs_gap


# ---------------------------------------------------------------------------
# single operations

# a unimodular map, as Mobius normalizes (3w + 1)/(w - 2)
_M = Mobius(3, 1, 1, -2)

OPERATIONS = {
    "add": (jet_add, lambda p, q: p + q),
    "sub": (jet_sub, lambda p, q: p - q),
    "mul": (jet_mul, lambda p, q: p * q),
    "div": (jet_div, lambda p, q: p / q),
    "exp": (lambda a, b: jet_exp(a), lambda p, q: sp.exp(p)),
    "log": (lambda a, b: jet_log(a), lambda p, q: sp.log(p)),
    "pow": (lambda a, b: jet_pow_int(a, -3), lambda p, q: p**-3),
    "mobius": (
        lambda a, b: jet_mobius(a, _M.a, _M.b, _M.c, _M.d),
        lambda p, q: (exact(_M.a) * p + exact(_M.b)) / (exact(_M.c) * p + exact(_M.d)),
    ),
    # w/(w + 2), with ad - bc = 2: the closed form's derivatives are half
    # the map's, and the ball jet's must still hold the map's
    "mobius, ad - bc = 2": (
        lambda a, b: jet_mobius(a, 1, 0, 1, 2),
        lambda p, q: p / (p + 2),
    ),
}


def taylor(components):
    """The cubic in T whose value and derivatives at T = 0 are these."""
    return sum(c * T**k / math.factorial(k) for k, c in enumerate(components))


def exact_jet(expr) -> list:
    components = []
    for _ in range(4):
        components.append(expr.subs(T, 0).evalf(DIGITS))
        expr = sp.diff(expr, T)
    return components


def unit(rng: random.Random) -> complex:
    t = rng.uniform(-math.pi, math.pi)
    return complex(math.cos(t), math.sin(t))


def balls(j, rads=(0.0, 0.0, 0.0, 0.0)) -> ComplexJet3:
    """The jet of balls about j's parts, with these radii."""
    return ComplexJet3(*(Ball(p, r) for p, r in zip(j, rads)))


def random_jet(rng: random.Random) -> ComplexJet3:
    # moduli in [0.5, 2], and a value clear of log's branch cut
    d1, d2, d3 = (rng.uniform(0.5, 2.0) * unit(rng) for _ in range(3))
    return ComplexJet3(rng.uniform(0.5, 2.0) * (1 + 0.5j), d1, d2, d3)


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_bounded_operation_covers_its_own_rounding(name):
    op, exact_op = OPERATIONS[name]
    rng = random.Random(name)
    for _ in range(5):
        a, b = random_jet(rng), random_jet(rng)
        got = op(balls(a), balls(b))
        want = exact_jet(exact_op(*(taylor(map(exact, j)) for j in (a, b))))
        for k in range(4):
            assert error(got[k].mid, want[k]) <= got[k].rad, (name, k)


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_bounded_operation_covers_errors_carried_in(name):
    # operands known to 1e-9 of each component: the exact operation on
    # the true operands lies within the radius of the computed one
    op, exact_op = OPERATIONS[name]
    rng = random.Random(name + "-carried")
    for _ in range(5):
        a, b = random_jet(rng), random_jet(rng)
        moves = [[1e-9 * abs(c) * unit(rng) for c in j] for j in (a, b)]
        true = [
            taylor(exact(c) + exact(m) for c, m in zip(j, move))
            for j, move in zip((a, b), moves)
        ]
        err_a, err_b = (tuple(abs(m) for m in move) for move in moves)
        got = op(balls(a, err_a), balls(b, err_b))
        want = exact_jet(exact_op(*true))
        for k in range(4):
            assert error(got[k].mid, want[k]) <= got[k].rad, (name, k)


def test_literal_half_ulp_is_covered_where_it_is_all_the_error():
    # z - 0.1 is exact near 0.1, so the jet of (z - 0.1)^2 there is off
    # only by the distance of the double 0.1 from the real number written
    f = parse("(z-0.1)^2")
    z = 0.1 + 1e-15
    got = eval_jet(f, 1, Ball(z))
    half_ulp = sp.Rational(math.ulp(0.1)) / 2
    for literal in (exact(0.1) - half_ulp, exact(0.1) + half_ulp):
        want = exact_jet((exact(z) + T - literal) ** 2)
        for k in range(4):
            assert error(got[k].mid, want[k]) <= got[k].rad, (literal, k)
