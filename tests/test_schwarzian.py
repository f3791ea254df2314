"""Schwarzian operator, Moebius algebra, and the four identity checkers."""

import cmath
import math
import pickle
import random
import struct

import mpmath
import pytest
from hypothesis import assume, example, given, strategies as st

from schwarzian_lab import (
    POINT_AT_INFINITY,
    ComplexJet3,
    ConjugacyViolated,
    CriticalPointError,
    DegenerateMobiusError,
    EvalError,
    FamilyExpr,
    GuardViolation,
    Mobius,
    OverflowAtPoint,
    PoleOfMobius,
    check_composition_law,
    check_conjugation,
    check_mobius_invariance,
    check_reciprocal,
    eval_jet,
    jet_const,
    jet_div,
    jet_var,
    mobius_apply,
    mobius_compose,
    mobius_inverse,
    mobius_jet,
    mobius_on_jet,
    parse,
    pretty_print,
    schwarzian,
    spherical_derivative,
)
from schwarzian_lab.dsl import Add, ConstNum, Mul, PowInt, Sub, Var
from schwarzian_lab.schwarzian import (
    _DEGENERATE_TEST,
    CRITICAL_POINT_FLOOR,
    _degenerate,
    _mobius_parts,
    _peel,
    _peeled_derivatives,
)

import support


def mobius_close(m1: Mobius, m2: Mobius, tol: float = 1e-12) -> bool:
    return all(
        abs(x - y) <= tol
        for x, y in ((m1.a, m2.a), (m1.b, m2.b), (m1.c, m2.c), (m1.d, m2.d))
    )


# ---------------------------------------------------------------------------
# spherical derivative


def test_spherical_unit_jet():
    assert spherical_derivative(ComplexJet3(1, 1, 1, 1)) == 0.5


def test_spherical_exp_family_at_origin():
    # e^{nz} at 0 has value 1 and derivative n, so the statistic is n/2.
    f = parse("exp(n*z)")
    for n in (1, 2, 5, 32):
        stat = spherical_derivative(eval_jet(f, n, 0.0))
        assert stat == pytest.approx(n / 2, rel=1e-12)


def test_spherical_of_constant_is_zero():
    assert spherical_derivative(ComplexJet3(5 + 2j, 0, 0, 0)) == 0.0


def test_spherical_invariant_under_reciprocal():
    # |(1/f)'| / (1 + |1/f|^2) simplifies to the same quotient.
    rng = random.Random(7)
    f = parse("exp(z) + z^2")
    for _ in range(50):
        z = support.random_point(rng, 1.5)
        jf = eval_jet(f, 1, z)
        if abs(jf.v) < 1e-6:
            continue
        jr = jet_div(jet_const(1.0), jf)
        assert spherical_derivative(jr) == pytest.approx(
            spherical_derivative(jf), rel=1e-9
        )


@pytest.mark.parametrize("order", [1, 3, 4, 5])
def test_spherical_derivative_of_a_jet_of_any_order(order):
    # a jet of any order, a plain tuple too: |f| past the double range
    # raises the typed error, and e^{2z} at 0 gives 2 / (1 + 1)
    with pytest.raises(OverflowAtPoint):
        spherical_derivative(eval_jet(parse("z"), 1, 1.5e308 + 1.5e308j, order=order))
    assert spherical_derivative(eval_jet(parse("exp(n*z)"), 2, 0.0, order=order)) == 1.0


def test_spherical_derivative_of_an_order_0_jet_is_refused():
    # f# reads f', which a jet of order 0 lacks: a ValueError naming the
    # order it needs, not a bare IndexError
    with pytest.raises(ValueError, match="order 1 or more, got order 0$"):
        spherical_derivative(jet_var(0.5, 0))


# ---------------------------------------------------------------------------
# schwarzian from a jet


def test_schwarzian_exp_3z():
    f = parse("exp(3*z)")
    s = schwarzian(eval_jet(f, 1, 0.7 - 0.2j))
    assert s == pytest.approx(-4.5, rel=1e-12)


def test_schwarzian_of_mobius_jet_vanishes():
    m = Mobius(2, 1, 1, 1)
    s = schwarzian(mobius_jet(m, 0.0))
    assert abs(s) <= 1e-12


def test_schwarzian_example2_closed_form():
    # exp(z/(nz+1)) has S = -1 / (2 (nz+1)^4); at n=1, z=1 that is -1/32.
    f = parse("exp(z/(n*z+1))")
    s = schwarzian(eval_jet(f, 1, 1.0))
    assert s == pytest.approx(-1 / 32, rel=1e-12)


def test_schwarzian_critical_point():
    f = parse("z^2")
    with pytest.raises(CriticalPointError):
        schwarzian(eval_jet(f, 1, 0.0))


@pytest.mark.parametrize("order", [3, 4, 5])
def test_schwarzian_of_a_jet_of_any_order(order):
    # a jet of order 3 or more, a plain tuple too: S of e^z is -1/2, and
    # a critical point raises the typed error
    assert schwarzian(eval_jet(parse("exp(z)"), 1, 0.5, order=order)) == -0.5
    with pytest.raises(CriticalPointError):
        schwarzian(eval_jet(parse("z^2"), 1, 0.0, order=order))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_schwarzian_of_a_jet_below_order_3_is_refused(order):
    # S reads f''', which a jet below order 3 lacks, at a critical point
    # too: a ValueError naming the order it needs, not a bare IndexError
    for z in (0.5, 0.0):
        jet = eval_jet(parse("z^2"), 1, z, order=order)
        with pytest.raises(ValueError, match=f"order 3 or more, got order {order}$"):
            schwarzian(jet)


def test_schwarzian_floor_is_the_module_constant():
    # |f'| at the floor is a critical point; an ulp above it, S is defined
    schwarzian(ComplexJet3(0.0, 1e-8, 1.0, 1.0))
    with pytest.raises(CriticalPointError):
        schwarzian(ComplexJet3(0.0, CRITICAL_POINT_FLOOR, 1.0, 1.0))
    above = math.nextafter(CRITICAL_POINT_FLOOR, 1.0)
    assert cmath.isfinite(schwarzian(ComplexJet3(0.0, above, 1.0, 1.0)))


# ---------------------------------------------------------------------------
# the peel rule: S of F o g from g's jet by the composition law

# each root kind: (F, g, S_F's (a, c), the operands free of z on g's left)
_PEELS = {
    "exp(z/(n*z+1))": ("exp(z)", "z/(n*z+1)", (-0.5, 0.0), ()),
    "exp(n*z)": ("exp(z)", "n*z", (-0.5, 0.0), ()),
    "exp(z^2)": ("exp(z)", "z^2", (-0.5, 0.0), ()),
    "log(z+2)": ("log(z)", "z+2", (0.0, 1.0), ()),
    "(z^2+1)^3": ("z^3", "z^2+1", (0.0, -8.0), ()),
    "(z+2)^-3": ("z^-3", "z+2", (0.0, -8.0), ()),
    "(z+1.5)^12": ("z^12", "z+1.5", (0.0, -143.0), ()),
    "(z-2)^-10": ("z^-10", "z-2", (0.0, -99.0), ()),
    "exp(z)-n": ("exp(z)-n", "z", (-0.5, 0.0), ()),
    "n*exp(z)": ("n*exp(z)", "z", (-0.5, 0.0), ("n",)),
    "-log(z+2)": ("-log(z)", "z+2", (0.0, 1.0), ()),
    "2*(3-exp(z^2))/n": ("2*(3-exp(z))/n", "z^2", (-0.5, 0.0), ("2", "3")),
    # nothing to peel: the identity case, F the variable and g the root
    "z^2+exp(z)": ("z", "z^2+exp(z)", (0.0, 0.0), ()),
    "(z+1)^0": ("z", "(z+1)^0", (0.0, 0.0), ()),
    "1/exp(z)": ("z", "1/exp(z)", (0.0, 0.0), ()),
}


@pytest.mark.parametrize("text", sorted(_PEELS))
def test_the_peel_rule_splits_each_root_kind(text):
    outer_tree, inner, outer, left = _peel(parse(text).root)
    got = (pretty_print(outer_tree), pretty_print(inner), outer, tuple(map(pretty_print, left)))
    assert got == _PEELS[text]


def _exact_schwarzian_derivatives(f, n, z):
    # S, S' and S'' of f_n at z from its derivatives by mpmath at 40 digits
    with mpmath.workdps(40):
        d = mpmath.diffs(lambda w: support.plain_eval(f.root, n, w, mpmath), mpmath.mpc(z), 5)
        _, d1, *rest = d
        q2, q3, q4, q5 = (x / d1 for x in rest)
        return (
            q3 - 1.5 * q2**2,
            q4 - 4 * q2 * q3 + 3 * q2**3,
            q5 - 5 * q2 * q4 - 4 * q3**2 + 17 * q2**2 * q3 - 9 * q2**4,
        )


@pytest.mark.parametrize("text", sorted(t for t, peel in _PEELS.items() if peel[2] != (0.0, 0.0)))
def test_the_peel_rule_matches_mpmath(text):
    # S, S' and S'' from g's jet of order 3, 4 and 5, at seeded points of
    # the square |Re z|, |Im z| <= 0.8 and n = 1..8, within 1e-9 of
    # mpmath's, relative to max(1, |mpmath's|); the worst seen is 1.04e-11
    # (exp(z/(n*z+1)) near its pole at z = -1/n)
    f = parse(text)
    _, inner, outer, _ = _peel(f.root)
    rng = random.Random(27)
    for _ in range(20):
        z, n = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)), rng.randint(1, 8)
        want = _exact_schwarzian_derivatives(f, n, z)
        for order in (3, 4, 5):
            got = _peeled_derivatives(eval_jet(FamilyExpr(inner), n, z, order=order), outer)
            assert len(got) == order - 2
            for x, y in zip(got, want):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y)), (z, n, order)


def test_the_peel_rule_gives_the_closed_forms():
    # exp(z/(n z + 1)): S = -1/(2 (n z + 1)^4) and S' = 2n/(n z + 1)^5,
    # within the bound above, for n = 1..32; exp(n z): S = -n^2/2 and
    # S' = S'' = 0, exactly, as S_g of g = n z is 0
    rng = random.Random(28)
    for text in ("exp(z/(n*z+1))", "exp(n*z)"):
        _, inner, outer, _ = _peel(parse(text).root)
        for _ in range(50):
            z, n = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)), rng.randint(1, 32)
            s, ds, dds = _peeled_derivatives(eval_jet(FamilyExpr(inner), n, z, order=5), outer)
            if text == "exp(n*z)":
                assert (s, ds, dds) == (-n * n / 2, 0, 0)
            else:
                w = n * z + 1
                for x, y in ((s, -1 / (2 * w**4)), (ds, 2 * n / w**5)):
                    assert abs(x - y) <= 1e-9 * max(1.0, abs(y)), (z, n)


# the Moebius peel: S_g of a Moebius map g is 0, so S, S' and S'' are S_F's
# chain terms alone, from g's jet two orders lower

# a tree's numerator and denominator where it is recognised as a Moebius
# map of z, under any affine wrappers, or None
_MOBIUS_PARTS = {
    "z/(n*z+1)": ("z", "n*z+1"),
    "3-2/(z+1)": ("2", "z+1"),
    "(z+1)/(z/n+2)": ("z+1", "z/n+2"),
    "-(2*z+i)/(z-1)*3": ("-(2*z+i)", "z-1"),
    "(n*z+n)/(z+1)": ("n*z+n", "z+1"),  # degenerate: the caller's to test
    "n*z": ("z", "1"),
    "2*z-z/n+1": ("2*z-z/n", "1"),
    "z": ("z", "1"),
    "z^2/(n*z+1)": None,
    "z*z/(z+1)": None,
    "z/(z^2+1)": None,
    "exp(z)/(z+1)": None,
    "1/(1/z+1)": None,
    "z+1/z": None,
    "(z+1)^-1": None,
    "n": None,
    "(n+1)/(n-1)": None,
}


@pytest.mark.parametrize("text", sorted(_MOBIUS_PARTS))
def test_the_moebius_recogniser_takes_quotients_of_affine_trees(text):
    got = _mobius_parts(parse(text).root)
    assert (got and tuple(map(pretty_print, got))) == _MOBIUS_PARTS[text]


# roots whose inner tree is a Moebius map: under exp, log and integer
# powers, with wrappers, and the identity case, whose S is 0; no pole of g
# and no zero of a log's or a power's g in the square below
_MOBIUS_PEELS = (
    "exp(z/(n*z+1))", "exp((2*z-1)/(z+3))", "log((z+2)/(n*z-n-3))", "(3-z/(z+n+1))^-3",
    "2*(n-(z+1)/(z-3))^5", "((1+i)*z+n)/(z-2)", "n-3/(z+2)", "(2*z+1)/(n*z+n+2)",
)


@pytest.mark.parametrize("text", _MOBIUS_PEELS)
def test_the_moebius_peel_matches_mpmath(text):
    # S, S' and S'' from g's jet of order 1, 2 and 3, for a statistic of
    # order 3, 4 and 5, at seeded points of the square |Re z|, |Im z| <= 0.8
    # and n = 1..8, within 1e-9 of mpmath's at 40 digits, relative to
    # max(1, |mpmath's|)
    f = parse(text)
    _, inner, outer, _ = _peel(f.root)
    assert _mobius_parts(inner) is not None
    rng = random.Random(32)
    for _ in range(20):
        z, n = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)), rng.randint(1, 8)
        want = _exact_schwarzian_derivatives(f, n, z)
        for order in (3, 4, 5):
            j = eval_jet(FamilyExpr(inner), n, z, order=order - 2)
            got = _peeled_derivatives(j, outer, True)
            assert len(got) == order - 2
            for x, y in zip(got, want):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y)), (z, n, order)


def test_the_moebius_peel_gives_example2s_closed_forms():
    # exp(z/(n z + 1)): S = -1/(2 (n z + 1)^4), S' = 2n/(n z + 1)^5 and
    # S'' = -10n^2/(n z + 1)^6, each within 1e-12 of max(1, its modulus),
    # from g's jet of order 3: in the square |Re z|, |Im z| <= 0.8 at
    # n = 1..32, far out at z = 80 and 240, and at n = 1e20 where
    # n z + 1 = -i, about 1 and about 1400, where S from g's own jet of
    # order 5 is roundoff, off by orders of magnitude
    _, inner, outer, _ = _peel(parse("exp(z/(n*z+1))").root)
    rng = random.Random(32)
    cases = [(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)), rng.randint(1, 32))
             for _ in range(50)]
    cases += [(z, n) for z in (80 - 1j, 240 - 1j) for n in (1, 8)]
    cases += [(z * 1e-20, 1e20) for z in (-1 - 1j, 1 - 1j, 10 + 10j, 1000 + 1000j)]
    for z, n in cases:
        w = n * z + 1
        want = (-1 / (2 * w**4), 2 * n / w**5, -10 * n * n / w**6)
        got = _peeled_derivatives(eval_jet(FamilyExpr(inner), n, z, order=3), outer, True)
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), (z, n)
    z, n = -1e-20 - 1e-20j, 1e20
    old = _peeled_derivatives(eval_jet(FamilyExpr(inner), n, z, order=5), outer)
    assert abs(old[1] - 2 * n / (n * z + 1) ** 5) > 1e6 * abs(2 * n / (n * z + 1) ** 5)


def test_the_degenerate_test_and_its_source_test_agree():
    # schwarzian._degenerate, which the Moebius constructor and the redo
    # walk run, against the source test that the lane function's prelude
    # runs, evaluated as a generated line, on each side of its boundary
    def source(a, b, c, d):
        return eval(_DEGENERATE_TEST.format("a", "b", "c", "d"), {}, dict(a=a, b=b, c=c, d=d))

    edge = 1e-12 * 2.0  # |ad - bc| at the boundary, for |ad| + |bc| = 2
    cases = [(1, 0, 0, 1), (2, 4, 1, 2), (1e9, 1e9, 1, 1), (0, 0, 1, 1), (0, 0, 0, 0),
             (0.3, 0.1 * 3, 1, 1), (1e-13, 0, 0, 1), (1e-11, 0, 0, 1), (1j, 1, 1, -1j),
             (1e200, 1e200, 1e-200, 1e-200), (1e308, 0, 0, 1e-308)]
    for d in (math.nextafter(1.0 + edge, 0.0), 1.0 + edge, math.nextafter(1.0 + edge, 2.0)):
        cases.append((1.0, 1.0, 1.0, d))
    seen = set()
    for a, b, c, d in cases:
        a, b, c, d = map(complex, (a, b, c, d))
        got = _degenerate(a, b, c, d)
        assert source(a, b, c, d) == got, (a, b, c, d)
        seen.add(got)
    assert seen == {True, False}
    # a product past the double range is inf, which both read alike; a
    # modulus past it raises
    assert _degenerate(1e200, 0j, 0j, 1e200) == source(1e200, 0j, 0j, 1e200)
    for a, b, c, d in ((1.5e154 + 1.5e154j, 0, 0, 1e154), (1, 1e154, 1.5e154 + 1.5e154j, 1)):
        with pytest.raises(OverflowAtPoint):
            _degenerate(a, b, c, d)
        with pytest.raises(OverflowError):
            source(complex(a), complex(b), complex(c), complex(d))


# ---------------------------------------------------------------------------
# Moebius construction


def test_mobius_normalizes_determinant():
    m = Mobius(2, 0, 0, 2)
    assert (m.a, m.b, m.c, m.d) == (1, 0, 0, 1)


def test_mobius_canonical_sign_diagonal():
    assert Mobius(-1, 0, 0, -1) == Mobius(1, 0, 0, 1)


def test_mobius_canonical_sign_offdiagonal():
    m = Mobius(0, -1, 1, 0)
    assert (m.a, m.b, m.c, m.d) == (0, 1, -1, 0)


def test_mobius_phase_in_upper_half_kept():
    m = Mobius(1j, 0, 0, -1j)
    assert (m.a, m.b, m.c, m.d) == (1j, 0, 0, -1j)


def test_mobius_degenerate_rejected():
    with pytest.raises(DegenerateMobiusError):
        Mobius(1, 2, 2, 4)


def test_mobius_degenerate_relative_to_scale():
    # ad - bc = 1e3 survives an absolute test but is cancellation noise
    # next to |ad| ~ 1e16.
    with pytest.raises(DegenerateMobiusError):
        Mobius(1e8, 1e8, 1e8, 1e8 + 1e-5)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
@pytest.mark.parametrize("place", range(4))
def test_mobius_coefficient_that_is_not_finite_is_refused(bad, place):
    # refused for what it is, before ad - bc reads it
    coefficients = [1, 0, 0, 1]
    coefficients[place] = bad
    with pytest.raises(ValueError, match="must be finite") as info:
        Mobius(*coefficients)
    assert type(info.value) is ValueError


def test_mobius_extreme_diagonal_is_fine():
    m = Mobius(1e8, 0, 0, 1e-8)
    assert mobius_apply(m, 2.0) == pytest.approx(2e16, rel=1e-12)


def test_mobius_compose_acts_like_composition():
    shift = Mobius(1, 1, 0, 1)
    double = Mobius(2, 0, 0, 1)
    both = mobius_compose(shift, double)
    for z in (0.0, 1.5, -2 + 1j):
        assert mobius_apply(both, z) == pytest.approx(2 * z + 1, rel=1e-12, abs=1e-12)
    assert mobius_close(both, Mobius(2, 1, 0, 1))


def test_mobius_compose_associative():
    rng = random.Random(3)
    for _ in range(20):
        m1 = support.random_mobius(rng)
        m2 = support.random_mobius(rng)
        m3 = support.random_mobius(rng)
        left = mobius_compose(mobius_compose(m1, m2), m3)
        right = mobius_compose(m1, mobius_compose(m2, m3))
        assert mobius_close(left, right, tol=1e-10)


def test_mobius_inverse_roundtrip():
    m = Mobius(3, 1, 1, -2)
    ident = mobius_compose(m, mobius_inverse(m))
    assert mobius_close(ident, Mobius(1, 0, 0, 1))
    z = 0.4 + 0.9j
    assert mobius_apply(mobius_inverse(m), mobius_apply(m, z)) == pytest.approx(z)


def test_mobius_apply_pole_gives_point_at_infinity():
    m = Mobius(0, 1, 1, 0)
    assert mobius_apply(m, 0.0) == POINT_AT_INFINITY
    assert not cmath.isfinite(POINT_AT_INFINITY)


def test_mobius_jet_of_reciprocal():
    m = Mobius(0, 1, 1, 0)
    j = mobius_jet(m, 2.0)
    assert (j.v, j.d1, j.d2, j.d3) == (0.5, -0.25, 0.25, -0.375)


def test_mobius_jet_at_pole_raises():
    m = Mobius(0, 1, 1, 0)
    with pytest.raises(PoleOfMobius) as info:
        mobius_jet(m, 0.0)
    assert info.value.point == 0.0


def test_mobius_on_identity_jet_is_exact():
    j = ComplexJet3(0.3 + 0.1j, 1.5, -2.0, 0.25j)
    assert mobius_on_jet(Mobius(1, 0, 0, 1), j) == j


def _bits(m: Mobius) -> tuple:
    return tuple(struct.pack("<2d", w.real, w.imag) for w in (m.a, m.b, m.c, m.d))


def test_mobius_pickles_its_stored_coefficients_bit_for_bit():
    m = Mobius(-3 + 4j, -4 - 1j, -4 + 2j, 2 + 2j)
    # normalizing again moves a last bit, so the copy must not be built anew
    assert _bits(Mobius(m.a, m.b, m.c, m.d)) != _bits(m)
    clone = pickle.loads(pickle.dumps(m))
    assert _bits(clone) == _bits(m) and clone == m and hash(clone) == hash(m)
    with pytest.raises(AttributeError):
        clone.a = 1


def test_identity_report_is_an_immutable_record_in_field_order():
    rep = check_mobius_invariance(parse("exp(z)"), 1, Mobius(1, 2, 3, 4), 0.1)
    assert rep._fields == ("lhs", "rhs", "abs_gap", "rel_gap", "passed", "tolerance_used",
                           "error_bound", "rule")
    assert pickle.loads(pickle.dumps(rep)) == rep
    with pytest.raises(AttributeError):
        rep.passed = not rep.passed


# ---------------------------------------------------------------------------
# invariance checker


def test_invariance_worked_example():
    f = parse("exp(n*z)")
    m = Mobius(3, 1, 1, -2)
    rep = check_mobius_invariance(f, 2, m, 0.3)
    assert rep.passed
    assert rep.lhs == pytest.approx(-2.0, rel=1e-12)
    assert rep.rhs == pytest.approx(-2.0, rel=1e-12)


def test_invariance_identity_map_gap_zero():
    f = parse("exp(n*z)")
    rep = check_mobius_invariance(f, 3, Mobius(1, 0, 0, 1), 0.2 + 0.1j)
    assert rep.abs_gap == 0.0
    assert rep.passed


def test_invariance_critical_point_propagates():
    f = parse("z^2")
    with pytest.raises(CriticalPointError):
        check_mobius_invariance(f, 1, Mobius(2, 1, 1, 1), 0.0)


def test_report_clause_order_and_tolerance_used():
    # S is -2 exactly; the moved jet's S is 1.1e-13 off it
    f = parse("exp(n*z)")
    m = Mobius(3, 1, 1, -2)
    rep = check_mobius_invariance(f, 2, m, 0.5, tol_abs=1.0, tol_rel=1e-8)
    assert rep.passed and rep.tolerance_used == 1.0
    rep = check_mobius_invariance(f, 2, m, 0.5, tol_abs=0.0, tol_rel=1e-8)
    assert rep.passed and rep.tolerance_used == 1e-8
    rep = check_mobius_invariance(f, 2, m, 0.5, tol_abs=0.0, tol_rel=0.0)
    assert not rep.passed
    assert rep.rel_gap == rep.abs_gap / max(abs(rep.lhs), abs(rep.rhs))


# ---------------------------------------------------------------------------
# composition checker


def test_composition_worked_example():
    # g o f = exp(z^2): at z=1 the jet of h=exp(z^2) is
    # h' = 2e, h'' = 6e, h''' = 20e, so S = 20e/2e - 1.5 (6e/2e)^2
    # = 10 - 13.5 = -3.5.
    f = parse("z^2")
    g = parse("exp(z)")
    rep = check_composition_law(f, g, 1, 1.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(-3.5, rel=1e-12)
    assert rep.rhs == pytest.approx(-3.5, rel=1e-12)


def test_composition_with_mobius_outer_reduces_to_sf():
    # S of 1/z is zero, so both sides must equal S_f.
    f = parse("exp(z)")
    g = parse("1/z")
    rep = check_composition_law(f, g, 1, 0.7)
    assert rep.passed
    assert rep.lhs == pytest.approx(-0.5, rel=1e-10)


def test_composition_labels_inner_critical_point():
    f = parse("z^2")
    g = parse("exp(z)")
    with pytest.raises(CriticalPointError) as info:
        check_composition_law(f, g, 1, 0.0)
    assert info.value.label == "f"
    assert info.value.point == 0.0


def test_composition_labels_outer_critical_point():
    f = parse("z + 2")
    g = parse("z^2")
    with pytest.raises(CriticalPointError) as info:
        check_composition_law(f, g, 1, -2.0)
    assert info.value.label == "g"
    assert info.value.point == 0.0


def test_composition_overflowing_square_refuses():
    # f' = 6 exp(exp(6)) ~ 1e176 squares to inf while S_g = 0 for the
    # affine g, so S_g f'^2 was 0 * inf = nan on a side that equals S_f = -18
    f = parse("exp(exp(n)+z*n)")
    g = parse("(n+i-exp(n))*(3*z*-i)")
    with pytest.raises(OverflowAtPoint) as info:
        check_composition_law(f, g, 6, 0.0)
    assert info.value.point == 0.0
    assert check_composition_law(g, f, 6, 0.0).passed


# ---------------------------------------------------------------------------
# reciprocal checker


def test_reciprocal_exp():
    rep = check_reciprocal(parse("exp(z)"), 1, 0.0, 1 + 1j)
    assert rep.passed
    assert rep.lhs == pytest.approx(-0.5, rel=1e-12)
    assert rep.rhs == pytest.approx(-0.5, rel=1e-12)


def test_reciprocal_shifted_exp():
    rep = check_reciprocal(parse("exp(z) + 5"), 1, 5.0, 1 + 1j)
    assert rep.passed
    assert rep.rhs == pytest.approx(-0.5, rel=1e-12)


def test_reciprocal_guard_violation():
    with pytest.raises(GuardViolation):
        check_reciprocal(parse("exp(z)"), 1, 1.0, 0.0)
    # just outside the guard is fine
    check_reciprocal(parse("exp(z)"), 1, 1.0 + 1e-6, 0.0)


def test_reciprocal_guard_is_a_value_error():
    with pytest.raises(ValueError):
        check_reciprocal(parse("exp(z)"), 1, 1.0, 0.0)


def test_reciprocal_of_constant_hits_critical_point():
    with pytest.raises(CriticalPointError):
        check_reciprocal(parse("5"), 1, 0.0, 0.3)


# ---------------------------------------------------------------------------
# conjugation checker


def test_conjugation_scaling_pair():
    # phi(z) = nz carries exp(nz) to n exp(z); S on both sides is -n^2/2.
    f = parse("exp(n*z)")
    g = parse("n*exp(z)")
    n = 4
    rep = check_conjugation(f, g, Mobius(n, 0, 0, 1), n, 0.2)
    assert rep.passed
    assert rep.lhs == pytest.approx(-8.0, rel=1e-12)
    assert rep.rhs == pytest.approx(-8.0, rel=1e-12)


def test_conjugation_translation_pair():
    # phi(z) = z + n carries exp(z+n) to exp(z) + n... only as a
    # semiconjugacy through phi(f(z)) = f(z) + n = g(z + n).
    f = parse("exp(z + n)")
    g = parse("exp(z) + n")
    n = 3
    rep = check_conjugation(f, g, Mobius(1, n, 0, 1), n, 0.5)
    assert rep.passed
    assert rep.lhs == pytest.approx(-0.5, rel=1e-12)
    assert rep.rhs == pytest.approx(-0.5, rel=1e-12)


def test_conjugation_identity_phi_exact():
    f = parse("exp(z) + z")
    rep = check_conjugation(f, f, Mobius(1, 0, 0, 1), 1, 0.3 + 0.4j)
    assert rep.abs_gap == 0.0
    assert rep.passed


def test_conjugation_unrelated_pair_rejected():
    f = parse("exp(z)")
    g = parse("exp(n*z)")
    with pytest.raises(ConjugacyViolated) as info:
        check_conjugation(f, g, Mobius(1, 0, 0, 1), 2, 0.3)
    assert info.value.gap > info.value.tol == 1e-10


def test_conjugation_pole_of_phi():
    f = parse("z")
    with pytest.raises(PoleOfMobius):
        check_conjugation(f, f, Mobius(0, 1, 1, 0), 1, 0.0)


def test_a_gap_past_the_error_bound_but_within_twice_it_fails():
    # the bound clause at its edge.  g = n exp(w) + eps (w - w0)^3, w0 = phi(z),
    # moves S_g by about 6 eps / g'(w0) and nothing the conjugacy pre-check
    # reads; with no fixed tolerance to pass it, a gap of 1.5 error bounds,
    # eps sized from the bound of a larger defect, must fail
    n, z = 4, 0.2 + 0j
    f, g0, phi = parse("exp(n*z)"), parse("n*exp(z)"), Mobius(4, 0, 0, 1)
    w0 = mobius_apply(phi, z)

    def check(eps):
        bump = Mul(ConstNum(eps), PowInt(Sub(Var(), ConstNum(w0)), 3))
        g = FamilyExpr(Add(g0.root, bump))
        return check_conjugation(f, g, phi, n, z, tol_abs=0.0, tol_rel=5e-324)

    jg = eval_jet(g0, n, w0)
    eps = 1e-9 * schwarzian(jg) * jg.d1 / 6.0  # a relative defect of 1e-9
    larger = check(eps)
    assert larger.rule == "bound" and not larger.passed
    rep = check(eps * 1.5 * larger.error_bound / larger.abs_gap)
    assert rep.rule == "bound" and rep.error_bound == pytest.approx(larger.error_bound, rel=1e-6)
    assert rep.error_bound < rep.abs_gap < 2.0 * rep.error_bound
    assert not rep.passed and rep.tolerance_used == rep.error_bound


# ---------------------------------------------------------------------------
# property checks

_coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)
_pt = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


def _mobius_or_reject(a, b, c, d) -> Mobius:
    try:
        return Mobius(a, b, c, d)
    except DegenerateMobiusError:
        assume(False)


@given(a=_coeff, b=_coeff, c=_coeff, d=_coeff, z=_pt)
def test_property_mobius_schwarzian_vanishes(a, b, c, d, z):
    m = _mobius_or_reject(a, b, c, d)
    # |f'| = 1/|cz+d|^2 after normalization; keep it clear of the
    # critical-point floor as well as of the pole.
    assume(0.1 <= abs(m.c * z + m.d) <= 1e3)
    s = schwarzian(mobius_jet(m, z))
    assert abs(s) <= 1e-9


@given(
    seed=st.integers(0, 10**6),
    a=_coeff,
    b=_coeff,
    c=_coeff,
    d=_coeff,
    z=_pt,
)
# once falsified: S_f = 0 exactly, and the quotient-rule Moebius jet put
# lhs at 1.2e-9 (n = 6)
@example(seed=2326, a=1 + 0j, b=0j, c=1 + 0j, d=1 + 0j, z=0j)
# once falsified: the guards saw f_5(0) = -100, the check ran f_1(0) = 0,
# the pole of 1/w
@example(seed=3414, a=0j, b=1 + 0j, c=1 + 0j, d=0j, z=0j)
# once falsified: exp((n+z)^3) at n = 8, |f(0)| = 2.3e222; the Moebius
# jet's r^2 underflowed while f'^3 overflowed, where it is now a
# critical point
@example(seed=2425, a=0j, b=1 + 0j, c=1 + 0j, d=0j, z=0j)
def test_property_invariance_for_random_families(seed, a, b, c, d, z):
    rng = random.Random(seed)
    f = support.random_family(rng)
    m = _mobius_or_reject(a, b, c, d)
    # the guards below must see the f_n that is checked
    n = rng.randint(1, 8)
    try:
        jf = eval_jet(f, n, z)
    except EvalError:
        assume(False)
    assume(abs(jf.d1) >= 1e-6)
    assume(abs(m.c * jf.v + m.d) >= 0.1)
    try:
        rep = check_mobius_invariance(f, n, m, z)
    except (EvalError, CriticalPointError):
        assume(False)
    assert rep.passed


@given(seed=st.integers(0, 10**6), z=_pt)
# once falsified: S_g f'^2 was 0 * inf = nan; now refused as an overflow
@example(seed=657733, z=0j)
def test_property_composition_both_orders(seed, z):
    rng = random.Random(seed)
    f = support.random_family(rng)
    g = support.random_family(rng)
    n = rng.randint(1, 6)
    for first, second in ((f, g), (g, f)):
        try:
            rep = check_composition_law(first, second, n, z)
        except (EvalError, CriticalPointError, OverflowAtPoint):
            continue
        assume(abs(rep.lhs) <= 1e8)
        assert rep.passed


@given(seed=st.integers(0, 10**6), z=_pt)
# once falsified by roundoff alone; test_identity_oracle.py measures each
@example(seed=174, z=1e-9 + 0j)  # near a critical point
@example(seed=2143, z=0j)  # Moebius map cancelling inside g's tree
@example(seed=46, z=1 + 0j)  # |f'| = 2.1e11
@example(seed=45803, z=1e-12 + 0j)  # nearer still to a critical point
# f's z*z+4 vanishes an ulp away, and the ball of g's z*z+4 at phi's
# inverse holds 0: the lhs keeps no digit (test_identity_oracle.py), and
# no finite bound exists
@example(seed=546863, z=1.9999999999999998j)
def test_property_conjugation_of_transported_family(seed, z):
    # Build g = phi o f o phi^{-1} symbolically, which satisfies the
    # semiconjugacy by construction.
    rng = random.Random(seed)
    f = support.random_family(rng)
    phi = support.random_mobius(rng)
    inner = support.mobius_tree(mobius_inverse(phi), Var())
    g = FamilyExpr(support.mobius_tree(phi, support.subst_var(f.root, inner)))
    n = rng.randint(1, 6)
    try:
        rep = check_conjugation(f, g, phi, n, z)
    except (EvalError, CriticalPointError, PoleOfMobius, ConjugacyViolated):
        assume(False)
    # a true identity is never refuted by a finite bound; it fails, as
    # uncertified, only where a ball the sides take holds a pole or meets
    # log's cut, so that no finite bound exists
    assert rep.passed or rep.error_bound == math.inf


def test_composition_where_log_meets_its_cut_fails_by_an_infinite_bound():
    # f(z) = z^2 is within rounding of -1, so g = log(z - 0.1) is taken
    # where its argument's ball meets the branch cut, on which log has no
    # derivative: neither S_g nor the lhs is bounded
    f, g = parse("z^2"), parse("log(z-0.1)")
    rep = check_composition_law(f, g, 2, complex(1e-20, 1), 0.0, 5e-324)
    assert rep.rule == "bound" and rep.error_bound == math.inf and not rep.passed


@pytest.mark.parametrize(
    "tols", [(math.nan, 1e-8), (1e-10, math.nan), (-1e-300, 1e-8), (1e-10, -1.0)]
)
def test_tolerances_that_are_not_nonnegative_numbers_are_value_errors(tols):
    # a nan tolerance once failed this true identity
    f = parse("exp(z)")
    name = ("tol_abs", "tol_rel")[0 if not tols[0] >= 0.0 else 1]
    for check in (
        lambda: check_reciprocal(f, 1, 0j, 0.3, *tols),
        lambda: check_mobius_invariance(f, 1, Mobius(1, 2, 3, 4), 0.3, *tols),
        lambda: check_composition_law(f, f, 1, 0.3, *tols),
        lambda: check_conjugation(f, f, Mobius(1, 0, 0, 1), 1, 0.3, *tols),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative number, got "):
            check()
