import cmath
import copy
import math
import pickle
import random

import mpmath
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from schwarzian_lab import jets
from schwarzian_lab.ball import Ball, radius
from schwarzian_lab.jets import (
    DIVISION_FLOOR,
    EXP_REAL_GUARD,
    ComplexJet3,
    DivisionByZeroAtPoint,
    Jet,
    OverflowAtPoint,
    jet_add,
    jet_const,
    jet_div,
    jet_exp,
    jet_log,
    jet_mobius,
    jet_mul,
    jet_neg,
    jet_pow_int,
    jet_sub,
    jet_var,
)
from schwarzian_lab.cli import CATALOG
from schwarzian_lab.dsl import (
    ConstNum,
    Div,
    EvalError,
    Exp,
    FamilyExpr,
    ImagUnit,
    Log,
    Mul,
    Neg,
    Param,
    PowInt,
    Sub,
    Var,
    eval_jet,
    eval_jet_seeded,
    parse,
)
from schwarzian_lab.dsl import Add as AddNode
from schwarzian_lab.schwarzian import Mobius, _schwarzian_derivatives, mobius_on_jet
from support import assert_fd_close, fd_derivative, log_arguments, plain_eval, random_mobius


def assert_jet_close(j: ComplexJet3, expected, rtol=1e-12):
    for got, want in zip(j, expected):
        assert abs(got - want) <= rtol * max(1.0, abs(want)), (j, expected)


# ---------------------------------------------------------------------------
# seeds


def test_var_seeds_identity_jet():
    assert jet_var(2.0 + 0j) == ComplexJet3(2.0 + 0j, 1.0 + 0j, 0j, 0j)
    assert jet_var(0j) == ComplexJet3(0j, 1.0 + 0j, 0j, 0j)
    assert jet_var(1 + 1j) == ComplexJet3(1 + 1j, 1.0 + 0j, 0j, 0j)


def test_const_seeds_flat_jet():
    assert jet_const(-0.5) == ComplexJet3(-0.5 + 0j, 0j, 0j, 0j)
    assert jet_const(0.0) == ComplexJet3(0j, 0j, 0j, 0j)
    assert jet_const(3j) == ComplexJet3(3j, 0j, 0j, 0j)


def test_var_rejects_nonfinite():
    with pytest.raises(ValueError):
        jet_var(complex(math.inf, 0.0))
    with pytest.raises(ValueError):
        jet_var(complex(0.0, math.nan))


@pytest.mark.parametrize("order", [-1, jets.MAX_ORDER + 1])
def test_an_order_outside_0_to_max_order_is_refused(order):
    # where a seed's order is first read: jet_var's order, or the length
    # of a seed; a seed of 0 parts is of order -1
    f = parse("exp(z)*i + n")
    for z in (0.5, Ball(0.5)):
        with pytest.raises(ValueError, match="order"):
            jet_var(z, order)
        with pytest.raises(ValueError, match="order"):
            eval_jet(f, 1, z, order=order)
        with pytest.raises(ValueError, match="order"):
            eval_jet_seeded(f, 1, (z, 1.0, *(0j,) * order)[: order + 1])


def test_a_jet_of_any_order_is_one_type():
    # built from its parts, its first four named, and kept by a pickle or
    # a copy, at every order; ComplexJet3 is the same class
    assert ComplexJet3 is Jet
    for order in range(jets.MAX_ORDER + 1):
        parts = tuple(complex(k, -k) for k in range(order + 1))
        j = Jet(*parts)
        assert type(j) is Jet and j == parts and len(j) == order + 1
        assert type(jet_var(0.5, order)) is type(jet_const(2.0, order)) is Jet
        assert [getattr(j, name) for name in ("v", "d1", "d2", "d3")[: order + 1]] == list(
            parts[:4]
        )
        for back in (pickle.loads(pickle.dumps(j)), copy.copy(j), copy.deepcopy(j)):
            assert type(back) is Jet and back == j


# ---------------------------------------------------------------------------
# frozen closed-form values


def test_square_jet_at_3():
    j = jet_mul(jet_var(3.0), jet_var(3.0))
    assert j == ComplexJet3(9 + 0j, 6 + 0j, 2 + 0j, 0j)


def test_reciprocal_jet_at_2():
    # derivatives of 1/z: -z^-2, 2 z^-3, -6 z^-4
    j = jet_div(jet_const(1.0), jet_var(2.0))
    assert_jet_close(j, (0.5, -0.25, 0.25, -0.375))
    assert_fd_close(j.d1, fd_derivative(lambda w: 1 / w, 2 + 0j, 1), 1)
    assert_fd_close(j.d2, fd_derivative(lambda w: 1 / w, 2 + 0j, 2), 2)
    assert_fd_close(j.d3, fd_derivative(lambda w: 1 / w, 2 + 0j, 3), 3)


def test_shift_jet():
    assert jet_add(jet_var(1.0), jet_const(5.0)) == ComplexJet3(6 + 0j, 1 + 0j, 0j, 0j)


def test_exp_jet_at_0():
    assert jet_exp(jet_var(0.0)) == ComplexJet3(1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)


def test_exp_2z_jet_at_0():
    j = jet_exp(jet_mul(jet_const(2.0), jet_var(0.0)))
    assert_jet_close(j, (1.0, 2.0, 4.0, 8.0))


def test_exp_jet_at_1_vs_oracle():
    j = jet_exp(jet_var(1.0))
    e = cmath.exp(1.0)
    assert_jet_close(j, (e, e, e, e))
    for k in (1, 2, 3):
        assert_fd_close(j[k], fd_derivative(cmath.exp, 1 + 0j, k), k)


def test_log_jet_at_1():
    j = jet_log(jet_var(1.0))
    assert_jet_close(j, (0.0, 1.0, -1.0, 2.0))


def test_cube_jet_at_2():
    j = jet_pow_int(jet_var(2.0), 3)
    assert_jet_close(j, (8.0, 12.0, 12.0, 6.0))


def test_negative_power_matches_division():
    j = jet_pow_int(jet_var(2.0), -1)
    assert_jet_close(j, (0.5, -0.25, 0.25, -0.375))


# the values at which each refusal rule's two spellings in jets, its
# predicate and its source test, are held equal: |w| at the floor and its
# neighbours, Re w at the exp guard's +-700 and theirs, signed zeros, values
# that are not finite, and moduli near and past the double range
_FLOOR, _GUARD = jets.DIVISION_FLOOR, jets.EXP_REAL_GUARD
_RULE_POINTS = (
    *(complex(x, 0.0) for x in (_FLOOR, math.nextafter(_FLOOR, 0.0), math.nextafter(_FLOOR, 1.0))),
    *(complex(0.0, -x) for x in (_FLOOR, math.nextafter(_FLOOR, 0.0), math.nextafter(_FLOOR, 1.0))),
    complex(_FLOOR / math.sqrt(2.0), _FLOOR / math.sqrt(2.0)),
    *(complex(s * x, 3.0) for s in (1.0, -1.0)
      for x in (_GUARD, math.nextafter(_GUARD, 0.0), math.nextafter(_GUARD, math.inf))),
    complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0),
    complex(1e308, 1e308), complex(-1.5e308, 1.5e308),
)


def _outcome(rule, w):
    # a spelling's verdict on w, or that it fails: each raises an
    # ArithmeticError past the double range, OverflowAtPoint or OverflowError
    try:
        return bool(rule(w))
    except ArithmeticError:
        return "fails"


@pytest.mark.parametrize("w", _RULE_POINTS, ids=repr)
@pytest.mark.parametrize("refused,test", [(jets._below_floor, jets._FLOOR_TEST),
                                          (jets._exp_refused, jets._EXP_TEST)],
                         ids=("floor", "exp guard"))
def test_each_refusal_rules_predicate_and_source_test_agree(refused, test, w):
    # the source test runs as a generated line does, on the value's name
    source = compile(test.format("w"), "<rule>", "eval")
    assert _outcome(refused, w) == _outcome(lambda w: eval(source, {}, {"w": w}), w)


def test_a_modulus_past_the_double_range_fails_both_spellings_of_the_floor():
    w = complex(1.5e308, 1.5e308)
    assert _outcome(jets._below_floor, w) == "fails"
    with pytest.raises(OverflowError):
        eval(jets._FLOOR_TEST.format("w"), {}, {"w": w})


def test_power_zero_is_constant_one():
    assert jet_pow_int(jet_var(3 + 2j), 0) == jet_const(1.0)


def test_neg_flips_componentwise():
    j = ComplexJet3(1 + 2j, 3j, -4 + 0j, 5 + 5j)
    assert jet_neg(j) == ComplexJet3(-1 - 2j, -3j, 4 + 0j, -5 - 5j)


# ---------------------------------------------------------------------------
# finite-difference agreement per operation

_POINTS = (0.3 + 0.7j, -1.2 + 0.4j, 2.0 - 0.5j)


def _jet_of(func_jet, z):
    return func_jet(jet_var(z))


@pytest.mark.parametrize("z", _POINTS)
def test_mul_agrees_with_oracle(z):
    # h(w) = (w^2 + 1) * exp(w)
    j = jet_mul(
        jet_add(jet_mul(jet_var(z), jet_var(z)), jet_const(1.0)),
        jet_exp(jet_var(z)),
    )
    func = lambda w: (w * w + 1) * cmath.exp(w)
    for k in (1, 2, 3):
        assert_fd_close(j[k], fd_derivative(func, z, k), k, scale=abs(j.v))


@pytest.mark.parametrize("z", _POINTS)
def test_div_agrees_with_oracle(z):
    j = jet_div(jet_exp(jet_var(z)), jet_add(jet_mul(jet_var(z), jet_var(z)), jet_const(3.0)))
    func = lambda w: cmath.exp(w) / (w * w + 3)
    for k in (1, 2, 3):
        assert_fd_close(j[k], fd_derivative(func, z, k), k, scale=abs(j.v))


@pytest.mark.parametrize("z", _POINTS)
def test_exp_agrees_with_oracle(z):
    j = jet_exp(jet_mul(jet_var(z), jet_var(z)))
    func = lambda w: cmath.exp(w * w)
    for k in (1, 2, 3):
        assert_fd_close(j[k], fd_derivative(func, z, k), k, scale=abs(j.v))


@pytest.mark.parametrize("z", _POINTS)
def test_log_agrees_with_oracle(z):
    j = jet_log(jet_add(jet_mul(jet_var(z), jet_var(z)), jet_const(5.0)))
    func = lambda w: cmath.log(w * w + 5)
    for k in (1, 2, 3):
        assert_fd_close(j[k], fd_derivative(func, z, k), k)


@pytest.mark.parametrize("z", _POINTS)
def test_pow_agrees_with_oracle(z):
    j = jet_pow_int(jet_add(jet_var(z), jet_const(3.0)), -2)
    func = lambda w: (w + 3) ** -2
    for k in (1, 2, 3):
        assert_fd_close(j[k], fd_derivative(func, z, k), k)


# ---------------------------------------------------------------------------
# algebraic laws (property-based)


def _band(lo=0.25, hi=4.0):
    # complex numbers with modulus in [lo, hi]; keeps products/quotients
    # far from both underflow and cancellation trouble
    return st.builds(
        lambda r, t: r * cmath.exp(1j * t),
        st.floats(lo, hi),
        st.floats(0.0, 2.0 * math.pi),
    )


def _jets():
    # derivative components scaled to the value's magnitude so composed
    # expressions stay well-conditioned
    def build(v, s1, s2, s3):
        m = abs(v)
        return ComplexJet3(v, s1 * m, s2 * m, s3 * m)

    return st.builds(build, _band(), _band(), _band(), _band())


@given(_jets(), _jets())
def test_mul_commutes_exactly(a, b):
    assert jet_mul(a, b) == jet_mul(b, a)


@given(_jets(), _jets())
def test_div_undoes_mul(a, b):
    got = jet_div(jet_mul(a, b), b)
    for x, y in zip(got, a):
        assert abs(x - y) <= 1e-12 * max(abs(y), abs(a.v))


@given(_jets())
def test_exp_undoes_log(u):
    got = jet_exp(jet_log(u))
    for x, y in zip(got, u):
        assert abs(x - y) <= 1e-12 * max(abs(y), abs(u.v))


@given(_jets(), _jets(), _jets())
def test_mul_associates_approximately(a, b, c):
    left = jet_mul(jet_mul(a, b), c)
    right = jet_mul(a, jet_mul(b, c))
    for x, y in zip(left, right):
        assert abs(x - y) <= 1e-10 * max(1.0, abs(x), abs(y))


@given(_jets(), _jets())
def test_add_sub_are_inverse_exactly_on_components(a, b):
    # floating addition is not exactly invertible; check the looser
    # contract actually promised: tight componentwise agreement
    got = jet_sub(jet_add(a, b), b)
    for x, y in zip(got, a):
        assert abs(x - y) <= 1e-12 * max(abs(a.v), abs(b.v), abs(y), 1e-6)


# ---------------------------------------------------------------------------
# ball jets


def _balls(j, rads=(0.0, 0.0, 0.0, 0.0)) -> ComplexJet3:
    return ComplexJet3(*(Ball(p, r) for p, r in zip(j, rads)))


@given(_jets(), _jets())
def test_bounded_ops_reproduce_plain_jets_bit_for_bit(a, b):
    ba, bb = _balls(a), _balls(b)
    pairs = [
        (jet_add(ba, bb), jet_add(a, b)),
        (jet_sub(ba, bb), jet_sub(a, b)),
        (jet_mul(ba, bb), jet_mul(a, b)),
        (jet_div(ba, bb), jet_div(a, b)),
        (jet_exp(ba), jet_exp(a)),
        (jet_log(ba), jet_log(a)),
        (jet_pow_int(ba, -3), jet_pow_int(a, -3)),
        # (2w + 1)/(w + 1) has ad - bc = 1
        (jet_mobius(ba, 2, 1, 1, 1), jet_mobius(a, 2, 1, 1, 1)),
    ]
    for balls, plain in pairs:
        assert tuple(p.mid for p in balls) == plain
        assert all(0.0 <= p.rad < math.inf for p in balls)


def test_bounded_log_is_unbounded_where_the_value_may_cross_the_cut():
    near = _balls(jet_var(-1.0 + 1e-17j), (1e-16, 0.0, 0.0, 0.0))
    # the principal log has no derivative on its cut, so no part of the
    # jet is enclosed
    assert all(p.rad == math.inf for p in jet_log(near))
    clear = _balls(jet_var(-1.0 + 1e-3j), (1e-16, 0.0, 0.0, 0.0))
    assert math.isfinite(jet_log(clear).v.rad)


def test_bounded_log_is_enclosed_over_a_ball_just_clear_of_the_cut():
    # the ball's radius is just below its distance to the cut, 0.1, so log
    # is analytic on it and every part of the jet is enclosed; 1/x taken
    # on the ball, then off the cut, would meet the cut and give up
    mid, rad = -1.0 + 0.1j, 0.095
    j = jet_log(_balls(jet_var(mid), (rad, 0.0, 0.0, 0.0)))
    assert all(math.isfinite(p.rad) for p in j)
    for k in range(8):
        w = mid + rad * cmath.exp(2j * math.pi * k / 8)
        exact = (cmath.log(w), 1 / w, -1 / w**2, 2 / w**3)
        assert all(abs(p.mid - x) <= p.rad for p, x in zip(j, exact))


def test_mobius_jet_at_pole_raises_division_by_zero():
    with pytest.raises(DivisionByZeroAtPoint):
        jet_mobius(jet_var(-1.0), 2, 1, 1, 1)


def _written_out_mobius(u, a, b, c, r) -> tuple:
    # jets._mobius as it was written out for order 3 alone, before one
    # formula took every order: the reference for its bits
    w, u1, u2, u3 = u
    s, p, q = r * u1, r * u2, r * u3
    cs = c * s
    return (
        (a * w + b) * r,
        r * s,
        r * (p - 2.0 * (cs * s)),
        r * (6.0 * (cs * cs * s) - 6.0 * (cs * p) + q),
    )


def test_the_mobius_formula_keeps_the_written_out_order_3_bits():
    # seeded order-3 jets, a fifth of their parts signed zeros and a
    # fifth of them jet_var's, under unimodular maps: the formula as
    # written, compiled and on balls, and jet_mobius, which compiles it
    # once hot, give the written-out formula's bits
    rng = random.Random(2403)
    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
    compiled = jets._compiled(jets._mobius, ((0j,) * 4, 0j, 0j, 0j, 0j))

    def part():
        if rng.random() < 0.2:
            return rng.choice(zeros)
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * 10.0 ** rng.randint(-4, 4)

    for _ in range(2 * jets._HOT + 100):
        m = random_mobius(rng)
        u = (part(), 1.0 + 0j, 0j, 0j) if rng.random() < 0.2 else tuple(part() for _ in range(4))
        den = m.c * u[0] + m.d
        if abs(den) <= DIVISION_FLOOR:
            continue
        args = (u, m.a, m.b, m.c, 1.0 / den)
        want = _hex(_written_out_mobius(*args))
        assert _hex(jets._mobius(*args)) == _hex(compiled(*args)) == want
        try:
            got = jet_mobius(u, m.a, m.b, m.c, m.d)
        except OverflowAtPoint:
            assert not all(map(cmath.isfinite, _written_out_mobius(*args)))
        else:
            assert type(got) is Jet and _hex(got) == want
        balls = (tuple(Ball(x, abs(x) * 1e-9) for x in u), m.a, m.b, m.c, Ball(1.0 / den, 1e-12))
        assert _hex(jets._mobius(*balls)) == _hex(_written_out_mobius(*balls))


def test_mobius_on_a_jet_of_each_order_matches_the_closed_form_chain():
    # with r = 1/(c w + d) the map's m-th derivative is (-c)^(m-1) m! r^(m+1),
    # which Faa di Bruno's chain composes with u
    rng = random.Random(2404)
    for order in range(jets.MAX_ORDER + 1):
        for _ in range(60):
            m = random_mobius(rng)
            u = Jet(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(order + 1)))
            den = m.c * u[0] + m.d
            if abs(den) < 0.1 * (abs(m.c) + abs(m.d)):
                continue  # near the pole, where both lose digits
            r = 1.0 / den
            closed = ((m.a * u[0] + m.b) * r,) + tuple(
                (-m.c) ** (k - 1) * math.factorial(k) * r ** (k + 1) for k in range(1, order + 1)
            )
            want = jets._chain(u, closed)
            got = mobius_on_jet(m, u)
            assert type(got) is Jet and len(got) == order + 1
            scale = max(1.0, *map(abs, want))
            for k, (g, w) in enumerate(zip(got, want)):
                assert abs(g - w) <= 1e-12 * scale, (order, k, got, want)


# (3w + 1)/(w - 2), normalized to ad - bc = 1, which its coefficients meet
# only to roundoff
_NORMALIZED = Mobius(3, 1, 1, -2)


@pytest.mark.parametrize(
    "a, b, c, d",
    [(1, 0, 1, 2), (_NORMALIZED.a, _NORMALIZED.b, _NORMALIZED.c, _NORMALIZED.d)],
    ids=["ad - bc = 2", "Mobius"],
)
def test_a_ball_mobius_jet_of_each_order_holds_the_maps_derivatives(a, b, c, d):
    # the ball jet of (a w + b)/(c w + d) after u, at every order, holds the
    # derivatives of the map with these exact coefficients after u's
    # Taylor polynomial, by mpmath at 40 digits; with ad - bc = 2 every
    # part after the value is twice what a unimodular map's would be
    rng = random.Random(2405)
    for order in range(jets.MAX_ORDER + 1):
        for _ in range(8):
            u = Jet(*(complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)) for _ in range(order + 1)))
            got = jet_mobius(Jet(*map(Ball, u)), a, b, c, d)
            assert [p.mid for p in got] == list(jet_mobius(u, a, b, c, d))
            with mpmath.workdps(40):
                A, B, C, D = (mpmath.mpc(x) for x in (a, b, c, d))

                def composed(t):
                    p = sum(mpmath.mpc(x) * t**k / math.factorial(k) for k, x in enumerate(u))
                    return (A * p + B) / (C * p + D)

                want = mpmath.diffs(composed, 0, order)
                for k, (g, w) in enumerate(zip(got, want)):
                    assert abs(mpmath.mpc(g.mid) - w) <= g.rad, (order, k)


# ---------------------------------------------------------------------------
# guards and errors


def test_div_by_zero_reports_point():
    with pytest.raises(DivisionByZeroAtPoint) as info:
        jet_div(jet_const(1.0), jet_const(0.0))
    assert info.value.point == 0j


def test_div_floor_is_the_module_constant():
    # a denominator at the floor is a division by zero; one an ulp above
    # it passes the check, and its reciprocal's derivatives overflow
    assert jet_div(jet_const(1.0), jet_const(1e-60)).v == pytest.approx(1e60)
    with pytest.raises(DivisionByZeroAtPoint):
        jet_div(jet_const(1.0), jet_const(DIVISION_FLOOR))
    above = jet_const(math.nextafter(DIVISION_FLOOR, 1.0))
    with pytest.raises(OverflowAtPoint):
        jet_div(jet_const(1.0), above)


def test_log_mobius_and_exp_limits_are_the_module_constants():
    at, above = DIVISION_FLOOR, math.nextafter(DIVISION_FLOOR, 1.0)
    with pytest.raises(DivisionByZeroAtPoint):
        jet_log(jet_const(at))
    with pytest.raises(OverflowAtPoint):
        jet_log(jet_const(above))
    # (w + 0)/(0 w + d) with d at the floor: the map's pole
    with pytest.raises(DivisionByZeroAtPoint):
        jet_mobius(jet_var(0.5), 1 / at, 0, 0, at)
    with pytest.raises(OverflowAtPoint):
        jet_mobius(jet_var(0.5), 1 / above, 0, 0, above)
    assert jet_exp(jet_const(EXP_REAL_GUARD)).v == cmath.exp(EXP_REAL_GUARD)
    with pytest.raises(OverflowAtPoint, match="overflow guard"):
        jet_exp(jet_const(math.nextafter(EXP_REAL_GUARD, 1e3)))


def test_div_by_deep_subnormal_overflows_in_chain():
    # the reciprocal's third-order coefficient is -6/v^4, so denominators
    # this small exceed the float range even though 1/v itself fits;
    # the typed error is the promised signal
    with pytest.raises(OverflowAtPoint):
        jet_div(jet_const(1.0), jet_const(1e-200))


def test_exp_guard_trips_on_large_real_part():
    with pytest.raises(OverflowAtPoint):
        jet_exp(jet_const(701.0))
    with pytest.raises(OverflowAtPoint):
        jet_exp(jet_const(-701.0))
    # imaginary part is rotation only, never overflow
    assert abs(jet_exp(jet_const(1e6j)).v) == pytest.approx(1.0)


def test_log_at_zero_raises():
    with pytest.raises(DivisionByZeroAtPoint):
        jet_log(jet_const(0.0))


def test_log_uses_principal_branch():
    j = jet_log(jet_var(-2.0 + 0j))
    assert j.v == pytest.approx(math.log(2.0) + 1j * math.pi)


def test_overflowing_product_is_typed_error():
    big = jet_const(1e300)
    with pytest.raises(OverflowAtPoint):
        jet_mul(big, big)


def test_overflowing_derivative_component_is_typed_error():
    j = ComplexJet3(1.0 + 0j, 1e300 + 0j, 0j, 0j)
    with pytest.raises(OverflowAtPoint):
        jet_mul(j, j)  # d2 picks up 2*d1*d1 = 2e600



# each operation on jets of one order; pow_int's k of both signs
_OPERATIONS = {
    "add": jet_add, "sub": jet_sub, "mul": jet_mul, "div": jet_div,
    "neg": lambda a, b: jet_neg(a), "exp": lambda a, b: jet_exp(a),
    "log": lambda a, b: jet_log(a), "pow 3": lambda a, b: jet_pow_int(a, 3),
    "pow -2": lambda a, b: jet_pow_int(a, -2),
}


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_an_operation_checks_only_the_parts_up_to_its_order(order):
    # an order-k jet is the first k + 1 parts of the order-3 and order-5
    # jets, bit for bit, and an operation fails iff one of its own parts
    # is not finite
    clean = (1.0 + 0j, 2.0 + 0j, 3.0 + 0j, 4.0 + 0j, 5.0 + 0j, 6.0 + 0j)
    one = jet_const(1.0, order)
    for part in range(6):
        j = tuple(complex(math.inf, 0.0) if k == part else x for k, x in enumerate(clean))
        if part <= order:
            with pytest.raises(OverflowAtPoint):
                jet_mul(j[: order + 1], one)
        else:
            got = jet_mul(j[: order + 1], one)
            assert _hex(got) == _hex(jet_mul(clean, jet_const(1.0, 5))[: order + 1])
            with pytest.raises(OverflowAtPoint):  # the jet that holds that part
                jet_mul(j[: part + 1], jet_const(1.0, part))
    rng = random.Random(order)
    for _ in range(30):
        a, b = (tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6))
                for _ in range(2))
        for name, op in _OPERATIONS.items():
            got = op(a[: order + 1], b[: order + 1])
            assert type(got) is Jet and len(got) == order + 1
            for longer in (4, 6):
                assert _hex(got) == _hex(op(a[:longer], b[:longer])[: order + 1]), name


def test_one_over_a_tiny_z_is_finite_to_order_2():
    # 1/z at 1e-80: f = 1e80, f' = -1e160 and f'' = 2e240 are finite, and
    # f''' = -6e320 is not, so 1/z fails at order 3 and above, and below
    # it is the first parts of the order-5 jet, which no operation checks
    for order in (3, 4, 5):
        z, one = jet_var(1e-80, order), jet_const(1.0, order)
        with pytest.raises(OverflowAtPoint):
            jet_div(one, z)
        with pytest.raises(OverflowAtPoint):
            jet_pow_int(z, -1)
    z = jet_var(1e-80, 5)
    unchecked = jets._product(jet_const(1.0, 5), jets._chain(z, jets._reciprocal(1.0 / z[0], 6)))
    assert not cmath.isfinite(unchecked[3])
    for order in (0, 1, 2):
        z, one = jet_var(1e-80, order), jet_const(1.0, order)
        j = jet_div(one, z)
        assert len(j) == order + 1 and all(map(cmath.isfinite, j))
        assert j[:2] == (1e80 + 0j, -1e160 + 0j)[: order + 1]
        assert _hex(j) == _hex(unchecked[: order + 1])
        assert jet_pow_int(z, -1) == j


# ---------------------------------------------------------------------------
# jets of order 4 and 5: mpmath's derivatives at 40 digits, and the bits of
# the order-3 walk in their parts up to 3


def _mp_derivatives(f: FamilyExpr, n, z: complex, order: int, dps: int = 40) -> list:
    # f_n's derivatives 0..order at z, by mpmath's differentiation of the
    # tree evaluated in mpmath's arithmetic, to ``dps`` digits
    with mpmath.workdps(dps):
        def fn(w):
            return mpmath.mpc(plain_eval(f.root, n, w, mpmath))

        return list(mpmath.diffs(fn, mpmath.mpc(z), order))


def _taylor_scale(j) -> float:
    # the largest Taylor coefficient f^(k)/k! of a jet
    return max(abs(p) / math.factorial(k) for k, p in enumerate(j))


def _roundoff_scale(node, n, z: complex, order: int) -> float:
    # where a product or quotient of the tree multiplies a large operand
    # by a small one (z * z^-8, log(z)/log(z) near 1), its roundoff is on
    # the scale of the product of their Taylor scales; the largest such
    if isinstance(node, (Var, Param, ImagUnit, ConstNum)):
        return 0.0
    if isinstance(node, PowInt):
        return _roundoff_scale(node.base, n, z, order)
    if isinstance(node, (Neg, Exp, Log)):
        return _roundoff_scale(node.operand if isinstance(node, Neg) else node.arg, n, z, order)
    inner = max(_roundoff_scale(x, n, z, order) for x in (node.lhs, node.rhs))
    if not isinstance(node, (Mul, Div)):
        return inner
    rhs = Div(ConstNum(1 + 0j), node.rhs) if isinstance(node, Div) else node.rhs
    a, b = (eval_jet(FamilyExpr(x), n, z, order=order) for x in (node.lhs, rhs))
    return max(inner, _taylor_scale(a) * _taylor_scale(b))


def _assert_matches_mpmath(f: FamilyExpr, n, z: complex, order: int) -> None:
    got = eval_jet(f, n, z, order=order)
    want = [complex(x) for x in _mp_derivatives(f, n, z, order)]
    assert len(got) == order + 1
    # a part that is 0, or tiny beside the others, is judged on the scale
    # of the largest Taylor coefficient f^(j)/j!, times k!, and a function
    # that is 0 (log(z/z)) on a scale of 1e-3; to that is added the
    # roundoff of its products and quotients
    scale = max(1e-3, _taylor_scale(want))
    slack = 1e-11 * _roundoff_scale(f.root, n, z, order)
    for k, (g, w) in enumerate(zip(got, want)):
        tol = 1e-9 * max(abs(w), math.factorial(k) * scale) + math.factorial(k) * slack
        assert abs(g - w) <= tol, (k, got, want)


def _assert_keeps_the_order_3_bits(f: FamilyExpr, n, z: complex, order: int) -> None:
    # an order-k jet and the order-3 jet agree in their common parts, bit
    # for bit; the one of higher order checks those parts too
    low, high = sorted((3, order))
    try:
        short = eval_jet(f, n, z, order=low)
    except EvalError:
        with pytest.raises(EvalError):
            eval_jet(f, n, z, order=high)
        return
    assert len(short) == low + 1
    try:
        long = eval_jet(f, n, z, order=high)
    except EvalError as exc:  # a part above the lower order past the double range
        assert "overflowed" in exc.message
        return
    assert _hex(long[: low + 1]) == _hex(short)


def _assert_ball_holds_mpmath(f: FamilyExpr, n, z: complex, order: int,
                              guarded: bool = False) -> bool:
    # the jet at a ball of radius 0 about z, of the same order: its
    # midpoints are the plain jet's bits, and each part holds mpmath's
    # derivative; a part that is a number is exact.  With ``guarded``, the
    # parts are checked only where mpmath's derivatives at 40 and at 60
    # digits agree to a tenth of each part's radius: near a pole its
    # differences lose more digits than a radius holds.  Whether the parts
    # were checked
    got = eval_jet(f, n, Ball(z), order=order)
    assert len(got) == order + 1
    mids, radii = [p.mid if type(p) is Ball else p for p in got], list(map(radius, got))
    assert _hex(mids) == _hex(eval_jet(f, n, z, order=order))
    want = _mp_derivatives(f, n, z, order)
    with mpmath.workdps(60):
        if guarded and any(abs(w - x) > r / 10 for r, w, x in
                           zip(radii, want, _mp_derivatives(f, n, z, order, 60))):
            return False
    with mpmath.workdps(40):
        for k, (m, r, w) in enumerate(zip(mids, radii, want)):
            assert abs(mpmath.mpc(m) - w) <= r, (k, got, w)
    return True


_CATALOG_POINTS = (0.3 + 0.1j, -0.2 - 0.4j, 0.05j, -0.45 + 0.3j)


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5])
def test_order_k_jets_of_the_catalog_match_mpmath(name, order):
    # plain jets, and ball jets of the same order
    f = parse(CATALOG[name])
    for n in (1, 3, 8):
        for z in _CATALOG_POINTS:
            _assert_matches_mpmath(f, n, z, order)
            _assert_keeps_the_order_3_bits(f, n, z, order)
            _assert_ball_holds_mpmath(f, n, z, order)


_leaves = st.one_of(
    st.just(Var()), st.just(Var()), st.just(Param()), st.just(ImagUnit()),
    st.integers(1, 5).map(lambda k: ConstNum(complex(k))),
)


def _branches(children):
    return st.one_of(
        st.builds(AddNode, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Neg, children),
        st.builds(PowInt, children, st.integers(-3, 3)),
        st.builds(Exp, children),
        st.builds(Log, children),
    )


def _singular_operands(node) -> list:
    # every divisor, base of a negative power and log argument in the tree
    kind = type(node)
    if kind in (Var, Param, ImagUnit, ConstNum):
        return []
    if kind is PowInt:
        return [node.base] * (node.exponent < 0) + _singular_operands(node.base)
    if kind in (Neg, Exp, Log):
        inner = node.operand if kind is Neg else node.arg
        return [inner] * (kind is Log) + _singular_operands(inner)
    return [node.rhs] * (kind is Div) + _singular_operands(node.lhs) + _singular_operands(node.rhs)


@given(
    st.recursive(_leaves, _branches, max_leaves=8),
    st.integers(1, 4),
    _band(0.5, 1.5),
    st.integers(0, 5),
)
def test_order_k_jets_of_random_trees_match_mpmath(tree, n, z, order):
    # plain jets, and ball jets of the same order where mpmath's own
    # differences are accurate to a tenth of the ball's radius
    f = FamilyExpr(tree)
    try:
        j = eval_jet(f, n, z, order=order)
    except EvalError:
        assume(False)
    # away from log's cut, where mpmath's differences would straddle it,
    # from a divisor or log argument that is roundoff (z - z), where the
    # double and the exact evaluations part, and from values too large to
    # difference
    for arg in log_arguments(tree):
        w = plain_eval(arg, n, z)
        assume(not (w.real < 0.0 and abs(w.imag) < 1e-3 * abs(w)))
    assume(all(abs(plain_eval(d, n, z)) > 1e-6 for d in _singular_operands(tree)))
    assume(max(map(abs, j)) < 1e100)
    _assert_matches_mpmath(f, n, z, order)
    _assert_keeps_the_order_3_bits(f, n, z, order)
    event(f"ball parts checked: {_assert_ball_holds_mpmath(f, n, z, order, guarded=True)}")


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_schwarzian_derivatives_of_example2_match_the_closed_form(n):
    # f = exp(z/(n z + 1)): S = -1/(2 w^4), S' = 2n/w^5 and
    # S'' = -10 n^2/w^6, w = n z + 1
    f = parse("exp(z/(n*z+1))")
    for z in (0j, 0.03 - 0.02j, -0.04 + 0.01j, 0.05j):
        w = n * z + 1
        s, ds, dds = _schwarzian_derivatives(eval_jet(f, n, z, order=5))
        for got, want in ((s, -1 / (2 * w**4)), (ds, 2 * n / w**5), (dds, -10 * n**2 / w**6)):
            assert abs(got - want) <= 1e-11 * abs(want), (z, got, want)
        assert _schwarzian_derivatives(eval_jet(f, n, z, order=4)) == (s, ds)


# ---------------------------------------------------------------------------
# a formula runs as written until it is hot at a jet length, then as the
# straight-line code of its trace: the same operations, the same bits

# each formula, and whether a node checks its result
_HOT_FORMULAS = {
    "sum": (jets._sum, True), "difference": (jets._difference, True),
    "negation": (jets._negation, False), "product": (jets._product, True),
    "chain": (jets._chain, True), "reciprocal": (jets._reciprocal, False),
    "mobius": (jets._mobius, False),
}
_SPECIAL_PARTS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e300 + 1e300j,
                  complex(math.inf, 1.0), complex(1.0, math.nan), 1e-320 + 0j)


def _hex(parts):
    def bits(x):
        if type(x) is Ball:
            return (*bits(x.mid), x.rad.hex())
        return x.real.hex(), x.imag.hex()

    return [bits(x) for x in parts]


@pytest.mark.parametrize("name", sorted(_HOT_FORMULAS))
def test_a_hot_formula_compiles_to_the_same_bits(name):
    formula, checks = _HOT_FORMULAS[name]
    rng = random.Random(68)

    def part():
        if rng.random() < 0.2:
            return rng.choice(_SPECIAL_PARTS)
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * 10.0 ** rng.randint(-5, 5)

    def outcome(fn, args):
        # the jet, named as _checked names it, or the overflow it raises
        try:
            j = jets._checked(fn(*args)) if fn is formula else fn(*args)
        except OverflowAtPoint:
            return "Overflow"
        return type(j), _hex(j)

    for n in (2, 4, 5, 6):
        for _ in range(40):
            jet = [tuple(part() for _ in range(n)) for _ in range(2)]
            args = {"negation": (jet[0],), "reciprocal": (part(), n),
                    "mobius": (jet[0], part(), part(), part(), part())}.get(name, jet)
            compiled = jets._compiled(formula, args)
            assert _hex(compiled(*args)) == _hex(formula(*args))
            # a checked formula's code does what _checked does
            if checks:
                compiled = jets._compiled(formula, args, checked=True)
                assert outcome(compiled, args) == outcome(formula, args)
            if n == 4:  # the ball jets of order 3
                balls = [tuple(Ball(x, abs(x) * 1e-9) for x in j) for j in jet]
                one = {"negation": (balls[0],), "reciprocal": (Ball(part(), 1e-12), n),
                       "mobius": (balls[0], part(), part(), part(), Ball(part(), 1e-12))}
                args = one.get(name, balls)
                assert _hex(jets._compiled(formula, args)(*args)) == _hex(formula(*args))


def test_a_formula_is_compiled_only_once_hot():
    # the formula as written for _HOT - 1 calls at a jet length, then its
    # compiled code, kept for the process
    hot = jets._Hot(jets._product)
    a = jet_var(0.5 + 0.25j)
    for _ in range(jets._HOT - 1):
        hot[4](a, a)
    assert hot[4].__code__.co_filename != "<jets formula>"
    want = hot[4](a, a)
    assert hot[4].__code__.co_filename == "<jets formula>"
    assert hot[4](a, a) == want == jets._product(a, a)
    assert list(hot) == [4]


def test_log_and_exp_of_order_0_share_the_chain_once_it_is_hot(monkeypatch):
    # at order 0 each hands the chain its outer value alone, so the chain's
    # code of length 1, compiled on whichever call makes it hot, runs both;
    # 1/x gives log no derivative there
    monkeypatch.setattr(jets, "_CHAIN", jets._Hot(jets._chain, True))
    monkeypatch.setattr(jets, "_RECIPROCAL", jets._Hot(jets._reciprocal))
    assert jets._reciprocal(0.5 + 0j, 0) == ()
    f = parse("log(z+2)*exp(z)")
    for k in range(2 * jets._HOT + 2):
        w = 0.1 + k / 1000
        (got,) = eval_jet(f, 1, w, order=0)
        want = eval_jet(f, 1, w, order=3).v
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert jets._CHAIN[1].__code__.co_filename == "<jets formula>"


class _Logged:
    """An operand that logs each operation made on it, in order."""

    def __init__(self, log, key):
        self.log, self.key = log, key

    def _op(self, form, *args):
        self.log.append((form, tuple(x.key if type(x) is _Logged else x for x in args)))
        return _Logged(self.log, len(self.log))

    def __add__(self, other):
        return self._op("+", self, other)

    def __sub__(self, other):
        return self._op("-", self, other)

    def __mul__(self, other):
        return self._op("*", self, other)

    def __rmul__(self, other):
        return self._op("*", other, self)

    def __neg__(self):
        return self._op("neg", self)


# the formulas codegen runs on symbolic values; jet_mobius alone runs _mobius
@pytest.mark.parametrize("name", sorted(set(_HOT_FORMULAS) - {"mobius"}))
def test_a_compiled_formula_makes_the_formulas_operations_in_its_order(name):
    # codegen names its values in the order they are made, so its source
    # is the same whether it runs a formula as written or compiled
    formula, checks = _HOT_FORMULAS[name]

    def operands(log, n):
        jet = [tuple(_Logged(log, f"{side}{k}") for k in range(n)) for side in "ab"]
        return {"negation": (jet[0],), "reciprocal": (_Logged(log, "w"), n)}.get(name, jet)

    for n in (2, 4, 5, 6):
        written, compiled = [], []
        formula(*operands(written, n))
        jets._compiled(formula, operands([], n))(*operands(compiled, n))
        assert compiled == written
