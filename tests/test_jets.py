import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schwarzian_lab.ball import Ball
from schwarzian_lab.jets import (
    DIVISION_FLOOR,
    EXP_REAL_GUARD,
    ComplexJet3,
    DivisionByZeroAtPoint,
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
from support import assert_fd_close, fd_derivative


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


def test_mobius_jet_at_pole_raises_division_by_zero():
    with pytest.raises(DivisionByZeroAtPoint):
        jet_mobius(jet_var(-1.0), 2, 1, 1, 1)


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



@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_an_operation_checks_only_the_parts_up_to_its_order(order):
    # a part past the double range fails the node iff its order is at most
    # the operation's; the parts above it are returned as they come, and
    # the parts up to it are the bits of a finite operand's
    one = jet_const(1.0)
    clean = ComplexJet3(1.0 + 0j, 2.0 + 0j, 3.0 + 0j, 4.0 + 0j)
    for part in range(4):
        j = ComplexJet3(*(complex(math.inf, 0.0) if k == part else x for k, x in enumerate(clean)))
        if part <= order:
            with pytest.raises(OverflowAtPoint):
                jet_mul(j, one, order)
        else:
            got = jet_mul(j, one, order)
            assert got[: order + 1] == jet_mul(clean, one)[: order + 1]
            assert not cmath.isfinite(got[part])


def test_one_over_a_tiny_z_is_finite_to_order_2():
    # 1/z at 1e-80: f = 1e80, f' = -1e160 and f'' = 2e240 are finite, and
    # f''' = -6e320 is not
    z, one = jet_var(1e-80), jet_const(1.0)
    with pytest.raises(OverflowAtPoint):
        jet_div(one, z)
    with pytest.raises(OverflowAtPoint):
        jet_pow_int(z, -1)
    for order in (0, 1, 2):
        j = jet_div(one, z, order)
        assert all(map(cmath.isfinite, j[:3])) and not cmath.isfinite(j.d3)
        assert j[:2] == (1e80 + 0j, -1e160 + 0j)
        assert jet_pow_int(z, -1, order)[:3] == j[:3]
