"""The ball rules against mpmath's complex interval arithmetic.

Each rule of :class:`schwarzian_lab.ball.Ball` must give a ball that holds
the exact operation at every member of its operands.  These tests take
balls of nonzero radius, evaluate the exact operation at their centres
and at points on and near their boundaries with mpmath's complex
intervals (``iv``, at 200 bits), and check that each resulting box lies
inside the ball.  They check that the ball is not much wider than iv's
image of the operands' bounding boxes, and that a ball meeting log's
branch cut, or holding 0 under division, has an infinite radius.
"""

import math
import random

import pytest
from mpmath import iv

from schwarzian_lab.ball import UNIT_ROUNDOFF, Ball, literal

PREC = 200


@pytest.fixture(autouse=True)
def _precision():
    old = iv.prec
    iv.prec = PREC
    yield
    iv.prec = old


def _point(w: complex):
    return iv.mpc(iv.mpf(w.real), iv.mpf(w.imag))


def _members(b: Ball) -> list:
    """The centre, four boundary points and four interior points, exactly."""
    m = _point(complex(b.mid))
    r = iv.mpf(b.rad)
    steps = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    steps += [(0.7 * s, 0.7 * t) for s in (1, -1) for t in (1, -1)]
    return [m + iv.mpc(r * s, r * t) for s, t in steps]


def _box(b: Ball):
    """The box around the ball's disk."""
    r = iv.mpf(b.rad)
    return _point(complex(b.mid)) + iv.mpc(iv.mpf([-r.b, r.b]), iv.mpf([-r.b, r.b]))


def _reach2(box, mid: complex):
    """An upper bound of the squared distance from mid to the box's farthest point."""
    m = _point(mid)
    return max(
        ((x - m.real) ** 2 + (y - m.imag) ** 2).b
        for x in (box.real.a, box.real.b)
        for y in (box.imag.a, box.imag.b)
    )


def _inside(box, ball: Ball) -> bool:
    return _reach2(box, complex(ball.mid)) <= iv.mpf(ball.rad) ** 2


def _ball(rng: random.Random, scale: float) -> Ball:
    t = rng.uniform(-math.pi, math.pi)
    mid = rng.uniform(0.5, 2.0) * complex(math.cos(t), math.sin(t))
    return Ball(mid, scale * abs(mid))


OPERATIONS = {
    "add": (lambda a, b: a + b, lambda p, q: p + q),
    "sub": (lambda a, b: a - b, lambda p, q: p - q),
    "mul": (lambda a, b: a * b, lambda p, q: p * q),
    "div": (lambda a, b: a / b, lambda p, q: p / q),
    "number plus ball": (lambda a, b: a.mid + b, lambda p, q: p.mid + q),
    "number times ball": (lambda a, b: a.mid * b, lambda p, q: p.mid * q),
    "number over ball": (lambda a, b: a.mid / b, lambda p, q: p.mid / q),
    "scale": (lambda a, b: 2.5 * b, lambda p, q: iv.mpf(2.5) * q),
    "negation": (lambda a, b: -b, lambda p, q: -q),
    "reciprocal": (lambda a, b: 1.0 / b, lambda p, q: 1 / q),
    "exp": (lambda a, b: b.exp(), lambda p, q: iv.exp(q)),
    "log": (lambda a, b: b.log(), lambda p, q: iv.log(q)),
}


class _Exact:
    # a number operand: the exact value of its double
    def __init__(self, w: complex):
        self.mid = _point(w)


@pytest.mark.parametrize("scale", [1e-3, 1e-8, 1e-14])
@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_ball_holds_the_exact_operation_at_its_members(name, scale):
    op, exact_op = OPERATIONS[name]
    rng = random.Random(f"{name}-{scale}")
    for _ in range(4):
        a, b = _ball(rng, scale), _ball(rng, scale)
        got = op(a, b)
        assert 0.0 < got.rad < math.inf
        for p in _members(a):
            for q in _members(b):
                left = _Exact(complex(a.mid)) if name.startswith("number") else p
                assert _inside(exact_op(left, q), got), name
        # no wider than iv's image of the bounding boxes, up to the box's
        # corners and the midpoint's rounding
        left = _Exact(complex(a.mid)) if name.startswith("number") else _box(a)
        hull = math.sqrt(float(_reach2(exact_op(left, _box(b)), complex(got.mid))))
        assert got.rad <= 2.0 * hull + 16 * UNIT_ROUNDOFF * abs(got.mid), name


def test_a_literal_holds_the_number_written():
    for text in ("0.1", "2.97", "1.7976931348623157", "3"):
        ball = literal(complex(float(text)))
        assert _inside(iv.mpc(iv.mpf(text), 0), ball)


def test_log_radius_is_infinite_where_the_ball_meets_the_cut():
    for ball in (
        Ball(-1.0 + 1e-3j, 2e-3),  # crosses the cut
        Ball(-1.0 + 1e-3j, 1e-3),  # touches it
        Ball(-1.0 + 0j, 0.0),  # a point on it
        Ball(1e-3 + 0j, 2e-3),  # holds 0
    ):
        assert ball.log().rad == math.inf
    assert math.isfinite(Ball(-1.0 + 1e-3j, 0.9e-3).log().rad)
    assert math.isfinite(Ball(1e-3 + 0j, 0.9e-3).log().rad)


def test_division_radius_is_infinite_where_the_divisor_holds_zero():
    holds_zero = Ball(1e-3 + 1e-3j, 2e-3)
    for got in (1.0 / holds_zero, Ball(1.0 + 1j, 1e-9) / holds_zero, (2 + 0j) / holds_zero):
        assert got.rad == math.inf
    assert (1.0 / Ball(1e-3 + 1e-3j, 1e-3)).rad < math.inf


def test_a_radius_that_is_not_a_number_is_infinite():
    # 0 times an infinite radius
    assert (Ball(0j, 0.0) * Ball(1 + 1j, math.inf)).rad == math.inf
