import cmath
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schwarzian_lab import GridSpec, codegen, dsl, marty_scan, probe
from schwarzian_lab.dsl import (
    MAX_DEPTH,
    MAX_EXPONENT,
    Add,
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
    ParseError,
    PowInt,
    Sub,
    Var,
    eval_jet,
    eval_jet_seeded,
    parse,
    pretty_print,
)
from schwarzian_lab.codegen import eval_jet_lanes
from schwarzian_lab.ball import Ball, literal, radius
from schwarzian_lab.record import Record
from schwarzian_lab.jets import (
    ZERO,
    ComplexJet3,
    DivisionByZeroAtPoint,
    JetError,
    OverflowAtPoint,
    jet_add,
    jet_const,
    jet_div,
    jet_exp,
    jet_log,
    jet_mul,
    jet_neg,
    jet_pow_int,
    jet_sub,
    jet_var,
    modulus,
)
from schwarzian_lab.schwarzian import (
    CRITICAL_POINT_FLOOR,
    CriticalPointError,
    _degenerate,
    _mobius_parts,
    _peel,
    schwarzian,
    spherical_derivative,
)
from support import (
    ascend,
    assert_fd_close,
    compose_family,
    fd_derivative,
    plain_eval,
    random_family,
    random_point,
    redo,
    walked,
)

# ---------------------------------------------------------------------------
# parsing: shapes


def test_example_family_shapes():
    assert parse("exp(n*z)").root == Exp(Mul(Param(), Var()))
    assert parse("exp(z/(n*z+1))").root == Exp(
        Div(Var(), Add(Mul(Param(), Var()), ConstNum(complex(1))))
    )
    assert parse("exp(z)-n").root == Sub(Exp(Var()), Param())


def test_precedence_and_associativity():
    assert parse("1+2*z").root == Add(ConstNum(complex(1)), Mul(ConstNum(complex(2)), Var()))
    assert parse("1-2-z").root == Sub(Sub(ConstNum(complex(1)), ConstNum(complex(2))), Var())
    assert parse("6/2/3").root == Div(
        Div(ConstNum(complex(6)), ConstNum(complex(2))), ConstNum(complex(3))
    )
    assert parse("z*n+i").root == Add(Mul(Var(), Param()), ImagUnit())


def test_unary_minus_binds_looser_than_power():
    assert parse("-z^2").root == Neg(PowInt(Var(), 2))
    assert parse("(-z)^2").root == PowInt(Neg(Var()), 2)


def test_power_exponent_forms():
    assert parse("z^-3").root == PowInt(Var(), -3)
    assert parse("z^0").root == PowInt(Var(), 0)
    assert parse("z^12").root == PowInt(Var(), 12)


def test_double_negation_parses():
    assert parse("--z").root == Neg(Neg(Var()))


def test_whitespace_is_insignificant():
    assert parse(" exp( n * z ) ").root == parse("exp(n*z)").root


def test_spans_cover_subexpressions():
    expr = parse("exp(n*z)")
    assert expr.root.span == (0, 8)
    assert expr.root.arg.span == (4, 7)
    grouped = parse("(z+n)*i")
    assert grouped.root.lhs.span == (0, 5)  # parens widen the inner span


# ---------------------------------------------------------------------------
# parsing: errors


def test_incomplete_expression_position():
    with pytest.raises(ParseError) as info:
        parse("z +")
    assert info.value.position == 3
    assert "offset 3" in str(info.value)


def test_power_is_non_associative():
    with pytest.raises(ParseError) as info:
        parse("z^2^3")
    assert info.value.position == 3


def test_power_requires_integer_literal():
    with pytest.raises(ParseError) as info:
        parse("z^2.5")
    assert "integer" in info.value.message
    with pytest.raises(ParseError):
        parse("z^n")


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError) as info:
        parse("w+1")
    assert info.value.position == 0
    assert "unknown identifier" in info.value.message


def test_function_requires_parentheses():
    with pytest.raises(ParseError):
        parse("exp z")


def test_number_with_bad_decimal_part():
    with pytest.raises(ParseError) as info:
        parse("2.^2")
    assert info.value.position == 2


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError) as info:
        parse("z z")
    assert info.value.position == 2


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse("(z+n")
    with pytest.raises(ParseError):
        parse("z+n)")


def test_empty_input_rejected():
    with pytest.raises(ParseError) as info:
        parse("")
    assert info.value.position == 0


def test_error_positions_monotone_under_truncation():
    sources = ["exp(n*z)", "z+(z^2)/n", "log(z+2)*n-i", "1.25*z^-2"]
    for source in sources:
        for cut in range(len(source)):
            try:
                parse(source[:cut])
            except ParseError as exc:
                assert exc.position <= cut + 1


# ---------------------------------------------------------------------------
# pretty printing round trips


def test_pretty_print_known_forms():
    cases = [
        "z+n*i",
        "(z+n)*i",
        "z-(n-i)",
        "-z^2",
        "(-z)^2",
        "exp(n*z)",
        "z^2",
        "1/(n*z+1)",
        "z*n/(z+2)",
    ]
    for source in cases:
        assert pretty_print(parse(source)) == source


def test_pretty_print_keeps_needed_parens_only():
    assert pretty_print(parse("(z+n)+i")) == "z+n+i"
    assert pretty_print(parse("z+(n+i)")) == "z+(n+i)"
    assert pretty_print(parse("(z^2)^3")) == "(z^2)^3"
    assert pretty_print(parse("-(z+n)")) == "-(z+n)"


_def_leaves = st.one_of(
    st.just(Var()),
    st.just(Param()),
    st.just(ImagUnit()),
    st.integers(0, 12).map(lambda k: ConstNum(complex(k))),
    st.floats(0.0, 1e6, allow_nan=False).map(lambda x: ConstNum(complex(x))),
)


def _branches(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Neg, children),
        st.builds(PowInt, children, st.integers(-4, 4)),
        st.builds(Exp, children),
        st.builds(Log, children),
    )


_trees = st.recursive(_def_leaves, _branches, max_leaves=25)


@given(_trees)
def test_pretty_print_round_trip(tree):
    printed = pretty_print(tree)
    assert parse(printed).root == tree


@given(_trees)
def test_parse_is_idempotent_through_printing(tree):
    once = pretty_print(tree)
    assert pretty_print(parse(once)) == once


# ---------------------------------------------------------------------------
# evaluation


def test_eval_square_jet():
    j = eval_jet(parse("z^2"), 17.0, 3.0 + 0j)
    assert (j.v, j.d1, j.d2, j.d3) == (9 + 0j, 6 + 0j, 2 + 0j, 0j)


def test_eval_exponential_pattern():
    j = eval_jet(parse("exp(n*z)"), 2.0, 0j)
    for k, want in enumerate((1.0, 2.0, 4.0, 8.0)):
        assert j[k] == pytest.approx(want)


def test_eval_imaginary_unit():
    j = eval_jet(parse("i*z"), 1.0, 0.5 + 0j)
    assert j.v == 0.5j
    assert j.d1 == 1j


def test_eval_pole_reports_span_and_point():
    with pytest.raises(EvalError) as info:
        eval_jet(parse("exp(z/(n*z+1))"), 1.0, -1.0 + 0j)
    assert info.value.span == (4, 13)
    assert info.value.point == -1.0 + 0j


def test_eval_log_branch_matches_cmath():
    j = eval_jet(parse("log(z)"), 1.0, -2.0 + 0j)
    assert j.v == pytest.approx(cmath.log(-2.0 + 0j))


def test_eval_against_plain_evaluator_and_oracle():
    rng = random.Random(90125)
    checked = 0
    while checked < 25:
        expr = random_family(rng, depth=3)
        n = rng.randint(1, 6)
        z = random_point(rng)
        try:
            j = eval_jet(expr, n, z)
        except EvalError:
            continue
        if max(abs(c) for c in j) > 1e4:
            continue
        direct = plain_eval(expr.root, n, z)
        assert abs(j.v - direct) <= 1e-10 * max(1.0, abs(direct))

        func = lambda w: plain_eval(expr.root, n, w)
        try:
            for k in (1, 2, 3):
                assert_fd_close(j[k], fd_derivative(func, z, k), k, scale=max(1.0, abs(j.v)))
        except ZeroDivisionError:
            continue  # stencil point fell on a pole; draw again
        checked += 1


def test_seeded_evaluation_matches_textual_composition():
    rng = random.Random(5150)
    f = parse("z+(z^2)/n")
    g = parse("exp(z)/(z+3)")
    composed = compose_family(g, f)  # g(f(z))
    for _ in range(20):
        n = rng.randint(1, 8)
        z = random_point(rng)
        jf = eval_jet(f, n, z)
        seeded = eval_jet_seeded(g, n, jf, point=z)
        textual = eval_jet(composed, n, z)
        for a, b in zip(seeded, textual):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_bounded_evaluation_reproduces_plain_evaluation_bit_for_bit():
    rng = random.Random(4242)
    checked = 0
    while checked < 25:
        f = random_family(rng, depth=3)
        g = random_family(rng, depth=3)
        n = rng.randint(1, 6)
        z = random_point(rng)
        try:
            jf = eval_jet(f, n, z)
            composed = eval_jet_seeded(g, n, jf, point=z)
        except EvalError:
            continue
        bf = eval_jet(f, n, Ball(z))
        assert _outcome(bf) == _outcome(jf)
        assert _outcome(eval_jet_seeded(g, n, bf, point=z)) == _outcome(composed)
        assert all(radius(p) >= 0.0 for p in bf)
        checked += 1


def test_bounded_evaluation_raises_the_same_spanned_error():
    with pytest.raises(EvalError) as info:
        eval_jet(parse("z + 1/z"), 1.0, Ball(0j))
    assert info.value.span == (4, 7)


def test_seeded_evaluation_defaults_point_to_seed_value():
    g = parse("1/z")
    with pytest.raises(EvalError) as info:
        eval_jet_seeded(g, 1.0, jet_var(0j))
    assert info.value.point == 0j


@pytest.mark.parametrize("text", ["z", "z+1", "exp(z)"])
@pytest.mark.parametrize("place", [0, 1, 3])
@pytest.mark.parametrize("bad", [complex("nan"), complex(0.0, float("inf"))])
def test_a_seed_with_a_part_that_is_not_finite_is_refused(text, place, bad):
    # no jet holds such a part, so the seed is refused as jet_var refuses
    # its point; a ball part is judged by its midpoint, a huge radius kept
    parts = [0.5 + 0j, 1 + 0j, 0j, 0j]
    parts[place] = bad
    with pytest.raises(ValueError, match="finite"):
        eval_jet_seeded(parse(text), 1.0, tuple(parts))
    with pytest.raises(ValueError, match="finite"):
        eval_jet_seeded(parse(text), 1.0, tuple(map(Ball, parts)))
    wide = (Ball(0.5 + 0j, math.inf), Ball(1 + 0j), Ball(0j), Ball(0j))
    assert complex(eval_jet_seeded(parse(text), 1.0, wide)[0]) == eval_jet(parse(text), 1.0, 0.5)[0]


# ---------------------------------------------------------------------------
# lanes: one tree walk for a batch of evaluations
#
# A batch returns a statistic per group of samples, never jets.  The tests
# read each lane's jet back through _PARTS: one sample per group, and a
# slot per float part of its jet.  A failed lane shows only its flag;
# spans, messages and points come from the walk, tested through eval_jet.


def _parts(j):
    # each part of the jet, its real then its imaginary half, f to f'''
    return tuple(x for c in j for x in (c.real, c.imag))


_PARTS = codegen.Statistic(_parts, start=(-math.inf,) * 8)


def _reference(node, nj, zj, at, leaf=None):
    # one jet at a time, raising the first failure: lhs, then rhs, then op;
    # leaf, if given, turns the jet of i or a literal into its ball jet
    if isinstance(node, Var):
        return zj
    if isinstance(node, Param):
        return nj
    if isinstance(node, (ImagUnit, ConstNum)):
        j = jet_const(1j if isinstance(node, ImagUnit) else node.value)
        return j if leaf is None else leaf(node, j)
    if isinstance(node, Neg):
        return jet_neg(_reference(node.operand, nj, zj, at, leaf))
    if isinstance(node, PowInt):
        args, op = (_reference(node.base, nj, zj, at, leaf), node.exponent), jet_pow_int
    elif isinstance(node, (Exp, Log)):
        args = (_reference(node.arg, nj, zj, at, leaf),)
        op = jet_exp if isinstance(node, Exp) else jet_log
    else:
        args = (_reference(node.lhs, nj, zj, at, leaf), _reference(node.rhs, nj, zj, at, leaf))
        op = {Add: jet_add, Sub: jet_sub, Mul: jet_mul, Div: jet_div}[type(node)]
    try:
        return op(*args)
    except JetError as exc:
        raise EvalError(node.span, str(exc), at) from exc


def _raised(evaluate):
    try:
        return evaluate()
    except EvalError as exc:
        return exc


def _outcome(j):
    """A jet's component bits (signed zeros apart), or an error's fields."""
    if isinstance(j, EvalError):
        return ("error", j.span, j.message, j.point, type(j.__cause__))
    assert type(j) is ComplexJet3
    return ("jet", tuple((c.real.hex(), c.imag.hex()) for c in j))


def _flagged(outcome):
    # a reference outcome as a batch tells it: a jet's bits, or a failure's flag
    if outcome[0] == "error":
        return ("error", "Overflow" if outcome[-1] is OverflowAtPoint else "Pole")
    return outcome


def _lane_outcomes(results):
    # the results of one-sample groups under _PARTS, as _outcome gives
    # them: the jet's bits, or the lane's one flag
    out = []
    for *parts, flags in results:
        if flags:
            (flag,) = flags
            out.append(("error", flag))
        else:
            out.append(("jet", tuple(zip(map(float.hex, parts[::2]), map(float.hex, parts[1::2])))))
    return out


def _lanes(f, n, points):
    # one batch of the points, each its own group, read once
    return _lane_outcomes(eval_jet_lanes(f, n, ([w] for w in points), _PARTS))


def _random_seed(rng):
    # poles of the random families' shifted denominators, exp arguments
    # past the guard, and derivatives large enough to overflow
    scales = [10.0 ** rng.uniform(-1, 200 if rng.random() < 0.2 else 1) for _ in range(3)]
    return ComplexJet3(_random_lane_point(rng), *(random_point(rng, r) for r in scales))


def _random_lane_point(rng):
    # poles of the random families' shifted denominators, exp arguments
    # past the guard, and points large enough to overflow
    roll = rng.random()
    if roll < 0.2:
        return complex(rng.choice((-4, -3, -2, 0)))
    if roll < 0.3:
        return random_point(rng, 10.0 ** rng.uniform(100, 300))
    return random_point(rng, 400.0 if roll < 0.45 else 3.0)


def test_lanes_match_one_lane_calls_and_the_reference_walk():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(150):
        f = parse(pretty_print(random_family(rng, depth=3)))
        n = rng.randint(1, 6)
        points = [_random_lane_point(rng) for _ in range(12)]
        lanes = _lanes(f, n, iter(points))  # any iterable, read once
        assert len(lanes) == len(points)
        nj = jet_const(n)
        for got, w in zip(lanes, points):
            assert got == _flagged(_outcome(_raised(lambda: eval_jet(f, n, w))))
            assert got == _flagged(_outcome(_raised(lambda: _reference(f.root, nj, jet_var(w), w))))
            kinds.add(got[-1] if got[0] == "error" else "jet")
    assert kinds == {"jet", "Overflow", "Pole"}


def test_lhs_overflow_beats_rhs_pole():
    f = parse("exp(z*1000) + 1/(z-z)")
    assert _lanes(f, 1, [1 + 0j, 0.5 + 0j]) == [("error", "Overflow"), ("error", "Pole")]
    over, pole = (_raised(lambda: eval_jet(f, 1, w)) for w in (1 + 0j, 0.5 + 0j))
    assert (over.span, type(over.__cause__), over.point) == ((0, 11), OverflowAtPoint, 1.0)
    assert (pole.span, type(pole.__cause__), pole.point) == ((14, 21), DivisionByZeroAtPoint, 0.5)


@pytest.mark.parametrize("k", [0, -2, 3])
def test_power_of_a_failing_base_still_fails(k):
    f = parse(f"(1/(z-z))^{k}")
    assert _lanes(f, 1, [2 + 0j]) == [("error", "Pole")]
    with pytest.raises(EvalError) as info:
        eval_jet(f, 1, 2.0)
    assert (info.value.span, type(info.value.__cause__)) == ((0, 9), DivisionByZeroAtPoint)
    assert eval_jet(parse("z^0"), 1, 2.0) == jet_const(1.0)


def test_failing_lanes_leave_clean_lanes_unchanged():
    f = parse("exp(n*z)/z + log(z-1)^-2")
    clean = [0.5 + 0.5j, -2.0, 3.0 - 1.0j]
    mixed = [0.0, clean[0], 1.0, 2.0, clean[1], 300.0, clean[2]]
    mixed_out = _lanes(f, 3, [complex(w) for w in mixed])
    clean_out = _lanes(f, 3, [complex(w) for w in clean])
    assert clean_out == [_outcome(eval_jet(f, 3, w)) for w in clean]
    assert [j for w, j in zip(mixed, mixed_out) if w in clean] == clean_out
    failed = [j for w, j in zip(mixed, mixed_out) if w not in clean]
    assert failed == [("error", "Pole")] * 3 + [("error", "Overflow")]


def test_lanes_past_one_block_match_one_lane_calls():
    # a batch of a few thousand lanes, as long bound segments make
    f = parse("1/(z-1) + log(z)*n")
    points = [complex(k % 7 - 3, k % 5 - 2) / 2 for k in range(2051)]
    lanes = _lanes(f, 2, points)
    assert lanes == [_flagged(_outcome(_raised(lambda: eval_jet(f, 2, w)))) for w in points]
    assert sum(j[0] == "error" for j in lanes) > 2


# ---------------------------------------------------------------------------
# the tree walk and the lane function against a recursive reference
#
# The references walk the tree themselves and call one jets operation per
# node; they share no code with dsl's walk or codegen's generator.

def _ball_leaf(node, j):
    # a literal is known to half an ulp; i is exact
    v = literal(j.v) if isinstance(node, ConstNum) else Ball(j.v)
    return ComplexJet3(v, ZERO, ZERO, ZERO)


def _zero_prone_tree(rng, depth):
    # trees rich in the shapes whose derivatives are signed zeros (x - x,
    # 0 * x, negations) and in powers on both sides of the inlined ones
    if depth <= 0 or rng.random() < 0.15:
        return rng.choice((Var(), Var(), Param(), ImagUnit(), ConstNum(0j), ConstNum(2 + 0j)))
    child = depth - 1
    roll = rng.random()
    if roll < 0.15:
        x = _zero_prone_tree(rng, child)
        return Sub(x, x)
    if roll < 0.25:
        return Mul(ConstNum(0j), _zero_prone_tree(rng, child))
    if roll < 0.35:
        return Neg(_zero_prone_tree(rng, child))
    if roll < 0.45:
        k = rng.choice((0, -1, 2, -3, codegen._INLINE_POWER + 1, -codegen._INLINE_POWER - 2))
        return PowInt(_zero_prone_tree(rng, child), k)
    if roll < 0.8:
        op = rng.choice((Add, Sub, Mul, Div))
        return op(_zero_prone_tree(rng, child), _zero_prone_tree(rng, child))
    return rng.choice((Exp, Log))(_zero_prone_tree(rng, child))


_SPECIAL_POINTS = (
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-1.0, -0.0),
    -1 + 0j, -2 + 0j, -3 + 0j, -4 + 0j, 1e-200 + 0j, 1e150 + 1e150j, 700 + 1j,
)
# n = 0 and -0 make the lane function defer every lane; tiny and huge n
# underflow and overflow its loop-invariant products
_SPECIAL_NS = (-0.0, 0.0, -1.5, 1e-170, 1e200, 0.5)


def _draw(rng):
    f = random_family(rng, depth=3) if rng.random() < 0.5 else FamilyExpr(
        _zero_prone_tree(rng, 3)
    )
    f = parse(pretty_print(f))  # real source spans
    n = rng.choice(_SPECIAL_NS) if rng.random() < 0.3 else rng.randint(1, 6)
    points = [
        rng.choice(_SPECIAL_POINTS) if rng.random() < 0.3
        else random_point(rng, rng.choice((1.0, 3.0, 400.0)))
        for _ in range(9)
    ]
    return f, n, points


def test_generated_lane_function_matches_the_reference_bit_for_bit():
    rng = random.Random(61)
    kinds = set()
    signed_zeros = 0
    for _ in range(250):
        f, n, points = _draw(rng)
        nj = jet_const(n)
        want = [_outcome(_raised(lambda: _reference(f.root, nj, jet_var(w), w))) for w in points]
        fn = codegen.family(f, _PARTS)
        # a redone lane takes the flag "redone"
        got = _lane_outcomes(fn(complex(n), [[w] for w in points], lambda w: "redone"))
        for k, w in enumerate(points):
            if want[k][0] == "error":
                # every failing lane is redone by the tree walk
                assert got[k] == ("error", "redone")
            elif got[k] != ("error", "redone"):
                assert got[k] == want[k]
        # the public call, which redoes lanes, gives the reference outcome
        # on every lane, a failure by its flag; the walk that redoes them
        # gives failures with their spans, messages, points and causes
        batch = points * 8
        assert _lanes(f, n, batch) == [_flagged(w) for w in want] * 8
        assert [_outcome(_raised(lambda: eval_jet(f, n, w))) for w in points] == want
        for w in want:
            kinds.add(w[-1] if w[0] == "error" else "jet")
            signed_zeros += w[0] == "jet" and any("-0x0.0p+0" in p for c in w[1] for p in c)
    assert kinds == {"jet", OverflowAtPoint, DivisionByZeroAtPoint}
    assert signed_zeros > 50


# one family per rule of the generator: a literal -1 is not 1, a zero
# only vanishes into +0 while finite, a non-finite value stays visible
# through 1/x, x^0 and a product with zero, n = 0 and -0 defer every lane
_SHARP_FAMILIES = (
    "-1*z", "z*(0-1)", "0*z^8+1", "0*z^8*n", "1/(z^8)", "exp(0-z^8)", "log(z^8)", "(z^8)^0",
    "(1/(z^8))^0+z", "z^8-z^8+1", "(z-z)*n", "-(z-z)*n", "z*i*i", "log(0*z-1)", "log(-z)",
    "n*z", "exp(n*z)", "log(z*0*n-n)", "1/(z*0+n)", "(z^4)^9", "z^-9", "exp(z/(n*z+1))",
    "1/(z*1000000000000000000000)", "exp(z*1000000000000000000000*i)", "(z-n)*(n-z)",
    "(z-1)/(1-z)",
)
_SHARP_POINTS = (
    0.5 - 0.25j, -1 + 0j, complex(-1.0, -0.0), 1e50 + 0j, 1e40 + 1e40j, 1e-310 + 0j, 0j,
    complex(-0.0, -0.0), -3 - 1j, 1e300 + 0j,
)


@pytest.mark.parametrize("text", _SHARP_FAMILIES)
def test_generated_lane_function_on_each_rule(text):
    f = parse(text)
    points = list(_SHARP_POINTS) * 8
    for n in (2, -1, 0.0, -0.0, 1e-170):
        nj = jet_const(n)
        want = [_outcome(_raised(lambda: _reference(f.root, nj, jet_var(w), w))) for w in points]
        assert _lanes(f, n, points) == [_flagged(w) for w in want]


def test_seeded_and_bounded_evaluation_match_the_references_bit_for_bit():
    # non-identity seeds, as in composition, and seeds of balls with radii
    rng = random.Random(62)
    kinds = set()
    for _ in range(150):
        f, n, points = _draw(rng)
        nj = jet_const(n)
        for w in points[:4]:
            seed = _random_seed(rng) if rng.random() < 0.7 else jet_var(w)
            want = _outcome(_raised(lambda: _reference(f.root, nj, seed, w)))
            assert _outcome(_raised(lambda: eval_jet_seeded(f, n, seed, point=w))) == want
            bseed = ComplexJet3(
                Ball(seed.v, rng.choice((0.0, 1e-16)) * abs(seed.v)), seed.d1, Ball(seed.d2, 1e-18),
                seed.d3,
            )
            nb = ComplexJet3(Ball(nj.v), ZERO, ZERO, ZERO)
            ref = _raised(lambda: _reference(f.root, nb, bseed, w, _ball_leaf))
            got = _raised(lambda: eval_jet_seeded(f, n, bseed, point=w))
            if isinstance(ref, EvalError):
                assert _outcome(got) == _outcome(ref)
            else:
                assert _outcome(got) == _outcome(ref) == want
                assert [radius(p).hex() for p in got] == [radius(p).hex() for p in ref]
            kinds.add(want[-1] if want[0] == "error" else "jet")
    assert kinds == {"jet", OverflowAtPoint, DivisionByZeroAtPoint}


# ---------------------------------------------------------------------------
# the scan statistics the lane function returns in place of jets, against
# eval_jet with spherical_derivative, or with S and S' written out from an
# order-4 jet

_STAT_NS = (-0.0, 1, 2.5, 1e200)


def _flag(exc):
    return "Overflow" if isinstance(exc.__cause__, OverflowAtPoint) else "Pole"


def _marty_reference(f, n, points):
    # f# reads f and f' alone, so a sample fails only where a part of
    # order at most 1 leaves the double range
    best, flags = -1.0, set()
    for w in points:
        try:
            x = spherical_derivative(eval_jet(f, n, w, order=1))
        except EvalError as exc:
            flags.add(_flag(exc))
        except OverflowAtPoint:
            flags.add("Overflow")
        else:
            best = x if x > best else best
    return best, flags


def _sd_reference(f, n, points):
    # |S'| / (1 + |S|^2) of each sample by the composition law at the root,
    # split by schwarzian._peel: f's jet of order 1, for the critical test,
    # and g's of order 4, walked after the operands free of z on g's left,
    # and, with q_k = g^(k)/g', S_g = q3 - 1.5 q2^2 and
    # S_g' = q4 - 4 q2 q3 + 3 q2^3, plus S_F's terms: a g'^2 and 2a g' g''
    # for S_F = a, or (c/2) u^2 and c u (v - u^2), with u = g'/g and
    # v = g''/g, for S_F = c / (2 w^2).  Where g is a Moebius map of z
    # (schwarzian._mobius_parts) that is not degenerate at n, by its
    # coefficients from its numerator's and denominator's jets at 0, S_g and
    # S_g' are 0 and g's jet is of order 2.  The largest, its flags, and the
    # sample that gave it
    outer_tree, inner, (a, c), left = _peel(f.root)
    mobius = _mobius_parts(inner)
    if mobius is not None:
        try:
            (b0, a0), (d0, c0) = (eval_jet(FamilyExpr(x), n, 0j, order=1) for x in mobius)
            mobius = not _degenerate(a0, b0, c0, d0)
        except ArithmeticError:
            mobius = False
    best, flags, at = -1.0, set(), None
    for w in points:
        try:
            for x in left:
                eval_jet(FamilyExpr(x), n, w, order=0)
            j = eval_jet(FamilyExpr(inner), n, w, order=2 if mobius else 4)
            d1 = eval_jet_seeded(FamilyExpr(outer_tree), n, j[:2], point=w)[1]
        except EvalError as exc:
            flags.add(_flag(exc))
            continue
        if all(abs(x) <= CRITICAL_POINT_FLOOR for x in (d1.real, d1.imag, abs(d1))):
            flags.add("CriticalPoint")
            continue
        if mobius:
            s = ds = 0.0
        else:
            q2, q3, q4 = j[2] / j[1], j[3] / j[1], j[4] / j[1]
            s = q3 - 1.5 * (q2 * q2)
            ds = q4 - 4.0 * (q2 * q3) + 3.0 * (q2 * q2 * q2)
        if a:
            s = s + a * (j[1] * j[1])
            ds = ds + (2.0 * a) * (j[1] * j[2])
        elif c:
            u, v = j[1] / j[0], j[2] / j[0]
            s = s + (0.5 * c) * (u * u)
            ds = ds + c * (u * (v - u * u))
        try:
            m = abs(s)
            x = abs(ds) / (1.0 + m * m)
        except OverflowError:
            flags.add("Overflow")
        else:
            if not math.isfinite(x):  # an intermediate past the double range
                flags.add("Overflow")
            elif x > best:
                best, at = x, w
    return best, flags, at


def _bits(x):
    # a statistic's float by its bits, an argmax point by its parts' bits
    if type(x) is float:
        return x.hex()
    return (x.real.hex(), x.imag.hex()) if type(x) is complex else x


def _sd_refined(f, n, points):
    # the sd statistic's largest over the samples, refined by the ascent
    # from the sample that gave it, inside the disk of _RADIUS about the
    # first sample, and the flags
    best, flags, at = _sd_reference(f, n, points)
    rise, last = walked(f, n, probe._SD_RISE, probe._SD), walked(f, n, probe._SD)
    return ascend(best, at, points[0] if points else None, _RADIUS, rise, last), flags


# the radius of the disks of the sd statistic's ascent, about each group's
# first sample
_RADIUS = 0.05


def _group_outcomes(f, n, stat, groups):
    # one call of the lane function over groups of samples, the groups read
    # once, and each group too but for a statistic with an ascent, whose
    # groups are lists about their first sample (_RADIUS), with a redo that
    # records the points it is given, one per lane, and walks at the
    # statistic's order, and the public call: each group's outcome, and how
    # many samples were redone.  An ascent's candidates are new points, so
    # the samples among the redone points are told by identity
    samples = {id(w) for g in groups for w in g}
    redone = []

    def recorded(w, walk=redo(f, n, stat)):
        redone.append(w)
        return walk(w)

    fn = codegen.family(f, stat)
    if stat.ascent is None:
        got = fn(complex(n), map(iter, groups), recorded)
        assert eval_jet_lanes(f, n, groups, stat) == got
    else:
        got = fn(complex(n), iter(groups), recorded, redo(f, n, stat.ascent, stat), _RADIUS)
        assert eval_jet_lanes(f, n, groups, stat, _RADIUS) == got
    assert len(got) == len(groups) and all(type(x[-1]) is frozenset for x in got)
    return [tuple(map(_bits, g)) for g in got], sum(id(w) in samples for w in redone)


def _stat_outcomes(f, n, stat, samples):
    # the samples as one group
    (got,), redone = _group_outcomes(f, n, stat, [samples])
    return got, redone


def test_fused_statistics_match_the_reference_bit_for_bit():
    # each draw's samples cut into up to three groups of one call, some
    # possibly empty, each group against the reference on its own samples;
    # one statistic at every n, then the other, so that each draw generates
    # two lane functions
    rng, cuts = random.Random(64), random.Random(164)
    flags, redone, clean, groups_seen = set(), 0, 0, 0
    for _ in range(200):
        f, _, points = _draw(rng)
        a, b = sorted(cuts.choices(range(len(points) + 1), k=2))
        groups = [points[:a], points[a:b], points[b:]]
        for stat, reference in ((probe._MARTY, _marty_reference), (probe._SD, _sd_refined)):
            for n in _STAT_NS:
                want = [reference(f, n, g) for g in groups]
                got, k = _group_outcomes(f, n, stat, groups)
                assert got == [tuple(map(_bits, x)) for x in want]
                flags = flags.union(*(x[1] for x in want))
                redone += k
                clean += len(points) - k
                groups_seen += sum(map(bool, groups))
    assert flags == {"Pole", "Overflow", "CriticalPoint"}
    # n = -0 redoes every sample; the other n take the fast path or fail
    assert redone > 5000 and clean > 5000
    assert groups_seen > 2 * 200 * len(_STAT_NS) * 2


@pytest.mark.parametrize(
    "text,n,redone",
    [
        # n = -0 fails the prelude, so every sample is redone, group by
        # group; at n = 1 the pole at 1 alone takes the handler
        ("1/(z-n)", -0.0, 7),
        ("1/(z-n)", 1, 1),
        # exp(1000), a literal, fails, so every sample is redone; at 0.5
        # the pole, the left operand, comes first
        ("1/(z-0.5)+exp(1000)", 1, 7),
    ],
)
def test_each_group_gets_only_its_own_result(text, n, redone):
    f = parse(text)
    groups = [[0j, 2 + 0j], [0.5 + 0j], [], [1 + 0j, 0.5 + 0j, 0j], [2 + 0j]]
    got, ran = _group_outcomes(f, n, probe._MARTY, groups)
    assert got == [(x.hex(), fl) for x, fl in (_marty_reference(f, n, g) for g in groups)]
    assert ran == redone and len({fl for _, fl in got}) >= 2
    sd, _ = _group_outcomes(f, n, probe._SD, groups)
    assert sd == [tuple(map(_bits, _sd_refined(f, n, g))) for g in groups]


@pytest.mark.parametrize(
    "text,points,want",
    [
        # each case's flags and how many samples its lane function redoes.
        # f'(0) = 0: a critical point at 0; the clean sample at 0.5 is not
        # redone, and is the argmax
        ("z^2+z^3/(z-0.01)", [0j, 0.5 + 0j], ({"CriticalPoint"}, 1)),
        ("z^2+z^3/(z-0.01)", [0.01 + 0j], ({"Pole"}, 1)),
        # both parts of f' = 2z within the floor, its modulus not: the
        # guard redoes the sample, and S is defined
        ("z^2", [complex(0.45e-12, 0.45e-12)], (set(), 1)),
        # S(0) = 1.5e308 (1 + i): |S| overflows
        ("z+(1+i)*" + "25" + "0" * 306 + "*z^3", [0j], ({"Overflow"}, 1)),
        # d3 / d1 overflows to inf where S is finite, so the statistic is
        # nan, which the keep flags with no redo
        ("z+(1+i)*" + "25" + "0" * 306 + "*z^3", [-0.5 + 0j], ({"Overflow"}, 0)),
        # a pole at one sample, and none at the other
        ("1/(z-0.02)", [0.02 + 0j, -0.5 + 0j], ({"Pole"}, 1)),
        # a critical point at 0 and a pole at -0.03, each redone
        ("z^2+z^3/(z+0.03)", [0j, -0.03 + 0j, 0.25 + 0j], ({"CriticalPoint", "Pole"}, 2)),
    ],
)
def test_fused_sd_statistic_on_each_rule(text, points, want):
    f = parse(text)
    for n in (1, -0.0):
        reference = _sd_refined(f, n, points)
        assert reference[1] == want[0]
        got, redone = _stat_outcomes(f, n, probe._SD, points)
        assert got == tuple(map(_bits, reference))
        assert redone == want[1]


def test_a_redone_sample_stops_at_its_first_failed_point(monkeypatch):
    # the sample at the pole of 1/z is redone by one walk, started at its
    # point and at no other; scan-sd's redo walks the peel rule's split,
    # seeding each tree's walk itself
    clean = probe._sd(eval_jet(parse("1/z"), 1, 0.5, order=4))
    started = []
    real = codegen.jet_var
    monkeypatch.setattr(codegen, "jet_var", lambda w, order: started.append(w) or real(w, order))
    got = eval_jet_lanes(parse("1/z"), 1, [[0j, 0.5 + 0j]], probe._SD, _RADIUS)
    assert started == [0j]
    assert got == [_sd_refined(parse("1/z"), 1, [0j, 0.5 + 0j])] and clean <= got[0][0]


def test_the_keep_reports_each_groups_argmax_sample():
    # every lane of exp(1000)*z is redone, so each sample takes its value
    # or flag from redo, here drawn with ties; the ascent starts at the
    # sample of each group's largest, the first of equals, which the rise,
    # failing, leaves the group's best, and a group with no value does not
    # climb
    fn = codegen.family(parse("exp(1000)*z"), probe._SD)
    rng = random.Random(67)
    seen = 0
    for _ in range(100):
        groups = [[complex(k, g) for k in range(rng.randint(0, 6))] for g in range(5)]
        draws = (1.0, 2.0, 2.0, "Pole", math.inf, math.nan)
        values = {w: rng.choice(draws) for g in groups for w in g}
        starts = []
        got = fn(1 + 0j, groups, values.get, lambda w: starts.append(w) or "Pole", _RADIUS)
        want, argmaxes = [], []
        for g in groups:
            best, flags, at = -1.0, set(), None
            for w in g:
                v = values[w]
                if type(v) is str or not math.isfinite(v):
                    flags.add(v if type(v) is str else "Overflow")
                elif v > best:
                    best, at = v, w
            want.append((best, flags))
            argmaxes += [at] if at is not None else []
        assert got == want
        assert [(w.real, w.imag) for w in starts] == [(w.real, w.imag) for w in argmaxes]
        seen += len(argmaxes)
    assert seen > 300


# ---------------------------------------------------------------------------
# the hypotheses floor sweep the lane function folds, against the loop over
# jets it replaced: eval_jet, then modulus of f', f'', f''' and schwarzian


def _floor_reference(f, n, points):
    # min |f'|, M2, M3 and max |S| of one batch, the last three from 0.0
    low, m2, m3, max_s, flags = math.inf, 0.0, 0.0, 0.0, set()
    for w in points:
        try:
            jet = eval_jet(f, n, w)
        except EvalError as exc:
            flags.add(_flag(exc))
            continue
        try:
            mag = modulus(jet.d1)
            d2, d3 = modulus(jet.d2), modulus(jet.d3)
            s = modulus(schwarzian(jet))
        except CriticalPointError:
            s = None
        except OverflowAtPoint:
            flags.add("Overflow")
            continue
        if s is not None and not math.isfinite(s):  # S = nan or inf in some part
            flags.add("Overflow")
            continue
        if mag < low:
            low = mag
        if s is None:
            continue
        m2 = max(m2, d2)
        m3 = max(m3, d3)
        max_s = max(max_s, s)
    return (*(x.hex() for x in (low, m2, m3, max_s)), flags)


def _floor_outcomes(f, n, points):
    # the fold as derivative_floor_check reads it, and how many lanes it redid
    got, redone = _stat_outcomes(f, n, probe._FLOOR, [complex(w) for w in points])
    neg_low, *slots = (float.fromhex(x) for x in got[:-1])
    return ((-neg_low).hex(), *(max(0.0, x).hex() for x in slots), got[-1]), redone


def test_fused_floor_sweep_matches_the_jet_loop_bit_for_bit():
    rng = random.Random(65)
    flags, redone, clean = set(), 0, 0
    for _ in range(150):
        f, _, points = _draw(rng)
        for n in _STAT_NS:
            got, k = _floor_outcomes(f, n, points)
            want = _floor_reference(f, n, points)
            assert got == want
            flags |= want[-1]
            redone += k
            clean += len(points) - k
    assert flags == {"Pole", "Overflow"}
    # n = -0 redoes every lane; the other n take the fast path or fail
    assert redone > 1000 and clean > 1000


@pytest.mark.parametrize(
    "text,points,redone",
    [
        # f'(0) = 0: the critical lane counts toward min |f'| alone, though
        # its |f''| = 2 is the batch's largest
        ("z^2-z^3", [0j, 0.1 + 0j], 1),
        # both parts of f' = 2z within the floor, its modulus not: the guard
        # redoes the lane, and S is defined
        ("z^2", [complex(0.45e-12, 0.45e-12), 0.5 + 0j], 1),
        # |f'| past the double range at 2, |f''| within it; at 1 the parts
        # are finite but add up past it, which the output check allows
        ("(1+i)*4" + "0" * 307 + "*z^2", [1 + 0j, 2 + 0j], 1),
        # |f'''| past it on every lane, a critical one included
        ("z^2+(1+i)*25" + "0" * 306 + "*z^3", [0j, 0.1 + 0j], 2),
        # at 0: |S| past it with finite parts; S = -inf + nan i and
        # S = nan + nan i, which the keep flags "Overflow" with no redo
        ("0.00000000001*z+52" + "0" * 141 + "*(1+0.41421356*i)*z^2", [0j, 0.1 + 0j], 1),
        ("0.00000000001*z+5" + "0" * 143 + "*z^2", [0j, 0.1 + 0j], 0),
        ("0.00000000001*z+5" + "0" * 143 + "*(1+i)*z^2", [0j, 0.1 + 0j], 0),
        # a pole on one lane
        ("1/(z-0.5)", [0j, 0.5 + 0j], 1),
    ],
)
def test_fused_floor_sweep_on_each_rule(text, points, redone):
    f = parse(text)
    got, ran = _floor_outcomes(f, 1, points)
    assert got == _floor_reference(f, 1, points)
    assert ran == redone


# ---------------------------------------------------------------------------
# bound's statistic, max |f'| over a segment, against the loop over jets it
# replaced: eval_jet, then modulus of f', the largest from 0.0


def _bound_reference(f, n, points):
    # |f'| is of order 1, as f# is
    k_est, flags = 0.0, set()
    for w in points:
        try:
            mag = modulus(eval_jet(f, n, w, order=1)[1])
        except EvalError as exc:
            flags.add(_flag(exc))
            continue
        except OverflowAtPoint:
            flags.add("Overflow")
            continue
        if mag > k_est:
            k_est = mag
    return k_est.hex(), flags


def test_bound_statistic_matches_the_jet_loop_bit_for_bit():
    rng = random.Random(66)
    flags, redone, clean = set(), 0, 0
    for _ in range(150):
        f, _, points = _draw(rng)
        for n in _STAT_NS:
            got, k = _stat_outcomes(f, n, probe._BOUND, points)
            want = _bound_reference(f, n, points)
            assert got == want
            flags |= want[1]
            redone += k
            clean += len(points) - k
    assert flags == {"Pole", "Overflow"}
    # n = -0 redoes every lane; the other n take the fast path or fail
    assert redone > 1000 and clean > 1000


@pytest.mark.parametrize(
    "text,points,redone",
    [
        # a pole on one lane
        ("1/(z-0.5)", [0j, 0.5 + 0j, 0.25 + 0j], 1),
        # an evaluation Overflow: exp past its guard at 1
        ("exp(z*1000)", [1 + 0j, 0.0001 + 0j], 1),
        # |f'| past the double range, its parts finite
        ("(1+i)*15" + "0" * 307 + "*z", [1 + 0j, 0j], 2),
        # f' all zero: K stays at its start, 0.0, where -1.0 would be wrong
        ("n+0*z", [0j, 1 + 1j], 0),
        ("z-z", [0j, -1 + 0j], 0),
    ],
)
def test_bound_statistic_on_each_rule(text, points, redone):
    f = parse(text)
    got, ran = _stat_outcomes(f, 1, probe._BOUND, points)
    assert got == _bound_reference(f, 1, points)
    assert ran == redone


# ---------------------------------------------------------------------------
# the order rule: a sample fails only where a part of order at most the
# statistic's leaves the double range; f# and |f'| are of order 1, the
# floor sweep's |f'''| and |S| of order 3


@pytest.mark.parametrize(
    "text,points,n,flags,redone",
    [
        # 1/z at 1e-80: f' = -1e160 is finite, f''' = -6e320 is not, so f#
        # is 1 and |f'| is 1e160, by the fast path
        ("1/z", [1e-80, 2e-80], 1, set(), 0),
        # n = -0 fails the prelude, so the walk redoes the sample, at order 1
        ("1/z+n-n", [1e-80], -0.0, set(), 1),
        # x^0 checks its base's parts up to order 1 alone
        ("(1/z)^0+z", [1e-80], 1, set(), 0),
        # (1/z)^9, a pow_int call, at 1e-28: f''' = -9.9e338, the rest finite
        ("(1/z)^9", [1e-28], 1, set(), 0),
        # f' = 1.8e308 (1 + i) past the range, f finite: the sample is
        # redone, and the walk flags it
        ("(1+i)*9" + "0" * 307 + "*z^2", [1 + 0j, 0.5 + 0j], 1, {"Overflow"}, 1),
    ],
)
def test_an_order_one_statistic_checks_only_f_and_f_prime(text, points, n, flags, redone):
    f = parse(text)
    points = [complex(w) for w in points]
    for stat, reference in ((probe._MARTY, _marty_reference), (probe._BOUND, _bound_reference)):
        assert stat.order == 1
        got, ran = _stat_outcomes(f, n, stat, points)
        want = reference(f, n, points)
        assert got == (float.hex(want[0]) if stat is probe._MARTY else want[0], want[1])
        assert (got[1], ran) == (flags, redone)
    if text == "1/z":
        assert float.fromhex(got[0]) == 1e160
        assert math.isclose(float.fromhex(_stat_outcomes(f, n, probe._MARTY, points)[0][0]), 1.0)
    # the floor sweep reads f''', which leaves the range at 1e-80
    assert _floor_outcomes(parse("1/z"), 1, [1e-80])[0][-1] == {"Overflow"}


def test_finite_parts_that_add_up_past_the_double_range_take_the_fast_path():
    # (1+i)*4e307*z^2 at 1: v = 4e307 (1+i), d1 = 8e307 (1+i) and
    # d2 = 8e307 (1+i), each finite, whose sum is not
    f = parse("(1+i)*4" + "0" * 307 + "*z^2")
    points = [1 + 0j, -1 + 0j, 0.5j]
    redone = []

    def redo(w):
        redone.append(w)
        return "redone"

    got = codegen.family(f, _PARTS)(complex(1), [[w] for w in points], redo)
    assert redone == []
    nj = jet_const(1)
    assert _lane_outcomes(got) == [_outcome(_reference(f.root, nj, jet_var(w), w)) for w in points]
    # where a part is not finite the lane is still redone
    big = parse("(1+i)*9" + "0" * 307 + "*z^2")
    codegen.family(big, _PARTS)(complex(1), [[1 + 0j]], redo)
    assert redone == [1 + 0j]


def test_n_times_z_makes_no_product_with_the_derivatives_of_n():
    # n's d1..d3 are exactly zero and z's d1 is exactly one, so n*z's jet is
    # (n z, n, 0, 0): one product, and n itself as the first derivative
    source, namespace = codegen._lanes_source(parse("n*z").root, _PARTS)
    products = [line.strip() for line in source.splitlines() if " * " in line]
    assert products == ["t0 = N * zv"]
    halves = [line.split(" = ")[1] for line in source.splitlines() if line.endswith(("real", "imag"))]
    assert halves == [f"{x}.{h}" for x in ("t0", "N", "k0", "k0") for h in ("real", "imag")]
    assert namespace["k0"] == 0j
    # exp(n*z) computes n^2 and n^3 once per batch, before the loop
    source, _ = codegen._lanes_source(parse("exp(n*z)").root, _PARTS)
    prelude, loop = source.split("\n    for G in Z:\n", 1)
    assert "= N * N" in prelude and "N * N" not in loop


# the literal paths of the lane function: a literal subtree under each
# node kind; each way a literal fails (an exp past its guard, a division by
# zero, a log of 0, a zero to a negative power, a product past the double
# range); jets whose value part is a known constant while a higher part is
# not, the constant refused or not; and n only under the outer map that
# scan-sd peels off, or only times 0.  A family whose literal fails has
# every lane redone
_LITERAL_FAILURES = (
    "z+exp(1000)", "z+1/(1-1)", "z+log(0)", "z*0^-1", "z*(10^200)^2",
    "exp(1000+0/(4+z))", "log(0+0/(4+z))", "z/(0+0/(4+z))",
)
_LITERAL_FAMILIES = (
    "z+exp(2)", "z-log(2+i)", "z*(3-i)", "z/(2*i)", "z*-2", "z+2/(1+i)", "z+(1+i)^3",
    "z+(1+i)^-2", "z+(1+i)^12", "z+i^0", *_LITERAL_FAILURES,
    "z/(1+0*exp(z))", "log(0/(4+z)+3)", "log((((0/(i+2))/((4+z)+4))+3))",
    "n*exp(z)", "0*n+z",
)
_LITERAL_POINTS = (0.5 - 0.25j, -4 + 0j, -8 + 0j, 0j, -3 - 1j, 1e-310 + 0j, 1e300 + 0j)


def _parts_at(order):
    # _PARTS at another order: each float part of the jet, f to f^(order)
    return codegen.Statistic(_parts, start=(-math.inf,) * (2 * order + 2), order=order)


@pytest.mark.parametrize("order", [1, 3, 4, 5])
@pytest.mark.parametrize("text", _LITERAL_FAMILIES)
def test_the_literal_paths_match_the_walk_bit_for_bit(text, order):
    # the lane function's own values, where it gives one, and the public
    # call's values and flags, against the walk at the statistic's order;
    # a literal that fails redoes every lane, so the walk decides them all
    f, stat = parse(text), _parts_at(order)
    points = list(_LITERAL_POINTS)
    fast = 0
    for n in (2, -1.5, 1e-170):
        want = [_outcome(_raised(lambda: eval_jet(f, n, w, order=order))) for w in points]
        got = _lane_outcomes(codegen.family(f, stat)(complex(n), [[w] for w in points],
                                                     lambda w: "redone"))
        for g, w in zip(got, want):
            assert g == ("error", "redone") or g == w
            fast += g != ("error", "redone")
        assert _lane_outcomes(eval_jet_lanes(f, n, ([w] for w in points), stat)) == [
            _flagged(w) for w in want]
    assert (fast == 0) == (text in _LITERAL_FAILURES)


@pytest.mark.parametrize("text", _LITERAL_FAMILIES)
def test_the_literal_paths_of_the_program_statistics(text):
    # f#, and scan-sd's statistic, whose lane function walks the peel
    # rule's split at the rise's order 5, against their references
    f = parse(text)
    groups = [[0.5 - 0.25j, -4 + 0j], [-3 - 1j, 0j, 1e-310 + 0j]]
    for n in (2, -0.0):
        got, _ = _group_outcomes(f, n, probe._MARTY, groups)
        assert got == [(x.hex(), fl) for x, fl in (_marty_reference(f, n, g) for g in groups)]
        got, _ = _group_outcomes(f, n, probe._SD, groups)
        assert got == [tuple(map(_bits, _sd_refined(f, n, g))) for g in groups]


@pytest.mark.parametrize(
    "text", ["n*exp(z)", "0*n+z", "n", "z+exp(2)", "z", "exp(z/(n*z+1))", "z/(1+0*exp(z))"]
)
def test_the_lane_function_checks_n_exactly_where_the_tree_holds_n(text):
    # n's check, in the prelude, is written where n is a node of the tree,
    # in the peeled outer map or times 0 too, and nowhere else
    check = "if N is None or not N.real:"
    for name in ("_MARTY", "_SD", "_FLOOR", "_BOUND"):
        source, _ = codegen._lanes_source(parse(text).root, getattr(probe, name))
        assert (check in source) == ("n" in text), name


def _depth(line: str) -> int:
    return len(line) - len(line.lstrip())


def _blocks(source: str, head) -> list:
    # each line for which head holds, with the lines indented under it
    lines = source.splitlines()
    out = []
    for k, line in enumerate(lines):
        if head(line.strip()):
            block = [line]
            for below in lines[k + 1:]:
                if _depth(below) <= _depth(line):
                    break
                block.append(below)
            out.append(block)
    return out


# the program's statistics, and _PARTS, which reads the jets
_PROGRAM_STATISTICS = {
    "jets": _PARTS, "marty": probe._MARTY, "sd": probe._SD, "floor": probe._FLOOR,
    "bound": probe._BOUND, "rise": probe._SD_RISE,
}


def _without_ascents(source: str, stat, fast: bool) -> str:
    # the source without the lines of its groups' ascents, after checking
    # them: an ascent per group loop, after the group's lanes, whose
    # evaluations, each in one try where the lanes are, redo a rise by rise
    # and the last round's F by redo, in one handler each; the loop of
    # every lane redone runs them with no try.  Where the lanes have a try,
    # the argmax's kept values go too: the keep's tuple, whose names the
    # ascent's start binds, and the handler's own copy of the keep, which
    # keeps None and goes on to the next lane
    ascents = _blocks(source, lambda x: x == "if at is not None:")
    assert len(ascents) == (0 if stat.ascent is None else 2 if fast else 1)
    for k, block in enumerate(ascents):
        with_try = fast and k == len(ascents) - 1
        handlers = _blocks("\n".join(block), lambda x: x == "except (OverflowError, JetError):")
        assert [b[1].strip().split(" = ")[1] for b in handlers] == (
            ["rise(zv)", "redo(zv)"] if with_try else [])
        text = "\n".join(block)
        assert text.count("rise(zv)") == text.count("redo(zv)") == 1
        assert ("try:" in text) == with_try
        assert "append(" not in text
    lines = source.splitlines()
    for block in ascents:
        k = lines.index(block[0])
        del lines[k : k + len(block)]
    if stat.ascent is not None and fast:
        (k,) = [i for i, x in enumerate(lines) if x.strip() == "kept = None"]
        (j,) = [i for i, x in enumerate(lines) if x.strip().startswith("kept = (")]
        keep = lines[k + 2 : j]  # the keep, without its tuple
        assert lines[k + 1] == _depth(keep[0]) * " " + "    continue"
        assert lines[k - len(keep) : k] == ["    " + x for x in keep]
        names = lines[j].strip()[len("kept = ("):-len(",)")]
        (start,) = [x.strip() for x in "\n".join(ascents[-1]).splitlines() if x.endswith(" = kept")]
        assert start == f"{names}, = kept"
        del lines[j], lines[k - len(keep) : k + 2]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("stat", sorted(_PROGRAM_STATISTICS))
def test_a_lane_is_redone_in_one_handler(stat):
    # a family of n: its checks raise into the lane's one handler, and its
    # prelude's failure redoes every lane in one loop
    # a lane is one sample, its point
    sample = "zv"
    source, _ = codegen._lanes_source(parse("exp(z/(n*z+1))").root, _PROGRAM_STATISTICS[stat])
    source = _without_ascents(source, _PROGRAM_STATISTICS[stat], fast=True)
    checks = _blocks(source, lambda x: x.startswith("if ") and not x.startswith("if type("))
    assert len(checks) >= 4
    for block in checks:
        assert not any("redo(" in line for line in block)
    assert source.count("redo(") == source.count(f"redo({sample})") == 2
    prelude, handler = _blocks(source, lambda x: x == "except (OverflowError, JetError):")
    assert [sum("redo(" in line for line in b) for b in (prelude, handler)] == [1, 1]
    # the lanes loop inside a loop over groups, which resets the group's
    # best and flags before its lanes and appends them after
    (main,) = [b for b in _blocks(source, lambda x: x.startswith("for ")) if _depth(b[0]) == 4]
    assert main[0].strip() == "for G in Z:"
    start = _PROGRAM_STATISTICS[stat].start
    best = ["best", *(f"best{k}" for k in range(1, len(start)))]
    # and, with an ascent, the group's argmax
    argmax = ["        at = None"] if _PROGRAM_STATISTICS[stat].ascent else []
    reset = [f"        {b} = {x!r}" for b, x in zip(best, start)]
    reset += [*argmax, "        flags = noflags"]
    assert main[1 : len(reset) + 1] == reset
    assert f"        for {sample} in G:" in main and main[-1].startswith("        append((best")
    # the fast path and the handler reach one keep, after the handler
    (tried,) = _blocks("\n".join(main), lambda x: x == "try:")
    k = main.index(tried[0])
    rest = main[k + len(tried):]  # the handler, the keep, and a group's append
    assert rest[: len(handler)] == handler
    keep = list(itertools.takewhile(lambda x: _depth(x) >= _depth(handler[0]), rest[len(handler):]))
    assert keep and not any("redo(" in line for line in keep)
    # the prelude's loop is the main loop without each lane's try and except
    redo_all = main[:k] + [x[4:] for x in handler[1:]] + rest[len(handler):]
    assert [x[4:] for x in prelude[1:-1]] == redo_all and prelude[-1].strip() == "Z = ()"
    # where a literal fails, that loop is all the function runs
    source, _ = codegen._lanes_source(parse("z+1/(1-1)").root, _PROGRAM_STATISTICS[stat])
    source = _without_ascents(source, _PROGRAM_STATISTICS[stat], fast=False)
    assert source.count("redo(") == source.count(f"redo({sample})") == 1
    assert "JetError" not in source
    loops = [line.strip() for line in source.splitlines() if line.strip().startswith("for ")]
    assert loops == ["for G in Z:", f"for {sample} in G:"]


@pytest.mark.parametrize("stat", sorted(_PROGRAM_STATISTICS))
def test_program_statistics_survive_a_pickle_round_trip(stat):
    # a pickled statistic is equal, and hashes equal, and the lane-function
    # cache compares it so: an equal statistic takes the kept function
    want = _PROGRAM_STATISTICS[stat]
    got = pickle.loads(pickle.dumps(want))
    assert got == want and hash(got) == hash(want)
    text = "exp(z/(n*z+1))"
    assert codegen.family(parse(text), got) is codegen.family(parse(text), want)


def test_a_family_is_generated_once_per_process(monkeypatch):
    made = []
    real = codegen._lanes_function
    monkeypatch.setattr(
        codegen, "_lanes_function", lambda root, stat: made.append(root) or real(root, stat)
    )
    text = "exp(z/(n*z+17))-n"
    points = [0.25j + k / 100 for k in range(100)]
    first = _lanes(parse(text), 2, points)
    # a fresh parse, and an unpickled copy, reuse the generated function
    for f in (parse(text), pickle.loads(pickle.dumps(parse(text)))):
        assert _lanes(f, 2, points) == first
    assert len(made) == 1
    # the same tree with other spans shares it: a redone lane walks the caller's tree
    spaced = parse("exp(z/(n*z+17)) - n")
    assert spaced == parse(text)
    assert codegen.family(spaced, _PARTS) is codegen.family(parse(text), _PARTS)
    assert len(made) == 1


def _forget(monkeypatch):
    # the lane-function cache emptied for the test, and put back after it
    monkeypatch.setattr(codegen, "_last", (None, None, None, None))


def test_the_lane_function_cache_keeps_the_last_family_and_statistic(monkeypatch):
    # one entry: another statistic, or another tree, takes the entry's place,
    # and a call like the last takes its function; an equal tree takes it
    # by comparison once, and by identity from then on
    made = []
    real = codegen._lanes_function
    monkeypatch.setattr(
        codegen, "_lanes_function", lambda root, stat: made.append(stat) or real(root, stat)
    )
    _forget(monkeypatch)
    f, g = parse("exp(z/(n*z+19))*z"), parse("exp(z/(n*z+19))")
    marty = codegen.family(f, probe._MARTY)
    assert codegen.family(f, probe._MARTY) is marty
    parts = codegen.family(f, _PARTS)
    assert codegen.family(f, _PARTS) is parts and parts is not marty
    again = codegen.family(f, probe._MARTY)
    assert made == [probe._MARTY, _PARTS, probe._MARTY]
    assert codegen.family(g, probe._MARTY) is not again
    assert codegen.family(f, probe._MARTY) is not again
    assert made == [probe._MARTY, _PARTS, probe._MARTY, probe._MARTY, probe._MARTY]
    # the functions served are their statistic's
    points = [0.25j + k / 8 for k in range(9)]
    want = eval_jet_lanes(f, 2, [points], probe._MARTY)
    assert eval_jet_lanes(f, 2, [points], _PARTS) != want
    assert eval_jet_lanes(parse("exp(z/(n*z+19))*z"), 2, [points], probe._MARTY) == want
    assert len(made) == 7
    # a fresh parse compares equal once, then is the entry's tree
    fresh = parse("exp(z/(n*z + 19)) * z")
    kept = codegen.family(fresh, probe._MARTY)

    def refuse(self, other):
        raise AssertionError("the cache compared a tree it holds")

    monkeypatch.setattr(Record, "__eq__", refuse)
    assert codegen.family(fresh, probe._MARTY) is kept
    assert len(made) == 7


def test_one_lane_calls_generate_no_lane_function(monkeypatch):
    monkeypatch.setattr(codegen, "_lanes_function", None)  # would fail if called
    f = parse("log(z*z-n)/(z+n)")
    for k in range(100):
        eval_jet(f, 3, 0.1 + k / 7)


def test_one_lane_evaluations_compile_nothing(monkeypatch):
    compiled = []
    _forget(monkeypatch)
    monkeypatch.setattr(
        codegen, "compile", lambda *a: compiled.append(a) or compile(*a), raising=False
    )
    f = parse("exp(z/(n*z+3))*log(z+2)^2 - i*z")
    jet = eval_jet(f, 2, 0.5j)
    assert eval_jet_seeded(f, 2, jet_var(0.5j)) == jet
    assert _outcome(eval_jet(f, 2, Ball(0.5j))) == _outcome(jet)
    assert compiled == []
    # a batch, even of one lane, compiles the lane function, through that name
    eval_jet_lanes(f, 2, [[0.5j]], _PARTS)
    assert len(compiled) == 1


def test_a_fresh_family_runs_its_lane_function_from_its_first_batch(monkeypatch):
    runs, compiled = [], []
    real = codegen._lanes_function

    def spied(root, stat):
        fn = real(root, stat)
        return lambda N, Z, redo: runs.append(len(Z)) or fn(N, Z, redo)

    _forget(monkeypatch)
    monkeypatch.setattr(codegen, "_lanes_function", spied)
    monkeypatch.setattr(
        codegen, "compile", lambda *a: compiled.append(a) or compile(*a), raising=False
    )
    f = parse("exp(z/(n*z+5))*log(z+2) - i*z")
    groups = [[0.25j + k / 8] for k in range(9)]
    for _ in range(3):
        lanes = _lane_outcomes(eval_jet_lanes(f, 2, groups, _PARTS))
        assert lanes == [_outcome(eval_jet(f, 2, w)) for (w,) in groups]
    assert runs == [9, 9, 9]
    assert len(compiled) == 1


def test_one_lane_calls_never_run_the_lane_function(monkeypatch):
    def refuse(N, Z, redo):
        raise AssertionError("a one-lane call ran the lane function")

    f = parse("exp(z/(n*z+5))*log(z+2) - i*z")
    points = [0.25j + k / 8 for k in range(9)]
    monkeypatch.setattr(codegen, "_last", (f.root, _PARTS, refuse, None))
    with pytest.raises(AssertionError, match="ran the lane function"):
        eval_jet_lanes(f, 2, [[points[0]]], _PARTS)
    rng = random.Random(63)
    nj = jet_const(2)
    for _ in range(8):  # 72 calls of each kind
        for w in points:
            want = _outcome(_reference(f.root, nj, jet_var(w), w))
            assert _outcome(eval_jet(f, 2, w)) == want
            seed = _random_seed(rng)
            want = _outcome(_raised(lambda: _reference(f.root, nj, seed, seed.v)))
            assert _outcome(_raised(lambda: eval_jet_seeded(f, 2, seed))) == want


@pytest.mark.parametrize(
    "n", [10**400, -(10**400), float("inf"), float("nan")], ids=["1e400", "-1e400", "inf", "nan"]
)
def test_n_past_the_double_range_is_a_value_error(n):
    f = parse("n*z")
    for evaluate in (
        lambda: eval_jet(f, n, 0.5),
        lambda: eval_jet_lanes(f, n, [[0.5 + 0j]] * 100, _PARTS),
        lambda: eval_jet(f, n, Ball(0.5)),
    ):
        with pytest.raises(ValueError, match="^jet_const requires a finite value$"):
            evaluate()


# ---------------------------------------------------------------------------
# FamilyExpr behavior


def test_family_equality_ignores_source_and_spans():
    assert parse("exp( n*z )") == parse("exp(n*z)")
    assert parse("z+n") != parse("n+z")


def test_family_pickles_without_compiled_cache():
    # a family pickles as its tree and source alone, and the copy evaluates,
    # by the walk and by the lane function of the tree it copies
    expr = parse("exp(n*z)")
    groups = [[0.5j + k / 8 for k in range(9)]]
    want = eval_jet_lanes(expr, 3.0, groups, probe._MARTY)
    clone = pickle.loads(pickle.dumps(expr))
    assert clone == expr and clone.source == expr.source
    assert type(clone).__slots__ == ("root", "source")
    j = eval_jet(clone, 3.0, 1.0 + 0j)
    assert j.v == pytest.approx(cmath.exp(3.0))
    assert eval_jet_lanes(clone, 3.0, groups, probe._MARTY) == want


def test_source_is_preserved_for_reference():
    expr = parse("exp(n*z)")
    assert expr.source == "exp(n*z)"


# ---------------------------------------------------------------------------
# nodes and families as records

_SPANNED = "( z + n ) * exp( 2 * z ) ^ 3 - -log(i)"
_PLAIN = "(z+n)*exp(2*z)^3--log(i)"


def _nodes(node):
    yield node
    for child in node._key(node):
        if isinstance(child, dsl.Node):
            yield from _nodes(child)


def test_node_equality_hash_and_repr_ignore_the_span():
    a, b = parse(_SPANNED).root, parse(_PLAIN).root
    assert [x.span for x in _nodes(a)] != [x.span for x in _nodes(b)]
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "span" not in repr(a)
    assert Add(Var(span=(0, 1)), ConstNum(2j, span=(2, 3)), span=(0, 3)) == Add(Var(), ConstNum(2j))
    # the other fields are compared, and two node kinds are never equal
    assert Sub(Var(), Param()) != Add(Var(), Param()) and Var() != Param()
    assert Div(Var(), Var()) != Div(Var(), Param()) and Neg(Var()) != Neg(Param())
    for x, y in ((PowInt(Var(), 2), PowInt(Var(), 3)), (ConstNum(1j), ConstNum(2j)),
                 (Neg(Var()), Neg(ConstNum(1j))), (Div(Var(), ConstNum(1j)), Div(ConstNum(1j), Var()))):
        assert x != y and hash(x) != hash(y)


@pytest.mark.parametrize("node", [Var(), ConstNum(1j), Add(Var(), Param()), PowInt(Var(), 2),
                                  Exp(Var()), Neg(Var())], ids=repr)
def test_nodes_are_immutable(node):
    for name in node._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    with pytest.raises(AttributeError):
        node.extra = 1


def test_a_family_is_unhashable_and_keeps_its_tree_and_source():
    f = parse("exp(n*z)")
    with pytest.raises(TypeError):
        hash(f)
    with pytest.raises(TypeError):
        {f}
    for name in ("root", "source"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    assert repr(f) == f"FamilyExpr(root={f.root!r}, source='exp(n*z)')"


def test_a_pickle_round_trip_keeps_every_span():
    f = parse(_SPANNED)
    clone = pickle.loads(pickle.dumps(f))
    assert clone == f and clone.source == f.source and clone is not f
    assert [(type(x), x.span) for x in _nodes(clone.root)] == [
        (type(x), x.span) for x in _nodes(f.root)
    ]


def test_parentheses_widen_the_span_of_the_node_they_hold():
    f = parse("2*((z+1))^2")
    inner = f.root.rhs.base  # the sum, under two pairs of parentheses
    assert (type(inner), inner.span, inner.lhs.span, inner.rhs.span) == (Add, (2, 9), (4, 5), (6, 7))
    assert parse("(z)").root.span == (0, 3) and parse("(exp(z))").root.arg.span == (5, 6)
    with pytest.raises(EvalError) as info:
        eval_jet(parse("z + (1/(z-1))"), 1, 1.0)
    assert info.value.span == (4, 13)


# ---------------------------------------------------------------------------
# input limits


def _calls(depth: int) -> str:
    # log(exp(...)) pairs, an odd level wrapped in one more exp
    inner = "log(exp(" * (depth // 2) + "z" + "))" * (depth // 2)
    return f"exp({inner})" if depth % 2 else inner


_NESTINGS = {
    "parentheses": lambda d: "(" * d + "z" + ")" * d,
    "unary minus": lambda d: "-" * d + "z",
    "calls": _calls,
    "flat sum": lambda d: "+".join(["z"] * (d + 1)),
}


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_at_the_depth_limit_runs_everywhere(shape):
    f = parse(_NESTINGS[shape](MAX_DEPTH))
    jet = eval_jet(f, 1, 0.25)
    assert _outcome(eval_jet(f, 1, Ball(0.25))) == _outcome(jet)
    assert parse(pretty_print(f)) == f
    assert pickle.loads(pickle.dumps(f)) == f


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_lane_function_at_the_depth_limit(shape):
    f = parse(_NESTINGS[shape](MAX_DEPTH))
    assert callable(codegen.family(f, _PARTS))
    assert _lanes(f, 1, [0.25 + 0j] * 64) == [_outcome(eval_jet(f, 1, 0.25))] * 64


def test_pool_workers_take_a_family_at_the_depth_limit():
    f = parse(_NESTINGS["flat sum"](MAX_DEPTH))
    g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 1)
    ns = range(1, 9)
    assert marty_scan(f, g, ns, workers=2) == marty_scan(f, g, ns)


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_past_the_depth_limit_is_a_parse_error(shape):
    with pytest.raises(ParseError) as info:
        parse(_NESTINGS[shape](MAX_DEPTH + 1))
    assert f"than {MAX_DEPTH}" in info.value.message


def test_literal_limit_is_the_double_range():
    assert parse("1" + "0" * 308).root == ConstNum(complex(1e308))
    with pytest.raises(ParseError) as info:
        parse("z+1" + "0" * 309)
    assert info.value.position == 2
    assert parse("0." + "0" * 400 + "1").root == ConstNum(0j)


def test_exponent_limit():
    assert eval_jet(parse(f"z^{MAX_EXPONENT}"), 1, 1.0).d3 == MAX_EXPONENT * 999 * 998
    assert eval_jet(parse(f"z^-{MAX_EXPONENT}"), 1, 1.0).v == 1.0
    for text in (f"z^{MAX_EXPONENT + 1}", f"z^-{MAX_EXPONENT + 1}"):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == 2
    with pytest.raises(ParseError):
        parse("z^" + "7" * 5000)
