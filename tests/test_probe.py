"""Grid scans, growth classification, and the bound and hypothesis checks."""

import collections
import math
import os
import pickle
import random
import statistics
import time
import tracemalloc
import warnings

import pytest

from schwarzian_lab import (
    CriticalPointError,
    EvalError,
    FloorCheckReport,
    GridSpec,
    MartyGridReport,
    OverflowAtPoint,
    PointStats,
    SegmentEvaluationError,
    Verdict,
    check_theorem_hypotheses,
    classify,
    derivative_floor_check,
    eval_jet,
    eval_jet_lanes,
    local_bound_estimate,
    marty_scan,
    parse,
    pretty_print,
    schwarzian,
    sd_bound_from_hypotheses,
    sd_family_scan,
    value_bound_check,
)
import schwarzian_lab
from schwarzian_lab import codegen, probe
from schwarzian_lab.cli import main
from schwarzian_lab.ball import Ball, radius
from schwarzian_lab.probe import (
    DEFAULT_RADIUS,
    DEFAULT_SAMPLES,
    MAX_GRID_POINTS,
    MAX_N_VALUES,
    MAX_SAMPLES,
    MAX_SEGMENT_SAMPLES,
    MAX_WORKERS,
    _neighborhood,
    _seed_offset,
)
from schwarzian_lab.dsl import Add, Div, Exp, Log, Mul, Neg, PowInt, Sub
from schwarzian_lab.schwarzian import _peeled_derivatives
from support import ascend, example2_disk_sup, random_point, random_tree, redo, sd_keep, walked


def verdicts(report, **kw):
    return [v.verdict for v in classify(report, **kw)]


# ---------------------------------------------------------------------------
# grid geometry


def test_grid_requires_increasing_ranges():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 0.0, 1.0, 3, 3)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 2.0, 2.0, 3, 3)


def test_grid_requires_positive_counts_and_radius():
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 0, 3)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3, neighborhood_radius=0.0)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3, neighborhood_samples=0)


@pytest.mark.parametrize(
    "field,value",
    [("re_min", -math.inf), ("re_max", math.inf), ("im_min", -math.inf), ("im_max", math.inf),
     ("neighborhood_radius", math.inf), ("neighborhood_radius", math.nan)],
)
def test_grid_refuses_a_bound_or_radius_that_is_not_finite(field, value):
    # each passes the range and sign checks; it is refused by name, before
    # the overlap warning
    args = dict(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0, nx=3, ny=3)
    args[field] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            GridSpec(**args)


def test_grid_axis_wider_than_the_double_range():
    # re_max - re_min overflows; each coordinate is weighed from the two
    # ends, so none is past the range and both ends are exact
    g = GridSpec(-1.7e308, 1.7e308, 0.0, 1.0, 3, 1)
    assert g.x_coords() == [-1.7e308, 0.0, 1.7e308]
    top = 1.7976931348623157e308
    xs = GridSpec(-top, top, 0.0, 1.0, 7, 1).x_coords()
    assert xs[0] == -top and xs[-1] == top and xs[3] == 0.0
    assert all(map(math.isfinite, xs)) and xs == sorted(xs)
    # where hi - lo is finite, the coordinates keep lo + k * step
    assert GridSpec(-1.0, 2.0, 0.0, 1.0, 4, 1).x_coords() == [-1.0 + k * 1.0 for k in range(4)]


def test_grid_warns_when_radius_spans_cells():
    with pytest.warns(UserWarning):
        GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41, neighborhood_radius=0.5)


def test_an_unpickled_grid_is_neither_checked_nor_warned_about_again():
    # an unpickled grid (a pickled report's, say): its warning was the caller's
    with pytest.warns(UserWarning):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41, neighborhood_radius=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clone = pickle.loads(pickle.dumps(grid))
    assert clone == grid and hash(clone) == hash(grid) and clone is not grid
    assert [getattr(clone, name) for name in grid._fields] == [
        -1.0, 1.0, -1.0, 1.0, 41, 41, 0.5, DEFAULT_SAMPLES
    ]


def test_grids_and_reports_are_immutable_records():
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
    assert GridSpec(re_min=0.0, re_max=1.0, im_min=0.0, im_max=1.0, nx=2, ny=2) == grid
    assert GridSpec(0.0, 1.0, 0.0, 1.0, 2, 3) != grid
    assert repr(grid) == (
        "GridSpec(re_min=0.0, re_max=1.0, im_min=0.0, im_max=1.0, nx=2, ny=2, "
        f"neighborhood_radius={DEFAULT_RADIUS!r}, neighborhood_samples={DEFAULT_SAMPLES!r})"
    )
    report = marty_scan(parse("exp(n*z)"), grid, range(1, 4), workers=1)
    point = report.points[0]
    assert repr(pickle.loads(pickle.dumps(report))) == repr(report)  # a nan slope is != itself
    for record, name in ((grid, "nx"), (report, "points"), (point, "sup_stat")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert point._fields == ("z", "sup_stat", "argmax_n", "growth_slope", "flags")
    assert report._fields == ("grid", "n_values", "seed", "kind", "points")


def test_grid_coordinates_hit_endpoints_exactly():
    g = GridSpec(-1.0, 1.0, -0.3, 0.3, 5, 3)
    xs = g.x_coords()
    assert xs[0] == -1.0 and xs[-1] == 1.0 and len(xs) == 5
    assert g.y_coords() == [-0.3, 0.0, 0.3]


def test_grid_point_is_row_major_x_fastest():
    g = GridSpec(-1.0, 1.0, -0.3, 0.3, 5, 3)
    points = marty_scan(parse("z"), g, (1,)).points
    assert len(points) == 15
    assert points[0].z == complex(-1.0, -0.3)
    assert points[4].z == complex(1.0, -0.3)
    assert points[5].z == complex(-1.0, 0.0)
    assert points[14].z == complex(1.0, 0.3)


def test_grid_single_column():
    g = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)
    assert g.x_coords() == [0.0] and g.y_coords() == [0.0]


def test_neighborhood_contained_and_seeded():
    offset = _seed_offset(0)
    pts = _neighborhood(1 + 1j, 0.05, 9, offset, 17)
    assert pts[0] == 1 + 1j
    assert len(pts) == 9
    for w in pts[1:]:
        assert abs(w - (1 + 1j)) == pytest.approx(0.05, rel=1e-12)
    assert pts == _neighborhood(1 + 1j, 0.05, 9, offset, 17)
    assert pts[1:] != _neighborhood(1 + 1j, 0.05, 9, _seed_offset(1), 17)[1:]


# ---------------------------------------------------------------------------
# marty scans on known families

_POINT_GRID = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)


def test_marty_exp_family_away_from_axis_is_bounded():
    # on Re z = 0.5 the statistic n e^{n Re w} / (1 + e^{2 n Re w}) dies off
    f = parse("exp(n*z)")
    g = GridSpec(0.4, 0.6, -0.1, 0.1, 3, 3)
    rep = marty_scan(f, g, range(1, 17))
    assert all(v is Verdict.BOUNDED_CANDIDATE for v in verdicts(rep))
    assert all(p.growth_slope < 0.0 for p in rep.points)


def test_marty_exp_family_on_axis_diverges():
    # at Re w = 0 the statistic is exactly n/2, so the log-log slope is 1
    f = parse("exp(n*z)")
    rep = marty_scan(f, _POINT_GRID, range(1, 17))
    (p,) = rep.points
    assert p.sup_stat == pytest.approx(8.0, rel=1e-12)
    assert p.argmax_n == 16
    assert p.growth_slope == pytest.approx(1.0, rel=1e-9)
    assert verdicts(rep) == [Verdict.DIVERGENT_CANDIDATE]


def test_marty_shifted_exp_is_bounded_everywhere():
    # e^z - n: the value runs off to infinity while f' stays put, so the
    # statistic decays like 1/n^2
    f = parse("exp(z) - n")
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 2, 2)
    rep = marty_scan(f, g, range(1, 17))
    assert all(v is Verdict.BOUNDED_CANDIDATE for v in verdicts(rep))
    assert all(p.growth_slope < -1.5 for p in rep.points)


def test_marty_report_metadata():
    f = parse("exp(n*z)")
    rep = marty_scan(f, _POINT_GRID, (1, 2, 3), seed=5)
    assert rep.kind == "marty"
    assert rep.n_values == (1, 2, 3)
    assert rep.seed == 5
    assert len(rep.points) == 1


def test_scan_rejects_bad_n_values():
    f = parse("exp(n*z)")
    with pytest.raises(ValueError):
        marty_scan(f, _POINT_GRID, ())
    with pytest.raises(ValueError):
        marty_scan(f, _POINT_GRID, (3, 1))
    with pytest.raises(ValueError):
        marty_scan(f, _POINT_GRID, (2, 2, 3))
    with pytest.raises(ValueError, match="double range"):
        marty_scan(f, _POINT_GRID, (1, 10**400))


# ---------------------------------------------------------------------------
# sd scans


def test_sd_scan_constant_schwarzian_reads_zero():
    # S of e^{nz} is the constant -n^2/2; the stencil sees only roundoff,
    # which the noise floor maps to an exact zero slope
    f = parse("exp(n*z)")
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 3, 3)
    rep = sd_family_scan(f, g, range(1, 9))
    for p in rep.points:
        assert p.sup_stat <= 1e-12
        assert p.growth_slope == 0.0
    assert all(v is Verdict.BOUNDED_CANDIDATE for v in verdicts(rep))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_sd_scan_example2_statistic_at_origin(n):
    # S = -1/(2 (nz+1)^4) gives |S'(0)| = 2n and |S(0)| = 1/2, so the
    # order-4 statistic at the origin is 2n / (1 + 1/4) = 1.6 n; the scan
    # refines that one sample by ascent, never past the disk's sup
    f = parse("exp(z/(n*z+1))")
    assert probe._sd(eval_jet(f, n, 0j, order=4)) == pytest.approx(1.6 * n, rel=1e-12)
    g = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1, neighborhood_samples=1)
    rep = sd_family_scan(f, g, (n,))
    (p,) = rep.points
    assert 1.6 * n <= p.sup_stat <= example2_disk_sup(n, 0j, g.neighborhood_radius) * (1 + 1e-9)
    assert p.argmax_n == n


def test_sd_scan_critical_point_flag():
    # z^2 has S = -3/(2 z^2); the center sample sits on the critical point
    f = parse("z^2")
    rep = sd_family_scan(f, _POINT_GRID, range(1, 9))
    (p,) = rep.points
    assert "CriticalPoint" in p.flags
    # the family ignores n, so the clean samples give a flat slope
    assert p.growth_slope == pytest.approx(0.0, abs=1e-9)


def test_sd_statistic_past_the_double_range_is_an_overflow_flag():
    # at 0, S = d3/d1 = 1.5e308 (1 + i) is finite, but its modulus
    # overflows; the sample is one lane, in a group of its own, and no
    # other sample is its group's argmax
    f = parse("z+(1+i)*25" + "0" * 306 + "*z^3")
    assert eval_jet_lanes(f, 1, [[0j]], probe._SD, 0.05) == [(-1.0, {"Overflow"})]


# ---------------------------------------------------------------------------
# flags and failure handling


def test_pole_flag_with_clean_neighbors():
    # 1/z fails only at the center sample; S of a Moebius map is 0 away
    # from it, and the marty statistic is n-independent
    f = parse("1/z")
    rep = marty_scan(f, _POINT_GRID, range(1, 9))
    (p,) = rep.points
    assert "Pole" in p.flags
    assert p.sup_stat > 0.0
    assert verdicts(rep) == [Verdict.BOUNDED_CANDIDATE]


def test_all_samples_pole_forces_divergent():
    f = parse("1/(z - z)")
    rep = marty_scan(f, _POINT_GRID, range(1, 9))
    (p,) = rep.points
    assert p.flags == frozenset({"Pole"})
    assert p.sup_stat == 0.0
    assert p.argmax_n == -1
    assert p.growth_slope == math.inf
    assert verdicts(rep) == [Verdict.DIVERGENT_CANDIDATE]


def test_all_samples_overflow_is_inconclusive():
    # exp(n exp(z)) near Re z = 7 pushes the outer exponent past the guard
    f = parse("exp(n*exp(z))")
    g = GridSpec(7.0, 8.0, 0.0, 1.0, 1, 1)
    rep = marty_scan(f, g, (1, 2, 3, 4))
    (p,) = rep.points
    assert p.flags == frozenset({"Overflow"})
    assert p.sup_stat == 0.0 and p.argmax_n == -1
    assert math.isnan(p.growth_slope)
    assert verdicts(rep) == [Verdict.INCONCLUSIVE]


# ---------------------------------------------------------------------------
# classification decision table


def _synthetic(slope: float, sup: float = 1.0) -> MartyGridReport:
    p = PointStats(0j, sup, 1, slope, frozenset())
    return MartyGridReport(_POINT_GRID, (1, 2), 0, "marty", (p,))


def test_classify_decision_table():
    assert verdicts(_synthetic(0.6)) == [Verdict.DIVERGENT_CANDIDATE]
    assert verdicts(_synthetic(0.5)) == [Verdict.DIVERGENT_CANDIDATE]
    assert verdicts(_synthetic(0.0, sup=1e6)) == [Verdict.DIVERGENT_CANDIDATE]
    assert verdicts(_synthetic(0.05)) == [Verdict.BOUNDED_CANDIDATE]
    assert verdicts(_synthetic(0.1)) == [Verdict.BOUNDED_CANDIDATE]
    assert verdicts(_synthetic(0.3)) == [Verdict.INCONCLUSIVE]
    assert verdicts(_synthetic(math.inf)) == [Verdict.DIVERGENT_CANDIDATE]
    assert verdicts(_synthetic(math.nan)) == [Verdict.INCONCLUSIVE]
    assert verdicts(_synthetic(math.nan, sup=2e6)) == [Verdict.DIVERGENT_CANDIDATE]


def test_classify_custom_thresholds():
    rep = _synthetic(0.3)
    assert verdicts(rep, slope_threshold=0.25) == [Verdict.DIVERGENT_CANDIDATE]
    assert verdicts(rep, decay_threshold=0.35, slope_threshold=0.5) == [
        Verdict.BOUNDED_CANDIDATE
    ]
    out = classify(rep, cap=0.5)
    assert out[0].verdict is Verdict.DIVERGENT_CANDIDATE
    assert out[0].cap == 0.5


def test_classify_rejects_inverted_thresholds():
    rep = _synthetic(0.0)
    with pytest.raises(ValueError):
        classify(rep, slope_threshold=0.1, decay_threshold=0.5)
    with pytest.raises(ValueError):
        classify(rep, cap=0.0)


# ---------------------------------------------------------------------------
# determinism


def test_scan_is_deterministic_and_worker_independent():
    f = parse("exp(z/(n*z+1))")
    g = GridSpec(-0.4, 0.4, -0.4, 0.4, 3, 3)
    base = marty_scan(f, g, range(1, 9), seed=3)
    assert marty_scan(f, g, range(1, 9), seed=3) == base
    assert marty_scan(f, g, range(1, 9), seed=3, workers=2) == base
    other = marty_scan(f, g, range(1, 9), seed=4)
    assert other != base


def _counted_forks(monkeypatch) -> list:
    # the pids of this process's os.fork calls; a child's own copy of the
    # list is its own
    forks, real = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    # every child of this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_is_no_larger_than_its_chunks(monkeypatch):
    # a 2-point grid makes 2 shares: this process scans one, and forks one
    # child for the other; 8 workers would fork 6 idle processes
    forks = _counted_forks(monkeypatch)
    g = GridSpec(0, 1, 0, 1, 2, 1, 0.05, 1)
    ns = range(1, 9)
    assert marty_scan(parse("z"), g, ns, workers=8) == marty_scan(parse("z"), g, ns)
    assert forks == [os.getpid()]
    _no_child_left()


def test_a_pooled_scan_splits_its_points_evenly_and_generates_before_the_fork(
        monkeypatch, tmp_path):
    # min(workers, points) shares, the k-th every w-th point from k, the
    # first scanned by this process and each other by one forked child,
    # their results back in index order, and the lane function generated
    # once, in this process, before the fork: a child that generated one
    # would fail its share.  Each process writes its share to a file named
    # by its pid
    made = []
    real, real_chunk = codegen._lanes_function, probe._scan_chunk
    parent = os.getpid()

    def generate(root, stat):
        assert os.getpid() == parent, "a forked child generated a lane function"
        made.append(stat)
        return real(root, stat)

    def chunk(payload):
        (tmp_path / str(workers) / str(os.getpid())).write_text(repr(list(payload[-1])))
        return real_chunk(payload)

    monkeypatch.setattr(codegen, "_lanes_function", generate)
    monkeypatch.setattr(probe, "_scan_chunk", chunk)
    forks = _counted_forks(monkeypatch)
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 4, 3)
    ns = range(1, 5)
    got = []
    for workers in (2, 5, 12, 20):
        (tmp_path / str(workers)).mkdir()
        monkeypatch.setattr(codegen, "_last", (None, None, None, None))
        rep = sd_family_scan(parse("exp(z/(n*z+1))"), g, ns, seed=3, workers=workers)
        got.append(list(map(_fields, rep.points)))
        w = min(workers, 12)
        shares = {p.name: eval(p.read_text()) for p in (tmp_path / str(workers)).iterdir()}
        assert shares.pop(str(parent)) == list(range(0, 12, w))  # this process's, the first
        assert sorted(shares.values()) == [list(range(k, 12, w)) for k in range(1, w)]
        assert len(forks) == w - 1
        forks.clear()
        _no_child_left()
    assert made == [probe._SD] * 4
    want = list(map(_fields, sd_family_scan(parse("exp(z/(n*z+1))"), g, ns, seed=3).points))
    assert got == [want] * 4


def test_without_fork_a_pooled_scan_runs_in_this_process(monkeypatch):
    # where os.fork does not exist, the whole grid is one share, the same bits
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 4, 3)
    want = sd_family_scan(parse("exp(z/(n*z+1))"), g, range(1, 5), seed=3)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(probe, "_forked", None)  # calling it would raise TypeError
    assert sd_family_scan(parse("exp(z/(n*z+1))"), g, range(1, 5), seed=3, workers=3) == want


def _failing_in(where: str, real_chunk, exc_of):
    # a _scan_chunk that raises exc_of(its share's first point) in the
    # children (where == "child"), or in this process alone, while the
    # children sleep 20 s, which only a kill ends early
    parent = os.getpid()

    def chunk(payload):
        if (os.getpid() == parent) == (where == "caller"):
            raise exc_of(payload[-1][0])
        if where == "caller":
            time.sleep(20)
        return real_chunk(payload)

    return chunk


def test_a_childs_exception_reaches_the_caller(monkeypatch):
    # each child's share raises; the caller reads the pipes in order, so
    # the first child's ValueError is raised, its type and message kept,
    # and the other child is killed and reaped.  A typed error whose
    # __init__ takes other arguments than its args crosses too, pickled
    g = GridSpec(0, 1, 0, 1, 3, 1, 0.05, 1)
    monkeypatch.setattr(probe, "_scan_chunk", _failing_in(
        "child", probe._scan_chunk, lambda k: ValueError(f"share from point {k} fails")))
    with pytest.raises(ValueError, match=r"^share from point 1 fails$"):
        marty_scan(parse("z"), g, range(1, 4), workers=3)
    _no_child_left()
    monkeypatch.setattr(probe, "_scan_chunk", _failing_in(
        "child", probe._scan_chunk, lambda k: EvalError((k, k + 1), "boom", complex(k))))
    with pytest.raises(EvalError) as info:
        marty_scan(parse("z"), g, range(1, 4), workers=2)
    assert (str(info.value), info.value.span, info.value.point) == (
        "evaluation error at source span 1..2: boom", (1, 2), 1 + 0j)
    _no_child_left()


# one of each exception the package exports, with the arguments it is raised with
_EXPORTED_ERRORS = {
    "JetError": lambda: schwarzian_lab.JetError("a jet failed", 0.5j),
    "DivisionByZeroAtPoint": lambda: schwarzian_lab.DivisionByZeroAtPoint("divisor 0", 0j),
    "OverflowAtPoint": lambda: schwarzian_lab.OverflowAtPoint("past the range", 1 + 2j),
    "ParseError": lambda: schwarzian_lab.ParseError(4, "unexpected end of input", "an operand"),
    "EvalError": lambda: EvalError((2, 5), "division by zero", 0.25 - 1j),
    "CriticalPointError": lambda: CriticalPointError("f' vanishes", 0j, "f"),
    "PoleOfMobius": lambda: schwarzian_lab.PoleOfMobius(-0.5 + 0j),
    "GuardViolation": lambda: schwarzian_lab.GuardViolation("too near the pole"),
    "ConjugacyViolated": lambda: schwarzian_lab.ConjugacyViolated(3.25e-4, 1e-9),
    "DegenerateMobiusError": lambda: schwarzian_lab.DegenerateMobiusError("ad - bc is 0"),
    "SegmentEvaluationError": lambda: SegmentEvaluationError([12, 3, 7]),
}


def test_every_exported_exception_survives_a_pickle_round_trip():
    # its type, message, args and attributes come back, so a child's error
    # reaches the caller as raised, and so does any other pickler's
    exported = {
        name for name in schwarzian_lab.__all__
        if isinstance(getattr(schwarzian_lab, name), type)
        and issubclass(getattr(schwarzian_lab, name), BaseException)
    }
    assert exported == set(_EXPORTED_ERRORS)
    for name, make in _EXPORTED_ERRORS.items():
        want = make()
        got = pickle.loads(pickle.dumps(want))
        assert type(got) is type(want) is getattr(schwarzian_lab, name)
        assert (str(got), got.args, vars(got)) == (str(want), want.args, vars(want))


def test_the_callers_failure_kills_and_reaps_its_children(monkeypatch):
    # this process's own share raises while its children sleep: they are
    # killed, not waited for, and reaped before the error leaves the scan
    g = GridSpec(0, 1, 0, 1, 3, 1, 0.05, 1)
    monkeypatch.setattr(probe, "_scan_chunk", _failing_in(
        "caller", probe._scan_chunk, lambda k: ValueError(f"the caller's share from point {k} fails")))
    start = time.monotonic()
    with pytest.raises(ValueError, match=r"^the caller's share from point 0 fails$"):
        marty_scan(parse("z"), g, range(1, 4), workers=3)
    assert time.monotonic() - start < 5.0
    _no_child_left()


# ---------------------------------------------------------------------------
# blocks of grid points: one lane-function call per (n, block), each point
# one group of its samples

# a critical point at the centre of -0.5, a pole at that of 0.5, and
# exp(n z) past its guard for n = 1400 where Re z > 0.5
_BLOCK_FAMILY = "(z+0.5)^2*exp(n*z)/(z-0.5)"
_BLOCK_NS = (1, 2, 3, 5, 1400)
_GRID_STATISTICS = {"marty": probe._MARTY, "sd": probe._SD, "floor": probe._FLOOR}


def _one_call_per_point(stat, f, grid, ns, offset):
    # the loop the blocks replaced: one lane-function call per (point, n),
    # the point's samples its one group, with the ascent of that group alone
    out = []
    radius = grid.neighborhood_radius
    for index in range(grid.nx * grid.ny):
        z = complex(grid.x_coords()[index % grid.nx], grid.y_coords()[index // grid.nx])
        points = _neighborhood(z, radius, grid.neighborhood_samples, offset, index)
        rows = [eval_jet_lanes(f, n, [points], stat, radius) for n in ns]
        out.append((z, [r[0] for r in rows]))
    return out


def _fields(p):
    # a point's digest, its slope by repr, which holds for nan too
    return p.z, p.sup_stat, p.argmax_n, repr(p.growth_slope), p.flags


@pytest.mark.parametrize("shape", [(1, 1), (probe._BLOCK - 1, 1), (11, 3)])
def test_blocks_of_grid_points_match_one_call_per_point(shape):
    # 1, one short of a block, and one past it (11 x 3 = 33)
    assert probe._BLOCK == 32
    f = parse(_BLOCK_FAMILY)
    g = GridSpec(-0.5, 0.5, 0.0, 1.0, *shape)
    offset = _seed_offset(5)
    flags = set()
    for name, stat in _GRID_STATISTICS.items():
        want = _one_call_per_point(stat, f, g, _BLOCK_NS, offset)
        got = probe._sweep(stat, f, g, _BLOCK_NS, offset, range(g.nx * g.ny))
        assert [(z, list(rows)) for z, rows in got] == want
        flags.update(*(row[-1] for _, rows in want for row in rows))
        scan = {"marty": marty_scan, "sd": sd_family_scan}.get(name)
        for workers in (1, 2, 3) if scan else ():
            rep = scan(f, g, _BLOCK_NS, seed=5, workers=workers)
            points = [probe._point_stats(z, rows, _BLOCK_NS) for z, rows in want]
            assert list(map(_fields, rep.points)) == list(map(_fields, points))
    if shape != (1, 1):
        assert flags == {"Pole", "Overflow", "CriticalPoint"}


def test_no_statistic_or_flag_leaks_between_the_groups_of_a_call():
    # the middle point's samples, within 1e-40 of 0, are all poles of 1/z^8;
    # its neighbours in the same block are clean
    f = parse("1/z^8")
    g = GridSpec(-1.0, 1.0, 0.0, 1.0, 3, 1, neighborhood_radius=1e-40)
    ns = range(1, 5)
    for scan in (marty_scan, sd_family_scan):
        left, mid, right = scan(f, g, ns).points
        assert (mid.flags, mid.sup_stat, mid.argmax_n) == ({"Pole"}, 0.0, -1)
        assert left.flags == right.flags == frozenset()
        assert left.sup_stat > 0.0 and right.sup_stat > 0.0
    rep = derivative_floor_check(f, ns, g, 1.0)
    assert rep.flags == (frozenset(), frozenset({"Pole"}), frozenset())
    assert rep.passes == ((True,) * 4, (False,) * 4, (True,) * 4)


def test_a_call_covers_at_most_a_block_of_points(monkeypatch):
    # per n, one call per block: two blocks of 32 and 1 points, whose lanes
    # add up to one per (point, n, sample); scan-sd's ascent runs inside
    # its call, so it makes no call of its own, and its family compiles one
    # lane function
    sizes = []
    stats = set()
    real_lanes = probe.eval_jet_lanes

    def counted_lanes(expr, n, groups, stat, *radius):
        groups = [list(points) for points in groups]
        sizes.append(list(map(len, groups)))
        stats.add(stat)
        return real_lanes(expr, n, groups, stat, *radius)

    monkeypatch.setattr(probe, "eval_jet_lanes", counted_lanes)
    made = []
    real = codegen._lanes_function
    monkeypatch.setattr(codegen, "_last", (None, None, None, None))
    monkeypatch.setattr(codegen, "_lanes_function",
                        lambda root, st: made.append(st) or real(root, st))
    g = GridSpec(-0.5, 0.5, 0.0, 1.0, 11, 3)
    ns = range(1, 5)
    for scan, stat in ((marty_scan, probe._MARTY), (sd_family_scan, probe._SD)):
        sizes.clear()
        stats.clear()
        f = parse("exp(z/(n*z+1))")
        scan(f, g, ns)
        assert sizes == [[9] * probe._BLOCK] * len(ns) + [[9]] * len(ns)
        assert stats == {stat} and codegen._last[0] is f.root and codegen._last[1] is stat
    assert made == [probe._MARTY, probe._SD]
    sizes.clear()
    derivative_floor_check(parse("exp(n*z)"), ns, g, 0.5)
    assert max(map(sum, sizes)) <= probe._BLOCK * 9
    assert sum(map(sum, sizes)) == 33 * 9 * len(ns)


def test_a_scan_refuses_a_fit_window_with_n_at_or_below_0_before_any_lane(monkeypatch):
    # the log-log fit takes log n over the upper half of n_values; an n at
    # or below 0 there is refused before a lane function is made or run,
    # and an n below the window is taken
    calls = []
    monkeypatch.setattr(codegen, "_last", (None, None, None, None))
    monkeypatch.setattr(probe, "eval_jet_lanes", lambda *args: calls.append(args))
    monkeypatch.setattr(codegen, "_lanes_function", lambda *args: calls.append(args))
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 2, 2)
    for scan in (marty_scan, sd_family_scan):
        for ns in (range(-5, 6), range(-10, 1), (-3.0, -2.0, 0.0)):
            with pytest.raises(ValueError, match="log-log fit"):
                scan(parse("exp(n*z)"), g, ns)
    assert calls == []
    monkeypatch.undo()
    rep = marty_scan(parse("exp(n*z)"), g, range(-1, 6))
    assert len(rep.points) == 4 and all(math.isfinite(p.growth_slope) for p in rep.points)


def test_a_scan_peels_its_tree_once_for_its_redo_walks(monkeypatch):
    # scan-sd splits its root by the peel rule once for the generated lines
    # and once for the redo walks of every call, a split held with the lane
    # function; another tree takes a split of its own, so the second
    # family's pole at 1 is flagged by its own walk
    peels = []
    real = codegen._peel
    monkeypatch.setattr(codegen, "_peel", lambda root: peels.append(root) or real(root))
    monkeypatch.setattr(codegen, "_last", (None, None, None, None))
    g = GridSpec(0.0, 2.0, 0.0, 1.0, 3, 1, neighborhood_radius=1e-40)
    ns = range(1, 5)
    f, h = parse("exp(z/(n*z+1))"), parse("exp(1/(z-1))")
    sd_family_scan(f, g, ns)
    sd_family_scan(f, g, ns)
    assert peels == [f.root, f.root]
    got = list(map(_fields, sd_family_scan(h, g, ns).points))
    assert peels[2:] == [h.root, h.root]
    assert "Pole" in got[1][-1]
    monkeypatch.setattr(codegen, "_last", (None, None, None, None))
    assert list(map(_fields, sd_family_scan(h, g, ns).points)) == got


# ---------------------------------------------------------------------------
# segment bound check


def test_local_bound_quadratic_family():
    f = parse("(z^2)/n")
    reports = local_bound_estimate(f, (1, 2), 0.0, 1 + 1j)
    assert [r.n for r in reports] == [1, 2]
    first = reports[0]
    assert first.K_estimate == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert first.bound_rhs == pytest.approx(4.0, rel=1e-12)
    assert first.observed == pytest.approx(2.0, rel=1e-12)
    assert first.passed
    assert first.value_at_z0 == 0.0
    assert reports[1].observed == pytest.approx(1.0, rel=1e-12)


def test_local_bound_linear_family_meets_bound_exactly():
    # |2z - 2z0| equals K |z - z0| with no slack to spare
    f = parse("2*z")
    (rep,) = local_bound_estimate(f, (1,), 0.25, -0.75 + 0.5j)
    assert rep.K_estimate == 2.0
    assert rep.passed


def test_local_bound_degenerate_segment():
    f = parse("exp(n*z)")
    (rep,) = local_bound_estimate(f, (1,), 0.3, 0.3)
    assert rep.observed == 0.0 and rep.bound_rhs == 0.0
    assert rep.passed
    assert rep.value_at_z0 == pytest.approx(math.exp(0.3), rel=1e-12)


def test_local_bound_flags_overflowing_members():
    # n Re z crosses the exp guard at n = 24 for the far endpoint 30
    f = parse("exp(n*z)")
    with pytest.raises(SegmentEvaluationError) as info:
        local_bound_estimate(f, range(1, 33), 0.0, 30.0)
    assert info.value.flagged == tuple(range(24, 33))


def test_local_bound_streams_its_segment_into_one_batch(monkeypatch):
    # one lane-function call per n, handed an iterator as its one group,
    # equals evaluating one point at a time
    batches = []
    real_lanes = probe.eval_jet_lanes

    def counted_lanes(expr, n, points, stat):
        batches.append(points)
        return real_lanes(expr, n, points, stat)

    monkeypatch.setattr(probe, "eval_jet_lanes", counted_lanes)
    samples = 2053
    f = parse("1/(z-n) + exp(z)*z^3")
    z0, z = -0.5 + 0.25j, 2.0 - 0.75j
    (rep,) = local_bound_estimate(f, (3,), z0, z, segment_samples=samples)
    ((points,),) = batches
    assert iter(points) is points and not isinstance(points, (list, tuple))
    k_est = max(
        abs(eval_jet(f, 3, z0 + k / (samples - 1) * (z - z0)).d1) for k in range(samples)
    )
    assert rep.K_estimate == k_est
    assert rep.observed == abs(eval_jet(f, 3, z).v - eval_jet(f, 3, z0).v)
    # on 0..2 the pole z = 1 of n = 1 is sample 1025 of 2051
    with pytest.raises(SegmentEvaluationError) as info:
        local_bound_estimate(f, (1, 3), 0.0, 2.0, segment_samples=samples - 2)
    assert info.value.flagged == (1,)


def _bound_peak(samples):
    # z*z: a few allocations per lane, so that tracing them stays quick
    f = parse("z*z")
    tracemalloc.start()
    try:
        local_bound_estimate(f, (1,), 0j, 2 + 1j, segment_samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_local_bound_memory_does_not_grow_with_the_segment():
    _bound_peak(2)  # generates and compiles the lane function
    small = _bound_peak(1000)
    big = _bound_peak(MAX_SEGMENT_SAMPLES)
    # a list of the segment's points alone would take about 4 MB
    assert big < small + 10_000


def test_local_bound_segment_past_the_double_range():
    # z - z0 overflows, so the segment's sample points are not finite: a
    # member that fails at an endpoint is flagged, as evaluating one point
    # at a time finds first; otherwise the first such point is refused
    big = "1" + "0" * 308
    with pytest.raises(SegmentEvaluationError) as info:
        local_bound_estimate(parse(f"1/(z+{big})"), (1, 2), -1e308, 1e308)
    assert info.value.flagged == (1, 2)
    with pytest.raises(ValueError, match="finite point"):
        local_bound_estimate(parse("z"), (1, 2), -1e308, 1e308)


def test_a_grid_point_with_a_sample_past_the_double_range_runs_no_batch(monkeypatch):
    # the first grid point's samples are finite; some of the second's, on
    # the circle 1e307 about 1.79e308, are not, so its block, which holds
    # both, is refused before any of its batches
    calls = []
    real_lanes = probe.eval_jet_lanes

    def counted_lanes(expr, n, points, stat, radius):
        points = list(points)
        calls.append((stat, points))
        return real_lanes(expr, n, points, stat, radius)

    monkeypatch.setattr(probe, "eval_jet_lanes", counted_lanes)
    g = GridSpec(-1.0, 1.79e308, 0.0, 1e308, 2, 1, neighborhood_radius=1e307)
    with pytest.raises(ValueError, match="^jet_var requires a finite point$"):
        sd_family_scan(parse("z"), g, range(1, 4))
    assert calls == []
    # past a block's end the refusal comes after the blocks before it: the
    # first block's 3 batches, one per n, of the block's clean samples,
    # each running its ascent inside it
    nx = probe._BLOCK + 1
    g = GridSpec(-1.0, 1.79e308, 0.0, 1e308, nx, 1, neighborhood_radius=1e306)
    with pytest.raises(ValueError, match="^jet_var requires a finite point$"):
        sd_family_scan(parse("z"), g, range(1, 4))
    assert {stat for stat, _ in calls} == {probe._SD}
    batches = [groups for _, groups in calls]
    assert len(batches) == 3 and all(len(groups) == probe._BLOCK for groups in batches)
    assert all(groups[0][0] == -1.0 for groups in batches)


def test_local_bound_rejects_short_sampling():
    f = parse("z")
    with pytest.raises(ValueError):
        local_bound_estimate(f, (1,), 0.0, 1.0, segment_samples=1)


# ---------------------------------------------------------------------------
# hypothesis checks


def test_derivative_floor_plain_exp():
    # |exp'| = e^{Re w} >= e^{-0.3} over the grid plus its neighborhoods
    f = parse("exp(z)")
    g = GridSpec(-0.25, 0.25, -0.25, 0.25, 3, 3)
    rep = derivative_floor_check(f, (1, 2), g, 0.5)
    assert isinstance(rep, FloorCheckReport)
    assert rep.all_pass
    assert rep.min_abs_derivative >= math.exp(-0.3) - 1e-12
    assert rep.min_abs_derivative < 1.0
    tight = derivative_floor_check(f, (1, 2), g, 0.75)
    assert not tight.all_pass


def test_derivative_floor_marks_failures_per_n():
    f = parse("exp(n*z)")
    g = GridSpec(20.0, 21.0, 0.0, 1.0, 1, 1)
    rep = derivative_floor_check(f, (1, 40), g, 1.0)
    assert rep.passes[0] == (True, False)
    assert rep.flags[0] == frozenset({"Overflow"})
    assert not rep.all_pass


def test_derivative_floor_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        derivative_floor_check(parse("z"), (1,), _POINT_GRID, 0.0)


def test_value_bound_at_common_fixed_point():
    f = parse("exp(n*z)")
    assert value_bound_check(f, range(1, 33), 0.0, 1.0)
    assert not value_bound_check(f, range(1, 33), 0.0, 0.5)


def test_sd_bound_formula():
    assert sd_bound_from_hypotheses(2.0, 6.0, 0.5) == 36.0
    assert sd_bound_from_hypotheses(0.0, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        sd_bound_from_hypotheses(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sd_bound_from_hypotheses(-1.0, 1.0, 1.0)


def test_sd_bound_past_the_double_range_refuses():
    # (M2/eps)^2 overflows: float ** raises OverflowError, + gives inf
    with pytest.raises(OverflowAtPoint):
        sd_bound_from_hypotheses(1e160, 0.0, 0.1)
    with pytest.raises(OverflowAtPoint):
        sd_bound_from_hypotheses(0.0, 1e308, 1e-3)
    assert sd_bound_from_hypotheses(2.0**500, 0.0, 1.0) == 1.5 * 2.0**1000


def test_theorem_hypotheses_pass_case():
    # z + z^2/n on a small disk around 0: f' = 1 + 2z/n stays above 1/2,
    # f(0) = 0 for every n, M2 = 2/n peaks at 2 and M3 vanishes, so the
    # bound is 0/eps + 1.5 (2/0.5)^2 = 24
    f = parse("z + (z^2)/n")
    g = GridSpec(-0.17, 0.17, -0.17, 0.17, 5, 5, neighborhood_radius=0.001)
    rep = check_theorem_hypotheses(f, range(1, 9), g, 0.5, 0.0, 0.1)
    assert rep.floor_ok and rep.value_ok
    assert rep.M2 == pytest.approx(2.0, rel=1e-6)
    assert rep.M3 == pytest.approx(0.0, abs=1e-12)
    assert rep.sd_bound == pytest.approx(24.0, rel=1e-6)
    assert rep.max_abs_schwarzian < rep.sd_bound
    assert rep.sound
    assert rep.passed


def test_theorem_hypotheses_floor_failure():
    f = parse("z + (z^2)/n")
    g = GridSpec(-0.17, 0.17, -0.17, 0.17, 5, 5, neighborhood_radius=0.001)
    rep = check_theorem_hypotheses(f, range(1, 9), g, 0.8, 0.0, 0.1)
    assert not rep.floor_ok
    assert not rep.passed
    assert rep.value_ok


def test_theorem_hypotheses_are_not_sound_on_dropped_samples():
    # |S| at the origin is about 1.5e310: that sample is flagged "Overflow"
    # and counts for nothing, so the largest |S| left, 150, is within the
    # bound, but sound is false
    f = parse("0.00000000001*z+5" + "0" * 143 + "*z^2")
    g = GridSpec(-0.5, 0.5, 0, 1, 3, 1, neighborhood_radius=0.1, neighborhood_samples=3)
    rep = check_theorem_hypotheses(f, range(1, 9), g, 0.5, 0.3 + 0.2j, 10)
    assert derivative_floor_check(f, range(1, 9), g, 0.5).flags[1] == {"Overflow"}
    assert rep.max_abs_schwarzian == 150.0 < rep.sd_bound
    assert not rep.sound and not rep.passed


_HYP_GRID = GridSpec(-0.17, 0.17, -0.17, 0.17, 3, 2, neighborhood_radius=0.001)


def test_theorem_hypotheses_evaluates_each_sample_once(monkeypatch):
    # one evaluated lane per (point, n, sample) for the floor, M2, M3 and
    # max |S| together, plus one per n for the value bound at zeta
    lanes = []
    real_lanes, real_jet = probe.eval_jet_lanes, probe.eval_jet

    def counted_lanes(expr, n, groups, *args):
        lanes.append(sum(map(len, groups)))
        return real_lanes(expr, n, groups, *args)

    def counted_jet(*args, **kwargs):
        lanes.append(1)
        return real_jet(*args, **kwargs)

    monkeypatch.setattr(probe, "eval_jet_lanes", counted_lanes)
    monkeypatch.setattr(probe, "eval_jet", counted_jet)
    ns = range(1, 6)
    rep = check_theorem_hypotheses(parse("z + (z^2)/n"), ns, _HYP_GRID, 0.5, 0.0, 0.1)
    samples = _HYP_GRID.nx * _HYP_GRID.ny * _HYP_GRID.neighborhood_samples
    assert sum(lanes) == samples * len(ns) + len(ns)
    assert rep.passed


def test_theorem_hypotheses_identical_across_reruns():
    f = parse("exp(z/(n*z+1)) + 1/z")
    args = (range(1, 9), _HYP_GRID, 0.5, 1.0, 2.0)
    first = check_theorem_hypotheses(f, *args, seed=3)
    assert check_theorem_hypotheses(f, *args, seed=3) == first
    assert check_theorem_hypotheses(parse(f.source), *args, seed=3) == first


def test_floor_sweep_matches_per_sample_evaluation():
    # the loops the sampling kernel replaced, evaluating every sample
    # anew: the floor, M2, M3 and max |S| must agree bit for bit
    f = parse("exp(n*z) + 1/z")
    g = GridSpec(-0.1, 0.1, -0.1, 0.1, 3, 3)
    ns = (1, 2, 8000)
    offset = _seed_offset(7)
    passes, flags = [], []
    low_all, m2, m3, max_s = math.inf, 0.0, 0.0, 0.0
    for index in range(9):
        z = complex(g.x_coords()[index % 3], g.y_coords()[index // 3])
        point_flags = set()
        row = []
        for n in ns:
            low, clean = math.inf, True
            for w in _neighborhood(z, g.neighborhood_radius, 9, offset, index):
                try:
                    jet = eval_jet(f, n, w)
                except EvalError as exc:
                    point_flags.add(
                        "Overflow" if isinstance(exc.__cause__, OverflowAtPoint) else "Pole"
                    )
                    clean = False
                    continue
                low = min(low, abs(jet.d1))
                try:
                    s = abs(schwarzian(jet))
                except CriticalPointError:
                    continue
                m2, m3, max_s = max(m2, abs(jet.d2)), max(m3, abs(jet.d3)), max(max_s, s)
            low_all = min(low_all, low)
            row.append(clean and low >= 0.5)
        passes.append(tuple(row))
        flags.append(frozenset(point_flags))
    rep = derivative_floor_check(f, ns, g, 0.5, seed=7)
    assert rep.passes == tuple(passes) and rep.flags == tuple(flags)
    assert {"Pole", "Overflow"} <= set().union(*flags)
    assert (rep.min_abs_derivative, rep.M2, rep.M3) == (low_all, m2, m3)
    assert rep.max_abs_schwarzian == max_s


def test_sd_statistic_matches_per_sample_jets():
    # each (point, n)'s best sample is |S'| / (1 + |S|^2) by the
    # composition law, from the order-2 jet of the inner map g = z/(n z + 1),
    # a Moebius map, so S_g = 0, evaluated from scratch and S_exp = -1/2,
    # and the ascent only raises
    # it, within the disk's sup; the point's sup and argmax n are the
    # refined values'
    f, inner = parse("exp(z/(n*z+1))"), parse("z/(n*z+1)")
    g = GridSpec(0.1, 0.3, -0.1, 0.1, 2, 2, neighborhood_samples=3)
    ns = (1, 2, 3, 4)
    rep = sd_family_scan(f, g, ns, seed=2)
    offset = _seed_offset(2)
    for index, p in enumerate(rep.points):
        samples = _neighborhood(p.z, g.neighborhood_radius, 3, offset, index)
        sup = {}
        for n in ns:
            best = max(
                abs(s1) / (1.0 + abs(s0) ** 2)
                for s0, s1 in (
                    _peeled_derivatives(eval_jet(inner, n, w, order=2), (-0.5, 0.0), True)
                    for w in samples
                )
            )
            assert sd_keep(f, n, samples)[0] == best
            ((refined, _),) = eval_jet_lanes(f, n, [samples], probe._SD, g.neighborhood_radius)
            assert best <= refined <= example2_disk_sup(n, p.z, g.neighborhood_radius) * (1 + 1e-9)
            sup[n] = refined
        assert p.sup_stat == max(sup.values())
        assert p.argmax_n == max(sup, key=sup.get)


def test_the_ascent_steps_doubles_halves_and_stays_in_the_disk():
    # every lane of exp(1000)*z is redone, so the lane function takes each
    # value from its callbacks: the rise statistic faked as F = value(x),
    # a and D = 1 (up the real axis), so that the first step is
    # min(radius, a^2 / 2), and the last round's F from redo.  The ascent
    # starts at each group's argmax, whose F is its best
    fn = codegen.family(parse("exp(1000)*z"), probe._SD)
    tried = []

    def ascend(value, radius=1.0, a=1.0, start=True):
        tried.clear()

        def redo(w):  # the samples' values, and the last round's F
            if w.imag:  # the second group's one sample, which fails
                return "Pole"
            tried.append(("F", w))
            f = value(w.real)
            return "Pole" if f is None else f

        def rise(w):
            tried.append(("rise", w))
            f = value(w.real) if start or w else None
            return "Pole" if f is None else (f, a, 1.0, 0.0)

        out = fn(1 + 0j, [[0j], [5j]], redo, rise, radius)
        assert [flags for _, flags in out] == [set(), {"Pole"}]  # flags stay the samples'
        assert out[1][0] == -1.0  # a group with no argmax does not climb
        assert tried[0] == ("F", 0j)  # the first group's sample
        return out[0][0], tried[1:]

    # a plateau: no candidate rises, so each is rejected and the step halves
    assert ascend(lambda x: 1.0) == (1.0, [("rise", 0j), ("rise", 0.5 + 0j), ("F", 0.25 + 0j)])
    # F rising with x: each candidate is taken and the step doubles, and
    # the second, at 1.5, is projected back to the disk's edge; the last
    # round reads F alone
    assert ascend(lambda x: 1.0 + x) == (2.0, [("rise", 0j), ("rise", 0.5 + 0j), ("F", 1 + 0j)])
    assert ascend(lambda x: 1.0 + x, radius=0.25) == (
        1.25, [("rise", 0j), ("rise", 0.25 + 0j), ("F", 0.25 + 0j)])
    # a candidate that fails is rejected, and not flagged
    assert ascend(lambda x: None if x else 1.0) == (
        1.0, [("rise", 0j), ("rise", 0.5 + 0j), ("F", 0.25 + 0j)])
    # a candidate past the double range is rejected unevaluated: the step
    # a^2 / 2 is inf, so it starts at the radius, 1e308, and doubles
    assert ascend(lambda x: 1.0 + x, radius=1e308, a=1e308) == (
        1e308, [("rise", 0j), ("rise", 1e308 + 0j)])
    # where the rise at the argmax fails, the group does not climb
    assert ascend(lambda x: 1.0 + x, start=False) == (1.0, [("rise", 0j)])


# scan-sd grids on which the ascent in the lane function is pinned to the
# ascent written out in Python: example2's on 12 points, not a multiple of
# 5 workers, and the near-pole and log families of tests/test_cli.py's
# golden flags on 3 points, fewer than 5 workers.  The last two have the
# Schwarzian of example2 (a Moebius map of it), with f' scaled to the
# critical guard's square, |Re f'| and |Im f'| at most 1e-12, where the
# lane function redoes a sample that the walk, past the circle |f'| =
# 1e-12, gives a value: in "redone-argmax", some group's argmax is its
# one redone sample, and in "all-redone", the groups whose every sample
# is redone share their calls with groups whose argmax is not, so that
# the ascent's start takes no values kept from another sample
_MOEBIUS_EXAMPLE2 = "0.{}*(1+i)/(exp(z/(n*z+1))-2)"
_PINNED_SD = {
    "example2": ("exp(z/(n*z+1))", GridSpec(-0.5, 0.5, -0.5, 0.5, 4, 3), range(1, 9)),
    "near-pole": ("z^2+1/(z-0.1)", GridSpec(0, 0.2, 0, 0.2, 3, 1, 0.1, 3), range(1, 5)),
    "log": ("log(z)*n", GridSpec(-0.1, 0.1, 0, 0.1, 3, 1, 0.1, 3), range(1, 5)),
    "redone-argmax": (_MOEBIUS_EXAMPLE2.format("00000000000104"),
                      GridSpec(-0.1, 0.1, -0.1, 0.1, 3, 3), range(1, 9)),
    "all-redone": (_MOEBIUS_EXAMPLE2.format("0000000000009"),
                   GridSpec(-0.02, 0.02, -0.02, 0.02, 3, 3, 0.01), range(1, 9)),
    # a power past codegen._INLINE_POWER, one line binding every part, whose
    # f' the rise reads from the kept values
    "power": ("z^-9+n*z", GridSpec(0.5, 1.0, 0.5, 1.0, 3, 2), range(1, 5)),
    # roots the peel rule splits (schwarzian._peel), one per kind: log
    # under a factor is "log" above, exp is "example2"; a negative power
    # past codegen._INLINE_POWER, an inline power whose f' vanishes at
    # z = 1/n, exp under affine wrappers with operands free of z on both
    # sides, and log under a negation, whose pole at -0.3 is near samples
    "peel-power": ("(z^2+n)^-9", GridSpec(0.5, 1.0, 0.5, 1.0, 3, 2), range(1, 5)),
    "peel-cube": ("(n*z-1)^3", GridSpec(-0.5, 0.5, -0.5, 0.5, 3, 3), range(1, 5)),
    "peel-affine": ("2-n*exp(z/(n*z+1))/3", GridSpec(-0.5, 0.5, -0.5, 0.5, 4, 3), range(1, 9)),
    "peel-neg-log": ("-log(z+0.3)", GridSpec(-0.4, 0.2, -0.1, 0.1, 3, 2, 0.1, 3), range(1, 5)),
    # exp's guard and the critical test on the peeled path: n Re z from
    # 702 to 708, where exp is finite but refused, and f' = n exp(n z) at
    # most 2e-13 where g' = n is not critical
    "peel-exp-guard": ("exp(n*z)", GridSpec(70.2, 70.8, -0.1, 0.1, 3, 1), range(10, 11)),
    "peel-exp-critical": ("exp(n*z)", GridSpec(-30.5, -29.5, -0.1, 0.1, 3, 1), range(1, 4)),
}


def _redone_samples(f, grid, ns, offset):
    # per (point, n), in the order of one call per n: the samples the lane
    # function redoes (by identity: an ascent's candidates are new points),
    # and the group's argmax sample by the walk, with whether its rise is a
    # value, so that the group climbs
    radius = grid.neighborhood_radius
    groups = [_neighborhood(complex(grid.x_coords()[k % grid.nx], grid.y_coords()[k // grid.nx]),
                            radius, grid.neighborhood_samples, offset, k)
              for k in range(grid.nx * grid.ny)]
    fn = codegen.family(f, probe._SD)
    out = []
    for n in ns:
        redone, walk = [], redo(f, n, probe._SD)
        fn(complex(n), groups, lambda w: redone.append(w) or walk(w),
           redo(f, n, probe._SD_RISE, probe._SD), radius)
        for samples in groups:
            at = sd_keep(f, n, samples)[2]
            climbs = at is not None and walked(f, n, probe._SD_RISE, probe._SD)(at) is not None
            out.append(([w for w in samples if any(w is x for x in redone)], at, climbs, samples))
    return out


def test_the_kept_value_cases_are_what_they_name():
    text, grid, ns = _PINNED_SD["redone-argmax"]
    groups = _redone_samples(parse(text), grid, ns, _seed_offset(4))
    assert any(redone == [at] and climbs for redone, at, climbs, _ in groups)
    text, grid, ns = _PINNED_SD["all-redone"]
    groups = _redone_samples(parse(text), grid, ns, _seed_offset(4))
    # a group every sample of which is redone, and that climbs, after a
    # group, in the same call, whose argmax the fast path gave
    fast = [at is not None and at not in redone for redone, at, _, _ in groups]
    per_call = grid.nx * grid.ny
    assert any(climbs and redone == samples and any(fast[k - k % per_call : k])
               for k, (redone, _, climbs, samples) in enumerate(groups))


@pytest.mark.parametrize("name", sorted(_PINNED_SD))
def test_the_fused_ascent_keeps_the_python_ascents_bits(name):
    # each (point, n)'s refined best against the Python ascent, whose every
    # evaluation is a walk and whose last round, like each other, runs the
    # rise: bit for bit, in the sweep and in the scan's sup_stat at 1, 2, 3
    # and 5 workers
    text, grid, ns = _PINNED_SD[name]
    f, ns, offset = parse(text), tuple(ns), _seed_offset(4)
    radius = grid.neighborhood_radius
    want = []
    for index in range(grid.nx * grid.ny):
        z = complex(grid.x_coords()[index % grid.nx], grid.y_coords()[index // grid.nx])
        samples = _neighborhood(z, radius, grid.neighborhood_samples, offset, index)
        rows = []
        for n in ns:
            best, flags, at = sd_keep(f, n, samples)
            rows.append((ascend(best, at, z, radius, walked(f, n, probe._SD_RISE, probe._SD)),
                         flags))
        want.append((z, rows))
    got = probe._sweep(probe._SD, f, grid, ns, offset, range(grid.nx * grid.ny))

    def bits(points):
        return [(z, [(best.hex(), flags) for best, flags in rows]) for z, rows in points]

    assert bits(got) == bits(want)
    digests = [probe._point_stats(z, rows, ns) for z, rows in want]
    for workers in (1, 2, 3, 5):
        rep = sd_family_scan(f, grid, ns, seed=4, workers=workers)
        assert [(p.sup_stat.hex(), p.argmax_n) for p in rep.points] == [
            (p.sup_stat.hex(), p.argmax_n) for p in digests]
        assert list(map(_fields, rep.points)) == list(map(_fields, digests))


def _peelable_tree(rng):
    # a seeded tree under an exp, log or integer power, or none, and up to
    # two affine wrappers with operands free of z on either side
    node = random_tree(rng, 3)
    roll = rng.random()
    if roll < 0.3:
        node = rng.choice((Exp, Log))(node)
    elif roll < 0.5:
        node = PowInt(node, rng.choice((-12, -3, -2, -1, 1, 2, 3, 9)))
    for _ in range(rng.randint(0, 2)):
        b = random_tree(rng, 1)
        node = rng.choice((Neg(node), Add(node, b), Add(b, node), Sub(node, b), Sub(b, node),
                           Mul(b, node), Div(node, b)))
    return parse(pretty_print(node))  # real source spans


def test_the_peel_keeps_the_pole_and_critical_point_flags(capsys):
    # at each sample, the redo walk of _SD, peeled, against the same
    # statistic unpeeled, S from f's own jet of order 4: an unpeeled Pole
    # or CriticalPoint is the peeled flag, and an unpeeled value is a
    # peeled value.  Where they differ, the unpeeled flag is an Overflow
    # that f's jet of order 1 does not raise: one from f's parts above f',
    # which the peeled walk does not compute, so the sample goes on to a
    # later failure, the critical test or a value
    unpeeled = probe._SD._replace(peel=False, ascent=None)
    rng = random.Random(27)
    special = (0j, -1 + 0j, -2 + 0j, 1e-200 + 0j, 1e150 + 1e150j, 700 + 1j)
    seen = collections.Counter()
    for _ in range(800):
        f = _peelable_tree(rng)
        n = rng.choice((1, 2, 3, 6, 0.5, -1.5, 1e-170))
        peeled, whole = redo(f, n, probe._SD), redo(f, n, unpeeled)
        for _ in range(9):
            w = rng.choice(special) if rng.random() < 0.3 else random_point(
                rng, rng.choice((1.0, 3.0, 400.0)))
            got, want = (x if type(x) is str or math.isfinite(x) else "Overflow"
                         for x in (peeled(w), whole(w)))
            seen[want if type(want) is str else "value", got if type(got) is str else "value"] += 1
            if want in ("Pole", "CriticalPoint"):
                assert got == want, (pretty_print(f), n, w)
            elif type(want) is not str:
                assert type(got) is not str, (pretty_print(f), n, w)
            elif got != want:
                try:
                    eval_jet(f, n, w, order=1)
                except EvalError as exc:
                    assert not isinstance(exc.__cause__, OverflowAtPoint), (pretty_print(f), n, w)
    # an operand free of z on g's left fails before g: exp(800) before the
    # pole of 1/z at 0
    f = parse("exp(100*n)*exp(1/z)")
    assert redo(f, 8, probe._SD)(0j) == redo(f, 8, unpeeled)(0j) == "Overflow"
    # each flag kept, and each kind of change
    assert {("Pole", "Pole"), ("CriticalPoint", "CriticalPoint"), ("Overflow", "Overflow"),
            ("Overflow", "value"), ("Overflow", "CriticalPoint")} <= set(seen)
    # the Moebius peel, g walked two orders lower (schwarzian._mobius_parts):
    # a sample at the pole of g = z/(n z + 1), z = -1/n, is flagged "Pole" by
    # the redo walk and by the lane function
    f = parse("exp(z/(n*z+1))")
    assert codegen._split(f.root, probe._SD)[4] is not None
    assert redo(f, 2, probe._SD)(-0.5 + 0j) == redo(f, 2, unpeeled)(-0.5 + 0j) == "Pole"
    assert eval_jet_lanes(f, 2, [[-0.5 + 0j, 0.25 + 0j]], probe._SD, 0.01)[0][1] == {"Pole"}
    # a degenerate map, (n z + n)/(z + 1) = n, is a constant, whose g' is
    # roundoff within the critical floor: every point is flagged, the
    # command exits 0, and nothing reaches stderr
    code = main(["scan-sd", "--family=exp((n*z+n)/(z+1))", "--grid=-0.5,0.5,-0.5,0.5,3,3",
                 "--n-max", "8", "--workers", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert len(rows) == 9 and all(row[5] == "CriticalPoint" for row in rows)
    # a quotient whose numerator is not affine is no Moebius map
    assert codegen._split(parse("exp(z^2/(n*z+1))").root, probe._SD)[4] is None


def test_the_moebius_peel_walks_g_two_orders_lower(monkeypatch):
    # scan-sd's lane function writes its statistic's formula on the parts of
    # a Moebius g's jet of order 2, and the rise's on those of order 3, two
    # below the statistics' orders 4 and 5, and its redo walks seed g so
    # too; for a g that is no Moebius map, 4 and 5
    lengths, orders = [], []
    real_formula, real_var = codegen._formula, codegen.jet_var
    monkeypatch.setattr(codegen, "_formula", lambda t, jet, *a, **k: (
        lengths.append(len(jet)) or real_formula(t, jet, *a, **k)))
    monkeypatch.setattr(codegen, "jet_var", lambda w, order: (
        orders.append(order) or real_var(w, order)))
    for text, lower in (("exp(z/(n*z+1))", 2), ("exp(z^2/(n*z+1))", 0)):
        f = parse(text)
        lengths.clear(), orders.clear()
        codegen._lanes_source(f.root, probe._SD)
        assert lengths == [5 - lower, 6 - lower]
        redo(f, 2, probe._SD)(0.3 + 0.1j), redo(f, 2, probe._SD_RISE, probe._SD)(0.3 + 0.1j)
        assert orders == [4 - lower, 5 - lower]


def test_a_degenerate_moebius_map_is_walked_as_no_moebius_map():
    # where ad - bc = 0 the map is a constant, whose g' is roundoff: where
    # that is past the critical floor, a sample's value is that of g's walk
    # at the statistic's order with S_g from g's jet, as for a g that is no
    # Moebius map, and never the chain terms alone, about 0 here.  So in the
    # lane function, whose prelude tests the map once per batch where it
    # holds n, and which tests it once, when written, where it does not,
    # and in the redo walk
    stat = probe._SD._replace(ascent=None)
    points = [0.3 + 0.1j, -0.4 + 0.2j, 0.1 - 0.3j]
    for text, n in (("exp((n*z+n)/(z+1)-n)", 1e9), ("(1000000000*z+1000000000)/(z+1)", 2.0)):
        f = parse(text)
        outer_tree, inner, args, left, mobius = codegen._split(f.root, stat)
        assert mobius is not None and args[-1] is True
        plain = (outer_tree, inner, args[:-1], left, None)
        want = [codegen._redo(plain, n, stat, w) for w in points]
        assert all(type(x) is float and x > 1e-3 for x in want), want
        assert [redo(f, n, stat)(w) for w in points] == want
        assert eval_jet_lanes(f, n, [[w] for w in points], stat) == [
            (x, frozenset()) for x in want]
    # at an n where it is not degenerate, the chain terms alone
    f = parse("exp((n*z+1)/(z+1)-n)")
    assert [x for x, _ in eval_jet_lanes(f, 3.0, [[w] for w in points], stat)] == [
        redo(f, 3.0, stat)(w) for w in points]


def test_sd_origin_slope_is_near_one_on_the_bench_grid():
    # the exact sup over the origin's disk grows as n, so the slope is 1;
    # on the 11x11 grid of the sd-grid benchmark, seeds 0 to 10
    f = parse("exp(z/(n*z+1))")
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 11, 11)
    for seed in range(11):
        rep = sd_family_scan(f, g, range(1, 33), seed=seed)
        origin = rep.points[60]
        assert origin.z == 0j
        assert 0.75 <= origin.growth_slope <= 1.25, seed


# ---------------------------------------------------------------------------
# each verdict rule at the edge of its tolerance


def test_a_statistic_above_the_noise_floor_is_fitted():
    # f# of 1e-11 n z is 1e-11 n, to a part in 1e22: the window's maximum,
    # 8e-11, lies between the noise floor 1e-12 and 1e-9, so its slope, 1,
    # is fitted, not read as numerically zero
    rep = marty_scan(parse("0.00000000001*n*z"), _POINT_GRID, range(1, 9))
    (p,) = rep.points
    assert 1e-12 < p.sup_stat < 1e-9
    assert p.growth_slope == pytest.approx(1.0, abs=1e-9)
    assert verdicts(rep) == [Verdict.DIVERGENT_CANDIDATE]


def test_a_statistic_below_the_log_clamp_is_fitted_at_the_clamp():
    # over the window n = 5..8, statistics 1e-3 n, and at n = 6 one of
    # 1e-305: a normal double, but below the clamp 1e-300, so the fit takes
    # log(1e-300) for it, not its own log, nor only a zero's
    ns = tuple(range(1, 9))
    per_n = {n: 1e-3 * n for n in ns}
    per_n[6] = 1e-305
    window = [math.log(n) for n in ns[4:]]

    def fitted(floor):
        ys = [math.log(max(per_n[n], floor)) for n in ns[4:]]
        return statistics.linear_regression(window, ys).slope

    got = probe._growth_slope(ns, per_n, set())
    assert got == pytest.approx(fitted(1e-300), rel=1e-12)
    assert got == pytest.approx(362.87, abs=0.01)
    assert fitted(0.0) == pytest.approx(368.95, abs=0.01)


def test_bound_fails_a_segment_just_past_its_tolerance():
    # f' = 1 + c z (1 - z) is 1 at both samples, the segment's ends, so
    # K = 1, while |f(1) - f(0)| = 1 + c/6: with c = 6e-8, observed over
    # rhs is 1 + 1e-8, past the tolerance 1 + 1e-9
    f = parse("z + 0.00000006*(z^2/2 - z^3/3)")
    (rep,) = local_bound_estimate(f, (1,), 0.0, 1.0, segment_samples=2)
    assert (rep.K_estimate, rep.bound_rhs) == (1.0, 1.0)
    assert 1.0 + 1e-9 < rep.observed < 1.0 + 1e-6
    assert not rep.passed


def test_bound_passes_a_true_bound_that_roundoff_fails_by_the_fixed_rule():
    # f is affine in z, so |f(z) - f(z0)| = K |z - z0| exactly; at n = 3
    # f(z) and f(z0) are near -exp(exp(3)) = -5.3e8, and their difference
    # loses about 1e-7 to cancellation, past the fixed rule's tolerance but
    # within the radius of f(z) - f(z0) on balls, 1.0e-5
    f = parse("(((0.32/(n+3))*(2*z))-exp(exp(n)))")
    z0, z = 0.41 + 0.6233j, 0.3021 - 0.6876j
    reports = local_bound_estimate(f, (1, 2, 3), z0, z)
    assert all(r.passed for r in reports)
    rep = reports[2]
    assert rep.observed > rep.bound_rhs * (1.0 + 1e-9) + 1e-12
    balls = [eval_jet(f, 3, Ball(w), order=0)[0] for w in (z0, z)]
    assert rep.observed - rep.bound_rhs < radius(balls[1] - balls[0]) < 2e-5


def test_bound_fails_a_segment_across_logs_cut_by_both_rules():
    # log(z) jumps by 2 pi i across its cut, which no roundoff explains;
    # log(z-0.1) from a point whose argument lies within the literal's half
    # ulp of the cut has an infinite radius, which explains nothing
    (rep,) = local_bound_estimate(parse("log(z)"), (1,), -1 + 0.1j, -1 - 0.1j)
    assert rep.observed > 6.0 and not rep.passed
    f, z0 = parse("log(z-0.1)"), complex(-1.0, 1e-20)
    (rep,) = local_bound_estimate(f, (1,), z0, -1 - 0.5j)
    assert rep.observed > 5.0 and not rep.passed
    assert radius(eval_jet(f, 1, Ball(z0), order=0)[0]) == math.inf


def test_hypotheses_are_not_sound_just_past_their_tolerance():
    # one sample, at 0, of z + z^3: f' = 1, f'' = 0 and f''' = 6, so
    # |S| = 6 and the bound is M3 / epsilon = 6 / (1 + 1e-8), which |S|
    # exceeds by a part in 1e8, past the tolerance of a part in 1e9
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1, 0.1, 1)
    rep = check_theorem_hypotheses(parse("z + z^3"), (1,), grid, 1.0 + 1e-8, 0j, 1.0)
    assert rep.max_abs_schwarzian == 6.0 and rep.M2 == 0.0
    assert 1.0 + 1e-9 < rep.max_abs_schwarzian / rep.sd_bound < 1.0 + 1e-6
    assert not rep.sound


# ---------------------------------------------------------------------------
# limits on the counts that size allocations and process pools; each check
# runs before the allocation or pool it guards


def test_grid_point_limit():
    GridSpec(0, 1, 0, 1, 500, 500, 1e-4)
    assert 500 * 500 == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="at most 250000 points"):
        GridSpec(0, 1, 0, 1, MAX_GRID_POINTS + 1, 1)


def test_neighborhood_sample_limit():
    grid = GridSpec(0, 1, 0, 1, 1, 1, 0.05, MAX_SAMPLES)
    assert len(marty_scan(parse("z"), grid, (1,)).points) == 1
    with pytest.raises(ValueError, match="at most 128"):
        GridSpec(0, 1, 0, 1, 1, 1, 0.05, MAX_SAMPLES + 1)


def test_n_range_limit():
    grid = GridSpec(0, 1, 0, 1, 1, 1, 0.05, 1)
    report = marty_scan(parse("z"), grid, range(1, MAX_N_VALUES + 1))
    assert len(report.n_values) == MAX_N_VALUES
    for call in (
        lambda ns: marty_scan(parse("z"), grid, ns),
        lambda ns: local_bound_estimate(parse("z"), ns, 0, 1),
        lambda ns: check_theorem_hypotheses(parse("z"), ns, grid, 0.5, 0, 1.0),
    ):
        with pytest.raises(ValueError, match="at most 1024 n values"):
            call(range(1, MAX_N_VALUES + 2))
    # a range far past the limit is refused without being built
    with pytest.raises(ValueError, match="at most 1024 n values"):
        marty_scan(parse("z"), grid, range(1, 10**12))


def test_segment_sample_limit():
    (report,) = local_bound_estimate(parse("z"), (1,), 0, 1, MAX_SEGMENT_SAMPLES)
    assert report.K_estimate == 1.0
    with pytest.raises(ValueError, match="at most 100000"):
        local_bound_estimate(parse("z"), (1,), 0, 1, MAX_SEGMENT_SAMPLES + 1)


def test_worker_limit():
    # one grid point never starts a pool, whatever the worker count
    grid = GridSpec(0, 1, 0, 1, 1, 1, 0.05, 1)
    assert len(marty_scan(parse("z"), grid, (1,), workers=MAX_WORKERS).points) == 1
    for scan in (marty_scan, sd_family_scan):
        with pytest.raises(ValueError, match="at most 64"):
            scan(parse("z"), grid, (1,), workers=MAX_WORKERS + 1)


def test_thresholds_that_are_not_numbers_are_value_errors():
    f = parse("z")
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 1, 0.05, 3)
    report = marty_scan(f, grid, [1, 2], workers=1)
    nan = float("nan")
    for refuse, text in (
        (lambda: classify(report, cap=nan), "cap must be positive, got nan"),
        (lambda: derivative_floor_check(f, [1], grid, nan), "epsilon must be positive, got nan"),
        (lambda: sd_bound_from_hypotheses(1.0, 1.0, nan), "epsilon must be positive, got nan"),
        (lambda: value_bound_check(f, [1], 0.3j, nan), "L must be a number, got nan"),
    ):
        with pytest.raises(ValueError, match=f"^{text}$"):
            refuse()
