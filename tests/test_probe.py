"""Grid scans, growth classification, and the bound and hypothesis checks."""

import math

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
    cauchy_derivative_bound,
    check_theorem_hypotheses,
    classify,
    derivative_floor_check,
    eval_jet,
    local_bound_estimate,
    marty_scan,
    parse,
    schwarzian,
    sd_bound_from_hypotheses,
    sd_family_scan,
    value_bound_check,
)
from schwarzian_lab import probe
from schwarzian_lab.probe import (
    MAX_GRID_POINTS,
    MAX_N_VALUES,
    MAX_SAMPLES,
    MAX_SEGMENT_SAMPLES,
    MAX_WORKERS,
    _neighborhood,
    _seed_offset,
)


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


def test_grid_warns_when_radius_spans_cells():
    with pytest.warns(UserWarning):
        GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41, neighborhood_radius=0.5)


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
    # statistic at the origin is 2n / (1 + 1/4) = 1.6 n
    f = parse("exp(z/(n*z+1))")
    g = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1, neighborhood_samples=1)
    rep = sd_family_scan(f, g, (n,))
    (p,) = rep.points
    assert p.sup_stat == pytest.approx(1.6 * n, rel=2e-2)
    assert p.argmax_n == n


def test_sd_scan_critical_point_flag():
    # z^2 has S = -3/(2 z^2); the center sample sits on the critical point
    f = parse("z^2")
    rep = sd_family_scan(f, _POINT_GRID, range(1, 9))
    (p,) = rep.points
    assert "CriticalPoint" in p.flags
    # the family ignores n, so the clean samples give a flat slope
    assert p.growth_slope == pytest.approx(0.0, abs=1e-9)


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


def test_cauchy_derivative_bound_values():
    assert cauchy_derivative_bound(2.0, 0.5, 3) == 96.0
    assert cauchy_derivative_bound(1.0, 2.0, 1) == 0.5
    assert cauchy_derivative_bound(3.0, 1.0, 2) == 6.0
    with pytest.raises(ValueError):
        cauchy_derivative_bound(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        cauchy_derivative_bound(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        cauchy_derivative_bound(-1.0, 1.0, 2)


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


_HYP_GRID = GridSpec(-0.17, 0.17, -0.17, 0.17, 3, 2, neighborhood_radius=0.001)


def test_theorem_hypotheses_evaluates_each_sample_once(monkeypatch):
    # one evaluation per (point, n, sample) for the floor, M2, M3 and
    # max |S| together, plus one per n for the value bound at zeta
    calls = []
    for name in ("eval_jet", "eval_jet_seeded"):
        real = getattr(probe, name, None)
        if real is not None:
            def counted(*args, _real=real, **kwargs):
                calls.append(args[1])
                return _real(*args, **kwargs)

            monkeypatch.setattr(probe, name, counted)
    ns = range(1, 6)
    rep = check_theorem_hypotheses(parse("z + (z^2)/n"), ns, _HYP_GRID, 0.5, 0.0, 0.1)
    samples = _HYP_GRID.nx * _HYP_GRID.ny * _HYP_GRID.neighborhood_samples
    assert len(calls) == samples * len(ns) + len(ns)
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


def test_sd_statistic_matches_per_sample_stencil():
    # the sd kernel reuses each sample's five stencil jets across n; the
    # statistic must equal the stencil evaluated from scratch
    f = parse("exp(z/(n*z+1))")
    g = GridSpec(0.1, 0.3, -0.1, 0.1, 2, 2, neighborhood_samples=3)
    ns = (1, 2, 3, 4)
    rep = sd_family_scan(f, g, ns, seed=2)
    offset = _seed_offset(2)
    h = g.neighborhood_radius / 8.0
    for index, p in enumerate(rep.points):
        best = {}
        for n in ns:
            for w in _neighborhood(p.z, g.neighborhood_radius, 3, offset, index):
                s0, sp1, sm1, sp2, sm2 = (
                    schwarzian(eval_jet(f, n, w + k * h)) for k in (0, 1, -1, 2, -2)
                )
                ds = (-sp2 + 8.0 * sp1 - 8.0 * sm1 + sm2) / (12.0 * h)
                best[n] = max(best.get(n, -1.0), abs(ds) / (1.0 + abs(s0) ** 2))
        assert p.sup_stat == max(best.values())
        assert p.argmax_n == max(best, key=best.get)


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
