"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test states its guarantee in the name and asserts both the numerical
claim and its runtime budget.  The two full-size grid scans come from
session fixtures so their cost is paid once and shared with the
determinism test.
"""

import math
import random
import time

import pytest

from schwarzian_lab import (
    GridSpec,
    Mobius,
    SegmentEvaluationError,
    Verdict,
    check_composition_law,
    check_conjugation,
    check_mobius_invariance,
    check_reciprocal,
    classify,
    eval_jet,
    local_bound_estimate,
    marty_scan,
    mobius_jet,
    parse,
    schwarzian,
    sd_bound_from_hypotheses,
    sd_family_scan,
)
from schwarzian_lab.cli import rows_to_csv, scan_rows
from schwarzian_lab.dsl import EvalError
from schwarzian_lab.schwarzian import CriticalPointError

import support


def verdict_by_point(report):
    return {
        p.z: v.verdict for p, v in zip(report.points, classify(report))
    }


def test_01_exp_family_schwarzian_is_minus_half_n_squared():
    t0 = time.perf_counter()
    rng = random.Random(101)
    f = parse("exp(n*z)")
    zs = [support.random_point(rng, 2.0) for _ in range(100)]
    for n in range(1, 11):
        target = -(n * n) / 2
        for z in zs:
            s = schwarzian(eval_jet(f, n, z))
            assert abs(s - target) <= 1e-9 * n * n
    assert time.perf_counter() - t0 < 1.0


def test_02_moebius_exponent_family_closed_form():
    t0 = time.perf_counter()
    rng = random.Random(102)
    f = parse("exp(z/(n*z+1))")
    for n in range(1, 11):
        done = 0
        while done < 100:
            z = support.random_point(rng, 2.0)
            if abs(n * z + 1) < 0.1:
                continue
            done += 1
            s = schwarzian(eval_jet(f, n, z))
            exact = -1.0 / (2.0 * (n * z + 1) ** 4)
            assert abs(s - exact) <= 1e-8 * abs(exact)
    assert time.perf_counter() - t0 < 1.0


def test_03_shifted_exp_family_constant_schwarzian():
    t0 = time.perf_counter()
    rng = random.Random(103)
    f = parse("exp(z) - n")
    for _ in range(50):
        z = support.random_point(rng, 2.0)
        for n in range(1, 65):
            s = schwarzian(eval_jet(f, n, z))
            assert abs(s + 0.5) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_04_mobius_annihilation_and_invariance():
    t0 = time.perf_counter()
    rng = random.Random(104)
    for _ in range(10_000):
        m = support.random_mobius(rng)
        while True:
            z = support.random_point(rng, 2.0)
            if 0.1 <= abs(m.c * z + m.d) <= 1e3:
                break
        assert abs(schwarzian(mobius_jet(m, z))) <= 1e-9

    # invariance S_{m o f} = S_f over generated families, rel 1e-8
    accepted = 0
    while accepted < 300:
        f = support.random_family(rng)
        m = support.random_mobius(rng)
        z = support.random_point(rng, 1.5)
        n = rng.randint(1, 8)
        try:
            jf = eval_jet(f, n, z)
        except EvalError:
            continue
        if abs(jf.d1) < 1e-6 or not 0.1 <= abs(m.c * jf.v + m.d) <= 1e3:
            continue
        try:
            rep = check_mobius_invariance(f, n, m, z)
        except (EvalError, CriticalPointError):
            continue
        accepted += 1
        assert rep.passed, (f.root, m, n, z)
    assert time.perf_counter() - t0 < 10.0


def test_05_composition_law_with_anchor_value():
    t0 = time.perf_counter()
    # anchor: h = exp(z^2) has h' = 2z e^{z^2}, h'' = (2 + 4z^2) e^{z^2},
    # h''' = (12z + 8z^3) e^{z^2}; at z = 1 that is h' = 2e, h'' = 6e,
    # h''' = 20e, so S = 20e/2e - 1.5 (6e/2e)^2 = 10 - 13.5 = -3.5
    h = support.compose_family(parse("exp(z)"), parse("z^2"))
    assert schwarzian(eval_jet(h, 1, 1.0)) == pytest.approx(-3.5, rel=1e-12)
    rep = check_composition_law(parse("z^2"), parse("exp(z)"), 1, 1.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(-3.5, rel=1e-12)

    rng = random.Random(105)
    accepted = 0
    while accepted < 300:
        f = support.random_family(rng)
        g = support.random_family(rng)
        z = support.random_point(rng, 1.5)
        n = rng.randint(1, 6)
        try:
            rep = check_composition_law(f, g, n, z)
        except (EvalError, CriticalPointError):
            continue
        if max(abs(rep.lhs), abs(rep.rhs)) > 1e8:
            continue
        accepted += 1
        assert rep.passed, (f.root, g.root, n, z)
    assert time.perf_counter() - t0 < 10.0


def test_06_reciprocal_identity_for_omitted_values():
    t0 = time.perf_counter()
    # oracle: 1/(f - w) is a Moebius map applied after f, so its
    # Schwarzian must equal S_f = -1/2 for both families
    for text, omitted in (("exp(z)", 0.0), ("exp(z) + 5", 5.0)):
        f = parse(text)
        for z in (1 + 1j, -0.5 + 2j, 0.25):
            rep = check_reciprocal(f, 1, omitted, z, tol_abs=0.0, tol_rel=1e-9)
            assert rep.passed
            assert rep.lhs == pytest.approx(-0.5, rel=1e-9)
            assert rep.rhs == pytest.approx(-0.5, rel=1e-9)
    assert time.perf_counter() - t0 < 1.0


def test_07_conjugation_identity_for_paired_families():
    t0 = time.perf_counter()
    f4, g4 = parse("exp(n*z)"), parse("n*exp(z)")
    for n in range(1, 9):
        rep = check_conjugation(f4, g4, Mobius(n, 0, 0, 1), n, 0.2)
        assert rep.passed
        assert rep.lhs == pytest.approx(-(n * n) / 2, rel=1e-9)
        assert rep.rhs == pytest.approx(-(n * n) / 2, rel=1e-9)
    f7, g7 = parse("exp(z + n)"), parse("exp(z) + n")
    for n in range(1, 9):
        rep = check_conjugation(f7, g7, Mobius(1, n, 0, 1), n, 0.4)
        assert rep.passed
        assert rep.lhs == pytest.approx(-0.5, rel=1e-9)
        assert rep.rhs == pytest.approx(-0.5, rel=1e-9)
    assert time.perf_counter() - t0 < 1.0


def test_08_marty_scan_maps_normality_of_exp_family(exp_nz_marty_41):
    report, seconds = exp_nz_marty_41
    assert seconds < 30.0
    by_point = verdict_by_point(report)
    assert len(by_point) == 41 * 41
    for z, verdict in by_point.items():
        if abs(z.real) >= 0.2:
            assert verdict is Verdict.BOUNDED_CANDIDATE, z
            assert verdict is not Verdict.DIVERGENT_CANDIDATE, z
        if abs(z.real) <= 0.025:
            assert verdict is Verdict.DIVERGENT_CANDIDATE, z


def test_09_sd_scan_flags_origin_for_moebius_exponent_family(example2_sd_41):
    report, seconds = example2_sd_41
    assert seconds < 60.0
    by_point = verdict_by_point(report)
    assert by_point[0j] is Verdict.DIVERGENT_CANDIDATE
    for z, verdict in by_point.items():
        if abs(z) >= 0.2:
            assert verdict is Verdict.BOUNDED_CANDIDATE, z
    # derived oracle for the statistic at the origin: S = -1/(2 (nz+1)^4)
    # gives |S'(0)| = 2n against 1 + |S(0)|^2 = 1.25, i.e. 1.6 n
    f = parse("exp(z/(n*z+1))")
    point = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1, neighborhood_samples=1)
    for n in (2, 4, 8):
        scan = sd_family_scan(f, point, (n,))
        assert scan.points[0].sup_stat == pytest.approx(1.6 * n, rel=2e-2)


def test_10_schwarzian_bound_soundness_on_disk():
    t0 = time.perf_counter()
    f = parse("z + (z^2)/n")
    # polar samples of the closed disk |z| <= 0.25, including the exact
    # boundary points where the bound is tight
    points = [0j]
    for k in range(1, 6):
        r = 0.05 * k
        for j in range(16):
            angle = 2.0 * math.pi * j / 16.0
            points.append(complex(r * math.cos(angle), r * math.sin(angle)))
    for n in range(1, 65):
        m2 = m3 = max_s = 0.0
        for z in points:
            jet = eval_jet(f, n, z)
            m2 = max(m2, abs(jet.d2))
            m3 = max(m3, abs(jet.d3))
            max_s = max(max_s, abs(schwarzian(jet)))
        bound = sd_bound_from_hypotheses(m2, m3, 0.5)
        assert max_s <= bound * (1.0 + 1e-9), n
    assert time.perf_counter() - t0 < 5.0


def test_11_segment_bound_on_random_families():
    t0 = time.perf_counter()
    rng = random.Random(111)
    successes = 0
    attempts = 0
    failures = []
    while successes < 1000:
        attempts += 1
        assert attempts < 5000, "generator keeps drawing failing segments"
        f = support.random_family(rng)
        z0 = support.random_point(rng, 1.5)
        z1 = support.random_point(rng, 1.5)
        if z0 == z1:
            continue
        # a log branch-cut crossing makes the family multivalued along
        # the segment, which no pathwise bound survives; such segments
        # are not error-free in the sense this check needs
        if any(
            support.segment_crosses_log_cut(f.root, n, z0, z1) for n in (1, 2, 3)
        ):
            continue
        try:
            reports = local_bound_estimate(f, (1, 2, 3), z0, z1)
        except (SegmentEvaluationError, EvalError):
            continue
        successes += 1
        failures.extend((f.root, r) for r in reports if not r.passed)
    assert not failures
    assert time.perf_counter() - t0 < 30.0


def _scan_csv(report):
    return rows_to_csv(scan_rows(report, classify(report), "csv"))


def test_12_scans_bit_identical_across_runs_and_workers(
    exp_nz_marty_41, example2_sd_41
):
    marty_report, _ = exp_nz_marty_41
    sd_report, _ = example2_sd_41
    marty_csv = _scan_csv(marty_report)
    sd_csv = _scan_csv(sd_report)

    grid_m = GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)
    grid_s = GridSpec(-0.5, 0.5, -0.5, 0.5, 41, 41)
    ns = tuple(range(1, 33))
    f_m = parse("exp(n*z)")
    f_s = parse("exp(z/(n*z+1))")

    rerun = marty_scan(f_m, grid_m, ns, seed=0, workers=1)
    assert _scan_csv(rerun) == marty_csv
    spread = marty_scan(f_m, grid_m, ns, seed=0, workers=8)
    assert _scan_csv(spread) == marty_csv

    rerun = sd_family_scan(f_s, grid_s, ns, seed=0, workers=1)
    assert _scan_csv(rerun) == sd_csv
    spread = sd_family_scan(f_s, grid_s, ns, seed=0, workers=8)
    assert _scan_csv(spread) == sd_csv
