"""Command-line behaviour: exit codes, formats, and adapter faithfulness.

Most tests drive ``main(argv)`` in process and compare its output byte for
byte against the public row builders and writer applied to direct library
calls; the CLI must add nothing of its own.  Those comparisons cannot see a
change in the writer itself, so literal golden outputs pin the bytes of
every subcommand in both formats, and of the scans and hypothesis checks
of families whose samples fail, flags and refusals included.  One test
exercises the installed console script end to end.
"""

import ast
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from schwarzian_lab import (
    GridSpec,
    Mobius,
    check_composition_law,
    check_mobius_invariance,
    check_theorem_hypotheses,
    classify,
    eval_jet,
    local_bound_estimate,
    marty_scan,
    parse,
    schwarzian,
)
import schwarzian_lab
from schwarzian_lab import cli, codegen, probe
from schwarzian_lab.cli import (
    CATALOG,
    SEED_ENV_VAR,
    bound_rows,
    eval_record,
    format_complex,
    hypotheses_row,
    identity_row,
    main,
    parse_complex,
    rows_to_csv,
    rows_to_json,
    scan_rows,
)
from schwarzian_lab.dsl import ParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# complex literals


@pytest.mark.parametrize(
    "text,value",
    [
        ("1+0i", 1 + 0j),
        ("1.5-2i", 1.5 - 2j),
        ("0.2", 0.2 + 0j),
        ("-i", -1j),
        ("i", 1j),
        ("2i", 2j),
        ("-0.5-0.25i", -0.5 - 0.25j),
        ("3", 3 + 0j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "1+2", "1 + 2i", "1+2i3", "2i+1", "+-1"])
def test_parse_complex_rejects(text):
    with pytest.raises(ParseError):
        parse_complex(text)


def test_format_complex_roundtrip():
    for w in (1 + 0j, -4.5 + 0j, complex(1 / 3, -2 / 7), 0.25j, 0j):
        assert parse_complex(format_complex(w)) == w
    assert format_complex(1 + 0j) == "1+0i"
    assert format_complex(-4.5 + 0j) == "-4.5+0i"


# ---------------------------------------------------------------------------
# eval


def test_eval_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "exp(n*z)", "--n", "3", "--z", "0+0i"
    )
    assert code == 0
    assert out == rows_to_json(eval_record(parse("exp(n*z)"), 3, 0j))
    record = json.loads(out)
    assert record["schwarzian"] == "-4.5+0i"
    assert list(record) == ["v", "d1", "d2", "d3", "schwarzian", "spherical"]


def test_eval_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--family", "exp(n*z)", "--n", "3", "--z", "0+0i",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "v,d1,d2,d3,schwarzian,spherical"
    assert out == rows_to_csv(eval_record(parse("exp(n*z)"), 3, 0j))


def test_eval_critical_point_still_reports(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "z^2", "--n", "1", "--z", "0+0i")
    assert code == 0
    assert json.loads(out)["schwarzian"] == "CriticalPointError"


def test_eval_catalog_equivalent_to_text(capsys):
    code, by_name, _ = run_cli(
        capsys, "eval", "--catalog", "example1", "--n", "2", "--z", "0.5+0i"
    )
    assert code == 0
    code, by_text, _ = run_cli(
        capsys, "eval", "--family", CATALOG["example1"], "--n", "2", "--z", "0.5+0i"
    )
    assert code == 0
    assert by_name == by_text


def test_eval_parse_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--family", "z +", "--n", "1", "--z", "0+0i")
    assert code == 2
    assert out == ""
    assert "error" in err and "offset 3" in err


@pytest.mark.parametrize(
    "family",
    [
        "(" * 600 + "z" + ")" * 600,
        "+".join(["z"] * 3000),
        "-" * 600 + "z",
        "z+" + "9" * 400,
        "z^" + "2" * 5000,
        "z^1000000",
    ],
    ids=["parentheses", "flat-sum", "unary-minus", "literal", "exponent-digits", "exponent"],
)
def test_family_past_the_input_limits_exits_2(capsys, family):
    code, out, err = run_cli(capsys, "eval", f"--family={family}", "--n", "1", "--z", "0.5+0i")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse error at offset")


def test_complex_literal_past_the_double_range_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--family", "z", "--n", "1", "--z", "1" + "0" * 400])
    assert info.value.code == 2
    assert "double range" in capsys.readouterr().err


def test_composition_overflow_exits_3(capsys):
    # S_g f'^2 is 0 * inf there: a refusal, not a failed identity
    code, out, err = run_cli(
        capsys, "identity", "composition", "--family", "exp(exp(n)+z*n)",
        "--family", "(n+i-exp(n))*(3*z*-i)", "--n", "6", "--z", "0+0i",
    )
    assert (code, out) == (3, "")
    assert "OverflowAtPoint" in err


def test_eval_evaluation_error_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "log(z)", "--n", "1", "--z", "0+0i"
    )
    assert code == 3
    assert "error" in err


def test_eval_family_count_enforced(capsys):
    code, _, err = run_cli(capsys, "eval", "--n", "1", "--z", "0+0i")
    assert code == 2 and "exactly 1" in err
    code, _, err = run_cli(
        capsys,
        "eval", "--family", "z", "--family", "z^2", "--n", "1", "--z", "0+0i",
    )
    assert code == 2


def test_argparse_rejects_bad_usage():
    with pytest.raises(SystemExit) as info:
        main(["eval", "--family", "z", "--n", "x", "--z", "0+0i"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["scan-marty", "--family", "z"])  # --grid is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["eval", "--family", "z", "--n", "1", "--z", "0+0i", "--format", "xml"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# identity


def test_identity_invariance_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity", "mobius-invariance",
        "--family", "exp(n*z)", "--n", "2", "--z", "0.3+0i",
        "--mobius", "3,1,1,-2",
    )
    assert code == 0
    direct = check_mobius_invariance(parse("exp(n*z)"), 2, Mobius(3, 1, 1, -2), 0.3)
    assert out == rows_to_json(identity_row(direct, "json"))
    assert json.loads(out)["passed"] is True


def test_identity_composition_respects_family_order(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity", "composition",
        "--family", "z^2", "--catalog", "example1",
        "--n", "1", "--z", "1+0i",
    )
    assert code == 0
    direct = check_composition_law(parse("z^2"), parse("exp(n*z)"), 1, 1.0)
    assert out == rows_to_json(identity_row(direct, "json"))
    assert json.loads(out)["lhs"] == format_complex(direct.lhs)


def test_identity_interleaved_catalog_and_family_keep_order(capsys):
    # --catalog and --family append to one list: the first flag names f
    exp_nz, square = parse("exp(n*z)"), parse("z^2")
    outs = []
    for flags, (f, g) in (
        (("--catalog", "example1", "--family", "z^2"), (exp_nz, square)),
        (("--family", "z^2", "--catalog", "example1"), (square, exp_nz)),
    ):
        code, out, _ = run_cli(
            capsys, "identity", "composition", *flags, "--n", "1", "--z", "1+0i"
        )
        assert code == 0
        direct = check_composition_law(f, g, 1, 1.0)
        assert out == rows_to_json(identity_row(direct, "json"))
        outs.append(out)
    assert json.loads(outs[0])["lhs"] != json.loads(outs[1])["lhs"]


def test_identity_reciprocal(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity", "reciprocal",
        "--family", "exp(z)+5", "--n", "1", "--z", "1+1i", "--omit", "5",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_identity_conjugation_with_n_in_phi(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity", "conjugation",
        "--catalog", "example4-f", "--catalog", "example4-g",
        "--n", "4", "--z", "0.2+0i", "--phi", "n,0,0,1",
    )
    assert code == 0
    row = json.loads(out)
    assert row["passed"] is True
    assert parse_complex(row["lhs"]) == pytest.approx(-8 + 0j)


@pytest.mark.parametrize("n", ["inf", "nan"])
@pytest.mark.parametrize("kind,flags", [
    ("mobius-invariance", ("--family", "z", "--mobius", "n,0,0,1")),
    ("conjugation", ("--family", "z", "--family", "z", "--phi", "n,0,0,1")),
])
def test_a_map_with_a_coefficient_that_is_not_finite_is_refused(capsys, kind, flags, n):
    # the coefficient n is refused where --n is parsed, before the map is
    # built (test_schwarzian holds Mobius's own refusal)
    with pytest.raises(SystemExit) as info:
        main(["identity", kind, *flags, "--n", n, "--z", "0.5"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.endswith(f"error: argument --n: must be a finite number, got '{n}'\n")


@pytest.mark.parametrize("n", ["inf", "nan", "-inf", "1e400", "-NaN"])
@pytest.mark.parametrize("argv", [
    ("eval", "--family", "z"),
    ("identity", "composition", "--family", "z", "--family", "z^2"),
    ("identity", "reciprocal", "--family", "exp(z)", "--omit", "0"),
])
def test_a_family_index_that_is_not_finite_is_refused(capsys, argv, n):
    # refused with argparse's errors, naming --n and its value, and not by
    # the walk's "jet_const requires a finite value"
    with pytest.raises(SystemExit) as info:
        main([*argv, f"--n={n}", "--z", "0.5"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.endswith(f"error: argument --n: must be a finite number, got '{n}'\n")


def test_identity_csv_header(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity", "reciprocal",
        "--family", "exp(z)", "--n", "1", "--z", "1+1i", "--omit", "0",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "lhs,rhs,abs_gap,rel_gap,passed,tolerance_used"
    assert row.split(",")[4] == "true"


def test_identity_zero_tolerance_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity", "mobius-invariance",
        "--family", "exp(n*z)", "--n", "2", "--z", "0.5+0i",
        "--mobius", "3,1,1,-2", "--tol-abs", "0", "--tol-rel", "0",
    )
    # S is -2 exactly; the moved jet's S reads -2.0000000000001137
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_identity_guard_violation_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "identity", "reciprocal",
        "--catalog", "example1", "--n", "1", "--z", "0+0i", "--omit", "1+0i",
    )
    assert code == 3
    assert "GuardViolation" in err


def test_identity_conjugacy_violation_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "identity", "conjugation",
        "--family", "exp(z)", "--family", "exp(n*z)",
        "--n", "2", "--z", "0.3+0i", "--phi", "1,0,0,1",
    )
    assert code == 3
    assert "ConjugacyViolated" in err


def test_identity_missing_map_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        "identity", "mobius-invariance",
        "--family", "exp(n*z)", "--n", "1", "--z", "0+0i",
    )
    assert code == 2
    assert "--mobius" in err


# ---------------------------------------------------------------------------
# scans

_SCAN_ARGS = (
    "--grid=-0.1,0.1,-0.1,0.1,2,2",
    "--n-min", "1", "--n-max", "8",
    "--workers", "1", "--seed", "0",
)


def _direct_scan(seed=0):
    grid = GridSpec(-0.1, 0.1, -0.1, 0.1, 2, 2)
    report = marty_scan(parse("exp(n*z)"), grid, range(1, 9), seed=seed, workers=1)
    return rows_to_csv(scan_rows(report, classify(report), "csv"))


def test_scan_marty_matches_library(capsys):
    code, out, _ = run_cli(capsys, "scan-marty", "--catalog", "example1", *_SCAN_ARGS)
    assert code == 0
    assert out.splitlines()[0] == "re,im,sup_stat,argmax_n,growth_slope,flags,verdict"
    assert out == _direct_scan()


def test_scan_workers_do_not_change_output(capsys):
    code, base, _ = run_cli(capsys, "scan-marty", "--catalog", "example1", *_SCAN_ARGS)
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "scan-marty", "--catalog", "example1",
        "--grid=-0.1,0.1,-0.1,0.1,2,2",
        "--n-min", "1", "--n-max", "8", "--workers", "2", "--seed", "0",
    )
    assert code == 0
    assert out == base


def test_scan_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    code, out, _ = run_cli(
        capsys,
        "scan-marty", "--catalog", "example1",
        "--grid=-0.1,0.1,-0.1,0.1,2,2",
        "--n-min", "1", "--n-max", "8", "--workers", "1",
    )
    assert code == 0
    assert out == _direct_scan(seed=7)
    # an explicit --seed wins over the environment
    code, out, _ = run_cli(capsys, "scan-marty", "--catalog", "example1", *_SCAN_ARGS)
    assert out == _direct_scan(seed=0)


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_a_seed_env_that_is_no_integer_is_named_in_its_error(capsys, monkeypatch, value):
    monkeypatch.setenv(SEED_ENV_VAR, value)
    code, out, err = run_cli(
        capsys,
        "scan-marty", "--catalog", "example1",
        "--grid=-0.1,0.1,-0.1,0.1,2,2",
        "--n-min", "1", "--n-max", "8", "--workers", "1",
    )
    assert (code, out) == (2, "")
    assert err == f"error: ${SEED_ENV_VAR} must be an integer, not {value!r}\n"


def test_seed_overrides_a_seed_env_that_is_no_integer(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    code, out, _ = run_cli(capsys, "scan-marty", "--catalog", "example1", *_SCAN_ARGS)
    assert code == 0
    assert out == _direct_scan(seed=0)


def test_scan_json_serializes_nonfinite_slopes(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan-sd", "--family", "1/(z - z)",
        "--grid", "0,1,0,1,1,1",
        "--n-min", "1", "--n-max", "8", "--workers", "1", "--seed", "0",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["growth_slope"] == "inf"
    assert rows[0]["flags"] == "Pole"
    assert rows[0]["verdict"] == "divergent"


def test_scan_rejects_zero_workers(capsys):
    code, _, err = run_cli(
        capsys,
        "scan-marty", "--catalog", "example1",
        "--grid", "0,1,0,1,1,1", "--workers", "0",
    )
    assert code == 2
    assert "--workers" in err


def test_scan_rejects_inverted_n_range(capsys):
    code, _, err = run_cli(
        capsys,
        "scan-marty", "--catalog", "example1",
        "--grid", "0,1,0,1,1,1", "--n-min", "5", "--n-max", "2", "--workers", "1",
    )
    assert code == 2
    assert "n-min" in err


# ---------------------------------------------------------------------------
# bound


def test_bound_csv_frozen_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound", "--family", "(z^2)/n",
        "--n-min", "1", "--n-max", "2",
        "--z0", "0+0i", "--z", "0.5+0i",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,K_estimate,bound_rhs,observed,passed,value_at_z0"
    assert lines[1] == "1,1.0,0.5,0.25,true,0+0i"
    assert lines[2] == "2,0.5,0.25,0.125,true,0+0i"
    direct = local_bound_estimate(parse("(z^2)/n"), (1, 2), 0j, 0.5 + 0j)
    assert out == rows_to_csv(bound_rows(direct))


def test_bound_undersampled_derivative_fails(capsys):
    # f' = z - z^2 vanishes at both segment endpoints, so two samples see
    # K = 0 while the values still move
    code, out, _ = run_cli(
        capsys,
        "bound", "--family", "(z^2)/2 - (z^3)/3",
        "--n-min", "1", "--n-max", "1",
        "--z0", "0+0i", "--z", "1+0i",
        "--segment-samples", "2", "--format", "json",
    )
    assert code == 1
    (row,) = json.loads(out)
    assert row["passed"] is False
    assert row["K_estimate"] == 0.0


def test_bound_segment_failure_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "bound", "--catalog", "example1",
        "--n-min", "1", "--n-max", "32",
        "--z0", "0+0i", "--z", "30+0i",
    )
    assert code == 3
    assert "24" in err


# ---------------------------------------------------------------------------
# hypotheses

_HYP_ARGS = (
    "--grid=-0.17,0.17,-0.17,0.17,5,5",
    "--radius", "0.001",
    "--n-min", "1", "--n-max", "8",
    "--zeta", "0+0i", "--L", "0.1", "--seed", "0",
)


def test_hypotheses_pass_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "hypotheses", "--family", "z + (z^2)/n", "--epsilon", "0.5", *_HYP_ARGS,
    )
    assert code == 0
    grid = GridSpec(-0.17, 0.17, -0.17, 0.17, 5, 5, 0.001, 9)
    direct = check_theorem_hypotheses(
        parse("z + (z^2)/n"), range(1, 9), grid, 0.5, 0j, 0.1, seed=0
    )
    assert out == rows_to_json(hypotheses_row(direct, "json"))
    row = json.loads(out)
    assert row["passed"] is True and row["sd_bound"] == pytest.approx(24.0, rel=1e-6)


def test_hypotheses_floor_failure_exits_1(capsys):
    code, out, _ = run_cli(
        capsys,
        "hypotheses", "--family", "z + (z^2)/n", "--epsilon", "0.8", *_HYP_ARGS,
    )
    assert code == 1
    row = json.loads(out)
    assert row["floor_ok"] is False and row["passed"] is False


def test_hypotheses_bound_overflow_exits_3(capsys):
    # (M2/epsilon)^2 passes the double range: a refusal, not a traceback
    code, out, err = run_cli(
        capsys,
        "hypotheses", "--family", "exp(n*exp(z))", "--grid=-1,6.5,-0.5,0.5,7,5",
        "--radius", "0.2", "--n-max", "12", "--epsilon", "0.1",
        "--zeta", "0.5+0i", "--L", "100",
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: OverflowAtPoint: Schwarzian bound not finite")


# ---------------------------------------------------------------------------
# limits: each count that sizes an allocation or a process pool is refused
# one past its limit, before anything is built


@pytest.mark.parametrize(
    "argv,message",
    [
        (("scan-marty", "--catalog", "example1", "--grid", "0,1,0,1,250001,1"), "250000 points"),
        (("scan-sd", "--catalog", "example1", "--grid", "0,1,0,1,1,1", "--samples", "129"),
         "at most 128"),
        (("scan-marty", "--catalog", "example1", "--grid", "0,1,0,1,1,1", "--n-max", "1025"),
         "1024 n values"),
        (("scan-marty", "--catalog", "example1", "--grid", "0,1,0,1,1,1",
          "--n-max", str(10**12)), "1024 n values"),
        (("bound", "--catalog", "example1", "--n-max", "1025", "--z0", "0", "--z", "1"),
         "1024 n values"),
        (("bound", "--catalog", "example1", "--n-max", "1", "--z0", "0", "--z", "1",
          "--segment-samples", "100001"), "at most 100000"),
        (("hypotheses", "--catalog", "example1", "--grid", "0,1,0,1,1,1", "--n-max", "1025",
          "--epsilon", "0.5", "--zeta", "0", "--L", "1"), "1024 n values"),
        (("scan-sd", "--catalog", "example1", "--grid", "0,1,0,1,1,1", "--workers", "65"),
         "at most 64"),
    ],
    ids=["grid-points", "samples", "n-range", "n-range-huge", "bound-n-range",
         "segment-samples", "hypotheses-n-range", "workers"],
)
def test_counts_past_their_limits_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


# ---------------------------------------------------------------------------
# golden bytes: literal outputs of every subcommand in both formats

_GOLDEN_EVAL = ("eval", "--family", "z^3+z", "--n", "2", "--z", "1+0i")
_GOLDEN_IDENTITY = (
    "identity", "mobius-invariance", "--family", "z^3+n*z",
    "--n", "2", "--z", "0.5+0i", "--mobius", "2,1,1,1",
)
_GOLDEN_MARTY = (
    "scan-marty", "--family", "z^2+n*z", "--grid", "0,1,0,1,2,1",
    "--n-max", "4", "--samples", "2", "--workers", "1", "--seed", "0",
)
_GOLDEN_SD = (
    "scan-sd", "--family", "1/(z-z)", "--grid", "0,1,0,1,1,1",
    "--n-max", "4", "--samples", "2", "--workers", "1", "--seed", "0",
)
_GOLDEN_BOUND = ("bound", "--family", "(z^2)/n", "--n-max", "2", "--z0", "0+0i", "--z", "0.5+0i")
_GOLDEN_HYPOTHESES = (
    "hypotheses", "--family", "z + (z^2)/n", "--grid", "0,0.5,0,0.5,2,1",
    "--radius", "0.001", "--samples", "1", "--n-max", "2",
    "--epsilon", "0.5", "--zeta", "0+0i", "--L", "0.1",
)

_GOLDEN = {
    "eval-csv": (
        _GOLDEN_EVAL, "csv",
        "v,d1,d2,d3,schwarzian,spherical\n"
        "2+0i,4+0i,6+0i,6+0i,-1.875+0i,0.8\n",
    ),
    "eval-json": (
        _GOLDEN_EVAL, "json",
        '{\n  "v": "2+0i",\n  "d1": "4+0i",\n  "d2": "6+0i",\n  "d3": "6+0i",\n'
        '  "schwarzian": "-1.875+0i",\n  "spherical": "0.8"\n}\n',
    ),
    "identity-csv": (
        _GOLDEN_IDENTITY, "csv",
        "lhs,rhs,abs_gap,rel_gap,passed,tolerance_used\n"
        "0.39669421487603129+0i,0.39669421487603307+0i,1.7763568394002505e-15,"
        "4.477899532654798e-15,true,1e-10\n",
    ),
    "identity-json": (
        _GOLDEN_IDENTITY, "json",
        '{\n  "lhs": "0.39669421487603129+0i",\n  "rhs": "0.39669421487603307+0i",\n'
        '  "abs_gap": 1.7763568394002505e-15,\n  "rel_gap": 4.477899532654798e-15,\n'
        '  "passed": true,\n  "tolerance_used": 1e-10,\n  "error_bound": null,\n'
        '  "rule": "abs"\n}\n',
    ),
    "scan-marty-csv": (
        _GOLDEN_MARTY, "csv",
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "0,0,4.0,4,nan,,inconclusive\n"
        "1,0,0.6,1,nan,,inconclusive\n",
    ),
    "scan-marty-json": (
        _GOLDEN_MARTY, "json",
        '[\n  {\n    "re": 0.0,\n    "im": 0.0,\n    "sup_stat": 4.0,\n    "argmax_n": 4,\n'
        '    "growth_slope": "nan",\n    "flags": "",\n    "verdict": "inconclusive"\n  },\n'
        '  {\n    "re": 1.0,\n    "im": 0.0,\n    "sup_stat": 0.6,\n    "argmax_n": 1,\n'
        '    "growth_slope": "nan",\n    "flags": "",\n    "verdict": "inconclusive"\n  }\n]\n',
    ),
    "scan-sd-csv": (
        _GOLDEN_SD, "csv",
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "0,0,0.0,-1,inf,Pole,divergent\n",
    ),
    "scan-sd-json": (
        _GOLDEN_SD, "json",
        '[\n  {\n    "re": 0.0,\n    "im": 0.0,\n    "sup_stat": 0.0,\n    "argmax_n": -1,\n'
        '    "growth_slope": "inf",\n    "flags": "Pole",\n    "verdict": "divergent"\n  }\n]\n',
    ),
    "bound-csv": (
        _GOLDEN_BOUND, "csv",
        "n,K_estimate,bound_rhs,observed,passed,value_at_z0\n"
        "1,1.0,0.5,0.25,true,0+0i\n"
        "2,0.5,0.25,0.125,true,0+0i\n",
    ),
    "bound-json": (
        _GOLDEN_BOUND, "json",
        '[\n  {\n    "n": 1,\n    "K_estimate": 1.0,\n    "bound_rhs": 0.5,\n'
        '    "observed": 0.25,\n    "passed": true,\n    "value_at_z0": "0+0i"\n  },\n'
        '  {\n    "n": 2,\n    "K_estimate": 0.5,\n    "bound_rhs": 0.25,\n'
        '    "observed": 0.125,\n    "passed": true,\n    "value_at_z0": "0+0i"\n  }\n]\n',
    ),
    "hypotheses-csv": (
        _GOLDEN_HYPOTHESES, "csv",
        "epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,"
        "max_abs_schwarzian,sound,passed\n"
        "0.5,0.1,true,true,1.0,2.0,0.0,24.0,6.0,true,true\n",
    ),
    "hypotheses-json": (
        _GOLDEN_HYPOTHESES, "json",
        '{\n  "epsilon": 0.5,\n  "L": 0.1,\n  "floor_ok": true,\n  "value_ok": true,\n'
        '  "min_abs_derivative": 1.0,\n  "M2": 2.0,\n  "M3": 0.0,\n  "sd_bound": 24.0,\n'
        '  "max_abs_schwarzian": 6.0,\n  "sound": true,\n  "flags": "",\n  "passed": true\n}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_golden_output_bytes(capsys, case):
    argv, fmt, expected = _GOLDEN[case]
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == expected


# families whose samples fail: each scan row keeps the flags of its first
# failures, and a refusal keeps its message
_FLAG_FAMILIES = {
    "near-pole": ("z^2+1/(z-0.1)", "0,0.2,0,0.2,3,1"),
    "log": ("log(z)*n", "-0.1,0.1,0,0.1,3,1"),
    "exp-exp": ("exp(n*exp(z))", "5.5,6.5,-0.5,0.5,2,1"),
    "pole-everywhere": ("1/(z-z)", "0,1,0,1,2,1"),
    "power-and-log": ("z^-3+log(z-n)", "0,1,0,1,2,2"),
}
_FLAG_COMMON = ("--radius", "0.1", "--samples", "3", "--n-max", "4", "--format", "csv")
_FLAG_EXTRA = {
    "scan-marty": ("--workers", "1", "--seed", "0"),
    "scan-sd": ("--workers", "1", "--seed", "0"),
    "hypotheses": ("--epsilon", "0.5", "--zeta", "0.3+0.2i", "--L", "10"),
}

_GOLDEN_FLAGS = {
    "scan-marty-near-pole": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "0,0,0.9987180082830034,1,nan,,inconclusive\n"
        "0.10000000000000001,0,0.9974131995178173,1,inf,Pole,divergent\n"
        "0.20000000000000001,0,0.9986695942899733,1,nan,,inconclusive\n",
        "",
    ),
    "scan-sd-near-pole": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "0,0,21.80727930638757,1,nan,,inconclusive\n"
        "0.10000000000000001,0,18.867393158265095,1,inf,Pole,divergent\n"
        "0.20000000000000001,0,9.765285489499128,1,nan,,inconclusive\n",
        "",
    ),
    "hypotheses-near-pole": (
        1,
        "epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,"
        "max_abs_schwarzian,sound,passed\n"
        "0.5,10.0,false,true,24.610048847772962,15966.848391293393,"
        "957238.7951407627,1531555962.893572,6.273413053364201,true,false\n",
        "",
    ),
    "scan-marty-log": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "-0.10000000000000001,0,1.5031467342344498,1,nan,,inconclusive\n"
        "0,0,1.3564995093382262,1,inf,Pole,divergent\n"
        "0.10000000000000001,0,1.629250404473794,1,nan,,inconclusive\n",
        "",
    ),
    "scan-sd-log": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "-0.10000000000000001,0,0.7935658202326688,1,nan,,inconclusive\n"
        "0,0,0.3998400639744104,1,inf,Pole,divergent\n"
        "0.10000000000000001,0,0.7941746509196104,1,nan,,inconclusive\n",
        "",
    ),
    "hypotheses-log": (
        1,
        "epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,"
        "max_abs_schwarzian,sound,passed\n"
        "0.5,10.0,false,true,5.019114433709718,1597.6973389982327,"
        "63861.89006039561,15443544.502372995,199.71216737477906,true,false\n",
        "",
    ),
    "scan-marty-exp-exp": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "5.5,-0.5,4.684990163606155e-84,1,nan,Overflow,inconclusive\n"
        "6.5,-0.5,0.0,-1,nan,Overflow,inconclusive\n",
        "",
    ),
    "scan-sd-exp-exp": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "5.5,-0.5,8.158361387711653e-05,1,nan,Overflow,inconclusive\n"
        "6.5,-0.5,1.1043057342959287e-05,1,nan,Overflow,inconclusive\n",
        "",
    ),
    "hypotheses-exp-exp": (
        3,
        "",
        "error: OverflowAtPoint: Schwarzian bound not finite: M2 3.2342156365426963e+285,"
        " M3 2.3798356385296316e+288, epsilon 0.5\n",
    ),
    "scan-marty-pole-everywhere": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "0,0,0.0,-1,inf,Pole,divergent\n"
        "1,0,0.0,-1,inf,Pole,divergent\n",
        "",
    ),
    "scan-sd-pole-everywhere": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "0,0,0.0,-1,inf,Pole,divergent\n"
        "1,0,0.0,-1,inf,Pole,divergent\n",
        "",
    ),
    "hypotheses-pole-everywhere": (
        3,
        "",
        "error: EvalError: evaluation error at source span 0..7: "
        "division by (near-)zero denominator\n",
    ),
    "scan-marty-power-and-log": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "0,0,0.030187538222028385,4,inf,Pole,divergent\n"
        "1,0,2.1513097610914804,1,inf,Pole,divergent\n"
        "0,1,0.3227577023893736,1,nan,,inconclusive\n"
        "1,1,0.48544938797143455,1,nan,,inconclusive\n",
        "",
    ),
    "scan-sd-power-and-log": (
        0,
        "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "0,0,0.0500182896284296,1,inf,Pole,divergent\n"
        "1,0,14.028195465352963,3,inf,Pole,divergent\n"
        "0,1,4.102090938623392,2,nan,,inconclusive\n"
        "1,1,1.955097226491657,1,nan,,inconclusive\n",
        "",
    ),
    "hypotheses-power-and-log": (
        1,
        "epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,"
        "max_abs_schwarzian,sound,passed\n"
        "0.5,10.0,false,false,0.40311288741492746,1200001.046993641,"
        "60000000.329158895,8640135076715.665,400.0537122948339,true,false\n",
        "",
    ),
}


@pytest.mark.parametrize("family", sorted(_FLAG_FAMILIES))
@pytest.mark.parametrize("command", sorted(_FLAG_EXTRA))
def test_golden_flag_bytes(capsys, command, family):
    text, grid = _FLAG_FAMILIES[family]
    argv = (command, "--family", text, f"--grid={grid}", *_FLAG_COMMON, *_FLAG_EXTRA[command])
    assert run_cli(capsys, *argv) == _GOLDEN_FLAGS[f"{command}-{family}"]


def _raise_on_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


_BOUND_RHS_INF = (
    "bound", "--family", "exp(n*z)", "--n-min", "700", "--n-max", "700",
    "--z0", "0.98-50000000i", "--z", "0.98+50000000i", "--segment-samples", "8",
)
_HYPOTHESES_L_INF = (
    "hypotheses", "--family", "z + (z^2)/n", "--grid=-0.17,0.17,-0.17,0.17,5,5",
    "--radius", "0.001", "--n-max", "8", "--epsilon", "0.5", "--zeta", "0+0i", "--L", "inf",
)


@pytest.mark.parametrize(
    "argv,key",
    [(_BOUND_RHS_INF, "bound_rhs"), (_HYPOTHESES_L_INF, "L")],
    ids=["bound-rhs-inf", "hypotheses-L-inf"],
)
def test_json_output_is_strict(capsys, argv, key):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    parsed = json.loads(out, parse_constant=_raise_on_constant)
    row = parsed[0] if isinstance(parsed, list) else parsed
    assert row[key] == "inf"


# ---------------------------------------------------------------------------
# output plumbing


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run_cli(
        capsys,
        "eval", "--family", "exp(n*z)", "--n", "3", "--z", "0+0i",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == rows_to_csv(eval_record(parse("exp(n*z)"), 3, 0j))


def test_out_unwritable_path_exits_4(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "eval", "--family", "z", "--n", "1", "--z", "0+0i",
        "--out", str(tmp_path / "missing" / "row.json"),
    )
    assert code == 4
    assert "error" in err


@pytest.mark.skipif(
    shutil.which("schwarzian-lab") is None,
    reason="the schwarzian-lab console script is not on PATH (package not installed)",
)
def test_installed_console_script():
    proc = subprocess.run(
        [
            "schwarzian-lab",
            "eval", "--family", "exp(n*z)", "--n", "3", "--z", "0+0i",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schwarzian"] == "-4.5+0i"


def test_module_entry_point_error_code():
    # the child imports the package this suite imports, installed or not
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "schwarzian_lab.cli", "eval", "--family", "z +",
         "--n", "1", "--z", "0+0i"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# signed zeros that reach a log on the negative real axis, or the output
#
# Literal bytes recorded before the evaluator was generated from the jet
# formulas, which folds exactly known terms away: a signed zero can move a
# log across its branch cut.  ``eval`` runs one call per node, ``bound``'s
# segments run the generated lane function.

_SIGNED_ZERO_GOLDENS = [
    (['eval', '--family=log(0*z-1)', '--n=1', '--z=1+1i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0+3.1415926535897931i,0-0i,0-0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=log(0*z-1)', '--n=1', '--z=-1+1i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0+3.1415926535897931i,0-0i,0-0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=log(0*z-1)', '--n=1', '--z=1-1i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0+3.1415926535897931i,0-0i,0-0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=log(0*z-1)', '--n=1', '--z=-1-1i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0-3.1415926535897931i,0-0i,0-0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=log(-z)', '--n=1', '--z=2+0i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0.69314718055994529-3.1415926535897931i,0.5+0i,-0.25+0i,0.25+0i,0.125+0i,0.04405264059183325\n', ''),
    (['eval', '--family=log(z*0*n-n)', '--n=3', '--z=-0.5-2i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n1.0986122886681098+3.1415926535897931i,0-0i,0-0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=log(-(z-z)-1)*z', '--n=1', '--z=0.25+0.5i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n1.5707963267948966-0.78539816339744828i,0-3.1415926535897931i,0+0i,0+0i,-0+0i,0.7691966935624623\n', ''),
    (['eval', '--family=log((z-z)*i-1)+n*z', '--n=-0', '--z=-0.5+0.5i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0+3.1415926535897931i,0+0i,0+0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=-(z-z)*n+log(z*i*i)', '--n=2', '--z=1-0i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0+3.1415926535897931i,1+0i,-1+0i,2+0i,0.5+0i,0.09199966835037524\n', ''),
    (['eval', '--family=log(exp(n*z)*0-1)', '--n=-1', '--z=0.5-0.5i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0+3.1415926535897931i,0-0i,0-0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=n*z', '--n=-0', '--z=-1+1i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0-0i,-0+0i,0+0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=n*z', '--n=-0', '--z=1-1i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0+0i,0+0i,0+0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=exp(n*z)', '--n=-0', '--z=-1+0.5i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n1-0i,0+0i,0+0i,0+0i,CriticalPointError,0.0\n', ''),
    (['eval', '--family=z*n-z*n', '--n=0', '--z=-1-1i', '--format', 'csv'],
     0, 'v,d1,d2,d3,schwarzian,spherical\n0+0i,0+0i,0+0i,0+0i,CriticalPointError,0.0\n', ''),
    (['identity', 'composition', '--family=log(0*z-1)+z^2', '--family=z*i-n', '--n=2', '--z=-0.5-0.5i', '--format', 'csv'],
     0, 'lhs,rhs,abs_gap,rel_gap,passed,tolerance_used\n0+3i,0+3i,0.0,0.0,true,1e-10\n', ''),
    (['identity', 'composition', '--family=n*z-z^3', '--family=log(z*0-n)*z', '--n=-0', '--z=0.5+0.25i', '--format', 'json'],
     3, '', 'error: EvalError: evaluation error at source span 0..10: log of (near-)zero value\n'),
    (['bound', '--family=log(0*z-1)', '--n-max=2', '--z0=-1-1i', '--z=1+1i', '--format', 'csv'],
     1, 'n,K_estimate,bound_rhs,observed,passed,value_at_z0\n1,0.0,0.0,6.283185307179586,false,0-3.1415926535897931i\n2,0.0,0.0,6.283185307179586,false,0-3.1415926535897931i\n', ''),
    (['bound', '--family=log(0*z-1)', '--n-max=2', '--z0=-1+1i', '--z=1-1i', '--format', 'csv'],
     0, 'n,K_estimate,bound_rhs,observed,passed,value_at_z0\n1,0.0,0.0,0.0,true,0+3.1415926535897931i\n2,0.0,0.0,0.0,true,0+3.1415926535897931i\n', ''),
    (['bound', '--family=log(z*0*n-n)+z', '--n-max=2', '--z0=-0.5-2i', '--z=0.5+1i', '--format', 'csv'],
     0, 'n,K_estimate,bound_rhs,observed,passed,value_at_z0\n1,1.0,3.1622776601683795,3.1622776601683795,true,-0.5+1.1415926535897931i\n2,1.0,3.1622776601683795,3.1622776601683795,true,0.19314718055994529+1.1415926535897931i\n', ''),
    (['bound', '--family=log(-(z-z)-1)*z', '--n-max=1', '--z0=0.25+0.5i', '--z=-0.25-0.5i', '--format', 'csv'],
     0, 'n,K_estimate,bound_rhs,observed,passed,value_at_z0\n1,3.141592653589793,3.5124073655203634,3.512407365520363,true,1.5707963267948966-0.78539816339744828i\n', ''),
    (['bound', '--family=log(exp(n*z)*0-1)', '--n-max=2', '--z0=0.5-0.5i', '--z=0.5+0.5i', '--format', 'csv'],
     0, 'n,K_estimate,bound_rhs,observed,passed,value_at_z0\n1,0.0,0.0,0.0,true,0+3.1415926535897931i\n2,0.0,0.0,0.0,true,0+3.1415926535897931i\n', ''),
]


@pytest.mark.parametrize("argv,code,out,err", _SIGNED_ZERO_GOLDENS)
def test_signed_zero_golden_bytes(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv) == (code, out, err)


# ---------------------------------------------------------------------------
# moduli past the double range
#
# abs() of a finite complex raises OverflowError once both parts near
# 1.5e308; every subcommand maps that to the Overflow failure it reports.

_BIG = "15" + "0" * 307  # 1.5e308, a literal within the double range
_GRID = "--grid=-1,1,-1,1,3,3"
_PAST = "modulus overflowed the finite range"


@pytest.mark.parametrize(
    "argv,code,text",
    [
        (["eval", f"--family=1/((1+i)*{_BIG})", "--n=1", "--z=0+0i"], 3,
         f"EvalError: evaluation error at source span 0..{len(_BIG) + 10}: {_PAST}"),
        (["eval", f"--family=(1+i)*{_BIG}*z", "--n=1", "--z=1+0i"], 3,
         f"OverflowAtPoint: {_PAST}"),
        (["scan-marty", f"--family=1/((1+i)*{_BIG})+z", _GRID, "--n-max=4", "--workers=1"], 0,
         "Overflow"),
        (["scan-marty", f"--family=(1+i)*{_BIG}*z", _GRID, "--n-max=4", "--workers=2"], 0,
         "Overflow"),
        (["scan-sd", f"--family=1/((1+i)*{_BIG})+z", _GRID, "--n-max=4", "--workers=1"], 0,
         "Overflow"),
        (["hypotheses", f"--family=(1+i)*{_BIG}*z", _GRID, "--n-max=3", "--epsilon=0.1",
          "--zeta=0+0i", "--L=1"], 1, '"floor_ok": false'),
        (["hypotheses", f"--family=1/((1+i)*{_BIG})+z", _GRID, "--n-max=3", "--epsilon=0.1",
          "--zeta=0+0i", "--L=1"], 3, _PAST),
        (["bound", f"--family=(1+i)*{_BIG}*z", "--n-max=2", "--z0=0+0i", "--z=1+0i"], 3,
         "SegmentEvaluationError: segment evaluation failed for n in [1, 2]"),
        (["identity", "mobius-invariance", f"--family=1/((1+i)*{_BIG})+z", "--n=1",
          "--z=0.5+0i", "--mobius=1,0,0,1"], 3, _PAST),
        (["identity", "reciprocal", f"--family=1/((1+i)*{_BIG})+z", "--n=1", "--z=0.5+0i",
          "--omit=5"], 3, _PAST),
        (["identity", "composition", "--family=z", f"--family=1/((1+i)*{_BIG})+z", "--n=1",
          "--z=0.5+0i"], 3, _PAST),
        (["identity", "conjugation", f"--family=1/((1+i)*{_BIG})+z", "--family=z",
          "--n=1", "--z=0.5+0i", "--phi=1,0,0,1"], 3, _PAST),
    ],
)
def test_modulus_past_the_double_range_keeps_the_exit_contract(capsys, argv, code, text):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
    assert text in (err if code == 3 else out)


# ---------------------------------------------------------------------------
# a radius whose eighth underflows to 0, the step of the S' stencil that
# scan-sd once refused: every grid command takes it

_TINY_RADIUS = ["--family=exp(z)", "--grid=0,1,0,1,2,1", "--radius=1e-323", "--n-max=2",
                "--samples=2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-marty", *_TINY_RADIUS, "--workers=1"],
        ["hypotheses", *_TINY_RADIUS, "--epsilon=0.5", "--zeta=0+0i", "--L=10"],
        ["scan-sd", *_TINY_RADIUS, "--workers=1"],
    ],
)
def test_the_other_grid_commands_take_a_radius_whose_stencil_step_is_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1) and out and err == ""


# ---------------------------------------------------------------------------
# an integer n past the double range

_HUGE_N = ["--n-min=1" + "0" * 400, "--n-max=1" + "0" * 400]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-marty", "--family=exp(n*z)", _GRID, *_HUGE_N],
        ["scan-sd", "--family=exp(n*z)", _GRID, *_HUGE_N],
        ["hypotheses", "--family=z+(z^2)/n", _GRID, *_HUGE_N, "--epsilon=0.1",
         "--zeta=0+0i", "--L=1"],
        ["bound", "--family=z", *_HUGE_N, "--z0=0+0i", "--z=1+0i"],
    ],
)
def test_n_past_the_double_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: n values must lie within the double range\n"


# ---------------------------------------------------------------------------
# one parser per process

_EVERY_SUBCOMMAND = [
    ["eval", "--family", "exp(n*z)", "--n", "3", "--z", "0+0i"],
    ["identity", "mobius-invariance", "--family", "exp(n*z)", "--n", "2", "--z", "0.3+0i",
     "--mobius", "3,1,1,-2", "--format", "csv"],
    ["identity", "composition", "--family", "z^2", "--family", "exp(z)", "--n", "1", "--z", "1+0i"],
    ["identity", "reciprocal", "--catalog", "example3", "--n", "1", "--z", "1+1i", "--omit", "0"],
    ["identity", "conjugation", "--catalog", "example4-f", "--catalog", "example4-g", "--n", "4",
     "--z", "0.2+0i", "--phi", "n,0,0,1"],
    ["scan-marty", "--catalog", "example1", "--grid=-1,1,-1,1,3,3", "--n-max", "8",
     "--workers", "1", "--format", "json"],
    ["scan-sd", "--catalog", "example2", "--grid=-0.5,0.5,-0.5,0.5,3,3", "--n-max", "8",
     "--workers", "1"],
    ["bound", "--family", "(z^2)/n", "--n-max", "2", "--z0", "0+0i", "--z", "0.5+0i"],
    ["hypotheses", "--family", "z + (z^2)/n", "--grid=-0.17,0.17,-0.17,0.17,3,3",
     "--radius", "0.001", "--n-max", "4", "--epsilon", "0.5", "--zeta", "0+0i", "--L", "0.1"],
    ["eval", "--family", "1/z"],
    ["scan-marty", "--catalog", "nope"],
]


def _run_or_exit(capsys, argv):
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:  # argparse's own errors
        return (exc.code, *capsys.readouterr())


def test_cached_parser_gives_a_fresh_parsers_bytes(capsys):
    # each subcommand's parser is built once per process, from the first
    # argv that names it
    fresh = []
    for argv in _EVERY_SUBCOMMAND:
        cli._build_parser.cache_clear()
        fresh.append(_run_or_exit(capsys, argv))
    order = random.Random(5).sample(range(len(_EVERY_SUBCOMMAND)), len(_EVERY_SUBCOMMAND))
    for k in order * 2:
        assert _run_or_exit(capsys, _EVERY_SUBCOMMAND[k]) == fresh[k]
    info = cli._build_parser.cache_info()
    assert info.misses == info.currsize == len({argv[0] for argv in _EVERY_SUBCOMMAND}) == 6


def test_cached_parser_keeps_families_apart(capsys):
    run_cli(capsys, "identity", "composition", "--family", "z^2", "--family", "exp(z)",
            "--n", "1", "--z", "1+0i")
    args = cli._build_parser().parse_args(["eval", "--family", "z", "--n", "1", "--z", "0+0i"])
    assert args.family_specs == ["z"]
    assert run_cli(capsys, "eval", "--family", "z", "--n", "1", "--z", "0+0i")[0] == 0


def test_cached_parser_resolves_the_seed_and_the_scan_per_call(capsys, monkeypatch):
    argv = ["scan-marty", "--catalog", "example1", "--grid=-1,1,-1,1,3,3", "--n-max", "8",
            "--workers", "1"]
    run_cli(capsys, *argv)  # the parser now exists
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    seeded = run_cli(capsys, *argv, "--seed", "7")
    assert run_cli(capsys, *argv) == seeded != run_cli(capsys, *argv, "--seed", "0")
    seen = []
    # the scan is probe's, read when the command runs
    monkeypatch.setattr(probe, "marty_scan", lambda *a, **k: seen.append(a) or marty_scan(*a, **k))
    run_cli(capsys, *argv)
    assert len(seen) == 1


# each subcommand's required arguments, and an option of it that a type= refuses
_REQUIRED = {
    "eval": (["--family=z", "--n=1", "--z=0+0i"], "--n=x"),
    "identity": (["composition", "--family=z", "--family=z", "--n=1", "--z=0+0i"], "--z=x"),
    "scan-marty": (["--family=z", "--grid=0,1,0,1,2,1"], "--samples=many"),
    "scan-sd": (["--family=z", "--grid=0,1,0,1,2,1"], "--grid=0,1"),
    "bound": (["--family=z", "--z0=0+0i", "--z=1+0i"], "--segment-samples=many"),
    "hypotheses": (["--family=z", "--grid=0,1,0,1,2,1", "--epsilon=0.5", "--zeta=0+0i",
                    "--L=1"], "--L=x"),
}


def _parsed(capsys, parser, argv):
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())
    return (args, *capsys.readouterr())


@pytest.mark.parametrize("name", sorted(_REQUIRED))
def test_a_subcommands_own_parser_parses_as_the_full_one(capsys, name):
    # main builds the invoked subcommand's parser alone: its help, its
    # namespace, and each refusal's usage and error lines (the top parser's
    # for an unrecognized argument, which name all six subcommands) are the
    # full parser's
    required, bad_type = _REQUIRED[name]
    argvs = [
        [name, "-h"],
        [name, *required],
        [name, *required, "--bogus"],
        [name],
        [name, *required, "--format", "xml"],
        [name, *required, bad_type],
    ]
    alone, full = cli._build_parser((name,)), cli._build_parser()
    got = [_parsed(capsys, alone, argv) for argv in argvs]
    assert got == [_parsed(capsys, full, argv) for argv in argvs]
    assert [out[0] for k, out in enumerate(got) if k != 1] == [0, 2, 2, 2, 2]
    assert got[0][1].startswith(f"usage: schwarzian-lab {name} [-h]")
    assert got[1][0]["handler"] is not None
    assert got[2][2].startswith(
        "usage: schwarzian-lab [-h]\n"
        "                      {eval,identity,scan-marty,scan-sd,bound,hypotheses} ...\n"
    )


# ---------------------------------------------------------------------------
# sample points past the double range, and segments that fail
#
# Literal bytes recorded before the lane function took points in place of
# the variable's jets.  A grid point whose samples are not all finite is
# refused with exit 2 before any of its batches runs.  A radius or grid
# bound that is not finite is refused before sampling, naming the field
# (bytes recorded when ``GridSpec`` began to refuse it).  A ``bound`` segment flags n
# (exit 3) when f_n(z0), f_n(z) or a sample fails, and is refused (exit 2)
# at its first point past the double range once every point before it
# evaluated cleanly.

_E308 = "1" + "0" * 308  # 1e308
_FINITE = "error: jet_var requires a finite point\n"
_OVERLAP = ("warning: neighborhood_radius spans four or more grid cells; "
            "neighboring points will sample heavily overlapping disks\n")
_HYP = ["--epsilon=0.5", "--zeta=0.3+0.2i", "--L=10"]
_EXTRA_OF = {"scan-marty": [], "scan-sd": [], "hypotheses": _HYP}

_NONFINITE_GOLDENS = [
    *(
        ([cmd, "--family=n", "--grid=0,1,0,1,2,1", f"--radius={r}", "--n-max=3", *_EXTRA_OF[cmd]],
         2, "", "error: neighborhood_radius must be finite\n")
        for cmd in _EXTRA_OF for r in ("inf", "nan")
    ),
    *(
        ([cmd, "--family=n", "--grid=1.7e308,1.75e308,0,1,2,1", "--radius=1e308", "--n-max=3",
          "--samples=3", *_EXTRA_OF[cmd]], 2, "", _OVERLAP + _FINITE)
        for cmd in _EXTRA_OF
    ),
    # one sample, the grid point itself, is finite; so is every point an
    # ascent reaches, in the disk about it, or the ascent rejects it
    *(
        ([cmd, "--family=z", "--grid=1.7e308,1.75e308,0,1,2,1", "--radius=1e308",
          "--n-max=3", "--samples=1", "--format=csv"],
         0, "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
            "1.6999999999999999e+308,0,0.0,-1,nan,,inconclusive\n"
            "1.75e+308,0,0.0,-1,nan,,inconclusive\n", _OVERLAP)
        for cmd in ("scan-marty", "scan-sd")
    ),
    (["hypotheses", "--family=z", "--grid=1.7e308,1.75e308,0,1,2,1", "--radius=1e308",
      "--n-max=3", "--samples=1", "--format=csv", *_HYP],
     0, "epsilon,L,floor_ok,value_ok,min_abs_derivative,M2,M3,sd_bound,max_abs_schwarzian,"
        "sound,passed\n0.5,10.0,true,true,1.0,0.0,0.0,0.0,0.0,true,true\n", _OVERLAP),
    # f(z0) fails, for every n and for n = 1 only
    (["bound", "--family=1/z", "--n-max=2", "--z0=0+0i", "--z=1+0i"],
     3, "", "error: SegmentEvaluationError: segment evaluation failed for n in [1, 2]\n"),
    (["bound", "--family=1/(z-n)", "--n-max=2", "--z0=1+0i", "--z=1.5+0i", "--format=csv"],
     3, "", "error: SegmentEvaluationError: segment evaluation failed for n in [1]\n"),
    # f(z) fails
    (["bound", "--family=1/(z-1)", "--n-max=2", "--z0=0+0i", "--z=1+0i", "--segment-samples=7"],
     3, "", "error: SegmentEvaluationError: segment evaluation failed for n in [1, 2]\n"),
    (["bound", "--family=1/(z-2*n)", "--n-max=2", "--z0=3+0i", "--z=4+0i", "--format=csv"],
     3, "", "error: SegmentEvaluationError: segment evaluation failed for n in [2]\n"),
    # z - z0 overflows, so every sample is past the double range: refused
    # once f(z0) and f(z) are clean, for n = 2 after n = 1 was flagged, and
    # flagged when f(z0) fails for every n
    (["bound", "--family=z", "--n-max=2", f"--z0=-{_E308}+0i", f"--z={_E308}+0i"], 2, "", _FINITE),
    (["bound", f"--family=1/(z/n+{_E308})", "--n-max=2", f"--z0=-{_E308}+0i", f"--z={_E308}+0i"],
     2, "", _FINITE),
    (["bound", f"--family=1/(z+{_E308})", "--n-max=2", f"--z0=-{_E308}+0i", f"--z={_E308}+0i"],
     3, "", "error: SegmentEvaluationError: segment evaluation failed for n in [1, 2]\n"),
    # a pole in the middle of the segment, on a sample and between samples
    (["bound", "--family=1/(z-0.5)", "--n-max=2", "--z0=0+0i", "--z=1+0i",
      "--segment-samples=3"],
     3, "", "error: SegmentEvaluationError: segment evaluation failed for n in [1, 2]\n"),
    (["bound", "--family=1/(z-0.5)+z^2", "--n-max=2", "--z0=0+0i", "--z=1+0i",
      "--segment-samples=4", "--format=csv"],
     0, "n,K_estimate,bound_rhs,observed,passed,value_at_z0\n"
        "1,35.33333333333333,35.33333333333333,5.0,true,-2+0i\n"
        "2,35.33333333333333,35.33333333333333,5.0,true,-2+0i\n", ""),
    *(
        ([cmd, "--family=z", f"--grid={grid}", "--n-max=3", *_EXTRA_OF[cmd]], 2, "", err)
        for cmd in _EXTRA_OF
        for grid, err in (("-inf,1,0,1,2,1", "error: re_min must be finite\n"),
                          ("0,1,0,inf,2,1", "error: im_max must be finite\n"))
    ),
    # every bound is finite, but re_max - re_min is not: the axis is taken
    # from its two ends, with no coordinate past the double range
    (["scan-marty", "--family=z", "--grid=-1.7e308,1.7e308,0,1,3,1", "--samples=1", "--n-max=3",
      "--workers=1"],
     0, "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
        "-1.6999999999999999e+308,0,0.0,-1,nan,,inconclusive\n"
        "0,0,1.0,1,nan,,inconclusive\n"
        "1.6999999999999999e+308,0,0.0,-1,nan,,inconclusive\n", ""),
]


@pytest.mark.parametrize(
    "argv,code,out,err", _NONFINITE_GOLDENS, ids=[str(k) for k in range(len(_NONFINITE_GOLDENS))]
)
def test_nonfinite_points_and_failing_segments_golden_bytes(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv) == (code, out, err)


# ---------------------------------------------------------------------------
# thresholds that are not numbers
#
# A nan --cap once marked every point that was not divergent inconclusive
# (exit 0), a nan --epsilon gave an OverflowAtPoint (exit 3), a nan --L
# gave value_ok false (exit 1), and nan tolerances failed a true identity
# (exit 1).  Each is refused, naming the value; so is a negative tolerance.

_GRID_ARGS = ["--grid=0,1,0,1,2,1", "--n-max=3"]
_RECIPROCAL = ["identity", "reciprocal", "--family=exp(z)", "--n=1", "--z=0.3+0i", "--omit=0+0i"]
_NAN_GOLDENS = [
    (["scan-marty", "--family=exp(n*z)", *_GRID_ARGS, "--cap=nan"],
     "error: cap must be positive, got nan\n"),
    (["scan-sd", "--family=exp(n*z)", *_GRID_ARGS, "--cap=nan"],
     "error: cap must be positive, got nan\n"),
    (["hypotheses", "--family=z", *_GRID_ARGS, "--epsilon=nan", "--zeta=0.3+0.2i", "--L=10"],
     "error: epsilon must be positive, got nan\n"),
    (["hypotheses", "--family=z", *_GRID_ARGS, "--epsilon=0.5", "--zeta=0.3+0.2i", "--L=nan"],
     "error: L must be a number, got nan\n"),
    ([*_RECIPROCAL, "--tol-abs=nan", "--tol-rel=nan"],
     "error: tol_abs must be a nonnegative number, got nan\n"),
    ([*_RECIPROCAL, "--tol-rel=nan"], "error: tol_rel must be a nonnegative number, got nan\n"),
    ([*_RECIPROCAL, "--tol-abs=-1e-300"],
     "error: tol_abs must be a nonnegative number, got -1e-300\n"),
    ([*_RECIPROCAL, "--tol-rel=-1"], "error: tol_rel must be a nonnegative number, got -1.0\n"),
]


@pytest.mark.parametrize("argv,err", _NAN_GOLDENS, ids=[str(k) for k in range(len(_NAN_GOLDENS))])
def test_thresholds_that_are_not_numbers_exit_2(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)


# thresholds that the verdicts or the value bound cannot use are refused
# before any evaluation: the scan, or the floor sweep, never runs
_EXP_SCAN = ["--family=exp(n*z)", *_GRID_ARGS]
_EARLY_REFUSALS = [
    *([scan, *_EXP_SCAN, cap] for scan in ("scan-marty", "scan-sd")
      for cap in ("--cap=nan", "--cap=0", "--cap=-1")),
    *([scan, *_EXP_SCAN, "--slope-threshold=0.5", decay] for scan in ("scan-marty", "scan-sd")
      for decay in ("--decay-threshold=0.5", "--decay-threshold=nan")),
    ["hypotheses", "--family=z", *_GRID_ARGS, "--epsilon=0.5", "--zeta=0.3+0.2i", "--L=nan"],
]
_EARLY_ERRORS = {
    "--cap=nan": "error: cap must be positive, got nan\n",
    "--cap=0": "error: cap must be positive, got 0.0\n",
    "--cap=-1": "error: cap must be positive, got -1.0\n",
    "--decay-threshold=0.5": "error: decay_threshold must be below slope_threshold\n",
    "--decay-threshold=nan": "error: decay_threshold must be below slope_threshold\n",
    "--L=nan": "error: L must be a number, got nan\n",
}


@pytest.mark.parametrize("argv", _EARLY_REFUSALS, ids=[" ".join((a[0], a[-1])) for a in _EARLY_REFUSALS])
def test_bad_thresholds_are_refused_before_any_evaluation(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(probe, "eval_jet_lanes", lambda *a: calls.append(a))
    monkeypatch.setattr(probe, "eval_jet", lambda *a: calls.append(a))
    monkeypatch.setattr(os, "fork", lambda: calls.append("fork"))
    scan = argv[0].startswith("scan")
    for run in ([*argv, "--workers=1"], [*argv, "--workers=2"]) if scan else (argv,):
        assert run_cli(capsys, *run) == (2, "", _EARLY_ERRORS[argv[-1]])
    assert calls == []


# ---------------------------------------------------------------------------
# the order rule at the command line: 1/z near 1e-80, where f' = -1/z^2 and
# f'' = 2/z^3 are finite and f''' = -6/z^4 is not.  f# and |f'| read f and
# f' alone, so scan-marty and bound take every sample; so does scan-sd,
# whose S of the Moebius map 1/z is 0 from its jet of order 2, f'' its
# highest part (schwarzian._mobius_parts); the hypotheses floor sweep reads
# f''', so every sample it takes is flagged "Overflow"

_TINY = "0." + "0" * 79
_TINY_GRID = ["--family=1/z", "--grid=1e-80,3e-80,-1e-80,1e-80,3,1", "--radius", "1e-81",
              "--n-max", "4", "--samples", "3"]
_TINY_ROWS = ("9.9999999999999996e-81,-9.9999999999999996e-81,{},{},nan,{},inconclusive\n"
              "2.0000000000000003e-80,-9.9999999999999996e-81,{},{},nan,{},inconclusive\n"
              "3.0000000000000001e-80,-9.9999999999999996e-81,{},{},nan,{},inconclusive\n")
_SCAN_HEADER = "re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"


def test_an_order_one_statistic_takes_samples_whose_higher_parts_overflow(capsys):
    marty = _TINY_ROWS.format("1.0000000000000002", 1, "", "1.0", 1, "", "1.0000000000000002", 1, "")
    sd = _TINY_ROWS.format(*("0.0", -1, "") * 3)
    for workers in ("1", "2"):
        assert run_cli(capsys, "scan-marty", *_TINY_GRID, f"--workers={workers}") == (
            0, _SCAN_HEADER + marty, "")
        assert run_cli(capsys, "scan-sd", *_TINY_GRID, f"--workers={workers}") == (
            0, _SCAN_HEADER + sd, "")
    # hypotheses prints no flags: its floor sweep flags every sample, so
    # sound is false
    code, out, _ = run_cli(capsys, "hypotheses", *_TINY_GRID, "--epsilon=0.5", "--zeta=1+0i",
                           "--L=10", "--format=csv")
    assert (code, out.splitlines()[1]) == (1, "0.5,10.0,false,true,nan,0.0,0.0,0.0,0.0,false,false")
    grid = probe.GridSpec(1e-80, 3e-80, -1e-80, 1e-80, 3, 1, 1e-81, 3)
    floor = probe.derivative_floor_check(parse("1/z"), range(1, 5), grid, 0.5)
    assert floor.flags == (frozenset({"Overflow"}),) * 3
    # bound: f(z0), f(z) and every sample of the segment from 1e-80 to 3e-80
    code, out, _ = run_cli(capsys, "bound", "--family=1/z", "--n-max=2", f"--z0={_TINY}1+0i",
                           f"--z={_TINY}3+0i", "--format=csv")
    row = "1e+160,2.0000000000000003e+80,6.666666666666668e+79,true,1e+80+0i\n"
    assert (code, out) == (0, f"n,K_estimate,bound_rhs,observed,passed,value_at_z0\n1,{row}2,{row}")


def test_the_value_check_reads_f_alone(capsys):
    # |f(zeta)| = 1e243 for (1/z)^9 at 1e-27, a number, though f''' is past
    # the double range there: the value check compares the one with L, and
    # refuses, exit 3, only where f itself leaves the range
    argv = ("hypotheses", "--family=(1/z)^9", "--grid=0.5,1,0.5,1,2,2", "--n-max=2",
            "--epsilon=0.1", f"--zeta=0.{'0' * 26}1+0i", "--format=csv")
    for L, value_ok in (("1e300", "true"), ("1e200", "false")):
        code, out, err = run_cli(capsys, *argv, f"--L={L}")
        assert (code, err) == (0 if value_ok == "true" else 1, "")
        assert out.splitlines()[1].split(",")[3] == value_ok
    code, out, err = run_cli(capsys, *argv[:-2], f"--zeta=0.{'0' * 40}1+0i", "--L=1e300")
    assert (code, out) == (3, "") and err.startswith("error: EvalError")
    assert not probe.value_bound_check(parse("(1/z)^9"), (1, 2), 1e-27, 1e200)


# n close together past about 1e15, where the fit window's log n are all
# one double: no line fits, so the slope is nan and the verdict
# inconclusive, at every worker count.  scan-sd's points sit where
# |n z + 1| is about 1400, so its statistic, about 2n / |n z + 1|^5, stays
# under the cap, which would decide "divergent" before the slope is read
# (near n z = -1, where it is about 2e20)
_HUGE_N = {
    "scan-marty": (["--family=z", "--grid=0,1,0,1,2,1", "--n-min", "1" + "0" * 24,
                    "--n-max", "1" + "0" * 22 + "10"], 2),
    "scan-sd": (["--catalog=example2", "--grid=1e-17,2e-17,1e-17,2e-17,2,2", "--radius=1e-19",
                 "--n-min", "1" + "0" * 20, "--n-max", "1" + "0" * 18 + "10"], 4),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", sorted(_HUGE_N))
def test_a_fit_window_of_equal_log_n_gives_a_nan_slope(capsys, command, workers):
    argv, points = _HUGE_N[command]
    code, out, err = run_cli(capsys, command, *argv, f"--workers={workers}")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == points
    assert all(row[4] == "nan" and row[6] == "inconclusive" for row in rows)


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_any_arithmetic_failure_exits_3_with_one_line(capsys, monkeypatch, error):
    # an arithmetic error of Python's own, raised in a handler, keeps the
    # exit-code contract: 3, one error line, no traceback
    def fail(*args, **kwargs):
        raise error("a bare arithmetic failure")

    monkeypatch.setattr(cli, "eval_jet", fail)
    code, out, err = run_cli(capsys, "eval", "--family=z", "--n=1", "--z=0+0i")
    assert (code, out) == (3, "")
    assert err == f"error: {error.__name__}: a bare arithmetic failure\n"


def _fresh_python(*argv) -> subprocess.CompletedProcess:
    # a fresh interpreter that imports this checkout's package
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


def test_importing_the_cli_imports_no_process_pool():
    # a fresh interpreter that imports the CLI has not imported pickle, which
    # only a scan that forks reads; the records are plain classes, so
    # neither dataclasses nor the inspect it pulls in is imported, and
    # decimal waits for the pretty printer.  A scan forks its processes
    # itself, so one at two workers imports no multiprocessing or
    # concurrent.futures
    code = ("import sys, schwarzian_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('concurrent.futures', "
            "'multiprocessing', 'pickle', '_pickle', 'dataclasses', 'inspect', 'decimal', "
            "'_decimal', '_pydecimal'))))")
    proc = _fresh_python("-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    code = ("import sys, schwarzian_lab.cli as cli; "
            "code = cli.main(['scan-marty', '--family=z', '--grid=0,1,0,1,2,1', '--n-max=3', "
            "'--workers=2']); "
            "print(code, sorted(m for m in sys.modules if m.startswith(('concurrent', "
            "'multiprocessing'))), 'pickle' in sys.modules)")
    proc = _fresh_python("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "0 [] True"
    assert len(proc.stdout.splitlines()) == 4  # the header and two rows, printed once


@pytest.mark.parametrize("argv,code,batch", [
    (["eval", "--catalog", "example2", "--n", "1", "--z=0.1+0.1i"], 0, False),
    (["eval", "--family=1/z", "--n=1", "--z=0+0i"], 3, False),  # an error that escapes
    (["identity", "composition", "--family=z^2", "--family=exp(z)", "--n=1", "--z=1+0i"], 0,
     False),
    (["bound", "--family=z", "--z0=0+0i", "--z=1+0i"], 0, True),
    (["scan-marty", "--family=z", "--grid=0,1,0,1,2,1", "--n-max=3", "--workers=1"], 0, True),
], ids=["eval", "eval-error", "identity", "bound", "scan-marty"])
def test_a_command_imports_the_batch_layers_only_if_it_runs_them(argv, code, batch):
    # eval and identity run on dsl, jets and schwarzian: a fresh interpreter
    # that runs one has imported neither codegen nor probe; a scan or a
    # bound check has imported both, and, in one process, no pickle
    script = ("import sys, schwarzian_lab.cli as cli; code = cli.main(sys.argv[1:]); "
              "print(code, [m in sys.modules for m in "
              "('schwarzian_lab.codegen', 'schwarzian_lab.probe', 'pickle')])")
    proc = _fresh_python("-c", script, *argv)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == f"{code} {[batch, batch, False]}"


def test_the_package_exports_each_name_of_its_modules():
    # a fresh import of the package: the batch layers wait for the first
    # name read from them, dir lists every exported name, and each is the
    # object of the modules that hold it, the one that defines it among them
    script = (
        "import importlib, sys, schwarzian_lab as pkg\n"
        "print([m in sys.modules for m in ('schwarzian_lab.codegen', 'schwarzian_lab.probe')])\n"
        "names = set(pkg.__all__) - {'__version__'}\n"
        "print(sorted(names - set(dir(pkg))))\n"
        "mods = [importlib.import_module('schwarzian_lab.' + m)\n"
        "        for m in ('jets', 'dsl', 'codegen', 'schwarzian', 'probe')]\n"
        "print(sorted(name for name in names if {id(getattr(m, name)) for m in mods\n"
        "             if hasattr(m, name)} != {id(getattr(pkg, name))}))\n"
    )
    proc = _fresh_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[False, False]\n[]\n[]\n"
    assert set(schwarzian_lab.__all__) <= set(dir(schwarzian_lab))
    assert schwarzian_lab.marty_scan is probe.marty_scan
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        schwarzian_lab.nope


def test_the_package_imports_form_no_cycle():
    # each module's relative imports, as its source states them, anywhere in
    # it: dsl is the language and its walk, and codegen, which generates
    # code from dsl's trees and owns the batch, imports dsl, never the reverse
    imports = {}
    for path in Path(cli.__file__).parent.glob("*.py"):
        nodes = ast.walk(ast.parse(path.read_text()))
        imports[path.stem] = {
            target for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 1
            for target in ([node.module] if node.module else [a.name for a in node.names])
        }
    assert "codegen" in imports["probe"]

    def reached(module):
        seen, stack = set(), list(imports[module])
        while stack:
            m = stack.pop()
            if m not in seen:
                seen.add(m)
                stack.extend(imports.get(m, ()))
        return seen

    assert [m for m in sorted(imports) if m in reached(m)] == []
    assert schwarzian_lab.eval_jet_lanes is codegen.eval_jet_lanes


def _dying_child(how):
    # a _scan_chunk that, in a forked child, fails by how(); this process's
    # share scans as usual
    parent, real = os.getpid(), probe._scan_chunk

    def chunk(payload):
        if os.getpid() != parent:
            how()
        return real(payload)

    return chunk


def _sigkill():
    os.kill(os.getpid(), signal.SIGKILL)


def _value_error():
    raise ValueError("a share's points are refused")


@pytest.mark.parametrize("how,code,err", [
    (_sigkill, 4, "error: scan process 1 of 2 ended with no result (exit status -9)\n"),
    (_value_error, 2, "error: a share's points are refused\n"),
])
def test_a_failed_scan_process_keeps_the_exit_code_contract(capsys, monkeypatch, how, code, err):
    # a child killed (by the OOM killer, say) exits 4, an OSError; a child's
    # ValueError exits 2, as it would in this process; one error line each,
    # and no child is left unreaped
    monkeypatch.setattr(probe, "_scan_chunk", _dying_child(how))
    argv = ("--family=z", "--grid=0,1,0,1,2,1", "--n-max=3", "--workers=2")
    for command in ("scan-marty", "scan-sd"):
        assert run_cli(capsys, command, *argv) == (code, "", err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_warning_prints_once_as_a_line_of_the_cli(workers):
    # the forked children inherit the grid, built and warned about once, and
    # the line names no source file
    argv = ["scan-marty", "--family=z", "--grid=0,1,0,1,3,1", "--radius=2", "--samples=1",
            "--n-max=3", f"--workers={workers}"]
    proc = _fresh_python("-m", "schwarzian_lab.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, _OVERLAP)
    assert proc.stdout == ("re,im,sup_stat,argmax_n,growth_slope,flags,verdict\n"
                           "0,0,1.0,1,nan,,inconclusive\n"
                           "0.5,0,0.8,1,nan,,inconclusive\n"
                           "1,0,0.5,1,nan,,inconclusive\n")


@pytest.mark.parametrize("how", ["-W", "PYTHONWARNINGS"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_warning_filter_of_error_still_prints_the_line_and_exits_0(how, workers):
    # the filter turns a warning into an exception; the CLI prints it as
    # its line all the same, and the scan's exit code and bytes hold
    argv = ["-m", "schwarzian_lab.cli", "scan-marty", "--family=z", "--grid=0,1,0,1,3,1",
            "--radius=2", "--samples=1", "--n-max=3", f"--workers={workers}"]
    if how == "-W":
        proc = _fresh_python("-W", "error", *argv)
    else:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PYTHONWARNINGS", "error")
            proc = _fresh_python(*argv)
    assert (proc.returncode, proc.stderr) == (0, _OVERLAP)
    assert proc.stdout.endswith("1,0,0.5,1,nan,,inconclusive\n")


def test_each_command_prints_its_own_warning(capsys):
    # in one process too, under the default filter that prints a warning
    # once per place, every command that warns says so once
    argv = ["scan-marty", "--family=z", "--grid=0,1,0,1,3,1", "--radius=2", "--samples=1",
            "--n-max=3", "--workers=1"]
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        for _ in range(2):
            assert run_cli(capsys, *argv)[::2] == (0, _OVERLAP)


def test_rows_take_the_report_fields_in_order():
    f = parse("exp(n*z)")
    rep = check_mobius_invariance(f, 1.0, Mobius(1, 2, 3, 4), 0.1 + 0j)
    assert list(identity_row(rep, "json")) == [
        "lhs", "rhs", "abs_gap", "rel_gap", "passed", "tolerance_used", "error_bound", "rule"
    ]
    assert list(identity_row(rep, "csv")) == [
        "lhs", "rhs", "abs_gap", "rel_gap", "passed", "tolerance_used"
    ]
    (bound,) = bound_rows(local_bound_estimate(f, [1], 0j, 0.5 + 0j, 8))
    assert list(bound) == ["n", "K_estimate", "bound_rhs", "observed", "passed", "value_at_z0"]
    grid = GridSpec(-0.5, 0.5, -0.5, 0.5, 2, 2)
    hyp = check_theorem_hypotheses(f, [1, 2], grid, 0.1, 0.1 + 0j, 10.0)
    assert list(hypotheses_row(hyp, "json")) == [
        "epsilon", "L", "floor_ok", "value_ok", "min_abs_derivative", "M2", "M3", "sd_bound",
        "max_abs_schwarzian", "sound", "flags", "passed",
    ]
