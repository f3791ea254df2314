"""Command-line behaviour: exit codes, formats, and adapter faithfulness.

Most tests drive ``main(argv)`` in process and compare its output byte for
byte against the public row builders and writer applied to direct library
calls; the CLI must add nothing of its own.  Those comparisons cannot see a
change in the writer itself, so literal golden outputs pin the bytes of
every subcommand in both formats.  One test exercises the installed
console script end to end.
"""

import json
import shutil
import subprocess
import sys

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
        "--family", "exp(n*z)", "--n", "2", "--z", "0.3+0i",
        "--mobius", "3,1,1,-2", "--tol-abs", "0", "--tol-rel", "0",
    )
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
    assert out == rows_to_json(hypotheses_row(direct))
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
        "0.39669421487603262+0i,0.39669421487603307+0i,4.440892098500626e-16,"
        "1.1194748831636996e-15,true,1e-10\n",
    ),
    "identity-json": (
        _GOLDEN_IDENTITY, "json",
        '{\n  "lhs": "0.39669421487603262+0i",\n  "rhs": "0.39669421487603307+0i",\n'
        '  "abs_gap": 4.440892098500626e-16,\n  "rel_gap": 1.1194748831636996e-15,\n'
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
        '  "max_abs_schwarzian": 6.0,\n  "sound": true,\n  "passed": true\n}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_golden_output_bytes(capsys, case):
    argv, fmt, expected = _GOLDEN[case]
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == expected


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
    proc = subprocess.run(
        [sys.executable, "-m", "schwarzian_lab.cli", "eval", "--family", "z +",
         "--n", "1", "--z", "0+0i"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
