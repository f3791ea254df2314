"""Command-line behaviour: exit codes, formats, and adapter faithfulness.

Most tests drive ``main(argv)`` in process and compare its output byte for
byte against the public serializers applied to direct library calls; the
CLI must add nothing of its own.  One test exercises the installed
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
    bounds_to_csv,
    eval_record,
    format_complex,
    hypotheses_to_json,
    identity_to_json,
    main,
    parse_complex,
    record_to_csv,
    record_to_json,
    report_to_csv,
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
    assert out == record_to_json(eval_record(parse("exp(n*z)"), 3, 0j))
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
    assert out == record_to_csv(eval_record(parse("exp(n*z)"), 3, 0j))


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
    assert out == identity_to_json(direct)
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
    assert out == identity_to_json(direct)
    assert json.loads(out)["lhs"] == format_complex(direct.lhs)


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
    return report_to_csv(report, classify(report))


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
    assert out == bounds_to_csv(direct)


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
    assert out == hypotheses_to_json(direct)
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
    assert target.read_text() == record_to_csv(eval_record(parse("exp(n*z)"), 3, 0j))


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
