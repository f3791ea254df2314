"""Tests of the benchmark's own code: generator, oracles, tracer, contract.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import cmath
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import mix  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_same_seed_same_argv_stream():
    first = [c["argv"] for c in mix.command_stream(7, 300)]
    again = [c["argv"] for c in mix.command_stream(7, 300)]
    other = [c["argv"] for c in mix.command_stream(8, 300)]
    assert first == again
    assert first != other
    kinds = [c["kind"] for c in mix.command_stream(7, 300)]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        kind: round(weight * 300) for kind, weight in mix.KIND_WEIGHTS
    }


def test_grid_argv_depends_only_on_seed():
    for w in workloads.GRIDS.values():
        assert w.argv(3) == w.argv(3)
        assert w.argv(3) != w.argv(4)


def test_conjugation_pairs_commute_with_phi():
    rng = random.Random(20)
    checked = 0
    while checked < 300:
        f = mix.random_tree(rng, 3)
        g, _, phi = mix.conjugate_pair(rng, f)
        n = float(rng.randint(1, 8))
        z = cmath.rect(rng.uniform(0.2, 1.2), rng.uniform(0.0, 2.0 * cmath.pi))
        try:
            if mix.near_log_cut(f, n, z) or mix.near_log_cut(g, n, mix.apply_phi(phi, n, z)):
                continue
            lhs = mix.apply_phi(phi, n, mix.plain_eval(f, n, z))
            rhs = mix.plain_eval(g, n, mix.apply_phi(phi, n, z))
        except (ArithmeticError, ValueError):
            continue
        if not (cmath.isfinite(lhs) and abs(lhs) < 1e12):
            continue
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (mix.to_text(f), phi, z)
        checked += 1


def test_family_text_parses_to_the_same_function():
    from schwarzian_lab import eval_jet, parse

    rng = random.Random(21)
    for _ in range(200):
        f = mix.random_tree(rng, 3)
        z = complex(0.3, 0.4)
        try:
            want = mix.plain_eval(f, 2.0, z)
            got = eval_jet(parse(mix.to_text(f)), 2.0, z).v
        except (ArithmeticError, ValueError):
            continue
        if mix.near_log_cut(f, 2.0, z):
            continue
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), mix.to_text(f)


# ---------------------------------------------------------------------------
# oracles


def _scan_csv(workload, side):
    from schwarzian_lab import cli

    code, out, _ = run.call(cli, workload.argv(0, 1, side))
    assert code == 0
    return out


def _flip(out: str, pick) -> str:
    lines = out.splitlines()
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        z = complex(float(cells[0]), float(cells[1]))
        if pick(z):
            cells[-1] = "divergent" if cells[-1] == "bounded" else "bounded"
            lines[k] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError("no grid point to flip")


def test_marty_oracle_rejects_a_wrong_verdict():
    w = workloads.GRIDS["marty-grid"]
    out = _scan_csv(w, 5)
    assert w.check(0, out, 5).failed == 0
    bad = w.check(0, _flip(out, lambda z: abs(z.real) >= 0.2), 5)
    assert bad.failed == 1 and bad.fatal == 1
    assert w.check(0, _flip(out, lambda z: z.real == 0.0), 5).failed == 1
    assert w.check(3, out, 5).failed == 1


def test_sd_oracle_rejects_a_wrong_verdict():
    w = workloads.GRIDS["sd-grid"]
    out = _scan_csv(w, 5)
    assert w.check(0, out, 5).failed == 0
    assert w.check(0, _flip(out, lambda z: z == 0), 5).failed == 1
    assert w.check(0, _flip(out, lambda z: abs(z) >= 0.2), 5).failed == 1
    # a missing row is a contradiction too
    assert w.check(0, out.rsplit("\n", 2)[0] + "\n", 5).failed == 1


def test_hypotheses_oracle_rejects_wrong_bounds():
    report = {"passed": True, "M2": 2.0, "M3": 0.0}
    assert workloads.check_hypotheses(0, json.dumps(report)).failed == 0
    for key, value in (("passed", False), ("M2", 2.0000000001), ("M3", 1e-300)):
        assert workloads.check_hypotheses(0, json.dumps(dict(report, **{key: value}))).failed == 1
    assert workloads.check_hypotheses(1, json.dumps(report)).failed == 1


def _command(kind):
    return mix.make_command(random.Random(5), kind)


def test_checks_oracle_rejects_wrong_outputs():
    from schwarzian_lab import cli

    ident = _command("composition")
    report = {"lhs": "1+0i", "rhs": "2+0i", "abs_gap": 1.0, "rel_gap": 0.5, "passed": False}
    # a wrong verdict on a true identity fails, without being fatal
    v = workloads.check_command(ident, 1, json.dumps(report))
    assert v.failed == 1 and v.fatal == 0
    # exit code and report must agree
    assert workloads.check_command(ident, 0, json.dumps(report)).fatal == 1
    assert workloads.check_command(ident, 2, "").fatal == 1
    assert workloads.check_command(ident, 3, "").refused == 1

    ev = _command("eval")
    code, out, _ = run.call(cli, ev["argv"])
    assert code == 0 and workloads.check_command(ev, code, out).failed == 0
    record = json.loads(out)
    record["v"] = "123.5+0i"
    assert workloads.check_command(ev, 0, json.dumps(record)).failed == 1

    bound = _command("bound")
    bound["f"] = ("mul", ("z",), ("z",))  # no log, so exit 1 is a failure
    row = {"n": 1, "observed": 2.0, "bound_rhs": 1.0, "passed": False}
    v = workloads.check_command(bound, 1, json.dumps([row]))
    assert v.failed == 1 and v.fatal == 0
    bound["f"] = ("log", ("z",))
    bound["z0"], bound["z"] = complex(-1, 1), complex(-1, -1)  # crosses the cut
    assert workloads.check_command(bound, 1, json.dumps([row])).failed == 0


def test_speed_factors_use_the_reference_timings_around_each_request():
    log = speed.SpeedLog()
    log.marks = [(0, 0.002), (2, 0.004)]  # before request 0, before request 2
    unit = speed.REFERENCE_S
    want = [2 * unit / 0.006, 2 * unit / 0.006, unit / 0.004]
    assert log.factors(3) == pytest.approx(want)


def test_run_is_incorrect_beyond_the_wrong_verdict_limit():
    assert workloads.Verdict(attempted=1000, failed=3).correct
    assert not workloads.Verdict(attempted=1000, failed=11).correct
    assert not workloads.Verdict(attempted=1000, failed=1, fatal=1).correct


def test_reruns_do_not_change_attempted_or_failed():
    from schwarzian_lab import cli

    job = run.Job(cli, "hypotheses-grid", 0, 3)
    job.run()
    once = (job.verdict.attempted, job.verdict.failed)
    job.run()
    job.run()
    assert (job.verdict.attempted, job.verdict.failed) == once == (1, 0)


def test_rerun_with_other_bytes_fails():
    from schwarzian_lab import cli

    job = run.Job(cli, "hypotheses-grid", 0, 3)
    job.run()
    job.seed = 1  # the same job now prints other bytes
    job.run()
    assert job.determinism_failures == 1
    assert (job.verdict.attempted, job.verdict.failed) == (1, 1)
    assert not job.verdict.correct


# ---------------------------------------------------------------------------
# tracer and the benchmark contract


def test_tracer_counts_one_eval_per_marty_sample_and_restores():
    modules = run.load_program()
    probe = modules["probe"]
    original = probe.eval_jet
    job = run.Job(modules["cli"], "marty-grid", 0, 3)
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert probe.eval_jet is not original
        wall = job.run(workers=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert probe.eval_jet is original
    m = run.layer_metrics(tracer, job, wall)
    assert m["probe.evals_per_sample"] == 1.0
    assert m["dsl.eval_jet.calls"] == m["schwarzian.spherical.calls"] == 3 * 3 * 32 * 9
    assert m["cli.main.calls"] == 1 and m["cli.exit.0"] == 1
    # self times account for the traced wall
    assert 0.0 <= m["trace.unattributed_s"] < 0.05 * wall
    spans = tracer.span_records()
    names = {s["name"] for s in spans}
    assert {"cli.main", "dsl.parse", "probe.marty_scan", "probe.classify"} <= names
    root = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in root] == ["cli.main"]


def test_reported_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = run.load_program()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run.run_one(modules, "sd-grid", 0, 0.0, trace, 5)
        assert result["correct"], result["notes"]
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        assert all(isinstance(v, (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "marty-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
