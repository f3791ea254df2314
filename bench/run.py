"""Benchmark for the schwarzian-lab CLI, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload sd-grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

One client drives ``schwarzian_lab.cli.main(argv)`` in this process as a
closed loop: the next command goes out only after the previous one has
returned.  Every output is checked against an oracle and its SHA-256 is
compared across reruns of the same command.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps each module's public functions
(see tracer.py) and reports per-layer metrics instead.  Times are
rescaled to a reference machine speed (see speed.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 when every oracle and determinism check held, 1 when
one did not, 2 when the program could not be found or imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import mix  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedLog, rescaled  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

MIN_JOBS = 3  # timed jobs per run, whatever --seconds says
COLD_START_EVERY = 2.0  # seconds between cold starts during a run
MIN_COLD_STARTS = 5
POOL_PROBES = 5  # 1-worker/2-worker pairs behind probe.pool_startup_s
WARMUP_CHECKS = 50
CHECKS_PER_MARK = 100  # checks-mix commands between two reference timings

# cold start: import the CLI, build the parser, parse and compile a family
_COLD_START = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from schwarzian_lab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(repr(time.perf_counter() - t0) if code == 0 else "failed")
"""

def load_program():
    """Import the CLI from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "schwarzian_lab" / "cli.py").is_file():
        print(f"bench: no program at {SRC}/schwarzian_lab; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    # by module path: the package re-exports a function named schwarzian
    modules = {layer: importlib.import_module(f"schwarzian_lab.{layer}") for layer in LAYERS}
    where = Path(modules["cli"].__file__).resolve().parent
    if where != SRC / "schwarzian_lab":
        print(f"bench: imported schwarzian_lab from {where}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return modules


def call(cli, argv) -> tuple[int, str, float]:
    """One closed-loop request: (exit code, stdout text, wall seconds).

    An exception escaping ``main`` breaks the exit-code contract; it is
    reported as exit code -1 with the exception as output.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - judged as a failed operation
            code = -1
            out.write(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
    return code, out.getvalue(), wall


def percentile(values, q: float) -> float:
    """Inclusive-method quantile q, for q a multiple of 0.001 in (0, 1)."""
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]


# ---------------------------------------------------------------------------
# jobs


class Job:
    """One workload's job, run repeatedly; keeps oracle verdicts and digests.

    A job is one grid command, or the whole checks-mix command stream.  Its
    operations are the commands it sends.  Each operation is judged by the
    oracle once, on the job's first run.  Later runs are repeated
    measurements of the same operations: each must print the bytes the
    first run printed under the same ``key``, and an operation that does not
    fails.  So ``attempted`` and ``failed`` depend on the code and the seed,
    not on how many runs fit in the measuring time.
    """

    def __init__(self, cli, name: str, seed: int, side: int | None):
        self.cli = cli
        self.seed = seed
        self.side = side
        self.grid = workloads.GRIDS.get(name)
        self.stream = None
        if self.grid is None:
            self.stream = mix.command_stream(seed, workloads.CHECKS_PER_STREAM)
        self.ops: list[workloads.Verdict] | None = None  # one per operation
        self.first: dict[str, list[str]] = {}  # key -> first run's digest per operation
        self.digests: dict[str, set[str]] = {}  # key -> every job digest seen
        self.unsteady: set[int] = set()  # operations that printed other bytes on a rerun
        self.latencies: list[float] = []  # every timed request, in order
        self.codes: list[int] = []
        self.output_bytes = 0
        self.flagged: dict[str, int] = {}

    @property
    def verdict(self) -> "workloads.Verdict":
        v = workloads.Verdict()
        for op in self.ops or ():
            v.add(op)
        return v

    @property
    def determinism_failures(self) -> int:
        return len(self.unsteady)

    def argv_list(self, workers=None) -> list[list[str]]:
        if self.grid is not None:
            return [self.grid.argv(self.seed, workers, self.side)]
        return [cmd["argv"] for cmd in self.stream]

    @property
    def items(self) -> int:
        """Samples per grid job; checks per checks-mix job."""
        if self.grid is not None:
            return self.grid.items(self.side)
        return len(self.stream)

    def points_per_job(self) -> int:
        side = self.side or self.grid.side
        return side * side

    def probe_samples(self) -> int:
        """Samples the probe layer is asked for per job."""
        if self.grid is not None:
            return self.grid.items(self.side)
        bounds = sum(cmd["kind"] == "bound" for cmd in self.stream)
        return bounds * mix.BOUND_N_MAX * (mix.SEGMENT_SAMPLES + 2)

    def run(self, workers=None, key="job", tracer=None, between=None) -> float:
        """Run the job once and check it; returns the summed request walls.

        ``between`` is called after each request, outside the timed calls.
        """
        codes, outs, digests = [], [], []
        wall = 0.0
        for index, argv in enumerate(self.argv_list(workers)):
            if tracer is not None:
                tracer.request = index
            code, out, dt = call(self.cli, argv)
            wall += dt
            self.latencies.append(dt)
            if between is not None:
                between()
            codes.append(code)
            outs.append(out)
            digests.append(hashlib.sha256(f"{code}\0{out}\0".encode()).hexdigest())
        self.codes = codes
        self.output_bytes = sum(len(out.encode()) for out in outs)
        if self.ops is None:
            self.ops = self._judge(codes, outs)
        first = self.first.setdefault(key, digests)
        for index, (digest, want) in enumerate(zip(digests, first)):
            if digest != want and index not in self.unsteady:
                self.unsteady.add(index)
                op = self.ops[index]
                op.failed = op.fatal = 1
                op.notes.append(f"{key}: operation {index} digest {digest[:12]} != {want[:12]}")
        job_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
        self.digests.setdefault(key, set()).add(job_digest)
        return wall

    def warm_up(self, key="job") -> None:
        """One untimed grid job (checked), or the stream's first commands."""
        if self.grid is not None:
            self.run(key=key)
        else:
            for cmd in self.stream[:WARMUP_CHECKS]:
                call(self.cli, cmd["argv"])

    def _judge(self, codes, outs) -> list["workloads.Verdict"]:
        """The oracle's verdict on each operation."""
        if self.grid is not None:
            if self.grid.command != "hypotheses" and codes[0] == 0:
                self.flagged = workloads.count_flags(outs[0])
            return [self.grid.check(codes[0], outs[0], self.side)]
        return [
            workloads.check_command(cmd, code, out)
            for cmd, code, out in zip(self.stream, codes, outs)
        ]


def timed_loop(seconds: float, body, min_calls: int = MIN_JOBS) -> int:
    """Call body() until ``seconds`` have passed and min_calls calls ran."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < min_calls or time.perf_counter() < deadline:
        body()
        done += 1
    return done


# ---------------------------------------------------------------------------
# end-to-end run


def cold_start_seconds(argv: list[str]) -> float:
    """Import, parser build and first command in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", _COLD_START, str(SRC), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    text = proc.stdout.strip()
    if proc.returncode != 0 or text == "failed":
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-300:]}")
    return float(text)


class ColdStarts:
    """Cold starts spread over a run, each rescaled by the reference."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.raw: list[float] = []
        self.times: list[float] = []
        self.first = cold_start_seconds(argv)  # untimed: may write bytecode caches
        self.last = time.perf_counter()

    def start(self) -> None:
        raw, factor = rescaled(lambda: cold_start_seconds(self.argv))
        self.raw.append(raw)
        self.times.append(raw * factor)
        self.last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.last >= COLD_START_EVERY:
            self.start()

    def top_up(self, count: int) -> None:
        while len(self.times) < count:
            self.start()


def setup_argv(job: Job) -> list[str]:
    """An eval of the workload's first family: parser, parse, compile, one jet."""
    if job.grid is not None:
        family = list(job.grid.family)
    else:
        family = ["--family", mix.to_text(job.stream[0]["f"])]
    return ["eval", *family, "--n", "1", "--z=0.1+0.1i"]


def run_e2e(job: Job, seconds: float) -> dict:
    """Closed loop of untraced jobs, with cold starts between requests.

    Every time is rescaled to the reference speed (see speed.py).
    ``wall_s`` is the mean job wall and ``setup_s`` the median cold start.
    """
    job.warm_up()
    # the pool workers of the warm-up job, before any cold start is a child
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    cold = ColdStarts(setup_argv(job))
    speed = SpeedLog()
    every = 1 if job.grid is not None else CHECKS_PER_MARK

    def between():
        done = len(job.latencies)
        if done % every == 0:
            speed.mark(done)
        cold.tick()

    # keep the benchmark's own objects out of the program's collections
    gc.collect()
    gc.freeze()
    job.latencies = []
    speed.mark(0)
    runs = timed_loop(seconds, lambda: job.run(between=between))
    gc.unfreeze()
    if speed.marks[-1][0] != len(job.latencies):
        speed.mark(len(job.latencies))
    cold.top_up(MIN_COLD_STARTS)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    raw = job.latencies
    lat = [t * f for t, f in zip(raw, speed.factors(len(raw)))]
    per = len(raw) // runs
    walls = [sum(lat[k : k + per]) for k in range(0, len(lat), per)]
    wall = statistics.fmean(walls)
    metrics = {
        "wall_s": wall,
        "items_per_s": job.items / wall,
        "p50_ms": statistics.median(lat) * 1e3,
        "p99_ms": percentile(lat, 0.99) * 1e3,
        "setup_s": statistics.median(cold.times),
        "peak_rss_mb": (self_kb + children_kb) / 1024.0,
    }
    refs = [r for _, r in speed.marks]
    samples = {
        "jobs": runs,
        "latencies": len(lat),
        "beyond_p50": len(lat) // 2,
        "beyond_p99": len(lat) - math.ceil(0.99 * len(lat)),
        "cold_starts": len(cold.times),
        "first_cold_start_s": cold.first,
        "reference_s": {
            "unit": REFERENCE_S,
            "timings": len(refs),
            "min": min(refs),
            "median": statistics.median(refs),
            "max": max(refs),
        },
        # the same figures before rescaling
        "raw": {
            "wall_s": sum(raw) / runs,
            "median_job_wall_s": statistics.median(
                sum(raw[k : k + per]) for k in range(0, len(raw), per)
            ),
            "p50_ms": statistics.median(raw) * 1e3,
            "p99_ms": percentile(raw, 0.99) * 1e3,
            "setup_s": statistics.median(cold.raw),
        },
    }
    return {"metrics": metrics, "samples": samples, "walls": walls}


# ---------------------------------------------------------------------------
# traced run


def layer_metrics(t: Tracer, job: Job, wall: float) -> dict:
    """Per-layer figures of one traced job."""
    serialize = {n for n in dir(job.cli) if n.endswith(("_to_csv", "_to_json"))}
    identity = {n.split(".", 1)[1] for n in t.stats if n.startswith("schwarzian.check_")}
    evals = {"eval_jet", "eval_jet_seeded"}
    in_probe = sum(s.under for s in t.select("dsl", evals))
    samples = job.probe_samples()
    m = {
        "jets.calls": t.calls("jets"),
        "jets.mul.calls": t.calls("jets", {"jet_mul"}),
        "jets.div.calls": t.calls("jets", {"jet_div"}),
        "jets.exp.calls": t.calls("jets", {"jet_exp"}),
        "jets.log.calls": t.calls("jets", {"jet_log"}),
        "jets.pow_int.calls": t.calls("jets", {"jet_pow_int"}),
        "jets.busy_s": t.busy("jets"),
        "jets.overflow": t.raised("jets", "OverflowAtPoint"),
        "jets.div_zero": t.raised("jets", "DivisionByZeroAtPoint"),
        "dsl.parse.calls": t.calls("dsl", {"parse"}),
        "dsl.parse.busy_s": t.busy("dsl", {"parse"}),
        "dsl.eval_jet.calls": t.calls("dsl", evals),
        "dsl.eval_jet.busy_s": t.busy("dsl", evals),
        "dsl.eval_jet.self_s": t.own("dsl", evals),
        "dsl.eval_errors": t.raised("dsl", "EvalError", evals),
        "dsl.self_s": t.layer_self["dsl"],
        "schwarzian.calls": t.calls("schwarzian", {"schwarzian"}),
        "schwarzian.busy_s": t.busy("schwarzian", {"schwarzian"}),
        "schwarzian.spherical.calls": t.calls("schwarzian", {"spherical_derivative"}),
        "schwarzian.identity.calls": t.calls("schwarzian", identity),
        "schwarzian.identity.busy_s": t.busy("schwarzian", identity),
        "schwarzian.critical_points": t.raised("schwarzian", "CriticalPointError", {"schwarzian"}),
        "schwarzian.self_s": t.layer_self["schwarzian"],
        "probe.scan.busy_s": t.busy("probe", {"marty_scan", "sd_family_scan"}),
        "probe.self_s": t.layer_self["probe"],
        "probe.samples": samples,
        "probe.evals_per_sample": in_probe / samples if samples else 0.0,
        "probe.classify.busy_s": t.busy("probe", {"classify"}),
        "probe.hypotheses.busy_s": t.busy("probe", {"check_theorem_hypotheses"}),
        "probe.bound.busy_s": t.busy("probe", {"local_bound_estimate"}),
        "probe.flags.pole": job.flagged.get("Pole", 0),
        "probe.flags.overflow": job.flagged.get("Overflow", 0),
        "probe.flags.critical_point": job.flagged.get("CriticalPoint", 0),
        "cli.main.calls": t.calls("cli", {"main"}),
        "cli.main.busy_s": t.busy("cli", {"main"}),
        "cli.self_s": t.layer_self["cli"],
        "cli.serialize.busy_s": t.busy("cli", serialize),
        "cli.output_bytes": job.output_bytes,
    }
    for code in range(5):
        m[f"cli.exit.{code}"] = job.codes.count(code)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(t.layer_self.values())
    m["trace.wrapped_calls"] = sum(s.calls for s in t.stats.values())
    return m


def pool_startup_seconds(job: Job) -> float:
    """Extra wall a 2-worker scan pays over 1 worker on a two-point grid (median)."""
    argv = [job.grid.command, *job.grid.family, "--grid=0,1,0,1,2,1"]
    argv += ["--n-max", "1", "--samples", "1", "--seed", str(job.seed), "--workers"]

    def gaps():
        return [
            call(job.cli, argv + ["2"])[2] - call(job.cli, argv + ["1"])[2]
            for _ in range(POOL_PROBES)
        ]

    raw, factor = rescaled(gaps)
    return statistics.median(raw) * factor


def run_traced(job: Job, modules: dict, seconds: float) -> dict:
    """Rounds of untraced and traced jobs at one worker (plus the pooled job)."""
    pooled = job.grid is not None and (job.grid.workers or 1) > 1
    untraced, pooled_walls, traced, spans = [], [], [], []

    def one_round():
        # every variant must print the same bytes, whatever the worker count
        wall, factor = rescaled(lambda: job.run(workers=1, key="output"))
        untraced.append(wall * factor)
        if pooled:
            wall, factor = rescaled(lambda: job.run(key="output"))
            pooled_walls.append(wall * factor)
        tracer = Tracer()
        tracer.install(modules)
        try:
            wall, factor = rescaled(lambda: job.run(workers=1, key="output", tracer=tracer))
        finally:
            tracer.uninstall()
        m = layer_metrics(tracer, job, wall)
        traced.append({k: v * factor if k.endswith("_s") else v for k, v in m.items()})
        spans.extend(dict(s, job=len(traced) - 1) for s in tracer.span_records())

    job.warm_up(key="output")
    rounds = timed_loop(seconds, one_round, min_calls=1)
    # the fastest traced job, taken whole so that its figures add up, and
    # best-case walls beside it: one or two traced jobs are too few for a mean
    metrics = dict(min(traced, key=lambda m: m["trace.wall_s"]))
    base = min(untraced)
    metrics["trace.untraced_wall_s"] = base
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base
    if pooled:
        metrics["probe.pool_startup_s"] = pool_startup_seconds(job)
        metrics["probe.parallel_efficiency"] = base / (job.grid.workers * min(pooled_walls))
    else:
        metrics["probe.pool_startup_s"] = 0.0
        metrics["probe.parallel_efficiency"] = 1.0
    return {"metrics": metrics, "spans": spans, "rounds": rounds}


# ---------------------------------------------------------------------------
# provenance and reporting


def source_digest() -> str:
    """SHA-256 over the program's source files, path and bytes."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(job: Job, name: str, seed: int, trace: int) -> dict:
    if job.grid is not None:
        argv = {"job": job.grid.argv(seed, None, job.side)}
        if trace and job.grid.workers:
            argv["traced"] = job.grid.argv(seed, 1, job.side)
        workers = job.grid.workers or 1
    else:
        argv = {"commands": len(job.stream), "first": job.stream[0]["argv"]}
        workers = 1
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workers": workers,
        "clients": 1,
        "loop": "closed",
        "argv": argv,
    }


def run_one(modules: dict, name: str, seed: int, seconds: float, trace: int, side) -> dict:
    job = Job(modules["cli"], name, seed, side)
    result = {}
    if trace:
        traced = run_traced(job, modules, seconds)
        result.update(rounds=traced["rounds"], spans=traced["spans"])
        metrics = traced["metrics"]
    else:
        e2e = run_e2e(job, seconds)
        result.update(samples=e2e["samples"], walls=e2e["walls"])
        metrics = e2e["metrics"]
    v = job.verdict
    result.update(
        provenance=provenance(job, name, seed, trace),  # runs git: after the timing
        metrics=metrics,
        attempted=v.attempted,
        failed=v.failed,
        fatal=v.fatal,
        refused=v.refused,
        determinism_failures=job.determinism_failures,
        failed_ratio=v.failed / v.attempted,
        refused_ratio=v.refused / (job.points_per_job() if job.grid else v.attempted),
        refused_base="grid points" if job.grid is not None else "checks",
        digests={k: sorted(d) for k, d in job.digests.items()},
        notes=v.notes[:50],
        correct=v.correct,
    )
    return result


def describe(result: dict, units: dict) -> list[str]:
    """Human-readable lines: one per metric, then ratios and notes."""
    p = result["provenance"]
    lines = [f"# {p['workload']} seed={p['seed']} trace={p['trace']} argv={json.dumps(p['argv'])}"]
    for key, value in result["metrics"].items():
        lines.append(f"{p['workload']:16s} {key:28s} {value:>16.6g} {units.get(key, '')}")
    lines.append(
        f"{p['workload']:16s} failed_ratio {result['failed']}/{result['attempted']}"
        f" = {result['failed_ratio']:.6g} ({result['failed'] - result['fatal']} wrong verdicts"
        f" of true checks, {result['fatal']} fatal);"
        f" refused_ratio = {result['refused_ratio']:.6g} of {result['refused_base']};"
        f" determinism failures {result['determinism_failures']}"
    )
    if "samples" in result:
        lines.append(f"{p['workload']:16s} samples {json.dumps(result['samples'])}")
    lines.extend(f"  note: {n}" for n in result["notes"][:10])
    return lines


def write_record(result: dict, side) -> None:
    """Keep the full result, spans included, under OUT_DIR."""
    OUT_DIR.mkdir(exist_ok=True)
    p = result["provenance"]
    name = f"{p['workload']}-seed{p['seed']}-trace{p['trace']}" + (f"-side{side}" if side else "")
    (OUT_DIR / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--side", type=int, default=None, help="grid points per axis (default: the workload's)"
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    modules = load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = run_one(modules, args.workload, args.seed, args.seconds, args.trace, args.side)
    write_record(result, args.side)
    print("\n".join(describe(result, units)), flush=True)
    print("provenance " + json.dumps(result["provenance"]), flush=True)
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and GC state stay apart."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.side:
            argv += ["--side", str(args.side)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        one = json.loads(lines[-1])
        final["correct"] = final["correct"] and one["correct"]
        final["attempted"] += one["attempted"]
        final["failed"] += one["failed"]
        final["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
