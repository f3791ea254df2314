"""The four benchmark workloads: the CLI commands they send and their oracles.

A workload turns the benchmark seed into a list of jobs.  A job is one
``schwarzian_lab.cli.main(argv)`` call for the grid workloads and the whole
command stream for ``checks-mix``.  Each oracle reads the bytes a command
printed (and its exit code) and returns the number of operations that
contradict what is known to be true, the number the program declined, and
the number attempted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import mix

N_MAX = 32
SAMPLES = 9  # neighbourhood samples per grid point, the CLI default
CHECKS_PER_STREAM = 1000


# A check that holds by construction but comes back "failed" is a wrong
# verdict.  Today these come from one known defect: roundoff of an
# ill-conditioned evaluation judged against a fixed relative tolerance
# (1e-8 for identities, 1e-9 for bounds), about 1 in 1000 checks.  They
# count as failed; a run is incorrect only when their share of the checks
# exceeds this limit, ten times today's rate.
WRONG_VERDICT_LIMIT = 0.01


@dataclass
class Verdict:
    """What an oracle concluded about one or more operations.

    ``failed`` counts every output that contradicts the oracle; ``fatal``
    the subset that are not wrong verdicts of checks true by construction.
    """

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    fatal: int = 0
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        wrong_verdicts = self.failed - self.fatal
        return self.fatal == 0 and wrong_verdicts <= WRONG_VERDICT_LIMIT * self.attempted

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.refused += other.refused
        self.fatal += other.fatal
        self.notes.extend(other.notes)


@dataclass(frozen=True)
class GridWorkload:
    """One scan or hypotheses command over a square grid."""

    name: str
    command: str
    family: tuple  # ("--catalog", name) or ("--family", text)
    window: tuple  # (re0, re1, im0, im1)
    side: int
    workers: int | None  # None: the command takes no --workers
    expected: object = None  # z -> verdict the scan must print, or None
    extra: tuple = ()

    def argv(self, seed: int, workers: int | None = None, side: int | None = None) -> list[str]:
        side = side or self.side
        re0, re1, im0, im1 = self.window
        argv = [self.command, *self.family]
        argv.append(f"--grid={re0},{re1},{im0},{im1},{side},{side}")
        argv += ["--n-max", str(N_MAX), "--samples", str(SAMPLES), "--seed", str(seed)]
        argv += list(self.extra)
        if self.workers is not None:
            argv += ["--workers", str(workers or self.workers)]
        return argv

    def items(self, side: int | None = None) -> int:
        """Samples per job: (grid point, n, neighbourhood point) triples."""
        side = side or self.side
        return side * side * N_MAX * SAMPLES

    def check(self, code: int, out: str, side: int | None = None) -> Verdict:
        if self.expected is None:
            return check_hypotheses(code, out)
        side = side or self.side
        return check_scan(code, out, side * side, self.expected)


# ---------------------------------------------------------------------------
# grid oracles


def marty_expected(z: complex) -> str | None:
    """exp(n z): bounded off the imaginary axis, divergent on it (test_08)."""
    if abs(z.real) >= 0.2:
        return "bounded"
    if abs(z.real) <= 0.025:
        return "divergent"
    return None


def sd_expected(z: complex) -> str | None:
    """exp(z/(n z + 1)): divergent at the origin, bounded for |z| >= 0.2 (test_09)."""
    if z == 0:
        return "divergent"
    if abs(z) >= 0.2:
        return "bounded"
    return None


GRIDS = {
    w.name: w
    for w in (
        GridWorkload(
            "marty-grid",
            "scan-marty",
            ("--catalog", "example1"),
            (-1, 1, -1, 1),
            21,
            1,
            marty_expected,
        ),
        GridWorkload(
            "sd-grid",
            "scan-sd",
            ("--catalog", "example2"),
            (-0.5, 0.5, -0.5, 0.5),
            11,
            2,
            sd_expected,
        ),
        GridWorkload(
            "hypotheses-grid",
            "hypotheses",
            ("--family", "z + (z^2)/n"),
            (-0.17, 0.17, -0.17, 0.17),
            15,
            None,
            extra=("--radius", "0.001", "--epsilon", "0.5", "--zeta", "0+0i", "--L", "0.1"),
        ),
    )
}
NAMES = tuple(GRIDS) + ("checks-mix",)


def check_scan(code: int, out: str, points: int, expected) -> Verdict:
    """One scan job is one operation; it fails if any verdict contradicts."""
    v = Verdict(attempted=1)
    if code != 0:
        v.failed = v.fatal = 1
        v.notes.append(f"scan exited {code}")
        return v
    rows = list(csv.DictReader(io.StringIO(out)))
    wrong = []
    constrained = 0
    for row in rows:
        z = complex(float(row["re"]), float(row["im"]))
        want = expected(z)
        if want is not None:
            constrained += 1
            if row["verdict"] != want:
                wrong.append(f"{z}: {row['verdict']} != {want}")
        if row["flags"]:
            v.refused += 1
    if len(rows) != points or not constrained or wrong:
        v.failed = v.fatal = 1
        v.notes.append(
            f"{len(rows)} rows (want {points}), {constrained} constrained, "
            f"{len(wrong)} wrong: {wrong[:3]}"
        )
    v.notes.append(f"refused points {v.refused}/{len(rows)}")
    return v


def check_hypotheses(code: int, out: str) -> Verdict:
    """z + z^2/n: max |f''| = 2 (at n = 1), f''' = 0, every hypothesis holds."""
    v = Verdict(attempted=1)
    try:
        report = json.loads(out)
    except ValueError:
        report = {}
    ok = (
        code == 0
        and report.get("passed") is True
        and report.get("M2") == 2.0
        and report.get("M3") == 0.0
    )
    if not ok:
        v.failed = v.fatal = 1
        v.notes.append(f"hypotheses exit {code}: {out.strip()[:200]}")
    return v


def count_flags(out: str) -> dict:
    """Grid points carrying each flag in a scan's CSV output."""
    counts: dict = {}
    for row in csv.DictReader(io.StringIO(out)):
        for flag in filter(None, row["flags"].split(";")):
            counts[flag] = counts.get(flag, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# checks-mix oracle


def _parse_complex(text: str) -> complex:
    # format_complex writes "<re><+/-im>i" with repr-exact components
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    while cut > 0 and body[cut - 1] in "eE":
        cut = max(body.rfind("+", 0, cut - 1), body.rfind("-", 0, cut - 1))
    return complex(float(body[:cut]), float(body[cut:]))


def _close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def check_eval(cmd: dict, out: str) -> str | None:
    """The value matches plain evaluation; the spherical field matches the jet."""
    record = json.loads(out)
    v = _parse_complex(record["v"])
    d1 = _parse_complex(record["d1"])
    spherical = float(record["spherical"])
    m = abs(v)
    if not _close(spherical, abs(d1) / (1.0 + m * m), 1e-12):
        return f"spherical {spherical} disagrees with the jet"
    f, n, z = cmd["f"], cmd["n"], cmd["z"]
    try:
        if mix.near_log_cut(f, n, z):
            return None
        want = mix.plain_eval(f, n, z)
    except (ArithmeticError, ValueError):
        return None
    if not (math.isfinite(abs(want)) and _close(v, want, 1e-9)):
        return f"value {v} != plain evaluation {want}"
    return None


def check_command(cmd: dict, code: int, out: str) -> Verdict:
    """Judge one checks-mix command.

    Exit 3 is a refusal.  Every identity holds by construction, so exit 1
    from an identity is a failure; exit 1 from ``bound`` is one unless a
    log argument crosses the branch cut along the segment.
    """
    v = Verdict(attempted=1)
    kind = cmd["kind"]
    problem = None
    wrong_verdict = False
    if code == 3:
        v.refused = 1
    elif code not in (0, 1):
        problem = f"exit {code}"
    elif kind == "eval":
        problem = "eval exited 1" if code == 1 else check_eval(cmd, out)
    elif kind == "bound":
        if code == 1 and not any(
            mix.segment_crosses_log_cut(cmd["f"], n, cmd["z0"], cmd["z"])
            for n in range(1, mix.BOUND_N_MAX + 1)
        ):
            excess = max(
                (r["observed"] - r["bound_rhs"]) / max(r["bound_rhs"], 1e-300)
                for r in json.loads(out)
                if not r["passed"]
            )
            wrong_verdict = True
            problem = f"bound failed by {excess:.3g} of the bound, no branch-cut crossing"
    else:
        report = json.loads(out)
        if report["passed"] != (code == 0):
            problem = f"exit {code} but passed={report['passed']}"
        elif code == 1:
            wrong_verdict = True
            problem = f"identity failed, rel_gap {report['rel_gap']:.3g}"
    if problem:
        v.failed = 1
        v.fatal = 0 if wrong_verdict else 1
        v.notes.append(f"{problem}: {' '.join(cmd['argv'])}")
    return v
