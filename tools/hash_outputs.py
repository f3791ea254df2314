"""Hash what the CLI prints on a fixed corpus of commands, to hold bytes across a change.

    python tools/hash_outputs.py SRC_DIR > before.txt
    python tools/hash_outputs.py --diff before.txt after.txt

The first form runs ``schwarzian_lab.cli.main(argv)`` in this process,
from ``SRC_DIR/schwarzian_lab``, once per command of the corpus below, and
prints one line per command: the SHA-256 of its exit code, stdout and
stderr, a tab, and its argv as JSON.  A last line gives the SHA-256 of all
the per-command hashes.  Run it on two trees (say a ``git archive`` of the
parent commit and the working tree) and compare the totals; ``--diff``
lists the commands whose hashes differ, and exits 1 if any do.

The corpus:

- the benchmark's ``checks-mix`` command streams at seeds 1 to 3 (eval,
  identity and bound commands on random families), from ``bench/mix.py``;
- the benchmark's three grid commands at seeds 1 to 3, in CSV and JSON,
  from ``bench/workloads.py``;
- families whose samples fail (poles, ``Overflow``, critical points, a
  Schwarzian and jet parts past the double range) on five grids at two
  radii, through ``scan-marty``, ``scan-sd`` and ``hypotheses``;
- grid points whose samples are past the double range;
- ``bound`` segments from 2 to 3000 samples, in CSV and JSON, where
  f(z0), f(z) or a sample fails, and some of whose points, or whose
  ``z - z0``, are past the double range.

Only the standard library is used; ``bench/`` is read, never written.
Warnings are printed every time, as a fresh process prints them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)

_E307 = "1" + "0" * 307  # 1e307
_E308 = "1" + "0" * 308  # 1e308
_BIG = "25" + "0" * 306  # 2.5e307

# families whose samples fail, each rule of the scans and the floor sweep
_FAMILIES = (
    "1/(z-n)",
    "exp(n*z)",
    "z^2+n*z^3",
    f"z+(1+i)*{_BIG}*z^3",
    f"(1+i)*2{'0' * 307}*n*z",
    f"0.00000000001*z+52{'0' * 141}*(1+0.41421356*i)*z^2",
    f"0.00000000001*z+5{'0' * 143}*z^2",
    f"0.00000000001*z+5{'0' * 143}*(1+i)*z^2",
    f"(1+i)*75{'0' * 306}*z^2",
    f"(1+i)*4{'0' * 307}*z^2",
    "exp(z/(n*z+1))",
    "log(z*0*n-n)+z",
    "z + (z^2)/n",
    "n",
)
_GRIDS = (
    "-0.5,0.5,0,1,3,1",
    "0,2,0,1,3,1",
    "80,240,-1,1,3,1",
    "-1,1,-1,1,3,3",
    "4.5e-13,1,4.5e-13,1,1,1",
)
_RADII = ("0.1", "0.001")
_HYPOTHESES = ("--epsilon", "0.5", "--zeta", "0.3+0.2i", "--L", "10")

_SEGMENTS = (
    ("0+0i", "1+0i"),
    ("0.3+0.2i", "-0.7+1.1i"),
    ("1+0i", "1.5+0i"),
    ("3+0i", "4+0i"),
    (f"-{_E308}+0i", f"{_E308}+0i"),
    (f"{_E308}+0i", f"{_E308}+{_E307}i"),
    (f"0+{_E308}i", f"{_E307}-{_E308}i"),
)
_BOUND_FAMILIES = (
    "z",
    "1/z",
    "1/(z-n)",
    "1/(z-1)",
    "1/(z-0.5)",
    "1/(z-0.5)+z^2",
    "1/(z-2*n)",
    f"1/(z/n+{_E308})",
    f"1/(z+{_E308})",
    f"(1+i)*15{'0' * 307}*z",
    "exp(n*z)",
    "log(z*0*n-n)+z",
    "(z^2)/n",
)


def corpus() -> list[list[str]]:
    """Every command, in the order they run."""
    sys.path.insert(0, str(ROOT / "bench"))
    import mix
    import workloads

    out = []
    for seed in SEEDS:
        out += [cmd["argv"] for cmd in mix.command_stream(seed, workloads.CHECKS_PER_STREAM)]
    for seed in SEEDS:
        for w in workloads.GRIDS.values():
            out += [[*w.argv(seed), "--format", fmt] for fmt in ("csv", "json")]
    for family in _FAMILIES:
        for grid in _GRIDS:
            for radius in _RADII:
                common = [f"--family={family}", f"--grid={grid}", "--radius", radius,
                          "--samples", "3", "--n-max", "8"]
                out += [["scan-marty", *common, "--workers", "1"],
                        ["scan-sd", *common, "--workers", "1", "--format", "json"],
                        ["hypotheses", *common, *_HYPOTHESES]]
    for command in ("scan-marty", "scan-sd", "hypotheses"):
        extra = list(_HYPOTHESES) if command == "hypotheses" else []
        for grid, radius, samples in (
            ("0,1,0,1,2,1", "inf", "9"),
            ("0,1,0,1,2,1", "nan", "9"),
            ("1.7e308,1.75e308,0,1,2,1", "1e308", "3"),
            ("1.7e308,1.75e308,0,1,2,1", "1e308", "1"),
            ("1.6e308,1.7e308,-1,1,2,2", "1e307", "3"),
        ):
            for family in ("n", "z"):
                for fmt in ("csv", "json"):
                    out.append([command, f"--family={family}", f"--grid={grid}", "--radius",
                                radius, "--samples", samples, "--n-max", "3", *extra,
                                "--format", fmt])
    for family in _BOUND_FAMILIES:
        for z0, z in _SEGMENTS:
            for samples in ("2", "3", "4", "7", "256", "3000"):
                for fmt in ("csv", "json"):
                    out.append(["bound", f"--family={family}", "--n-max", "2", f"--z0={z0}",
                                f"--z={z}", "--segment-samples", samples, "--format", fmt])
    return out


def run(src: Path) -> None:
    sys.path.insert(0, str(src))
    from schwarzian_lab import cli

    where = Path(cli.__file__).resolve().parent
    if where != src.resolve() / "schwarzian_lab":
        sys.exit(f"hash_outputs: imported schwarzian_lab from {where}, not {src}")
    os.environ.pop(cli.SEED_ENV_VAR, None)
    warnings.simplefilter("always")
    total = hashlib.sha256()
    commands = corpus()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse refusing an argv
                code = exc.code
        digest = hashlib.sha256(
            json.dumps([code, out.getvalue(), err.getvalue()]).encode()
        ).hexdigest()
        total.update(digest.encode())
        print(f"{digest}\t{json.dumps(argv)}")
    print(f"total {total.hexdigest()} over {len(commands)} commands")


def _lines(path: str) -> list[tuple[str, str]]:
    rows = []
    for line in Path(path).read_text().splitlines():
        if "\t" in line:
            digest, argv = line.split("\t", 1)
            rows.append((argv, digest))
    return rows


def diff(a: str, b: str) -> int:
    left, right = _lines(a), _lines(b)
    if [argv for argv, _ in left] != [argv for argv, _ in right]:
        print("the two runs hashed different corpora")
        return 2
    differ = [argv for (argv, x), (_, y) in zip(left, right) if x != y]
    for argv in differ:
        print(argv)
    print(f"{len(differ)} of {len(left)} commands differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(argv[1], argv[2])
    if len(argv) == 1 and not argv[0].startswith("-"):
        run(Path(argv[0]))
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
