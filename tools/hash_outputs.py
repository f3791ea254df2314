"""Hash what the CLI prints on a fixed corpus of commands, to hold bytes across a change.

    python tools/hash_outputs.py SRC_DIR > before.txt
    python tools/hash_outputs.py --diff before.txt after.txt
    python tools/hash_outputs.py --against REV
    python tools/hash_outputs.py --lanes SRC_DIR
    python tools/hash_outputs.py --lanes --against REV
    python tools/hash_outputs.py --verdicts SRC_DIR
    python tools/hash_outputs.py --verdicts --against REV

The first form runs ``schwarzian_lab.cli.main(argv)`` in this process,
from ``SRC_DIR/schwarzian_lab``, once per command of the corpus below, and
prints one line per command: the SHA-256 of its exit code, stdout and
stderr, a tab, and its argv as JSON.  A last line gives the SHA-256 of all
the per-command hashes.  Run it on two trees (say a ``git archive`` of the
parent commit and the working tree) and compare the totals; ``--diff``
lists the commands whose hashes differ, and exits 1 if any do.
``--against REV`` does both in one command: it exports REV's ``src/``
with ``git archive`` into a temporary directory, hashes the corpus on
that tree and on the working tree's ``src/``, each in its own child
process, and prints both totals, then the argv of each command whose
hashes differ; it exits 1 if any do, and 2 if either run fails.

``--lanes`` hashes generated code in place of output: for each family
that the corpus passes as ``--family`` and that parses, each once, the
SHA-256 of the lane function's source (``codegen._lanes_source``) under
each of the statistics ``probe._MARTY``, ``_SD``, ``_FLOOR`` and
``_BOUND``, one line each, the digest, a tab and ``[family, statistic]``
as JSON, then the total.  ``--lanes --against REV`` compares the lane
sources of REV's ``src/`` and of the working tree's, as ``--against``
compares their output.

``--verdicts`` hashes, per command, its exit code, its stderr and, of its
stdout, only the cells that are no number of the computation: each row's
``verdict``, ``flags``, ``argmax_n`` and ``passed``, where it has them, in
CSV or JSON.  So a change that moves S by roundoff can show, with
``--verdicts --against REV``, which commands, if any, changed a verdict,
a flag or an argmax, where the default mode lists every command whose
bytes moved.

The corpus:

- the benchmark's ``checks-mix`` command streams at seeds 1 to 3 (eval,
  identity and bound commands on random families), from ``bench/mix.py``;
- the benchmark's three grid commands at seeds 1 to 3, in CSV and JSON,
  from ``bench/workloads.py``;
- families whose samples fail (poles, ``Overflow``, critical points, a
  Schwarzian and jet parts past the double range) on five grids at two
  radii, through ``scan-marty``, ``scan-sd`` and ``hypotheses``;
- grid points whose samples are past the double range;
- grids whose point counts straddle a block of the sweep (1, 31 and 33
  points, against blocks of 32), and one whose refused point falls
  mid-block, through ``scan-marty`` and ``scan-sd`` at ``--workers`` 1
  and 3, and ``hypotheses``, which takes no ``--workers``;
- ``bound`` segments from 2 to 3000 samples, in CSV and JSON, where
  f(z0), f(z) or a sample fails, and some of whose points, or whose
  ``z - z0``, are past the double range;
- the order rule: families whose f and f' are finite where f''' is not
  (``1/z`` near 1e-80), through ``scan-marty``, ``scan-sd`` and
  ``hypotheses`` on a grid of such points, and ``bound`` on a segment
  through them, and ``hypotheses`` whose value check reads f where its
  f''' is past the double range;
- the split of a scan over its processes: ``scan-sd`` and ``scan-marty``
  at more ``--workers`` than grid points, and at a count of workers the
  points are not a multiple of;
- ``scan-sd`` groups whose argmax sample alone, or whose every sample, is
  redone by the walk, at ``--workers`` 1 and 3;
- identity checks, in CSV and JSON, that the error-bound clause decides:
  the pins of ``tests/test_identity_oracle.py`` (``--tol-abs 0 --tol-rel
  5e-324`` forces the clause where a fixed tolerance would decide), its
  negative control, and each of the four kinds passing by a finite bound
  and failing by an infinite one, at a point whose value lies near log's
  branch cut;
- front-end errors, each an ``eval`` that exits 2: an unknown identifier,
  a literal past the double range, an exponent that is not an integer or
  past ``MAX_EXPONENT``, two operands with no operator, nesting past
  ``MAX_DEPTH`` (parentheses, and a flat ``z+z+...`` chain), a non-ASCII
  digit and a form feed.
- literal paths: a literal subtree under each node kind, each way a
  literal fails (an exp past its guard, a division by zero, a log of 0, a
  zero to a negative power, a product past the double range), jets whose
  value part is a known constant while a higher part is not, and n only
  under the outer map that ``scan-sd`` peels off, or only times 0, each
  through ``scan-marty``, ``scan-sd`` and ``hypotheses`` on a small grid,
  and through ``bound``; those whose literal fails exit 3 from ``bound``
  and ``hypotheses``;
- ``bound``'s roundoff clause: the segment of an affine f whose large
  constant costs f(z) - f(z0) its last digits, which passes by the clause
  where the fixed rule fails it, and one across log's cut, which fails
  by both, in CSV and JSON;
- the argparse surface: ``-h`` of the top parser and of each of the six
  subcommands (exit 0, the help on stdout); an empty argv; an unknown
  subcommand; an unrecognized argument after each subcommand's required
  ones; a missing required option; a ``--format`` that is not a choice;
  and values that a ``type=`` refuses (an integer, a complex literal, a
  grid).  Each but ``-h`` exits 2 with argparse's usage and error lines on
  stderr;
- code paths that no command above runs: ``scan-sd`` of a root under a
  negation (the peel rule's ``Neg`` branch); ``z+n^9`` and
  ``z*(n+1)^-12`` (a loop-invariant power past codegen's inline limit)
  through both scans, ``hypotheses`` and ``bound``; a fit window of one
  log n (a nan slope) at ``--workers`` 1 and 2; a grid wider than the
  double range; and the CLI's refusals: an identity check without its
  ``--mobius``, ``--omit`` or ``--phi``, a wrong family count, a
  three-entry ``--phi``, ``--workers 0``, ``--n-min`` above ``--n-max``,
  ``--n inf``, a malformed ``--z`` or ``--grid`` (each exit 2), and an
  ``--out`` in a directory that does not exist (exit 4), with one
  identity check whose Mobius map has a ``-n`` entry.

Only the standard library and ``git`` are used; ``bench/`` is read, never written.
Warnings are printed every time, as a fresh process prints them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings
from decimal import Decimal
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
# (grid, radius): 1, 31 and 33 points, and a second row past the double
# range, whose first point, index 20, is refused in the middle of a block
_BLOCK_GRIDS = (
    ("0,1,0,1,1,1", "0.05"),
    ("0,1,0,1,31,1", "0.05"),
    ("-1,1,-1,1,11,3", "0.05"),
    ("0,1,0,1.79e308,20,2", "1e308"),
)
_BLOCK_FAMILIES = ("(z+0.5)^2*exp(n*z)/(z-0.5)", "1/(z-n)", "exp(z/(n*z+1))", "z + (z^2)/n")
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

# the order rule: f and f' finite, f''' past the double range, near these
# points: (family, grid, radius), and (family, z0, z) of bound
_TINY = "0." + "0" * 79  # 1e-80 is _TINY + "1"
_ORDER_GRIDS = (
    ("1/z", "1e-80,3e-80,-1e-80,1e-80,3,1", "1e-81"),
    ("(1/z)^0+z", "1e-80,3e-80,-1e-80,1e-80,3,1", "1e-81"),
    ("(1/z)^9", "1e-28,3e-28,-1e-28,1e-28,3,1", "1e-29"),
)
_ORDER_SEGMENTS = (
    ("1/z", f"{_TINY}1+0i", f"{_TINY}3+0i"),
    ("1/z", f"{_TINY}1-{_TINY}1i", f"{_TINY}3+{_TINY}1i"),
    ("(1/z)^9", f"0.{'0' * 27}1+0i", f"0.{'0' * 27}3+0i"),
)

# the conjugation pins of tests/test_identity_oracle.py: f, n, z and the
# normalized phi of seeds 174, 2143, 46 and 45803
_CONJUGATION_PINS = (
    ("((z+z)*(2-i))^2", 1, "0.000000001+0i",
     "0.7692524700845836+0.8304286766715815i,0.5447054990557348+0.28189120611778723i,"
     "0.07540281597600028-0.777627020835469i,0.4958573863031315-1.0582956162094357i"),
    ("(2.97/(z+4)+n*n)*((z+z)*(n*n))", 5, "0+0i",
     "0.4191278043524404+0.7861427379154736i,0.21203282396262976+0.7617417509444468i,"
     "0.34685829444683214+0.6532317555352427i,0.7030403302774536-0.35780740428633634i"),
    ("exp(n/(z+2)*(2*n))", 6, "1+0i",
     "-0.6814384285128786+1.1477136505894772i,-0.4336522029275518+0.018201465604926657i,"
     "0.5189602575187873+0.21855305225667881i,-0.3498563187180866-0.46402533848537975i"),
    ("(-(z*z))*(-exp(z))", 6, "0.000000000001+0i",
     "0.37947837416679414+0.8452581472912806i,-0.2562470402778441-0.14172753916645778i,"
     "-0.7826831800168442-0.18113713645636761i,0.6742738423046827-1.0872604887359596i"),
)
_FORCE_BOUND = ["--tol-abs", "0", "--tol-rel", "5e-324"]
# log(z-0.1) at this point takes its argument within the literal's half
# ulp of the branch cut, so the bound is infinite
_NEAR_CUT = "-1+0.00000000000000000001i"


def _dsl(c: complex) -> str:
    """A complex constant as DSL text, each part as its exact decimal."""

    def part(x: float) -> str:
        text = format(Decimal(repr(abs(x))), "f")
        return f"(-{text})" if x < 0.0 else text

    return f"({part(c.real)}+{part(c.imag)}*i)"


def _conjugation(f: str, n, z: str, phi: str, g: str | None = None) -> list[str]:
    """phi conjugates f to g; by default g is phi after f after phi's inverse."""
    if g is None:
        a, b, c, d = (_dsl(complex(x.replace("i", "j"))) for x in phi.split(","))
        inner = f.replace("z", f"(({d}*z-{b})/({a}-{c}*z))")
        g = f"({a}*{inner}+{b})/({c}*{inner}+{d})"
    return ["identity", "conjugation", f"--family={f}", f"--family={g}", f"--n={n}",
            f"--z={z}", f"--phi={phi}"]


def _identity_bound_checks() -> list[list[str]]:
    invariance = ["identity", "mobius-invariance", "--n=8"]
    composition = ["identity", "composition", "--n=2"]
    reciprocal = ["identity", "reciprocal", "--n=1", "--omit=0+0i"]
    near_cut = ["--family=log(z-0.1)", f"--z={_NEAR_CUT}"]
    checks = [
        *(_conjugation(*pin) for pin in _CONJUGATION_PINS),
        # pinned on test_property_invariance_for_random_families
        [*invariance, "--family=exp(log(z+4))*exp(2.59*n)", "--z=0+0i", "--mobius=1,0,1,1",
         *_FORCE_BOUND],
        # the negative control: g''' moved by a relative 1e-6 of S_g
        _conjugation("exp(n*z)", 4, "0.2+0i", "4,0,0,1",
                     "n*exp(z)+(-0.0000007418469761641559)*(z-0.8)^3"),
        [*invariance, "--family=exp(n*z)+z^3", "--z=0.3+0.1i", "--mobius=1,2,3,4",
         *_FORCE_BOUND],
        [*invariance, *near_cut, "--mobius=1,2,3,4", *_FORCE_BOUND],
        [*composition, "--family=exp(z)+z^2", "--family=log(z+2)*z", "--z=0.3-0.2i",
         *_FORCE_BOUND],
        # f(z) is near -1, so g = log(z-0.1) meets the cut as above
        [*composition, "--family=z^2", "--family=log(z-0.1)", "--z=0.00000000000000000001+1i",
         *_FORCE_BOUND],
        [*reciprocal, "--family=exp(z)", "--z=0.3+0i", *_FORCE_BOUND],
        [*reciprocal, *near_cut, *_FORCE_BOUND],
        [*_conjugation("exp(z)", 1, "0.3+0i", "2,0,0,1", "2*exp(z/2)"), *_FORCE_BOUND],
        [*_conjugation("log(z-0.1)", 1, _NEAR_CUT, "2,0,0,1", "2*log(z/2-0.1)"),
         *_FORCE_BOUND],
    ]
    return [[*argv, "--format", fmt] for argv in checks for fmt in ("csv", "json")]


# scan-sd grids whose lanes the lane function redoes where the walk gives a
# value: f' within the critical guard's square, past its circle.  On the
# first some group's argmax is its one redone sample; on the second groups
# whose every sample is redone share their calls with groups whose argmax
# is not (tests/test_probe.py's "redone-argmax" and "all-redone")
_KEPT_GRIDS = (
    ("0.00000000000104*(1+i)/(exp(z/(n*z+1))-2)", "-0.1,0.1,-0.1,0.1,3,3", "0.05"),
    ("0.0000000000009*(1+i)/(exp(z/(n*z+1))-2)", "-0.02,0.02,-0.02,0.02,3,3", "0.01"),
)


# literal paths of the lane function: a literal subtree under each node
# kind, each way a literal fails, jets whose value part is a known
# constant while a higher part is not, and n only under the peeled outer
# map or only times 0
_LITERAL_FAMILIES = (
    "z+exp(2)", "z-log(2+i)", "z*(3-i)", "z/(2*i)", "z*-2", "z+2/(1+i)", "z+(1+i)^3",
    "z+(1+i)^-2", "z+(1+i)^12", "z+i^0",
    "z+exp(1000)", "z+1/(1-1)", "z+log(0)", "z*0^-1", "z*(10^200)^2",
    "z/(1+0*exp(z))", "log(0/(4+z)+3)", "exp(1000+0/(4+z))", "log(0+0/(4+z))", "z/(0+0/(4+z))",
    "n*exp(z)", "0*n+z",
)
# bound's roundoff clause: (family, z0, z)
_ROUNDOFF_SEGMENTS = (
    ("(((0.32/(n+3))*(2*z))-exp(exp(n)))", "0.4100+0.6233i", "0.3021-0.6876i"),
    ("log(z)", "-1+0.1i", "-1-0.1i"),
)


# front-end errors: texts the lexer or the parser refuses
_REFUSED = (
    "sin(z)",
    "2.^2",
    "z^2.5",
    "z z",
    "1" + "0" * 309,
    "z^1001",
    "z^-1001",
    "(" * 101 + "z" + ")" * 101,
    "+".join(["z"] * 102),
    "z+\u0663",
    "z+\f1",
)


# the argparse surface: each subcommand's required arguments, so that an
# argument after them is one the top parser reports as unrecognized
_REQUIRED = {
    "eval": ["--family=z", "--n=1", "--z=0+0i"],
    "identity": ["composition", "--family=z", "--family=z", "--n=1", "--z=0+0i"],
    "scan-marty": ["--family=z", "--grid=0,1,0,1,2,1"],
    "scan-sd": ["--family=z", "--grid=0,1,0,1,2,1"],
    "bound": ["--family=z", "--z0=0+0i", "--z=1+0i"],
    "hypotheses": ["--family=z", "--grid=0,1,0,1,2,1", *_HYPOTHESES],
}


def _argparse_surface() -> list[list[str]]:
    return [
        ["-h"],
        *([name, "-h"] for name in _REQUIRED),
        [],
        ["nope"],
        *([name, *required, "--bogus"] for name, required in _REQUIRED.items()),
        ["eval", "--family=z", "--n=1"],
        ["eval", "--family=z", "--n=1", "--z=0+0i", "--format", "xml"],
        ["scan-marty", *_REQUIRED["scan-marty"], "--samples", "many"],
        ["bound", "--family=z", "--z0=0+0i", "--z=1+j"],
        ["scan-sd", "--family=z", "--grid=0,1,0,1,2"],
    ]


# code paths that no command above runs: the peel rule's Neg branch, a
# loop-invariant power past codegen's inline limit (pow_int in the
# prelude), a fit window of one log n (a nan slope), a grid wider than the
# double range, and the CLI's refusals, each exit 2 but an unwritable
# --out, exit 4
_IDENTITY = ["--n=1", "--z=0.5+0i"]
_SCAN = ["--grid=-0.5,0.5,-0.5,0.5,3,3", "--samples", "3", "--n-max", "8"]
_REFUSALS = (
    ["identity", "mobius-invariance", "--family=z", *_IDENTITY],
    ["identity", "reciprocal", "--family=z", *_IDENTITY],
    ["identity", "conjugation", "--family=z", "--family=z", *_IDENTITY],
    ["identity", "composition", "--family=z", *_IDENTITY],
    ["identity", "conjugation", "--family=z", "--family=z", *_IDENTITY, "--phi=1,0,1"],
    ["identity", "mobius-invariance", "--family=z^2", "--n=2", "--z=0.5+0.1i", "--mobius=-n,0,0,1"],
    ["scan-marty", "--family=z", *_SCAN, "--workers", "0"],
    ["scan-marty", "--family=z", "--grid=0,1,0,1,2,1", "--n-min", "3", "--n-max", "2"],
    ["eval", "--family=z", "--n", "inf", "--z=0.5+0i"],
    ["eval", "--family=z", "--n=1", "--z=1+2"],
    ["scan-sd", "--family=z", "--grid=0,1,x,1,2,1"],
    ["eval", "--family=z", "--n=1", "--z=0.5+0i", "--out", "/nonexistent-dir/x.csv"],
)


def _uncovered() -> list[list[str]]:
    out = [["scan-sd", "--family=-exp(z/(n*z+1))", *_SCAN, "--workers", "1"]]
    for family in ("z+n^9", "z*(n+1)^-12"):
        out += [["scan-marty", f"--family={family}", *_SCAN, "--workers", "1"],
                ["scan-sd", f"--family={family}", *_SCAN, "--workers", "1"],
                ["hypotheses", f"--family={family}", *_SCAN, *_HYPOTHESES],
                ["bound", f"--family={family}", "--n-max", "3", "--z0=0.3+0.2i", "--z=-0.7+1.1i",
                 "--segment-samples", "16"]]
    for workers in ("1", "2"):
        out += [["scan-marty", "--family=z", "--grid=0,1,0,1,2,1", "--n-min", "1" + "0" * 24,
                 "--n-max", "1" + "0" * 22 + "10", "--workers", workers],
                ["scan-sd", "--catalog=example2", "--grid=-1e-20,1e-20,-1e-20,1e-20,2,2",
                 "--radius=1e-21", "--n-min", "1" + "0" * 20, "--n-max", "1" + "0" * 18 + "10",
                 "--workers", workers]]
    out += [[command, "--family=z", "--grid=-1e308,1e308,0,1,3,1", "--samples", "3", "--n-max", "3",
             *(_HYPOTHESES if command == "hypotheses" else ["--workers", "1"])]
            for command in ("scan-marty", "scan-sd", "hypotheses")]
    return out + [list(argv) for argv in _REFUSALS]


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
    for family in _BLOCK_FAMILIES:
        for grid, radius in _BLOCK_GRIDS:
            common = [f"--family={family}", f"--grid={grid}", "--radius", radius,
                      "--samples", "9", "--n-max", "8"]
            for workers in ("1", "3"):
                out += [["scan-marty", *common, "--workers", workers],
                        ["scan-sd", *common, "--workers", workers, "--format", "json"]]
            out.append(["hypotheses", *common, *_HYPOTHESES])
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
    for family, grid, radius in _ORDER_GRIDS:
        common = [f"--family={family}", f"--grid={grid}", "--radius", radius, "--samples", "3",
                  "--n-max", "4"]
        for workers in ("1", "2"):
            out += [["scan-marty", *common, "--workers", workers],
                    ["scan-sd", *common, "--workers", workers]]
        out += [["hypotheses", *common, *_HYPOTHESES, "--format", fmt] for fmt in ("csv", "json")]
    for L in ("1e300", "1e200"):
        out.append(["hypotheses", "--family=(1/z)^9", "--grid=0.5,1,0.5,1,2,2", "--n-max", "2",
                    "--epsilon", "0.1", f"--zeta={_TINY[:28]}1+0i", f"--L={L}"])
    for grid, workers in (("-0.5,0.5,-0.5,0.5,4,3", "5"), ("-0.5,0.5,0,0.5,3,1", "5")):
        for command in ("scan-sd", "scan-marty"):
            out.append([command, "--catalog", "example2", f"--grid={grid}", "--n-max", "16",
                        "--workers", workers])
    for family, grid, radius in _KEPT_GRIDS:
        for workers in ("1", "3"):
            out.append(["scan-sd", f"--family={family}", f"--grid={grid}", "--radius", radius,
                        "--n-max", "8", "--seed", "4", "--workers", workers])
    for family, z0, z in _ORDER_SEGMENTS:
        for samples in ("2", "256"):
            out += [["bound", f"--family={family}", "--n-max", "2", f"--z0={z0}", f"--z={z}",
                     "--segment-samples", samples, "--format", fmt] for fmt in ("csv", "json")]
    for family in _BOUND_FAMILIES:
        for z0, z in _SEGMENTS:
            for samples in ("2", "3", "4", "7", "256", "3000"):
                for fmt in ("csv", "json"):
                    out.append(["bound", f"--family={family}", "--n-max", "2", f"--z0={z0}",
                                f"--z={z}", "--segment-samples", samples, "--format", fmt])
    for family in _LITERAL_FAMILIES:
        common = [f"--family={family}", "--grid=-1,1,-1,1,2,2", "--samples", "3", "--n-max", "3"]
        out += [["scan-marty", *common, "--workers", "1"], ["scan-sd", *common, "--workers", "1"],
                ["hypotheses", *common, *_HYPOTHESES],
                ["bound", f"--family={family}", "--n-max", "3", "--z0=0.3+0.2i", "--z=-0.7+1.1i",
                 "--segment-samples", "16"]]
    for family, z0, z in _ROUNDOFF_SEGMENTS:
        out += [["bound", f"--family={family}", "--n-max", "3", f"--z0={z0}", f"--z={z}",
                 "--format", fmt] for fmt in ("csv", "json")]
    out += _identity_bound_checks()
    out += [["eval", f"--family={text}", "--n=1", "--z=0.5+0i"] for text in _REFUSED]
    return out + _argparse_surface() + _uncovered()


def _import(src: Path) -> None:
    """Import the package from ``src``, never from elsewhere on the path."""
    sys.path.insert(0, str(src))
    import schwarzian_lab

    where = Path(schwarzian_lab.__file__).resolve().parent
    if where != src.resolve() / "schwarzian_lab":
        sys.exit(f"hash_outputs: imported schwarzian_lab from {where}, not {src}")


# the cells of a command's rows that --verdicts keeps
_VERDICT_CELLS = ("verdict", "flags", "argmax_n", "passed")


def _verdicts(out: str) -> list:
    """The verdict cells of each row that a command printed, CSV or JSON."""
    try:
        rows = json.loads(out)
    except ValueError:
        rows = list(csv.DictReader(io.StringIO(out)))
    if isinstance(rows, dict):
        rows = [rows]
    return [[row[k] for k in _VERDICT_CELLS if k in row] for row in rows]


def run(src: Path, verdicts: bool = False) -> None:
    _import(src)
    from schwarzian_lab import cli

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
        printed = _verdicts(out.getvalue()) if verdicts else out.getvalue()
        digest = hashlib.sha256(json.dumps([code, printed, err.getvalue()]).encode()).hexdigest()
        total.update(digest.encode())
        print(f"{digest}\t{json.dumps(argv)}")
    print(f"total {total.hexdigest()} over {len(commands)} commands")


# the statistics whose lane functions --lanes hashes, by their names in probe
_STATISTICS = ("_MARTY", "_SD", "_FLOOR", "_BOUND")


def families() -> list[str]:
    """The texts the corpus passes as ``--family``, each once, in order."""
    out: dict = {}
    for argv in corpus():
        for k, arg in enumerate(argv):
            if arg.startswith("--family="):
                out.setdefault(arg[len("--family="):])
            elif arg == "--family":
                out.setdefault(argv[k + 1])
    return list(out)


def run_lanes(src: Path) -> None:
    _import(src)
    from schwarzian_lab import codegen, probe
    from schwarzian_lab.dsl import ParseError, parse

    total = hashlib.sha256()
    count = 0
    for text in families():
        try:
            root = parse(text).root
        except ParseError:
            continue
        for name in _STATISTICS:
            source, _ = codegen._lanes_source(root, getattr(probe, name))
            digest = hashlib.sha256(source.encode()).hexdigest()
            total.update(digest.encode())
            count += 1
            print(f"{digest}\t{json.dumps([text, name])}")
    print(f"total {total.hexdigest()} over {count} lane sources")


def _lines(text: str) -> list[tuple[str, str]]:
    rows = []
    for line in text.splitlines():
        if "\t" in line:
            digest, argv = line.split("\t", 1)
            rows.append((argv, digest))
    return rows


def _compare(a: str, b: str, what: str = "commands") -> int:
    # a and b are the output of two runs
    left, right = _lines(a), _lines(b)
    if [argv for argv, _ in left] != [argv for argv, _ in right]:
        print("the two runs hashed different corpora")
        return 2
    differ = [argv for (argv, x), (_, y) in zip(left, right) if x != y]
    for argv in differ:
        print(argv)
    print(f"{len(differ)} of {len(left)} {what} differ")
    return 1 if differ else 0


def diff(a: str, b: str) -> int:
    return _compare(Path(a).read_text(), Path(b).read_text())


def against(rev: str, mode: list) -> int:
    """Hash the corpus, its verdicts or its lane sources (``mode``, the
    run's flag, if any), on REV's ``src/`` and on the working tree's, and
    compare."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="hash-outputs-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        runs = [
            subprocess.Popen([sys.executable, __file__, *mode, str(src)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for src in (Path(tmp) / "src", ROOT / "src")
        ]
        outs = [run.communicate() for run in runs]
    for name, run, (out, err) in zip((rev, "working tree"), runs, outs):
        if run.returncode:
            print(f"hash_outputs: the run on {name} failed\n{err}", end="", file=sys.stderr)
            return 2
        print(f"{name}: {out.splitlines()[-1]}")
    what = "lane sources" if mode == ["--lanes"] else "commands"
    return _compare(*(out for out, _ in outs), what)


def main(argv: list[str]) -> int:
    mode = argv[:1] if argv[:1] in (["--lanes"], ["--verdicts"]) else []
    argv = argv[len(mode):]
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(argv[1], argv[2])
    if len(argv) == 2 and argv[0] == "--against":
        return against(argv[1], mode)
    if len(argv) == 1 and not argv[0].startswith("-"):
        if mode == ["--lanes"]:
            run_lanes(Path(argv[0]))
        else:
            run(Path(argv[0]), verdicts=bool(mode))
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
