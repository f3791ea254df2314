"""Command-line surface: eval, identity checks, grid scans, bound checks.

Every subcommand is a thin adapter over the library: arguments are parsed
and validated here, and all numerics happen in the other modules.  Each
handler turns its result into rows (dicts) and one writer prints them:
``rows_to_csv`` or ``rows_to_json``, which decide every cell's format by
the value's type.  The writer and the row builders are public so tests can
compare CLI output against direct library calls byte for byte.  A command
builds the parser of its own subcommand alone, and imports ``probe`` (and
with it ``codegen``) only for the subcommands that run it: ``scan-marty``,
``scan-sd``, ``bound`` and ``hypotheses``.

Exit codes: 0 success/pass, 1 identity, bound or hypothesis check
failed, 2 parse or configuration error, 3 evaluation error (any
arithmetic failure, an ``ArithmeticError``, or a violated identity
guard), 4 I/O error, or a scan process that ended without its result
(killed, say).
A warning, such as a neighborhood radius that spans four or more grid
cells, prints as one ``warning: <message>`` line on standard error, under
any warning filter (``-W error`` too), and leaves the exit code as it is.

Complex literals on the command line use the form ``a+bi`` with no spaces
(``1+0i``, ``1.5-2i``, ``0.2``, ``-i``); the mantissa syntax is shared
with the expression language's number lexer.  Mobius coefficient lists
(``--mobius``/``--phi``) are four such literals separated by commas, where
an entry may also be ``n`` or ``-n`` to denote the current family index.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

from .dsl import FamilyExpr, ParseError, eval_jet, lex_number, parse
from .schwarzian import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    ConjugacyViolated,
    CriticalPointError,
    GuardViolation,
    IdentityReport,
    Mobius,
    check_composition_law,
    check_conjugation,
    check_mobius_invariance,
    check_reciprocal,
    schwarzian,
    spherical_derivative,
)

__all__ = [
    "CATALOG",
    "SEED_ENV_VAR",
    "parse_complex",
    "format_complex",
    "eval_record",
    "identity_row",
    "scan_rows",
    "bound_rows",
    "hypotheses_row",
    "rows_to_csv",
    "rows_to_json",
    "main",
]

SEED_ENV_VAR = "SCHWARZIAN_LAB_SEED"

# named families from the survey of examples this tool ships with
CATALOG = {
    "example1": "exp(n*z)",
    "example2": "exp(z/(n*z+1))",
    "example3": "exp(z)-n",
    "example4-f": "exp(n*z)",
    "example4-g": "n*exp(z)",
    "example7-f": "exp(z+n)",
    "example7-g": "exp(z)+n",
}


# ---------------------------------------------------------------------------
# literal parsing and formatting


def parse_complex(text: str) -> complex:
    """Parse an ``a+bi`` literal with no spaces, e.g. ``1.5-2i`` or ``0.2``."""
    s = text.strip()
    n = len(s)

    def component(pos: int) -> tuple[float, bool, int]:
        sign = 1.0
        if pos < n and s[pos] in "+-":
            if s[pos] == "-":
                sign = -1.0
            pos += 1
        if pos < n and s[pos] == "i":
            return sign, True, pos + 1
        digits, pos = lex_number(s, pos)
        value = sign * float(digits)
        if pos < n and s[pos] == "i":
            return value, True, pos + 1
        return value, False, pos

    value, imag, pos = component(0)
    re, im = (0.0, value) if imag else (value, 0.0)
    if not imag and pos < n:
        value, imag, pos = component(pos)
        if not imag:
            raise ParseError(pos, "second component must end in 'i'", "'i'")
        im = value
    if pos != n:
        raise ParseError(pos, f"trailing text in complex literal {text!r}", "end of literal")
    return complex(re, im)


def format_complex(w: complex) -> str:
    return format(w.real, ".17g") + format(w.imag, "+.17g") + "i"


def _mobius_from_text(text: str, n: float) -> Mobius:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError(0, "Mobius coefficients must be 'a,b,c,d'", "four entries")
    coeffs = []
    for part in parts:
        entry = part.strip()
        if entry == "n":
            coeffs.append(complex(n))
        elif entry == "-n":
            coeffs.append(-complex(n))
        else:
            coeffs.append(parse_complex(entry))
    return Mobius(*coeffs)


# ---------------------------------------------------------------------------
# rows and the one writer (shared between the CLI and tests)


def eval_record(f: FamilyExpr, n: float, z: complex) -> dict:
    """Jet, Schwarzian and spherical derivative of f_n at z, as strings.

    A critical point leaves the record intact with the error name in the
    ``schwarzian`` field; jet evaluation failures propagate.
    """
    jet = eval_jet(f, n, z)
    try:
        s_text = format_complex(schwarzian(jet))
    except CriticalPointError as exc:
        s_text = type(exc).__name__
    return {
        "v": format_complex(jet.v),
        "d1": format_complex(jet.d1),
        "d2": format_complex(jet.d2),
        "d3": format_complex(jet.d3),
        "schwarzian": s_text,
        "spherical": repr(spherical_derivative(jet)),
    }


def _fields(report) -> dict:
    # a report's fields, in their order, as a row
    return {name: getattr(report, name) for name in report._fields}


def identity_row(report: IdentityReport, fmt: str) -> dict:
    """The report's fields; ``error_bound`` and ``rule`` appear in JSON only."""
    row = _fields(report)
    if fmt == "csv":
        del row["error_bound"], row["rule"]
    return row


def scan_rows(
    report: MartyGridReport, verdicts: list[NormalityVerdict], fmt: str
) -> list[dict]:
    """One row per grid point; re/im are 17-digit text in CSV, numbers in JSON."""
    coord = (lambda x: format(x, ".17g")) if fmt == "csv" else float
    return [
        {
            "re": coord(point.z.real),
            "im": coord(point.z.imag),
            "sup_stat": point.sup_stat,
            "argmax_n": point.argmax_n,
            "growth_slope": point.growth_slope,
            "flags": ";".join(sorted(point.flags)),
            "verdict": verdict.verdict.value,
        }
        for point, verdict in zip(report.points, verdicts)
    ]


def bound_rows(reports: list[LocalBoundReport]) -> list[dict]:
    """One row per n, the report's fields in order."""
    return [_fields(r) for r in reports]


def hypotheses_row(report: HypothesesReport, fmt: str) -> dict:
    """The report's fields in order, then ``passed``; ``flags``, sorted and
    ``;``-joined as a scan row's, appears in JSON only."""
    row = {**_fields(report), "flags": ";".join(sorted(report.flags)), "passed": report.passed}
    if fmt == "csv":
        del row["flags"]
    return row


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return format_complex(value)
    return str(value)


def _json_value(value):
    # strict JSON has no inf/nan; they fall back to their repr strings
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, complex):
        return format_complex(value)
    return value


def rows_to_csv(rows) -> str:
    """A header line, then one line per row; a dict is a single row."""
    rows = [rows] if isinstance(rows, dict) else rows
    lines = [",".join(rows[0])] + [",".join(map(_cell, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    """A dict as one JSON object, a list of dicts as an array of them."""
    if isinstance(rows, dict):
        data = {key: _json_value(value) for key, value in rows.items()}
    else:
        data = [{key: _json_value(value) for key, value in row.items()} for row in rows]
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing


class _AppendFamily(argparse.Action):
    # --family and --catalog share one list, so f and g keep their order;
    # a catalog name (the option with choices) resolves to its text
    def __call__(self, parser, namespace, values, option_string=None):
        text = CATALOG[values] if self.choices else values
        setattr(namespace, self.dest, [*(getattr(namespace, self.dest) or []), text])


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _finite_arg(text: str) -> float:
    # the family index of a single point: the walk seeds n as a constant,
    # which must be finite
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _grid_arg(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("expected re0,re1,im0,im1,nx,ny")
    try:
        bounds = tuple(float(p) for p in parts[:4])
        nx, ny = int(parts[4]), int(parts[5])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return bounds + (nx, ny)


def _add_family_options(sub: argparse.ArgumentParser, what: str) -> None:
    sub.add_argument(
        "--family",
        dest="family_specs",
        action=_AppendFamily,
        metavar="TEXT",
        default=None,
        help=f"family expression in z and n; {what}",
    )
    sub.add_argument(
        "--catalog",
        dest="family_specs",
        action=_AppendFamily,
        choices=sorted(CATALOG),
        default=None,
        help="use a named built-in family instead of --family",
    )


def _add_output_options(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--out", metavar="PATH", default=None, help="write to a file instead of stdout")


def _add_grid_options(sub: argparse.ArgumentParser) -> None:
    from .probe import DEFAULT_RADIUS, DEFAULT_SAMPLES

    sub.add_argument("--grid", type=_grid_arg, required=True, metavar="re0,re1,im0,im1,nx,ny")
    sub.add_argument("--radius", type=float, default=DEFAULT_RADIUS, help="neighborhood radius")
    sub.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="samples per neighborhood")
    sub.add_argument("--seed", type=int, default=None, help=f"sampling seed (default ${SEED_ENV_VAR} or 0)")


def _add_n_range(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n-min", type=int, default=1)
    sub.add_argument("--n-max", type=int, default=64)


def _resolve_families(specs, count: int, command: str) -> list[FamilyExpr]:
    specs = specs or []
    if len(specs) != count:
        plural = "family" if count == 1 else "families"
        raise ValueError(
            f"{command} needs exactly {count} {plural} "
            f"(via --family/--catalog), got {len(specs)}"
        )
    return [parse(text) for text in specs]


def _resolve_seed(seed) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"${SEED_ENV_VAR} must be an integer, not {env!r}") from None


def _resolve_workers(workers) -> int:
    from .probe import MAX_WORKERS

    if workers is not None:
        if workers < 1:
            raise ValueError("--workers must be at least 1")
        return workers
    return min(os.cpu_count() or 1, MAX_WORKERS)


def _n_range(args) -> range:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError("need 1 <= n-min <= n-max")
    return range(args.n_min, args.n_max + 1)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_eval(args) -> tuple:
    family = _resolve_families(args.family_specs, 1, "eval")[0]
    return eval_record(family, args.n, args.z), 0


def _cmd_identity(args) -> tuple:
    kind = args.kind
    tols = {"tol_abs": args.tol_abs, "tol_rel": args.tol_rel}
    if kind == "mobius-invariance":
        family = _resolve_families(args.family_specs, 1, kind)[0]
        if args.mobius is None:
            raise ValueError("mobius-invariance needs --mobius a,b,c,d")
        mob = _mobius_from_text(args.mobius, args.n)
        report = check_mobius_invariance(family, args.n, mob, args.z, **tols)
    elif kind == "composition":
        f, g = _resolve_families(args.family_specs, 2, kind)
        report = check_composition_law(f, g, args.n, args.z, **tols)
    elif kind == "reciprocal":
        family = _resolve_families(args.family_specs, 1, kind)[0]
        if args.omit is None:
            raise ValueError("reciprocal needs --omit (the omitted value)")
        report = check_reciprocal(family, args.n, args.omit, args.z, **tols)
    else:
        f, g = _resolve_families(args.family_specs, 2, kind)
        if args.phi is None:
            raise ValueError("conjugation needs --phi a,b,c,d")
        phi = _mobius_from_text(args.phi, args.n)
        report = check_conjugation(f, g, phi, args.n, args.z, **tols)
    return identity_row(report, args.format), 0 if report.passed else 1


def _cmd_scan(args) -> tuple:
    from . import probe

    family = _resolve_families(args.family_specs, 1, "scan")[0]
    grid = probe.GridSpec(*args.grid, args.radius, args.samples)
    probe.check_thresholds(args.slope_threshold, args.decay_threshold, args.cap)  # before the scan
    # by name at call time: the parser is built once per process, and a
    # rebound name of probe's (a test's monkeypatch, a tracer) must still count
    report = getattr(probe, args.scan)(
        family,
        grid,
        _n_range(args),
        seed=_resolve_seed(args.seed),
        workers=_resolve_workers(args.workers),
    )
    verdicts = probe.classify(report, args.slope_threshold, args.decay_threshold, args.cap)
    return scan_rows(report, verdicts, args.format), 0


def _cmd_bound(args) -> tuple:
    from . import probe

    family = _resolve_families(args.family_specs, 1, "bound")[0]
    reports = probe.local_bound_estimate(
        family, _n_range(args), args.z0, args.z, args.segment_samples
    )
    return bound_rows(reports), 0 if all(r.passed for r in reports) else 1


def _cmd_hypotheses(args) -> tuple:
    from . import probe

    family = _resolve_families(args.family_specs, 1, "hypotheses")[0]
    grid = probe.GridSpec(*args.grid, args.radius, args.samples)
    report = probe.check_theorem_hypotheses(
        family,
        _n_range(args),
        grid,
        args.epsilon,
        args.zeta,
        args.L,
        seed=_resolve_seed(args.seed),
    )
    return hypotheses_row(report, args.format), 0 if report.passed else 1


def _add_eval(sub: argparse.ArgumentParser) -> None:
    _add_family_options(sub, "exactly one")
    sub.add_argument("--n", type=_finite_arg, required=True, help="family index")
    sub.add_argument("--z", type=_complex_arg, required=True, help="evaluation point, a+bi")
    _add_output_options(sub, "json")
    sub.set_defaults(handler=_cmd_eval)


def _add_identity(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "kind",
        choices=("mobius-invariance", "composition", "reciprocal", "conjugation"),
    )
    _add_family_options(sub, "one, or two for composition/conjugation (f first)")
    sub.add_argument("--n", type=_finite_arg, required=True)
    sub.add_argument("--z", type=_complex_arg, required=True)
    sub.add_argument("--mobius", metavar="a,b,c,d", default=None, help="map for mobius-invariance")
    sub.add_argument("--phi", metavar="a,b,c,d", default=None, help="conjugating map for conjugation")
    sub.add_argument("--omit", type=_complex_arg, default=None, help="omitted value for reciprocal")
    sub.add_argument("--tol-abs", type=float, default=DEFAULT_TOL_ABS)
    sub.add_argument("--tol-rel", type=float, default=DEFAULT_TOL_REL)
    _add_output_options(sub, "json")
    sub.set_defaults(handler=_cmd_identity)


def _add_scan(scan: str, sub: argparse.ArgumentParser) -> None:
    from .probe import DEFAULT_CAP, DEFAULT_DECAY_THRESHOLD, DEFAULT_SLOPE_THRESHOLD

    _add_family_options(sub, "exactly one")
    _add_grid_options(sub)
    _add_n_range(sub)
    sub.add_argument("--slope-threshold", type=float, default=DEFAULT_SLOPE_THRESHOLD)
    sub.add_argument("--decay-threshold", type=float, default=DEFAULT_DECAY_THRESHOLD)
    sub.add_argument("--cap", type=float, default=DEFAULT_CAP)
    sub.add_argument("--workers", type=int, default=None, help="scan processes (default: all cores)")
    _add_output_options(sub, "csv")
    sub.set_defaults(handler=_cmd_scan, scan=scan)


def _add_bound(sub: argparse.ArgumentParser) -> None:
    _add_family_options(sub, "exactly one")
    _add_n_range(sub)
    sub.add_argument("--z0", type=_complex_arg, required=True, help="segment start, a+bi")
    sub.add_argument("--z", type=_complex_arg, required=True, help="segment end, a+bi")
    sub.add_argument("--segment-samples", type=int, default=256)
    _add_output_options(sub, "json")
    sub.set_defaults(handler=_cmd_bound)


def _add_hypotheses(sub: argparse.ArgumentParser) -> None:
    _add_family_options(sub, "exactly one")
    _add_grid_options(sub)
    _add_n_range(sub)
    sub.add_argument("--epsilon", type=float, required=True, help="derivative floor")
    sub.add_argument("--zeta", type=_complex_arg, required=True, help="value-bound point, a+bi")
    sub.add_argument("--L", type=float, required=True, help="value bound at zeta")
    _add_output_options(sub, "json")
    sub.set_defaults(handler=_cmd_hypotheses)


# each subcommand: its help line, and the function that adds its arguments
_SUBCOMMANDS = {
    "eval": ("evaluate one family member's jet at a point", _add_eval),
    "identity": ("check one pointwise Schwarzian identity", _add_identity),
    "scan-marty": (
        "grid scan of the spherical derivative of f_n",
        functools.partial(_add_scan, "marty_scan"),
    ),
    "scan-sd": (
        "grid scan of the spherical derivative of the Schwarzian of f_n",
        functools.partial(_add_scan, "sd_family_scan"),
    ),
    "bound": ("segment mean-value bound check per family index", _add_bound),
    "hypotheses": (
        "derivative-floor and value-bound checks plus the derived Schwarzian bound",
        _add_hypotheses,
    ),
}


@functools.cache
def _build_parser(names: tuple = tuple(_SUBCOMMANDS)) -> argparse.ArgumentParser:
    # the parser of the subcommands ``names``, built once per process;
    # parse_args leaves it unchanged, and every default that depends on the
    # environment is resolved after parsing.  A parser of fewer than all
    # names every subcommand in its usage line, as the full one's choices do
    top = argparse.ArgumentParser(
        prog="schwarzian-lab",
        description="Schwarzian derivative identities and normal-family grid probes.",
    )
    every = names == tuple(_SUBCOMMANDS)
    sub = top.add_subparsers(
        dest="command", required=True, metavar=None if every else "{" + ",".join(_SUBCOMMANDS) + "}"
    )
    for name in names:
        help_text, add_arguments = _SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return top


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    # a warning as one line of the CLI's own, with no source location
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a subcommand's own parser alone; any other argv (-h, none, an
    # unknown name) meets the parser of them all
    parser = _build_parser((argv[0],)) if argv and argv[0] in _SUBCOMMANDS else _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # a warning prints as its line, and once per place, whatever
            # filter the interpreter was started with (-W error included)
            warnings.simplefilter("default")
            warnings.showwarning = _warn
            rows, code = args.handler(args)
        _emit(rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows), args.out)
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ConjugacyViolated, GuardViolation) as exc:
        # every evaluation error is an ArithmeticError: the walk's, the
        # jets', the identity checks', bound's segment error and Python's own
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
