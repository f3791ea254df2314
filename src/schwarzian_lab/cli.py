"""Command-line surface: eval, identity checks, grid scans, bound checks.

Every subcommand is a thin adapter over the library: arguments are parsed
and validated here, and all numerics happen in the other modules.  Each
handler turns its result into rows (dicts) and one writer prints them:
``rows_to_csv`` or ``rows_to_json``, which decide every cell's format by
the value's type.  The writer and the row builders are public so tests can
compare CLI output against direct library calls byte for byte.

Exit codes: 0 success/pass, 1 identity or bound check failed, 2 parse or
configuration error, 3 evaluation error, 4 I/O error.

Complex literals on the command line use the form ``a+bi`` with no spaces
(``1+0i``, ``1.5-2i``, ``0.2``, ``-i``); the mantissa syntax is shared
with the expression language's number lexer.  Mobius coefficient lists
(``--mobius``/``--phi``) are four such literals separated by commas, where
an entry may also be ``n`` or ``-n`` to denote the current family index.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .dsl import EvalError, FamilyExpr, ParseError, eval_jet, lex_number, parse
from .jets import JetError
from .probe import (
    DEFAULT_CAP,
    DEFAULT_DECAY_THRESHOLD,
    DEFAULT_RADIUS,
    DEFAULT_SAMPLES,
    DEFAULT_SLOPE_THRESHOLD,
    MAX_WORKERS,
    GridSpec,
    HypothesesReport,
    LocalBoundReport,
    MartyGridReport,
    NormalityVerdict,
    SegmentEvaluationError,
    check_theorem_hypotheses,
    classify,
    local_bound_estimate,
    marty_scan,
    sd_family_scan,
)
from .schwarzian import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    ConjugacyViolated,
    CriticalPointError,
    GuardViolation,
    IdentityReport,
    Mobius,
    PoleOfMobius,
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


def identity_row(report: IdentityReport, fmt: str) -> dict:
    """The report's fields; ``error_bound`` and ``rule`` appear in JSON only."""
    row = asdict(report)
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
    return [asdict(r) for r in reports]


def hypotheses_row(report: HypothesesReport) -> dict:
    """The report's fields in order, then ``passed``."""
    return {**asdict(report), "passed": report.passed}


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
    return int(env) if env else 0


def _resolve_workers(workers) -> int:
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
    family = _resolve_families(args.family_specs, 1, "scan")[0]
    grid = GridSpec(*args.grid, args.radius, args.samples)
    report = args.scan(
        family,
        grid,
        _n_range(args),
        seed=_resolve_seed(args.seed),
        workers=_resolve_workers(args.workers),
    )
    verdicts = classify(report, args.slope_threshold, args.decay_threshold, args.cap)
    return scan_rows(report, verdicts, args.format), 0


def _cmd_bound(args) -> tuple:
    family = _resolve_families(args.family_specs, 1, "bound")[0]
    reports = local_bound_estimate(
        family, _n_range(args), args.z0, args.z, args.segment_samples
    )
    return bound_rows(reports), 0 if all(r.passed for r in reports) else 1


def _cmd_hypotheses(args) -> tuple:
    family = _resolve_families(args.family_specs, 1, "hypotheses")[0]
    grid = GridSpec(*args.grid, args.radius, args.samples)
    report = check_theorem_hypotheses(
        family,
        _n_range(args),
        grid,
        args.epsilon,
        args.zeta,
        args.L,
        seed=_resolve_seed(args.seed),
    )
    return hypotheses_row(report), 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="schwarzian-lab",
        description="Schwarzian derivative identities and normal-family grid probes.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one family member's jet at a point")
    _add_family_options(p_eval, "exactly one")
    p_eval.add_argument("--n", type=float, required=True, help="family index")
    p_eval.add_argument("--z", type=_complex_arg, required=True, help="evaluation point, a+bi")
    _add_output_options(p_eval, "json")
    p_eval.set_defaults(handler=_cmd_eval)

    p_id = sub.add_parser("identity", help="check one pointwise Schwarzian identity")
    p_id.add_argument(
        "kind",
        choices=("mobius-invariance", "composition", "reciprocal", "conjugation"),
    )
    _add_family_options(p_id, "one, or two for composition/conjugation (f first)")
    p_id.add_argument("--n", type=float, required=True)
    p_id.add_argument("--z", type=_complex_arg, required=True)
    p_id.add_argument("--mobius", metavar="a,b,c,d", default=None, help="map for mobius-invariance")
    p_id.add_argument("--phi", metavar="a,b,c,d", default=None, help="conjugating map for conjugation")
    p_id.add_argument("--omit", type=_complex_arg, default=None, help="omitted value for reciprocal")
    p_id.add_argument("--tol-abs", type=float, default=DEFAULT_TOL_ABS)
    p_id.add_argument("--tol-rel", type=float, default=DEFAULT_TOL_REL)
    _add_output_options(p_id, "json")
    p_id.set_defaults(handler=_cmd_identity)

    for name, scan, stat_help in (
        ("scan-marty", marty_scan, "spherical derivative of f_n"),
        ("scan-sd", sd_family_scan, "spherical derivative of the Schwarzian of f_n"),
    ):
        p_scan = sub.add_parser(name, help=f"grid scan of the {stat_help}")
        _add_family_options(p_scan, "exactly one")
        _add_grid_options(p_scan)
        _add_n_range(p_scan)
        p_scan.add_argument("--slope-threshold", type=float, default=DEFAULT_SLOPE_THRESHOLD)
        p_scan.add_argument("--decay-threshold", type=float, default=DEFAULT_DECAY_THRESHOLD)
        p_scan.add_argument("--cap", type=float, default=DEFAULT_CAP)
        p_scan.add_argument("--workers", type=int, default=None, help="scan processes (default: all cores)")
        _add_output_options(p_scan, "csv")
        p_scan.set_defaults(handler=_cmd_scan, scan=scan)

    p_bound = sub.add_parser("bound", help="segment mean-value bound check per family index")
    _add_family_options(p_bound, "exactly one")
    _add_n_range(p_bound)
    p_bound.add_argument("--z0", type=_complex_arg, required=True, help="segment start, a+bi")
    p_bound.add_argument("--z", type=_complex_arg, required=True, help="segment end, a+bi")
    p_bound.add_argument("--segment-samples", type=int, default=256)
    _add_output_options(p_bound, "json")
    p_bound.set_defaults(handler=_cmd_bound)

    p_hyp = sub.add_parser(
        "hypotheses",
        help="derivative-floor and value-bound checks plus the derived Schwarzian bound",
    )
    _add_family_options(p_hyp, "exactly one")
    _add_grid_options(p_hyp)
    _add_n_range(p_hyp)
    p_hyp.add_argument("--epsilon", type=float, required=True, help="derivative floor")
    p_hyp.add_argument("--zeta", type=_complex_arg, required=True, help="value-bound point, a+bi")
    p_hyp.add_argument("--L", type=float, required=True, help="value bound at zeta")
    _add_output_options(p_hyp, "json")
    p_hyp.set_defaults(handler=_cmd_hypotheses)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rows, code = args.handler(args)
        _emit(rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows), args.out)
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        EvalError,
        CriticalPointError,
        PoleOfMobius,
        ConjugacyViolated,
        GuardViolation,
        SegmentEvaluationError,
        JetError,
    ) as exc:
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
