"""Grid probes for normal-family behaviour of one-parameter families.

Marty's criterion ties normality to local uniform boundedness of the
spherical derivative f# = |f'| / (1 + |f|^2), so the scans here sweep the
family index n over a grid of base points, sample a small neighborhood of
each point, and record how the statistic grows with n.  ``marty_scan``
uses f# of the family itself; ``sd_family_scan`` applies the same
machinery to the map z -> S_{f_n}(z), whose spherical derivative needs a
numerical first derivative of S, taken with a five-point stencil.

Growth is summarized per point by the least-squares slope of log(stat)
against log(n) over the top half of the n sweep: a clearly positive slope
marks a divergence candidate, a flat or negative slope a boundedness
candidate.  Evaluation failures never poison a scan; they become flags
("Pole", "Overflow", "CriticalPoint") on the affected grid point and the
failing samples are excluded from the statistics.

The verdicts are heuristics about candidates, not proofs.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .dsl import EvalError, FamilyExpr, eval_jet, eval_jet_seeded
from .jets import ComplexJet3, OverflowAtPoint, jet_var
from .schwarzian import CriticalPointError, schwarzian, spherical_derivative

__all__ = [
    "DEFAULT_N_VALUES",
    "DEFAULT_RADIUS",
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "DEFAULT_SLOPE_THRESHOLD",
    "DEFAULT_DECAY_THRESHOLD",
    "DEFAULT_CAP",
    "MAX_GRID_POINTS",
    "MAX_N_VALUES",
    "MAX_SAMPLES",
    "MAX_SEGMENT_SAMPLES",
    "MAX_WORKERS",
    "GridSpec",
    "PointStats",
    "MartyGridReport",
    "Verdict",
    "NormalityVerdict",
    "LocalBoundReport",
    "FloorCheckReport",
    "HypothesesReport",
    "SegmentEvaluationError",
    "marty_scan",
    "sd_family_scan",
    "classify",
    "local_bound_estimate",
    "derivative_floor_check",
    "value_bound_check",
    "cauchy_derivative_bound",
    "sd_bound_from_hypotheses",
    "check_theorem_hypotheses",
]

DEFAULT_N_VALUES = tuple(range(1, 65))
DEFAULT_RADIUS = 0.05
DEFAULT_SAMPLES = 9
DEFAULT_SEED = 0
DEFAULT_SLOPE_THRESHOLD = 0.5
DEFAULT_DECAY_THRESHOLD = 0.1
DEFAULT_CAP = 1e6

# upper limits on the counts that size allocations and process pools, so a
# short argument cannot ask for unbounded memory or processes; each is
# checked before anything it sizes is built
MAX_GRID_POINTS = 250_000  # nx * ny, a 500x500 grid
MAX_N_VALUES = 1024  # length of the n sweep
MAX_SAMPLES = 128  # neighborhood samples per grid point
MAX_SEGMENT_SAMPLES = 100_000  # samples along a bound-check segment
MAX_WORKERS = 64  # scan processes

# statistics at or below this are treated as numerically zero when
# fitting growth slopes; fitting the log of roundoff noise is meaningless
_NOISE_FLOOR = 1e-12
# clamp for log() of genuinely tiny statistics inside an otherwise
# informative fit window
_LOG_CLAMP = 1e-300

# additive low-discrepancy constants (inverse powers of the plastic
# number) driving the neighborhood angle sequence
_ALPHA_ANGLE = 0.6180339887498949
_ALPHA_POINT = 0.7548776662466927


class SegmentEvaluationError(ArithmeticError):
    """Some family members could not be evaluated along the segment."""

    def __init__(self, flagged: list[int]):
        super().__init__(
            "segment evaluation failed for n in " + repr(sorted(flagged))
        )
        self.flagged = tuple(sorted(flagged))


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sample grid with a sampling neighborhood per point.

    The grid holds nx-by-ny points, endpoints included on both axes.  Each
    point is probed at the point itself plus (neighborhood_samples - 1)
    points on the circle of neighborhood_radius around it, at seeded
    low-discrepancy angles.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    neighborhood_radius: float = DEFAULT_RADIUS
    neighborhood_samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid ranges must satisfy re_min < re_max, im_min < im_max")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be positive")
        if self.nx * self.ny > MAX_GRID_POINTS:
            raise ValueError(f"a grid has at most {MAX_GRID_POINTS} points (nx * ny)")
        if self.neighborhood_radius <= 0.0:
            raise ValueError("neighborhood_radius must be positive")
        if self.neighborhood_samples < 1:
            raise ValueError("neighborhood_samples must be positive")
        if self.neighborhood_samples > MAX_SAMPLES:
            raise ValueError(f"neighborhood_samples must be at most {MAX_SAMPLES}")
        cell = min(
            (self.re_max - self.re_min) / max(self.nx - 1, 1),
            (self.im_max - self.im_min) / max(self.ny - 1, 1),
        )
        if self.neighborhood_radius >= 4.0 * cell:
            warnings.warn(
                "neighborhood_radius spans four or more grid cells; "
                "neighboring points will sample heavily overlapping disks",
                stacklevel=2,
            )

    def x_coords(self) -> list[float]:
        if self.nx == 1:
            return [self.re_min]
        dx = (self.re_max - self.re_min) / (self.nx - 1)
        xs = [self.re_min + k * dx for k in range(self.nx)]
        xs[-1] = self.re_max
        return xs

    def y_coords(self) -> list[float]:
        if self.ny == 1:
            return [self.im_min]
        dy = (self.im_max - self.im_min) / (self.ny - 1)
        ys = [self.im_min + k * dy for k in range(self.ny)]
        ys[-1] = self.im_max
        return ys


@dataclass(frozen=True)
class PointStats:
    """Scan digest for one grid point."""

    z: complex
    sup_stat: float
    argmax_n: int
    growth_slope: float
    flags: frozenset[str]


@dataclass(frozen=True)
class MartyGridReport:
    """Per-point statistics of a grid scan, ordered row-major (x fastest)."""

    grid: GridSpec
    n_values: tuple[int, ...]
    seed: int
    kind: str  # "marty" or "sd"
    points: tuple[PointStats, ...]


class Verdict(Enum):
    BOUNDED_CANDIDATE = "bounded"
    DIVERGENT_CANDIDATE = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class NormalityVerdict:
    verdict: Verdict
    slope_threshold: float
    decay_threshold: float
    cap: float


def _seed_offset(seed: int) -> float:
    return random.Random(seed).random()


def _neighborhood(
    z: complex, radius: float, samples: int, offset: float, point_index: int
) -> list[complex]:
    # center first, then boundary points at low-discrepancy angles; the
    # angle sequence is a deterministic function of (seed, point index),
    # so results never depend on how points are split across workers
    pts = [z]
    u = (offset + point_index * _ALPHA_POINT) % 1.0
    for j in range(1, samples):
        t = (u + j * _ALPHA_ANGLE) % 1.0
        angle = 2.0 * math.pi * t
        pts.append(z + radius * complex(math.cos(angle), math.sin(angle)))
    return pts


def _flag_for(exc: EvalError) -> str:
    return "Overflow" if isinstance(exc.__cause__, OverflowAtPoint) else "Pole"


def _seed_sample(w: complex, radius: float) -> ComplexJet3:
    return jet_var(w)


def _seed_stencil(w: complex, radius: float) -> tuple:
    # the five points of the S' stencil, a real step h apart
    h = radius / 8.0
    return h, tuple(jet_var(p) for p in (w, w + h, w - h, w + 2.0 * h, w - 2.0 * h))


def _jet(expr: FamilyExpr, n: int, zj: ComplexJet3) -> ComplexJet3:
    # by the module-level name, which bench/tracer.py rebinds to count calls
    return eval_jet_seeded(expr, n, zj)


def _marty_stat(expr: FamilyExpr, n: int, zj: ComplexJet3) -> float:
    return spherical_derivative(eval_jet_seeded(expr, n, zj))


def _sd_stat(expr: FamilyExpr, n: int, stencil: tuple) -> float:
    # spherical derivative of z -> S_{f_n}(z); S' comes from a five-point
    # stencil with a real step, which equals the complex derivative for
    # analytic S
    h, jets = stencil
    s0, sp1, sm1, sp2, sm2 = [schwarzian(eval_jet_seeded(expr, n, j)) for j in jets]
    ds = (-sp2 + 8.0 * sp1 - 8.0 * sm1 + sm2) / (12.0 * h)
    m = abs(s0)
    return abs(ds) / (1.0 + m * m)


# the statistic of each grid command: ``seed_jets`` builds one sample's
# variable jets, once per grid point, and ``measure`` evaluates at one n
_STATS = {
    "jet": (_seed_sample, _jet),
    "marty": (_seed_sample, _marty_stat),
    "sd": (_seed_stencil, _sd_stat),
}


def _sweep(kind: str, expr: FamilyExpr, grid: GridSpec, n_values, offset: float, indices):
    """Sample the grid points ``indices`` in order; every grid command's loop.

    Yields (z, rows) per point, where rows[k] holds one outcome per
    neighborhood sample at n_values[k]: the statistic ``kind`` names, or
    the flag ("Pole", "Overflow", "CriticalPoint") of the sample's first
    failed evaluation.  Each sample's variable jets are built once.
    """
    seed_jets, measure = _STATS[kind]
    xs = grid.x_coords()
    ys = grid.y_coords()
    radius = grid.neighborhood_radius
    for index in indices:
        z = complex(xs[index % grid.nx], ys[index // grid.nx])
        samples = _neighborhood(z, radius, grid.neighborhood_samples, offset, index)
        seeds = [seed_jets(w, radius) for w in samples]
        rows = []
        for n in n_values:
            row = []
            for s in seeds:
                try:
                    row.append(measure(expr, n, s))
                except EvalError as exc:
                    row.append(_flag_for(exc))
                except CriticalPointError:
                    row.append("CriticalPoint")
            rows.append(row)
        yield z, rows


def _lsq_slope(xs: list[float], ys: list[float]) -> float:
    m = len(xs)
    mean_x = sum(xs) / m
    mean_y = sum(ys) / m
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def _growth_slope(
    n_values: tuple[int, ...], per_n: dict[int, float], flags: set[str]
) -> float:
    window = n_values[len(n_values) // 2 :]
    usable = [n for n in window if n in per_n]
    if len(usable) < 3:
        # not enough clean samples to fit; a pole in the neighborhood is
        # treated as unbounded growth
        return math.inf if "Pole" in flags else math.nan
    if max(per_n[n] for n in usable) <= _NOISE_FLOOR:
        # statistic is numerically zero across the window; its log-log
        # slope would only measure roundoff noise
        return 0.0
    xs = [math.log(n) for n in usable]
    ys = [math.log(max(per_n[n], _LOG_CLAMP)) for n in usable]
    return _lsq_slope(xs, ys)


def _point_stats(z: complex, rows: list, n_values: tuple[int, ...]) -> PointStats:
    flags: set[str] = set()
    per_n: dict[int, float] = {}
    sup = 0.0
    argmax = -1
    for n, row in zip(n_values, rows):
        best = -1.0
        for stat in row:
            if isinstance(stat, str):
                flags.add(stat)
            elif stat > best:
                best = stat
        if best >= 0.0:
            per_n[n] = best
            if best > sup:
                sup = best
                argmax = n
    slope = _growth_slope(n_values, per_n, flags)
    return PointStats(z, sup, argmax, slope, frozenset(flags))


def _scan_chunk(payload) -> list[PointStats]:
    kind, expr, grid, n_values, offset, indices = payload
    return [
        _point_stats(z, rows, n_values)
        for z, rows in _sweep(kind, expr, grid, n_values, offset, indices)
    ]


def _validate_n_values(n_values) -> tuple[int, ...]:
    # one past the limit is enough to refuse; a long range is never built
    ns = tuple(itertools.islice(n_values, MAX_N_VALUES + 1))
    if not ns:
        raise ValueError("n_values must be nonempty")
    if len(ns) > MAX_N_VALUES:
        raise ValueError(f"at most {MAX_N_VALUES} n values")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be sorted strictly ascending")
    return ns


def _scan(
    kind: str,
    f: FamilyExpr,
    grid: GridSpec,
    n_values,
    seed: int,
    workers: int,
) -> MartyGridReport:
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be at most {MAX_WORKERS}")
    ns = _validate_n_values(n_values if n_values is not None else DEFAULT_N_VALUES)
    offset = _seed_offset(seed)
    total = grid.nx * grid.ny
    indices = list(range(total))
    if workers > 1 and total > 1:
        chunk = max(1, math.ceil(total / (workers * 4)))
        payloads = [
            (kind, f, grid, ns, offset, indices[k : k + chunk])
            for k in range(0, total, chunk)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_chunk, payloads))
        stats = [s for part in parts for s in part]
    else:
        stats = _scan_chunk((kind, f, grid, ns, offset, indices))
    return MartyGridReport(grid, ns, seed, kind, tuple(stats))


def marty_scan(
    f: FamilyExpr,
    grid: GridSpec,
    n_values=None,
    *,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> MartyGridReport:
    """Sweep the spherical derivative of f_n over the grid.

    Per grid point and per n the statistic is maximized over the
    neighborhood samples; the report digests each point into the overall
    sup, the n attaining it, the log-log growth slope over the top half of
    the n sweep, and any error flags.  Results are bit-identical for equal
    inputs regardless of ``workers``.
    """
    return _scan("marty", f, grid, n_values, seed, workers)


def sd_family_scan(
    f: FamilyExpr,
    grid: GridSpec,
    n_values=None,
    *,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> MartyGridReport:
    """Same sweep with the statistic taken on z -> S_{f_n}(z) instead."""
    return _scan("sd", f, grid, n_values, seed, workers)


def classify(
    report: MartyGridReport,
    slope_threshold: float = DEFAULT_SLOPE_THRESHOLD,
    decay_threshold: float = DEFAULT_DECAY_THRESHOLD,
    cap: float = DEFAULT_CAP,
) -> list[NormalityVerdict]:
    """Turn per-point scan statistics into candidate verdicts.

    Divergent when the growth slope reaches slope_threshold or the sup
    reaches cap; bounded when the slope is at most decay_threshold and the
    sup stays under cap; inconclusive otherwise (including slope = nan
    from scans without enough clean samples).
    """
    if not decay_threshold < slope_threshold:
        raise ValueError("decay_threshold must be below slope_threshold")
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    out = []
    for p in report.points:
        if p.growth_slope >= slope_threshold or p.sup_stat >= cap:
            v = Verdict.DIVERGENT_CANDIDATE
        elif p.growth_slope <= decay_threshold and p.sup_stat < cap:
            v = Verdict.BOUNDED_CANDIDATE
        else:
            v = Verdict.INCONCLUSIVE
        out.append(NormalityVerdict(v, slope_threshold, decay_threshold, cap))
    return out


@dataclass(frozen=True)
class LocalBoundReport:
    """Segment bound check |f_n(z) - f_n(z0)| <= K |z - z0| for one n.

    K is the maximum of |f_n'| over equispaced samples of the segment;
    value_at_z0 is reported so callers can inspect common fixed points.
    """

    n: int
    K_estimate: float
    bound_rhs: float
    observed: float
    passed: bool
    value_at_z0: complex


def local_bound_estimate(
    f: FamilyExpr,
    n_values,
    z0: complex,
    z: complex,
    segment_samples: int = 256,
) -> list[LocalBoundReport]:
    """Check the integral mean-value bound along the straight segment.

    Raises :class:`SegmentEvaluationError` listing the offending n when any
    sampled evaluation fails.
    """
    if segment_samples < 2:
        raise ValueError("segment_samples must be at least 2")
    if segment_samples > MAX_SEGMENT_SAMPLES:
        raise ValueError(f"segment_samples must be at most {MAX_SEGMENT_SAMPLES}")
    ns = _validate_n_values(n_values)
    z0 = complex(z0)
    z = complex(z)
    length = abs(z - z0)
    steps = [k / (segment_samples - 1) for k in range(segment_samples)]
    reports = []
    flagged = []
    for n in ns:
        try:
            j0 = eval_jet(f, n, z0)
            j1 = eval_jet(f, n, z)
            k_est = 0.0
            for t in steps:
                jt = eval_jet(f, n, z0 + t * (z - z0))
                mag = abs(jt.d1)
                if mag > k_est:
                    k_est = mag
        except EvalError:
            flagged.append(n)
            continue
        observed = abs(j1.v - j0.v)
        rhs = k_est * length
        passed = observed <= rhs * (1.0 + 1e-9) + 1e-12
        reports.append(LocalBoundReport(n, k_est, rhs, observed, passed, j0.v))
    if flagged:
        raise SegmentEvaluationError(flagged)
    return reports


@dataclass(frozen=True)
class FloorCheckReport:
    """Result of a |f_n'| >= epsilon sweep over grid neighborhoods.

    M2, M3 and max_abs_schwarzian are the maxima of |f''|, |f'''| and |S|
    over the same samples, wherever S is defined.
    """

    grid: GridSpec
    n_values: tuple[int, ...]
    epsilon: float
    passes: tuple[tuple[bool, ...], ...]  # [point][n index]
    min_abs_derivative: float
    flags: tuple[frozenset[str], ...]
    M2: float
    M3: float
    max_abs_schwarzian: float

    @property
    def all_pass(self) -> bool:
        return all(all(row) for row in self.passes)


def derivative_floor_check(
    f: FamilyExpr,
    n_values,
    grid: GridSpec,
    epsilon: float,
    *,
    seed: int = DEFAULT_SEED,
) -> FloorCheckReport:
    """Check the derivative floor |f_n'| >= epsilon on grid neighborhoods.

    A (point, n) entry passes when every neighborhood sample evaluates
    cleanly and the minimum |f_n'| over the samples reaches epsilon.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    ns = _validate_n_values(n_values)
    rows = []
    flag_rows = []
    global_min = math.inf
    m2 = m3 = max_s = 0.0
    for _, jet_rows in _sweep("jet", f, grid, ns, _seed_offset(seed), range(grid.nx * grid.ny)):
        flags: set[str] = set()
        row = []
        for jets in jet_rows:
            low = math.inf
            clean = True
            for jet in jets:
                if isinstance(jet, str):
                    flags.add(jet)
                    clean = False
                    continue
                mag = abs(jet.d1)
                if mag < low:
                    low = mag
                try:
                    s = abs(schwarzian(jet))
                except CriticalPointError:
                    continue
                m2 = max(m2, abs(jet.d2))
                m3 = max(m3, abs(jet.d3))
                max_s = max(max_s, s)
            if low < global_min:
                global_min = low
            row.append(clean and low >= epsilon)
        rows.append(tuple(row))
        flag_rows.append(frozenset(flags))
    if not math.isfinite(global_min):
        global_min = math.nan
    return FloorCheckReport(
        grid, ns, epsilon, tuple(rows), global_min, tuple(flag_rows), m2, m3, max_s
    )


def value_bound_check(f: FamilyExpr, n_values, zeta: complex, L: float) -> bool:
    """True when max over n of |f_n(zeta)| is at most L."""
    ns = _validate_n_values(n_values)
    zeta = complex(zeta)
    return max(abs(eval_jet(f, n, zeta).v) for n in ns) <= L


def cauchy_derivative_bound(M: float, r: float, k: int) -> float:
    """Cauchy estimate M k! / r^k for the k-th derivative, k in 1..3."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if M < 0.0 or r <= 0.0:
        raise ValueError("need M >= 0 and r > 0")
    return M * math.factorial(k) / r**k


def sd_bound_from_hypotheses(M2: float, M3: float, epsilon: float) -> float:
    """Schwarzian bound M3/eps + 1.5 (M2/eps)^2 from derivative bounds.

    With |f''| <= M2, |f'''| <= M3 and |f'| >= epsilon on a region, the
    triangle inequality bounds |S_f| there by this quantity.  Raises
    :class:`OverflowAtPoint` when it leaves the finite double range, since
    an infinite bound says nothing.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if M2 < 0.0 or M3 < 0.0:
        raise ValueError("derivative bounds must be nonnegative")
    try:
        bound = M3 / epsilon + 1.5 * (M2 / epsilon) ** 2
    except OverflowError:  # float ** raises where * would give inf
        bound = math.inf
    if not math.isfinite(bound):
        raise OverflowAtPoint(
            f"Schwarzian bound not finite: M2 {M2!r}, M3 {M3!r}, epsilon {epsilon!r}"
        )
    return bound


@dataclass(frozen=True)
class HypothesesReport:
    """Digest of the derivative-floor and value-bound hypothesis checks.

    M2 and M3 are the measured maxima of |f''| and |f'''| over the clean
    grid samples, sd_bound the resulting Schwarzian bound, and ``sound``
    records whether the measured max |S| actually stayed within it.
    """

    epsilon: float
    L: float
    floor_ok: bool
    value_ok: bool
    min_abs_derivative: float
    M2: float
    M3: float
    sd_bound: float
    max_abs_schwarzian: float
    sound: bool

    @property
    def passed(self) -> bool:
        return self.floor_ok and self.value_ok and self.sound


def check_theorem_hypotheses(
    f: FamilyExpr,
    n_values,
    grid: GridSpec,
    epsilon: float,
    zeta: complex,
    L: float,
    *,
    seed: int = DEFAULT_SEED,
) -> HypothesesReport:
    """Run both hypothesis checks and the derived Schwarzian bound.

    Composes :func:`derivative_floor_check`, :func:`value_bound_check` and
    :func:`sd_bound_from_hypotheses` over one grid; the floor sweep's jets
    also give M2, M3 and the maximum |S_{f_n}|.
    """
    ns = _validate_n_values(n_values)
    floor = derivative_floor_check(f, ns, grid, epsilon, seed=seed)
    value_ok = value_bound_check(f, ns, zeta, L)
    bound = sd_bound_from_hypotheses(floor.M2, floor.M3, epsilon)
    max_s = floor.max_abs_schwarzian
    sound = max_s <= bound * (1.0 + 1e-9)
    return HypothesesReport(
        epsilon, L, floor.all_pass, value_ok, floor.min_abs_derivative,
        floor.M2, floor.M3, bound, max_s, sound,
    )
