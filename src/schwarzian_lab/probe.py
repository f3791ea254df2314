"""Grid probes for normal-family behaviour of one-parameter families.

Marty's criterion ties normality to local uniform boundedness of the
spherical derivative f# = |f'| / (1 + |f|^2), so the scans here sweep the
family index n over a grid of base points, sample a small neighborhood of
each point, and record how the statistic grows with n.  ``marty_scan``
uses f# of the family itself; ``sd_family_scan`` applies the same
machinery to the map z -> S_{f_n}(z), whose spherical derivative
|S'| / (1 + |S|^2) it takes from one order-4 jet per sample, by the
composition law at the root: f_n = F o g for an outer map F (exp, log, an
integer power or an affine map, or none), S = (S_F o g) g'^2 + S_g, and
S_g and S_g' come from g's jet (``schwarzian._peel``), or are 0 where g
is a Moebius map, whose jet of order 2 then serves.  A
sup over a few fixed samples depends on where they fall, so
``sd_family_scan`` refines each (point, n)'s best sample by a few
deterministic steps of ascent of the statistic inside the point's disk,
whose gradient an order-5 jet gives through S''.

Growth is summarized per point by the least-squares slope of log(stat)
against log(n) over the top half of the n sweep: a clearly positive slope
marks a divergence candidate, a flat or negative slope a boundedness
candidate.  Evaluation failures never poison a scan; they become flags
("Pole", "Overflow", "CriticalPoint") on the affected grid point and the
failing samples are excluded from the statistics.

Each n is one batch evaluation per block of grid points, each point one
group of its samples, one lane each, which must all be finite, and each
n of ``bound`` one batch of its segment's points, streamed, as one
group.  The family's generated lane function computes the statistic
itself, from the ``codegen.Statistic`` below, and returns per group only
the largest over the samples and the set of flags (for ``scan-sd``,
the largest refined in the same call by ascent from the sample that
gave it); a sample it redoes gets its statistic from the same formula.
For a scan that is f# or |S'| / (1 + |S|^2), and for ``bound`` |f'|.
For the ``hypotheses`` floor sweep it is -|f'|, |f''|, |f'''| and |S|,
the largest of each kept apart, so that min |f'| is an exact negation.
No command reads jets from a batch.  f# and |f'| are statistics of
order 1: the jets of their samples, and ``bound``'s f(z0) and f(z), are
(f, f'), and fail only where f or f' leaves the double range, never on
f'' or f'''.

The verdicts are heuristics about candidates, not proofs.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import random
import warnings
from enum import Enum

from .ball import Ball, radius
from .codegen import Statistic, eval_jet_lanes, family
from .dsl import EvalError, FamilyExpr, eval_jet
from .jets import OverflowAtPoint, modulus
from .record import Record
from .schwarzian import _S_AFFINE, _peeled_derivatives, _schwarzian_derivatives, _spherical

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
    "check_thresholds",
    "classify",
    "local_bound_estimate",
    "derivative_floor_check",
    "value_bound_check",
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

# upper limits on the counts that size allocations and scan processes, so a
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

    def __reduce__(self):
        return type(self), (self.flagged,), vars(self)


class GridSpec(Record):
    """Rectangular sample grid with a sampling neighborhood per point.

    The grid holds nx-by-ny points, endpoints included on both axes.  Each
    point is probed at the point itself plus (neighborhood_samples - 1)
    points on the circle of neighborhood_radius around it, at seeded
    low-discrepancy angles.  Construction refuses a grid it cannot sample,
    and warns where the radius spans four or more grid cells; an
    unpickled copy does neither again.
    """

    __slots__ = _fields = (
        "re_min", "re_max", "im_min", "im_max", "nx", "ny",
        "neighborhood_radius", "neighborhood_samples",
    )

    def __init__(
        self,
        re_min: float,
        re_max: float,
        im_min: float,
        im_max: float,
        nx: int,
        ny: int,
        neighborhood_radius: float = DEFAULT_RADIUS,
        neighborhood_samples: int = DEFAULT_SAMPLES,
    ):
        super().__init__(
            re_min, re_max, im_min, im_max, nx, ny, neighborhood_radius, neighborhood_samples
        )
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
        for name in ("re_min", "re_max", "im_min", "im_max", "neighborhood_radius"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        return _axis(self.re_min, self.re_max, self.nx)

    def y_coords(self) -> list[float]:
        return _axis(self.im_min, self.im_max, self.ny)


def _axis(lo: float, hi: float, count: int) -> list[float]:
    # count equispaced coordinates, both ends exact
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    if math.isfinite(step):
        out = [lo + k * step for k in range(count)]
    else:  # hi - lo is past the double range: weigh the two ends, of opposite signs
        out = [lo * (1.0 - k / (count - 1)) + hi * (k / (count - 1)) for k in range(count)]
    out[-1] = hi
    return out


class PointStats(Record):
    """Scan digest for one grid point; ``flags`` is a frozenset."""

    __slots__ = _fields = ("z", "sup_stat", "argmax_n", "growth_slope", "flags")


class MartyGridReport(Record):
    """Per-point statistics of a grid scan, ordered row-major (x fastest).

    ``kind`` is "marty" or "sd", and ``points`` a tuple of PointStats.
    """

    __slots__ = _fields = ("grid", "n_values", "seed", "kind", "points")


class Verdict(Enum):
    BOUNDED_CANDIDATE = "bounded"
    DIVERGENT_CANDIDATE = "divergent"
    INCONCLUSIVE = "inconclusive"


class NormalityVerdict(Record):
    __slots__ = _fields = ("verdict", "slope_threshold", "decay_threshold", "cap")


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


def _critical_point(j) -> str:
    return "CriticalPoint"


# f# reads f and f' alone, so its lane function computes and checks no more
_MARTY = Statistic(_spherical, order=1)


def _sd(j, outer=_S_AFFINE, mobius=False) -> float:
    # the spherical derivative of z -> S_{f_n}(z), |S'| / (1 + |S|^2), from
    # the order-4 jet of the root's inner tree, or its order-2 jet where it
    # is a Moebius map, and its outer map's S
    s, ds = _peeled_derivatives(j, outer, mobius)
    return _spherical((s, ds))


def _sd_rise(j, outer=_S_AFFINE, mobius=False) -> tuple:
    # from the inner tree's order-5 jet, or order-3 for a Moebius map:
    # F = |S'| / (1 + |S|^2), |S'|, and the real and imaginary parts of
    # D = S' conj(S'') - 2 |S'| F S conj(S'), the gradient of F
    # (d/dx + i d/dy) times the positive |S'| (1 + |S|^2), so that no part
    # divides by |S'|
    s, ds, dds = _peeled_derivatives(j, outer, mobius)
    a = abs(ds)
    f = _spherical((s, ds))
    d = ds * dds.conjugate() - 2.0 * (a * f) * (s * ds.conjugate())
    return f, a, d.real, d.imag


# the ascent's rise statistic, whose lines _SD's lane function runs after
# _SD's at each point of a group's ascent, on _SD's split of the tree
_SD_RISE = Statistic(_sd_rise, _critical_point, (-1.0, -1.0, -math.inf, -math.inf), order=5)
_SD = Statistic(_sd, _critical_point, order=4, ascent=_SD_RISE, peel=True)


def _floor(j) -> tuple:
    # a lane's -|f'|, |f''|, |f'''| and |S|, of which the floor sweep keeps
    # the largest over the batch: the largest -|f'| is min |f'| negated,
    # exactly
    low, m2, m3 = -abs(j[1]), abs(j[2]), abs(j[3])
    return low, m2, m3, abs(_schwarzian_derivatives(j)[0])


def _floor_critical(j) -> tuple:
    # a critical lane has no S and counts toward min |f'| alone: -1.0 never
    # wins the other slots.  Its |f''| and |f'''| are still taken, so that
    # one past the double range flags the lane "Overflow", as on any other
    low, _, _ = -abs(j[1]), abs(j[2]), abs(j[3])
    return low, -1.0, -1.0, -1.0


_FLOOR = Statistic(_floor, _floor_critical, start=(-math.inf, -1.0, -1.0, -1.0))


def _slope(j) -> float:
    # |f'|, whose largest over a segment is bound's K, from 0.0
    return abs(j[1])


_BOUND = Statistic(_slope, start=(0.0,), order=1)

# grid points per lane-function call: enough that a call's fixed cost is
# small beside its lanes, few enough that a block's samples and results
# stay small whatever the grid's size
_BLOCK = 32


def _sweep(stat: Statistic, expr: FamilyExpr, grid: GridSpec, n_values, offset: float, indices):
    """Sample the grid points ``indices`` in order; every grid command's loop.

    Yields (z, rows) per point.  The points go in blocks of at most
    ``_BLOCK`` (the last block may be shorter), and each n makes one batch
    evaluation per block, each point one group of its samples, one lane
    each, so the fixed cost of a call is paid once per (n, block).  For
    the statistic ``stat`` (``_MARTY``, ``_SD`` or ``_FLOOR``), rows[k]
    is what the batch at n_values[k] keeps of the point's group: the
    largest statistic over its neighborhood samples, -1.0 if none has one
    (for ``_FLOOR``, the largest of each of its four slots), then the
    flags ("Pole", "Overflow", "CriticalPoint") of the samples that failed.
    For a statistic with an ascent (``_SD``), the largest is the best
    sample's value refined, in the same call, by ascent inside the point's
    disk, whose centre is the point's first sample.  Each point's samples
    are built once; a block with a grid point whose samples are not all
    finite raises ValueError before any of its batches.
    """
    xs = grid.x_coords()
    ys = grid.y_coords()
    radius = grid.neighborhood_radius
    for start in range(0, len(indices), _BLOCK):
        zs, groups = [], []
        for index in indices[start : start + _BLOCK]:
            z = complex(xs[index % grid.nx], ys[index // grid.nx])
            points = _neighborhood(z, radius, grid.neighborhood_samples, offset, index)
            if not all(map(cmath.isfinite, points)):
                raise ValueError("jet_var requires a finite point")
            zs.append(z)
            groups.append(points)
        # by the module-level name, which tests rebind to count calls: one
        # per (n, block), an ascent's evaluations inside it
        per_n = [eval_jet_lanes(expr, n, groups, stat, radius) for n in n_values]
        yield from zip(zs, zip(*per_n))


def _lsq_slope(xs: list[float], ys: list[float]) -> float:
    if min(xs) == max(xs):
        # the window's log n are one double, as for n close together past
        # about 1e15: no line fits a single abscissa, so the slope is nan
        return math.nan
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
    for n, (best, failed) in zip(n_values, rows):
        flags |= failed
        if best >= 0.0:
            per_n[n] = best
            if best > sup:
                sup = best
                argmax = n
    slope = _growth_slope(n_values, per_n, flags)
    return PointStats(z, sup, argmax, slope, frozenset(flags))


def _scan_chunk(payload) -> list[PointStats]:
    stat, expr, grid, n_values, offset, indices = payload
    return [
        _point_stats(z, rows, n_values)
        for z, rows in _sweep(stat, expr, grid, n_values, offset, indices)
    ]


def _child(payload, fd: int, inherited) -> None:
    # a forked process's whole life: its share's result, or the exception
    # that ended it, pickled into its pipe ``fd``; it closes the read ends
    # it inherited, and leaves by os._exit, whatever happens, so that
    # nothing of the caller's (buffers, atexit, a test runner) runs twice
    status = 1
    try:
        import pickle

        for other in inherited:
            os.close(other)
        try:
            result = (True, _scan_chunk(payload))
        except BaseException as exc:  # noqa: BLE001 - raised again by the caller
            result = (False, exc)
        data = pickle.dumps(result)
        with open(fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _forked(payloads) -> list:
    """Each payload's ``_scan_chunk`` result, in order: the first scanned
    by this process, each other by a child forked for it, at once.

    Each child writes its pickled result, or its exception, into a pipe of
    its own; this process then reads the pipes in order, reaps each child,
    and raises the exception of the first that failed, or an OSError for
    one that ended with no result (killed, say).  Where this process
    raises, every child it has not reaped is killed and reaped first, so
    no child outlives the call.
    """
    import pickle

    own, others = payloads[0], payloads[1:]
    children = []  # [pid, read end of its pipe], each set to None once done
    try:
        for payload in others:
            r, w = os.pipe()
            children.append([None, r])
            try:
                pid = os.fork()
                if pid == 0:  # the child, which never returns from _child
                    _child(payload, w, [fd for _, fd in children])
                children[-1][0] = pid
            finally:
                os.close(w)
        parts = [_scan_chunk(own)]
        for k, child in enumerate(children, 1):
            with open(child[1], "rb") as pipe:
                child[1] = None
                data = pipe.read()
            _, status = os.waitpid(child[0], 0)
            child[0] = None
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise OSError(f"scan process {k} of {len(payloads)} ended with no result "
                              f"(exit status {code})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            parts.append(value)
        return parts
    except BaseException:
        import signal

        for pid, fd in children:
            if fd is not None:
                os.close(fd)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise


def _validate_n_values(n_values) -> tuple[int, ...]:
    # one past the limit is enough to refuse; a long range is never built
    ns = tuple(itertools.islice(n_values, MAX_N_VALUES + 1))
    if not ns:
        raise ValueError("n_values must be nonempty")
    if len(ns) > MAX_N_VALUES:
        raise ValueError(f"at most {MAX_N_VALUES} n values")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be sorted strictly ascending")
    try:
        float(ns[0]), float(ns[-1])  # sorted, so these bound the rest
    except OverflowError:
        raise ValueError("n values must lie within the double range") from None
    return ns


def _scan(
    kind: str,
    stat: Statistic,
    f: FamilyExpr,
    grid: GridSpec,
    n_values,
    seed: int,
    workers: int,
) -> MartyGridReport:
    """Sweep a statistic over the grid, in this process alone or in
    ``w = min(workers, points)`` processes, each given every w-th point:
    this one, process 0, scans its share while w - 1 children forked for
    the others scan theirs (:func:`_forked`).  Where ``os.fork`` does not
    exist, this process scans the grid alone.  The report is the same bits
    at every ``workers``."""
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be at most {MAX_WORKERS}")
    ns = _validate_n_values(n_values if n_values is not None else DEFAULT_N_VALUES)
    if ns[len(ns) // 2] <= 0:
        raise ValueError("the log-log fit of the growth slope needs every n of its window, "
                         "the upper half of n_values, positive")
    offset = _seed_offset(seed)
    total = grid.nx * grid.ny
    indices = range(total)
    if workers > 1 and total > 1 and hasattr(os, "fork"):
        # one share per process, every w-th point, so that the processes'
        # shares of a grid differ by at most one point, wherever its costly
        # points lie; a point's result depends on its index alone, so the
        # results are put back in index order
        w = min(workers, total)
        payloads = [(stat, f, grid, ns, offset, indices[k::w]) for k in range(w)]
        # the lane function, generated here before the fork, which the
        # children then share, as they share this process's memory
        family(f, stat)
        stats = [None] * total
        for k, part in enumerate(_forked(payloads)):
            stats[k::w] = part
    else:
        stats = _scan_chunk((stat, f, grid, ns, offset, indices))
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
    return _scan("marty", _MARTY, f, grid, n_values, seed, workers)


def sd_family_scan(
    f: FamilyExpr,
    grid: GridSpec,
    n_values=None,
    *,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> MartyGridReport:
    """Same sweep with the statistic taken on z -> S_{f_n}(z) instead.

    Each (point, n)'s best sample is refined by a few steps of ascent of
    the statistic inside the point's disk, in the family's lane function
    (``codegen._ascent``), so that one generated function serves the scan.
    """
    return _scan("sd", _SD, f, grid, n_values, seed, workers)


def check_thresholds(slope_threshold=DEFAULT_SLOPE_THRESHOLD,
                     decay_threshold=DEFAULT_DECAY_THRESHOLD, cap=DEFAULT_CAP, L=0.0) -> None:
    """Refuse, with a ValueError, thresholds that :func:`classify` or
    :func:`value_bound_check` cannot apply: a decay threshold not below
    the slope threshold, a cap that is nan or not positive, or a nan L."""
    if not decay_threshold < slope_threshold:
        raise ValueError("decay_threshold must be below slope_threshold")
    if not cap > 0.0:
        raise ValueError(f"cap must be positive, got {cap!r}")
    if math.isnan(L):
        raise ValueError(f"L must be a number, got {L!r}")


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
    check_thresholds(slope_threshold, decay_threshold, cap)
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


class LocalBoundReport(Record):
    """Segment bound check |f_n(z) - f_n(z0)| <= K |z - z0| for one n.

    K is the maximum of |f_n'| over equispaced samples of the segment;
    value_at_z0 is reported so callers can inspect common fixed points.
    """

    __slots__ = _fields = ("n", "K_estimate", "bound_rhs", "observed", "passed", "value_at_z0")


def local_bound_estimate(
    f: FamilyExpr,
    n_values,
    z0: complex,
    z: complex,
    segment_samples: int = 256,
) -> list[LocalBoundReport]:
    """Check the integral mean-value bound along the straight segment.

    ``passed`` takes two clauses in order.  The fixed rule passes where
    ``observed <= bound_rhs * (1 + 1e-9) + 1e-12``.  Where it fails, the
    identity checkers' third clause decides: f is walked at a ball of
    radius 0 about z0 and about z, at order 0, and the n passes where
    ``observed - bound_rhs`` is within the radius of the balls'
    difference, f(z) - f(z0), and that radius is finite.  That radius
    bounds the rounding of ``observed``, literals counted as known to
    half an ulp, so a gap within it is one that roundoff can explain.

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
    length = modulus(z - z0)
    last = segment_samples - 1
    reports = []
    flagged = []
    for n in ns:
        # the segment's points, streamed into one batch, one group
        points = (z0 + (k / last) * (z - z0) for k in range(segment_samples))
        try:
            # f(z0) and f(z) by the rule of the segment's samples
            v0, v1 = (eval_jet(f, n, w, order=_BOUND.order)[0] for w in (z0, z))
            # the points are all finite where z - z0 is; otherwise the first,
            # z0 + 0 (z - z0), is not
            if not cmath.isfinite(z - z0):
                raise ValueError("jet_var requires a finite point")
            ((k_est, failed),) = eval_jet_lanes(f, n, [points], _BOUND)
            if not failed:
                observed = modulus(v1 - v0)
        except (EvalError, OverflowAtPoint):
            failed = True
        if failed:
            flagged.append(n)
            continue
        rhs = k_est * length
        passed = observed <= rhs * (1.0 + 1e-9) + 1e-12
        if not passed:
            # the roundoff clause: each ball's midpoint is f's value above
            b0, b1 = (eval_jet(f, n, Ball(w), order=0)[0] for w in (z0, z))
            slack = radius(b1 - b0)
            passed = math.isfinite(slack) and observed - rhs <= slack
        reports.append(LocalBoundReport(n, k_est, rhs, observed, passed, v0))
    if flagged:
        raise SegmentEvaluationError(flagged)
    return reports


class FloorCheckReport(Record):
    """Result of a |f_n'| >= epsilon sweep over grid neighborhoods.

    ``passes[point][n index]`` is whether that entry passed, and
    ``flags[point]`` the frozenset of the point's flags.  M2, M3 and
    max_abs_schwarzian are the maxima of |f''|, |f'''| and |S| over the
    same samples, wherever S is defined.
    """

    __slots__ = _fields = (
        "grid", "n_values", "epsilon", "passes", "min_abs_derivative", "flags",
        "M2", "M3", "max_abs_schwarzian",
    )

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
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    ns = _validate_n_values(n_values)
    rows = []
    flag_rows = []
    global_min = math.inf
    m2 = m3 = max_s = 0.0
    for _, stat_rows in _sweep(_FLOOR, f, grid, ns, _seed_offset(seed), range(grid.nx * grid.ny)):
        flags: set[str] = set()
        row = []
        for neg_low, d2, d3, s, failed in stat_rows:
            low = -neg_low  # inf where no sample had a value
            if low < global_min:
                global_min = low
            flags |= failed
            row.append(not failed and low >= epsilon)
            m2 = max(m2, d2)
            m3 = max(m3, d3)
            max_s = max(max_s, s)
        rows.append(tuple(row))
        flag_rows.append(frozenset(flags))
    if not math.isfinite(global_min):
        global_min = math.nan
    return FloorCheckReport(
        grid, ns, epsilon, tuple(rows), global_min, tuple(flag_rows), m2, m3, max_s
    )


def value_bound_check(f: FamilyExpr, n_values, zeta: complex, L: float) -> bool:
    """True when max over n of |f_n(zeta)| is at most L."""
    check_thresholds(L=L)
    ns = _validate_n_values(n_values)
    zeta = complex(zeta)
    return max(modulus(eval_jet(f, n, zeta, order=0)[0]) for n in ns) <= L


def sd_bound_from_hypotheses(M2: float, M3: float, epsilon: float) -> float:
    """Schwarzian bound M3/eps + 1.5 (M2/eps)^2 from derivative bounds.

    With |f''| <= M2, |f'''| <= M3 and |f'| >= epsilon on a region, the
    triangle inequality bounds |S_f| there by this quantity.  Raises
    :class:`OverflowAtPoint` when it leaves the finite double range, since
    an infinite bound says nothing.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
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


class HypothesesReport(Record):
    """Digest of the derivative-floor and value-bound hypothesis checks.

    M2 and M3 are the measured maxima of |f''| and |f'''| over the clean
    grid samples, sd_bound the resulting Schwarzian bound, and ``sound``
    records whether the measured max |S| actually stayed within it.  A
    sample flagged "Overflow" counts toward none of these maxima, so while
    any is, ``sound`` is false: it cannot rest on dropped samples.
    ``flags`` is the union of the floor sweep's flags over the grid.
    """

    __slots__ = _fields = (
        "epsilon", "L", "floor_ok", "value_ok", "min_abs_derivative", "M2", "M3",
        "sd_bound", "max_abs_schwarzian", "sound", "flags",
    )

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
    check_thresholds(L=L)  # before the floor sweep, which a nan L would waste
    floor = derivative_floor_check(f, ns, grid, epsilon, seed=seed)
    value_ok = value_bound_check(f, ns, zeta, L)
    bound = sd_bound_from_hypotheses(floor.M2, floor.M3, epsilon)
    max_s = floor.max_abs_schwarzian
    flags = frozenset().union(*floor.flags)
    sound = "Overflow" not in flags and max_s <= bound * (1.0 + 1e-9)
    return HypothesesReport(
        epsilon, L, floor.all_pass, value_ok, floor.min_abs_derivative,
        floor.M2, floor.M3, bound, max_s, sound, flags,
    )
