"""Machine speed, read from a fixed reference computation.

The sandbox this benchmark was built on shares its CPUs with other
tenants.  Over seconds to minutes its speed moves between phases up to
1.4x apart, and CPU time stretches with wall time: the process is not
waiting, the CPU itself runs slower.  A run's raw times therefore depend
on which phases it met.

So the benchmark times ``reference()`` -- a fixed piece of pure-Python
complex arithmetic shaped like the program's jet operations but sharing
no code with it -- between requests, and rescales each request's time to
the speed at which the reference takes ``REFERENCE_S``.  The reference
must never change: it is the unit in which the benchmark reports time.
Raw times are reported beside the rescaled ones.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.002  # a round figure near the reference's time here; sets the scale
_REPEATS = 3  # the reference is timed this many times; the fastest counts


def reference() -> complex:
    """Order-3 jet products and a quotient in plain tuples; about 2 ms."""
    a = (0.3 + 0.2j, 1.0, 0.0, 0.0)
    acc = 0j
    for k in range(1500):
        n = complex(k % 7 + 1)
        b = (a[0] * n, n, 0j, 0j)
        v = b[0] * a[0]
        d1 = b[1] * a[0] + b[0] * a[1]
        d2 = b[2] * a[0] + 2 * b[1] * a[1] + b[0] * a[2]
        d3 = b[3] * a[0] + 3 * (b[2] * a[1] + b[1] * a[2]) + b[0] * a[3]
        acc += v + d1 * d2 / (1.0 + abs(d3))
    return acc


def reference_seconds() -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedLog:
    """Reference times taken between requests, to rescale those requests."""

    def __init__(self):
        self.marks: list[tuple[int, float]] = []  # (requests done so far, seconds)

    def mark(self, done: int) -> None:
        self.marks.append((done, reference_seconds()))

    def factors(self, count: int) -> list[float]:
        """For requests 0..count-1, REFERENCE_S over the marks around each."""
        marks = self.marks
        out = []
        j = 0
        for i in range(count):
            while j + 1 < len(marks) and marks[j + 1][0] <= i:
                j += 1
            before = marks[j][1]
            after = marks[j + 1][1] if j + 1 < len(marks) else before
            out.append(2.0 * REFERENCE_S / (before + after))
        return out


def rescaled(fn):
    """Run fn() between two reference timings: (its result, the factor)."""
    before = reference_seconds()
    result = fn()
    return result, 2.0 * REFERENCE_S / (before + reference_seconds())
