"""Shared test helpers: an independent derivative oracle and tree tools.

The finite-difference oracle here deliberately avoids the jet machinery:
it differentiates plain complex-valued callables with central stencils,
so agreement between the two is evidence, not circularity.  Stencils are
averaged over the step directions 1 and i (which cancels the h^2 error
term for analytic functions) and then Richardson-extrapolated once.
"""

from __future__ import annotations

import cmath
import functools
import math
import random

from schwarzian_lab import codegen, probe
from schwarzian_lab.dsl import (
    Add,
    ConstNum,
    Div,
    Exp,
    FamilyExpr,
    ImagUnit,
    Log,
    Mul,
    Neg,
    Node,
    Param,
    PowInt,
    Sub,
    Var,
)
from schwarzian_lab.schwarzian import Mobius

# step sizes per derivative order: large enough that float64 roundoff in
# the divided differences stays far below the comparison tolerances
FD_STEPS = {1: 1e-5, 2: 1e-3, 3: 5e-3}
# relative agreement expected from the oracle per order
FD_RTOL = {1: 1e-6, 2: 1e-6, 3: 1e-4}

_DIRECTIONS = (1.0 + 0.0j, 1.0j)


def _stencil(func, z, k: int, e: complex, h: float) -> complex:
    s = e * h
    if k == 1:
        return (func(z + s) - func(z - s)) / (2.0 * s)
    if k == 2:
        return (func(z + s) - 2.0 * func(z) + func(z - s)) / (s * s)
    if k == 3:
        return (
            func(z + 2.0 * s)
            - 2.0 * func(z + s)
            + 2.0 * func(z - s)
            - func(z - 2.0 * s)
        ) / (2.0 * s * s * s)
    raise ValueError("k must be 1, 2 or 3")


def _direction_average(func, z, k: int, h: float) -> complex:
    return sum(_stencil(func, z, k, e, h) for e in _DIRECTIONS) / len(_DIRECTIONS)


def fd_derivative(func, z: complex, k: int, h: float | None = None) -> complex:
    """k-th derivative of an analytic callable by extrapolated stencils."""
    if h is None:
        h = FD_STEPS[k]
    coarse = _direction_average(func, z, k, h)
    fine = _direction_average(func, z, k, h / 2.0)
    # direction averaging already cancels h^2, so extrapolate at h^4
    return (16.0 * fine - coarse) / 15.0


def assert_fd_close(jet_value: complex, fd_value: complex, k: int, scale: float = 1.0):
    gap = abs(jet_value - fd_value)
    tol = FD_RTOL[k] * max(abs(jet_value), abs(fd_value), scale)
    assert gap <= tol, f"order-{k} mismatch: jet {jet_value} vs fd {fd_value} (gap {gap:.3e})"


# ---------------------------------------------------------------------------
# independent plain-complex evaluator (no jets)


def plain_eval(node: Node, n: complex, z: complex, lib=cmath) -> complex:
    """f_n(z) by plain arithmetic, with ``lib``'s exp and log (cmath, or mpmath)."""
    if isinstance(node, Var):
        return z
    if isinstance(node, Param):
        return complex(n)
    if isinstance(node, ImagUnit):
        return 1j
    if isinstance(node, ConstNum):
        return node.value
    if isinstance(node, Add):
        return plain_eval(node.lhs, n, z, lib) + plain_eval(node.rhs, n, z, lib)
    if isinstance(node, Sub):
        return plain_eval(node.lhs, n, z, lib) - plain_eval(node.rhs, n, z, lib)
    if isinstance(node, Mul):
        return plain_eval(node.lhs, n, z, lib) * plain_eval(node.rhs, n, z, lib)
    if isinstance(node, Div):
        return plain_eval(node.lhs, n, z, lib) / plain_eval(node.rhs, n, z, lib)
    if isinstance(node, Neg):
        return -plain_eval(node.operand, n, z, lib)
    if isinstance(node, PowInt):
        return plain_eval(node.base, n, z, lib) ** node.exponent
    if isinstance(node, Exp):
        return lib.exp(plain_eval(node.arg, n, z, lib))
    if isinstance(node, Log):
        return lib.log(plain_eval(node.arg, n, z, lib))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# tree construction helpers


def subst_var(node: Node, replacement: Node) -> Node:
    """Copy of the tree with every z leaf replaced by another tree."""
    if isinstance(node, Var):
        return replacement
    if isinstance(node, (Param, ImagUnit, ConstNum)):
        return node
    if isinstance(node, Add):
        return Add(subst_var(node.lhs, replacement), subst_var(node.rhs, replacement))
    if isinstance(node, Sub):
        return Sub(subst_var(node.lhs, replacement), subst_var(node.rhs, replacement))
    if isinstance(node, Mul):
        return Mul(subst_var(node.lhs, replacement), subst_var(node.rhs, replacement))
    if isinstance(node, Div):
        return Div(subst_var(node.lhs, replacement), subst_var(node.rhs, replacement))
    if isinstance(node, Neg):
        return Neg(subst_var(node.operand, replacement))
    if isinstance(node, PowInt):
        return PowInt(subst_var(node.base, replacement), node.exponent)
    if isinstance(node, Exp):
        return Exp(subst_var(node.arg, replacement))
    if isinstance(node, Log):
        return Log(subst_var(node.arg, replacement))
    raise TypeError(f"not an expression node: {node!r}")


def log_arguments(node: Node) -> list[Node]:
    """Argument subtrees of every log in the tree, nested ones included."""
    found: list[Node] = []
    if isinstance(node, (Var, Param, ImagUnit, ConstNum)):
        return found
    if isinstance(node, (Add, Sub, Mul, Div)):
        return log_arguments(node.lhs) + log_arguments(node.rhs)
    if isinstance(node, Neg):
        return log_arguments(node.operand)
    if isinstance(node, PowInt):
        return log_arguments(node.base)
    if isinstance(node, Exp):
        return log_arguments(node.arg)
    if isinstance(node, Log):
        return [node.arg] + log_arguments(node.arg)
    raise TypeError(f"not an expression node: {node!r}")


def segment_crosses_log_cut(
    root: Node, n: complex, z0: complex, z1: complex, samples: int = 129
) -> bool:
    """Whether any log argument's path over the segment meets (-inf, 0].

    The principal branch is discontinuous there, so a function whose log
    argument crosses it is not single-valued along the segment and falls
    outside every pathwise bound.  Detection samples the argument's path;
    an evaluation failure counts as a crossing so callers can reject.
    """
    args = log_arguments(root)
    if not args:
        return False
    for arg in args:
        prev = None
        for k in range(samples):
            t = k / (samples - 1)
            try:
                w = plain_eval(arg, n, z0 + t * (z1 - z0))
            except (ArithmeticError, ValueError):
                return True
            if w.real <= 0.0 and w.imag == 0.0:
                return True
            if prev is not None and (prev.real < 0.0 or w.real < 0.0):
                if (prev.imag < 0.0) != (w.imag < 0.0):
                    return True
            prev = w
    return False


def mobius_tree(m: Mobius, argument: Node) -> Node:
    """(a*arg + b)/(c*arg + d) as a tree; constants may be any complex."""
    num = Add(Mul(ConstNum(m.a), argument), ConstNum(m.b))
    den = Add(Mul(ConstNum(m.c), argument), ConstNum(m.d))
    return Div(num, den)


def compose_family(outer: FamilyExpr, inner: FamilyExpr) -> FamilyExpr:
    """Textual composition outer(inner(z)) as a fresh family."""
    return FamilyExpr(subst_var(outer.root, inner.root))


# ---------------------------------------------------------------------------
# random expression generator


def random_tree(rng: random.Random, depth: int) -> Node:
    """Random expression tree, kept shallow so magnitudes stay tame.

    Draws are not guaranteed evaluation-safe; consumers reject draws that
    error or land in ill-conditioned spots.
    """
    if depth <= 0:
        roll = rng.random()
        if roll < 0.45:
            return Var()
        if roll < 0.65:
            return Param()
        if roll < 0.75:
            return ImagUnit()
        if rng.random() < 0.5:
            return ConstNum(complex(rng.randint(0, 4)))
        return ConstNum(complex(round(rng.uniform(0.25, 3.0), 2)))
    roll = rng.random()
    child = depth - 1
    if roll < 0.2:
        return Add(random_tree(rng, child), random_tree(rng, child))
    if roll < 0.36:
        return Sub(random_tree(rng, child), random_tree(rng, child))
    if roll < 0.56:
        return Mul(random_tree(rng, child), random_tree(rng, child))
    if roll < 0.68:
        # shift the denominator away from the origin to cut pole draws
        shift = ConstNum(complex(rng.randint(2, 4)))
        return Div(random_tree(rng, child), Add(random_tree(rng, child), shift))
    if roll < 0.76:
        return Neg(random_tree(rng, child))
    if roll < 0.84:
        return PowInt(random_tree(rng, child), rng.choice((2, 3)))
    if roll < 0.94:
        return Exp(random_tree(rng, child))
    shift = ConstNum(complex(rng.randint(2, 4)))
    return Log(Add(random_tree(rng, child), shift))


def random_family(rng: random.Random, depth: int = 3) -> FamilyExpr:
    return FamilyExpr(random_tree(rng, depth))


def random_point(rng: random.Random, radius: float = 1.0) -> complex:
    r = radius * (rng.random() ** 0.5)
    theta = rng.uniform(0.0, 2.0 * cmath.pi)
    return r * cmath.exp(1j * theta)


def random_mobius(rng: random.Random, min_det: float = 0.3) -> Mobius:
    while True:
        coeffs = [
            complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(4)
        ]
        a, b, c, d = coeffs
        if abs(a * d - b * c) >= min_det:
            return Mobius(a, b, c, d)


def example2_disk_sup(n: int, z: complex, radius: float) -> float:
    """sup of |S'| / (1 + |S|^2) over the closed disk of ``radius`` about z,
    for f_n = exp(z/(n z + 1)), from its closed form.

    S = -1/(2 w^4) and S' = 2n/w^5 for w = n z + 1, so the statistic is
    g(rho) = 2n rho^3 / (rho^8 + 1/4), rho = |w|, which peaks at
    rho^8 = 3/20.  The sup is the largest g over a dense polar grid of the
    disk (201 radii, 720 angles, both ends of each included), with the
    peak's ring where the disk meets it.
    """

    def g(rho):
        return 2.0 * n * rho**3 / (rho**8 + 0.25)

    best = max(
        g(abs(n * (z + radius * (k / 200) * cmath.exp(2j * cmath.pi * a / 720)) + 1))
        for k in range(201)
        for a in range(720)
    )
    peak = (3.0 / 20.0) ** 0.125
    near, far = abs(n * z + 1) - n * radius, abs(n * z + 1) + n * radius
    return max(best, g(peak)) if near <= peak <= far else best


# ---------------------------------------------------------------------------
# the scan-sd ascent, written out in Python: the oracle of the ascent the
# lane function runs (codegen._ascent), one group at a time


def _into_disk(c: complex, z: complex, radius: float) -> complex:
    # c, or the point of the disk about z nearest to it
    d = c - z
    m = math.hypot(d.real, d.imag)
    return c if m <= radius else z + d * (radius / m)


def _direction(d_re: float, d_im: float) -> tuple:
    # the unit vector along d, 0 where d is 0, and |d|, inf past the double range
    mag = math.hypot(d_re, d_im)
    return (complex(d_re, d_im) / mag if mag else 0j), mag


def redo(f: FamilyExpr, n, stat, of=None):
    """The redo walk of a statistic (``codegen._redo``) at a point, its
    value or flag, on the tree's split for the statistic ``of``, an
    ascent's rise taking its statistic's, or for ``stat`` itself."""
    return functools.partial(codegen._redo, codegen._split(f.root, of or stat), n, stat)


def walked(f: FamilyExpr, n, stat, of=None):
    """A statistic at a point by the redo walk at its order, on the split
    for ``of`` or for ``stat`` (:func:`redo`): its value, or None where the
    walk fails or a slot is past the double range."""
    walk = redo(f, n, stat, of)

    def value(w):
        got = walk(w)
        if type(got) is str or not all(map(math.isfinite, got if type(got) is tuple else (got,))):
            return None
        return got

    return value


def sd_keep(f: FamilyExpr, n, samples) -> tuple:
    """A group's (best, flags, argmax) under the sd statistic, each sample
    by the walk: the largest value, -1.0 if none has one, the flags of its
    failed samples, and the sample of the largest, the first of equals."""
    best, flags, at = -1.0, set(), None
    walk = redo(f, n, probe._SD)
    for w in samples:
        got = walk(w)
        if type(got) is str:
            flags.add(got)
        elif not math.isfinite(got):
            flags.add("Overflow")
        elif got > best:
            best, at = got, w
    return best, flags, at


def ascend(best: float, at, centre: complex, radius: float, rise, last=None,
           rounds: int | None = None) -> float:
    """A group's best, refined by ascent from its argmax sample ``at``.

    ``rise(w)`` gives F (the statistic, bit for bit), a and the two parts
    of D, F's gradient times a positive factor, or None where it fails.
    It runs at ``at``, whose F is the group's best, then once per round of
    ``rounds`` (``codegen._ASCENT_ROUNDS`` by default), at the point a
    step along D from where the group stands, projected back into its
    disk.  The first step is min(radius, F / (2 |grad F|)).  A candidate
    is accepted only where F rises: the group moves there, takes its D,
    and its step doubles; otherwise the step halves.  A candidate that
    fails, or is not finite, is rejected.  With ``last``, the last round
    takes F from ``last(w)`` (None where it fails) and not from the rise.
    """
    if at is None or (got := rise(at)) is None:
        return best
    _, a, d_re, d_im = got
    u, mag = _direction(d_re, d_im)
    step = a * a / (2.0 * mag) if mag else radius  # F / (2 |grad F|)
    p, step = at, step if step < radius else radius
    rounds = codegen._ASCENT_ROUNDS if rounds is None else rounds
    for k in range(rounds):
        c = _into_disk(p + step * u, centre, radius)
        if not cmath.isfinite(c):
            step = step * 0.5
            continue
        if last is not None and k == rounds - 1:  # F alone
            f = last(c)
            return f if f is not None and f > best else best
        got = rise(c)
        if got is not None and got[0] > best:
            best, p, step = got[0], c, step * 2.0
            u = _direction(got[2], got[3])[0]
        else:
            step = step * 0.5
    return best
