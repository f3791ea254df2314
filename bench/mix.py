"""Seeded command stream for the ``checks-mix`` workload.

Families are random depth-3 expression trees held as nested tuples, so
the benchmark can render them as ``--family`` text and evaluate them with
plain complex arithmetic, independently of the program's jets.  Every
identity command is true by construction:

- Mobius invariance, composition and the shifted reciprocal law hold for
  any family;
- conjugation pairs are built as g = phi o f o phi^-1 with phi one of
  z + n, k z or 1/z, so phi(f(z)) = g(phi(z)) holds exactly.

The only command whose verdict may legitimately be "failed" is ``bound``
when a log argument crosses the principal branch cut along the segment.
"""

from __future__ import annotations

import cmath
import math
import random

# command kinds and their share of the stream
KIND_WEIGHTS = (
    ("eval", 0.18),
    ("mobius-invariance", 0.18),
    ("composition", 0.18),
    ("reciprocal", 0.18),
    ("conjugation", 0.18),
    ("bound", 0.10),
)
BOUND_N_MAX = 3
SEGMENT_SAMPLES = 256  # the bound command's default --segment-samples
# scales k of the conjugating map phi(z) = k z
PHI_SCALES = (2.0, 3.0, 0.5)


# ---------------------------------------------------------------------------
# expression trees: ("z",), ("n",), ("i",), ("const", text),
# (op, a, b) for op in add/sub/mul/div, ("neg", a), ("pow", a, k),
# ("exp", a), ("log", a)


def random_tree(rng: random.Random, depth: int) -> tuple:
    """Random family tree; denominators and log arguments are shifted."""
    if depth <= 0:
        roll = rng.random()
        if roll < 0.45:
            return ("z",)
        if roll < 0.65:
            return ("n",)
        if roll < 0.75:
            return ("i",)
        if rng.random() < 0.5:
            return ("const", str(rng.randint(0, 4)))
        return ("const", f"{rng.uniform(0.25, 3.0):.2f}")
    roll = rng.random()
    child = depth - 1
    if roll < 0.2:
        return ("add", random_tree(rng, child), random_tree(rng, child))
    if roll < 0.36:
        return ("sub", random_tree(rng, child), random_tree(rng, child))
    if roll < 0.56:
        return ("mul", random_tree(rng, child), random_tree(rng, child))
    if roll < 0.68:
        shift = ("const", str(rng.randint(2, 4)))
        den = ("add", random_tree(rng, child), shift)
        return ("div", random_tree(rng, child), den)
    if roll < 0.76:
        return ("neg", random_tree(rng, child))
    if roll < 0.84:
        return ("pow", random_tree(rng, child), rng.choice((2, 3)))
    if roll < 0.94:
        return ("exp", random_tree(rng, child))
    shift = ("const", str(rng.randint(2, 4)))
    return ("log", ("add", random_tree(rng, child), shift))


_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def to_text(t: tuple) -> str:
    """Fully parenthesized DSL text for a tree."""
    op = t[0]
    if op in ("z", "n", "i"):
        return op
    if op == "const":
        return t[1]
    if op in _INFIX:
        return f"({to_text(t[1])}{_INFIX[op]}{to_text(t[2])})"
    if op == "neg":
        return f"(-{to_text(t[1])})"
    if op == "pow":
        return f"({to_text(t[1])})^{t[2]}"
    return f"{op}({to_text(t[1])})"


def plain_eval(t: tuple, n: complex, z: complex) -> complex:
    """Value of the tree under plain complex arithmetic (no jets)."""
    op = t[0]
    if op == "z":
        return z
    if op == "n":
        return complex(n)
    if op == "i":
        return 1j
    if op == "const":
        return complex(float(t[1]))
    if op == "add":
        return plain_eval(t[1], n, z) + plain_eval(t[2], n, z)
    if op == "sub":
        return plain_eval(t[1], n, z) - plain_eval(t[2], n, z)
    if op == "mul":
        return plain_eval(t[1], n, z) * plain_eval(t[2], n, z)
    if op == "div":
        return plain_eval(t[1], n, z) / plain_eval(t[2], n, z)
    if op == "neg":
        return -plain_eval(t[1], n, z)
    if op == "pow":
        return plain_eval(t[1], n, z) ** t[2]
    if op == "exp":
        return cmath.exp(plain_eval(t[1], n, z))
    if op == "log":
        return cmath.log(plain_eval(t[1], n, z))
    raise ValueError(f"not a tree node: {t!r}")


def subst_z(t: tuple, replacement: tuple) -> tuple:
    """Copy of the tree with every z leaf replaced."""
    op = t[0]
    if op == "z":
        return replacement
    if op in ("n", "i", "const"):
        return t
    if op == "pow":
        return ("pow", subst_z(t[1], replacement), t[2])
    return (op,) + tuple(subst_z(c, replacement) for c in t[1:])


def log_arguments(t: tuple) -> list[tuple]:
    """Argument subtrees of every log, nested ones included."""
    op = t[0]
    if op in ("z", "n", "i", "const"):
        return []
    found = [t[1]] if op == "log" else []
    children = t[1:2] if op == "pow" else t[1:]
    for c in children:
        found.extend(log_arguments(c))
    return found


def near_log_cut(t: tuple, n: complex, z: complex) -> bool:
    """Whether some log argument sits on or next to the negative real axis.

    There the principal branch jumps by 2 pi i, so two evaluations that
    differ by one rounding may land on different sheets.
    """
    for arg in log_arguments(t):
        w = plain_eval(arg, n, z)
        if w.real < 0.0 and abs(w.imag) <= 1e-9 * abs(w):
            return True
    return False


def segment_crosses_log_cut(
    t: tuple, n: complex, z0: complex, z1: complex, samples: int = 129
) -> bool:
    """Whether some log argument's path along [z0, z1] meets (-inf, 0].

    A function whose log argument crosses the cut is not single-valued on
    the segment, so no pathwise mean-value bound applies.  A sample that
    fails to evaluate counts as a crossing.
    """
    for arg in log_arguments(t):
        prev = None
        for k in range(samples):
            s = k / (samples - 1)
            try:
                w = plain_eval(arg, n, z0 + s * (z1 - z0))
            except (ArithmeticError, ValueError):
                return True
            if w.real <= 0.0 and w.imag == 0.0:
                return True
            if prev is not None and (prev.real < 0.0 or w.real < 0.0):
                if (prev.imag < 0.0) != (w.imag < 0.0):
                    return True
            prev = w
    return False


# ---------------------------------------------------------------------------
# conjugation pairs


def conjugate_pair(rng: random.Random, f: tuple) -> tuple[tuple, str, tuple]:
    """(g, phi as Mobius text, phi as (kind, k)) with g = phi o f o phi^-1."""
    kind = rng.choice(("shift", "scale", "reciprocal"))
    if kind == "shift":
        g = ("add", subst_z(f, ("sub", ("z",), ("n",))), ("n",))
        return g, "1,n,0,1", ("shift", None)
    if kind == "scale":
        k = rng.choice(PHI_SCALES)
        kt = ("const", repr(k))
        g = ("mul", kt, subst_z(f, ("div", ("z",), kt)))
        return g, f"{k!r},0,0,1", ("scale", k)
    g = ("div", ("const", "1"), subst_z(f, ("div", ("const", "1"), ("z",))))
    return g, "0,1,1,0", ("reciprocal", None)


def apply_phi(phi: tuple, n: float, w: complex) -> complex:
    kind, k = phi
    if kind == "shift":
        return w + n
    if kind == "scale":
        return k * w
    return 1.0 / w


# ---------------------------------------------------------------------------
# command stream


def _complex_text(w: complex) -> str:
    return f"{w.real:.4f}{w.imag:+.4f}i"


def _point(rng: random.Random, r_min: float, r_max: float) -> complex:
    """Random point of the annulus, snapped to the 4 decimals its text has."""
    w = cmath.rect(rng.uniform(r_min, r_max), rng.uniform(0.0, 2.0 * math.pi))
    return complex(float(f"{w.real:.4f}"), float(f"{w.imag:.4f}"))


def _mobius_text(rng: random.Random) -> str:
    while True:
        a, b, c, d = (
            complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3))
            for _ in range(4)
        )
        if abs(a * d - b * c) >= 0.3:
            return ",".join(_complex_text(x) for x in (a, b, c, d))


def make_command(rng: random.Random, kind: str) -> dict:
    """One check: its argv plus what the oracle needs to judge it."""
    f = random_tree(rng, 3)
    n = float(rng.randint(1, 8))
    z = _point(rng, 0.2, 1.2)
    fam = ["--family", to_text(f)]
    where = ["--n", repr(n), f"--z={_complex_text(z)}"]
    cmd = {"kind": kind, "f": f, "n": n, "z": z}
    if kind == "eval":
        cmd["argv"] = ["eval"] + fam + where
    elif kind == "mobius-invariance":
        cmd["argv"] = ["identity", kind] + fam + where + [f"--mobius={_mobius_text(rng)}"]
    elif kind == "composition":
        g = random_tree(rng, 3)
        cmd["argv"] = ["identity", kind] + fam + ["--family", to_text(g)] + where
    elif kind == "reciprocal":
        omit = _point(rng, 0.0, 3.0)
        cmd["argv"] = ["identity", kind] + fam + where + [f"--omit={_complex_text(omit)}"]
    elif kind == "conjugation":
        g, phi_text, _ = conjugate_pair(rng, f)
        cmd["argv"] = (
            ["identity", kind] + fam + ["--family", to_text(g)] + where + [f"--phi={phi_text}"]
        )
    else:
        z0 = _point(rng, 0.0, 1.5)
        cmd["z0"] = z0
        cmd["argv"] = ["bound"] + fam + [
            "--n-max",
            str(BOUND_N_MAX),
            f"--z0={_complex_text(z0)}",
            f"--z={_complex_text(z)}",
        ]
    return cmd


def command_stream(seed: int, count: int) -> list[dict]:
    """Seeded commands; each kind's count is fixed, only the order is drawn."""
    rng = random.Random(f"checks-mix:{seed}")
    kinds = [kind for kind, weight in KIND_WEIGHTS for _ in range(round(weight * count))]
    kinds = (kinds + ["eval"] * count)[:count]
    rng.shuffle(kinds)
    return [make_command(rng, kind) for kind in kinds]
