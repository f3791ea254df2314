"""Numerical toolkit for Schwarzian derivatives and normal-family probes.

The package is layered, each module importing only those before it and
``record``, the base of its records: ``ball`` encloses rounded complex
arithmetic in midpoint-radius balls, ``jets`` propagates derivative jets
of any order up to 5, one type at every order, through complex or ball
arithmetic, ``dsl`` parses one-parameter family expressions in z and n
and evaluates them at a point by a tree walk, ``schwarzian`` provides
the Schwarzian and spherical derivatives with their Mobius algebra and
identity checks, ``codegen`` evaluates a statistic over a batch of
points by the lane function it generates for each family from the tree
and the ``jets`` formulas, handing failed samples back to the walk, and
``probe`` runs grid scans and bound checks on top. ``cli`` exposes it
all as the ``schwarzian-lab`` command.

The batch layers, ``codegen`` and ``probe``, load on first use: the names
this package re-exports from them resolve when first read (PEP 562), and
``cli`` imports ``probe`` only for the subcommands that run it, so ``eval``
and ``identity`` import neither.
"""

import importlib

from .dsl import (
    EvalError,
    FamilyExpr,
    ParseError,
    eval_jet,
    eval_jet_seeded,
    parse,
    pretty_print,
)
from .jets import (
    ComplexJet3,
    DivisionByZeroAtPoint,
    JetError,
    OverflowAtPoint,
    jet_add,
    jet_const,
    jet_div,
    jet_exp,
    jet_log,
    jet_mul,
    jet_neg,
    jet_pow_int,
    jet_sub,
    jet_var,
)
from .schwarzian import (
    ConjugacyViolated,
    CriticalPointError,
    DegenerateMobiusError,
    GuardViolation,
    IdentityReport,
    Mobius,
    POINT_AT_INFINITY,
    PoleOfMobius,
    check_composition_law,
    check_conjugation,
    check_mobius_invariance,
    check_reciprocal,
    mobius_apply,
    mobius_compose,
    mobius_inverse,
    mobius_jet,
    mobius_on_jet,
    schwarzian,
    spherical_derivative,
)

__version__ = "0.1.0"

# the names re-exported from the batch layers, each by its module
_LAZY = {
    "eval_jet_lanes": "codegen",
    **dict.fromkeys(
        (
            "FloorCheckReport",
            "GridSpec",
            "HypothesesReport",
            "LocalBoundReport",
            "MartyGridReport",
            "NormalityVerdict",
            "PointStats",
            "SegmentEvaluationError",
            "Verdict",
            "check_theorem_hypotheses",
            "classify",
            "derivative_floor_check",
            "local_bound_estimate",
            "marty_scan",
            "sd_family_scan",
            "sd_bound_from_hypotheses",
            "value_bound_check",
        ),
        "probe",
    ),
}


def __getattr__(name: str):
    # a batch layer's name: import its module, and keep the name here
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "__version__",
    # jets
    "ComplexJet3",
    "JetError",
    "DivisionByZeroAtPoint",
    "OverflowAtPoint",
    "jet_var",
    "jet_const",
    "jet_add",
    "jet_sub",
    "jet_neg",
    "jet_mul",
    "jet_div",
    "jet_exp",
    "jet_log",
    "jet_pow_int",
    # dsl
    "FamilyExpr",
    "ParseError",
    "EvalError",
    "parse",
    "pretty_print",
    "eval_jet",
    "eval_jet_seeded",
    # schwarzian
    "schwarzian",
    "spherical_derivative",
    "Mobius",
    "POINT_AT_INFINITY",
    "mobius_apply",
    "mobius_compose",
    "mobius_inverse",
    "mobius_on_jet",
    "mobius_jet",
    "IdentityReport",
    "check_mobius_invariance",
    "check_composition_law",
    "check_reciprocal",
    "check_conjugation",
    "CriticalPointError",
    "PoleOfMobius",
    "GuardViolation",
    "ConjugacyViolated",
    "DegenerateMobiusError",
    # codegen and probe, each name once
    *_LAZY,
]
