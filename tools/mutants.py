"""Check that the tests kill every mutant of a table, each a one-place change to ``src/``.

    python tools/mutants.py

Each mutant names a file under ``src/schwarzian_lab``, an old text that
must occur there exactly once, the new text, and the test ids that should
kill it.  The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to
temporary directories and runs pytest there, so the tests import a copy:
``pythonpath = ["src"]`` in ``pyproject.toml`` puts the checkout's own
``src`` first, and ``PYTHONPATH`` alone would not reach past it.  It first
checks that the unmutated copy passes every named test, then applies each
mutant to a copy of its own and checks that at least one of its tests
fails.  Up to ``min(os.cpu_count(), 4)`` mutants run at once, one per
copy, and the report keeps the table's order.  No bytecode is written, so
a mutant is never run from a stale ``.pyc``.

``SURVIVORS`` are mutants known to survive, each with its reason; they run
too, and one that is killed is reported, so that it can join the table.
``DELETED`` lists recorded mutations whose code was later deleted.  The
run exits 1 if the copy fails, an old text does not match exactly once, or
a mutant of the table survives; it lists every stale old text, of the
table and of the survivors, before it runs any test, so that a change
that moves code sees every mutant to re-anchor in one run.

Only the standard library is used; pytest does not collect this file
(``testpaths`` is ``tests``).
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/schwarzian_lab
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple  # pytest node ids, any of which should fail
    reason: str = ""  # why a listed survivor survives


DSL = "tests/test_dsl.py::"
PROBE = "tests/test_probe.py::"
CLI = "tests/test_cli.py::"
GOLDENS = "tests/test_scan_goldens.py::"
JETS = "tests/test_jets.py::"
BALL = "tests/test_ball.py::"
ORACLE = "tests/test_identity_oracle.py::"
SCHWARZIAN = "tests/test_schwarzian.py::"

# the mutations CHANGES.md records for the lane function and its statistics
# (at f9cb2da, 418a567, f051287 and 7bcb6c2), as they apply to the code
# today, then one per part of the lane's one handler, then those it
# records for the identity error bound (a00e581, here against the ball
# rules), the batch walk (2bde4db) and the one walk (cce385b), then those
# of the order rule, of the records, and of the order-k jets and the sd
# ascent, then those of the ascent in the lane function, then those of the
# forked scan processes and the ascent's kept values, then those of the one
# lane-function cache and of the identity bound clause, then those of the
# one jet type at every order and of the slope's log clamp, then that of
# the kept names read from the generated lines, then those of the one
# formula tracer, of the operator tables and of the finite seeds and Mobius
# coefficients, then those of the peel rule, then those of the split held
# with the lane function, then those of the one walk and of bound's
# roundoff clause, then those of the one redo walk over the tree's split,
# of the fit window and of the one exit-3 rule, then those of the guarded
# node operations written once in jets, then those of the Moebius peel; a
# later change adds its mutants here
MUTANTS = (
    # the generator's folds and checks
    Mutant("a fold drops its finiteness requirement", "codegen.py",
           "        if _is_zero(q) and _is_finite(q):", "        if _is_zero(q):",
           (DSL + "test_generated_lane_function_on_each_rule",)),
    Mutant("c + 0 folds to c without c nonzero", "codegen.py",
           "            if p.nonzero if type(p) is _Part else p != 0.0:", "            if True:",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",)),
    Mutant("the +0 rule folds any zero", "codegen.py",
           "            if _signed_zero(p, 1.0):", "            if _is_zero(p):",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",)),
    Mutant("no check before an opaque function", "codegen.py",
           "        self.check(u.lane, cond)", "        pass",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",)),
    Mutant("no check at the output", "codegen.py",
           "    if unchecked:\n        t.check(True,",
           "    if False:\n        t.check(True,",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",)),
    Mutant("no check before x^0", "codegen.py",
           "        if parts:\n", "        if False:\n",
           (DSL + "test_generated_lane_function_on_each_rule",)),
    Mutant("n's zero check dropped", "codegen.py",
           '"    if N is None or not N.real:"', '"    if N is None:"',
           (DSL + "test_generated_lane_function_on_each_rule",)),
    Mutant("- treated as commutative", "codegen.py",
           '        if kind != "-":', "        if True:",
           (DSL + "test_generated_lane_function_on_each_rule",)),
    Mutant("the output check back to the sum alone", "codegen.py",
           "    return f\"not {test}({' + '.join(names)}) and not ({each})\"",
           "    return f\"not {test}({' + '.join(names)})\"",
           (DSL + "test_finite_parts_that_add_up_past_the_double_range_take_the_fast_path",
            DSL + "test_fused_floor_sweep_on_each_rule")),
    Mutant("the output check on the first part only", "codegen.py",
           "    if len(names) == 1:", "    if True:",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",)),
    Mutant("the prelude's failure leaves Z to the loop", "codegen.py",
           '*_indent(redo_all),\n            "    Z = ()",', "*_indent(redo_all),",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",)),
    # the walk that redoes a lane, and the parser
    Mutant("the walk evaluates rhs before lhs", "dsl.py",
           "        args = (_walk(node.lhs, ops, leaves, point), _walk(node.rhs, ops, leaves, point))",
           "        rhs = _walk(node.rhs, ops, leaves, point)\n"
           "        args = (_walk(node.lhs, ops, leaves, point), rhs)",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",)),
    # the refusals of bad thresholds, each before the evaluation it would waste
    Mutant("a scan's thresholds refused only after the scan", "cli.py",
           "    probe.check_thresholds(args.slope_threshold, args.decay_threshold, args.cap)"
           "  # before the scan\n", "",
           (CLI + "test_bad_thresholds_are_refused_before_any_evaluation",)),
    Mutant("a nan L refused only after the floor sweep", "probe.py",
           "    check_thresholds(L=L)  # before the floor sweep, which a nan L would waste\n", "",
           (CLI + "test_bad_thresholds_are_refused_before_any_evaluation",)),
    Mutant("the parser rebuilt per call", "cli.py",
           "@functools.cache\ndef _build_parser", "def _build_parser",
           (CLI + "test_cached_parser_gives_a_fresh_parsers_bytes",)),
    # the invoked subcommand's parser alone, and probe imported by the
    # subcommands that run it
    Mutant("a subcommand's own parser naming itself alone in the usage line", "cli.py",
           'metavar=None if every else "{" + ",".join(_SUBCOMMANDS) + "}"', "metavar=None",
           (CLI + "test_a_subcommands_own_parser_parses_as_the_full_one",)),
    Mutant("every command parsed by the parser of all six", "cli.py",
           "    parser = _build_parser((argv[0],)) if argv and argv[0] in _SUBCOMMANDS"
           " else _build_parser()",
           "    parser = _build_parser()",
           (CLI + "test_a_command_imports_the_batch_layers_only_if_it_runs_them",
            CLI + "test_cached_parser_gives_a_fresh_parsers_bytes")),
    Mutant("the exit-3 ArithmeticError clause narrowed to OverflowError", "cli.py",
           "    except (ArithmeticError, ConjugacyViolated, GuardViolation) as exc:",
           "    except (OverflowError, ConjugacyViolated, GuardViolation) as exc:",
           (CLI + "test_bound_segment_failure_exits_3",
            CLI + "test_any_arithmetic_failure_exits_3_with_one_line")),
    # the statistics
    Mutant("the critical guard dropped", "codegen.py",
           "        t.check(True, _CRITICAL_GUARD.format(*critical))",
           "        pass",
           (DSL + "test_fused_statistics_match_the_reference_bit_for_bit",)),
    Mutant("the critical rule tried after the lane formula", "codegen.py",
           "        if stat.critical is not None and _critical(head[1]):\n"
           "            return stat.critical(j)\n"
           "        return stat.lane(j, *args)",
           "        value = stat.lane(j, *args)\n"
           "        if stat.critical is not None and _critical(head[1]):\n"
           "            return stat.critical(j)\n"
           "        return value",
           (DSL + "test_fused_statistics_match_the_reference_bit_for_bit",)),
    Mutant("the sd statistic without its critical rule", "probe.py",
           "_SD = Statistic(_sd, _critical_point, order=4, ascent=_SD_RISE, peel=True)",
           "_SD = Statistic(_sd, None, order=4, ascent=_SD_RISE, peel=True)",
           (DSL + "test_fused_statistics_match_the_reference_bit_for_bit",)),
    Mutant("a modulus past the double range not flagged, the sd statistic's among them",
           "codegen.py",
           '    except OverflowError:\n        return "Overflow"',
           "    except OverflowError:\n        return -1.0",
           (PROBE + "test_sd_statistic_past_the_double_range_is_an_overflow_flag",
            DSL + "test_fused_sd_statistic_on_each_rule")),
    Mutant("the keep's rule for a value past the double range dropped", "codegen.py",
           """    keep = [f"if {_not_finite(values, 'finite')}:", "    flags |= {'Overflow'}", "    continue"]""",
           "    keep = []",
           (DSL + "test_fused_floor_sweep_on_each_rule",
            DSL + "test_fused_sd_statistic_on_each_rule",
            GOLDENS + "test_flag_heavy_grid_bytes[hypotheses-s-nan-csv]")),
    Mutant("a critical floor lane counted toward M2", "probe.py",
           "    return low, -1.0, -1.0, -1.0", "    return low, abs(j[2]), -1.0, -1.0",
           (DSL + "test_fused_floor_sweep_matches_the_jet_loop_bit_for_bit",)),
    Mutant("min |f'| folded without the negation", "probe.py",
           "    low, m2, m3 = -abs(j[1]), abs(j[2]), abs(j[3])",
           "    low, m2, m3 = abs(j[1]), abs(j[2]), abs(j[3])",
           (DSL + "test_fused_floor_sweep_matches_the_jet_loop_bit_for_bit",)),
    Mutant("a critical floor lane skips its moduli", "probe.py",
           "    low, _, _ = -abs(j[1]), abs(j[2]), abs(j[3])", "    low = -abs(j[1])",
           (DSL + "test_fused_floor_sweep_on_each_rule",
            GOLDENS + "test_flag_heavy_grid_bytes[hypotheses-critical-d2-csv]")),
    Mutant("bound's statistic starts at -1.0", "probe.py",
           "_BOUND = Statistic(_slope, start=(0.0,), order=1)",
           "_BOUND = Statistic(_slope, order=1)",
           (DSL + "test_bound_statistic_matches_the_jet_loop_bit_for_bit",)),
    Mutant("bound ignores the lane flags", "probe.py",
           "            ((k_est, failed),) = eval_jet_lanes(f, n, [points], _BOUND)",
           "            ((k_est, _),), failed = eval_jet_lanes(f, n, [points], _BOUND), set()",
           (PROBE + "test_local_bound_streams_its_segment_into_one_batch",)),
    Mutant("a segment past the double range not refused", "probe.py",
           "            if not cmath.isfinite(z - z0):", "            if False:",
           (PROBE + "test_local_bound_segment_past_the_double_range",)),
    # blocks of grid points, one lane-function call per (n, block), each
    # point one group
    Mutant("best not reset between groups", "codegen.py",
           '        return ["for G in Z:", *_indent(reset), "    for zv in G:",',
           '        return [*reset[:-1], "for G in Z:", *_indent(reset[-1:]), "    for zv in G:",',
           (PROBE + "test_no_statistic_or_flag_leaks_between_the_groups_of_a_call",
            DSL + "test_each_group_gets_only_its_own_result")),
    Mutant("flags carried into the next group", "codegen.py",
           '        return ["for G in Z:", *_indent(reset), "    for zv in G:",',
           '        return [*reset[-1:], "for G in Z:", *_indent(reset[:-1]), "    for zv in G:",',
           (PROBE + "test_no_statistic_or_flag_leaks_between_the_groups_of_a_call",
            DSL + "test_each_group_gets_only_its_own_result")),
    Mutant("the last partial block dropped", "probe.py",
           "    for start in range(0, len(indices), _BLOCK):",
           "    for start in range(0, len(indices) - len(indices) % _BLOCK, _BLOCK):",
           (PROBE + "test_blocks_of_grid_points_match_one_call_per_point",
            PROBE + "test_a_call_covers_at_most_a_block_of_points")),
    Mutant("the rows transposed one point off", "probe.py",
           "        yield from zip(zs, zip(*per_n))",
           "        yield from zip(zs, [*zip(*per_n)][1:] + [*zip(*per_n)][:1])",
           (PROBE + "test_no_statistic_or_flag_leaks_between_the_groups_of_a_call",
            PROBE + "test_blocks_of_grid_points_match_one_call_per_point")),
    Mutant("sample points not checked", "probe.py",
           "            if not all(map(cmath.isfinite, points)):", "            if False:",
           (PROBE + "test_a_grid_point_with_a_sample_past_the_double_range_runs_no_batch",)),
    # the lane's one handler
    Mutant("a check's raise turned into pass", "codegen.py",
           '"    raise JetError(\'a check failed\')"', '"    pass"',
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",)),
    Mutant("a redone lane's flag dropped", "codegen.py",
           '"if type(got) is str:", "    flags |= {got}",', '"if type(got) is str:",',
           (DSL + "test_fused_statistics_match_the_reference_bit_for_bit",)),
    Mutant("a flag skips its continue", "codegen.py",
           '"    flags |= {got}", "    continue",', '"    flags |= {got}",',
           (DSL + "test_fused_statistics_match_the_reference_bit_for_bit",)),
    Mutant("a redone value not bound to the keep's names", "codegen.py",
           "f\"{', '.join(values)} = got\"", '"pass"',
           (DSL + "test_fused_statistics_match_the_reference_bit_for_bit",)),
    Mutant("a redone sample's outcome not bound to the handler's name", "codegen.py",
           'handler = ["got = redo(zv)"', 'handler = ["redo(zv)"',
           (DSL + "test_fused_statistics_match_the_reference_bit_for_bit",)),
    # the ball rules behind the identity error bound
    Mutant("a literal taken as exact, not within half an ulp", "ball.py",
           "    return Ball(c, _up(_U * _mag(c)))", "    return Ball(c)",
           (BALL + "test_a_literal_holds_the_number_written",
            ORACLE + "test_literal_half_ulp_is_covered_where_it_is_all_the_error")),
    Mutant("a chain step without its outer function's rounding (exp)", "ball.py",
           "_up(_mag(e) * (grown + LIBM_ERROR))", "_up(_mag(e) * grown)",
           (ORACLE + "test_bounded_operation_covers_its_own_rounding[exp]",)),
    Mutant("a product without its own rounding", "ball.py",
           " + _MUL * _mag(p)))", "))",
           (ORACLE + "test_bounded_operation_covers_its_own_rounding[mul]",)),
    Mutant("a product drops one propagation term", "ball.py",
           "_up(_mag(x) * ry + rx", "_up(rx",
           (BALL + "test_ball_holds_the_exact_operation_at_its_members[mul-0.001]",
            ORACLE + "test_bounded_operation_covers_errors_carried_in[mul]")),
    Mutant("a quotient drops its divisor's radius, which carries the Schwarzian "
           "formula's propagation", "ball.py",
           "(rx + ratio * ry) / gap", "rx / gap",
           (BALL + "test_ball_holds_the_exact_operation_at_its_members[div-0.001]",
            ORACLE + "test_bounded_operation_covers_errors_carried_in[div]")),
    Mutant("log's branch-cut rule dropped", "ball.py",
           "        if r < (low if x.real > 0.0 else min(low, abs(x.imag))):", "        if True:",
           (BALL + "test_log_radius_is_infinite_where_the_ball_meets_the_cut",
            JETS + "test_bounded_log_is_unbounded_where_the_value_may_cross_the_cut")),
    Mutant("log's derivatives kept finite where its ball meets the cut", "jets.py",
           "    _log_inverse: lambda b: 1.0 / b.off_cut(),", "    _log_inverse: lambda b: 1.0 / b,",
           (JETS + "test_bounded_log_is_unbounded_where_the_value_may_cross_the_cut",
            SCHWARZIAN + "test_composition_where_log_meets_its_cut_fails_by_an_infinite_bound")),
    Mutant("the determinant term dropped from a Moebius ball jet", "jets.py",
           "        j = (j[0], *(x * det for x in j[1:]))", "        pass",
           (ORACLE + "test_bounded_operation_covers_its_own_rounding[mobius, ad - bc = 2]",)),
    # the batch walk (2bde4db) and the one walk (cce385b), as they apply today
    Mutant("x^0 of a failed base is one", "dsl.py",
           "        args = (_walk(node.base, ops, leaves, point), node.exponent)",
           "        args = (_walk(node.base, ops, leaves, point) if node.exponent else None,"
           " node.exponent)",
           (DSL + "test_power_of_a_failing_base_still_fails[0]",)),
    Mutant("a failure loses its point", "dsl.py",
           "        raise EvalError(node.span, str(exc), point) from exc",
           "        raise EvalError(node.span, str(exc)) from exc",
           (DSL + "test_seeded_and_bounded_evaluation_match_the_references_bit_for_bit",)),
    Mutant("a failure loses its __cause__", "dsl.py",
           "        raise EvalError(node.span, str(exc), point) from exc",
           "        raise EvalError(node.span, str(exc), point) from None",
           (DSL + "test_seeded_and_bounded_evaluation_match_the_references_bit_for_bit",)),
    Mutant("the pool sized by workers, not by its payloads", "probe.py",
           "        w = min(workers, total)\n", "        w = workers\n",
           (PROBE + "test_pool_is_no_larger_than_its_chunks",)),
    Mutant("i taken as a literal, within half an ulp", "dsl.py",
           "_ball_jet(i), complex(point)", "_ball_jet(i, literal), complex(point)",
           (DSL + "test_seeded_and_bounded_evaluation_match_the_references_bit_for_bit",)),
    Mutant("literals taken as exact on balls", "dsl.py",
           "_ball_jet(jet_const(c, order), literal)", "_ball_jet(jet_const(c, order))",
           (DSL + "test_seeded_and_bounded_evaluation_match_the_references_bit_for_bit",)),
    Mutant("the probe's n check dropped", "probe.py",
           "        float(ns[0]), float(ns[-1])  # sorted, so these bound the rest",
           "        pass",
           (PROBE + "test_scan_rejects_bad_n_values",)),
    Mutant("jet_const lets an integer past the double range through", "jets.py",
           "    except OverflowError:  # an integer past the double range",
           "    except ZeroDivisionError:",
           (DSL + "test_n_past_the_double_range_is_a_value_error[1e400]",)),
    Mutant("a seeded failure labelled with the seed, not the point", "dsl.py",
           "seed[0] if point is None else point", "seed[0]",
           (DSL + "test_seeded_and_bounded_evaluation_match_the_references_bit_for_bit",)),
    Mutant("n's leaf bound to the seed", "dsl.py",
           "{Var: seed, Param: nj, ImagUnit: i}", "{Var: seed, Param: seed, ImagUnit: i}",
           (DSL + "test_seeded_and_bounded_evaluation_match_the_references_bit_for_bit",)),
    # the order rule: a jet of order k is its k + 1 parts, and a sample
    # fails only where a part of its jet, of the statistic's order, leaves
    # the double range, in the lane function, the redo walk and bound's
    # endpoints alike
    Mutant("bound's endpoints left at order 3", "probe.py",
           "eval_jet(f, n, w, order=_BOUND.order)", "eval_jet(f, n, w)",
           (CLI + "test_an_order_one_statistic_takes_samples_whose_higher_parts_overflow",)),
    Mutant("the floor sweep given order 1", "probe.py",
           "_FLOOR = Statistic(_floor, _floor_critical, start=(-math.inf, -1.0, -1.0, -1.0))",
           "_FLOOR = Statistic(_floor, _floor_critical, start=(-math.inf, -1.0, -1.0, -1.0), "
           "order=1)",
           (CLI + "test_an_order_one_statistic_takes_samples_whose_higher_parts_overflow",
            DSL + "test_fused_floor_sweep_matches_the_jet_loop_bit_for_bit")),
    Mutant("a jet operation skips its jet's last part", "jets.py",
           "    for x in j:\n        if not _isfinite(x):",
           "    for x in j[:-1]:\n        if not _isfinite(x):",
           (JETS + "test_an_operation_checks_only_the_parts_up_to_its_order[1]",
            DSL + "test_an_order_one_statistic_checks_only_f_and_f_prime")),
    Mutant("the walk takes a literal at order 3, not at its seed's order", "dsl.py",
           "        return ops[kind](node.value, len(leaves[Var]) - 1)",
           "        return ops[kind](node.value)",
           (JETS + "test_order_k_jets_of_the_catalog_match_mpmath",)),
    # hypotheses is not sound on dropped samples, and what only a pooled
    # scan reads is imported where it is used
    Mutant("sound rests on samples flagged Overflow", "probe.py",
           '    sound = "Overflow" not in flags and max_s <= bound * (1.0 + 1e-9)',
           "    sound = max_s <= bound * (1.0 + 1e-9)",
           (PROBE + "test_theorem_hypotheses_are_not_sound_on_dropped_samples",
            GOLDENS + "test_flag_heavy_grid_bytes[hypotheses-s-inf-csv]")),
    Mutant("pickle imported with the module", "probe.py",
           "import warnings\n", "import pickle\nimport warnings\n",
           (CLI + "test_importing_the_cli_imports_no_process_pool",
            CLI + "test_a_command_imports_the_batch_layers_only_if_it_runs_them")),
    # one batch contract: a redone sample's walk raises, and stops at its
    # first failed or critical point; the jets reach a test by the traced
    # halves of a statistic's formula
    Mutant("the redo walk flags every failure Pole", "codegen.py",
           '            return "Overflow" if isinstance(err.__cause__, OverflowAtPoint) else "Pole"',
           '            return "Pole"',
           (DSL + "test_lanes_match_one_lane_calls_and_the_reference_walk",
            DSL + "test_fused_statistics_match_the_reference_bit_for_bit")),
    Mutant("the redo walk skips the critical check", "codegen.py",
           "        if stat.critical is not None and _critical(head[1]):\n"
           "            return stat.critical(j)\n",
           "",
           (DSL + "test_fused_sd_statistic_on_each_rule",
            DSL + "test_fused_floor_sweep_on_each_rule")),
    Mutant("a traced imaginary half writes the real half", "jets.py",
           '        return self.op("{}.imag", self)', '        return self.op("{}.real", self)',
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",
            DSL + "test_n_times_z_makes_no_product_with_the_derivatives_of_n")),
    Mutant("hypotheses prints no floor flags", "probe.py",
           "    flags = frozenset().union(*floor.flags)", "    flags = frozenset()",
           (GOLDENS + "test_flag_heavy_grid_bytes[hypotheses-s-inf-json]",)),
    # the records: what ==, the hash and a pickle keep, and the parser's spans
    Mutant("a node's span compared in ==", "dsl.py",
           '    _compare = ("lhs", "rhs")', '    _compare = ("lhs", "rhs", "span")',
           (DSL + "test_node_equality_hash_and_repr_ignore_the_span",)),
    Mutant("a compared field left out of the hash", "record.py",
           "        return hash(self._key(self))", "        return hash(self._key(self)[:-1])",
           (DSL + "test_node_equality_hash_and_repr_ignore_the_span",)),
    Mutant("a mutable record", "record.py",
           '        raise AttributeError(f"cannot assign to field {name!r}")',
           "        _set(self, name, value)",
           (PROBE + "test_grids_and_reports_are_immutable_records",
            DSL + "test_a_family_is_unhashable_and_keeps_its_tree_and_source")),
    Mutant("a report's row fields reordered", "probe.py",
           '        "sd_bound", "max_abs_schwarzian", "sound", "flags",',
           '        "max_abs_schwarzian", "sd_bound", "sound", "flags",',
           (CLI + "test_rows_take_the_report_fields_in_order",)),
    Mutant("a parenthesized node keeps its inner span", "dsl.py",
           "            return type(inner)(*inner._key(inner), span=span)", "            return inner",
           (DSL + "test_parentheses_widen_the_span_of_the_node_they_hold",)),
    Mutant("unpickling builds the record anew", "record.py",
           "    def __getstate__(self):\n        return self._values(self)\n",
           "    def __reduce__(self):\n        return type(self), self._values(self)\n",
           (SCHWARZIAN + "test_mobius_pickles_its_stored_coefficients_bit_for_bit",
            PROBE + "test_an_unpickled_grid_is_neither_checked_nor_warned_about_again")),
    # jets of any order, S' from one order-4 jet per sample, and the ascent
    # that refines each (point, n)'s best sample
    Mutant("a Leibniz binomial coefficient of order 4 and above", "jets.py",
           "    return tuple((j, float(math.comb(k, j))) for j in range(k // 2 + 1))",
           "    return tuple((j, float(math.comb(k, j) + (k > 3 and j == 1)))"
           " for j in range(k // 2 + 1))",
           (JETS + "test_order_k_jets_of_the_catalog_match_mpmath",
            JETS + "test_order_k_jets_of_random_trees_match_mpmath")),
    Mutant("an order-4 Faa di Bruno coefficient", "jets.py",
           "            plan.append((m, float(math.factorial(k) // den), p))",
           "            plan.append((m, float(math.factorial(k) // den + (k == 4 and m == 2)), p))",
           (JETS + "test_order_k_jets_of_the_catalog_match_mpmath",)),
    Mutant("the 4 q2 q3 term of S'", "schwarzian.py",
           "    ds = q4 - 4.0 * (q2 * q3) + 3.0 * (q22 * q2)",
           "    ds = q4 - 3.0 * (q2 * q3) + 3.0 * (q22 * q2)",
           (JETS + "test_schwarzian_derivatives_of_example2_match_the_closed_form",
            DSL + "test_fused_statistics_match_the_reference_bit_for_bit")),
    Mutant("the ascent accepts a candidate whose F only ties", "codegen.py",
           'flat = [f"if step is not None and not {f} > best:",',
           'flat = [f"if step is not None and not {f} >= best:",',
           (PROBE + "test_the_ascent_steps_doubles_halves_and_stays_in_the_disk",)),
    Mutant("the disk projection dropped", "codegen.py",
           '"zv = zv if m <= radius else zc + off * (radius / m)"', '"zv = zv"',
           (PROBE + "test_the_ascent_steps_doubles_halves_and_stays_in_the_disk",
            PROBE + "test_sd_scan_example2_statistic_at_origin")),
    Mutant("a formula compiled from its first call, not once hot", "jets.py",
           "            if calls == _HOT:", "            if calls == 1:",
           (JETS + "test_a_formula_is_compiled_only_once_hot",)),
    Mutant("a traced subtraction compiled with its operands swapped", "jets.py",
           '        return self.op("{} - {}", self, other)',
           '        return self.op("{} - {}", other, self)',
           (JETS + "test_a_hot_formula_compiles_to_the_same_bits",)),
    Mutant("a compiled formula checks its value alone", "jets.py",
           '        finite = " and ".join(f"isfinite({x.name})" for x in out)',
           '        finite = " and ".join(f"isfinite({x.name})" for x in out[:1])',
           (JETS + "test_a_hot_formula_compiles_to_the_same_bits",)),
    Mutant("the argmax dropped from the keep", "codegen.py",
           '    fold[0] += [f"    {a} = zv" for a in argmax]', "    fold[0] += []",
           (DSL + "test_the_keep_reports_each_groups_argmax_sample",
            PROBE + "test_sd_origin_slope_is_near_one_on_the_bench_grid")),
    # the ascent in the lane function, the strided pool payloads, and the
    # verdict rules' tolerances
    Mutant("the step not halved on a rejected candidate", "codegen.py",
           '{f} > best:", "    step = step * 0.5", "    continue"]',
           '{f} > best:", "    pass", "    continue"]',
           (PROBE + "test_the_ascent_steps_doubles_halves_and_stays_in_the_disk",)),
    Mutant("the last round's F taken at the previous point", "codegen.py",
           '*_indent([*candidate, "if isfinite(zv):", *_indent([',
           '*_indent(["if isfinite(zv):", *_indent([',
           (PROBE + "test_the_ascent_steps_doubles_halves_and_stays_in_the_disk",
            PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits")),
    Mutant("the strided results put back in the wrong order", "probe.py",
           "        for k, part in enumerate(_forked(payloads)):",
           "        for k, part in enumerate(reversed(_forked(payloads))):",
           (PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits",
            PROBE + "test_a_pooled_scan_splits_its_points_evenly_and_generates_before_the_fork")),
    Mutant("the lane function generated in each pool worker", "probe.py",
           "        family(f, stat)\n", "",
           (PROBE + "test_a_pooled_scan_splits_its_points_evenly_and_generates_before_the_fork",)),
    Mutant("the slope's noise floor 1e-12 made 1e-9", "probe.py",
           "_NOISE_FLOOR = 1e-12", "_NOISE_FLOOR = 1e-9",
           (PROBE + "test_a_statistic_above_the_noise_floor_is_fitted",)),
    Mutant("bound's relative tolerance 1e-9 made 1e-6", "probe.py",
           "        passed = observed <= rhs * (1.0 + 1e-9) + 1e-12",
           "        passed = observed <= rhs * (1.0 + 1e-6) + 1e-12",
           (PROBE + "test_bound_fails_a_segment_just_past_its_tolerance",)),
    Mutant("sound's relative tolerance 1e-9 made 1e-6", "probe.py",
           "and max_s <= bound * (1.0 + 1e-9)", "and max_s <= bound * (1.0 + 1e-6)",
           (PROBE + "test_hypotheses_are_not_sound_just_past_their_tolerance",)),
    Mutant("log's jet of order 0 given a derivative of 1/x", "jets.py",
           "    out = [w] if count else []", "    out = [w]",
           (JETS + "test_log_and_exp_of_order_0_share_the_chain_once_it_is_hot",)),
    Mutant("the value check reads an order-3 jet", "probe.py",
           "eval_jet(f, n, zeta, order=0)[0]", "eval_jet(f, n, zeta).v",
           (CLI + "test_the_value_check_reads_f_alone",)),
    # the scan's processes forked beside the caller, which scans the first
    # share, and the ascent's start from the argmax's kept values
    Mutant("a child's exception dropped", "probe.py",
           "                raise value\n", "                continue\n",
           (PROBE + "test_a_childs_exception_reaches_the_caller",
            CLI + "test_a_failed_scan_process_keeps_the_exit_code_contract")),
    Mutant("a child not reaped", "probe.py",
           "            _, status = os.waitpid(child[0], 0)\n", "            status = 0\n",
           (PROBE + "test_pool_is_no_larger_than_its_chunks",
            PROBE + "test_a_pooled_scan_splits_its_points_evenly_and_generates_before_the_fork")),
    Mutant("a child that ended with no result not refused", "probe.py",
           "            if not data:\n", "            if False:\n",
           (CLI + "test_a_failed_scan_process_keeps_the_exit_code_contract",)),
    Mutant("the children left running where the caller fails", "probe.py",
           "                os.kill(pid, signal.SIGKILL)\n", "",
           (PROBE + "test_the_callers_failure_kills_and_reaps_its_children",)),
    Mutant("the caller's share put last", "probe.py",
           "    own, others = payloads[0], payloads[1:]",
           "    own, others = payloads[-1], payloads[:-1]",
           (PROBE + "test_a_pooled_scan_splits_its_points_evenly_and_generates_before_the_fork",
            PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits")),
    Mutant("the start taking names kept from a redone sample", "codegen.py",
           'redone = [*handler, *keep, "    kept = None", "continue"]',
           'redone = [*handler, *keep, f"    kept = ({\', \'.join(kept)},)", "continue"]',
           (PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits[redone-argmax]",
            PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits[all-redone]")),
    Mutant("the kept names not reset for a redone argmax, in its group or a later one",
           "codegen.py",
           'redone = [*handler, *keep, "    kept = None", "continue"]',
           'redone = [*handler, *keep, "continue"]',
           (PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits[redone-argmax]",
            PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits[all-redone]")),
    Mutant("the start binding the kept names in every round", "codegen.py",
           'point = ["if step is not None or kept is None:"', 'point = ["if kept is None:"',
           (PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits",)),
    Mutant("a name the rise reads left out of the kept ones", "codegen.py",
           '            if x in read]', '            if x in read][1:]',
           (PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits",)),
    # the one lane-function cache, and the identity verdict's bound clause
    Mutant("the cache's tree compared by identity only", "codegen.py",
           "        if expr.root != root or stat != last:",
           "        if expr.root is not root or stat != last:",
           (DSL + "test_a_family_is_generated_once_per_process",
            DSL + "test_the_lane_function_cache_keeps_the_last_family_and_statistic")),
    Mutant("the cache's statistic not compared", "codegen.py",
           "    if expr.root is not root or stat is not last:\n"
           "        if expr.root != root or stat != last:",
           "    if expr.root is not root:\n        if expr.root != root:",
           (DSL + "test_the_lane_function_cache_keeps_the_last_family_and_statistic",)),
    Mutant("the cache's entry not updated on an equality hit", "codegen.py",
           "            fn = _lanes_function(expr.root, stat)\n        _last = (expr.root, stat, fn, ",
           "            fn = _lanes_function(expr.root, stat)\n            _last = (expr.root, stat, fn, ",
           (DSL + "test_the_lane_function_cache_keeps_the_last_family_and_statistic",)),
    Mutant("the identity bound clause passes a gap within twice the bound", "schwarzian.py",
           "    passed = math.isfinite(bound) and abs_gap <= bound",
           "    passed = math.isfinite(bound) and abs_gap <= 2.0 * bound",
           (SCHWARZIAN + "test_a_gap_past_the_error_bound_but_within_twice_it_fails",)),
    # one jet type at every order: Mobius maps and ball walks of any order,
    # and the orders a seed may take; and the slope's log clamp
    Mutant("the Mobius formula's sign (-1)^(m-1) dropped", "jets.py",
           "            term = term if m % 2 else -term\n", "",
           (JETS + "test_the_mobius_formula_keeps_the_written_out_order_3_bits",
            JETS + "test_mobius_on_a_jet_of_each_order_matches_the_closed_form_chain")),
    Mutant("the Mobius formula's c placed in the last factor too", "jets.py",
           "s[p[-1] - 1]))", "c * s[p[-1] - 1]))",
           (JETS + "test_the_mobius_formula_keeps_the_written_out_order_3_bits",
            JETS + "test_mobius_on_a_jet_of_each_order_matches_the_closed_form_chain")),
    Mutant("a Moebius ball jet's determinant applied to three parts only", "jets.py",
           "for x in j[1:]))", "for x in j[1:4]))",
           (JETS + "test_a_ball_mobius_jet_of_each_order_holds_the_maps_derivatives[ad - bc = 2]",)),
    Mutant("eval_jet ignores its order at a ball", "dsl.py",
           "    seed = jet_var(z, order)", "    seed = jet_var(z, order if type(z) is not Ball else 3)",
           (JETS + "test_order_k_jets_of_the_catalog_match_mpmath",)),
    Mutant("an order past MAX_ORDER taken", "jets.py",
           "    if not 0 <= order <= MAX_ORDER:", "    if not 0 <= order:",
           (JETS + "test_an_order_outside_0_to_max_order_is_refused[6]",)),
    Mutant("a seed's order left unchecked", "dsl.py",
           "    if not 1 <= len(seed) <= MAX_ORDER + 1:", "    if False:",
           (JETS + "test_an_order_outside_0_to_max_order_is_refused",)),
    Mutant("the slope's log clamp taken for a zero statistic only", "probe.py",
           "    ys = [math.log(max(per_n[n], _LOG_CLAMP)) for n in usable]",
           "    ys = [math.log(per_n[n] or _LOG_CLAMP) for n in usable]",
           (PROBE + "test_a_statistic_below_the_log_clamp_is_fitted_at_the_clamp",)),
    # the kept names read from the generated lines
    Mutant("the bound names of a tuple target taken as its first alone", "codegen.py",
           '_TARGETS = re.compile(r"(\\w+(?:, \\w+)*) = ")',
           '_TARGETS = re.compile(r"(\\w+)(?:, \\w+)* = ")',
           (PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits[power]",)),
    # one formula tracer for the jets and codegen, and one table per level
    # of binary operators, which the parser and the printer read
    Mutant("a statistic's own formula reuses a line it wrote", "codegen.py",
           "            x.name = t.tails.get(text) if checked else None",
           "            x.name = t.tails.get(text)",
           (DSL + "test_n_times_z_makes_no_product_with_the_derivatives_of_n",)),
    Mutant("- parsed as +", "dsl.py",
           '_SUMS = {"+": Add, "-": Sub}', '_SUMS = {"+": Add, "-": Add}',
           (DSL + "test_precedence_and_associativity",)),
    Mutant("/ parsed as *", "dsl.py",
           '_PRODUCTS = {"*": Mul, "/": Div}', '_PRODUCTS = {"*": Mul, "/": Mul}',
           (DSL + "test_precedence_and_associativity",)),
    Mutant("a right operand printed at its own level, so z-(z-z) prints as z-z-z", "dsl.py",
           "{_pp(node.rhs, level + 1)}", "{_pp(node.rhs, level)}",
           (DSL + "test_pretty_print_keeps_needed_parens_only",
            DSL + "test_pretty_print_round_trip")),
    # no jet holds a part that is not finite, nor does a Mobius map
    Mutant("a seed with a part that is not finite taken", "dsl.py",
           "    if not all(map(cmath.isfinite, seed)):", "    if False:",
           (DSL + "test_a_seed_with_a_part_that_is_not_finite_is_refused",)),
    Mutant("a Mobius coefficient that is not finite taken", "schwarzian.py",
           "        if not all(map(cmath.isfinite, (a, b, c, d))):", "        if False:",
           (SCHWARZIAN + "test_mobius_coefficient_that_is_not_finite_is_refused",)),
    # the peel rule: S of F o g from g's jet, F's flags from F's walk
    Mutant("S_exp -1/2 made -1", "schwarzian.py", "_S_EXP = -0.5", "_S_EXP = -1.0",
           (SCHWARZIAN + "test_the_peel_rule_gives_the_closed_forms",)),
    Mutant("S_g dropped from an exp root's S", "schwarzian.py",
           "        s[0] = _plus(s[0], a * (g1 * g1))", "        s[0] = a * (g1 * g1)",
           (SCHWARZIAN + "test_the_peel_rule_matches_mpmath",)),
    Mutant("the g'g'' term of S' dropped", "schwarzian.py",
           "            s[1] = _plus(s[1], (2.0 * a) * (g1 * g2))", "            s[1] = s[1]",
           (SCHWARZIAN + "test_the_peel_rule_gives_the_closed_forms",)),
    Mutant("the g''^2 term of S'' dropped", "schwarzian.py",
           "(2.0 * a) * (g2 * g2 + g1 * j[3])", "(2.0 * a) * (g1 * j[3])",
           (SCHWARZIAN + "test_the_peel_rule_matches_mpmath",)),
    Mutant("log's S_F 1/(2w^2) made 1/w^2", "schwarzian.py", "_C_LOG = 1.0", "_C_LOG = 2.0",
           (SCHWARZIAN + "test_the_peel_rule_matches_mpmath",)),
    Mutant("a power's 1 - k^2 made 1 + k^2", "schwarzian.py",
           "1.0 - node.exponent**2", "1.0 + node.exponent**2",
           (SCHWARZIAN + "test_the_peel_rule_matches_mpmath",)),
    Mutant("the exp guard dropped on the peeled path, where F's walk is of order 1",
           "jets.py",
           "        self.refuse(uv, _exp_refused, _EXP_TEST, OverflowAtPoint,\n"
           '                    "exp argument outside the overflow guard")',
           "        if len(u) > 2:\n"
           "            self.refuse(uv, _exp_refused, _EXP_TEST, OverflowAtPoint,\n"
           '                        "exp argument outside the overflow guard")',
           (CLI + "test_bound_segment_failure_exits_3",
            DSL + "test_fused_statistics_match_the_reference_bit_for_bit")),
    Mutant("the lane function's critical test read on g' instead of f'", "codegen.py",
           "_CRITICAL_GUARD.format(*critical)", "_CRITICAL_GUARD.format(*parts)",
           (PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits",)),
    Mutant("the redo walk's critical test read on g' instead of f'", "codegen.py",
           "        if stat.critical is not None and _critical(head[1]):",
           "        if stat.critical is not None and _critical(j[1]):",
           (PROBE + "test_the_peel_keeps_the_pole_and_critical_point_flags",)),
    Mutant("the redo walk takes g before the operands free of z on its left", "codegen.py",
           "            for tree in left:\n                _walked(tree, n, jet_var(w, 0), w)\n", "",
           (PROBE + "test_the_peel_keeps_the_pole_and_critical_point_flags",
            DSL + "test_fused_statistics_match_the_reference_bit_for_bit")),
    # the peel rule's split held with the lane function
    Mutant("the redo walks' split kept from the entry of another tree", "codegen.py",
           "        _last = (expr.root, stat, fn, _split(expr.root, stat))",
           "        _last = (expr.root, stat, fn, split or _split(expr.root, stat))",
           (PROBE + "test_a_scan_peels_its_tree_once_for_its_redo_walks",)),
    Mutant("the split peeled again on every call", "codegen.py",
           "    redo = partial(_redo, split, n, stat)",
           "    redo = partial(_redo, _split(expr.root, stat), n, stat)",
           (PROBE + "test_a_scan_peels_its_tree_once_for_its_redo_walks",)),
    # one walk for every arithmetic, each refusal rule stated once in jets,
    # and bound's roundoff clause
    Mutant("the literal guard's predicate ignored for a jet whose value part is a known "
           "constant while a higher part is not", "jets.py",
           "        self.refuse(uv, _exp_refused, _EXP_TEST,",
           "        self.refuse(uv, lambda w: all(isinstance(x, (complex, Ball)) for x in u)\n"
           "                    and _exp_refused(w), _EXP_TEST,",
           (DSL + "test_the_literal_paths_match_the_walk_bit_for_bit",)),
    Mutant("the exp guard's predicate reads |u|, not |Re u|", "jets.py",
           "    return abs(w.real) > EXP_REAL_GUARD", "    return abs(w) > EXP_REAL_GUARD",
           (DSL + "test_generated_lane_function_on_each_rule",)),
    Mutant("n's check read from z", "codegen.py",
           "        ] if not _free_of(root, Param) else []", "        ] if not _free_of(root, Var) else []",
           (DSL + "test_the_lane_function_checks_n_exactly_where_the_tree_holds_n",)),
    Mutant("bound's roundoff clause dropped", "probe.py",
           "        if not passed:\n            # the roundoff clause",
           "        if False:\n            # the roundoff clause",
           (PROBE + "test_bound_passes_a_true_bound_that_roundoff_fails_by_the_fixed_rule",)),
    Mutant("bound's roundoff clause accepting an infinite radius", "probe.py",
           "            passed = math.isfinite(slack) and observed - rhs <= slack",
           "            passed = observed - rhs <= slack",
           (PROBE + "test_bound_fails_a_segment_across_logs_cut_by_both_rules",)),
    # one redo walk over the tree's split, the nan slope of a window of one
    # log n, the fit window's n > 0 and the one exit-3 rule
    Mutant("the identity split handed to a statistic that peels", "codegen.py",
           "    if stat.peel:\n        outer_tree, inner, outer, left = _peel(root)",
           "    if False:\n        outer_tree, inner, outer, left = _peel(root)",
           (PROBE + "test_a_scan_peels_its_tree_once_for_its_redo_walks",
            GOLDENS + "test_flag_heavy_grid_bytes[scan-sd-pole-csv-w1]")),
    Mutant("the peel split handed to a statistic that does not peel", "codegen.py",
           "    if stat.peel:\n        outer_tree, inner, outer, left = _peel(root)",
           "    if True:\n        outer_tree, inner, outer, left = _peel(root)",
           (DSL + "test_fused_statistics_match_the_reference_bit_for_bit",)),
    Mutant("the rise's redo walk on its own split, not its statistic's", "codegen.py",
           "    return fn(N, points, redo, partial(_redo, split, n, stat.ascent), radius)",
           "    return fn(N, points, redo, partial(_redo, _split(expr.root, stat.ascent), n,"
           " stat.ascent), radius)",
           (PROBE + "test_the_fused_ascent_keeps_the_python_ascents_bits",
            DSL + "test_fused_statistics_match_the_reference_bit_for_bit")),
    Mutant("the redo walk skips F's walk", "codegen.py",
           "            head = _walked(outer_tree, n, j[:2], w)",
           "            head = j[:2]",
           (PROBE + "test_the_peel_keeps_the_pole_and_critical_point_flags",)),
    Mutant("the redo walk's formula call drops the split's args", "codegen.py",
           "        return stat.lane(j, *args)", "        return stat.lane(j)",
           (PROBE + "test_the_peel_keeps_the_pole_and_critical_point_flags",
            DSL + "test_fused_statistics_match_the_reference_bit_for_bit")),
    Mutant("the nan slope of a window of one log n removed", "probe.py",
           "    if min(xs) == max(xs):", "    if False:",
           (CLI + "test_a_fit_window_of_equal_log_n_gives_a_nan_slope",)),
    Mutant("a fit window with n at or below 0 taken", "probe.py",
           "    if ns[len(ns) // 2] <= 0:", "    if False:",
           (PROBE + "test_a_scan_refuses_a_fit_window_with_n_at_or_below_0_before_any_lane",)),
    # the guarded node operations written once in jets, whose hooks
    # codegen's lane writer overrides
    Mutant("the ball log's 1/x taken on the ball before off_cut", "jets.py",
           "lambda b: 1.0 / b.off_cut()", "lambda b: (1.0 / b).off_cut()",
           (JETS + "test_bounded_log_is_enclosed_over_a_ball_just_clear_of_the_cut",)),
    Mutant("the exp operation handed the floor's source test", "jets.py",
           "        self.refuse(uv, _exp_refused, _EXP_TEST,",
           "        self.refuse(uv, _exp_refused, _FLOOR_TEST,",
           (DSL + "test_generated_lane_function_on_each_rule",)),
    Mutant("the plain class's inline lowered, so that the walk reaches power_call", "jets.py",
           "    inline = math.inf", "    inline = 8",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",)),
    Mutant("a negative power's reciprocal taken before its products", "jets.py",
           "        acc = u\n        for _ in range(abs(k) - 1):\n"
           "            acc = self.node(_PRODUCT, acc, u)\n"
           "        # a negative power: the reciprocal of the positive one\n"
           "        return acc if k > 0 else self.quotient(jet_const(1.0, len(u) - 1), acc)",
           "        acc = u = u if k > 0 else self.quotient(jet_const(1.0, len(u) - 1), u)\n"
           "        for _ in range(abs(k) - 1):\n"
           "            acc = self.node(_PRODUCT, acc, u)\n"
           "        return acc",
           (CLI + "test_golden_flag_bytes[scan-marty-power-and-log]",
            CLI + "test_golden_flag_bytes[hypotheses-power-and-log]")),
    # the Moebius peel: S_g = 0 for a Moebius g, walked two orders lower,
    # and a degenerate map walked as no Moebius map
    Mutant("the Moebius recogniser accepting a numerator that is not affine", "schwarzian.py",
           "    if type(node) is Div and _affine(node.lhs) and _affine(node.rhs):",
           "    if type(node) is Div and _affine(node.rhs):",
           (SCHWARZIAN + "test_the_moebius_recogniser_takes_quotients_of_affine_trees[z^2/(n*z+1)]",
            PROBE + "test_the_peel_keeps_the_pole_and_critical_point_flags")),
    Mutant("the Moebius recogniser accepting a denominator that is not affine", "schwarzian.py",
           "    if type(node) is Div and _affine(node.lhs) and _affine(node.rhs):",
           "    if type(node) is Div and _affine(node.lhs):",
           (SCHWARZIAN + "test_the_moebius_recogniser_takes_quotients_of_affine_trees[z/(z^2+1)]",)),
    Mutant("S_g dropped for a g that is not Moebius", "schwarzian.py",
           " if mobius else list(_schwarzian_derivatives(j))",
           " if mobius else [None] * (len(j) - 3)",
           (SCHWARZIAN + "test_the_peel_rule_matches_mpmath",)),
    Mutant("S_g taken from the jet of a Moebius g", "codegen.py",
           "(outer,) if mobius is None else (outer, True)", "(outer,) if mobius is None else (outer,)",
           (PROBE + "test_the_moebius_peel_walks_g_two_orders_lower",
            PROBE + "test_sd_statistic_matches_per_sample_jets")),
    Mutant("the lane function walks a Moebius g at the statistic's order", "codegen.py",
           "    lower = 0 if mobius is None else 2", "    lower = 0",
           (PROBE + "test_the_moebius_peel_walks_g_two_orders_lower",)),
    Mutant("the redo walk walks a Moebius g at the statistic's order", "codegen.py",
           "            order -= 2", "            order -= 0",
           (PROBE + "test_the_moebius_peel_walks_g_two_orders_lower",)),
    Mutant("the lane function's degenerate-map check removed", "codegen.py",
           "        if mobius is not None:\n            t.mobius(mobius)\n", "",
           (PROBE + "test_a_degenerate_moebius_map_is_walked_as_no_moebius_map",)),
    Mutant("the prelude's degenerate-map check not written", "codegen.py",
           "            self.check(False, _DEGENERATE_TEST.format(*map(self.text, (a, b, c, d))))",
           "            pass",
           (PROBE + "test_a_degenerate_moebius_map_is_walked_as_no_moebius_map",)),
    Mutant("the redo walk's degenerate-map check removed", "codegen.py",
           "        if _degenerate_at(mobius, n):", "        if False:",
           (PROBE + "test_a_degenerate_moebius_map_is_walked_as_no_moebius_map",)),
    Mutant("the degenerate test's scale dropped, so only ad - bc = 0 is degenerate",
           "schwarzian.py", "    return modulus(ad - bc) <= 1e-12 * max(1.0, modulus(ad) + modulus(bc))",
           "    return modulus(ad - bc) <= 0.0",
           (SCHWARZIAN + "test_the_degenerate_test_and_its_source_test_agree",)),
)

SURVIVORS = (
    Mutant("x * -1 folded as x", "codegen.py",
           "    if type(y) is float and y == 1.0:", "    if type(y) is float and abs(y) == 1.0:",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",),
           "a part's zero, finite and nonzero marks are the same for -x as for x, and the "
           "emitted line keeps its product, so no fold, and no result, depends on it"),
    Mutant("division as the reciprocal times a, not a times the reciprocal", "jets.py",
           "        return self.node(_PRODUCT, a, self.reciprocal(b))",
           "        return self.node(_PRODUCT, self.reciprocal(b), a)",
           (DSL + "test_generated_lane_function_matches_the_reference_bit_for_bit",
            DSL + "test_seeded_and_bounded_evaluation_match_the_references_bit_for_bit"),
           "the Leibniz product's sums are associated symmetrically, so swapping its "
           "operands gives the same bits; the reciprocal is computed, and checked, first "
           "either way"),
    Mutant("classify's bounded branch without sup_stat < cap", "probe.py",
           "        elif p.growth_slope <= decay_threshold and p.sup_stat < cap:",
           "        elif p.growth_slope <= decay_threshold:",
           (PROBE + "test_classify_decision_table", PROBE + "test_classify_custom_thresholds"),
           "the divergent branch before it already takes every sup at or above the cap, "
           "and a sup is never nan, so every sup that reaches this branch is below the cap"),
)

# recorded mutations whose code is gone, and the commit that deleted it
DELETED = (
    ("the identity-seed check of the lane loop",
     "7bcb6c2 gave the lane function points, not seed jets"),
    ("the batch kernels' lhs-first rule",
     "7560adb deleted the last lanes_* kernel; a redone lane's first failure follows the "
     "walk's rule, the table's 'the walk evaluates rhs before lhs'"),
    ("a failed lane keeps its traceback",
     "the redo walk's EvalError is caught where its flag is taken, and no failure is held "
     "as a value ('the redo walk flags every failure Pole')"),
    ("the lane function never generated for jets",
     "every batch takes a statistic; the lane function no longer returns jets"),
    ("a sample's last failed point decides, not its first",
     "a sample is one point since S' comes from its order-4 jet, not a five-point stencil"),
    ("the stencil's lanes in reverse order",
     "the S' stencil is deleted; S' comes from one order-4 jet per sample"),
    ("the order-1 output truncated to order 0, so f' goes unchecked",
     "a jet of order k is k + 1 parts, so the lane function's output is its root's jet, "
     "unsliced ('a jet operation skips its jet's last part' and 'jet_var seeds 4 parts at "
     "orders below 3')"),
    ("the redo walk checks all four parts for an order-1 statistic",
     "dsl._OPS_AT is deleted: the walk runs _JET_OPS at the seed's length, and an order-1 "
     "jet has no third or fourth part"),
    ("x^0 checks every part of its base",
     "codegen's unchecked() reads every part of a jet, which has only the statistic's"),
    ("pow_int checks every part in an order-1 lane function",
     "jet_pow_int takes no order; an order-1 lane function passes it two parts"),
    ("a jet operation checks the parts above its order",
     "_checked takes no order and checks every part ('a jet operation skips its jet's last "
     "part')"),
    ("the process pool imported with the module",
     "a scan forks its processes itself and imports no process pool; re-anchored as "
     "'pickle imported with the module'"),
    ("jet_var seeds 4 parts at orders below 3",
     "a jet of every order is one type, Jet, and jet_var builds k + 1 parts with no "
     "order-3 branch; 'an order past MAX_ORDER taken' pins the orders it takes"),
    ("jet_const builds 4 parts at orders below 3",
     "jet_const builds k + 1 parts with no order-3 branch ('the walk takes a literal at "
     "order 3, not at its seed's order')"),
    ("probe's segment error not caught once probe is imported",
     "cli's _batch_errors is deleted: the exit-3 clause catches ArithmeticError, which "
     "SegmentEvaluationError is; re-anchored as 'the exit-3 ArithmeticError clause narrowed "
     "to OverflowError'"),
)


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(into: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(into / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=into, env=env, capture_output=True, text=True)


def _stale(into: Path, m) -> str | None:
    # why a mutant's old text is stale, or None where it occurs exactly once
    count = (into / "src" / "schwarzian_lab" / m.file).read_text().count(m.old)
    return None if count == 1 else f"{m.name!r}: its old text occurs {count} times in {m.file}"


def _killed(into: Path, m) -> bool:
    path = into / "src" / "schwarzian_lab" / m.file
    text = path.read_text()
    path.write_text(text.replace(m.old, m.new))
    try:
        return _pytest(into, m.tests).returncode != 0
    finally:
        path.write_text(text)


def main() -> int:
    start = time.monotonic()
    jobs = min(os.cpu_count() or 1, 4)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        # one copy per concurrent mutant; a mutant takes a free copy, and
        # puts it back restored
        copies = [Path(tmp) / str(k) for k in range(jobs)]
        for copy in copies:
            _copy(copy)
        into = copies[0]
        stale = [why for m in (*MUTANTS, *SURVIVORS) if (why := _stale(into, m))]
        if stale:
            print(*(f"mutants: {why}" for why in stale), sep="\n", file=sys.stderr)
            print(f"mutants: {len(stale)} stale old texts; re-anchor each", file=sys.stderr)
            return 1
        tests = sorted({t for m in (*MUTANTS, *SURVIVORS) for t in m.tests})
        base = _pytest(into, tests)
        if base.returncode != 0:
            print(base.stdout[-3000:], base.stderr[-3000:], sep="\n")
            print("mutants: the unmutated copy fails its tests", file=sys.stderr)
            return 1
        print(f"unmutated copy passes {len(tests)} tests", flush=True)
        free = queue.SimpleQueue()
        for copy in copies:
            free.put(copy)

        def killed(m) -> bool:
            copy = free.get()
            try:
                return _killed(copy, m)
            finally:
                free.put(copy)

        lived = 0
        with ThreadPoolExecutor(jobs) as pool:
            # the verdicts in table order, each printed once it and those
            # before it are in; zip takes a mutant before its verdict, so
            # the survivors' loop starts at the first survivor's
            verdicts = pool.map(killed, (*MUTANTS, *SURVIVORS))
            for m, dead in zip(MUTANTS, verdicts):
                lived += not dead
                print(f"{'killed  ' if dead else 'SURVIVED'}  {m.name}", flush=True)
            for m, dead in zip(SURVIVORS, verdicts):
                verdict = "killed, so it can join the table" if dead else "survived"
                print(f"survivor  {m.name}: {verdict}; {m.reason}", flush=True)
    for name, reason in DELETED:
        print(f"deleted   {name}: {reason}")
    print(f"{len(MUTANTS) - lived} of {len(MUTANTS)} mutants killed, "
          f"{len(SURVIVORS)} listed survivors, in {time.monotonic() - start:.0f} s")
    return 1 if lived else 0


if __name__ == "__main__":
    sys.exit(main())
