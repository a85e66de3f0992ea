"""The suites behind the ``tc`` verbs (tables, F/R algebra, negative
controls, coassembly), and their kinds of check (see ``checks``)."""

from __future__ import annotations

import json

from .checks import MAX_DEGREES, _int_input, _need, _prime, _require, _verdict, _window
from .primes import irregular_indices
from .report import CheckResult, Report, RunConfig, TableBlock
from .tc import (check_fr_commute, coassembly_conclusion, diff_table1, diff_table2,
                 dual_tc_shift_sum_check, e_homology_zero_row, expected_table1,
                 frobenius_general, frobenius_map, restriction_map, table1, table2,
                 table2_wedge_check)


def _reference_degrees(reference: dict) -> tuple[int, int]:
    """The degrees ref_lo..ref_hi that the table-1 ``reference`` covers."""
    degrees = next(iter(reference.values()))
    return min(degrees), max(degrees)


def _table1_window(lo: int, hi: int, reference: dict) -> tuple[int, int]:
    """The reference degrees; a usage error if [lo, hi] holds more than
    ``MAX_DEGREES`` degrees or misses them."""
    _require(hi - lo < MAX_DEGREES,
             f"table1 takes at most {MAX_DEGREES} degrees, got {lo}..{hi}")
    ref_lo, ref_hi = _reference_degrees(reference)
    _require(hi >= ref_lo and lo <= ref_hi, f"degrees {lo}..{hi} miss the table1 "
             f"reference, which covers degrees {ref_lo}..{ref_hi}")
    return ref_lo, ref_hi


def table1_vs_reference(p, rows, reference) -> CheckResult:
    problems = diff_table1(rows, reference)
    lo, hi = rows["S"].known_range  # the window of every row
    cells = {label: {str(d): row.at(d).to_json_obj() for d in range(lo, hi + 1)}
             for label, row in rows.items()}
    return _verdict("table1 vs reference", not problems, lambda: {
        "check": "table1", "inputs": {"p": str(p), "lo": str(lo), "hi": str(hi)},
        "mismatches": problems}, {"cells": cells})


def _parse_table1(inputs: dict) -> dict:
    p = _prime(inputs)
    reference = expected_table1(p)
    lo, hi = _window(inputs, _reference_degrees(reference))
    _table1_window(lo, hi, reference)
    return {"p": p, "rows": table1(p, lo, hi), "reference": reference}


def table2_vs_reference(t) -> CheckResult:
    problems = diff_table2(t)
    cells = {label: {str(d): ("out-of-range" if row[d] is None else row[d].to_json_obj())
                     for d in t.degrees}
             for label, row in t.rows.items()}
    return _verdict("table2 vs reference", not problems, lambda: {
        "check": "table2", "inputs": {"p": str(t.p)}, "mismatches": problems},
        {"cells": cells})


def table2_shift_sum(t) -> CheckResult:
    return _verdict("smash row = shift-sum", dual_tc_shift_sum_check(t), lambda: {
        "check": "table2-shift-sum", "inputs": {"p": str(t.p)}})


def table2_wedge(t) -> CheckResult:
    return _verdict("dual-circle row = normalized wedge of components", table2_wedge_check(t),
                    lambda: {"check": "table2-wedge", "inputs": {"p": str(t.p)}})


def _parse_table2(inputs: dict) -> dict:
    # every table-2 check skips marked cells, so marking the columns beyond
    # the homotopy window never changes a verdict
    return {"t": table2(_prime(inputs), truncate_out_of_range=True)}


def negative_control(p) -> CheckResult:
    """A zeroed transfer row must move H_{-1}(E) away from the reference."""
    got = e_homology_zero_row(p, -2, 4).at(-1)
    expected = expected_table1(p)["E"][-1]
    return _verdict("zeroed transfer row detected", got != expected,
                    lambda: {"check": "negative-control", "inputs": {"p": str(p)}},
                    {"got": str(got), "expected": str(expected)})


def run_tc_table1(config: RunConfig) -> Report:
    config.validate(need_prime=True)
    lo, hi = config.min_deg, config.max_deg
    reference = expected_table1(config.p)
    ref_lo, ref_hi = _table1_window(lo, hi, reference)
    report = Report("tc table1", config)
    rows = table1(config.p, lo, hi)
    report.tables.append(TableBlock(
        f"integral homology of the components (p = {config.p})",
        ["spectrum"] + [f"H_{d}" for d in range(lo, hi + 1)],
        [[label] + [str(row.at(d)) for d in range(lo, hi + 1)]
         for label, row in rows.items()]))
    uncompared = len(rows) * ((hi - lo) - (min(hi, ref_hi) - max(lo, ref_lo)))
    if uncompared:
        report.add_skip(f"{uncompared} cells outside the reference degrees "
                        f"{ref_lo}..{ref_hi}", {"cells": str(uncompared)})
    report.checks.append(table1_vs_reference(config.p, rows, reference))
    return report


def run_tc_table2(config: RunConfig) -> Report:
    config.validate(need_prime=True)
    report = Report("tc table2", config)
    t = table2(config.p, truncate_out_of_range=config.truncate_out_of_range)
    report.tables.append(TableBlock(
        f"rational homotopy of the p-completions (p = {t.p})",
        ["spectrum"] + [f"pi_{d}^Q" for d in t.degrees],
        [[label] + [("out-of-range" if row[d] is None else str(row[d]))
                    for d in t.degrees] for label, row in t.rows.items()]))
    skipped = [d for d in t.degrees if t.cell("E^_p", d) is None]
    if skipped:
        report.add_skip(
            f"columns {skipped[0]}..{skipped[-1]} beyond the homotopy window",
            {"cap": str(t.cap)})
    report.checks += [table2_vs_reference(t), table2_shift_sum(t), table2_wedge(t)]
    return report


def run_negative_controls(config: RunConfig) -> Report:
    config.validate(need_prime=True)
    return Report("tc negative-controls", config, [negative_control(config.p)])


def fr_commute(p, n) -> CheckResult:
    return _verdict(f"F and R commute at level {n}", check_fr_commute(p, n), lambda: {
        "check": "fr-commute", "inputs": {"p": str(p), "n": str(n)}})


def restriction_deletion(p, n) -> CheckResult:
    routes = restriction_map(p, n).routes
    holds = [k for k, r in enumerate(routes) if r.target is None] == [0]
    return _verdict("restriction deletes exactly one orbit summand", holds, lambda: {
        "check": "restriction-deletion", "inputs": {"p": str(p), "n": str(n)}})


def frobenius_routing(p, n) -> CheckResult:
    holds = frobenius_map(p, n) == frobenius_general(p, n, n - 1)
    return _verdict("Frobenius routing matches the fixed-point rule", holds, lambda: {
        "check": "frobenius-routing", "inputs": {"p": str(p), "n": str(n)}})


# the level n at most; the F/R checks take time roughly proportional to n
MAX_LEVEL = 2048


def _level(n: int) -> int:
    _require(n >= 2, "check-fr needs n >= 2")
    _require(n <= MAX_LEVEL, f"check-fr needs n <= {MAX_LEVEL}, got {n}")
    return n


def _parse_level(inputs: dict) -> dict:
    return {"p": _prime(inputs), "n": _level(_int_input(inputs, "n"))}


def run_check_fr(config: RunConfig, n: int) -> Report:
    config.validate(need_prime=True)
    _level(n)
    p = config.p
    return Report("tc check-fr", config,
                  [fr_commute(p, n), restriction_deletion(p, n), frobenius_routing(p, n)])


def coassembly(i, p, regular, conclusion) -> CheckResult:
    """``conclusion`` of i, p and ``regular`` as a line; a failed hypothesis
    is a result, so only a square that does not close fails."""
    corners = ("top_left", "top_right", "bottom_left", "bottom_right")
    return _verdict(conclusion.summary(), conclusion.status != "open", lambda: {
        "check": "coassembly", "inputs": {"i": str(i), "p": str(p), "regular": regular},
        "square": {k: conclusion.square[k] for k in corners}})


def _parse_coassembly(inputs: dict) -> dict:
    i, p = _int_input(inputs, "i"), _prime(inputs)
    _require(i >= 1, "i must be at least 1")
    regular = _need(inputs, "regular")
    _require(isinstance(regular, bool), f"replay payload inputs.regular holds "
             f"{json.dumps(regular)}, which is not a boolean")
    return {"i": i, "p": p, "regular": regular,
            "conclusion": coassembly_conclusion(i, p, regular)}


def regularity(p) -> CheckResult:
    """Whether p is regular; the payload lists the k with p | numerator(B_k)."""
    indices = irregular_indices(p)
    return _verdict(f"p = {p} is regular", not indices, lambda: {
        "check": "regularity", "inputs": {"p": str(p)},
        "irregular_indices": [str(k) for k in indices],
        "detail": f"p = {p} is irregular"})


def run_coassembly(config: RunConfig, i: int) -> Report:
    config.validate(need_prime=True)
    report = Report("tc coassembly", config)
    _require(i >= 1, "i must be at least 1")
    regular = config.assume_regular
    if config.check_regularity:
        decided = regularity(config.p)
        if config.assume_regular and decided.status == "fail":
            report.add_fail("regularity assumption rejected", decided.payload)
            return report
        regular = decided.status == "pass"
        report.add_pass(f"regularity of p = {config.p} decided: {regular}")
    conclusion = coassembly_conclusion(i, config.p, regular)
    if conclusion.square:
        report.tables.append(TableBlock(
            f"rational square in degree {conclusion.degree}", ["corner", "value"],
            [[k, v] for k, v in sorted(conclusion.square.items())]))
    report.checks.append(coassembly(i, config.p, regular, conclusion))
    return report


# kind -> (parse: payload inputs -> keyword arguments, verdict: those -> line)
KINDS = {
    "table1": (_parse_table1, table1_vs_reference),
    "table2": (_parse_table2, table2_vs_reference),
    "table2-shift-sum": (_parse_table2, table2_shift_sum),
    "table2-wedge": (_parse_table2, table2_wedge),
    "negative-control": (lambda x: {"p": _prime(x)}, negative_control),
    "fr-commute": (_parse_level, fr_commute),
    "restriction-deletion": (_parse_level, restriction_deletion),
    "frobenius-routing": (_parse_level, frobenius_routing),
    "coassembly": (_parse_coassembly, coassembly),
    "regularity": (lambda x: {"p": _prime(x)}, regularity),
}
