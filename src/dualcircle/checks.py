"""Verification suites behind the command-line verbs, and the one registry
of their checks.

``CHECKS`` declares each kind of check once: a parser from the ``inputs`` of
a FAIL payload to keyword arguments, and a verdict function of those
arguments that returns the check's report line.  A FAIL payload holds every
input that decides its verdict, so ``--replay`` re-runs a check from its
payload alone; the suites call the same verdict functions on their inputs.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from importlib import resources
from itertools import islice
from math import gcd

from .abgroups import FGAbGroup, GroupExpr, MapDescriptor, UnsupportedAtom
from .cyclic import (GradedModule, brute_hochschild, brute_hochschild_weights,
                     cell_weight_homology_fg, thh_homology_square_zero, weight_homology_fg)
from .operads import (DomainError, OperadPoint, action_map, compose, compose_action_maps,
                      eval_action, is_member, is_zero_map, nullhomotopy_point)
from .primes import irregular_indices, is_prime
from .report import CheckResult, Report, RunConfig, TableBlock, UsageError
from .tc import (check_fr_commute, coassembly_conclusion, diff_table1, diff_table2,
                 dual_tc_shift_sum_check, e_homology_with_descriptor, expected_table1,
                 frobenius_general, frobenius_map, restriction_map, table1,
                 table1_reference_degrees, table2, table2_wedge_check)


def _verdict(name: str, holds: bool, failure, passed: dict | None = None) -> CheckResult:
    """The report line ``name``: PASS with payload ``passed``, or FAIL with
    the payload that the function ``failure`` builds only then."""
    return CheckResult(name, "pass", passed) if holds else CheckResult(name, "fail", failure())


def _lookup(obj, *path: str, source: str):
    """``obj[path[0]][path[1]]...``, or a usage error naming the first key
    that ``source`` lacks."""
    for depth, key in enumerate(path):
        if not isinstance(obj, dict) or key not in obj:
            raise UsageError(f"{source} lacks key {'.'.join(path[:depth + 1])}")
        obj = obj[key]
    return obj


# ---------------------------------------------------------------------------
# payload inputs: a bad one is a usage error that names its key


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise UsageError(message)


def _need(inputs: dict, key: str):
    _require(key in inputs, f"replay payload lacks key inputs.{key}")
    return inputs[key]


def _int_input(inputs: dict, key: str) -> int:
    """inputs.key as a JSON integer (not a boolean) or as decimal text."""
    value = _need(inputs, key)
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise UsageError(f"replay payload inputs.{key} holds {json.dumps(value)}, "
                     "which is not an integer")


def _prime(inputs: dict) -> int:
    p = _int_input(inputs, "p")
    _require(is_prime(p), f"p = {p} is not prime")
    return p


def _window(inputs: dict, default: tuple[int, int]) -> tuple[int, int]:
    """The degree window [inputs.lo, inputs.hi], or ``default`` if it names none."""
    if "lo" not in inputs and "hi" not in inputs:
        return default
    lo, hi = _int_input(inputs, "lo"), _int_input(inputs, "hi")
    _require(lo <= hi, f"replay payload inputs.lo..hi = {lo}..{hi} is empty")
    return lo, hi


def _rational(key: str, value) -> Fraction:
    # Fraction reads JSON true as 1 and raises on "1/0" or 1e400
    try:
        if not isinstance(value, bool):
            return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        pass
    raise UsageError(f"replay payload inputs.{key} holds {json.dumps(value)}, "
                     "which is not a rational coordinate")


def _points(inputs: dict, key: str, single=False, slots=None) -> list[OperadPoint]:
    """The points at inputs.key; ``slots`` is how many of them the
    composite needs, if it is fixed."""
    value = _need(inputs, key)
    listed = [value] if single else value
    _require(isinstance(value, list) and all(isinstance(c, list) for c in listed),
             f"replay payload inputs.{key} is not made of coordinate lists")
    try:
        points = [OperadPoint(tuple(_rational(key, c) for c in coords))
                  for coords in listed]
    except DomainError as exc:
        raise UsageError(f"replay payload inputs.{key}: {exc}") from exc
    _require(slots is None or len(points) == slots,
             f"replay payload inputs.{key} holds {len(points)} points for {slots} slots")
    return points


def _composite(inputs: dict, operad: str = "O", deepest: bool = False) -> dict:
    """inputs.outer, one point of inputs.inners per slot, all in ``operad``,
    and with ``deepest`` one point of inputs.deepest per slot of those."""
    args = {"outer": _points(inputs, "outer", single=True)[0]}
    args["inners"] = _points(inputs, "inners", slots=args["outer"].arity)
    for key, points in (("outer", [args["outer"]]), ("inners", args["inners"])):
        _require(all(is_member(operad, q) for q in points),
                 f"replay payload inputs.{key} is not in {operad}")
    if deepest:
        slots = sum(b.arity for b in args["inners"])
        args["deepest"] = _points(inputs, "deepest", slots=slots)
    return args


def _parse_zero_action(inputs: dict, with_s: bool) -> dict:
    point, = _points(inputs, "point", single=True)
    _require(point.arity >= 2, "replay payload inputs.point has arity 1; the "
             "zero-action check needs arity at least 2")
    if not with_s:
        return {"point": point}
    s = _rational("s", _need(inputs, "s"))
    _require(0 < s < 1, f"replay payload inputs.s is {s}, outside (0, 1)")
    return {"point": point, "s_values": [s]}


# ---------------------------------------------------------------------------
# operad checks and their suite


def _coords(*points) -> list:
    return [[str(t) for t in p.shifts] for p in points]


def _composite_inputs(outer, inners) -> dict:
    return {"outer": _coords(outer)[0], "inners": _coords(*inners)}


def associativity(outer, inners, deepest, comp=None) -> CheckResult:
    comp = comp or compose
    rest = iter(deepest)
    inner_composites = [comp(b, list(islice(rest, b.arity))) for b in inners]
    holds = comp(comp(outer, inners), deepest) == comp(outer, inner_composites)
    return _verdict("associativity replay", holds, lambda: {
        "check": "associativity",
        "inputs": {**_composite_inputs(outer, inners), "deepest": _coords(*deepest)}})


def unit(point, comp=None) -> CheckResult:
    comp, e = comp or compose, OperadPoint(())
    holds = comp(e, [point]) == point and comp(point, [e] * point.arity) == point
    return _verdict("unit replay", holds, lambda: {
        "check": "unit", "inputs": {"point": _coords(point)[0]}})


def closure_a(outer, inners, comp=None) -> CheckResult:
    return _verdict("closure-A replay", is_member("A", (comp or compose)(outer, inners)),
                    lambda: {"check": "closure-A",
                             "inputs": _composite_inputs(outer, inners)})


def closure_oprime(outer, inners, comp=None) -> CheckResult:
    return _verdict("closure-Oprime replay",
                    is_member("Oprime", (comp or compose)(outer, inners)),
                    lambda: {"check": "closure-Oprime",
                             "inputs": _composite_inputs(outer, inners)})


def coalgebra_compatibility(outer, inners, comp=None) -> CheckResult:
    holds = action_map((comp or compose)(outer, inners)) == compose_action_maps(
        action_map(outer), [action_map(i) for i in inners])
    return _verdict("coalgebra replay", holds, lambda: {
        "check": "coalgebra-compatibility", "inputs": _composite_inputs(outer, inners)})


def zero_action(point, s_values) -> CheckResult:
    """Whether the action of ``point`` is zero and sends each circle coordinate
    in ``s_values`` to the basepoint; the payload records the first that is not."""
    m = action_map(point)
    zero = is_zero_map(m).is_zero
    bad = next((s for s in s_values if not zero or not eval_action(m, s).is_basepoint),
               None)
    return _verdict("zero-action replay", bad is None, lambda: {
        "check": "zero-action", "inputs": {"point": _coords(point)[0], "s": str(bad)}})


def zero_action_witness(point) -> CheckResult:
    """Whether a nonzero action sends its witness to an interior point."""
    m = action_map(point)
    verdict = is_zero_map(m)
    holds = not verdict.is_zero and not eval_action(m, verdict.witness).is_basepoint
    return _verdict("zero-action replay", holds, lambda: {
        "check": "zero-action-witness", "inputs": {"point": _coords(point)[0]}})


def nullhomotopy_endpoints() -> CheckResult:
    start, end = nullhomotopy_point(0), nullhomotopy_point(1)
    diag = eval_action(action_map(start), Fraction(1, 3))
    holds = (is_member("A", start) and is_member("Oprime", end)
             and not diag.is_basepoint and len(set(diag.coords)) == 1
             and is_zero_map(action_map(end)).is_zero)
    return _verdict("nullhomotopy-endpoints", holds, lambda: {
        "check": "nullhomotopy-endpoints", "inputs": {}})


def _below(bits, n: int) -> int:
    """What ``random.Random.randrange(n)`` returns, drawn from ``bits``, the
    generator's ``getrandbits``: the same stream, kept fixed for every seed
    even if a later ``randint`` or ``choice`` draws differently."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_point(bits, min_arity=1, suboperad="O") -> OperadPoint:
    """A point of arity min_arity..4 whose shifts are rationals in [0, 3]
    with denominator 1..4: all 0 in A, and 1 more in Oprime.  ``bits`` is
    the generator's ``getrandbits``."""
    arity = min_arity + _below(bits, 5 - min_arity)
    if suboperad == "A":
        return OperadPoint._trusted((0,) * (arity - 1), 1)
    # every denominator d in 1..4 divides 12, so a shift n/d is n(12/d)
    # twelfths and 1 + n/d twelve more: nonnegative numerators by
    # construction.  Operands evaluate left to right, so n is drawn before
    # d, as the generator's randint and choice once drew them.
    one = 12 if suboperad == "Oprime" else 0
    nums = [one + _below(bits, 13) * (12, 6, 4, 3)[_below(bits, 4)]
            for _ in range(arity - 1)]
    g = gcd(12, *nums)
    return OperadPoint._trusted(tuple(n // g for n in nums), 12 // g)


def run_operad_check(config: RunConfig, compose_fn=None) -> Report:
    """Associativity, unit, suboperad closure, coalgebra compatibility,
    zero-action soundness, and the nullhomotopy endpoints, on seeded random
    rational points.  ``compose_fn`` may substitute a (deliberately broken)
    composition for negative-control runs."""
    config.validate()
    comp = compose_fn  # None: each verdict looks up compose when it runs
    bits = random.Random(config.seed).getrandbits
    report = Report("operad check", config)
    trials = config.trials

    # each section yields its verdicts lazily, so its draws stop at the
    # first failure
    def associative_and_unital():
        for _ in range(trials):
            a = _random_point(bits)
            bs = [_random_point(bits) for _ in range(a.arity)]
            cs = [_random_point(bits) for _ in range(sum(b.arity for b in bs))]
            yield associativity(a, bs, cs, comp)
            yield unit(a, comp)

    def closed():
        for _ in range(trials):
            a = _random_point(bits, suboperad="A")
            yield closure_a(a, [_random_point(bits, suboperad="A")
                                for _ in range(a.arity)], comp)
            o = _random_point(bits, suboperad="Oprime")
            yield closure_oprime(o, [_random_point(bits, suboperad="Oprime")
                                     for _ in range(o.arity)], comp)

    def compatible():
        for _ in range(trials):
            a = _random_point(bits)
            yield coalgebra_compatibility(
                a, [_random_point(bits) for _ in range(a.arity)], comp)

    def sound():
        for _ in range(200):
            o = _random_point(bits, min_arity=2, suboperad="Oprime")
            yield zero_action(o, [Fraction(1 + _below(bits, 99), 100) for _ in range(100)])
        for _ in range(200):
            arity = 2 + _below(bits, 3)
            yield zero_action_witness(OperadPoint.from_pairs(
                [(_below(bits, 100), 100) for _ in range(arity - 1)]))

    for kinds, verdicts, count in (
            (("associativity", "unit"), associative_and_unital(), trials),
            (("closure-A", "closure-Oprime"), closed(), trials),
            (("coalgebra-compatibility",), compatible(), trials),
            (("zero-action", "zero-action-witness"), sound(), 200)):
        failed = next((v for v in verdicts if v.status == "fail"), None)
        if failed:
            report.add_fail(failed.payload["check"], failed.payload)
        else:
            for kind in kinds:
                report.add_pass(kind, {"trials": count})
    report.checks.append(nullhomotopy_endpoints())
    return report


# ---------------------------------------------------------------------------
# Hochschild checks and their suite


def _parse_fixtures(inputs: dict) -> dict:
    """The fixture file that inputs.fixtures names (null or absent: the
    packaged one) and its contents."""
    path = inputs.get("fixtures")
    _require(path is None or isinstance(path, str), "replay payload inputs.fixtures "
             f"holds {json.dumps(path)}, which is not a file name or null")
    if path is None:
        return {"fixtures": None, "fx": json.loads(resources.files("dualcircle").joinpath(
            "fixtures/hh_fixtures.json").read_text())}
    try:
        with open(path) as fh:
            return {"fixtures": path, "fx": json.load(fh)}
    except OSError as exc:
        raise UsageError(f"cannot read fixture file: {exc}") from exc


def _parse_fixture(fx: dict, path: tuple[str, ...], parse, shape: str):
    """``parse`` applied to the fixture value at ``path``, or a usage error
    saying that the value is not ``shape``."""
    value = _lookup(fx, *path, source="fixture file")
    try:
        return parse(value)
    except (AttributeError, TypeError, ValueError, UnsupportedAtom) as exc:
        raise UsageError(f"fixture file {'.'.join(path)} is not {shape}") from exc


def _hh_module(fx: dict, name: str) -> GradedModule:
    return _parse_fixture(
        fx, ("modules", name),
        lambda gens: GradedModule(tuple((int(d), int(o)) for d, o in gens)),
        "a list of [degree, order] pairs")


def _hh_degree_window(fx: dict) -> tuple[int, int]:
    def parse(window):
        lo, hi = (int(d) for d in window)
        return lo, hi
    return _parse_fixture(fx, ("degree_window",), parse, "a [lo, hi] pair")


def _hh_max_weight(fx: dict) -> int:
    return _parse_fixture(fx, ("max_weight",), int, "an integer")


def hh_weight(fixtures, fx, name, m, w, lo, hi, oracle) -> CheckResult:
    """Whether the weight, oracle and cell routes of module ``name`` in weight
    w equal the frozen groups in [lo, hi]; the payload names the first that does not."""
    def window(groups):
        return {t: g for t, g in groups.items() if lo <= t <= hi}

    expected = window(_parse_fixture(
        fx, ("expected_weight_homology", name, str(w)),
        lambda frozen: {int(t): FGAbGroup.from_orders(orders)
                        for t, orders in frozen.items()},
        "a map from degrees to lists of orders"))
    routes = {"weight": weight_homology_fg(w, m), "oracle": oracle,
              "cell": cell_weight_homology_fg(w, m)}
    route = next((r for r, groups in routes.items() if window(groups) != expected), None)
    line = f"hh replay [{name}, {w}]" + ("" if route is None else f" {route} vs frozen")
    return _verdict(line, route is None, lambda: {
        "check": "hh-weight", "route": route, "inputs": {
            "module": name, "weight": w, "lo": lo, "hi": hi, "fixtures": fixtures}})


def _parse_hh_weight(inputs: dict) -> dict:
    name = _need(inputs, "module")
    w = _int_input(inputs, "weight")
    _require(isinstance(name, str) and w >= 1, "replay payload inputs needs a "
             "module name and a weight of at least 1")
    args = _parse_fixtures(inputs)
    cap = _hh_max_weight(args["fx"])
    _require(w <= cap, f"replay payload inputs.weight is {w}, above the fixture "
             f"file's max_weight {cap}")
    m = _hh_module(args["fx"], name)
    lo, hi = _window(inputs, _hh_degree_window(args["fx"]))
    return {**args, "name": name, "m": m, "w": w, "lo": lo, "hi": hi,
            "oracle": brute_hochschild_weights(m, w, lo, hi)[w]}


def hh_dual_numbers(fixtures, fx) -> CheckResult:
    """The full assembled homology of the dual numbers in low degrees."""
    dual = brute_hochschild(GradedModule.single(0, 0), 2)
    got = [dual.at(0), dual.at(1)]
    expected = [_parse_fixture(
        fx, ("dual_numbers", key),
        lambda orders: GroupExpr.from_fg(FGAbGroup.from_orders(orders)),
        "a list of orders") for key in ("HH0", "HH1")]
    return _verdict("dual-numbers HH0, HH1", got == expected, lambda: {
        "check": "hh-dual-numbers", "inputs": {"fixtures": fixtures},
        "got": [str(g) for g in got]})


def hh_truncation() -> CheckResult:
    """The dual-numbers oracle is stable under a deeper truncation."""
    dual = brute_hochschild(GradedModule.single(0, 0), 2)
    deeper = brute_hochschild(GradedModule.single(0, 0), 3)
    return _verdict("truncation-stability", all(dual.at(d) == deeper.at(d) for d in range(3)),
                    lambda: {"check": "hh-truncation", "inputs": {}})


def thh_shadow(fixtures, fx) -> CheckResult:
    shadow = thh_homology_square_zero(GradedModule.single(-1, 0), -1, 0)
    expected = {d: _parse_fixture(
        fx, ("thh_dual_circle_shadow", str(d)),
        lambda atoms: GroupExpr._make([tuple(a) for a in atoms]),
        "a list of [kind, parameter, multiplicity] atoms") for d in (-1, 0)}
    return _verdict("circle-dual-shadow", all(shadow.at(d) == expected[d] for d in (-1, 0)),
                    lambda: {"check": "thh-shadow", "inputs": {"fixtures": fixtures},
                             "got": {str(d): str(shadow.at(d)) for d in (-1, 0)}})


def run_hh_verify(config: RunConfig) -> Report:
    """Three-route equality (weight complex, brute-force oracle, cell model) on
    the fixture modules against the frozen expectations, plus the dual-numbers
    values, truncation stability, and the circle-dual shadow row."""
    config.validate()
    report = Report("hh verify", config)
    path = config.fixture_path
    fx = _parse_fixtures({"fixtures": path})["fx"]
    lo, hi = _hh_degree_window(fx)
    lo, hi = max(lo, -config.max_degree), min(hi, config.max_degree)
    max_weight = min(config.max_weight, _hh_max_weight(fx))
    for name in _lookup(fx, "modules", source="fixture file"):
        m = _hh_module(fx, name)
        brute = brute_hochschild_weights(m, max_weight, lo, hi)
        for w in range(1, max_weight + 1):
            line = hh_weight(path, fx, name, m, w, lo, hi, brute[w])
            if line.status == "pass":
                report.add_pass(f"three-route[{name},{w}]")
            else:
                report.add_fail(f"{line.payload['route']}[{name},{w}] vs frozen",
                                line.payload)
    report.checks += [hh_dual_numbers(path, fx), hh_truncation(), thh_shadow(path, fx)]
    return report


# ---------------------------------------------------------------------------
# tc checks and their suites: tables, F/R algebra, coassembly


def _table1_reference(lo: int, hi: int) -> tuple[int, int]:
    """The degrees of the table-1 reference; a usage error if [lo, hi] misses them."""
    ref_lo, ref_hi = table1_reference_degrees()
    _require(hi >= ref_lo and lo <= ref_hi, f"degrees {lo}..{hi} miss the table1 "
             f"reference, which covers degrees {ref_lo}..{ref_hi}")
    return ref_lo, ref_hi


def table1_vs_reference(p, lo, hi, rows) -> CheckResult:
    problems = diff_table1(p, rows, lo, hi)
    cells = {label: {str(d): row.at(d).to_json_obj() for d in range(lo, hi + 1)}
             for label, row in rows.items()}
    return _verdict("table1 vs reference", not problems, lambda: {
        "check": "table1", "inputs": {"p": str(p), "lo": str(lo), "hi": str(hi)},
        "mismatches": problems}, {"cells": cells})


def _parse_table1(inputs: dict) -> dict:
    p = _prime(inputs)
    lo, hi = _window(inputs, table1_reference_degrees())
    _table1_reference(lo, hi)
    return {"p": p, "lo": lo, "hi": hi, "rows": table1(p, lo, hi)}


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
    got = e_homology_with_descriptor(p, MapDescriptor.zero(), -2, 4).at(-1)
    expected = expected_table1(p)["E"][-1]
    return _verdict("zeroed transfer row detected", got != expected,
                    lambda: {"check": "negative-control", "inputs": {"p": str(p)}},
                    {"got": str(got), "expected": str(expected)})


def run_tc_table1(config: RunConfig) -> Report:
    config.validate(need_prime=True)
    lo, hi = config.min_deg, config.max_deg
    ref_lo, ref_hi = _table1_reference(lo, hi)
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
    report.checks.append(table1_vs_reference(config.p, lo, hi, rows))
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
    deleted = [r for r in restriction_map(p, n).routes if r.target is None]
    holds = len(deleted) == 1 and deleted[0].source == 0
    return _verdict("restriction deletes exactly one orbit summand", holds, lambda: {
        "check": "restriction-deletion", "inputs": {"p": str(p), "n": str(n)}})


def frobenius_routing(p, n) -> CheckResult:
    holds = frobenius_map(p, n) == frobenius_general(p, n, n - 1)
    return _verdict("Frobenius routing matches the fixed-point rule", holds, lambda: {
        "check": "frobenius-routing", "inputs": {"p": str(p), "n": str(n)}})


# the level n at most; the F/R checks take time about n^1.6
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


# ---------------------------------------------------------------------------
# the registry and replay


# kind -> (parse: payload inputs -> keyword arguments, verdict: those -> line)
CHECKS = {
    "associativity": (lambda x: _composite(x, deepest=True), associativity),
    "unit": (lambda x: {"point": _points(x, "point", single=True)[0]}, unit),
    "closure-A": (lambda x: _composite(x, "A"), closure_a),
    "closure-Oprime": (lambda x: _composite(x, "Oprime"), closure_oprime),
    "coalgebra-compatibility": (_composite, coalgebra_compatibility),
    "zero-action": (lambda x: _parse_zero_action(x, with_s=True), zero_action),
    "zero-action-witness": (lambda x: _parse_zero_action(x, with_s=False),
                            zero_action_witness),
    "nullhomotopy-endpoints": (lambda x: {}, nullhomotopy_endpoints),
    "hh-weight": (_parse_hh_weight, hh_weight),
    "hh-dual-numbers": (_parse_fixtures, hh_dual_numbers),
    "hh-truncation": (lambda x: {}, hh_truncation),
    "thh-shadow": (_parse_fixtures, thh_shadow),
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


def run_replay(config: RunConfig, payload_path: str) -> Report:
    """Re-run the check of a FAIL payload file on the payload's inputs
    alone: ``config`` sets only the output format, and the report echoes
    the default options apart from that format and the payload's prime."""
    with open(payload_path) as fh:
        payload = json.load(fh)
    _require(isinstance(payload, dict), "replay payload is not a JSON object")
    kind = payload.get("check")
    _require(isinstance(kind, str) and kind in CHECKS,
             f"replay does not understand check {kind!r}")
    inputs = _lookup(payload, "inputs", source="replay payload")
    _require(isinstance(inputs, dict), "replay payload inputs is not a JSON object")
    parse, verdict = CHECKS[kind]
    args = parse(inputs)
    # the verdict read no other option, so the report echoes none
    echoed = RunConfig(fmt=config.fmt)
    if "p" in inputs:
        echoed.p = _prime(inputs)
    return Report(f"replay {kind}", echoed, [verdict(**args)])
