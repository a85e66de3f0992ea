"""Verification suites behind the command-line verbs.

Each suite builds a ``Report`` whose failure payloads carry the minimal
reproducing input, in the same JSON shapes the ``--replay`` flag accepts.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from importlib import resources

from .abgroups import FGAbGroup, GroupExpr, MapDescriptor
from .cyclic import (
    GradedModule,
    brute_hochschild,
    brute_hochschild_weights,
    cell_weight_homology_fg,
    thh_homology_square_zero,
    weight_homology_fg,
)
from .operads import (
    OperadPoint,
    action_map,
    compose,
    compose_action_maps,
    eval_action,
    is_member,
    is_zero_map,
    nullhomotopy_point,
)
from .primes import is_regular_prime
from .report import Report, RunConfig, TableBlock, UsageError
from .tc import (
    coassembly_conclusion,
    check_fr_commute,
    diff_table1,
    diff_table2,
    e_homology_with_descriptor,
    expected_table1,
    frobenius_general,
    frobenius_map,
    restriction_map,
    table1,
    table2,
)


# ---------------------------------------------------------------------------
# random generators for the operad suite


def _random_rational(rng: random.Random, lo=0, hi=3) -> Fraction:
    return Fraction(rng.randint(lo * 4, hi * 4), rng.choice((1, 2, 3, 4)))


def _random_point(rng: random.Random, min_arity=1, max_arity=4) -> OperadPoint:
    arity = rng.randint(min_arity, max_arity)
    return OperadPoint(tuple(_random_rational(rng) for _ in range(arity - 1)))


def _random_a_point(rng: random.Random) -> OperadPoint:
    arity = rng.randint(1, 4)
    return OperadPoint((Fraction(0),) * (arity - 1))


def _random_oprime_point(rng: random.Random, min_arity=1) -> OperadPoint:
    arity = rng.randint(min_arity, 4)
    return OperadPoint(tuple(1 + _random_rational(rng) for _ in range(arity - 1)))


def _point_payload(*points) -> list:
    return [[str(t) for t in p.shifts] for p in points]


# ---------------------------------------------------------------------------
# operad axiom suite


def run_operad_check(config: RunConfig, compose_fn=None) -> Report:
    """Associativity, unit, suboperad closure, coalgebra compatibility,
    zero-action soundness, and the nullhomotopy endpoints, on seeded random
    rational points.  ``compose_fn`` may substitute a (deliberately broken)
    composition for negative-control runs."""
    config.validate()
    comp = compose_fn or compose
    rng = random.Random(config.seed)
    report = Report("operad check", config)
    trials = config.trials

    def composed_action(outer, inners):
        return compose_action_maps(action_map(outer), [action_map(i) for i in inners])

    # associativity and unit
    failure = None
    for _ in range(trials):
        a = _random_point(rng)
        bs = [_random_point(rng) for _ in range(a.arity)]
        cs = [_random_point(rng) for _ in range(sum(b.arity for b in bs))]
        left = comp(comp(a, bs), cs)
        pos = 0
        inner_composites = []
        for b in bs:
            inner_composites.append(comp(b, cs[pos:pos + b.arity]))
            pos += b.arity
        right = comp(a, inner_composites)
        if left != right:
            failure = {"check": "associativity",
                       "inputs": {"outer": _point_payload(a)[0],
                                  "inners": _point_payload(*bs),
                                  "deepest": _point_payload(*cs)}}
            break
        unit = OperadPoint(())
        if comp(unit, [a]) != a or comp(a, [unit] * a.arity) != a:
            failure = {"check": "unit", "inputs": {"point": _point_payload(a)[0]}}
            break
    if failure:
        report.add_fail(failure["check"], failure)
    else:
        report.add_pass("associativity", {"trials": trials})
        report.add_pass("unit", {"trials": trials})

    # suboperad closure
    failure = None
    for _ in range(trials):
        a = _random_a_point(rng)
        ins = [_random_a_point(rng) for _ in range(a.arity)]
        if not is_member("A", comp(a, ins)):
            failure = {"check": "closure-A",
                       "inputs": {"outer": _point_payload(a)[0],
                                  "inners": _point_payload(*ins)}}
            break
        o = _random_oprime_point(rng)
        outs = [_random_oprime_point(rng) for _ in range(o.arity)]
        if not is_member("Oprime", comp(o, outs)):
            failure = {"check": "closure-Oprime",
                       "inputs": {"outer": _point_payload(o)[0],
                                  "inners": _point_payload(*outs)}}
            break
    if failure:
        report.add_fail(failure["check"], failure)
    else:
        report.add_pass("closure-A", {"trials": trials})
        report.add_pass("closure-Oprime", {"trials": trials})

    # coalgebra compatibility
    failure = None
    for _ in range(trials):
        a = _random_point(rng)
        bs = [_random_point(rng) for _ in range(a.arity)]
        if action_map(comp(a, bs)) != composed_action(a, bs):
            failure = {"check": "coalgebra-compatibility",
                       "inputs": {"outer": _point_payload(a)[0],
                                  "inners": _point_payload(*bs)}}
            break
    if failure:
        report.add_fail(failure["check"], failure)
    else:
        report.add_pass("coalgebra-compatibility", {"trials": trials})

    # zero-action soundness
    failure = None
    for _ in range(200):
        o = _random_oprime_point(rng, min_arity=2)
        m = action_map(o)
        verdict = is_zero_map(m)
        if not verdict.is_zero:
            failure = {"check": "zero-action",
                       "inputs": {"point": _point_payload(o)[0]}}
            break
        ok = all(
            eval_action(m, Fraction(rng.randint(1, 99), 100)).is_basepoint
            for _ in range(100))
        if not ok:
            failure = {"check": "zero-action",
                       "inputs": {"point": _point_payload(o)[0]}}
            break
    else:
        for _ in range(200):
            arity = rng.randint(2, 4)
            point = OperadPoint(tuple(
                Fraction(rng.randint(0, 99), 100) for _ in range(arity - 1)))
            verdict = is_zero_map(action_map(point))
            if verdict.is_zero or eval_action(action_map(point), verdict.witness).is_basepoint:
                failure = {"check": "zero-action-witness",
                           "inputs": {"point": _point_payload(point)[0]}}
                break
    if failure:
        report.add_fail(failure["check"], failure)
    else:
        report.add_pass("zero-action", {"trials": 200})
        report.add_pass("zero-action-witness", {"trials": 200})

    # nullhomotopy endpoints
    start = nullhomotopy_point(0)
    end = nullhomotopy_point(1)
    s = Fraction(1, 3)
    diag = eval_action(action_map(start), s)
    endpoint_ok = (
        is_member("A", start)
        and is_member("Oprime", end)
        and not diag.is_basepoint
        and len(set(diag.coords)) == 1
        and is_zero_map(action_map(end)).is_zero
    )
    if endpoint_ok:
        report.add_pass("nullhomotopy-endpoints")
    else:
        report.add_fail("nullhomotopy-endpoints",
                        {"check": "nullhomotopy-endpoints", "inputs": {}})
    return report


# ---------------------------------------------------------------------------
# Hochschild oracle suite


def _lookup(obj, *path: str, source: str):
    """``obj[path[0]][path[1]]...``, or a usage error naming the first key
    that ``source`` lacks."""
    for depth, key in enumerate(path):
        if not isinstance(obj, dict) or key not in obj:
            raise UsageError(f"{source} lacks key {'.'.join(path[:depth + 1])}")
        obj = obj[key]
    return obj


def _load_hh_fixture(path: str | None) -> dict:
    if path is None:
        text = resources.files("dualcircle").joinpath(
            "fixtures/hh_fixtures.json").read_text()
        return json.loads(text)
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read fixture file: {exc}") from exc


def _group_from_orders(orders) -> FGAbGroup:
    return FGAbGroup.from_orders(orders)


def _hh_module(fx: dict, name: str) -> GradedModule:
    gens = _lookup(fx, "modules", name, source="fixture file")
    try:
        return GradedModule(tuple((int(d), int(o)) for d, o in gens))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"fixture file modules.{name} is not a list of "
                         "[degree, order] pairs") from exc


def _hh_expected(fx: dict, name: str, w: int) -> dict[int, FGAbGroup]:
    path = ("expected_weight_homology", name, str(w))
    frozen = _lookup(fx, *path, source="fixture file")
    try:
        return {int(t): _group_from_orders(orders) for t, orders in frozen.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"fixture file {'.'.join(path)} does not map degrees "
                         "to lists of orders") from exc


def _hh_disagreeing_route(m: GradedModule, w: int, lo: int, hi: int,
                          oracle: dict[int, FGAbGroup],
                          expected: dict[int, FGAbGroup]) -> str | None:
    """The first of the weight, oracle and cell routes whose weight-w
    homology in [lo, hi] differs from ``expected``, or None."""
    routes = {"weight": weight_homology_fg(w, m), "oracle": oracle,
              "cell": cell_weight_homology_fg(w, m)}
    for route, groups in routes.items():
        if {t: g for t, g in groups.items() if lo <= t <= hi} != expected:
            return route
    return None


def run_hh_verify(config: RunConfig) -> Report:
    """Three-route equality (weight complex, brute-force oracle, cell
    model) on the fixture modules, against the frozen expectations, plus
    the dual-numbers values, truncation stability, and the circle-dual
    shadow row."""
    config.validate()
    report = Report("hh verify", config)
    fx = _load_hh_fixture(config.fixture_path)

    def need(*path):
        return _lookup(fx, *path, source="fixture file")

    lo, hi = need("degree_window")
    lo = max(lo, -config.max_degree)
    hi = min(hi, config.max_degree)
    max_weight = min(config.max_weight, need("max_weight"))

    for name in need("modules"):
        m = _hh_module(fx, name)
        brute = brute_hochschild_weights(m, max_weight, lo, hi)
        for w in range(1, max_weight + 1):
            expected = {t: g for t, g in _hh_expected(fx, name, w).items()
                        if lo <= t <= hi}
            route = _hh_disagreeing_route(m, w, lo, hi, brute[w], expected)
            payload = {"check": "hh-weight", "inputs": {"module": name, "weight": w}}
            if route is None:
                report.add_pass(f"three-route[{name},{w}]")
            else:
                report.add_fail(f"{route}[{name},{w}] vs frozen", payload)

    # dual numbers: full assembled homology in low degrees
    dual = brute_hochschild(GradedModule.single(0, 0), 2)
    hh0 = GroupExpr.from_fg(_group_from_orders(need("dual_numbers", "HH0")))
    hh1 = GroupExpr.from_fg(_group_from_orders(need("dual_numbers", "HH1")))
    if dual.at(0) == hh0 and dual.at(1) == hh1:
        report.add_pass("dual-numbers HH0, HH1")
    else:
        report.add_fail("dual-numbers HH0, HH1",
                        {"check": "hh-dual-numbers", "inputs": {},
                         "got": [str(dual.at(0)), str(dual.at(1))]})

    # stability of the truncation bound
    deeper = brute_hochschild(GradedModule.single(0, 0), 3)
    if all(dual.at(d) == deeper.at(d) for d in range(0, 3)):
        report.add_pass("truncation-stability")
    else:
        report.add_fail("truncation-stability",
                        {"check": "hh-truncation", "inputs": {}})

    # the circle-dual shadow
    shadow = thh_homology_square_zero(GradedModule.single(-1, 0), -1, 0)
    expected_shadow = {
        d: GroupExpr._make([tuple(a) for a in need("thh_dual_circle_shadow", str(d))])
        for d in (-1, 0)}
    if all(shadow.at(d) == expected_shadow[d] for d in (-1, 0)):
        report.add_pass("circle-dual-shadow")
    else:
        report.add_fail("circle-dual-shadow",
                        {"check": "thh-shadow", "inputs": {},
                         "got": {str(d): str(shadow.at(d)) for d in (-1, 0)}})
    return report


# ---------------------------------------------------------------------------
# table suites


def _table1_block(p: int, rows, lo: int, hi: int) -> TableBlock:
    headers = ["spectrum"] + [f"H_{d}" for d in range(lo, hi + 1)]
    body = [[label] + [str(rows[label].at(d)) for d in range(lo, hi + 1)]
            for label in rows]
    return TableBlock(f"integral homology of the components (p = {p})", headers, body)


def _table2_block(t) -> TableBlock:
    headers = ["spectrum"] + [f"pi_{d}^Q" for d in t.degrees]
    body = []
    for label, row in t.rows.items():
        body.append([label] + [
            ("out-of-range" if row[d] is None else str(row[d])) for d in t.degrees])
    return TableBlock(f"rational homotopy of the p-completions (p = {t.p})",
                      headers, body)


def run_tc_table1(config: RunConfig) -> Report:
    config.validate(need_prime=True)
    report = Report("tc table1", config)
    rows = table1(config.p, config.min_deg, config.max_deg)
    report.tables.append(_table1_block(config.p, rows, config.min_deg, config.max_deg))
    structured = {
        label: {str(d): row.at(d).to_json_obj()
                for d in range(config.min_deg, config.max_deg + 1)}
        for label, row in rows.items()}
    problems = diff_table1(config.p, rows, config.min_deg, config.max_deg)
    if problems:
        report.add_fail("table1 vs reference",
                        {"check": "table1", "inputs": {"p": str(config.p)},
                         "mismatches": problems})
    else:
        report.add_pass("table1 vs reference", {"cells": structured})
    return report


def run_tc_table2(config: RunConfig) -> Report:
    config.validate(need_prime=True)
    report = Report("tc table2", config)
    t = table2(config.p, truncate_out_of_range=config.truncate_out_of_range)
    report.tables.append(_table2_block(t))
    skipped = [d for d in t.degrees if t.cell("E^_p", d) is None]
    if skipped:
        report.add_skip(
            f"columns {skipped[0]}..{skipped[-1]} beyond the homotopy window",
            {"cap": str(t.cap)})
    structured = {
        label: {str(d): ("out-of-range" if row[d] is None else row[d].to_json_obj())
                for d in t.degrees}
        for label, row in t.rows.items()}
    problems = diff_table2(t)
    if problems:
        report.add_fail("table2 vs reference",
                        {"check": "table2", "inputs": {"p": str(config.p)},
                         "mismatches": problems})
    else:
        report.add_pass("table2 vs reference", {"cells": structured})
    from .tc import dual_tc_shift_sum_check, table2_wedge_check
    if dual_tc_shift_sum_check(t):
        report.add_pass("smash row = shift-sum")
    else:
        report.add_fail("smash row = shift-sum",
                        {"check": "table2-shift-sum", "inputs": {"p": str(config.p)}})
    if table2_wedge_check(t):
        report.add_pass("dual-circle row = normalized wedge of components")
    else:
        report.add_fail("dual-circle row = normalized wedge of components",
                        {"check": "table2-wedge", "inputs": {"p": str(config.p)}})
    return report


def run_negative_controls(config: RunConfig) -> Report:
    """Guards against vacuous passes: a zeroed transfer row must move
    H_{-1}(E) away from the reference value and be reported."""
    config.validate(need_prime=True)
    report = Report("tc negative-controls", config)
    sabotaged = e_homology_with_descriptor(
        config.p, MapDescriptor.zero(), -2, 4)
    reference = expected_table1(config.p)["E"]
    if sabotaged.at(-1) != reference[-1]:
        report.add_pass("zeroed transfer row detected",
                        {"got": str(sabotaged.at(-1)),
                         "expected": str(reference[-1])})
    else:
        report.add_fail("zeroed transfer row detected",
                        {"check": "negative-control", "inputs": {"p": str(config.p)}})
    return report


def run_check_fr(config: RunConfig, n: int) -> Report:
    config.validate(need_prime=True)
    report = Report("tc check-fr", config)
    if n < 2:
        raise UsageError("check-fr needs n >= 2")
    if check_fr_commute(config.p, n):
        report.add_pass(f"F and R commute at level {n}")
    else:
        report.add_fail(f"F and R commute at level {n}",
                        {"check": "fr-commute",
                         "inputs": {"p": str(config.p), "n": str(n)}})
    rmap = restriction_map(config.p, n)
    deleted = [r for r in rmap.routes if r.target is None]
    if len(deleted) == 1 and deleted[0].source == 0:
        report.add_pass("restriction deletes exactly one orbit summand")
    else:
        report.add_fail("restriction deletes exactly one orbit summand",
                        {"check": "restriction-deletion",
                         "inputs": {"p": str(config.p), "n": str(n)}})
    staircase = frobenius_map(config.p, n)
    expected = frobenius_general(config.p, n, n - 1)
    if staircase == expected:
        report.add_pass("Frobenius routing matches the fixed-point rule")
    else:
        report.add_fail("Frobenius routing matches the fixed-point rule",
                        {"check": "frobenius-routing",
                         "inputs": {"p": str(config.p), "n": str(n)}})
    return report


def run_coassembly(config: RunConfig, i: int) -> Report:
    config.validate(need_prime=True)
    report = Report("tc coassembly", config)
    if i < 1:
        raise UsageError("i must be at least 1")
    regular = config.assume_regular
    if config.check_regularity:
        computed = is_regular_prime(config.p)
        if config.assume_regular and not computed:
            report.add_fail(
                "regularity assumption rejected",
                {"check": "regularity", "inputs": {"p": str(config.p)},
                 "detail": f"p = {config.p} is irregular"})
            return report
        regular = computed
        report.add_pass(f"regularity of p = {config.p} decided: {computed}")
    verdict = coassembly_conclusion(i, config.p, regular)
    block = TableBlock(
        f"rational square in degree {verdict.degree}",
        ["corner", "value"],
        [[k, v] for k, v in sorted(verdict.square.items())],
    )
    if verdict.square:
        report.tables.append(block)
    if verdict.status == "zero":
        report.add_pass(verdict.summary())
    else:
        # an inconclusive verdict is a result, not a failure
        report.add_pass(verdict.summary())
    return report


# ---------------------------------------------------------------------------
# replay


def run_replay(config: RunConfig, payload_path: str) -> Report:
    """Re-run one minimal failing input from a failure payload file."""
    with open(payload_path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise UsageError("replay payload is not a JSON object")
    check = payload.get("check")
    report = Report(f"replay {check}", config)

    def need(key):
        return _lookup(payload, "inputs", key, source="replay payload")

    def parse_points(key, single=False) -> list[OperadPoint]:
        value = need(key)
        try:
            return [OperadPoint(tuple(Fraction(c) for c in coords))
                    for coords in ([value] if single else value)]
        except TypeError as exc:
            raise UsageError(
                f"replay payload inputs.{key} is not made of coordinate lists") from exc

    if check == "associativity":
        a, = parse_points("outer", single=True)
        bs = parse_points("inners")
        cs = parse_points("deepest")
        left = compose(compose(a, bs), cs)
        pos = 0
        rights = []
        for b in bs:
            rights.append(compose(b, cs[pos:pos + b.arity]))
            pos += b.arity
        right = compose(a, rights)
        (report.add_pass if left == right else report.add_fail)(
            "associativity replay", payload)
    elif check == "coalgebra-compatibility":
        a, = parse_points("outer", single=True)
        bs = parse_points("inners")
        lhs = action_map(compose(a, bs))
        rhs = compose_action_maps(action_map(a), [action_map(b) for b in bs])
        (report.add_pass if lhs == rhs else report.add_fail)(
            "coalgebra replay", payload)
    elif check in ("zero-action", "zero-action-witness"):
        point, = parse_points("point", single=True)
        verdict = is_zero_map(action_map(point))
        if verdict.is_zero:
            ok = eval_action(action_map(point), Fraction(1, 2)).is_basepoint
        else:
            ok = not eval_action(action_map(point), verdict.witness).is_basepoint
        (report.add_pass if ok else report.add_fail)("zero-action replay", payload)
    elif check == "hh-weight":
        name = need("module")
        w = int(need("weight"))
        fx = _load_hh_fixture(config.fixture_path)
        m = _hh_module(fx, name)
        lo, hi = _lookup(fx, "degree_window", source="fixture file")
        oracle = brute_hochschild_weights(m, w, lo, hi)[w]
        route = _hh_disagreeing_route(m, w, lo, hi, oracle,
                                      _hh_expected(fx, name, w))
        if route is None:
            report.add_pass(f"hh replay [{name}, {w}]")
        else:
            report.add_fail(f"hh replay [{name}, {w}] {route} vs frozen", payload)
    elif check in ("table1", "table2"):
        sub = run_tc_table1(config) if check == "table1" else run_tc_table2(config)
        report.checks.extend(sub.checks)
    else:
        raise UsageError(f"replay does not understand check {check!r}")
    return report
