"""Verification suites behind the command-line verbs.

Each suite builds a ``Report`` whose failure payloads carry the minimal
reproducing input, in the same JSON shapes the ``--replay`` flag accepts.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from importlib import resources

from .abgroups import FGAbGroup, GroupExpr, MapDescriptor, UnsupportedAtom
from .cyclic import (
    GradedModule,
    brute_hochschild,
    brute_hochschild_weights,
    cell_weight_homology_fg,
    thh_homology_square_zero,
    weight_homology_fg,
)
from .operads import (
    DomainError,
    OperadPoint,
    action_map,
    compose,
    compose_action_maps,
    eval_action,
    is_member,
    is_zero_map,
    nullhomotopy_point,
)
from .primes import irregular_indices
from .report import Report, RunConfig, TableBlock, UsageError
from .tc import (
    coassembly_conclusion,
    check_fr_commute,
    diff_table1,
    diff_table2,
    dual_tc_shift_sum_check,
    e_homology_with_descriptor,
    expected_table1,
    frobenius_general,
    frobenius_map,
    restriction_map,
    table1,
    table1_reference_degrees,
    table2,
    table2_wedge_check,
)


# ---------------------------------------------------------------------------
# random generators for the operad suite


def _random_ratio(rng: random.Random) -> tuple[int, int]:
    """A rational in [0, 3] with denominator 1..4, as a (numerator,
    denominator) pair."""
    return rng.randint(0, 12), rng.choice((1, 2, 3, 4))


def _random_point(rng: random.Random, min_arity=1, max_arity=4) -> OperadPoint:
    arity = rng.randint(min_arity, max_arity)
    return OperadPoint.from_pairs([_random_ratio(rng) for _ in range(arity - 1)])


def _random_a_point(rng: random.Random) -> OperadPoint:
    arity = rng.randint(1, 4)
    return OperadPoint.from_pairs([(0, 1)] * (arity - 1))


def _random_oprime_point(rng: random.Random, min_arity=1) -> OperadPoint:
    arity = rng.randint(min_arity, 4)
    pairs = [_random_ratio(rng) for _ in range(arity - 1)]
    return OperadPoint.from_pairs([(n + d, d) for n, d in pairs])  # 1 + n/d


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
            point = OperadPoint.from_pairs(
                [(rng.randint(0, 99), 100) for _ in range(arity - 1)])
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


def _hh_expected(fx: dict, name: str, w: int) -> dict[int, FGAbGroup]:
    return _parse_fixture(
        fx, ("expected_weight_homology", name, str(w)),
        lambda frozen: {int(t): FGAbGroup.from_orders(orders)
                        for t, orders in frozen.items()},
        "a map from degrees to lists of orders")


def _hh_degree_window(fx: dict) -> tuple[int, int]:
    def parse(window):
        lo, hi = (int(d) for d in window)
        return lo, hi
    return _parse_fixture(fx, ("degree_window",), parse, "a [lo, hi] pair")


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

    lo, hi = _hh_degree_window(fx)
    lo = max(lo, -config.max_degree)
    hi = min(hi, config.max_degree)
    max_weight = min(config.max_weight,
                     _parse_fixture(fx, ("max_weight",), int, "an integer"))

    for name in _lookup(fx, "modules", source="fixture file"):
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
    hh0, hh1 = (
        _parse_fixture(fx, ("dual_numbers", key),
                       lambda orders: GroupExpr.from_fg(FGAbGroup.from_orders(orders)),
                       "a list of orders")
        for key in ("HH0", "HH1"))
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
        d: _parse_fixture(fx, ("thh_dual_circle_shadow", str(d)),
                          lambda atoms: GroupExpr._make([tuple(a) for a in atoms]),
                          "a list of [kind, parameter, multiplicity] atoms")
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
    lo, hi = config.min_deg, config.max_deg
    ref_lo, ref_hi = table1_reference_degrees()
    if hi < ref_lo or lo > ref_hi:
        raise UsageError(f"degrees {lo}..{hi} miss the table1 reference, "
                         f"which covers degrees {ref_lo}..{ref_hi}")
    report = Report("tc table1", config)
    rows = table1(config.p, lo, hi)
    report.tables.append(_table1_block(config.p, rows, lo, hi))
    outside = (hi - lo) - (min(hi, ref_hi) - max(lo, ref_lo))
    if outside:
        uncompared = len(rows) * outside
        report.add_skip(f"{uncompared} cells outside the reference degrees "
                        f"{ref_lo}..{ref_hi}", {"cells": str(uncompared)})
    structured = {
        label: {str(d): row.at(d).to_json_obj() for d in range(lo, hi + 1)}
        for label, row in rows.items()}
    problems = diff_table1(config.p, rows, lo, hi)
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
        indices = irregular_indices(config.p)
        if config.assume_regular and indices:
            report.add_fail("regularity assumption rejected",
                            _regularity_payload(config.p, indices))
            return report
        regular = not indices
        report.add_pass(f"regularity of p = {config.p} decided: {regular}")
    verdict = coassembly_conclusion(i, config.p, regular)
    block = TableBlock(
        f"rational square in degree {verdict.degree}",
        ["corner", "value"],
        [[k, v] for k, v in sorted(verdict.square.items())],
    )
    if verdict.square:
        report.tables.append(block)
    if verdict.status == "open":
        corners = ("top_left", "top_right", "bottom_left", "bottom_right")
        report.add_fail(verdict.summary(),
                        {"check": "coassembly",
                         "inputs": {"i": str(i), "p": str(config.p)},
                         "square": {k: verdict.square[k] for k in corners}})
    else:
        # a hypothesis that fails is a result, not a failure
        report.add_pass(verdict.summary())
    return report


def _regularity_payload(p: int, indices: list[int]) -> dict:
    """The FAIL payload of an irregular p, with the indices k of the
    Bernoulli numerators B_k that p divides."""
    return {"check": "regularity", "inputs": {"p": str(p)},
            "irregular_indices": [str(k) for k in indices],
            "detail": f"p = {p} is irregular"}


# ---------------------------------------------------------------------------
# replay


def run_replay(config: RunConfig, payload_path: str, truncate: bool = True) -> Report:
    """Re-run one minimal failing input from a failure payload file.  A
    table-2 payload is re-run with out-of-window columns marked when
    ``truncate``, and as an error otherwise."""
    with open(payload_path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise UsageError("replay payload is not a JSON object")
    check = payload.get("check")
    report = Report(f"replay {check}", config)

    def need(key):
        return _lookup(payload, "inputs", key, source="replay payload")

    def need_int(key, as_text=False) -> int:
        """inputs.key as a JSON integer, not a boolean; with ``as_text``
        also as the decimal text that the tc payloads write."""
        value = need(key)
        if as_text and isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise UsageError(f"replay payload inputs.{key} holds {json.dumps(value)}, "
                         "which is not an integer")

    def parse_points(key, single=False, slots=None) -> list[OperadPoint]:
        """The points at inputs.key; ``slots`` is how many of them the
        composite needs, if it is fixed."""
        value = need(key)
        listed = [value] if single else value
        if not (isinstance(value, list) and all(isinstance(c, list) for c in listed)):
            raise UsageError(
                f"replay payload inputs.{key} is not made of coordinate lists")

        def coordinate(c) -> Fraction:
            # Fraction reads JSON true as 1 and raises on "1/0" or 1e400
            try:
                if not isinstance(c, bool):
                    return Fraction(c)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                pass
            raise UsageError(f"replay payload inputs.{key} holds {json.dumps(c)}, "
                             "which is not a rational coordinate")

        try:
            points = [OperadPoint(tuple(coordinate(c) for c in coords))
                      for coords in listed]
        except DomainError as exc:
            raise UsageError(f"replay payload inputs.{key}: {exc}") from exc
        if slots is not None and len(points) != slots:
            raise UsageError(f"replay payload inputs.{key} holds {len(points)} "
                             f"points for {slots} slots")
        return points

    if check == "associativity":
        a, = parse_points("outer", single=True)
        bs = parse_points("inners", slots=a.arity)
        cs = parse_points("deepest", slots=sum(b.arity for b in bs))
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
        bs = parse_points("inners", slots=a.arity)
        lhs = action_map(compose(a, bs))
        rhs = compose_action_maps(action_map(a), [action_map(b) for b in bs])
        (report.add_pass if lhs == rhs else report.add_fail)(
            "coalgebra replay", payload)
    elif check in ("zero-action", "zero-action-witness"):
        point, = parse_points("point", single=True)
        if point.arity < 2:
            raise UsageError("replay payload inputs.point has arity 1; the "
                             "zero-action check needs arity at least 2")
        verdict = is_zero_map(action_map(point))
        if verdict.is_zero:
            ok = eval_action(action_map(point), Fraction(1, 2)).is_basepoint
        else:
            ok = not eval_action(action_map(point), verdict.witness).is_basepoint
        (report.add_pass if ok else report.add_fail)("zero-action replay", payload)
    elif check == "hh-weight":
        name = need("module")
        w = need_int("weight")
        if not isinstance(name, str) or w < 1:
            raise UsageError("replay payload inputs needs a module name and "
                             "a weight of at least 1")
        fx = _load_hh_fixture(config.fixture_path)
        m = _hh_module(fx, name)
        lo, hi = _hh_degree_window(fx)
        oracle = brute_hochschild_weights(m, w, lo, hi)[w]
        route = _hh_disagreeing_route(m, w, lo, hi, oracle,
                                      _hh_expected(fx, name, w))
        if route is None:
            report.add_pass(f"hh replay [{name}, {w}]")
        else:
            report.add_fail(f"hh replay [{name}, {w}] {route} vs frozen", payload)
    elif check in ("table1", "table2"):
        # the payload's p wins over the command's
        config.p = need_int("p", as_text=True)
        if check == "table1":
            sub = run_tc_table1(config)
        else:
            config.truncate_out_of_range = truncate
            sub = run_tc_table2(config)
        report.checks.extend(sub.checks)
    elif check == "coassembly":
        # the payload's i and p; the regularity options come from the command
        i = need_int("i", as_text=True)
        config.p = need_int("p", as_text=True)
        report.checks.extend(run_coassembly(config, i).checks)
    elif check == "regularity":
        # re-decide the payload's p; p >= 10^5 is refused by irregular_indices
        config.p = need_int("p", as_text=True)
        config.validate(need_prime=True)
        indices = irregular_indices(config.p)
        if indices:
            report.add_fail(f"p = {config.p} is regular",
                            _regularity_payload(config.p, indices))
        else:
            report.add_pass(f"p = {config.p} is regular")
    else:
        raise UsageError(f"replay does not understand check {check!r}")
    return report
