"""The operad axiom suite behind ``operad check``, and its kinds of check
(see ``checks``)."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import islice
from math import gcd

from .checks import _need, _require, _verdict
from .operads import (DomainError, OperadPoint, action_map, compose, compose_action_maps,
                      eval_action, is_member, is_zero_map, nullhomotopy_point)
from .report import CheckResult, Report, RunConfig, UsageError


# ---------------------------------------------------------------------------
# payload inputs


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
# the checks and their suite


def _coords(*points) -> list:
    return [[str(t) for t in p.shifts] for p in points]


def _composite_inputs(outer, inners) -> dict:
    return {"outer": _coords(outer)[0], "inners": _coords(*inners)}


def associativity(outer, inners, deepest) -> CheckResult:
    rest = iter(deepest)
    inner_composites = [compose(b, list(islice(rest, b.arity))) for b in inners]
    holds = compose(compose(outer, inners), deepest) == compose(outer, inner_composites)
    return _verdict("associativity replay", holds, lambda: {
        "check": "associativity",
        "inputs": {**_composite_inputs(outer, inners), "deepest": _coords(*deepest)}})


# the arity-1 point, frozen and so shared by every unit check
_UNIT = OperadPoint(())


def unit(point) -> CheckResult:
    holds = compose(_UNIT, [point]) == point and compose(point, [_UNIT] * point.arity) == point
    return _verdict("unit replay", holds, lambda: {
        "check": "unit", "inputs": {"point": _coords(point)[0]}})


def closure_a(outer, inners) -> CheckResult:
    return _verdict("closure-A replay", is_member("A", compose(outer, inners)),
                    lambda: {"check": "closure-A",
                             "inputs": _composite_inputs(outer, inners)})


def closure_oprime(outer, inners) -> CheckResult:
    return _verdict("closure-Oprime replay", is_member("Oprime", compose(outer, inners)),
                    lambda: {"check": "closure-Oprime",
                             "inputs": _composite_inputs(outer, inners)})


def coalgebra_compatibility(outer, inners) -> CheckResult:
    holds = action_map(compose(outer, inners)) == compose_action_maps(
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
    generator's ``getrandbits``: k = n.bit_length() bits, redrawn while
    they read n or more.  It keeps the stream fixed for every seed even if a
    later ``randint`` or ``choice`` draws differently.  The hot loops,
    ``_random_point`` and the s-values of ``sound``, run this loop inline."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


# _TWELFTHS[i][n]: the shift n/d as twelfths, for d = (1, 2, 3, 4)[i] and
# n in 0..12.  Every d divides 12, so a shift n/d is n(12/d) twelfths.
_TWELFTHS = tuple(tuple(n * (12 // d) for n in range(13)) for d in (1, 2, 3, 4))

# the strict-diagonal point of each arity 1..4, at index arity - 1
_STRICT = tuple(OperadPoint._trusted((0,) * a, 1) for a in range(4))


def _random_point(bits, min_arity=1, suboperad="O") -> OperadPoint:
    """A point of arity min_arity..4 whose shifts are rationals in [0, 3]
    with denominator 1..4: all 0 in A, and 1 more in Oprime.  ``bits`` is
    the generator's ``getrandbits``; each draw is ``_below``'s, inline."""
    span = 5 - min_arity
    k = span.bit_length()
    r = bits(k)
    while r >= span:
        r = bits(k)
    arity = min_arity + r
    if suboperad == "A":
        return _STRICT[arity - 1]
    # 1 + n/d is twelve twelfths more: nonnegative numerators by
    # construction.  n is drawn before d, as the generator's randint and
    # choice once drew them.
    one = 12 if suboperad == "Oprime" else 0
    nums = []
    for _ in range(arity - 1):
        n = bits(4)  # _below(bits, 13)
        while n >= 13:
            n = bits(4)
        d = bits(3)  # _below(bits, 4)
        while d >= 4:
            d = bits(3)
        nums.append(one + _TWELFTHS[d][n])
    g = gcd(12, *nums)
    if g > 1:
        nums = [n // g for n in nums]
    return OperadPoint._trusted(tuple(nums), 12 // g)


# the circle coordinates k/100, k = 1..99, that the soundness section draws
_S_VALUES = tuple(Fraction(k, 100) for k in range(1, 100))


def run_operad_check(config: RunConfig) -> Report:
    """Associativity, unit, suboperad closure, coalgebra compatibility,
    zero-action soundness, and the nullhomotopy endpoints, on seeded random
    rational points."""
    config.validate()
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
            yield associativity(a, bs, cs)
            yield unit(a)

    def closed():
        for _ in range(trials):
            a = _random_point(bits, suboperad="A")
            yield closure_a(a, [_random_point(bits, suboperad="A")
                                for _ in range(a.arity)])
            o = _random_point(bits, suboperad="Oprime")
            yield closure_oprime(o, [_random_point(bits, suboperad="Oprime")
                                     for _ in range(o.arity)])

    def compatible():
        for _ in range(trials):
            a = _random_point(bits)
            yield coalgebra_compatibility(
                a, [_random_point(bits) for _ in range(a.arity)])

    def sound():
        for _ in range(200):
            o = _random_point(bits, min_arity=2, suboperad="Oprime")
            s_values = []
            for _ in range(100):
                k = bits(7)  # _below(bits, 99)
                while k >= 99:
                    k = bits(7)
                s_values.append(_S_VALUES[k])
            yield zero_action(o, s_values)
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


# kind -> (parse: payload inputs -> keyword arguments, verdict: those -> line)
KINDS = {
    "associativity": (lambda x: _composite(x, deepest=True), associativity),
    "unit": (lambda x: {"point": _points(x, "point", single=True)[0]}, unit),
    "closure-A": (lambda x: _composite(x, "A"), closure_a),
    "closure-Oprime": (lambda x: _composite(x, "Oprime"), closure_oprime),
    "coalgebra-compatibility": (_composite, coalgebra_compatibility),
    "zero-action": (lambda x: _parse_zero_action(x, with_s=True), zero_action),
    "zero-action-witness": (lambda x: _parse_zero_action(x, with_s=False),
                            zero_action_witness),
    "nullhomotopy-endpoints": (lambda x: {}, nullhomotopy_endpoints),
}
