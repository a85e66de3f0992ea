"""The Hochschild suite behind ``hh verify``, and its kinds of check (see
``checks``)."""

from __future__ import annotations

import json
from importlib import resources

from .abgroups import FGAbGroup, GroupExpr, UnsupportedAtom
from .checks import MAX_DEGREES, _int_input, _lookup, _need, _require, _verdict, _window
from .cyclic import (GradedModule, NormalizedHochschild, brute_hochschild,
                     cell_weight_homology_fg, thh_homology_square_zero,
                     weight_homology_fg)
from .report import CheckResult, Report, RunConfig, UsageError, read_bounded


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
        return {"fixtures": path, "fx": json.loads(read_bounded(path, "fixture file"))}
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


def _whole(value, least=float("-inf")) -> int:
    """``value`` if it is a JSON integer (not a boolean) >= ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(value)
    return value


def _hh_module(fx: dict, name: str) -> GradedModule:
    return _parse_fixture(
        fx, ("modules", name),
        lambda gens: GradedModule(tuple((_whole(d), _whole(o, 0)) for d, o in gens)),
        "a list of [degree, order] integer pairs with order >= 0")


def _hh_degree_window(fx: dict) -> tuple[int, int]:
    def parse(window):
        lo, hi = map(_whole, window)
        return lo, _whole(hi, lo)
    return _parse_fixture(fx, ("degree_window",), parse, "an integer pair [lo, hi], lo <= hi")


def _hh_max_weight(fx: dict) -> int:
    return _parse_fixture(fx, ("max_weight",), lambda w: _whole(w, 1), "an integer >= 1")


# the words the oracle builds for one module at one weight at most
MAX_WORDS = 10**4


def _require_words(name: str, m: GradedModule, w: int) -> None:
    """Refuse module ``name`` at weight w if the oracle would build more than
    ``MAX_WORDS`` words, g^w for g generators.  2^w passes the cap from
    w = 14 on, so a larger weight is refused without raising g to it."""
    g = len(m.generators)
    _require(g < 2 or (w < MAX_WORDS.bit_length() and g ** w <= MAX_WORDS),
             f"module {name} at weight {w} asks the oracle for {g}^{w} words, "
             f"more than {MAX_WORDS}")


def hh_weight(fixtures, fx, name, m, w, lo, hi) -> CheckResult:
    """Whether the weight, oracle and cell routes of module ``name`` in weight
    w equal the frozen groups in [lo, hi]; the payload names the first that does not."""
    def window(groups):
        return {t: g for t, g in groups.items() if lo <= t <= hi}

    expected = window(_parse_fixture(
        fx, ("expected_weight_homology", name, str(w)),
        lambda frozen: {int(t): FGAbGroup.from_orders(orders)
                        for t, orders in frozen.items()},
        "a map from degrees to lists of orders"))
    routes = {"weight": weight_homology_fg(w, m),
              "oracle": NormalizedHochschild(m, max_level=w).weight_homology(w, lo, hi),
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
    _require_words(name, m, w)
    lo, hi = _window(inputs, _hh_degree_window(args["fx"]))
    _require(hi - lo < MAX_DEGREES,
             f"hh-weight takes at most {MAX_DEGREES} degrees, got {lo}..{hi}")
    return {**args, "name": name, "m": m, "w": w, "lo": lo, "hi": hi}


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


def _span(a: int, b: int) -> str:
    return str(a) if a == b else f"{a}..{b}"


def run_hh_verify(config: RunConfig) -> Report:
    """Three-route equality (weight complex, brute-force oracle, cell model) on
    the fixture modules against the frozen expectations, plus the dual-numbers
    values, truncation stability, and the circle-dual shadow row.  Weights
    and degrees asked for beyond the fixture file's caps are named in one
    SKIP line."""
    config.validate()
    report = Report("hh verify", config)
    path = config.fixture_path
    fx = _parse_fixtures({"fixtures": path})["fx"]
    fx_lo, fx_hi = _hh_degree_window(fx)
    cap = _hh_max_weight(fx)
    lo, hi = max(fx_lo, -config.max_degree), min(fx_hi, config.max_degree)
    _require(hi - lo < MAX_DEGREES,
             f"hh verify compares at most {MAX_DEGREES} degrees, got {lo}..{hi}")
    max_weight = min(config.max_weight, cap)
    modules = {name: _hh_module(fx, name)
               for name in _lookup(fx, "modules", source="fixture file")}
    for name, m in modules.items():
        _require_words(name, m, max_weight)
    unasked = []
    if config.max_weight > cap:
        unasked.append(f"weights {_span(cap + 1, config.max_weight)}")
    beyond = [_span(a, b) for a, b in ((-config.max_degree, fx_lo - 1),
                                       (fx_hi + 1, config.max_degree)) if a <= b]
    if beyond:
        unasked.append(f"degrees {', '.join(beyond)}")
    if unasked:
        report.add_skip(f"{' and '.join(unasked)} not compared: the fixture file covers "
                        f"weights 1..{cap} and degrees {fx_lo}..{fx_hi}",
                        {"max_weight": str(cap), "degrees": [str(fx_lo), str(fx_hi)]})
    for name, m in modules.items():
        for w in range(1, max_weight + 1):
            line = hh_weight(path, fx, name, m, w, lo, hi)
            if line.status == "pass":
                report.add_pass(f"three-route[{name},{w}]")
            else:
                report.add_fail(f"{line.payload['route']}[{name},{w}] vs frozen",
                                line.payload)
    report.checks += [hh_dual_numbers(path, fx), hh_truncation(), thh_shadow(path, fx)]
    return report


# kind -> (parse: payload inputs -> keyword arguments, verdict: those -> line)
KINDS = {
    "hh-weight": (_parse_hh_weight, hh_weight),
    "hh-dual-numbers": (_parse_fixtures, hh_dual_numbers),
    "hh-truncation": (lambda x: {}, hh_truncation),
    "thh-shadow": (_parse_fixtures, thh_shadow),
}
