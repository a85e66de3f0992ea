"""Every kind of check in ``checks.CHECKS`` replays from its FAIL payload.

For each kind, one library function is patched so that the check fails.
The verb's FAIL payload equals the frozen one in ``data/fail_payloads.json``;
it is written out and replayed through two verbs whose
options differ from the failing run and from each other: both replays fail
with the same payload, and the unpatched replay passes.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from dualcircle import checks, hh_checks, operad_checks, tc, tc_checks
from dualcircle.cli import main
from dualcircle.cyclic import GradedModule, NormalizedHochschild
from dualcircle.operads import CubePoint, OperadPoint, SuspensionActionMap, ZeroMapVerdict
from dualcircle.operads import compose, is_member
from dualcircle.qspaces import SymbolicQSpace

SRC = Path(__file__).resolve().parents[1] / "src" / "dualcircle"
# the FAIL payload of each kind that the patches of CASES produce
FAIL_PAYLOADS = json.loads(
    (Path(__file__).parent / "data" / "fail_payloads.json").read_text())


def _doubled(point):
    return OperadPoint(tuple(2 * t for t in point.shifts))


def _compose_unless(breaks, wrong):
    """compose, except that it returns ``wrong(composite)`` when
    ``breaks(outer, inners)``."""
    def patched(outer, inners):
        good = compose(outer, inners)
        return wrong(good) if breaks(outer, inners) else good
    return patched


def _in(operad, outer, inners):
    return outer.arity + len(inners) > 2 and all(
        is_member(operad, q) for q in [outer, *inners])


def _constant_point(value):
    return lambda p: OperadPoint((Fraction(value),) * (p.arity - 1))


OPERAD = ["operad", "check", "--seed", "1", "--trials", "50"]
COASSEMBLY = ["tc", "coassembly", "--i", "1", "--p", "5", "--assume-regular"]
FR = ["tc", "check-fr", "--p", "3", "--n", "3"]
TABLE2 = ["tc", "table2", "--p", "7"]
HH = ["hh", "verify", "--max-weight", "2", "--max-degree", "3"]
# kind -> (failing verb, patch: (module, attribute, wrapper of the original))
CASES = {
    "associativity": (OPERAD, (operad_checks, "compose",
                               lambda f: lambda o, i: _doubled(f(o, i)))),
    "unit": (OPERAD, (operad_checks, "compose", lambda f: _compose_unless(
        lambda o, i: o.arity > 1 and all(q.arity == 1 for q in i), _doubled))),
    "closure-A": (OPERAD, (operad_checks, "compose", lambda f: _compose_unless(
        lambda o, i: _in("A", o, i), _constant_point(1)))),
    "closure-Oprime": (OPERAD, (operad_checks, "compose", lambda f: _compose_unless(
        lambda o, i: _in("Oprime", o, i), _constant_point(0)))),
    "coalgebra-compatibility": (OPERAD, (operad_checks, "compose_action_maps", lambda f: (
        lambda o, i: SuspensionActionMap((1,) + f(o, i).shift_vector)))),
    "zero-action": (OPERAD, (operad_checks, "eval_action",
                             lambda f: lambda m, s: CubePoint((Fraction(1, 2),), 1))),
    "zero-action-witness": (OPERAD, (operad_checks, "is_zero_map",
                                     lambda f: lambda m: ZeroMapVerdict(True, None))),
    "nullhomotopy-endpoints": (OPERAD, (operad_checks, "nullhomotopy_point",
                                        lambda f: lambda t: f(Fraction(1, 2)))),
    "hh-weight": (HH, (hh_checks, "cell_weight_homology_fg",
                       lambda f: lambda n, m: f(n, GradedModule.single(0, 0)))),
    "hh-dual-numbers": (HH, (hh_checks, "brute_hochschild",
                             lambda f: lambda m, n: f(GradedModule.single(0, 2), n))),
    "hh-truncation": (HH, (hh_checks, "brute_hochschild", lambda f: lambda m, n: (
        f(m, n) if n == 2 else f(GradedModule.single(0, 2), n)))),
    "thh-shadow": (HH, (hh_checks, "thh_homology_square_zero",
                        lambda f: lambda m, lo, hi: f(GradedModule.single(-2, 0), lo, hi))),
    "table1": (["tc", "table1", "--p", "5"], (tc_checks, "table1", lambda f: (
        lambda p, lo, hi: {**f(p, lo, hi), "E": f(p, lo, hi)["S"]}))),
    "table2": (TABLE2, (tc, "k_sphere_rational", lambda f: lambda n: SymbolicQSpace.zero())),
    "table2-shift-sum": (TABLE2, (tc_checks, "dual_tc_shift_sum_check",
                                  lambda f: lambda t: False)),
    "table2-wedge": (TABLE2, (tc_checks, "table2_wedge_check", lambda f: lambda t: False)),
    "negative-control": (["tc", "controls", "--p", "3"], (
        tc_checks, "e_homology_with_descriptor",
        lambda f: lambda p, row, lo, hi: tc.e_homology(p, lo, hi))),
    "fr-commute": (FR, (tc_checks, "check_fr_commute", lambda f: lambda p, n: False)),
    "restriction-deletion": (FR, (tc_checks, "restriction_map", lambda f: tc.frobenius_map)),
    "frobenius-routing": (FR, (tc_checks, "frobenius_general",
                               lambda f: lambda p, n, h: tc.restriction_map(p, n))),
    "coassembly": (COASSEMBLY, (tc, "k_sphere_rational",
                                lambda f: lambda n: SymbolicQSpace.zero())),
    "regularity": (COASSEMBLY + ["--check-regularity"], (
        tc_checks, "irregular_indices", lambda f: lambda p: [2])),
}


def _run(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_the_cases_cover_the_registry():
    assert sorted(CASES) == sorted(checks.CHECKS)
    suites = {"operad": operad_checks, "hh": hh_checks, "tc": tc_checks}
    assert {kind: name for name, suite in suites.items() for kind in suite.KINDS} \
        == checks.CHECKS


def test_every_payload_kind_written_in_src_is_registered():
    written = set()
    for path in SRC.glob("*.py"):
        written |= set(re.findall(r'"check": "([^"]+)"', path.read_text()))
    assert written == set(checks.CHECKS)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_a_failure_replays_from_its_payload_alone(kind, tmp_path, capsys, monkeypatch):
    verb, (module, name, wrap) = CASES[kind]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, report = _run(capsys, verb)
    assert code == 1
    payload = next(c["payload"] for c in report["checks"]
                   if c["status"] == "fail" and c["payload"]["check"] == kind)
    assert payload == FAIL_PAYLOADS[kind]
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    config = tmp_path / "run.cfg"
    config.write_text("assume_regular = false\ncheck_regularity = true\n"
                      f"fixture_path = {tmp_path / 'absent.json'}\nmax_degree = 0\n"
                      "truncate_out_of_range = false\nmin_deg = 3\n")
    # two verbs whose options differ from the failing run and each other
    replays = [["tc", "table2", "--p", "3", "--no-truncate", "--config", str(config),
                "--replay", str(path)],
               ["hh", "verify", "--fixtures", str(tmp_path / "absent.json"),
                "--max-weight", "1", "--replay", str(path)]]
    for argv in replays:
        code, replayed = _run(capsys, argv)
        assert code == 1, argv
        assert [c["payload"] for c in replayed["checks"]] == [payload]
    monkeypatch.undo()
    for argv in replays:
        code, replayed = _run(capsys, argv)
        assert code == 0, argv
        assert [c["status"] for c in replayed["checks"]] == ["pass"]


# kind -> a wrong model of the table-2 rows that the cross-check must catch
WRONG_MODELS = {
    # the dual-circle row without its countable wedge of copies of E
    "table2-wedge": (tc, "tc_dual_circle_model_homology",
                     lambda f: lambda p, lo, hi: tc.tc_sphere_model_homology(lo, hi)),
    # the smashed row built with the suspension in place of the desuspension
    "table2-shift-sum": (tc, "Shift", lambda f: lambda k, inner: f(-k, inner)),
}


@pytest.mark.parametrize("kind", sorted(WRONG_MODELS))
def test_a_table2_cross_check_catches_a_wrong_model(kind, capsys, monkeypatch):
    module, name, wrap = WRONG_MODELS[kind]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, report = _run(capsys, TABLE2)
    assert code == 1
    failed = {c["payload"]["check"] for c in report["checks"] if c["status"] == "fail"}
    # the reference catches both; of the two cross-checks only the one that
    # recomputes the broken row does
    assert failed == {"table2", kind}


def test_a_weight_replay_builds_only_its_weight(tmp_path, capsys, monkeypatch):
    built = set()
    weight_chains = NormalizedHochschild._weight_chains

    def recorded(self, w):
        built.add(w)
        return weight_chains(self, w)

    monkeypatch.setattr(NormalizedHochschild, "_weight_chains", recorded)
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"check": "hh-weight", "route": "oracle", "inputs": {
        "module": "Z^2", "weight": 5, "lo": -6, "hi": 6, "fixtures": None}}))
    code, report = _run(capsys, ["hh", "verify", "--replay", str(path)])
    assert code == 0 and [c["status"] for c in report["checks"]] == ["pass"]
    assert built == {5}
