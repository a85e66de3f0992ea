"""Acceptance suite: one test per criterion, each timed against its budget
and reporting a single pass/fail line on stdout (visible with ``pytest -s``
or in failure output)."""

import time

from dualcircle.abgroups import GroupExpr, MapDescriptor
from dualcircle.checks import run_negative_controls, run_operad_check
from dualcircle.cyclic import (
    GradedModule,
    NormalizedHochschild,
    brute_hochschild,
    cell_weight_homology_fg,
    thh_homology_square_zero,
    weight_homology_fg,
)
from dualcircle.report import RunConfig
from dualcircle.spectra import CountableWedge, Shift, Sphere, Wedge, homology
from dualcircle.tc import (
    check_fr_commute,
    coassembly_conclusion,
    diff_table1,
    diff_table2,
    dual_tc_shift_sum_check,
    e_homology_with_descriptor,
    expected_table1,
    frobenius_general,
    NormalMap,
    restriction_map,
    table1,
    table2,
)


def _criterion(number, label, budget_seconds):
    def wrap(fn):
        def inner(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except Exception:
                elapsed = time.monotonic() - start
                print(f"ACCEPTANCE {number} [{label}] FAIL in {elapsed:.2f}s")
                raise
            elapsed = time.monotonic() - start
            print(f"ACCEPTANCE {number} [{label}] PASS in {elapsed:.2f}s")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget "
                f"({elapsed:.2f}s)")
        inner.__name__ = fn.__name__
        return inner
    return wrap


@_criterion(1, "operad axioms", 5)
def test_criterion_1_operad_axioms():
    report = run_operad_check(RunConfig(seed=42, trials=1000))
    by_name = {c.name: c.status for c in report.checks}
    for name in ("associativity", "unit", "closure-A", "closure-Oprime"):
        assert by_name[name] == "pass", name


@_criterion(2, "coalgebra compatibility", 5)
def test_criterion_2_coalgebra_compatibility():
    report = run_operad_check(RunConfig(seed=43, trials=1000))
    assert {c.name: c.status for c in report.checks}["coalgebra-compatibility"] == "pass"


@_criterion(3, "zero-action criterion", 5)
def test_criterion_3_zero_action():
    report = run_operad_check(RunConfig(seed=44, trials=10))
    by_name = {c.name: c.status for c in report.checks}
    assert by_name["zero-action"] == "pass"
    assert by_name["zero-action-witness"] == "pass"


@_criterion(4, "Hochschild oracle", 60)
def test_criterion_4_hochschild_oracle():
    fixtures = {
        "Z": GradedModule.single(0, 0),
        "Z/2": GradedModule.single(0, 2),
        "Z/3": GradedModule.single(0, 3),
        "Z^2": GradedModule(((0, 0), (0, 0))),
        "Z[1]": GradedModule.single(1, 0),
        "Z[-1]": GradedModule.single(-1, 0),
    }
    for name, m in fixtures.items():
        for n in range(1, 6):
            window = lambda h: {t: g for t, g in h.items() if -6 <= t <= 6}
            weight = window(weight_homology_fg(n, m))
            cell = window(cell_weight_homology_fg(n, m))
            oracle = NormalizedHochschild(m, max_level=n).weight_homology(n, -6, 6)
            assert weight == oracle, (name, n)
            assert weight == cell, (name, n)
    dual = brute_hochschild(GradedModule.single(0, 0), 2)
    assert dual.at(0) == GroupExpr.free(2)
    assert dual.at(1) == GroupExpr.free(1).plus(GroupExpr.cyclic(2))


@_criterion(5, "square-zero cyclic shadow of the dual circle", 5)
def test_criterion_5_dual_circle_shadow():
    shadow = thh_homology_square_zero(GradedModule.single(-1, 0), -1, 0)
    # independent evaluation: sphere wedge a desuspended wedge of circle orbits
    model = Wedge((Sphere(), Shift(-1, CountableWedge(("orbits_all",)))))
    for d in (-1, 0):
        assert shadow.at(d) == homology(model, d), d
    assert shadow.at(-1) == GroupExpr.countable_free()
    assert shadow.at(0) == GroupExpr.free(1).plus(GroupExpr.countable_free())


@_criterion(6, "integral homology table", 10)
def test_criterion_6_table1():
    for p in (2, 3, 5):
        assert diff_table1(p, table1(p, -2, 4), -2, 4) == [], p


@_criterion(7, "rational homotopy table", 10)
def test_criterion_7_table2():
    t = table2(7)
    assert diff_table2(t) == []
    assert dual_tc_shift_sum_check(t)


@_criterion(8, "Frobenius/restriction algebra", 5)
def test_criterion_8_fr_algebra():
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            assert check_fr_commute(p, n), (p, n)
        for n in (1, 2, 3, 4):
            deleted = [r for r in restriction_map(p, n).routes if r.target is None]
            assert len(deleted) == 1, (p, n)
    for p in (2, 3, 5):
        for h in range(5):
            level = frobenius_general(p, 4, h)
            for k in range(5):
                r = level.route(k)
                assert r.target == min(h, k)
                assert r.map == NormalMap.make(
                    transfer=(4 - k, h - min(h, k)), inclusion=(k, min(h, k)))


@_criterion(9, "coassembly verdict", 1)
def test_criterion_9_coassembly():
    v = coassembly_conclusion(1, 5, True)
    assert v.status == "zero" and v.summary() == "coassembly is zero on pi_4^Q"
    assert coassembly_conclusion(1, 5, False).status == "inconclusive"
    assert coassembly_conclusion(3, 7, True).status == "inconclusive"


@_criterion(10, "negative controls", 5)
def test_criterion_10_negative_controls():
    sabotaged = e_homology_with_descriptor(3, MapDescriptor.zero(), -2, 0)
    reference = expected_table1(3)["E"]
    assert sabotaged.at(-1) != reference[-1]
    report = run_negative_controls(RunConfig(p=3))
    assert report.ok
