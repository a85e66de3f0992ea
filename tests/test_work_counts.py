"""Work counted by the benchmark's tracer, and by a counter patched into
the elimination core, on one seeded round, and the group normalizations
of one table-2 job, so that a change which redoes work fails here and not
only as a slower timing.  The tracer and the workloads are loaded from
their files, as the benchmark loads them."""

import importlib
import importlib.util
from pathlib import Path

from dualcircle import abgroups, cli, matrices
from dualcircle.abgroups import GroupExpr

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    """The benchmark's tracer, with every module it patches loaded: it
    patches the names bound in loaded modules only."""
    tracer_module = _load("tracer")
    for module, _, _ in tracer_module.TARGETS:
        importlib.import_module(f"dualcircle.{module}")
    return tracer_module.Tracer()


def _round_work(workload, monkeypatch) -> tuple[int, int, int]:
    """One round of seed 1 of ``workload``: its eliminations, counted by
    the names ``matrices`` and ``abgroups`` bind the core to, then the
    tracer's graded homology calls and cokernel calls."""
    tracer = _tracer()
    workloads = _load("workloads")
    eliminations = 0
    eliminate = matrices._eliminate

    def counted_eliminate(*args, **kwargs):
        nonlocal eliminations
        eliminations += 1
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(matrices, "_eliminate", counted_eliminate)
    monkeypatch.setattr(abgroups, "_eliminate", counted_eliminate)
    jobs = workloads.make_inputs(workload, 1)
    try:
        tracer.install()
        rnd = workloads.run_round(jobs, tracer=tracer)
    finally:
        tracer.uninstall()
    assert rnd.failures == []
    return (eliminations, tracer.stats["abgroups.homology_with_orders.calls"],
            tracer.stats["matrices.cokernel_invariants.calls"])


# The oracle makes one graded homology call, so one elimination, per
# weight; every other elimination is a cell-route cokernel, one per
# distinct orbit sign sequence of each weight.  Asking generic homology one
# degree at a time took 70 eliminations, 40 calls and 70 cokernels a
# round on hh-deep, and 2866, 2484 and 2866 on hh-wide; eliminating every
# orbit's block made hh-deep's cokernels 135.


def test_hh_deep_round_eliminates_each_distinct_orbit_block_once(monkeypatch):
    # five weights of one module
    assert _round_work("hh-deep", monkeypatch) == (35, 5, 30)


def test_hh_wide_round_eliminates_once_per_oracle_weight(monkeypatch):
    # 150 modules at weights 1..3
    assert _round_work("hh-wide", monkeypatch) == (1255, 450, 805)


def _rows_eliminated_by_generic_homology(workload, monkeypatch) -> tuple[int, int]:
    """The rows that ``homology_with_orders`` hands to the elimination
    core on one round of seed 1 of ``workload``, and their nonzeros."""
    rows = nonzeros = 0
    eliminate = abgroups._eliminate

    def counted_eliminate(lifts):
        nonlocal rows, nonzeros
        rows += len(lifts)
        nonzeros += sum(map(len, lifts))
        return eliminate(lifts)

    monkeypatch.setattr(abgroups, "_eliminate", counted_eliminate)
    workloads = _load("workloads")
    assert workloads.run_round(workloads.make_inputs(workload, 1)).failures == []
    return rows, nonzeros


# Cancelling unit pairs of equal order first leaves the cone a fraction of
# the oracle's chains; building the cone of the whole complex handed 954
# rows with 1894 nonzeros a round to the elimination on hh-deep, and 7212
# rows with 12930 nonzeros on hh-wide.


def test_hh_deep_oracle_eliminates_only_what_cancellation_leaves(monkeypatch):
    assert _rows_eliminated_by_generic_homology("hh-deep", monkeypatch) == (150, 152)


def test_hh_wide_oracle_eliminates_only_what_cancellation_leaves(monkeypatch):
    assert _rows_eliminated_by_generic_homology("hh-wide", monkeypatch) == (2972, 3086)


# Reading a spectrum one degree at a time, and normalizing every sum and
# every constant again, took 134 normalizations for this job; evaluating
# E's row twice, once for its own row and once for the dual-circle row,
# took 13.  Now a window is one walk, each homology row is evaluated once,
# Z and (+)_k Z are shared values, and a sum with one nonzero summand is
# that summand, so only new groups are normalized: the tower of the one
# walk of E's domain (one), the countable sums of E's nonzero cells (five)
# and the sums of two nonzero groups (six).


def test_a_table2_job_normalizes_only_new_groups(monkeypatch, capsys):
    made = 0
    make = GroupExpr._make.__func__

    def counted_make(cls, raw_atoms):
        nonlocal made
        made += 1
        return make(cls, raw_atoms)

    monkeypatch.setattr(GroupExpr, "_make", classmethod(counted_make))
    assert cli.main(["tc", "table2", "--p", "7", "--format", "json"]) == 0
    capsys.readouterr()
    assert made == 12


def test_a_table2_job_evaluates_e_once(capsys):
    # E's row gives the E^_p row and, wedged with the sphere model's, the
    # dual-circle row; reading it for each took two of both
    tracer = _tracer()
    try:
        tracer.install()
        assert cli.main(["tc", "table2", "--p", "7", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (tracer.stats["tc.e_homology.calls"],
            tracer.stats["spectra.fiber_homology.calls"]) == (1, 1)
