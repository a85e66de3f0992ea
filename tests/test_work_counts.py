"""Work counted by the benchmark's tracer, and by counters patched into the
elimination core, on one seeded round, so that a change which redoes work
fails here and not only as a slower timing.  The tracer and the workloads
are loaded from their files, as the benchmark loads them."""

import importlib
import importlib.util
from pathlib import Path

from dualcircle import abgroups, matrices

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hh_deep_round_eliminates_each_distinct_orbit_block_once(monkeypatch):
    tracer_module = _load("tracer")
    workloads = _load("workloads")
    # the tracer patches the names bound in loaded modules only
    for module, _, _ in tracer_module.TARGETS:
        importlib.import_module(f"dualcircle.{module}")
    counts = {"eliminations": 0, "ranks": 0}
    eliminate, rank = matrices._eliminate, abgroups.rank

    def counted_eliminate(*args, **kwargs):
        counts["eliminations"] += 1
        return eliminate(*args, **kwargs)

    def counted_rank(m):
        counts["ranks"] += 1
        return rank(m)

    monkeypatch.setattr(matrices, "_eliminate", counted_eliminate)
    monkeypatch.setattr(abgroups, "rank", counted_rank)
    jobs = workloads.make_inputs("hh-deep", 1)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        rnd = workloads.run_round(jobs, tracer=tracer)
    finally:
        tracer.uninstall()
    assert rnd.failures == []
    # the oracle's cokernels plus one per distinct orbit sign sequence of
    # each weight; eliminating every orbit's block made it 135
    assert tracer.stats["matrices.cokernel_invariants.calls"] == 70
    # the oracle sweeps each weight upward, so every query takes its
    # outgoing rank from the one below; working it out afresh per query
    # took 84 eliminations, 14 of them ranks
    assert counts == {"eliminations": 70, "ranks": 0}
