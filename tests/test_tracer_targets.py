"""The benchmark's traced run patches package functions by name; a name it
lists must keep resolving, or the traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(module_name, path):
    owner = importlib.import_module(f"dualcircle.{module_name}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_every_tracer_target_resolves_and_is_patched():
    tracer_module = _load_tracer()
    targets = [(module, path) for module, path, _ in tracer_module.TARGETS]
    # the package loads its modules lazily, so load each one the tracer
    # patches before it looks for the names bound to its targets
    for module, _ in targets:
        importlib.import_module(f"dualcircle.{module}")
    originals = {t: _binding(*t) for t in targets}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        unpatched = [t for t in targets if _binding(*t) is originals[t]]
    finally:
        tracer.uninstall()
    assert unpatched == []
    assert all(_binding(*t) is originals[t] for t in targets)


def test_every_work_counter_hook_counts_a_real_call():
    """The hooks read the shapes of the matrices and modules they see, so a
    renamed field breaks them only in a traced run unless they run here."""
    tracer_module = _load_tracer()
    for module, _, _ in tracer_module.TARGETS:
        importlib.import_module(f"dualcircle.{module}")
    from dualcircle import cyclic, matrices

    m = matrices.IntMatrix.from_rows([[2, 4], [6, 8]])
    module = cyclic.GradedModule(((0, 0), (1, 3)))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        m.mul(m)
        matrices.smith_normal_form(m)
        cyclic.weight_homology_fg(2, module)
        assert not cyclic.NormalizedHochschild(module, 1).homology(0, weight=1).is_trivial()
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert set(tracer_module.HOOK_COUNTERS) <= set(stats)
    assert all(stats[name] > 0 for name in tracer_module.HOOK_COUNTERS)
    assert stats["matrices.IntMatrix.mul.flops"] == 2 * 2 * 2 * 2
    assert stats["matrices.smith_normal_form.cells"] == 4
    assert stats["cyclic.max_tensor_basis"] == 2 ** 2
    assert stats["cyclic.NormalizedHochschild.homology.nonzero"] == 1
