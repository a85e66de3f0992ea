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
