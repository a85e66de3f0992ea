"""What start-up loads: each verb, run in a fresh interpreter, loads only
the modules it runs, never ``dataclasses`` or ``inspect``, nor ``argparse``
or ``gettext``, which only help and usage errors need; and the package
namespace loads its public names on first use."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualcircle

ROOT = Path(__file__).resolve().parents[1]

# a verb's command line -> the package modules it must not load
VERBS = {
    "operad check --trials 2": {"cyclic", "tc", "spectra", "qspaces"},
    "hh verify --max-weight 1 --max-degree 1": {"operads", "tc", "spectra", "qspaces"},
    "tc table1 --p 5": {"operads", "cyclic"},
    "tc table2 --p 7": {"operads", "cyclic"},
    "tc check-fr --p 3 --n 3": {"operads", "cyclic"},
    "tc coassembly --i 1 --p 5 --assume-regular": {"operads", "cyclic"},
    "tc controls --p 3": {"operads", "cyclic"},
}


def _loaded(code: str) -> list[str]:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("verb", VERBS)
def test_a_verb_loads_only_the_modules_it_runs(verb):
    loaded = _loaded("import contextlib, io\nfrom dualcircle import cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    assert cli.main({verb.split()!r}) == 0")
    assert not {"dataclasses", "inspect", "argparse", "gettext"} & set(loaded)
    package = {m.removeprefix("dualcircle.") for m in loaded if m.startswith("dualcircle.")}
    assert not package & VERBS[verb]
    assert "checks" in package


def test_help_loads_argparse():
    loaded = _loaded("import contextlib, io\nfrom dualcircle import cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    assert cli.main(['tc', 'table1', '--help']) == 0")
    assert "argparse" in loaded


def test_a_bare_import_loads_no_submodule():
    loaded = _loaded("import dualcircle")
    assert [m for m in loaded if m.startswith("dualcircle")] == ["dualcircle"]


# ---------------------------------------------------------------------------
# the lazy namespace


@pytest.mark.parametrize("name", dualcircle.__all__)
def test_a_public_name_is_its_home_module_object(name):
    home = __import__(f"dualcircle.{dualcircle._HOMES[name]}", fromlist=[name])
    assert getattr(dualcircle, name) is getattr(home, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dualcircle import *", namespace)
    assert set(dualcircle.__all__) <= set(namespace)
    assert all(namespace[n] is getattr(dualcircle, n) for n in dualcircle.__all__)


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dualcircle.no_such_name
    assert not hasattr(dualcircle, "dataclass")


def test_dir_lists_every_public_name():
    assert set(dualcircle.__all__) <= set(dir(dualcircle))
    assert "__version__" in dir(dualcircle)


def test_the_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    # each line that ends in "# value" evaluates to that value
    shown = re.findall(r"^(\S.*?)\s+# (.+)$", block, re.M)
    assert shown
    for expression, value in shown:
        assert repr(eval(expression, namespace)) == value
    calls = re.findall(r"^(compose\(.*?\))\n# ([^\n]+)", block, re.S | re.M)
    assert calls
    assert [repr(eval(c, namespace)) for c, _ in calls] == [v for _, v in calls]
