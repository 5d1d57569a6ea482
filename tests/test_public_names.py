"""Public names: every `__all__` entry resolves, and the package root
exports exactly what its library modules make public.

Tools that walk `__all__` with `getattr` (the benchmark tracer, star
imports) fail on a name left behind when its definition is deleted.
The root's `__all__` is the library modules' lists in import order, plus
`simulator.run_replications`, which its module keeps out of `__all__`:
the benchmark tracer wraps it on its own, apart from the functions it
finds there.  The command line is not a library module, and
`import aoistats` does not load it.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoistats

LIBRARY = ("servicedist", "analytics", "simulator", "experiments", "config")
MODULES = LIBRARY + ("cli",)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"aoistats.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_names_what_it_imports():
    modules = [importlib.import_module(f"aoistats.{name}") for name in LIBRARY]
    assert aoistats.__all__ == [n for m in modules for n in m.__all__] + ["run_replications"]
    assert len(set(aoistats.__all__)) == len(aoistats.__all__)
    for name in aoistats.__all__:
        owner = next((m for m in modules if name in m.__all__), aoistats.simulator)
        assert getattr(aoistats, name) is getattr(owner, name), name
    imported = {
        name
        for name, value in vars(aoistats).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert imported == set(aoistats.__all__)


def test_package_import_leaves_the_command_line_out():
    # the subprocess imports the package this test imported
    package_parent = str(Path(aoistats.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    code = "import sys, aoistats; print('aoistats.cli' in sys.modules, 'argparse' in sys.modules)"
    ran = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.split() == ["False", "False"]
