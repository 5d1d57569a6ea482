"""Public names: every `__all__` entry resolves, and the package root
exports exactly what it imports from its modules.

Tools that walk `__all__` with `getattr` (the benchmark tracer, star
imports) fail on a name left behind when its definition is deleted.
`simulator.run_replications` is exported by the package root but kept out
of `simulator.__all__`: the benchmark tracer wraps it on its own, apart
from the functions it finds there.
"""

import importlib
import inspect

import pytest

import aoistats

MODULES = ("servicedist", "analytics", "simulator", "experiments", "config", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"aoistats.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_names_what_it_imports():
    modules = [importlib.import_module(f"aoistats.{name}") for name in MODULES]
    assert len(set(aoistats.__all__)) == len(aoistats.__all__)
    for name in aoistats.__all__:
        value = getattr(aoistats, name)
        assert any(getattr(m, name, None) is value for m in modules), name
    imported = {
        name
        for name, value in vars(aoistats).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert imported == set(aoistats.__all__)
