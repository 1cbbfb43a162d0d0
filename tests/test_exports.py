"""Every exported name of the package and of each module resolves, once."""

import importlib
import pkgutil

import pytest

import ltfsm

MODULES = ["ltfsm"] + [f"ltfsm.{m.name}" for m in pkgutil.iter_modules(ltfsm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_reexports_only_module_exports():
    from_modules = {
        n for name in MODULES[1:] for n in importlib.import_module(name).__all__
    }
    assert [n for n in ltfsm.__all__ if n not in from_modules] == ["__version__"]
