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
    library = [
        "streams", "oracle", "fbm", "localtime", "shotnoise", "process", "validation",
        "experiments",
    ]
    from_modules = [
        n for name in library for n in importlib.import_module(f"ltfsm.{name}").__all__
    ]
    assert ltfsm.__all__ == ["__version__"] + from_modules
    front_end = {
        n for name in ("io", "cli") for n in importlib.import_module(f"ltfsm.{name}").__all__
    }
    assert front_end.isdisjoint(ltfsm.__all__)
    assert sorted(set(MODULES[1:]) - {f"ltfsm.{name}" for name in library}) == [
        "ltfsm.cli", "ltfsm.io",
    ]
