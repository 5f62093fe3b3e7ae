"""The exported names of every qdcalc module are bound.

A name left in a module's `__all__` after its function was removed breaks
`from qdcalc.<module> import *`, and nothing else would notice.
"""

import importlib
import pkgutil

import pytest

import qdcalc

MODULES = [importlib.import_module(info.name)
           for info in pkgutil.iter_modules(qdcalc.__path__, "qdcalc.")]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_the_modules_with_exports():
    assert sorted(m.__name__ for m in EXPORTING) == [
        "qdcalc.cli", "qdcalc.expr", "qdcalc.geometry", "qdcalc.optimality",
        "qdcalc.qdcore", "qdcalc.solver"]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_is_bound(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_star_import(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
