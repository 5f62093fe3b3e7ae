"""The exported names of every qdcalc module are bound, and constructors
own the arrays they store.

A name left in a module's `__all__` after its function was removed breaks
`from qdcalc.<module> import *`, and nothing else would notice.
"""

import importlib
import pkgutil

import numpy as np
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


# Each case builds an object from a caller's array and returns the array it stores.
OWNING = {
    "OperatorPolytope": lambda a: qdcalc.OperatorPolytope(a.reshape(2, 1, 2)).gens,
    "PolyCone": lambda a: qdcalc.PolyCone(a.reshape(2, 1, 2)).gens,
    "Orthomorphism": lambda a: qdcalc.Orthomorphism(a).diag,
    "Const": lambda a: qdcalc.Const(a, 2).value,
    "Affine.a": lambda a: qdcalc.Affine(a.reshape(2, 2), np.zeros(2)).a,
    "Affine.b": lambda a: qdcalc.Affine(np.eye(4), a).b,
    "Scale": lambda a: qdcalc.Scale(a, qdcalc.Var(4)).diag,
    "ConstraintSystem": lambda a: qdcalc.ConstraintSystem(
        (qdcalc.qd_linear([[1.0]]),) * 4, a).values,
}


@pytest.mark.parametrize("build", OWNING.values(), ids=OWNING.keys())
def test_constructors_copy_their_array_arguments(build):
    base = np.array([[-1.0, -2.0, -3.0, -4.0]])
    arg = base[0]
    stored = build(arg)
    before = stored.tobytes()
    assert arg.flags.writeable and base.flags.writeable
    arg[0] = 100.0
    base[0, 1] = -100.0
    assert stored.tobytes() == before
    with pytest.raises(ValueError):
        stored.setflags(write=True)
