"""The exported names of every qdcalc module are bound, the public
signatures are pinned, and constructors own the arrays they store.

A name left in a module's `__all__` after its function was removed breaks
`from qdcalc.<module> import *`, and nothing else would notice.  A public
parameter added or dropped changes `SIGNATURES`, so the same change has to
edit that table and the README's "Python API" paragraph.
"""

import ast
import importlib
import inspect
import pkgutil
import types

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


def _package_imports() -> dict[str, str]:
    """Each name `qdcalc/__init__.py` imports from a submodule -> that module."""
    with open(qdcalc.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    return {alias.name: f"qdcalc.{node.module}"
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_package_names_are_exported_where_they_are_defined():
    imports = _package_imports()
    assert imports  # the package re-exports its submodules' names
    exporting = {m.__name__: m for m in EXPORTING}
    missing = [f"{module}.{name}" for name, module in sorted(imports.items())
               if module in exporting and name not in exporting[module].__all__]
    assert missing == []
    # the one module without __all__ holds only the exception types
    assert {module for module in imports.values() if module not in exporting} == {"qdcalc.errors"}


# Every callable `qdcalc` binds without a leading underscore, by name:
# str(inspect.signature(...)), or "<exception>" for an exception class.
SIGNATURES = {
    "Abs": "(arg: 'Expr') -> None",
    "Add": "(args: 'tuple[Expr, ...]') -> None",
    "Affine": "(a: 'np.ndarray', b: 'np.ndarray') -> None",
    "Compose": "(outer: 'Expr', inner: 'Expr') -> None",
    "Const": "(value: 'np.ndarray', n: 'int') -> None",
    "ConstraintSystem": (
        "(qds: 'tuple[QuasiDiff, ...]', values: 'np.ndarray', "
        "set_cone: 'Optional[PolyCone]' = None) -> None"
    ),
    "DimensionMismatchError": "<exception>",
    "Expr": "()",
    "InfeasiblePointError": "<exception>",
    "IterateRecord": (
        "(x: 'np.ndarray', value: 'float', descent_dist: 'float', "
        "step: 'Optional[float]') -> None"
    ),
    "Max": "(args: 'tuple[Expr, ...]') -> None",
    "Min": "(args: 'tuple[Expr, ...]') -> None",
    "Mul": "(scalar: 'Expr', arg: 'Expr') -> None",
    "MultiplierCertificate": (
        "(coordinate: 'int', supd_row: 'np.ndarray', weights: 'np.ndarray', "
        "subd_point: 'np.ndarray', deviation: 'float', "
        "gamma: 'Optional[np.ndarray]' = None, "
        "constraint_points: 'Optional[tuple]' = None, "
        "supd_choice: 'Optional[tuple]' = None, "
        "normal_element: 'Optional[np.ndarray]' = None, "
        "point_index: 'Optional[int]' = None) -> None"
    ),
    "Neg": "(arg: 'Expr') -> None",
    "NonFiniteError": "<exception>",
    "OperatorPolytope": "(gens: 'np.ndarray') -> None",
    "Orthomorphism": "(diag: 'np.ndarray') -> None",
    "PolyCone": "(gens: 'np.ndarray') -> None",
    "QuasiDiff": "(subd: 'OperatorPolytope', supd: 'OperatorPolytope') -> None",
    "QuasiregularityReport": (
        "(entries: 'tuple[dict, ...]', regular: 'bool', vacuous: 'bool') -> None"
    ),
    "Scale": "(diag: 'np.ndarray', arg: 'Expr') -> None",
    "SchemaError": "<exception>",
    "Smooth": "(name: 'str', n: 'int') -> None",
    "SolverParams": "(max_iters: 'int' = 500, step_init: 'float' = 1.0) -> None",
    "SolverResult": (
        "(x: 'np.ndarray', value: 'float', status: 'str', iterations: 'int', "
        "trace: 'tuple[IterateRecord, ...]' = <factory>) -> None"
    ),
    "Tolerance": "(eps_geom: 'float' = 1e-09) -> None",
    "UnsupportedDimensionError": "<exception>",
    "Var": "(n: 'int') -> None",
    "Verdict": (
        "(kind: 'str', holds: 'bool', witness: 'Optional[Witness]' = None, "
        "certificates: 'Optional[tuple[MultiplierCertificate, ...]]' = None, "
        "detail: 'dict' = <factory>) -> None"
    ),
    "Witness": (
        "(coordinate: 'int', generator: 'np.ndarray', direction: 'np.ndarray', "
        "rate: 'float', point_index: 'Optional[int]' = None) -> None"
    ),
    "check_combined": (
        "(qf: 'QuasiDiff', cs: 'ConstraintSystem', "
        "tol: 'Tolerance' = Tolerance(eps_geom=1e-09), "
        "eps_active: 'float' = 1e-09) -> 'Verdict'"
    ),
    "check_generalized": (
        "(qds: 'Sequence[QuasiDiff]', values, "
        "cones: 'Optional[Sequence[Optional[PolyCone]]]' = None, "
        "tol: 'Tolerance' = Tolerance(eps_geom=1e-09), "
        "eps_active: 'float' = 1e-09) -> 'Verdict'"
    ),
    "check_inequality_constrained": (
        "(qf: 'QuasiDiff', cs: 'ConstraintSystem', "
        "tol: 'Tolerance' = Tolerance(eps_geom=1e-09), "
        "eps_active: 'float' = 1e-09) -> 'Verdict'"
    ),
    "check_set_constrained": (
        "(qf: 'QuasiDiff', K: 'PolyCone', "
        "tol: 'Tolerance' = Tolerance(eps_geom=1e-09)) -> 'Verdict'"
    ),
    "check_slackened": (
        "(qf: 'QuasiDiff', qgs: 'Sequence[QuasiDiff]', "
        "tol: 'Tolerance' = Tolerance(eps_geom=1e-09)) -> 'Verdict'"
    ),
    "check_unconstrained": (
        "(q: 'QuasiDiff', tol: 'Tolerance' = Tolerance(eps_geom=1e-09)) -> 'Verdict'"
    ),
    "contains_point": (
        "(P: 'OperatorPolytope', T, "
        "tol: 'Tolerance' = Tolerance(eps_geom=1e-09)) -> 'bool'"
    ),
    "convex_union": "(parts: 'Sequence[OperatorPolytope]') -> 'OperatorPolytope'",
    "diag_scale": "(d: 'np.ndarray', P: 'OperatorPolytope') -> 'OperatorPolytope'",
    "dini_convergence": "(e: 'Expr', x, h) -> 'float'",
    "dini_fd": "(e: 'Expr', x, h) -> 'np.ndarray'",
    "dini_quotients": "(e: 'Expr', x, h) -> 'np.ndarray'",
    "eval_expr": "(e: 'Expr', x) -> 'np.ndarray'",
    "expr_from_json": "(obj) -> 'Expr'",
    "expr_to_json": "(e: 'Expr') -> 'dict'",
    "is_piecewise_linear": "(e: 'Expr') -> 'bool'",
    "linop": "(entries) -> 'np.ndarray'",
    "minimize": (
        "(e: 'Expr', x0, params: 'SolverParams' = SolverParams(max_iters=500, "
        "step_init=1.0), tol: 'Tolerance' = Tolerance(eps_geom=1e-09), "
        "eps_active: 'float' = 1e-09) -> 'SolverResult'"
    ),
    "minkowski_sum": "(P: 'OperatorPolytope', Q: 'OperatorPolytope') -> 'OperatorPolytope'",
    "nearest_point": "(P: 'OperatorPolytope', T) -> 'tuple[np.ndarray, float]'",
    "polar_cone": (
        "(K: 'PolyCone', m: 'int', "
        "tol: 'Tolerance' = Tolerance(eps_geom=1e-09)) -> 'PolyCone'"
    ),
    "prune": "(P: 'OperatorPolytope') -> 'OperatorPolytope'",
    "qd_add": "(qs: 'Sequence[QuasiDiff]') -> 'QuasiDiff'",
    "qd_at": "(e: 'Expr', x, eps_active: 'float' = 1e-09) -> 'QuasiDiff'",
    "qd_compose": "(qg: 'QuasiDiff', qf: 'QuasiDiff') -> 'QuasiDiff'",
    "qd_eval_dir": "(q: 'QuasiDiff', h) -> 'np.ndarray'",
    "qd_inf": "(qs: 'Sequence[QuasiDiff]', values, eps_active: 'float' = 1e-09) -> 'QuasiDiff'",
    "qd_linear": "(T) -> 'QuasiDiff'",
    "qd_product": "(qg: 'QuasiDiff', g0, qf: 'QuasiDiff', f0) -> 'QuasiDiff'",
    "qd_scale": "(alpha, q: 'QuasiDiff') -> 'QuasiDiff'",
    "qd_sup": "(qs: 'Sequence[QuasiDiff]', values, eps_active: 'float' = 1e-09) -> 'QuasiDiff'",
    "quasiregularity_diagnostic": (
        "(qgs: 'Sequence[QuasiDiff]', "
        "tol: 'Tolerance' = Tolerance(eps_geom=1e-09)) -> 'QuasiregularityReport'"
    ),
    "separating_direction": (
        "(target: 'np.ndarray', hull_points: 'np.ndarray', "
        "cone_rays: 'Optional[np.ndarray]' = None, "
        "directions: 'Optional[np.ndarray]' = None) -> 'tuple[np.ndarray, float]'"
    ),
    "steepest_descent_direction": (
        "(q: 'QuasiDiff', tol: 'Tolerance' = Tolerance(eps_geom=1e-09)) -> 'tuple[float, "
        "Optional[tuple[np.ndarray, float]]]'"
    ),
    "support": "(P: 'OperatorPolytope', h: 'np.ndarray') -> 'np.ndarray'",
}


def _signature(obj) -> str:
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return "<exception>"
    return str(inspect.signature(obj))


def test_public_signatures():
    public = {
        name: _signature(obj) for name, obj in vars(qdcalc).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, types.ModuleType)
    }
    assert public == SIGNATURES


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
