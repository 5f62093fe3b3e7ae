"""Expression trees for nonsmooth vector maps R^n -> R^m.

Leaves are the identity (Var), constants, affine maps, and coordinatewise
smooth primitives with closed-form derivatives.  Interior nodes are
negation, sums, diagonal scaling, pointwise max/min, diagonal products,
and composition.  Absolute value is sugar: it evaluates directly but its
quasidifferential is taken through the max(u, -u) lowering.

Evaluation broadcasts over a leading batch axis, which the brute-force
oracles in the test suite rely on.  Quasidifferential propagation walks
the tree once per base point; dini_fd is the independent one-sided
finite-difference oracle used to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, SchemaError
from .geometry import DEFAULT_TOL, Tolerance
from .qdcore import (
    DEFAULT_EPS_ACTIVE,
    QuasiDiff,
    active_mask,
    qd_add,
    qd_compose,
    qd_inf,
    qd_linear,
    qd_product,
    qd_scale,
    qd_sup,
)

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Affine",
    "Smooth",
    "Abs",
    "Neg",
    "Add",
    "Scale",
    "Mul",
    "Max",
    "Min",
    "Compose",
    "SMOOTH_PRIMITIVES",
    "DEFAULT_FD_STEPS",
    "eval_expr",
    "qd_at",
    "dini_fd",
    "dini_quotients",
    "is_piecewise_linear",
    "expr_to_json",
    "expr_from_json",
]

# name -> (function, derivative), all total on R and coordinatewise
SMOOTH_PRIMITIVES: dict[str, tuple[Callable, Callable]] = {
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda x: -np.sin(x)),
    "exp": (np.exp, np.exp),
    "sqr": (lambda x: x * x, lambda x: 2.0 * x),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
}

DEFAULT_FD_STEPS = (1e-2, 1e-3, 1e-4, 1e-5)


class Expr:
    """Base class; subclasses define in_dim, out_dim, children, evaluate."""

    in_dim: int
    out_dim: int

    def children(self) -> tuple["Expr", ...]:
        return ()

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _check_point(e: Expr, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != e.in_dim:
        raise DimensionMismatchError(
            f"point has trailing dim {x.shape[-1]}, expression expects {e.in_dim}"
        )
    return x


def eval_expr(e: Expr, x) -> np.ndarray:
    """Evaluate at x of shape (..., n); returns shape (..., m)."""
    return e.evaluate(_check_point(e, x))


def _set_frozen(node: Expr, name: str, value: np.ndarray) -> None:
    """Store value on the frozen node as a contiguous read-only array."""
    value = np.ascontiguousarray(value)
    value.setflags(write=False)
    object.__setattr__(node, name, value)


class _Leaf(Expr):
    """A leaf on R^n, with n a field; it maps into R^n unless it says otherwise."""

    n: int

    @property
    def in_dim(self) -> int:
        return self.n

    @property
    def out_dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class Var(_Leaf):
    """Identity map on R^n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionMismatchError("Var needs n >= 1")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x


@dataclass(frozen=True, eq=False)
class Const(_Leaf):
    """Constant value in R^m, read as a map from R^n."""

    value: np.ndarray
    n: int

    def __post_init__(self) -> None:
        v = np.atleast_1d(np.asarray(self.value, dtype=float))
        if v.ndim != 1 or not np.isfinite(v).all():
            raise DimensionMismatchError("constant must be a finite vector")
        if self.n < 1:
            raise DimensionMismatchError("Const needs n >= 1")
        _set_frozen(self, "value", v)

    @property
    def out_dim(self) -> int:
        return self.value.size

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        shape = x.shape[:-1] + (self.value.size,)
        return np.broadcast_to(self.value, shape)


@dataclass(frozen=True, eq=False)
class Affine(Expr):
    """x -> A x + b."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or not np.isfinite(a).all():
            raise DimensionMismatchError("A must be a finite 2-d matrix")
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if b.shape != (a.shape[0],) or not np.isfinite(b).all():
            raise DimensionMismatchError(f"b must have shape ({a.shape[0]},)")
        _set_frozen(self, "a", a)
        _set_frozen(self, "b", b)

    @property
    def in_dim(self) -> int:
        return self.a.shape[1]

    @property
    def out_dim(self) -> int:
        return self.a.shape[0]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x @ self.a.T + self.b


@dataclass(frozen=True)
class Smooth(_Leaf):
    """A named smooth primitive applied coordinatewise on R^n."""

    name: str
    n: int

    def __post_init__(self) -> None:
        if self.name not in SMOOTH_PRIMITIVES:
            raise SchemaError(
                f"unknown primitive {self.name!r}; known: {sorted(SMOOTH_PRIMITIVES)}"
            )
        if self.n < 1:
            raise DimensionMismatchError("Smooth needs n >= 1")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return SMOOTH_PRIMITIVES[self.name][0](x)


def _match_children(args: Sequence[Expr], what: str) -> None:
    if not args:
        raise DimensionMismatchError(f"{what} needs at least one operand")
    first = args[0]
    for e in args[1:]:
        if e.in_dim != first.in_dim or e.out_dim != first.out_dim:
            raise DimensionMismatchError(
                f"{what} operands disagree on dims: "
                f"({e.in_dim}->{e.out_dim}) vs ({first.in_dim}->{first.out_dim})"
            )


class _Unary(Expr):
    """A node over one operand, arg, whose dims it keeps.

    Not a dataclass: each subclass declares arg among its own fields, so
    that Scale(diag, arg) and Mul(scalar, arg) keep their field order.
    """

    arg: Expr

    @property
    def in_dim(self) -> int:
        return self.arg.in_dim

    @property
    def out_dim(self) -> int:
        return self.arg.out_dim

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)


@dataclass(frozen=True)
class _Fold(Expr):
    """A node over a non-empty tuple of operands of equal dims, evaluated as
    the left fold of their values by the subclass's ufunc, _fold."""

    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        _match_children(self.args, type(self).__name__)

    @property
    def in_dim(self) -> int:
        return self.args[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.args[0].out_dim

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        out = self.args[0].evaluate(x)
        for e in self.args[1:]:
            out = self._fold(out, e.evaluate(x))
        return out


@dataclass(frozen=True)
class Abs(_Unary):
    """Coordinatewise absolute value of a subexpression."""

    arg: Expr

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.abs(self.arg.evaluate(x))


@dataclass(frozen=True)
class Neg(_Unary):
    arg: Expr

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return -self.arg.evaluate(x)


class Add(_Fold):
    """Coordinatewise sum."""

    _fold = np.add


@dataclass(frozen=True, eq=False)
class Scale(_Unary):
    """Constant diagonal scaling of a subexpression's output."""

    diag: np.ndarray
    arg: Expr

    def __post_init__(self) -> None:
        d = np.atleast_1d(np.asarray(self.diag, dtype=float))
        if d.shape != (self.arg.out_dim,) or not np.isfinite(d).all():
            raise DimensionMismatchError(
                f"diag must have shape ({self.arg.out_dim},)"
            )
        _set_frozen(self, "diag", d)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.diag * self.arg.evaluate(x)


@dataclass(frozen=True)
class Mul(_Unary):
    """Coordinatewise product; the first factor acts diagonally."""

    scalar: Expr
    arg: Expr

    def __post_init__(self) -> None:
        _match_children((self.scalar, self.arg), "Mul")

    def children(self) -> tuple[Expr, ...]:
        return (self.scalar, self.arg)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.scalar.evaluate(x) * self.arg.evaluate(x)


class Max(_Fold):
    """Coordinatewise maximum."""

    _fold = np.maximum


class Min(_Fold):
    """Coordinatewise minimum."""

    _fold = np.minimum


@dataclass(frozen=True)
class Compose(Expr):
    """outer applied after inner; dims must chain."""

    outer: Expr
    inner: Expr

    def __post_init__(self) -> None:
        if self.outer.in_dim != self.inner.out_dim:
            raise DimensionMismatchError(
                f"outer expects dim {self.outer.in_dim}, inner produces {self.inner.out_dim}"
            )

    @property
    def in_dim(self) -> int:
        return self.inner.in_dim

    @property
    def out_dim(self) -> int:
        return self.outer.out_dim

    def children(self) -> tuple[Expr, ...]:
        return (self.outer, self.inner)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.outer.evaluate(self.inner.evaluate(x))


# ---------------------------------------------------------------------------
# quasidifferential propagation

def qd_at(
    e: Expr,
    x,
    tol: Tolerance = DEFAULT_TOL,
    eps_active: float = DEFAULT_EPS_ACTIVE,
) -> QuasiDiff:
    """Quasidifferential of the expression at a single point x in R^n.

    Smooth leaves contribute their Jacobians through the linear rule; Abs
    is lowered to max(u, -u) so the supremum rule decides which branches
    are active.  Composition uses the default sandwich bounds (entrywise
    min and max over the outer generators).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (e.in_dim,):
        raise DimensionMismatchError(
            f"qd_at needs a single point of shape ({e.in_dim},), got {x.shape}"
        )
    return _qd(e, x, tol, eps_active)


def _qd(e: Expr, x: np.ndarray, tol: Tolerance, eps: float) -> QuasiDiff:
    if isinstance(e, Var):
        return qd_linear(np.eye(e.n))
    if isinstance(e, Const):
        return qd_linear(np.zeros((e.out_dim, e.n)))
    if isinstance(e, Affine):
        return qd_linear(e.a)
    if isinstance(e, Smooth):
        dphi = SMOOTH_PRIMITIVES[e.name][1](x)
        return qd_linear(np.diag(dphi))
    if isinstance(e, Abs):
        qu = _qd(e.arg, x, tol, eps)
        vu = e.arg.evaluate(x)
        # Negating a linear pair [{A},{0}] stays linear; going through the
        # scale rule would shift the representation to [conv{0,2A},{A}].
        # Same equivalence class, but this keeps abs centered: [conv{+-A},{0}].
        if (
            qu.subd.num_generators == 1
            and qu.supd.num_generators == 1
            and not qu.supd.gens.any()
        ):
            qneg = qd_linear(-qu.subd.gens[0])
        else:
            qneg = qd_scale(-1.0, qu, tol)
        return qd_sup([qu, qneg], np.stack([vu, -vu]), eps, tol)
    if isinstance(e, Neg):
        return qd_scale(-1.0, _qd(e.arg, x, tol, eps), tol)
    if isinstance(e, Add):
        return qd_add([_qd(a, x, tol, eps) for a in e.args], tol)
    if isinstance(e, Scale):
        return qd_scale(e.diag, _qd(e.arg, x, tol, eps), tol)
    if isinstance(e, Mul):
        qg = _qd(e.scalar, x, tol, eps)
        qf = _qd(e.arg, x, tol, eps)
        return qd_product(qg, e.scalar.evaluate(x), qf, e.arg.evaluate(x), tol)
    if isinstance(e, (Max, Min)):
        rule = qd_sup if isinstance(e, Max) else qd_inf
        qds = [_qd(a, x, tol, eps) for a in e.args]
        return rule(qds, np.stack([a.evaluate(x) for a in e.args]), eps, tol)
    if isinstance(e, Compose):
        e0 = e.inner.evaluate(x)
        qg = _qd(e.outer, e0, tol, eps)
        qf = _qd(e.inner, x, tol, eps)
        return qd_compose(qg, qf, tol=tol)
    raise TypeError(f"unknown expression node {type(e).__name__}")


def piece_key(e: Expr, x, eps_active: float = DEFAULT_EPS_ACTIVE) -> tuple[bytes, ...]:
    """Everything qd_at reads from the point x, as a hashable key.

    That is the active mask of every Max, Min and Abs node (Abs over
    [u, -u]), the input of every Smooth leaf, the two factor values of
    every Mul node, and for Compose the key of the outer map at the inner
    value.  For one tree, tolerance and eps_active, equal keys give
    bit-identical pairs: every rule then runs on the same constants in
    the same order.  On a piecewise-linear tree the key is the piece.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (e.in_dim,):
        raise DimensionMismatchError(
            f"piece_key needs a single point of shape ({e.in_dim},), got {x.shape}"
        )
    parts: list[bytes] = []
    _key_walk(e, x, eps_active, parts)
    return tuple(parts)


def _key_walk(e: Expr, x: np.ndarray, eps: float, parts: list[bytes]) -> np.ndarray:
    """Append e's key parts at x to parts and return e's value.

    Each node is evaluated once, from its children's values, with the
    same operations as its evaluate method, so the masks are those _qd
    computes.
    """
    if isinstance(e, (Var, Const, Affine)):
        return e.evaluate(x)
    if isinstance(e, Smooth):
        parts.append(x.tobytes())
        return e.evaluate(x)
    if isinstance(e, Abs):
        v = _key_walk(e.arg, x, eps, parts)
        parts.append(active_mask(np.stack([v, -v]), "max", eps).tobytes())
        return np.abs(v)
    if isinstance(e, Neg):
        return -_key_walk(e.arg, x, eps, parts)
    if isinstance(e, _Fold):  # Add, Max, Min
        vals = [_key_walk(a, x, eps, parts) for a in e.args]
        if not isinstance(e, Add):
            mode = "max" if isinstance(e, Max) else "min"
            parts.append(active_mask(np.stack(vals), mode, eps).tobytes())
        out = vals[0]
        for v in vals[1:]:
            out = e._fold(out, v)
        return out
    if isinstance(e, Scale):
        return e.diag * _key_walk(e.arg, x, eps, parts)
    if isinstance(e, Mul):
        g0 = _key_walk(e.scalar, x, eps, parts)
        f0 = _key_walk(e.arg, x, eps, parts)
        parts.append(g0.tobytes())
        parts.append(f0.tobytes())
        return g0 * f0
    if isinstance(e, Compose):
        return _key_walk(e.outer, _key_walk(e.inner, x, eps, parts), eps, parts)
    raise TypeError(f"unknown expression node {type(e).__name__}")


def is_piecewise_linear(e: Expr) -> bool:
    """Conservative syntactic check: no smooth leaves, no products."""
    if isinstance(e, (Smooth, Mul)):
        return False
    return all(is_piecewise_linear(c) for c in e.children())


# ---------------------------------------------------------------------------
# finite-difference oracle

def _check_steps(steps) -> tuple[float, ...]:
    ts = tuple(float(t) for t in steps)
    if len(ts) < 2:
        raise ValueError("need at least two steps")
    if any(t <= 0.0 for t in ts):
        raise ValueError("steps must be positive")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("steps must be strictly decreasing")
    return ts


def dini_quotients(e: Expr, x, h, steps=DEFAULT_FD_STEPS) -> np.ndarray:
    """Forward difference quotients, one row per step."""
    ts = _check_steps(steps)
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    f0 = eval_expr(e, x)
    pts = np.stack([x + t * h for t in ts])
    vals = eval_expr(e, pts)
    return (vals - f0) / np.array(ts)[:, None]


def dini_fd(e: Expr, x, h, steps=DEFAULT_FD_STEPS) -> np.ndarray:
    """One-sided directional derivative estimate: the last quotient.

    The step ladder is fixed rather than adaptive; use dini_convergence
    for the stagnation diagnostic when judging how far to trust it.
    """
    return dini_quotients(e, x, h, steps)[-1]


def dini_convergence(e: Expr, x, h, steps=DEFAULT_FD_STEPS) -> float:
    """Largest successive max-norm change between quotient rows."""
    q = dini_quotients(e, x, h, steps)
    diffs = np.abs(q[1:] - q[:-1]).max(axis=1)
    return float(diffs.max())


# ---------------------------------------------------------------------------
# JSON form

# A node is {"op": op, field: value, ...} with the fields of the op's class,
# in their declaration order and under their names.
_OPS: dict[str, type] = {
    "var": Var, "const": Const, "affine": Affine, "smooth": Smooth, "abs": Abs, "neg": Neg,
    "add": Add, "scale": Scale, "mul": Mul, "max": Max, "min": Min, "compose": Compose,
}
_OP_NAMES = {cls: op for op, cls in _OPS.items()}

# field -> kind of its value, read by expr_from_json and by the problem-file
# check in cli: an expression, a list of expressions, an integer, a matrix,
# a primitive name or a vector.
_FIELD_KINDS = {
    "arg": "expr", "scalar": "expr", "outer": "expr", "inner": "expr", "args": "exprs",
    "n": "int", "a": "matrix", "name": "name", "value": "vector", "b": "vector", "diag": "vector",
}

# op -> {field: kind}, in the field order of the op's class.
_NODE_FIELDS = {
    op: {f.name: _FIELD_KINDS[f.name] for f in fields(cls)} for op, cls in _OPS.items()
}


def expr_to_json(e: Expr) -> dict:
    """The JSON form: the node's op, then its fields in declaration order."""
    op = _OP_NAMES.get(type(e))
    if op is None:
        raise TypeError(f"unknown expression node {type(e).__name__}")
    out = {"op": op}
    for name, kind in _NODE_FIELDS[op].items():
        value = getattr(e, name)
        if kind == "expr":
            value = expr_to_json(value)
        elif kind == "exprs":
            value = [expr_to_json(a) for a in value]
        elif kind in ("matrix", "vector"):
            value = value.tolist()
        out[name] = value
    return out


def expr_from_json(obj) -> Expr:
    """Parse the JSON form; unknown ops or stray fields are rejected."""
    if not isinstance(obj, dict):
        raise SchemaError(f"expression node must be an object, got {type(obj).__name__}")
    op = obj.get("op")
    node_fields = _NODE_FIELDS.get(op) if isinstance(op, str) else None
    if node_fields is None:
        raise SchemaError(f"unknown expression op {op!r}")
    if len(obj) != len(node_fields) + 1 or not node_fields.keys() <= obj.keys():
        extra = obj.keys() - node_fields.keys() - {"op"}
        if extra:
            raise SchemaError(f"unknown fields {sorted(extra)} on op {op!r}")
        raise SchemaError(f"missing fields {sorted(node_fields.keys() - obj.keys())} on op {op!r}")
    try:
        values = []
        for name, kind in node_fields.items():
            value = obj[name]
            if kind == "expr":
                value = expr_from_json(value)
            elif kind == "exprs":
                # map adds no Python frame per level, so deep files still load
                value = tuple(map(expr_from_json, value))
            elif kind == "int":
                value = int(value)
            elif kind == "name":
                value = str(value)
            else:  # matrix, vector
                value = np.asarray(value, dtype=float)
            values.append(value)
        return _OPS[op](*values)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, DimensionMismatchError):
            raise
        raise SchemaError(f"malformed {op!r} node: {exc}") from exc
