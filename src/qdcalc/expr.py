"""Expression trees for nonsmooth vector maps R^n -> R^m.

Leaves are the identity (Var), constants, affine maps, and coordinatewise
smooth primitives with closed-form derivatives.  Interior nodes are
negation, sums, diagonal scaling, pointwise max/min, diagonal products,
and composition.  Absolute value is sugar: it evaluates directly but its
quasidifferential is taken through the max(u, -u) lowering.

Evaluation broadcasts over a leading batch axis, which the brute-force
oracles in the test suite rely on.  qd_at and piece_key evaluate the tree
once per base point, and that walk records, in post-order, everything the
rules read from the point: the stacked operand values of every Max, Min
and Abs node, the input of every Smooth leaf and the two factors of every
Mul node.  piece_key reduces the record to bytes; qd_at derives the pair
from it and evaluates nothing again.  dini_fd is the independent one-sided
finite-difference oracle used to cross-check the pair.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, SchemaError
from .geometry import OperatorPolytope, _is_zero_point, convex_union
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

# The strictly decreasing step ladder of the finite-difference oracle.
DEFAULT_FD_STEPS = (1e-2, 1e-3, 1e-4, 1e-5)


class Expr:
    """Base class; subclasses define in_dim, out_dim, children, _eval."""

    in_dim: int
    out_dim: int

    def children(self) -> tuple["Expr", ...]:
        return ()

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self._eval(x, None)

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
        """The value at x.  Where reads is a list, every node appends to it,
        after its operands, what its rule reads from the point: (mode,
        stacked operand values) for Max, Min and Abs, the input for Smooth,
        and the two factors for Mul.  Compose puts the outer map's entries
        before the inner map's, the order in which _qd derives them."""
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

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
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

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
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

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
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

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
        if reads is not None:
            reads.append(x)
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
    the left fold of their values by the subclass's ufunc, _fold.  A Max
    or Min records its operand values under its _mode; an Add records
    nothing."""

    args: tuple[Expr, ...]
    _mode = None

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

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
        vals = [a._eval(x, reads) for a in self.args]
        if reads is not None and self._mode:
            reads.append((self._mode, np.stack(vals)))
        return functools.reduce(self._fold, vals)


@dataclass(frozen=True)
class Abs(_Unary):
    """Coordinatewise absolute value of a subexpression."""

    arg: Expr

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
        v = self.arg._eval(x, reads)
        if reads is not None:
            reads.append(("max", np.stack([v, -v])))
        return np.abs(v)


@dataclass(frozen=True)
class Neg(_Unary):
    arg: Expr

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
        return -self.arg._eval(x, reads)


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

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
        return self.diag * self.arg._eval(x, reads)


@dataclass(frozen=True)
class Mul(_Unary):
    """Coordinatewise product; the first factor acts diagonally."""

    scalar: Expr
    arg: Expr

    def __post_init__(self) -> None:
        _match_children((self.scalar, self.arg), "Mul")

    def children(self) -> tuple[Expr, ...]:
        return (self.scalar, self.arg)

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
        g = self.scalar._eval(x, reads)
        f = self.arg._eval(x, reads)
        if reads is not None:
            reads += (g, f)
        return g * f


class Max(_Fold):
    """Coordinatewise maximum."""

    _fold = np.maximum
    _mode = "max"


class Min(_Fold):
    """Coordinatewise minimum."""

    _fold = np.minimum
    _mode = "min"


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

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
        inner = None if reads is None else []
        out = self.outer._eval(self.inner._eval(x, inner), reads)
        if reads is not None:
            reads += inner
        return out


# ---------------------------------------------------------------------------
# quasidifferential propagation

def qd_at(e: Expr, x, eps_active: float = DEFAULT_EPS_ACTIVE) -> QuasiDiff:
    """Quasidifferential of the expression at a single point x in R^n.

    Smooth leaves contribute their Jacobians through the linear rule; Abs
    is lowered to max(u, -u) so the supremum rule decides which branches
    are active.  Composition uses the default sandwich bounds (entrywise
    min and max over the outer generators).  Where the operands of a
    positive Scale, an Abs, an Add or a Max are linear pairs, the node's
    pair is formed from their operators, with the bits the rules give.
    """
    return _qd(e, iter(_reads(e, x, "qd_at")), eps_active)


def _reads(e: Expr, x, caller: str) -> list:
    """What the rules read from the single point x, recorded by one walk.

    The walk also evaluates nodes that no rule reads, such as a root Add,
    whose value may be inf - inf; numpy warns about none of it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (e.in_dim,):
        raise DimensionMismatchError(
            f"{caller} needs a single point of shape ({e.in_dim},), got {x.shape}"
        )
    reads: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        e._eval(x, reads)
    return reads


def _is_linear(q: QuasiDiff) -> bool:
    """q is a linear pair [{T}, {0}], every entry of its {0} +0.0."""
    return q.subd.num_generators == 1 and _is_zero_point(q.supd)


def _linear_pair(gens: np.ndarray) -> QuasiDiff:
    """[conv gens, {0}]; NonFiniteError where an entry overflowed."""
    _, m, n = gens.shape
    return QuasiDiff(OperatorPolytope(gens), OperatorPolytope.zero(m, n))


def _linear_max(ops: np.ndarray, values: np.ndarray, eps: float) -> QuasiDiff:
    """qd_sup of the linear pairs [{ops[k]}, {0}], bit for bit.

    Each selection of attaining operands, in the order of
    ActiveWeightSelection.enumerate, gives one generator whose row j is
    row j of ops[choice[j]] plus 0.0, as _selection_polytope assembles
    it from the mixed polytopes ops[k] + {0}.  The union of several is
    pruned as in qd_sup.  A value that attains nowhere (NaN) leaves no
    selection, and convex_union raises as there.
    """
    _, m, n = ops.shape
    mask = active_mask(values, "max", eps)
    rows = np.arange(m)
    if mask.sum() == m and mask.any(axis=0).all():  # one operand per coordinate
        return _linear_pair(ops[mask.argmax(axis=0), rows][None] + 0.0)
    choices = list(itertools.product(*(np.flatnonzero(col) for col in mask.T)))
    gens = ops[np.array(choices, dtype=np.intp).reshape(-1, m), rows] + 0.0
    parts = [OperatorPolytope(gens)] if choices else []
    return QuasiDiff(convex_union(parts), OperatorPolytope.zero(m, n))


def _qd(e: Expr, reads: Iterator, eps: float) -> QuasiDiff:
    """The pair of e by the rules of qdcore, at the point whose walk
    recorded reads; each node takes its entries after its operands'.

    Where every operand of a positive Scale, an Abs, an Add or a Max is
    a linear pair (_is_linear), the node's pair comes from their
    operators directly, as the rule would give it: with the same bytes
    (a Minkowski sum with {0} adds 0.0, which turns -0.0 into +0.0), the
    same vertex-list mark, the same {0} and the same NonFiniteError on
    overflow.  Every other node goes through its rule.
    """
    if isinstance(e, Var):
        return qd_linear(np.eye(e.n))
    if isinstance(e, Const):
        return qd_linear(np.zeros((e.out_dim, e.n)))
    if isinstance(e, Affine):
        return qd_linear(e.a)
    if isinstance(e, Smooth):
        return qd_linear(np.diag(SMOOTH_PRIMITIVES[e.name][1](next(reads))))
    if isinstance(e, Abs):
        qu = _qd(e.arg, reads, eps)
        _, vals = next(reads)
        if _is_linear(qu):
            return _linear_max(np.concatenate([qu.subd.gens, -qu.subd.gens]), vals, eps)
        # Negating a linear pair [{A},{0}] stays linear; going through the
        # scale rule would shift the representation to [conv{0,2A},{A}].
        # Same equivalence class, but this keeps abs centered: [conv{+-A},{0}].
        # A {0} with -0.0 entries is no linear pair above, but counts here.
        if (
            qu.subd.num_generators == 1
            and qu.supd.num_generators == 1
            and not qu.supd.gens.any()
        ):
            qneg = qd_linear(-qu.subd.gens[0])
        else:
            qneg = qd_scale(-1.0, qu)
        return qd_sup([qu, qneg], vals, eps)
    if isinstance(e, Neg):
        return qd_scale(-1.0, _qd(e.arg, reads, eps))
    if isinstance(e, Add):
        qds = [_qd(a, reads, eps) for a in e.args]
        if len(qds) > 1 and all(map(_is_linear, qds)):
            # checked at every step, so it overflows where qd_add's sums would
            sub = qds[0].subd
            for q in qds[1:]:
                sub = OperatorPolytope(sub.gens + q.subd.gens)
            return QuasiDiff(sub, OperatorPolytope.zero(*sub.dims))
        return qd_add(qds)
    if isinstance(e, Scale):
        qu = _qd(e.arg, reads, eps)
        if _is_linear(qu) and (e.diag > 0.0).all():
            return _linear_pair(qu.subd.gens * e.diag[:, None] + 0.0)
        return qd_scale(e.diag, qu)
    if isinstance(e, Mul):
        qg = _qd(e.scalar, reads, eps)
        qf = _qd(e.arg, reads, eps)
        return qd_product(qg, next(reads), qf, next(reads))
    if isinstance(e, (Max, Min)):
        qds = [_qd(a, reads, eps) for a in e.args]
        _, vals = next(reads)
        if isinstance(e, Max) and all(map(_is_linear, qds)):
            return _linear_max(np.concatenate([q.subd.gens for q in qds]), vals, eps)
        rule = qd_sup if isinstance(e, Max) else qd_inf
        return rule(qds, vals, eps)
    if isinstance(e, Compose):
        return qd_compose(_qd(e.outer, reads, eps), _qd(e.inner, reads, eps))
    raise TypeError(f"unknown expression node {type(e).__name__}")


def piece_key(e: Expr, x, eps_active: float = DEFAULT_EPS_ACTIVE) -> tuple[bytes, ...]:
    """Everything qd_at reads from the point x, as a hashable key.

    That is the active mask of every Max, Min and Abs node (Abs over
    [u, -u]), the input of every Smooth leaf, and the two factor values of
    every Mul node, in the order of the walk that qd_at derives from (for
    Compose, the outer map's parts at the inner value come first).  For
    one tree and eps_active, equal keys give bit-identical pairs: every
    rule then runs on the same constants in the same order.  On a
    piecewise-linear tree the key is the piece.
    """
    return tuple(
        active_mask(r[1], r[0], eps_active).tobytes() if isinstance(r, tuple) else r.tobytes()
        for r in _reads(e, x, "piece_key")
    )


def is_piecewise_linear(e: Expr) -> bool:
    """Conservative syntactic check: no smooth leaves, no products."""
    if isinstance(e, (Smooth, Mul)):
        return False
    return all(is_piecewise_linear(c) for c in e.children())


# ---------------------------------------------------------------------------
# finite-difference oracle

def dini_quotients(e: Expr, x, h) -> np.ndarray:
    """Forward difference quotients, one row per step of DEFAULT_FD_STEPS."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    f0 = eval_expr(e, x)
    pts = np.stack([x + t * h for t in DEFAULT_FD_STEPS])
    vals = eval_expr(e, pts)
    return (vals - f0) / np.array(DEFAULT_FD_STEPS)[:, None]


def dini_fd(e: Expr, x, h) -> np.ndarray:
    """One-sided directional derivative estimate: the last quotient.

    The step ladder is fixed rather than adaptive; use dini_convergence
    for the stagnation diagnostic when judging how far to trust it.
    """
    return dini_quotients(e, x, h)[-1]


def dini_convergence(e: Expr, x, h) -> float:
    """Largest successive max-norm change between quotient rows."""
    q = dini_quotients(e, x, h)
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
