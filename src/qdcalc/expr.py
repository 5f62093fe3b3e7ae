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
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SchemaError
from .geometry import (_DISTINCT_PAIR, OperatorPolytope, _frozen, _is_zero_point,
                       _vertex_polytope, convex_union, linop)
from .qdcore import (
    DEFAULT_EPS_ACTIVE,
    QuasiDiff,
    _scale,
    _selections,
    active_mask,
    qd_add,
    qd_compose,
    qd_inf,
    qd_product,
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
    "dini_convergence",
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


def _finite_value(e: Expr, x) -> np.ndarray:
    """eval_expr(e, x) at a single point; NonFiniteError, and no numpy
    warning, where an entry overflowed or is inf - inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = eval_expr(e, x)
    if not np.isfinite(v).all():
        raise NonFiniteError(f"value {v.tolist()!r} at the point is not finite")
    return v


def _set_frozen(node: Expr, name: str, value: np.ndarray) -> None:
    """Store a read-only copy of value on the frozen node."""
    object.__setattr__(node, name, _frozen(np.array(value, order="C")))


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
        try:
            a = np.asarray(self.a, dtype=float)
        except ValueError:  # name the first row of a ragged list of rows
            rows = [len(r) if isinstance(r, (list, tuple)) else None for r in self.a]
            ragged = [i for i, k in enumerate(rows) if k != rows[0]]
            if None in rows or not ragged:
                raise
            i = ragged[0]
            raise DimensionMismatchError(
                f"row {i} of A has length {rows[i]}, expected {rows[0]}") from None
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
            reads.append((self._mode, np.array(vals)))
        return functools.reduce(self._fold, vals)


@dataclass(frozen=True)
class Abs(_Unary):
    """Coordinatewise absolute value of a subexpression."""

    arg: Expr

    def _eval(self, x: np.ndarray, reads: Optional[list]) -> np.ndarray:
        v = self.arg._eval(x, reads)
        if reads is not None:
            reads.append(("max", np.array([v, -v])))
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
    are active.  Composition sandwiches the outer generators between
    their entrywise min and max.  Linear pairs travel as their
    operators, a max of linear maps (an abs among them) at m = 1 is
    decided from its values alone, its tied kink formed as the two
    vertices with no prune, and a Neg, or a Scale with d > 0, of a pair
    whose halves are vertex lists is formed row by row; every pair comes
    out with the bits the rules give.
    """
    return _as_pair(_qd(e, iter(_reads(e, x, "qd_at")), eps_active))


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
    """q is a linear pair [{T}, {0}]."""
    return q.subd.num_generators == 1 and _is_zero_point(q.supd)


def _operator(q) -> Optional[np.ndarray]:
    """The operator T of a linear pair, bare or [{T}, {0}]; else None."""
    if isinstance(q, np.ndarray):
        return q
    return q.subd.gens[0] if _is_linear(q) else None


def _as_pair(q) -> QuasiDiff:
    """q itself, or [{T}, {0}] for a bare operator T, as qd_linear(T) gives it."""
    if isinstance(q, QuasiDiff):
        return q
    return QuasiDiff(OperatorPolytope(q[None]), OperatorPolytope.zero(*q.shape))


def _finite(T: np.ndarray) -> np.ndarray:
    """T; NonFiniteError where an entry overflowed, as OperatorPolytope raises it."""
    if not np.isfinite(T).all():
        raise NonFiniteError("generator entries must be finite")
    return T


def _row_scale(d: np.ndarray, q):
    """qd_scale(d, q), bit for bit: a linear pair scaled by d > 0 stays the
    bare operator d T, and every other pair goes to qdcore._scale."""
    T = _operator(q)
    if T is not None and (d > 0.0).all():
        return _finite(T * d[:, None])
    return _scale(d, _as_pair(q))


def _linear_max(ops: list, values: np.ndarray, eps: float):
    """qd_sup of the linear pairs [{ops[k]}, {0}] of (m, n) operators, bit for bit.

    At m = 1 the operands that attain the max decide it: one gives its
    operator bare, and two that differ by more than _DISTINCT_PAIR, as at
    the kink of |u| = max(u, -u), are the two vertices the prune keeps,
    formed as their vertex list with {0} and no prune.  Otherwise each
    selection of attaining operands, in the order of qdcore._selections,
    gives one generator whose row j is row j of ops[choice[j]], as
    _selection_polytope assembles it from the mixed polytopes ops[k] +
    {0}, and their union is pruned as in qd_sup.
    """
    m, n = ops[0].shape
    if m == 1:
        top = (values[:, 0] >= values.max() - eps).nonzero()[0].tolist()
        if len(top) == 1:
            return ops[top[0]]
        if len(top) == 2 and np.abs(ops[top[0]] - ops[top[1]]).max() > _DISTINCT_PAIR:
            gens = np.array([ops[top[0]], ops[top[1]]])
            return QuasiDiff(_vertex_polytope(gens), OperatorPolytope.zero(m, n))
    choices = np.array(_selections(active_mask(values, "max", eps)), dtype=np.intp)
    gens = np.array(ops)[choices.reshape(-1, m), np.arange(m)]
    return QuasiDiff(convex_union([OperatorPolytope(gens)]), OperatorPolytope.zero(m, n))


def _qd(e: Expr, reads: Iterator, eps: float):
    """The pair of e by the rules of qdcore, at the point whose walk
    recorded reads; each node takes its entries after its operands'.

    A linear pair comes back as its bare (m, n) operator T, which
    _as_pair wraps as [{T}, {0}] where a rule needs a pair.  A Scale with
    d > 0 or an Add whose operands are linear pairs (_operator) gives the
    operator the rule would, formed from theirs directly: with the same
    bytes once wrapped (a polytope stores no -0.0, so a bare operator's
    -0.0 entries never show) and the same NonFiniteError on overflow.
    An Abs of a linear pair T is the max of T and -T, and it and a Max
    of linear pairs are decided by _linear_max.  Every other Scale, a
    Neg and the negated operand of any other Abs go to qdcore._scale
    (_row_scale), and every other node goes through its rule.
    """
    if isinstance(e, Var):
        return np.eye(e.n)
    if isinstance(e, Const):
        return np.zeros((e.out_dim, e.n))
    if isinstance(e, Affine):
        return e.a
    if isinstance(e, Smooth):
        return linop(np.diag(SMOOTH_PRIMITIVES[e.name][1](next(reads))))
    if isinstance(e, Abs):
        qu = _qd(e.arg, reads, eps)
        _, vals = next(reads)
        T = _operator(qu)
        if T is not None:
            return _linear_max([T, -T], vals, eps)
        qneg = _row_scale(np.full(e.out_dim, -1.0), qu)
        return qd_sup([qu, qneg], vals, eps)
    if isinstance(e, Neg):
        return _row_scale(np.full(e.out_dim, -1.0), _qd(e.arg, reads, eps))
    if isinstance(e, Add):
        qds = [_qd(a, reads, eps) for a in e.args]
        ops = [_operator(q) for q in qds]
        if all(T is not None for T in ops):
            # checked at every step, so it overflows where qd_add's sums would
            T = ops[0]
            for U in ops[1:]:
                T = _finite(T + U)
            return T
        return qd_add([_as_pair(q) for q in qds])
    if isinstance(e, Scale):
        return _row_scale(e.diag, _qd(e.arg, reads, eps))
    if isinstance(e, Mul):
        qg = _as_pair(_qd(e.scalar, reads, eps))
        qf = _as_pair(_qd(e.arg, reads, eps))
        return qd_product(qg, next(reads), qf, next(reads))
    if isinstance(e, (Max, Min)):
        qds = [_qd(a, reads, eps) for a in e.args]
        _, vals = next(reads)
        ops = [_operator(q) for q in qds]
        if isinstance(e, Max) and all(T is not None for T in ops):
            return _linear_max(ops, vals, eps)
        rule = qd_sup if isinstance(e, Max) else qd_inf
        return rule([_as_pair(q) for q in qds], vals, eps)
    if isinstance(e, Compose):
        return qd_compose(_as_pair(_qd(e.outer, reads, eps)), _as_pair(_qd(e.inner, reads, eps)))
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
            elif kind == "vector":
                value = np.asarray(value, dtype=float)
            # a matrix goes to Affine as it is, which names a ragged row
            values.append(value)
        return _OPS[op](*values)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, DimensionMismatchError):
            raise
        raise SchemaError(f"malformed {op!r} node: {exc}") from exc
