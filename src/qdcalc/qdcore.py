"""Quasidifferential pairs and their propagation rules.

A quasidifferential of a map f: R^n -> R^m at a point is an ordered pair
[subd, supd] of operator polytopes whose support functions reproduce the
directional derivative:

    f'(x0) h = sup_{S in subd} (S h)  -  sup_{T in supd} (T h),

both suprema taken coordinatewise.  The pair is not unique; all rules
here are exact at the level of support functions, which is also what the
tests compare.  Scalar weights act through orthomorphisms, which in
coordinates are just diagonal matrices; band projections are 0/1
diagonals.  For a scalar row the identity is the only nonzero band
projection.

Each rule is written once.  The pointwise minimum is the order dual of
the maximum, one body with the roles of the halves swapped.  Scaling
takes its sums unless both halves are vertex lists and the diagonal is
-1, where the halves swap, or positive, where the rows of each half are
scaled directly.  A polytope never stores -0.0, so these shortcuts give
the bits of the sums without adding {0}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, UnsupportedDimensionError
from .geometry import (
    OperatorPolytope,
    _frozen,
    _is_vertex_list,
    _is_zero_point,
    _sum,
    _unique_rows,
    _vertex_polytope,
    convex_union,
    minkowski_sum,
    prune,
    support,
)

__all__ = [
    "Orthomorphism",
    "QuasiDiff",
    "DEFAULT_EPS_ACTIVE",
    "COMPOSE_DIM_CAP",
    "qd_linear",
    "qd_add",
    "qd_scale",
    "qd_sup",
    "qd_inf",
    "qd_product",
    "qd_compose",
    "qd_eval_dir",
    "diag_scale",
]

# Coordinates of R^m that agree with the max/min within this slack count
# as attaining it; selections are enumerated over those.
DEFAULT_EPS_ACTIVE = 1e-9

# The composition rule enumerates per-coordinate generator selections of
# the inner pair, which is exponential in the intermediate dimension.
COMPOSE_DIM_CAP = 8


@dataclass(frozen=True, eq=False)
class Orthomorphism:
    """Diagonal action on R^m, stored as a read-only copy of the diagonal."""

    diag: np.ndarray

    def __post_init__(self) -> None:
        d = np.atleast_1d(np.asarray(self.diag, dtype=float))
        if d.ndim != 1 or d.size < 1 or not np.isfinite(d).all():
            raise DimensionMismatchError("diagonal must be a finite 1-d vector")
        object.__setattr__(self, "diag", _frozen(np.array(d, order="C")))

    @property
    def dim(self) -> int:
        return self.diag.size


@dataclass(frozen=True, eq=False)
class QuasiDiff:
    """Pair [subd, supd] of operator polytopes with matching dims."""

    subd: OperatorPolytope
    supd: OperatorPolytope

    def __post_init__(self) -> None:
        if self.subd.dims != self.supd.dims:
            raise DimensionMismatchError(
                f"subd dims {self.subd.dims} and supd dims {self.supd.dims} disagree"
            )

    @property
    def dims(self) -> tuple[int, int]:
        return self.subd.dims

    def __repr__(self) -> str:
        m, n = self.dims
        return (
            f"QuasiDiff(dims=({m}, {n}), "
            f"subd k={self.subd.num_generators}, supd k={self.supd.num_generators})"
        )


def active_mask(values, mode: str, eps_active: float = DEFAULT_EPS_ACTIVE) -> np.ndarray:
    """Boolean (operands, m) mask of the operands attaining the max or min.

    values has one row per operand; mode is "max" or "min".  An operand
    attains at coordinate j when it matches the extreme value within
    eps_active.  This is all the max/min rules read from the base point.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise DimensionMismatchError("values must have shape (operands, m)")
    if mode == "max":
        return vals >= vals.max(axis=0) - eps_active
    if mode == "min":
        return vals <= vals.min(axis=0) + eps_active
    raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")


def _selections(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Every choice of one attaining operand per coordinate of an active mask.

    These are the extreme points of the weight systems a pointwise
    supremum or infimum admits: any admissible system is a coordinatewise
    convex mixture of selections, so it is enough to enumerate them.  The
    order is that of itertools.product, coordinate 0 slowest; a coordinate
    where nothing attains holds a NaN value, and raises NonFiniteError.
    """
    cols = [np.flatnonzero(col).tolist() for col in mask.T]
    if not all(cols):
        raise NonFiniteError(f"a max, min or abs operand is NaN at coordinate {cols.index([])}")
    return list(itertools.product(*cols))


# ---------------------------------------------------------------------------
# elementary rules

def diag_scale(d: np.ndarray, P: OperatorPolytope) -> OperatorPolytope:
    """Image of a polytope under a diagonal left action (rows scaled).

    With no zero on the diagonal the action is injective, so a vertex
    list stays a vertex list; the zero diagonal maps everything, and a
    finite one maps {0}, to the shared zero operator.
    """
    d = np.asarray(d, dtype=float)
    m, n = P.dims
    if d.shape != (m,):
        raise DimensionMismatchError(f"diagonal must have shape ({m},), got {d.shape}")
    if not d.any() or (_is_zero_point(P) and np.isfinite(d).all()):
        return OperatorPolytope.zero(m, n)
    gens = P.gens * d[None, :, None]
    if P._vertex_list and d.all():
        return _vertex_polytope(gens)
    return OperatorPolytope(gens)


def qd_linear(T) -> QuasiDiff:
    """Quasidifferential of a linear map: [{T}, {0}]."""
    P = OperatorPolytope.singleton(T)
    return QuasiDiff(P, OperatorPolytope.zero(*P.dims))


def qd_add(qs: Sequence[QuasiDiff]) -> QuasiDiff:
    """Sum rule: both halves add in the Minkowski sense."""
    if not qs:
        raise DimensionMismatchError("qd_add needs at least one operand")
    return QuasiDiff(_sum([q.subd for q in qs]), _sum([q.supd for q in qs]))


def _as_orthomorphism(alpha, m: int) -> Orthomorphism:
    if isinstance(alpha, Orthomorphism):
        if alpha.dim != m:
            raise DimensionMismatchError(f"orthomorphism dim {alpha.dim}, expected {m}")
        return alpha
    a = np.asarray(alpha, dtype=float)
    if a.ndim == 0:
        return Orthomorphism(np.full(m, float(a)))
    return _as_orthomorphism(Orthomorphism(a), m)


def qd_scale(alpha, q: QuasiDiff) -> QuasiDiff:
    """Scaling by an orthomorphism, splitting positive and negative parts.

    With alpha = alpha+ - alpha-, the pair becomes
    [alpha+ subd + alpha- supd, alpha- subd + alpha+ supd]; for a
    negative scalar the roles of the halves simply swap.
    """
    return _scale(_as_orthomorphism(alpha, q.dims[0]).diag, q)


def _scale(d: np.ndarray, q: QuasiDiff) -> QuasiDiff:
    """qd_scale by the checked diagonal d.

    Where both halves are vertex lists, d = -1 swaps the halves and a
    positive d scales each half by diag_scale: the sums with {0} the rule
    forms would add nothing.  Every other diagonal, or an unmarked half,
    goes through the sums, whose zero identity gives the same bits for a
    negative d.
    """
    if _is_vertex_list(q.subd) and _is_vertex_list(q.supd):
        if (d == -1.0).all():
            return QuasiDiff(q.supd, q.subd)
        if (d > 0.0).all():
            return QuasiDiff(diag_scale(d, q.subd), diag_scale(d, q.supd))
    pos, neg = np.maximum(d, 0.0), np.maximum(-d, 0.0)
    sub = minkowski_sum(diag_scale(pos, q.subd), diag_scale(neg, q.supd))
    sup = minkowski_sum(diag_scale(neg, q.subd), diag_scale(pos, q.supd))
    return QuasiDiff(sub, sup)


def qd_eval_dir(q: QuasiDiff, h) -> np.ndarray:
    """Directional derivative: support of subd minus support of supd."""
    h = np.asarray(h, dtype=float)
    return support(q.subd, h) - support(q.supd, h)


# ---------------------------------------------------------------------------
# pointwise suprema and infima

def _check_operands(qs: Sequence[QuasiDiff], values) -> np.ndarray:
    if not qs:
        raise DimensionMismatchError("need at least one operand")
    dims = qs[0].dims
    for q in qs[1:]:
        if q.dims != dims:
            raise DimensionMismatchError(f"operand dims disagree: {q.dims} vs {dims}")
    vals = np.asarray(values, dtype=float)
    if vals.shape != (len(qs), dims[0]):
        raise DimensionMismatchError(
            f"values must have shape ({len(qs)}, {dims[0]}), got {vals.shape}"
        )
    return vals


def _around_sums(parts: list[OperatorPolytope]) -> list[OperatorPolytope]:
    """For each k, the Minkowski sum of all parts except the k-th."""
    r = len(parts)
    m, n = parts[0].dims
    zero = OperatorPolytope.zero(m, n)
    prefix = [zero]
    for P in parts[:-1]:
        prefix.append(minkowski_sum(prefix[-1], P))
    suffix = [zero]
    for P in reversed(parts[1:]):
        suffix.append(minkowski_sum(suffix[-1], P))
    suffix.reverse()
    return [minkowski_sum(prefix[k], suffix[k]) for k in range(r)]


def _selection_polytope(
    sel: tuple[int, ...], mixed: dict[int, OperatorPolytope]
) -> OperatorPolytope:
    """Polytope of one extreme weight system.

    Coordinates are split among the chosen operands; a generator picks
    one generator of each operand's mixed polytope and keeps its rows on
    the coordinates assigned to that operand.  The generators come in
    itertools.product order over the used operands, ascending, so row j
    is a gather from the operand sel[j] along the index grid.  A
    selection that uses one operand at every coordinate is that
    operand's mixed polytope.
    """
    used = sorted(set(sel))
    if len(used) == 1:
        return mixed[used[0]]
    grid = np.indices([mixed[k].num_generators for k in used]).reshape(len(used), -1)
    rows = [mixed[c].gens[grid[used.index(c)], j] for j, c in enumerate(sel)]
    return OperatorPolytope(np.stack(rows, axis=1))


def _extremum(
    qs: Sequence[QuasiDiff], values, eps_active: float, mode: str
) -> QuasiDiff:
    """qd_sup for mode "max"; for "min" the roles of the halves swap."""
    vals = _check_operands(qs, values)
    halves = [(q.subd, q.supd) if mode == "max" else (q.supd, q.subd) for q in qs]
    opposites = [opposite for _, opposite in halves]
    total, others = _sum(opposites), _around_sums(opposites)
    selections = _selections(active_mask(vals, mode, eps_active))
    needed = {k for sel in selections for k in sel}
    mixed = {k: minkowski_sum(halves[k][0], others[k]) for k in needed}
    hull = convex_union([_selection_polytope(sel, mixed) for sel in selections])
    return QuasiDiff(hull, total) if mode == "max" else QuasiDiff(total, hull)


def qd_sup(
    qs: Sequence[QuasiDiff], values, eps_active: float = DEFAULT_EPS_ACTIVE
) -> QuasiDiff:
    """Pointwise maximum of finitely many maps.

    The superdifferential is the Minkowski sum of the operand
    superdifferentials.  The subdifferential is the hull of the union
    over extreme weight selections of subd_k mixed with the other
    operands' superdifferentials; only operands attaining the maximum at
    a coordinate (within eps_active) may be selected there.  When every
    superdifferential is {0}, mixing adds nothing: the pair is the hull
    over selections of the active subd_k, assembled row by row, and {0}
    (Demyanov & Rubinov 1995); the sums of the {0} halves are {0} itself,
    by the zero identity of the sum.  A coordinate where a value is NaN
    attains nowhere and raises NonFiniteError.
    """
    return _extremum(qs, values, eps_active, "max")


def qd_inf(
    qs: Sequence[QuasiDiff], values, eps_active: float = DEFAULT_EPS_ACTIVE
) -> QuasiDiff:
    """Pointwise minimum; the order dual of qd_sup.

    The roles of the halves swap: when every subdifferential is {0}, the
    pair is {0} and the hull over selections of the active supd_k.
    """
    return _extremum(qs, values, eps_active, "min")


# ---------------------------------------------------------------------------
# products

def qd_product(qg: QuasiDiff, g0, qf: QuasiDiff, f0) -> QuasiDiff:
    """Product with a diagonal-valued factor, evaluated at the base point.

    g acts on the values of f through its diagonal, so both pairs share
    the dims (m, n) and the base values g0, f0 live in R^m.  The rule
    splits each value into positive and negative parts:

        subd(gf) = g0+ subd f + g0- supd f + f0+ subd g + f0- supd g
        supd(gf) = g0+ supd f + g0- subd f + f0+ supd g + f0- subd g
    """
    if qg.dims != qf.dims:
        raise DimensionMismatchError(f"operand dims disagree: {qg.dims} vs {qf.dims}")
    m, _ = qf.dims
    g0 = np.asarray(g0, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    if g0.shape != (m,) or f0.shape != (m,):
        raise DimensionMismatchError(f"base values must have shape ({m},)")
    gp, gn = np.maximum(g0, 0.0), np.maximum(-g0, 0.0)
    fp, fn = np.maximum(f0, 0.0), np.maximum(-f0, 0.0)
    sub = _sum([diag_scale(gp, qf.subd), diag_scale(gn, qf.supd),
                diag_scale(fp, qg.subd), diag_scale(fn, qg.supd)])
    sup = _sum([diag_scale(gp, qf.supd), diag_scale(gn, qf.subd),
                diag_scale(fp, qg.supd), diag_scale(fn, qg.subd)])
    return QuasiDiff(sub, sup)


# ---------------------------------------------------------------------------
# composition

def _sandwich_support_set(
    C: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    sub_rows: list[np.ndarray],
    sup_rows: list[np.ndarray],
    l: int,
    n: int,
) -> OperatorPolytope:
    """Support set of h -> (C - lo) p(h) + (hi - C) q(h).

    p and q are the coordinatewise supports of the inner pair.  Each
    intermediate coordinate i contributes the factor
    column_i (x) conv(rows_i), and the whole set is their Minkowski sum.
    Intermediate stacks are pruned once they grow past a work cap.
    """
    acc = np.zeros((1, l, n))
    m = len(sub_rows)
    for i in range(m):
        for col, rows in ((C[:, i] - lo[:, i], sub_rows[i]), (hi[:, i] - C[:, i], sup_rows[i])):
            if not np.any(np.abs(col) > 0.0) or rows.shape[0] == 0:
                continue
            factor = col[None, :, None] * rows[:, None, :]  # (u, l, n)
            acc = (acc[:, None, :, :] + factor[None, :, :, :]).reshape(-1, l, n)
            if acc.shape[0] > 96:
                acc = prune(OperatorPolytope(acc)).gens
    return prune(OperatorPolytope(acc))


def qd_compose(qg: QuasiDiff, qf: QuasiDiff) -> QuasiDiff:
    """Chain rule through an increasing sandwich of the outer pair.

    qg is the pair of the outer map at the inner value (dims (l, m)), qf
    of the inner map at the base point (dims (m, n)).  The sandwich
    bounds lo <= C <= hi are the entrywise min and max over all outer
    generators C, which always qualify (Demyanov & Rubinov 1995).  Both
    halves of the result collect the support sets of

        P_C(h) = (C - lo) sup_S (S h) + (hi - C) sup_T (T h)

    over the respective outer generators C.
    """
    l, m = qg.dims
    m2, n = qf.dims
    if m != m2:
        raise DimensionMismatchError(
            f"outer input dim {m} does not match inner output dim {m2}"
        )
    if m > COMPOSE_DIM_CAP:
        raise UnsupportedDimensionError(
            f"composition enumerates the intermediate dim, capped at {COMPOSE_DIM_CAP}; got {m}"
        )
    all_outer = np.concatenate([qg.subd.gens, qg.supd.gens])
    lo, hi = all_outer.min(axis=0), all_outer.max(axis=0)
    sub_rows = [_unique_rows(qf.subd, i) for i in range(m)]
    sup_rows = [_unique_rows(qf.supd, i) for i in range(m)]
    sub_parts = [_sandwich_support_set(C, lo, hi, sub_rows, sup_rows, l, n) for C in qg.subd.gens]
    sup_parts = [_sandwich_support_set(C, lo, hi, sub_rows, sup_rows, l, n) for C in qg.supd.gens]
    return QuasiDiff(convex_union(sub_parts), convex_union(sup_parts))
