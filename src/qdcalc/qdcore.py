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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CompositionBoundError, DimensionMismatchError, UnsupportedDimensionError
from .geometry import (
    OperatorPolytope,
    _is_zero_point,
    _unique_rows,
    _vertex_polytope,
    _without_negative_zeros,
    convex_union,
    minkowski_sum,
    prune,
    support,
)

__all__ = [
    "Orthomorphism",
    "QuasiDiff",
    "ActiveWeightSelection",
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
    """Diagonal action on R^m, stored as the diagonal vector."""

    diag: np.ndarray

    def __post_init__(self) -> None:
        d = np.atleast_1d(np.asarray(self.diag, dtype=float))
        if d.ndim != 1 or d.size < 1 or not np.isfinite(d).all():
            raise DimensionMismatchError("diagonal must be a finite 1-d vector")
        d = np.ascontiguousarray(d)
        d.setflags(write=False)
        object.__setattr__(self, "diag", d)

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def pos(self) -> np.ndarray:
        return np.maximum(self.diag, 0.0)

    @property
    def neg(self) -> np.ndarray:
        """Negative part, as a nonnegative vector (alpha = pos - neg)."""
        return np.maximum(-self.diag, 0.0)


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


@dataclass(frozen=True)
class ActiveWeightSelection:
    """One attaining operand index per output coordinate.

    These are the extreme points of the weight systems a pointwise
    supremum or infimum admits: any admissible system is a coordinatewise
    convex mixture of selections, so it is enough to enumerate them.
    """

    choice: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.choice:
            raise DimensionMismatchError("a selection needs at least one coordinate")

    @staticmethod
    def enumerate(
        values: np.ndarray, mode: str, eps_active: float = DEFAULT_EPS_ACTIVE
    ) -> list["ActiveWeightSelection"]:
        """All selections of attaining indices, coordinate by coordinate.

        The attaining indices are those of active_mask.
        """
        mask = active_mask(values, mode, eps_active)
        active = [np.nonzero(mask[:, j])[0] for j in range(mask.shape[1])]
        return [
            ActiveWeightSelection(tuple(int(i) for i in combo))
            for combo in itertools.product(*active)
        ]


# ---------------------------------------------------------------------------
# elementary rules

def diag_scale(d: np.ndarray, P: OperatorPolytope) -> OperatorPolytope:
    """Image of a polytope under a diagonal left action (rows scaled).

    With no zero on the diagonal the action is injective, so a vertex
    list stays a vertex list; the zero diagonal maps everything to the
    single zero operator.
    """
    d = np.asarray(d, dtype=float)
    m, n = P.dims
    if d.shape != (m,):
        raise DimensionMismatchError(f"diagonal must have shape ({m},), got {d.shape}")
    if not d.any():
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
    sub, sup = qs[0].subd, qs[0].supd
    for q in qs[1:]:
        sub = minkowski_sum(sub, q.subd)
        sup = minkowski_sum(sup, q.supd)
    return QuasiDiff(sub, sup)


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
    m, _ = q.dims
    a = _as_orthomorphism(alpha, m)
    pos, neg = a.pos, a.neg
    sub = minkowski_sum(diag_scale(pos, q.subd), diag_scale(neg, q.supd))
    sup = minkowski_sum(diag_scale(neg, q.subd), diag_scale(pos, q.supd))
    return QuasiDiff(sub, sup)


def qd_eval_dir(q: QuasiDiff, h) -> np.ndarray:
    """Directional derivative: support of subd minus support of supd."""
    h = np.asarray(h, dtype=float)
    sub_val, _ = support(q.subd, h)
    sup_val, _ = support(q.supd, h)
    return sub_val - sup_val


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


def _opposite_sums(
    parts: list[OperatorPolytope],
) -> tuple[OperatorPolytope, list[OperatorPolytope]]:
    """The sum of all parts, and for each k the sum of all but the k-th.

    Parts that are all {0} sum to {0} either way, so nothing is formed.
    """
    if all(_is_zero_point(P) for P in parts):
        zero = OperatorPolytope.zero(*parts[0].dims)
        return zero, [zero] * len(parts)
    total = parts[0]
    for P in parts[1:]:
        total = minkowski_sum(total, P)
    return total, _around_sums(parts)


def _selection_polytope(
    sel: ActiveWeightSelection, mixed: dict[int, OperatorPolytope], m: int, n: int
) -> OperatorPolytope:
    """Polytope of one extreme weight system.

    Coordinates are split among the chosen operands; a generator picks
    one generator of each operand's mixed polytope and keeps its rows on
    the coordinates assigned to that operand.  A selection that uses one
    operand at every coordinate is that operand's mixed polytope, with
    -0.0 entries turned into +0.0 as the row assembly would.
    """
    used = sorted(set(sel.choice))
    if len(used) == 1:
        P = mixed[used[0]]
        gens = _without_negative_zeros(P.gens)
        return P if gens is P.gens else OperatorPolytope(gens)
    masks = {
        k: np.fromiter((c == k for c in sel.choice), dtype=float, count=m) for k in used
    }
    gens = []
    for combo in itertools.product(*(mixed[k].gens for k in used)):
        g = np.zeros((m, n))
        for k, gk in zip(used, combo):
            g += masks[k][:, None] * gk
        gens.append(g)
    return OperatorPolytope(np.stack(gens))


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
    (Demyanov & Rubinov 1995), and no sum of the {0} halves is formed.
    """
    vals = _check_operands(qs, values)
    m, n = qs[0].dims
    sup_all, others = _opposite_sums([q.supd for q in qs])
    selections = ActiveWeightSelection.enumerate(vals, "max", eps_active)
    needed = {k for sel in selections for k in sel.choice}
    mixed = {k: minkowski_sum(qs[k].subd, others[k]) for k in needed}
    pieces = [_selection_polytope(sel, mixed, m, n) for sel in selections]
    return QuasiDiff(convex_union(pieces), sup_all)


def qd_inf(
    qs: Sequence[QuasiDiff], values, eps_active: float = DEFAULT_EPS_ACTIVE
) -> QuasiDiff:
    """Pointwise minimum; the order dual of qd_sup.

    The roles of the halves swap: when every subdifferential is {0}, the
    pair is {0} and the hull over selections of the active supd_k, and
    no sum of the {0} halves is formed.
    """
    vals = _check_operands(qs, values)
    m, n = qs[0].dims
    sub_all, others = _opposite_sums([q.subd for q in qs])
    selections = ActiveWeightSelection.enumerate(vals, "min", eps_active)
    needed = {k for sel in selections for k in sel.choice}
    mixed = {k: minkowski_sum(qs[k].supd, others[k]) for k in needed}
    pieces = [_selection_polytope(sel, mixed, m, n) for sel in selections]
    return QuasiDiff(sub_all, convex_union(pieces))


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
    sub = diag_scale(gp, qf.subd)
    sub = minkowski_sum(sub, diag_scale(gn, qf.supd))
    sub = minkowski_sum(sub, diag_scale(fp, qg.subd))
    sub = minkowski_sum(sub, diag_scale(fn, qg.supd))
    sup = diag_scale(gp, qf.supd)
    sup = minkowski_sum(sup, diag_scale(gn, qf.subd))
    sup = minkowski_sum(sup, diag_scale(fp, qg.supd))
    sup = minkowski_sum(sup, diag_scale(fn, qg.subd))
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


def qd_compose(
    qg: QuasiDiff,
    qf: QuasiDiff,
    lambda1: Optional[np.ndarray] = None,
    lambda2: Optional[np.ndarray] = None,
) -> QuasiDiff:
    """Chain rule through an increasing sandwich of the outer pair.

    qg is the pair of the outer map at the inner value (dims (l, m)), qf
    of the inner map at the base point (dims (m, n)).  Every outer
    generator C must satisfy lambda1 <= C <= lambda2 entrywise; by
    default the bounds are the entrywise min and max over all outer
    generators, which always qualify.  Both halves of the result collect
    the support sets of

        P_C(h) = (C - lambda1) sup_S (S h) + (lambda2 - C) sup_T (T h)

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
    lo = np.asarray(lambda1, dtype=float) if lambda1 is not None else all_outer.min(axis=0)
    hi = np.asarray(lambda2, dtype=float) if lambda2 is not None else all_outer.max(axis=0)
    if lo.shape != (l, m) or hi.shape != (l, m):
        raise DimensionMismatchError(f"bounds must have shape ({l}, {m})")
    slack = 1e-12 * (1.0 + float(np.abs(all_outer).max()))
    if np.any(all_outer < lo - slack) or np.any(all_outer > hi + slack):
        raise CompositionBoundError(
            "every outer generator must sit between lambda1 and lambda2 entrywise"
        )
    sub_rows = [_unique_rows(qf.subd, i) for i in range(m)]
    sup_rows = [_unique_rows(qf.supd, i) for i in range(m)]
    sub_parts = [_sandwich_support_set(C, lo, hi, sub_rows, sup_rows, l, n) for C in qg.subd.gens]
    sup_parts = [_sandwich_support_set(C, lo, hi, sub_rows, sup_rows, l, n) for C in qg.supd.gens]
    return QuasiDiff(convex_union(sub_parts), convex_union(sup_parts))
