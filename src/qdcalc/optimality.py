"""Necessary optimality conditions for quasidifferentiable maps.

All conditions are inclusions between support sets.  For maps into R^m
with the coordinatewise order the support set of a sublinear map factors
through its rows, so every inclusion is checked row by row: output
coordinate j only ever sees the j-th rows of the generators.  This keeps
the checks exact (not a relaxation), makes witnesses constructive (a
failed row yields a separating direction in R^n along which the
coordinate strictly descends), and reduces the scalar case to the
textbook conditions unchanged.

Multiplier conditions are normalized per coordinate: a positive alpha
with trivial kernel can be divided out row by row, and the bilinear
constraint term gamma (subd g - S) becomes a sum of cones generated by
subd g_i - S_i over the active constraints.  Certificates store the
convex weights and cone coefficients the feasibility program found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, InfeasiblePointError
from .geometry import (
    DEFAULT_TOL,
    OperatorPolytope,
    PolyCone,
    Tolerance,
    _lp_min_deviation,
    _unique_rows,
    contains_point,
    minkowski_sum,
    nearest_point,
    polar_cone,
    separating_direction,
)
from .qdcore import DEFAULT_EPS_ACTIVE, BandMask, QuasiDiff, diag_scale

__all__ = [
    "Witness",
    "MultiplierCertificate",
    "Verdict",
    "ConstraintSystem",
    "QuasiregularityReport",
    "check_unconstrained",
    "check_inequality_constrained",
    "check_set_constrained",
    "check_combined",
    "check_generalized",
    "check_slackened",
    "quasiregularity_diagnostic",
]


@dataclass(frozen=True, eq=False)
class Witness:
    """Constructive refutation of a condition.

    direction is a vector h along which output coordinate `coordinate`
    of the map has strictly negative derivative (rate bounds it from
    above); for constrained checks h also respects the constraint cones.
    point_index identifies the base point for multi-point conditions.
    """

    coordinate: int
    generator: np.ndarray
    direction: np.ndarray
    rate: float
    point_index: Optional[int] = None

    def to_dict(self) -> dict:
        d = {
            "coordinate": self.coordinate,
            "generator": np.asarray(self.generator).tolist(),
            "direction": np.asarray(self.direction).tolist(),
            "rate": self.rate,
        }
        if self.point_index is not None:
            d["point_index"] = self.point_index
        return d


@dataclass(frozen=True, eq=False)
class MultiplierCertificate:
    """Feasible multipliers for one row inclusion.

    Reconstruction: supd_row ~ subd_point + sum_i gamma_i (constraint
    point_i - S_i) + normal_element, up to `deviation` in max-norm.
    gamma respects complementary slackness by construction (inactive
    constraints never enter the program).
    """

    coordinate: int
    supd_row: np.ndarray
    weights: np.ndarray
    subd_point: np.ndarray
    deviation: float
    gamma: Optional[np.ndarray] = None
    constraint_points: Optional[tuple] = None
    supd_choice: Optional[tuple] = None
    normal_element: Optional[np.ndarray] = None
    point_index: Optional[int] = None

    def to_dict(self) -> dict:
        d = {
            "coordinate": self.coordinate,
            "supd_row": np.asarray(self.supd_row).tolist(),
            "weights": np.asarray(self.weights).tolist(),
            "subd_point": np.asarray(self.subd_point).tolist(),
            "deviation": self.deviation,
        }
        if self.gamma is not None:
            d["gamma"] = np.asarray(self.gamma).tolist()
        if self.constraint_points is not None:
            d["constraint_points"] = [
                None if p is None else np.asarray(p).tolist()
                for p in self.constraint_points
            ]
        if self.supd_choice is not None:
            d["supd_choice"] = list(self.supd_choice)
        if self.normal_element is not None:
            d["normal_element"] = np.asarray(self.normal_element).tolist()
        if self.point_index is not None:
            d["point_index"] = self.point_index
        return d


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of one condition check."""

    kind: str
    holds: bool
    witness: Optional[Witness] = None
    certificates: Optional[tuple[MultiplierCertificate, ...]] = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "holds": self.holds,
            "witness": self.witness.to_dict() if self.witness else None,
            "certificates": (
                [c.to_dict() for c in self.certificates]
                if self.certificates is not None
                else None
            ),
            "detail": dict(self.detail),
        }


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Scalar inequality constraints g_i(x) <= 0 seen through their pairs.

    Each constraint carries its quasidifferential at the base point (a
    1-by-n pair) and its value there.  Construction rejects an infeasible
    base point.  An optional direction cone adds the set constraint.
    """

    qds: tuple[QuasiDiff, ...]
    values: np.ndarray
    set_cone: Optional[PolyCone] = None
    feas_eps: float = 1e-9

    def __post_init__(self) -> None:
        qds = tuple(self.qds)
        object.__setattr__(self, "qds", qds)
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.shape != (len(qds),):
            raise DimensionMismatchError(
                f"need one value per constraint, got {vals.shape} for {len(qds)}"
            )
        n = None
        for q in qds:
            if q.dims[0] != 1:
                raise DimensionMismatchError("constraints must be scalar (dims (1, n))")
            if n is None:
                n = q.dims[1]
            elif q.dims[1] != n:
                raise DimensionMismatchError("constraint input dims disagree")
        if self.set_cone is not None and n is not None:
            if self.set_cone.dims != (1, n):
                raise DimensionMismatchError(
                    f"set cone must hold 1-by-{n} directions, got {self.set_cone.dims}"
                )
        if np.any(vals > self.feas_eps):
            worst = int(np.argmax(vals))
            raise InfeasiblePointError(
                f"constraint {worst} is violated at the base point: g = {vals[worst]:.3e}"
            )
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def k(self) -> int:
        return len(self.qds)

    @property
    def n(self) -> Optional[int]:
        return self.qds[0].dims[1] if self.qds else None

    def active_indices(self, eps_active: float = DEFAULT_EPS_ACTIVE) -> list[int]:
        return [i for i, v in enumerate(self.values) if abs(v) <= eps_active]


# ---------------------------------------------------------------------------
# row helpers

def _row_support(rows: np.ndarray, h: np.ndarray) -> float:
    return float((rows @ h).max())


def _row_rate(qd: QuasiDiff, j: int, h: np.ndarray) -> float:
    """Directional derivative of output coordinate j along h."""
    return _row_support(qd.subd.gens[:, j, :], h) - _row_support(qd.supd.gens[:, j, :], h)


def _polar_rays_of(cone: Optional[PolyCone], tol: Tolerance) -> Optional[np.ndarray]:
    """Vector generators of the polar, or None when no cone constrains."""
    if cone is None:
        return None
    n = cone.dims[1]
    polar = polar_cone(cone, 1, tol)
    return polar.gens.reshape(-1, n)


def _row_witness(
    qd: QuasiDiff,
    j: int,
    target: np.ndarray,
    sub_rows: np.ndarray,
    rays: Optional[np.ndarray],
    generator: np.ndarray,
    point_index: Optional[int] = None,
) -> Witness:
    """Separating direction for a failed row inclusion.

    With no cone the direction comes from the projection onto the row
    hull, matching the descent construction in the solver; with cones a
    margin-maximizing separation keeps the direction inside the feasible
    cone (its polar constraints are part of the program).
    """
    if rays is None or rays.shape[0] == 0:
        p, dist = nearest_point(OperatorPolytope(sub_rows[:, None, :]), target[None, :])
        h = (target - p.ravel()) / dist
    else:
        h, _ = separating_direction(target, sub_rows, rays)
        norm = float(np.linalg.norm(h))
        if norm > 0.0:
            h = h / norm
    rate = _row_rate(qd, j, h)
    return Witness(
        coordinate=j,
        generator=np.asarray(generator),
        direction=h,
        rate=rate,
        point_index=point_index,
    )


# ---------------------------------------------------------------------------
# unconstrained and set-constrained conditions

def check_unconstrained(q: QuasiDiff, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Ideal local optimum requires supd to sit inside subd.

    Checked row by row: for every output coordinate the j-th rows of the
    superdifferential must lie in the hull of the j-th rows of the
    subdifferential.  A violating row yields a direction of strict
    coordinatewise descent, so a failed verdict is always backed by a
    first-order refutation.
    """
    m, n = q.dims
    checked = 0
    for j in range(m):
        sub_rows = _unique_rows(q.subd, j)
        hull = OperatorPolytope(sub_rows[:, None, :])
        for G in q.supd.gens:
            checked += 1
            if not contains_point(hull, G[j][None, :], tol):
                w = _row_witness(q, j, G[j], sub_rows, None, G)
                return Verdict("unconstrained", False, witness=w, detail={"checked": checked})
    return Verdict("unconstrained", True, detail={"checked": checked})


def check_set_constrained(
    qf: QuasiDiff, K: PolyCone, tol: Tolerance = DEFAULT_TOL
) -> Verdict:
    """Optimum over a set with feasible-direction cone K.

    The normal cone is the polar of K; the condition adds it to the
    subdifferential side of the unconstrained inclusion.  K = {0} (no
    feasible directions) makes the polar the full space and the condition
    vacuous.
    """
    m, n = qf.dims
    if K.dims != (1, n):
        raise DimensionMismatchError(f"direction cone must be (1, {n}), got {K.dims}")
    rays = _polar_rays_of(K, tol)
    certs: list[MultiplierCertificate] = []
    for j in range(m):
        sub_rows = _unique_rows(qf.subd, j)
        cone_cols = rays.T if rays is not None and rays.size else None
        for G in qf.supd.gens:
            dev, lam, mu = _lp_min_deviation(G[j], convex_cols=sub_rows.T, cone_cols=cone_cols)
            if dev > tol.eps_geom:
                w = _row_witness(qf, j, G[j], sub_rows, rays, G)
                return Verdict("set_constrained", False, witness=w)
            normal = rays.T @ mu if mu.size else np.zeros(n)
            certs.append(
                MultiplierCertificate(
                    coordinate=j,
                    supd_row=G[j],
                    weights=lam,
                    subd_point=sub_rows.T @ lam,
                    deviation=dev,
                    normal_element=normal,
                )
            )
    return Verdict("set_constrained", True, certificates=tuple(certs))


# ---------------------------------------------------------------------------
# multiplier conditions

def _constraint_blocks(
    cs: ConstraintSystem, active: Sequence[int], choice: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cone generator blocks (subd g_i - S_i) for one choice of S rows."""
    blocks = []
    s_rows = []
    for i, c in zip(active, choice):
        q = cs.qds[i]
        S = q.supd.gens[c, 0, :]
        block = q.subd.gens[:, 0, :] - S
        blocks.append(block)
        s_rows.append(S)
    return blocks, s_rows


def _multiplier_row_check(
    target: np.ndarray,
    sub_rows: np.ndarray,
    blocks: list[np.ndarray],
    extra_rays: Optional[np.ndarray],
) -> tuple[float, np.ndarray, list[float], list[Optional[np.ndarray]], Optional[np.ndarray]]:
    """Feasibility of target in conv(rows) + sum of cones (+ normal cone)."""
    cols = [b.T for b in blocks if b.size]
    sizes = [b.shape[0] for b in blocks]
    nume_extra = 0
    if extra_rays is not None and extra_rays.size:
        cols.append(extra_rays.T)
        nume_extra = extra_rays.shape[0]
    cone_cols = np.hstack(cols) if cols else None
    dev, lam, mu = _lp_min_deviation(target, convex_cols=sub_rows.T, cone_cols=cone_cols)
    gammas: list[float] = []
    points: list[Optional[np.ndarray]] = []
    at = 0
    for b, size in zip(blocks, sizes):
        coeff = mu[at : at + size]
        at += size
        g = float(coeff.sum())
        gammas.append(g)
        points.append((b.T @ coeff) / g if g > 0 else None)
    normal = None
    if nume_extra:
        normal = extra_rays.T @ mu[at : at + nume_extra]
    return dev, lam, gammas, points, normal


def _check_multiplier_system(
    kind: str,
    qf: QuasiDiff,
    cs: ConstraintSystem,
    rays: Optional[np.ndarray],
    tol: Tolerance,
    eps_active: float,
) -> Verdict:
    m, n = qf.dims
    if cs.n is not None and cs.n != n:
        raise DimensionMismatchError(f"constraint input dim {cs.n} does not match {n}")
    active = cs.active_indices(eps_active)
    supd_options = [range(cs.qds[i].supd.num_generators) for i in active]
    certs: list[MultiplierCertificate] = []
    checked = 0
    for j in range(m):
        sub_rows = _unique_rows(qf.subd, j)
        for G in qf.supd.gens:
            target = G[j]
            for choice in itertools.product(*supd_options):
                checked += 1
                blocks, s_rows = _constraint_blocks(cs, active, choice)
                dev, lam, gammas, points, normal = _multiplier_row_check(
                    target, sub_rows, blocks, rays
                )
                if dev > tol.eps_geom:
                    cone_rays = [row for b in blocks for row in b]
                    if rays is not None:
                        cone_rays.extend(rays)
                    all_rays = np.array(cone_rays) if cone_rays else None
                    w = _row_witness(qf, j, target, sub_rows, all_rays, G)
                    return Verdict(
                        kind, False, witness=w, detail={"checked": checked, "active": active}
                    )
                gamma_full = np.zeros(cs.k)
                pts_full: list[Optional[np.ndarray]] = [None] * cs.k
                for i, g, p, S in zip(active, gammas, points, s_rows):
                    gamma_full[i] = g
                    # Shift back from difference space: report the point
                    # of conv(subd g_i) itself.
                    pts_full[i] = None if p is None else p + S
                certs.append(
                    MultiplierCertificate(
                        coordinate=j,
                        supd_row=target,
                        weights=lam,
                        subd_point=sub_rows.T @ lam,
                        deviation=dev,
                        gamma=gamma_full,
                        constraint_points=tuple(pts_full),
                        supd_choice=tuple(int(c) for c in choice),
                        normal_element=normal,
                    )
                )
    return Verdict(
        kind, True, certificates=tuple(certs), detail={"checked": checked, "active": active}
    )


def check_inequality_constrained(
    qf: QuasiDiff,
    cs: ConstraintSystem,
    tol: Tolerance = DEFAULT_TOL,
    eps_active: float = DEFAULT_EPS_ACTIVE,
) -> Verdict:
    """Multiplier condition for finitely many scalar inequality constraints.

    For every output coordinate, every superdifferential row s of the
    objective, and every choice of superdifferential rows S_i of the
    active constraints, s must lie in the hull of the objective's
    subdifferential rows plus the cones generated by subd g_i - S_i.
    Inactive constraints are excluded, which is exactly complementary
    slackness of the reported gamma.
    """
    return _check_multiplier_system("inequality_constrained", qf, cs, None, tol, eps_active)


def check_combined(
    qf: QuasiDiff,
    cs: ConstraintSystem,
    tol: Tolerance = DEFAULT_TOL,
    eps_active: float = DEFAULT_EPS_ACTIVE,
) -> Verdict:
    """Inequality constraints plus a set constraint with direction cone.

    The normal-cone term folds into the feasibility program as one more
    conic block, so with no constraints this degenerates to the
    set-constrained check and with a full direction cone to the
    inequality-constrained one.
    """
    rays = _polar_rays_of(cs.set_cone, tol) if cs.set_cone is not None else None
    return _check_multiplier_system("combined", qf, cs, rays, tol, eps_active)


def check_slackened(
    qf: QuasiDiff,
    qgs: Sequence[QuasiDiff],
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Closure-cone relaxation of the multiplier condition, scalar case.

    All constraints contribute their cones regardless of activity, so
    this is implied by the inequality-constrained condition whenever both
    apply.  Requires a scalar objective.
    """
    m, n = qf.dims
    if m != 1:
        raise DimensionMismatchError(f"slackened condition needs m = 1, got m = {m}")
    for q in qgs:
        if q.dims != (1, n):
            raise DimensionMismatchError("constraints must be scalar with matching input dim")
    sub_rows = _unique_rows(qf.subd, 0)
    supd_options = [range(q.supd.num_generators) for q in qgs]
    certs: list[MultiplierCertificate] = []
    for G in qf.supd.gens:
        target = G[0]
        for choice in itertools.product(*supd_options):
            blocks = []
            s_list = []
            for q, c in zip(qgs, choice):
                S = q.supd.gens[c, 0, :]
                blocks.append(q.subd.gens[:, 0, :] - S)
                s_list.append(S)
            dev, lam, gammas, points, _ = _multiplier_row_check(target, sub_rows, blocks, None)
            points = [None if p is None else p + S for p, S in zip(points, s_list)]
            if dev > tol.eps_geom:
                all_rays = np.vstack(blocks) if blocks else None
                w = _row_witness(qf, 0, target, sub_rows, all_rays, G)
                return Verdict("slackened", False, witness=w)
            certs.append(
                MultiplierCertificate(
                    coordinate=0,
                    supd_row=target,
                    weights=lam,
                    subd_point=sub_rows.T @ lam,
                    deviation=dev,
                    gamma=np.array(gammas),
                    constraint_points=tuple(points),
                    supd_choice=tuple(int(c) for c in choice),
                )
            )
    return Verdict("slackened", True, certificates=tuple(certs))


# ---------------------------------------------------------------------------
# multi-point conditions

def check_generalized(
    points: Optional[Sequence],
    qds: Sequence[QuasiDiff],
    values,
    cones: Optional[Sequence[Optional[PolyCone]]] = None,
    tol: Tolerance = DEFAULT_TOL,
    eps_active: float = DEFAULT_EPS_ACTIVE,
) -> Verdict:
    """Condition for a generalized local optimum over several points.

    The extreme weight systems assign each output coordinate to one point
    attaining the coordinatewise meet of the values; enumerating them is
    equivalent to checking, for every coordinate j and every attaining
    point k, the row inclusion of supd_k into subd_k plus that point's
    normal cone.  With one point this is exactly the single-point check.
    """
    qds = list(qds)
    if not qds:
        raise DimensionMismatchError("need at least one point")
    dims = qds[0].dims
    for q in qds[1:]:
        if q.dims != dims:
            raise DimensionMismatchError("per-point pairs disagree on dims")
    m, n = dims
    vals = np.asarray(values, dtype=float)
    if vals.shape != (len(qds), m):
        raise DimensionMismatchError(
            f"values must have shape ({len(qds)}, {m}), got {vals.shape}"
        )
    if points is not None and len(points) != len(qds):
        raise DimensionMismatchError("points and qds must align")
    if cones is not None and len(cones) != len(qds):
        raise DimensionMismatchError("cones and qds must align")
    ray_sets: list[Optional[np.ndarray]] = []
    for k in range(len(qds)):
        cone = cones[k] if cones is not None else None
        ray_sets.append(_polar_rays_of(cone, tol))
    meet = vals.min(axis=0)
    certs: list[MultiplierCertificate] = []
    checked = 0
    for j in range(m):
        attaining = [k for k in range(len(qds)) if vals[k, j] <= meet[j] + eps_active]
        for k in attaining:
            sub_rows = _unique_rows(qds[k].subd, j)
            rays = ray_sets[k]
            cone_cols = rays.T if rays is not None and rays.size else None
            for G in qds[k].supd.gens:
                checked += 1
                dev, lam, mu = _lp_min_deviation(
                    G[j], convex_cols=sub_rows.T, cone_cols=cone_cols
                )
                if dev > tol.eps_geom:
                    w = _row_witness(qds[k], j, G[j], sub_rows, rays, G, point_index=k)
                    return Verdict(
                        "generalized", False, witness=w, detail={"checked": checked}
                    )
                normal = rays.T @ mu if rays is not None and mu.size else None
                certs.append(
                    MultiplierCertificate(
                        coordinate=j,
                        supd_row=G[j],
                        weights=lam,
                        subd_point=sub_rows.T @ lam,
                        deviation=dev,
                        normal_element=normal,
                        point_index=k,
                    )
                )
    return Verdict(
        "generalized", True, certificates=tuple(certs), detail={"checked": checked}
    )


# ---------------------------------------------------------------------------
# quasiregularity

@dataclass(frozen=True, eq=False)
class QuasiregularityReport:
    """Disjointness survey for the constraint pairs.

    One entry per sampled positive row combination and nonzero mask:
    disjoint means the composed sub- and superdifferential polytopes do
    not meet, which is the regularity the multiplier theorem asks for.
    Vacuously regular when there are no constraints.
    """

    entries: tuple[dict, ...]
    regular: bool
    vacuous: bool

    def to_dict(self) -> dict:
        return {
            "entries": [dict(e) for e in self.entries],
            "regular": self.regular,
            "vacuous": self.vacuous,
        }


def _weighted_sum(qds: Sequence[QuasiDiff], w: np.ndarray, half: str, tol: Tolerance) -> OperatorPolytope:
    n = qds[0].dims[1]
    acc = OperatorPolytope.zero(1, n)
    for q, wi in zip(qds, w):
        P = q.subd if half == "subd" else q.supd
        if wi == 0.0:
            continue
        acc = minkowski_sum(acc, diag_scale(np.array([wi]), P), tol)
    return acc


def quasiregularity_diagnostic(
    qgs: Sequence[QuasiDiff],
    r_rows: Optional[np.ndarray] = None,
    masks: Optional[Sequence[BandMask]] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> QuasiregularityReport:
    """Sampled check that composed sub- and superdifferentials stay apart.

    r_rows holds nonnegative weight rows standing in for the positive
    operators the regularity condition quantifies over; the default is
    the coordinate projections (one constraint at a time).  Masks must be
    nonzero band projections; for scalar rows only the identity exists
    and it is the default.
    """
    qgs = list(qgs)
    if not qgs:
        return QuasiregularityReport(entries=(), regular=True, vacuous=True)
    k = len(qgs)
    n = qgs[0].dims[1]
    for q in qgs:
        if q.dims != (1, n):
            raise DimensionMismatchError("constraint pairs must be scalar (1, n)")
    rows = np.eye(k) if r_rows is None else np.atleast_2d(np.asarray(r_rows, dtype=float))
    if rows.shape[1] != k or np.any(rows < 0.0):
        raise DimensionMismatchError(f"r_rows must be nonnegative with {k} columns")
    if masks is None:
        masks = [BandMask(np.ones(1, dtype=bool))]
    entries = []
    regular = True
    for ridx, w in enumerate(rows):
        sub = _weighted_sum(qgs, w, "subd", tol)
        sup = _weighted_sum(qgs, w, "supd", tol)
        # A nonzero band projection of the scalar row is the identity, so
        # the verdict is the same for every mask.
        diff = minkowski_sum(sub, diag_scale(np.array([-1.0]), sup), tol)
        disjoint = not contains_point(diff, np.zeros((1, n)), tol)
        for mask in masks:
            if mask.dim != 1:
                raise DimensionMismatchError("masks must act on the scalar row")
            if not mask.mask.any():
                raise DimensionMismatchError("band projections must be nonzero")
            regular = regular and disjoint
            entries.append(
                {
                    "row": ridx,
                    "weights": w.tolist(),
                    "mask": mask.mask.astype(int).tolist(),
                    "disjoint": disjoint,
                }
            )
    return QuasiregularityReport(entries=tuple(entries), regular=regular, vacuous=False)
