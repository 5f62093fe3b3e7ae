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
subd g_i - S_i over the active constraints.  Every check is thus one
row inclusion, a single deviation program in `_row_inclusion`.  The
normal cone of a feasible-direction cone D enters it as a free vector p
with D p <= 0, so no polar generator is built and the cone modes run at
any n.  Certificates store the convex weights, the cone coefficients and
p (as `normal_element`) that the program found.  The quasiregularity
diagnostic is one membership program per constraint, over the
differences of its generators, with no polytope arithmetic.
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
    _frozen,
    _lp_min_deviation,
    _unique_rows,
    contains_point,
    nearest_point,
    separating_direction,
)
from .qdcore import DEFAULT_EPS_ACTIVE, QuasiDiff

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

# A constraint value above this at the base point makes it infeasible.
_FEAS_EPS = 1e-9


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
        if np.any(vals > _FEAS_EPS):
            worst = int(np.argmax(vals))
            raise InfeasiblePointError(
                f"constraint {worst} is violated at the base point: g = {vals[worst]:.3e}"
            )
        object.__setattr__(self, "values", _frozen(np.array(vals, order="C")))

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


def _cone_directions(cone: Optional[PolyCone], n: int) -> Optional[np.ndarray]:
    """Generators of a direction cone as the rows of an (r, n) matrix."""
    if cone is None:
        return None
    if cone.dims != (1, n):
        raise DimensionMismatchError(f"direction cone must be (1, {n}), got {cone.dims}")
    return cone.gens.reshape(-1, n)


def _row_inclusion(
    qd: QuasiDiff,
    j: int,
    G: np.ndarray,
    sub_rows: np.ndarray,
    tol: Tolerance,
    blocks: Sequence[np.ndarray] = (),
    directions: Optional[np.ndarray] = None,
    point_index: Optional[int] = None,
) -> tuple | Witness:
    """Whether G[j] lies in conv(sub_rows) + sum of cone(block) + normal cone.

    Blocks hold cone generators as rows; the rows D of `directions`
    generate the direction cone, whose normal cone is {p : D p <= 0}.
    Returns (deviation, weights, coefficients per block, p), p None
    without directions, when the deviation is within eps_geom.  Otherwise
    returns a witness: towards the projection onto the row hull when
    nothing else constrains (the solver's descent construction), else the
    margin-maximizing separation, which stays in cone(D) and in the dual
    of every block.
    """
    target = G[j]
    rays = np.vstack(blocks) if blocks else None
    dev, lam, mu, p = _lp_min_deviation(
        target, convex_cols=sub_rows.T, cone_cols=None if rays is None else rays.T,
        polar_of=directions,
    )
    if dev <= tol.eps_geom:
        ends = np.cumsum([b.shape[0] for b in blocks])
        return dev, lam, [mu[e - b.shape[0] : e] for b, e in zip(blocks, ends)], p
    if rays is None and directions is None:
        x, dist = nearest_point(OperatorPolytope(sub_rows[:, None, :]), target[None, :])
        h = (target - x.ravel()) / dist
    else:
        h, _ = separating_direction(target, sub_rows, rays, directions)
        norm = float(np.linalg.norm(h))
        if norm > 0.0:
            h = h / norm
    return Witness(
        coordinate=j,
        generator=np.asarray(G),
        direction=h,
        rate=_row_rate(qd, j, h),
        point_index=point_index,
    )


def _check_rows(
    q: QuasiDiff,
    coords: Sequence[int],
    tol: Tolerance,
    qgs: Sequence[QuasiDiff] = (),
    slots: Sequence[int] = (),
    k: Optional[int] = None,
    directions: Optional[np.ndarray] = None,
    point_index: Optional[int] = None,
) -> tuple[Optional[Witness], list[MultiplierCertificate], int]:
    """Row inclusions of supd q into subd q for the given coordinates.

    Every superdifferential generator is checked, once for each choice of
    superdifferential rows S_i of the constraints qgs; constraint i adds
    the cone generated by subd g_i - S_i.  With k given the certificates
    carry multipliers: gamma and hull point of constraint i go to slot
    slots[i] of k.  Returns the first witness (or None), the certificates
    and the number of inclusions checked.
    """
    certs: list[MultiplierCertificate] = []
    checked = 0
    for j in coords:
        sub_rows = _unique_rows(q.subd, j)
        for G in q.supd.gens:
            for choice in itertools.product(*(range(g.supd.num_generators) for g in qgs)):
                checked += 1
                s_rows = [g.supd.gens[c, 0, :] for g, c in zip(qgs, choice)]
                blocks = [g.subd.gens[:, 0, :] - S for g, S in zip(qgs, s_rows)]
                found = _row_inclusion(q, j, G, sub_rows, tol, blocks, directions, point_index)
                if isinstance(found, Witness):
                    return found, certs, checked
                dev, lam, coeffs, p = found
                fields = {}
                if k is not None:
                    gamma = np.zeros(k)
                    points: list[Optional[np.ndarray]] = [None] * k
                    for i, block, S, coeff in zip(slots, blocks, s_rows, coeffs):
                        gamma[i] = float(coeff.sum())
                        # Shift back from difference space: report the
                        # point of conv(subd g_i) itself.
                        if gamma[i] > 0:
                            points[i] = (block.T @ coeff) / gamma[i] + S
                    fields = {
                        "gamma": gamma,
                        "constraint_points": tuple(points),
                        "supd_choice": tuple(int(c) for c in choice),
                    }
                certs.append(
                    MultiplierCertificate(
                        coordinate=j,
                        supd_row=G[j],
                        weights=lam,
                        subd_point=sub_rows.T @ lam,
                        deviation=dev,
                        normal_element=p,
                        point_index=point_index,
                        **fields,
                    )
                )
    return None, certs, checked


def _verdict(kind: str, w: Optional[Witness], certs: list, **detail) -> Verdict:
    if w is not None:
        return Verdict(kind, False, witness=w, detail=detail)
    return Verdict(kind, True, certificates=tuple(certs), detail=detail)


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
    w, _, checked = _check_rows(q, range(q.dims[0]), tol)
    return Verdict("unconstrained", w is None, witness=w, detail={"checked": checked})


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
    w, certs, _ = _check_rows(qf, range(m), tol, directions=_cone_directions(K, n))
    return _verdict("set_constrained", w, certs)


# ---------------------------------------------------------------------------
# multiplier conditions

def _check_multiplier_system(
    kind: str,
    qf: QuasiDiff,
    cs: ConstraintSystem,
    cone: Optional[PolyCone],
    tol: Tolerance,
    eps_active: float,
) -> Verdict:
    m, n = qf.dims
    if cs.n is not None and cs.n != n:
        raise DimensionMismatchError(f"constraint input dim {cs.n} does not match {n}")
    directions = _cone_directions(cone, n)
    active = cs.active_indices(eps_active)
    w, certs, checked = _check_rows(
        qf, range(m), tol, [cs.qds[i] for i in active], active, cs.k, directions
    )
    return _verdict(kind, w, certs, checked=checked, active=active)


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

    The normal-cone term folds into the feasibility program as one free
    vector, so with no constraints this degenerates to the
    set-constrained check and with a full direction cone to the
    inequality-constrained one.
    """
    return _check_multiplier_system("combined", qf, cs, cs.set_cone, tol, eps_active)


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
    w, certs, _ = _check_rows(qf, [0], tol, qgs, range(len(qgs)), len(qgs))
    return _verdict("slackened", w, certs)


# ---------------------------------------------------------------------------
# multi-point conditions

def check_generalized(
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
    m comes from values, and qds[k] is read once, when point k first
    attains: a lazy sequence derives only the pairs the check reads.
    """
    if not len(qds):
        raise DimensionMismatchError("need at least one point")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != len(qds) or vals.shape[1] == 0:
        raise DimensionMismatchError(
            f"values must have shape ({len(qds)}, m) with m >= 1, got {vals.shape}"
        )
    if cones is not None and len(cones) != len(qds):
        raise DimensionMismatchError("cones and qds must align")
    m = vals.shape[1]
    pairs: dict[int, QuasiDiff] = {}
    meet = vals.min(axis=0)
    certs: list[MultiplierCertificate] = []
    checked = 0
    for j in range(m):
        attaining = [k for k in range(len(qds)) if vals[k, j] <= meet[j] + eps_active]
        for k in attaining:
            if k not in pairs:
                pairs[k] = qds[k]
            q = pairs[k]
            if q.dims != (m, pairs[next(iter(pairs))].dims[1]):
                raise DimensionMismatchError("per-point pairs disagree with the values on dims")
            directions = None if cones is None else _cone_directions(cones[k], q.dims[1])
            w, found, count = _check_rows(q, [j], tol, directions=directions, point_index=k)
            checked += count
            certs += found
            if w is not None:
                return _verdict("generalized", w, certs, checked=checked)
    return _verdict("generalized", None, certs, checked=checked)


# ---------------------------------------------------------------------------
# quasiregularity

@dataclass(frozen=True, eq=False)
class QuasiregularityReport:
    """Disjointness survey for the constraint pairs.

    One entry per constraint, with the identity mask: disjoint means its
    sub- and superdifferential polytopes do not meet, which is the
    regularity the multiplier theorem asks for.
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


def quasiregularity_diagnostic(
    qgs: Sequence[QuasiDiff], tol: Tolerance = DEFAULT_TOL
) -> QuasiregularityReport:
    """Check that each constraint's sub- and superdifferential stay apart.

    conv S and conv T meet exactly when 0 lies in the hull of the
    differences s_i - t_j, so each constraint is one `contains_point`
    program over its k1 k2 differences (NonFiniteError if one overflows).

    The positive operators the regularity condition quantifies over are
    taken as the coordinate projections, so entry i weighs constraint i
    alone (weights the unit row e_i).  The condition also quantifies over
    the nonzero band projections, but for the scalar rows checked here
    the identity is the only one, so each constraint gives one entry,
    with mask [1].
    """
    qgs = list(qgs)
    if not qgs:
        return QuasiregularityReport(entries=(), regular=True, vacuous=True)
    k = len(qgs)
    n = qgs[0].dims[1]
    for q in qgs:
        if q.dims != (1, n):
            raise DimensionMismatchError("constraint pairs must be scalar (1, n)")
    entries = []
    regular = True
    for i, q in enumerate(qgs):
        diffs = (q.subd.gens[:, None] - q.supd.gens[None]).reshape(-1, 1, n)
        disjoint = not contains_point(OperatorPolytope(diffs), np.zeros((1, n)), tol)
        regular = regular and disjoint
        entries.append(
            {
                "row": i,
                "weights": [float(r == i) for r in range(k)],
                "mask": [1],
                "disjoint": disjoint,
            }
        )
    return QuasiregularityReport(entries=tuple(entries), regular=regular, vacuous=False)
