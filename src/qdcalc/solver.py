"""Descent for scalar quasidifferentiable objectives.

The steepest-descent direction at a point comes from the pair geometry:
for each superdifferential generator w, project w onto the
subdifferential; the generator with the largest projection distance d
gives the direction (w - p)/d, along which the directional derivative is
at most -d.  Distance zero for every generator is exactly the
unconstrained optimality inclusion, so the stopping test and the checker
agree by construction.

The pair is derived once per visited piece.  expr.qd_at and
expr.piece_key start from the same walk, which evaluates the tree once
and records everything the derivation reads from the point: the operand
values of the max, min and abs nodes, the inputs of smooth leaves and the
factor values of products, a composition's outer map at the inner value.
piece_key reduces the record to bytes (the active masks, the raw values)
and qd_at derives the pair from it alone.  So for one objective and
eps_active, equal keys give bit-identical pairs by construction, and
minimize keeps, for the length of one call, what it needs of the pair per
key: the projection distance and, off stationarity, the descent direction
and its rate.  The derivation and the projections read no other
tolerance; eps_geom enters only the test that a direction keeps its
rate.  On a
piecewise-linear objective the key is the piece; with smooth leaves or
products it holds raw values and in practice never repeats.

The line search is plain Armijo backtracking on the exact directional
derivative.  No smoothness is assumed; on piecewise-linear objectives
iterates typically land near kinks, where the active-set tolerance folds
both branches into the pair and the stationarity test fires.  Only the
iteration cap and the first trial step are SolverParams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError
from .expr import Expr, eval_expr, piece_key, qd_at
from .geometry import DEFAULT_TOL, Tolerance, nearest_point
from .qdcore import DEFAULT_EPS_ACTIVE, QuasiDiff, qd_eval_dir

__all__ = [
    "SolverParams",
    "IterateRecord",
    "SolverResult",
    "steepest_descent_direction",
    "minimize",
]

# Armijo constant, backtracking factor, and the stationary projection distance.
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_STOP_DIST = 1e-8
# Below this step the backtracking loop is declared failed.
_STEP_UNDERFLOW = 1e-16


@dataclass(frozen=True)
class SolverParams:
    """The iteration cap and the first trial step of each line search."""

    max_iters: int = 500
    step_init: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.step_init <= 0.0:
            raise ValueError("step_init must be positive")


@dataclass(frozen=True, eq=False)
class IterateRecord:
    x: np.ndarray
    value: float
    descent_dist: float
    step: Optional[float]


@dataclass(frozen=True, eq=False)
class SolverResult:
    x: np.ndarray
    value: float
    status: str
    iterations: int
    trace: tuple[IterateRecord, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "value": self.value,
            "status": self.status,
            "iterations": self.iterations,
            "trace": [
                {
                    "x": r.x.tolist(),
                    "value": r.value,
                    "descent_dist": r.descent_dist,
                    "step": r.step,
                }
                for r in self.trace
            ],
        }


def _farthest_generator(q: QuasiDiff) -> tuple[float, np.ndarray, np.ndarray]:
    """(d, w, p): the superdifferential generator w farthest from the
    subdifferential, its projection p onto it, and the distance d."""
    m, n = q.dims
    if m != 1:
        raise DimensionMismatchError(f"descent needs a scalar objective, got m = {m}")
    best: Optional[tuple[float, np.ndarray, np.ndarray]] = None
    for w in q.supd.gens:
        p, dist = nearest_point(q.subd, w)
        if best is None or dist > best[0]:
            best = (dist, w, p)
    assert best is not None
    return best


def _descent_from(
    q: QuasiDiff, farthest: tuple[float, np.ndarray, np.ndarray], tol: Tolerance
) -> tuple[np.ndarray, float]:
    """Unit direction (w - p)/d from the farthest generator, and its rate."""
    dist, w, p = farthest
    h = ((w - p) / dist).ravel()
    rate = qd_eval_dir(q, h)[0]
    if rate > -dist + tol.eps_geom:
        raise RuntimeError(
            f"descent direction lost its rate: rate = {rate:.3e}, dist = {dist:.3e}"
        )
    return h, float(rate)


def steepest_descent_direction(
    q: QuasiDiff, tol: Tolerance = DEFAULT_TOL
) -> tuple[Optional[np.ndarray], float]:
    """Direction of steepest descent for a scalar pair, or stationarity.

    Returns (h, rate) with |h| = 1 and rate = f'(x; h) <= -d + eps, where
    d is the largest distance from a superdifferential generator to the
    subdifferential.  Returns (None, 0.0) when d <= _STOP_DIST (1e-8),
    which is the unconstrained optimality condition up to tolerance.
    """
    farthest = _farthest_generator(q)
    if farthest[0] <= _STOP_DIST:
        return None, 0.0
    return _descent_from(q, farthest, tol)


def minimize(
    e: Expr,
    x0,
    params: SolverParams = SolverParams(),
    tol: Tolerance = DEFAULT_TOL,
    eps_active: float = DEFAULT_EPS_ACTIVE,
) -> SolverResult:
    """Armijo descent on a scalar expression.

    Each iteration takes the pair at the current point (derived once per
    piece key), extracts the steepest-descent direction, and backtracks
    from params.step_init by the factor _SHRINK until the decrease beats
    _ARMIJO_C * step * rate.  Terminates with status "stationary" when
    the projection distance is at most _STOP_DIST, "max_iters" on the
    iteration cap, or "line_search_failure" when the step underflows (in
    exact arithmetic that cannot happen for rate < 0; in floats it flags
    evaluation noise around a kink).  The trace holds every iterate.
    """
    if e.out_dim != 1:
        raise DimensionMismatchError(f"minimize needs a scalar objective, got m = {e.out_dim}")
    x = np.asarray(x0, dtype=float).ravel()
    if x.shape != (e.in_dim,):
        raise DimensionMismatchError(f"x0 must have shape ({e.in_dim},), got {x.shape}")
    trace: list[IterateRecord] = []

    def record(x, value, dist, step):
        trace.append(IterateRecord(x=x.copy(), value=value, descent_dist=dist, step=step))

    # piece key -> (distance, (h, rate) or None when stationary); both
    # depend only on the pair, and equal keys give equal pairs.
    pieces: dict[tuple[bytes, ...], tuple[float, Optional[tuple[np.ndarray, float]]]] = {}
    fx = float(eval_expr(e, x)[0])
    for it in range(params.max_iters):
        key = piece_key(e, x, eps_active)
        if key not in pieces:
            q = qd_at(e, x, eps_active=eps_active)
            # One projection pass feeds the stop test, the record and the direction.
            farthest = _farthest_generator(q)
            stationary = farthest[0] <= _STOP_DIST
            pieces[key] = (farthest[0], None if stationary else _descent_from(q, farthest, tol))
        best_dist, descent = pieces[key]
        if descent is None:
            record(x, fx, best_dist, None)
            return SolverResult(x, fx, "stationary", it, tuple(trace))
        h, rate = descent
        t = params.step_init
        accepted = False
        while t >= _STEP_UNDERFLOW:
            x_new = x + t * h
            f_new = float(eval_expr(e, x_new)[0])
            if f_new <= fx + _ARMIJO_C * t * rate:
                accepted = True
                break
            t *= _SHRINK
        record(x, fx, best_dist, t if accepted else None)
        if not accepted:
            return SolverResult(x, fx, "line_search_failure", it, tuple(trace))
        x, fx = x_new, f_new
    record(x, fx, float("nan"), None)
    return SolverResult(x, fx, "max_iters", params.max_iters, tuple(trace))
