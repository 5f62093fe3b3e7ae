"""Convex geometry over spaces of m-by-n matrices.

Polytopes of linear operators in V-representation (finite generator
lists), finitely generated cones, support functions, and the small dense
feasibility programs that membership, redundancy, and separation reduce
to.  Everything here is desk scale: a few dozen generators, dimensions
in the single digits, float64 throughout.  The feasibility programs go
to HiGHS directly, through the binding bundled with scipy and one solver
instance per process, as the same model, options and result checks
`linprog(method="highs")` would use, so answers and failure messages
are linprog's without its input cleaning; where scipy lacks that
binding they go through `linprog` itself.

This is the only module that reaches scipy, and importing it loads no
more of scipy than the HiGHS extension, from its file.  qhull
(`scipy.spatial`) loads on the first prune of affine rank 2 to 6 (a
union of one vertex list is returned as it is, with no prune),
`linprog` (`scipy.optimize`) only without the binding, and linprog's
post-solve check only when a solution fails it; `linprog`, `ConvexHull`
and `QhullError` become module globals on first use.

Minimum-norm projections use an affine-minimization active-set loop
whose result is audited against the variational optimality condition
before it is returned; a failed audit is retried once at unit scale.

Vertex lists.  A polytope may carry a private marker saying that its
generators are exactly its vertices, each listed once.  Only
`_vertex_polytope` sets it: on the results of `prune`, `minkowski_sum`
and `convex_union`, and in `qdcore.diag_scale` when the scaled polytope
is a vertex list and no diagonal entry is zero (an injective linear map
keeps vertices distinct and extreme).  A single generator always counts
as a vertex list; polytopes built any other way do not.  The marker
never shows in `gens`, `repr` or equality.  `OperatorPolytope.zero`
returns one shared, read-only {0} per shape, which is never marked.
`convex_union` of a single vertex list returns that list as it is.
When both operands of `minkowski_sum` are vertex lists, every pairwise
sum of generators is a vertex, and the prune is skipped, in three cases:

* zero identity: one operand is {0} (every entry +0.0), and the sum is
  the other operand itself, or a copy with its -0.0 entries turned into
  +0.0 when it has any, exactly as adding 0.0 would;
* translation: one operand is a single point;
* direct sum: rank(P) + rank(Q) equals the affine rank of P + Q, so the
  sum is affinely the product P x Q (Fukuda 2004).

The ranks are those of the centred generators under the same singular
value threshold the hull computation uses.  Every other sum takes the
general prune: two points that differ by more than 1e-10 in some entry
are both vertices without a decomposition (closer pairs go to the SVD,
which merges points inside its 1e-12 rank band), qhull handles affine
rank 2 to 6, and one LP per generator decides above that.  A sum that
overflows raises `NonFiniteError` before it reaches the prune.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, UnsupportedDimensionError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "linop",
    "OperatorPolytope",
    "PolyCone",
    "support",
    "minkowski_sum",
    "convex_union",
    "prune",
    "contains_point",
    "subset",
    "contains_in_sum_with_cone",
    "nearest_point",
    "polar_cone",
    "cone_contains",
    "coordinate_rows",
    "separating_direction",
]

# Dimension cap for the halfspace-insertion polar construction.  The ray
# count can grow combinatorially with n; past single digits a proper
# adjacency-tracking implementation would be needed.
POLAR_DIM_CAP = 8


@dataclass(frozen=True)
class Tolerance:
    """Numeric slack for the geometric predicates.

    eps_geom bounds the max-norm residual accepted by membership and
    inclusion tests, absolute, in the units of the operator entries.  The
    calculus, prune and projection read no tolerance: their slacks are
    fixed constants of this module.
    """

    eps_geom: float = 1e-9

    def __post_init__(self) -> None:
        if not self.eps_geom > 0.0:
            raise ValueError("eps_geom must be positive")


DEFAULT_TOL = Tolerance()


def linop(entries) -> np.ndarray:
    """Validate and return an m-by-n operator matrix as float64."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError(
            f"operator must be a 2-d matrix, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise NonFiniteError("operator entries must be finite")
    return a


@dataclass(frozen=True, eq=False)
class _GeneratorStack:
    """Frozen, finite stack of m-by-n generators, shape (k, m, n).

    The base of OperatorPolytope (k >= _min_generators = 1) and PolyCone
    (k >= 0); neither class is an instance of the other.
    """

    gens: np.ndarray

    _min_generators = 0

    def __post_init__(self) -> None:
        a = np.asarray(self.gens, dtype=float)
        if a.ndim != 3:
            raise DimensionMismatchError(
                f"generator stack must have shape (k, m, n), got {a.shape}"
            )
        k, m, n = a.shape
        if k < self._min_generators:
            raise DimensionMismatchError("a polytope needs at least one generator")
        if m < 1 or n < 1:
            raise DimensionMismatchError("operator dims must be at least 1x1")
        if not np.isfinite(a).all():
            raise NonFiniteError("generator entries must be finite")
        if not a.flags.c_contiguous:
            a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "gens", a)

    @classmethod
    def from_generators(cls, generators: Sequence):
        """Stack one or more generators of one shape (PolyCone.trivial
        builds the empty cone)."""
        mats = [linop(g) for g in generators]
        if not mats:
            raise DimensionMismatchError(
                f"{cls.__name__}.from_generators needs at least one generator"
            )
        shape = mats[0].shape
        for g in mats:
            if g.shape != shape:
                raise DimensionMismatchError(
                    f"generators disagree on dims: {g.shape} vs {shape}"
                )
        return cls(np.stack(mats))

    @property
    def dims(self) -> tuple[int, int]:
        return self.gens.shape[1], self.gens.shape[2]

    @property
    def num_generators(self) -> int:
        return self.gens.shape[0]

    @property
    def flat(self) -> np.ndarray:
        """Generators flattened row-major to shape (k, m*n), also for k = 0."""
        k, m, n = self.gens.shape
        return self.gens.reshape(k, m * n)

    def __repr__(self) -> str:
        m, n = self.dims
        return f"{type(self).__name__}(k={self.num_generators}, dims=({m}, {n}))"


@dataclass(frozen=True, eq=False, repr=False)
class OperatorPolytope(_GeneratorStack):
    """Convex hull of finitely many m-by-n matrices, stored as (k, m, n)."""

    _min_generators = 1
    # Not a dataclass field; set only by _vertex_polytope.
    _vertex_list = False

    @classmethod
    def singleton(cls, T) -> "OperatorPolytope":
        return cls(linop(T)[None, :, :])

    @staticmethod
    def zero(m: int, n: int) -> "OperatorPolytope":
        """The zero singleton {0}: one shared instance per shape.

        Its generator array is a view of a read-only buffer, so it cannot
        be made writable again, and it never carries the vertex-list mark.
        """
        Z = _ZEROS.get((m, n))
        if Z is None:
            buf = np.zeros((1, m, n))
            buf.setflags(write=False)
            Z = _ZEROS[(m, n)] = OperatorPolytope(buf.view())
        return Z


_ZEROS: dict[tuple[int, int], OperatorPolytope] = {}


def _vertex_polytope(gens: np.ndarray) -> OperatorPolytope:
    """Polytope whose generators are known to be its vertices, each once.

    Single points need no marker: they always count as vertex lists.
    """
    P = OperatorPolytope(gens)
    if P.num_generators > 1:
        object.__setattr__(P, "_vertex_list", True)
    return P


def _is_vertex_list(P: OperatorPolytope) -> bool:
    return P._vertex_list or P.num_generators == 1


def _is_zero_point(P: OperatorPolytope) -> bool:
    """P is the single point 0 with every entry +0.0."""
    g = P.gens
    return g.shape[0] == 1 and g.tobytes() == bytes(g.nbytes)


def _without_negative_zeros(gens: np.ndarray) -> np.ndarray:
    """gens + 0.0, which turns -0.0 into +0.0; gens itself when no bit changes."""
    out = gens + 0.0
    return gens if out.tobytes() == gens.tobytes() else out


@dataclass(frozen=True, eq=False, repr=False)
class PolyCone(_GeneratorStack):
    """Finitely generated cone of m-by-n matrices; may be the zero cone."""

    @classmethod
    def trivial(cls, m: int, n: int) -> "PolyCone":
        """The zero cone {0}."""
        return cls(np.zeros((0, m, n)))


# ---------------------------------------------------------------------------
# support functions


def support(P: OperatorPolytope, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinatewise support value and attaining generator indices.

    Returns (value, argmax) where value[j] = max_g (G h)[j] and argmax[j]
    is the index of the first generator attaining it (lowest index on
    ties, which keeps repeated runs byte-identical).
    """
    h = np.asarray(h, dtype=float)
    m, n = P.dims
    if h.shape != (n,):
        raise DimensionMismatchError(f"direction must have shape ({n},), got {h.shape}")
    prods = P.gens @ h  # (k, m)
    return prods.max(axis=0), prods.argmax(axis=0)


def _unique_rows(P: OperatorPolytope, j: int) -> np.ndarray:
    """Distinct j-th rows of the generators, sorted, shape (k, n)."""
    return np.unique(P.gens[:, j, :], axis=0)


def coordinate_rows(P: OperatorPolytope, j: int) -> OperatorPolytope:
    """Restriction of P to output coordinate j, as a 1-by-n polytope.

    The support set of a coordinatewise sublinear map factors through its
    rows, so row polytopes carry everything a single output coordinate
    can see.  Duplicate rows are collapsed.
    """
    m, n = P.dims
    if not 0 <= j < m:
        raise DimensionMismatchError(f"coordinate {j} out of range for m={m}")
    return OperatorPolytope(_unique_rows(P, j)[:, None, :])


# ---------------------------------------------------------------------------
# scipy: the HiGHS extension at import, everything else on first use

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's bundled HiGHS binding, the one linprog itself drives, or None.

    The extension is loaded from its file, which imports neither
    `scipy.optimize` nor anything it pulls in, and registered under its
    own name, so a later `import scipy.optimize` reuses this module.
    When no such file loads, the normal import is tried; a scipy without
    the binding gives None, and every program then goes through linprog.
    """
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    try:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None or not scipy_spec.submodule_search_locations:
            raise ImportError("scipy not found")
        stem = os.path.join(scipy_spec.submodule_search_locations[0],
                            "optimize", "_highspy", "_core")
        path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                     if os.path.isfile(stem + suffix)), None)
        if path is None:
            raise ImportError(f"no HiGHS extension at {stem}")
        spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        try:
            from scipy.optimize._highspy import _core
        except ImportError:
            return None
        return _core
    sys.modules[_HIGHS_MODULE] = module
    return module


_highs = _load_highs()

# Names imported on first access (PEP 562) and then bound here, so tests
# and tracers can patch them like any other module global.
_LAZY_SCIPY = {"linprog": "scipy.optimize", "ConvexHull": "scipy.spatial",
               "QhullError": "scipy.spatial"}


def __getattr__(name: str):
    if name not in _LAZY_SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY_SCIPY[name]), name)
    globals()[name] = value
    return value


def _scipy(name: str):
    """The current binding of a lazy scipy name, read at call time."""
    return getattr(sys.modules[__name__], name)


# ---------------------------------------------------------------------------
# feasibility programs

_LP_OPTIONS = {"presolve": True}
_LP_TOL = 1e-9  # linprog's default tol; its feasibility check allows 10 sqrt(tol)


class _LPResult(NamedTuple):
    success: bool
    x: Optional[np.ndarray]
    fun: Optional[float]
    message: str


# HiGHS model status name -> linprog's status code and message head, as
# scipy.optimize._linprog_highs maps them.
_LINPROG_STATUS = {
    "kNotset": (4, ""),
    "kLoadError": (4, ""),
    "kModelError": (2, ""),
    "kPresolveError": (4, ""),
    "kSolveError": (4, ""),
    "kPostsolveError": (4, ""),
    "kModelEmpty": (4, ""),
    "kObjectiveBound": (4, ""),
    "kObjectiveTarget": (4, ""),
    "kOptimal": (0, "Optimization terminated successfully. "),
    "kTimeLimit": (1, "Time limit reached. "),
    "kIterationLimit": (1, "Iteration limit reached. "),
    "kInfeasible": (2, "The problem is infeasible. "),
    "kUnbounded": (3, "The problem is unbounded. "),
    "kUnboundedOrInfeasible": (4, "The problem is unbounded or infeasible. "),
}


def _linprog_status(status, message: str) -> tuple[int, str]:
    """linprog's status code and message for a HiGHS model status."""
    code, head = _LINPROG_STATUS.get(
        status.name, (4, "The HiGHS status code was not recognized. "))
    return code, f"{head}(HiGHS Status {int(status)}: {message})"


if _highs is not None:
    # The options linprog(method="highs") sets; one copy serves every solve.
    _HIGHS_OPTIONS = _highs.HighsOptions()
    _HIGHS_OPTIONS.presolve = "on"
    _HIGHS_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    _HIGHS_OPTIONS.log_to_console = False
    _HIGHS_OPTIONS.output_flag = False
    _HIGHS_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    # One solver per process, which keeps its options: passModel clears the
    # previous model, solution and basis, so every solve starts cold.
    _HIGHS = _highs._Highs()
    _HIGHS.passOptions(_HIGHS_OPTIONS)


def _highs_solve(
    c: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    A_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
) -> _LPResult:
    """Minimize c x subject to A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub.

    Hands HiGHS the model linprog(method="highs") would: the nonzero
    entries column by column, rows ascending, with the same options, and
    applies linprog's status mapping and post-solve feasibility check, so x,
    fun, success and the failure message are those linprog gives.  Without
    scipy's bundled HiGHS binding the program goes to linprog itself.
    """
    if _highs is None:
        res = _scipy("linprog")(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
            bounds=np.column_stack([lb, ub]), method="highs", options=_LP_OPTIONS,
        )
        return _LPResult(res.success, res.x, res.fun, res.message)
    n_ub = b_ub.size
    if A_eq is None:
        A, lhs, rhs = A_ub, np.full(n_ub, -np.inf), b_ub
    else:
        A = np.vstack([A_ub, A_eq])
        lhs = np.concatenate([np.full(n_ub, -np.inf), b_eq])
        rhs = np.concatenate([b_ub, b_eq])
    num_row, num_col = A.shape
    cols, rows = np.nonzero(A.T)  # column-major, rows ascending: what csc_array(A) holds
    start = np.searchsorted(cols, np.arange(num_col + 1))
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = num_col
    lp.num_row_ = lp.a_matrix_.num_row_ = num_row
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = rows.tolist()
    lp.a_matrix_.value_ = A[rows, cols]
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = lhs
    lp.row_upper_ = rhs
    highs = _HIGHS
    x = fun = slack = con = None
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        status = _highs.HighsModelStatus.kModelError
        message = highs.modelStatusToString(status)
    elif highs.run() == _highs.HighsStatus.kError:
        status = highs.getModelStatus()
        message = highs.modelStatusToString(status)
    else:
        status = highs.getModelStatus()
        info = highs.getInfo()
        if status == _highs.HighsModelStatus.kOptimal:
            message = highs.modelStatusToString(status)
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            fun = info.objective_function_value
            residual = rhs - solution.row_value
            slack, con = residual[:n_ub], residual[n_ub:]
        else:
            message = (
                f"model_status is {highs.modelStatusToString(status)}; primal_status is "
                f"{highs.solutionStatusToString(info.primal_solution_status)}"
            )
    code, message = _linprog_status(status, message)
    tol = 10.0 * math.sqrt(_LP_TOL)
    if x is not None and not (
        fun == fun and (x >= lb - tol).all() and (x <= ub + tol).all()
        and (slack >= -tol).all() and (np.abs(con) <= tol).all()
    ):  # NaN fails every comparison; linprog's own check words the failure
        from scipy.optimize._linprog_util import _check_result

        code, message = _check_result(
            x, fun, code, slack, con, np.column_stack([lb, ub]), _LP_TOL, message, None
        )
    return _LPResult(code == 0, x, fun, message)


def _lp_min_deviation(
    target: np.ndarray,
    convex_cols: Optional[np.ndarray] = None,
    cone_cols: Optional[np.ndarray] = None,
    polar_of: Optional[np.ndarray] = None,
) -> tuple[float, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Smallest max-norm deviation of target from a convex-plus-conic sum.

    Minimizes t subject to |C lam + K mu + p - target|_inf <= t, lam >= 0
    summing to one (when a convex block is present), mu >= 0.  The free
    vector p enters only when polar_of is given: its rows D generate a
    direction cone and D p <= 0 keeps p in the polar of that cone, so the
    polar is never enumerated.  Returns (t*, lam, mu, p), p None without
    polar_of.  The program is always feasible and bounded, so a solver
    failure is an internal error.
    """
    target = np.asarray(target, dtype=float).ravel()
    d = target.size
    blocks = []
    k1 = k2 = 0
    if convex_cols is not None and convex_cols.size:
        blocks.append(np.asarray(convex_cols, dtype=float))
        k1 = blocks[-1].shape[1]
    if cone_cols is not None and cone_cols.size:
        blocks.append(np.asarray(cone_cols, dtype=float))
        k2 = blocks[-1].shape[1]
    if polar_of is not None:
        blocks.append(np.eye(d))
    if not blocks:
        # nothing to combine: deviation is just |target|_inf
        return float(np.max(np.abs(target), initial=0.0)), np.zeros(0), np.zeros(0), None
    M = np.hstack(blocks)
    nv = M.shape[1] + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    ones = np.ones((d, 1))
    A_ub = np.vstack(
        [np.hstack([M, -ones]), np.hstack([-M, -ones])]
    )
    b_ub = np.concatenate([target, -target])
    lb = np.zeros(nv)
    if polar_of is not None:
        D = np.asarray(polar_of, dtype=float).reshape(-1, d)
        polar_rows = np.zeros((D.shape[0], nv))
        polar_rows[:, k1 + k2 : k1 + k2 + d] = D
        A_ub = np.vstack([A_ub, polar_rows])
        b_ub = np.concatenate([b_ub, np.zeros(D.shape[0])])
        lb[k1 + k2 : k1 + k2 + d] = -np.inf
    A_eq = b_eq = None
    if k1:
        A_eq = np.zeros((1, nv))
        A_eq[0, :k1] = 1.0
        b_eq = np.ones(1)
    res = _highs_solve(c, A_ub, b_ub, lb, np.full(nv, np.inf), A_eq, b_eq)
    if not res.success:
        raise RuntimeError(f"deviation program failed unexpectedly: {res.message}")
    lam = res.x[:k1] if k1 else np.zeros(0)
    mu = res.x[k1 : k1 + k2] if k2 else np.zeros(0)
    p = res.x[k1 + k2 : k1 + k2 + d] if polar_of is not None else None
    return float(res.fun), lam, mu, p


def separating_direction(
    target: np.ndarray,
    hull_points: np.ndarray,
    cone_rays: Optional[np.ndarray] = None,
    directions: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float]:
    """Direction h with <h, target> exceeding the hull-plus-cone support.

    Maximizes the margin delta subject to <h, target - p> >= delta for
    every hull point p, <h, r> <= 0 for every cone ray r, and
    |h|_inf <= 1.  A strictly positive margin certifies that target lies
    outside conv(points) + cone(rays); the constraints on the rays make h
    usable as a feasible-direction witness.  With direction generators D
    (rows) h is also kept in cone(D) as h = D^T nu, nu >= 0: the margin
    then certifies that target lies outside the sum plus the polar of
    cone(D).
    """
    target = np.asarray(target, dtype=float).ravel()
    pts = np.asarray(hull_points, dtype=float).reshape(-1, target.size)
    d = target.size
    D = None if directions is None else np.asarray(directions, dtype=float).reshape(-1, d)
    nd = 0 if D is None else D.shape[0]
    nv = d + nd + 1  # h, nu, delta
    c = np.zeros(nv)
    c[-1] = -1.0
    rays = np.zeros((0, d)) if cone_rays is None else np.asarray(cone_rays, dtype=float).reshape(-1, d)
    A_ub = np.zeros((len(pts) + len(rays), nv))
    A_ub[: len(pts), :d] = pts - target
    A_ub[: len(pts), -1] = 1.0
    A_ub[len(pts) :, :d] = rays
    A_eq = b_eq = None
    if D is not None:
        A_eq = np.hstack([np.eye(d), -D.T, np.zeros((d, 1))])
        b_eq = np.zeros(d)
    lb = np.concatenate([np.full(d, -1.0), np.zeros(nd), [-np.inf]])
    ub = np.concatenate([np.ones(d), np.full(nd + 1, np.inf)])
    res = _highs_solve(c, A_ub, np.zeros(len(A_ub)), lb, ub, A_eq, b_eq)
    if not res.success:
        raise RuntimeError(f"separation program failed unexpectedly: {res.message}")
    return res.x[:d], float(res.x[-1])


# ---------------------------------------------------------------------------
# pruning

_PRUNE_TIE_TOL = 1e-12
# A generator this close (max-norm) to the hull of the others is redundant.
_PRUNE_EPS = 1e-9
# The smallest residual the projection audit in nearest_point forgives.
_AUDIT_FLOOR = 1e-9
# Two points farther apart than this in some entry have a centred singular
# value above 7e-11, far outside the band where _rank merges them.
_DISTINCT_PAIR = 1e-10


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values in descending order."""
    scale = s[0] if s.size else 0.0
    return int(np.sum(s > 1e-12 * max(1.0, scale)))


def _centred(flat: np.ndarray) -> np.ndarray:
    return flat - flat.mean(axis=0)


def _certified_vertices(flat: np.ndarray) -> np.ndarray:
    """Boolean mask of generators provably extreme by support sampling.

    A point that is the unique maximizer of some linear functional is a
    vertex and needs no LP.  Directions: the coordinate axes plus a fixed
    pseudorandom batch, so results do not vary between runs.
    """
    k, d = flat.shape
    rng = np.random.default_rng(180451)
    dirs = np.vstack([np.eye(d), -np.eye(d), rng.standard_normal((2 * d + 17, d))])
    scores = flat @ dirs.T  # (k, ndirs)
    best = scores.max(axis=0)
    tie = _PRUNE_TIE_TOL * (1.0 + np.abs(best))
    near = scores >= best - tie
    unique_winner = near.sum(axis=0) == 1
    certified = np.zeros(k, dtype=bool)
    for col in np.nonzero(unique_winner)[0]:
        certified[np.argmax(scores[:, col])] = True
    return certified


def _hull_vertex_indices(flat: np.ndarray) -> Optional[list[int]]:
    """Vertex indices of conv(flat) via qhull, or None when unusable.

    Points are projected onto their affine hull first; ranks 0 and 1 are
    resolved directly, ranks 2..6 go to qhull, anything flatter than
    1e-12 is treated as dimension loss.  Two points that clearly differ
    are both vertices and need no decomposition.  Returns None on qhull
    failure or high rank so the caller can fall back to the LP loop.
    """
    k, _ = flat.shape
    if k == 2 and np.abs(flat[0] - flat[1]).max() > _DISTINCT_PAIR:
        return [0, 1]
    shifted = _centred(flat)
    _, s, vt = np.linalg.svd(shifted, full_matrices=False)
    rank = _rank(s)
    if rank == 0:
        return [0]
    proj = shifted @ vt[:rank].T
    if rank == 1:
        z = proj[:, 0]
        return sorted({int(np.argmin(z)), int(np.argmax(z))})
    if rank > 6:
        return None
    if k <= rank + 1:
        # Affinely independent: every point is a vertex.
        return list(range(k))
    try:
        hull = _scipy("ConvexHull")(proj)
    except _scipy("QhullError"):
        return None
    return sorted(int(v) for v in hull.vertices)


def _prune_gens(gens: np.ndarray) -> np.ndarray:
    k = gens.shape[0]
    if k <= 1:
        return gens
    flat = gens.reshape(k, -1)

    # collapse exact duplicates, keeping first occurrences
    seen: dict[bytes, int] = {}
    order = []
    for i in range(k):
        key = flat[i].tobytes()
        if key not in seen:
            seen[key] = i
            order.append(i)
    flat = flat[order]
    k = len(order)
    if k <= 1:
        return gens[order]

    vertices = _hull_vertex_indices(flat)
    if vertices is not None:
        return gens[[order[i] for i in vertices]]

    certified = _certified_vertices(flat)
    keep = list(range(k))
    for i in range(k):
        if certified[i]:
            continue
        others = [j for j in keep if j != i]
        if not others:
            break
        dev = _lp_min_deviation(flat[i], convex_cols=flat[others].T)[0]
        if dev <= _PRUNE_EPS:
            keep.remove(i)
    return gens[[order[i] for i in keep]]


def prune(P: OperatorPolytope) -> OperatorPolytope:
    """Drop generators lying in the convex hull of the others.

    The hull (and therefore every support value) is unchanged; only the
    description shrinks.
    """
    return _vertex_polytope(_prune_gens(np.asarray(P.gens)))


# ---------------------------------------------------------------------------
# polytope arithmetic

def _check_same_dims(P: OperatorPolytope, Q: OperatorPolytope) -> None:
    if P.dims != Q.dims:
        raise DimensionMismatchError(f"dims disagree: {P.dims} vs {Q.dims}")


def minkowski_sum(P: OperatorPolytope, Q: OperatorPolytope) -> OperatorPolytope:
    """Minkowski sum, as the pruned pairwise sums of generators.

    The sums are listed P-major.  The zero singleton is the identity: a
    vertex list plus {0} is itself, up to -0.0 entries turning into +0.0.
    When both operands are vertex lists and one is a single point (a
    translation) or their affine spans are independent (a direct sum),
    every sum is a vertex and none is pruned.  Sums that overflow raise
    NonFiniteError before any prune.
    """
    _check_same_dims(P, Q)
    if _is_zero_point(P):
        P, Q = Q, P
    if _is_zero_point(Q) and _is_vertex_list(P):
        gens = _without_negative_zeros(P.gens)
        return P if gens is P.gens else _vertex_polytope(gens)
    m, n = P.dims
    sums = (P.gens[:, None, :, :] + Q.gens[None, :, :, :]).reshape(-1, m, n)
    if sums.shape[0] > 1 and _is_vertex_list(P) and _is_vertex_list(Q):
        if P.num_generators == 1 or Q.num_generators == 1:
            return _vertex_polytope(sums)
        cp, cq = _centred(P.flat), _centred(Q.flat)
        rank_p = _rank(np.linalg.svd(cp, compute_uv=False))
        rank_q = _rank(np.linalg.svd(cq, compute_uv=False))
        if rank_p + rank_q == _rank(np.linalg.svd(np.vstack([cp, cq]), compute_uv=False)):
            return _vertex_polytope(sums)
    if not np.isfinite(sums).all():
        raise NonFiniteError("generator entries must be finite")
    return _vertex_polytope(_prune_gens(sums))


def convex_union(parts: Sequence[OperatorPolytope]) -> OperatorPolytope:
    """Convex hull of a union of polytopes: concatenate, then prune.

    A union of one vertex list is that list itself, with no prune; any
    other single part, and every union of two or more, is pruned.
    """
    if not parts:
        raise DimensionMismatchError("convex_union needs at least one polytope")
    first = parts[0]
    if len(parts) == 1 and _is_vertex_list(first):
        return first
    for P in parts[1:]:
        _check_same_dims(first, P)
    stacked = np.concatenate([P.gens for P in parts])
    return _vertex_polytope(_prune_gens(stacked))


# ---------------------------------------------------------------------------
# membership and inclusion

def contains_point(
    P: OperatorPolytope, T, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether operator T lies in conv(P) within eps_geom in max-norm."""
    T = linop(T)
    if T.shape != tuple(P.dims):
        raise DimensionMismatchError(f"dims disagree: {T.shape} vs {P.dims}")
    dev = _lp_min_deviation(T.ravel(), convex_cols=P.flat.T)[0]
    return dev <= tol.eps_geom


def subset(
    P: OperatorPolytope, Q: OperatorPolytope, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, Optional[np.ndarray]]:
    """Whether conv(P) is contained in conv(Q).

    Generators suffice: the hull of P sits inside conv(Q) exactly when
    every generator does.  Returns (flag, first violating generator).
    """
    _check_same_dims(P, Q)
    for g in P.gens:
        if not contains_point(Q, g, tol):
            return False, g
    return True, None


def contains_in_sum_with_cone(
    T,
    P: OperatorPolytope,
    cones: Sequence[PolyCone],
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[bool, Optional[dict]]:
    """Whether T lies in conv(P) + sum of the given cones.

    On success returns a certificate with the convex weights and one
    coefficient vector per cone, in the order given.
    """
    T = linop(T)
    if T.shape != tuple(P.dims):
        raise DimensionMismatchError(f"dims disagree: {T.shape} vs {P.dims}")
    cols = []
    slices = []
    at = 0
    for K in cones:
        if tuple(K.dims) != tuple(P.dims):
            raise DimensionMismatchError(f"cone dims disagree: {K.dims} vs {P.dims}")
        kk = K.num_generators
        if kk:
            cols.append(K.flat.T)
        slices.append((at, at + kk))
        at += kk
    cone_cols = np.hstack(cols) if cols else None
    dev, lam, mu, _ = _lp_min_deviation(T.ravel(), convex_cols=P.flat.T, cone_cols=cone_cols)
    if dev > tol.eps_geom:
        return False, None
    per_cone = [mu[a:b] if b > a else np.zeros(0) for a, b in slices]
    return True, {"weights": lam, "cone_coeffs": per_cone, "deviation": dev}


def cone_contains(K: PolyCone, T, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether T lies in the cone generated by K (the zero cone if empty)."""
    T = linop(T)
    if T.shape != tuple(K.dims):
        raise DimensionMismatchError(f"dims disagree: {T.shape} vs {K.dims}")
    if K.num_generators == 0:
        return bool(np.max(np.abs(T)) <= tol.eps_geom)
    dev = _lp_min_deviation(T.ravel(), cone_cols=K.flat.T)[0]
    return dev <= tol.eps_geom


# ---------------------------------------------------------------------------
# nearest point

def _affine_minimizer(pts: np.ndarray) -> np.ndarray:
    """Affine weights minimizing |sum a_i p_i| subject to sum a_i = 1."""
    s = pts.shape[0]
    if s == 1:
        return np.ones(1)
    Q = pts @ pts.T
    M = np.zeros((s + 1, s + 1))
    M[0, 1:] = 1.0
    M[1:, 0] = 1.0
    M[1:, 1:] = Q
    b = np.zeros(s + 1)
    b[0] = 1.0
    sol, *_ = np.linalg.lstsq(M, b, rcond=None)
    return sol[1:]


def _min_norm_point(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm point of conv(points) by affine minimization.

    Wolfe's scheme: grow a corral with the most improving generator,
    minimize over its affine hull, and walk back to the simplex whenever
    the affine minimizer leaves it.  Returns (x, weights over all points).
    A squared norm that overflows raises NonFiniteError.
    """
    k, d = points.shape
    norms2 = np.einsum("ij,ij->i", points, points)  # einsum overflows without a warning
    scale = 1.0 + float(norms2.max(initial=0.0))
    if not math.isfinite(scale):
        raise NonFiniteError("a squared distance in the projection is not finite")
    active = [int(np.argmin(norms2))]
    lam = np.ones(1)
    x = points[active[0]].copy()
    for _ in range(16 * k + 64):
        dots = points @ x
        xx = float(x @ x)
        j = int(np.argmin(dots))
        if dots[j] >= xx - 1e-12 * scale:
            break
        if j in active:
            break
        active.append(j)
        lam = np.append(lam, 0.0)
        while True:
            sub = points[active]
            alpha = _affine_minimizer(sub)
            if np.all(alpha >= -1e-12):
                lam = np.clip(alpha, 0.0, None)
                lam /= lam.sum()
                x = lam @ sub
                break
            mask = alpha < 1e-12
            denom = lam - alpha
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 1e-15, lam / denom, np.inf)
            theta = min(1.0, float(ratios[mask].min()))
            lam = (1.0 - theta) * lam + theta * alpha
            lam[lam < 1e-12] = 0.0
            keep = lam > 0.0
            if keep.all():
                keep[int(np.argmin(alpha))] = False
            active = [a for a, kf in zip(active, keep) if kf]
            lam = lam[keep]
            total = lam.sum()
            if total <= 0.0 or not active:
                # degenerate collapse; restart from the best remaining point
                active = [int(np.argmin(norms2))]
                lam = np.ones(1)
                x = points[active[0]].copy()
                break
            lam /= total
    weights = np.zeros(k)
    for a, w in zip(active, lam):
        weights[a] += w
    return x, weights


def _audited(
    flat: np.ndarray, t: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, float, float, float]:
    """(p, dist, residual, bound) for the candidate p = x + t of the projection of t.

    residual is the largest <t - p, g - p> over the generators g; p
    passes the audit when it does not exceed bound.  A distance that is
    not finite raises NonFiniteError.
    """
    p = x + t
    dist = float(np.linalg.norm(x))
    if not math.isfinite(dist):
        raise NonFiniteError(f"projection distance {dist!r} is not finite")
    resid = float(((flat - p) @ (t - p)).max())
    spread = float(np.max(np.linalg.norm(flat - p, axis=1), initial=0.0))
    return p, dist, resid, max(_AUDIT_FLOOR, 1e-10 * (1.0 + dist) * (1.0 + spread))


def nearest_point(P: OperatorPolytope, T) -> tuple[np.ndarray, float]:
    """Euclidean projection of T onto conv(P) and its distance.

    The projection p must satisfy <T - p, g - p> <= eps for every
    generator g; the result is audited against that condition.  Far from
    unit scale the affine minimization can lose the projection, so a
    failed audit retries once on the points scaled, exactly, by a power
    of two to unit max-norm, and audits that result at the original
    scale.  A second failure raises, since it would invalidate every
    caller.  A squared distance or a distance that is not finite raises
    NonFiniteError.
    """
    T = linop(T)
    if T.shape != tuple(P.dims):
        raise DimensionMismatchError(f"dims disagree: {T.shape} vs {P.dims}")
    t = T.ravel()
    shifted = P.flat - t
    p, dist, resid, bound = _audited(P.flat, t, _min_norm_point(shifted)[0])
    if resid > bound:
        _, e = math.frexp(float(np.abs(shifted).max()))
        x = np.ldexp(_min_norm_point(np.ldexp(shifted, -e))[0], e)
        p, dist, retry_resid, retry_bound = _audited(P.flat, t, x)
        if retry_resid > retry_bound:
            raise RuntimeError(
                f"projection failed its optimality audit: residual {resid:.3e}"
            )
    return p.reshape(P.dims), dist


# ---------------------------------------------------------------------------
# polar cone

def _prune_rays(rays: np.ndarray, eps: float) -> np.ndarray:
    """Remove rays generated by the remaining ones (conic redundancy)."""
    k = rays.shape[0]
    if k <= 1:
        return rays
    keep = list(range(k))
    for i in range(k):
        others = [j for j in keep if j != i]
        if not others:
            break
        dev = _lp_min_deviation(rays[i], cone_cols=rays[others].T)[0]
        if dev <= eps:
            keep.remove(i)
    return rays[keep]


def _polar_rays(vectors: np.ndarray, eps: float) -> np.ndarray:
    """Generators of {v : <v, a> <= 0 for all a} by halfspace insertion.

    Starts from the full space (rays +-e_i) and intersects one halfspace
    at a time, combining positive and negative rays into boundary rays.
    Rays are kept unit length; redundancy is cleaned after each step.
    """
    n = vectors.shape[1]
    rays = np.vstack([np.eye(n), -np.eye(n)])
    for a in vectors:
        na = np.linalg.norm(a)
        if na <= 1e-12:
            continue
        a = a / na
        d = rays @ a
        zero_tol = 1e-12
        kept = rays[d <= zero_tol]
        plus = np.nonzero(d > zero_tol)[0]
        minus = np.nonzero(d < -zero_tol)[0]
        new = []
        for ip in plus:
            for im in minus:
                w = d[ip] * rays[im] - d[im] * rays[ip]
                nw = np.linalg.norm(w)
                if nw > 1e-12:
                    new.append(w / nw)
        if new:
            rays = np.vstack([kept, np.array(new)])
        else:
            rays = kept
        if rays.shape[0] == 0:
            return rays.reshape(0, n)
        rays = np.unique(np.round(rays, 12), axis=0)
        rays = _prune_rays(rays, eps)
    return rays


def polar_cone(K: PolyCone, m: int, tol: Tolerance = DEFAULT_TOL) -> PolyCone:
    """Operators sending the direction cone K into the nonpositive orthant.

    K holds direction vectors of R^n as 1-by-n generators.  The result is
    the cone of m-by-n operators T with T k <= 0 componentwise for every
    k in K; its generators are single-row lifts of the vector polar.  For
    K = {0} the polar is the full operator space.  The optimality checks
    do not build it: they pass K to `_lp_min_deviation` as `polar_of`.
    """
    km, n = K.dims
    if km != 1:
        raise DimensionMismatchError("polar_cone expects a cone of 1-by-n directions")
    if n > POLAR_DIM_CAP:
        raise UnsupportedDimensionError(
            f"polar construction is capped at n <= {POLAR_DIM_CAP}, got n = {n}"
        )
    if m < 1:
        raise DimensionMismatchError("output dim m must be at least 1")
    vecs = K.gens.reshape(-1, n)
    rays = _polar_rays(vecs, tol.eps_geom)
    if rays.shape[0] == 0:
        return PolyCone.trivial(m, n)
    lifted = np.zeros((m * rays.shape[0], m, n))
    idx = 0
    for j in range(m):
        for v in rays:
            lifted[idx, j, :] = v
            idx += 1
    return PolyCone(lifted)
