"""Quasidifferential calculus for coordinatewise-ordered vector maps.

Pairs of convex operator polytopes play the role of derivatives for
nonsmooth maps into R^m: directional derivatives are differences of
support functions, calculus rules push pairs through expressions, and
optimality conditions are checkable inclusions between the halves.
"""

from .errors import (
    DimensionMismatchError,
    InfeasiblePointError,
    NonFiniteError,
    SchemaError,
    UnsupportedDimensionError,
)
from .geometry import (
    DEFAULT_TOL,
    OperatorPolytope,
    PolyCone,
    Tolerance,
    contains_point,
    convex_union,
    linop,
    minkowski_sum,
    nearest_point,
    polar_cone,
    prune,
    separating_direction,
    support,
)
from .qdcore import (
    COMPOSE_DIM_CAP,
    DEFAULT_EPS_ACTIVE,
    Orthomorphism,
    QuasiDiff,
    diag_scale,
    qd_add,
    qd_compose,
    qd_eval_dir,
    qd_inf,
    qd_linear,
    qd_product,
    qd_scale,
    qd_sup,
)
from .expr import (
    Abs,
    Add,
    Affine,
    Compose,
    Const,
    Expr,
    Max,
    Min,
    Mul,
    Neg,
    Scale,
    Smooth,
    Var,
    dini_convergence,
    dini_fd,
    dini_quotients,
    eval_expr,
    expr_from_json,
    expr_to_json,
    is_piecewise_linear,
    qd_at,
)
from .optimality import (
    ConstraintSystem,
    MultiplierCertificate,
    QuasiregularityReport,
    Verdict,
    Witness,
    check_combined,
    check_generalized,
    check_inequality_constrained,
    check_set_constrained,
    check_slackened,
    check_unconstrained,
    quasiregularity_diagnostic,
)
from .solver import (
    IterateRecord,
    SolverParams,
    SolverResult,
    minimize,
    steepest_descent_direction,
)

__version__ = "0.1.0"
