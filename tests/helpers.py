"""Shared generators and oracles for the test suite.

Random expressions are drawn with bounded coefficients and filtered for
genericity at the probe point: every kink argument must sit either
exactly on the kink (an intentional tie) or a safe gap away from it, so
the last finite-difference step cannot jump branches.  The filters look
only at the expression and the point, never at the quantity under test.
"""

from __future__ import annotations

import functools
import os
from importlib import resources

import numpy as np

from qdcalc import (
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
    OperatorPolytope,
    QuasiDiff,
    Scale,
    Smooth,
    Var,
    dini_quotients,
    eval_expr,
    qd_eval_dir,
)
from qdcalc.expr import SMOOTH_PRIMITIVES
from qdcalc.qdcore import DEFAULT_EPS_ACTIVE

# Kink arguments must clear this gap at the probe point unless they are
# exact ties; keeps the 1e-5 finite-difference step on one branch.
GAP_MIN = 1e-3
TIE_EPS = 1e-12
# Root values are capped so the piecewise-linear quotient at step 1e-5
# keeps ~1e-10 float headroom under the 1e-9 agreement tolerance.
VALUE_CAP = 8.0

_SMOOTH_NAMES = ("sin", "cos", "exp", "sqr", "tanh")


# ---------------------------------------------------------------------------
# random polytopes and pairs

def rand_polytope(rng, m, n, max_gens=4, scale=1.0):
    k = int(rng.integers(1, max_gens + 1))
    return OperatorPolytope(rng.uniform(-scale, scale, size=(k, m, n)))


def rand_qd(rng, m, n, max_gens=4, scale=1.0):
    return QuasiDiff(rand_polytope(rng, m, n, max_gens, scale),
                     rand_polytope(rng, m, n, max_gens, scale))


def unit_directions(rng, n, count):
    h = rng.standard_normal(size=(count, n))
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    return h / np.where(norms == 0, 1.0, norms)


def eval_dirs(q, hs):
    return np.array([qd_eval_dir(q, h) for h in hs])


def cone_residual(rays, v) -> float:
    """Euclidean distance from v to the cone spanned by the rows of rays
    (|v| for no rows), by nonnegative least squares, with no LP solver."""
    from scipy.optimize import nnls

    v = np.asarray(v, dtype=float).ravel()
    if len(rays) == 0:
        return float(np.linalg.norm(v))
    return float(nnls(np.asarray(rays, dtype=float).T, v)[1])


def support_functions_match(qa, qb, rng, count=100, tol=1e-9):
    """Directional derivatives of two pairs agree on a direction sample."""
    hs = unit_directions(rng, qa.dims[1], count)
    return bool(np.max(np.abs(eval_dirs(qa, hs) - eval_dirs(qb, hs))) <= tol)


# ---------------------------------------------------------------------------
# random expressions

def _rand_affine(rng, m, n):
    return Affine(rng.uniform(-0.7, 0.7, size=(m, n)), rng.uniform(-0.5, 0.5, size=m))


def _rand_leaf(rng, n, m, allow_smooth):
    kinds = ["affine", "affine", "const"]
    if m == n:
        kinds.append("var")
        if allow_smooth:
            kinds.append("smooth")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "affine":
        return _rand_affine(rng, m, n)
    if kind == "const":
        return Const(rng.uniform(-1.0, 1.0, size=m), n)
    if kind == "var":
        return Var(n)
    return Smooth(_SMOOTH_NAMES[rng.integers(len(_SMOOTH_NAMES))], n)


def rand_expr(rng, n, m, depth, pl_only=False, _smooth_budget=None):
    """Random expression tree mapping R^n -> R^m with bounded coefficients.

    At most two smooth leaves per tree keeps the finite-difference
    curvature error well inside the smooth agreement tolerance.
    """
    if _smooth_budget is None:
        _smooth_budget = [0 if pl_only else 2]
    allow_smooth = _smooth_budget[0] > 0
    if depth <= 0:
        e = _rand_leaf(rng, n, m, allow_smooth)
        if isinstance(e, Smooth):
            _smooth_budget[0] -= 1
        return e
    kinds = ["abs", "neg", "add", "scale", "max", "min", "compose", "leaf"]
    if not pl_only:
        kinds.append("mul")
    kind = kinds[rng.integers(len(kinds))]
    sub = lambda nn, mm, dd: rand_expr(rng, nn, mm, dd, pl_only, _smooth_budget)
    if kind == "leaf":
        e = _rand_leaf(rng, n, m, allow_smooth)
        if isinstance(e, Smooth):
            _smooth_budget[0] -= 1
        return e
    if kind == "abs":
        return Abs(sub(n, m, depth - 1))
    if kind == "neg":
        return Neg(sub(n, m, depth - 1))
    if kind == "add":
        return Add([sub(n, m, depth - 1) for _ in range(rng.integers(2, 4))])
    if kind == "scale":
        return Scale(rng.uniform(-0.9, 0.9, size=m), sub(n, m, depth - 1))
    if kind == "mul":
        return Mul(sub(n, m, depth - 1), sub(n, m, depth - 1))
    if kind in ("max", "min"):
        args = [sub(n, m, depth - 1) for _ in range(rng.integers(2, 4))]
        return Max(args) if kind == "max" else Min(args)
    mid = int(rng.integers(1, 5))
    return Compose(sub(mid, m, depth - 1), sub(n, mid, depth - 1))


def is_generic_at(e: Expr, x) -> bool:
    """Every kink argument is an exact tie or clears GAP_MIN at x."""
    x = np.asarray(x, dtype=float)
    if isinstance(e, Abs):
        v = e.arg.evaluate(x)
        ok = np.all((np.abs(v) <= TIE_EPS) | (np.abs(v) >= GAP_MIN))
        return bool(ok) and is_generic_at(e.arg, x)
    if isinstance(e, (Max, Min)):
        vals = np.stack([a.evaluate(x) for a in e.args])
        best = vals.max(axis=0) if isinstance(e, Max) else vals.min(axis=0)
        gaps = np.abs(vals - best)
        ok = np.all((gaps <= TIE_EPS) | (gaps >= GAP_MIN))
        return bool(ok) and all(is_generic_at(a, x) for a in e.args)
    if isinstance(e, Compose):
        return is_generic_at(e.inner, x) and is_generic_at(e.outer, e.inner.evaluate(x))
    return all(is_generic_at(c, x) for c in e.children())


def fd_quotients_converged(e: Expr, x, hs, rel=4e-5) -> bool:
    """The quotient ladder has settled on every direction.

    The last successive gap is ~4.5e-5 times the curvature along h,
    while the reported quotient is off the limit by ~5e-6 times it, so
    a gap within rel*(1+|quotient|) certifies the oracle to well under
    the smooth agreement tolerance.  Uses only function evaluations.
    """
    for h in hs:
        q = dini_quotients(e, x, h)
        gap = np.abs(q[-1] - q[-2])
        if np.any(gap > rel * (1.0 + np.abs(q[-1]))):
            return False
    return True


ROOT_KINDS = ("var", "const", "affine", "smooth", "abs", "neg", "add",
              "scale", "mul", "max", "min", "compose")


def _rooted(rng, kind, n, m, depth, pl_only, budget):
    sub = lambda nn, mm: rand_expr(rng, nn, mm, depth, pl_only, budget)
    if kind == "var":
        return Var(n)
    if kind == "const":
        return Const(rng.uniform(-1.0, 1.0, size=m), n)
    if kind == "affine":
        return _rand_affine(rng, m, n)
    if kind == "smooth":
        budget[0] -= 1
        return Smooth(_SMOOTH_NAMES[rng.integers(len(_SMOOTH_NAMES))], n)
    if kind == "abs":
        return Abs(sub(n, m))
    if kind == "neg":
        return Neg(sub(n, m))
    if kind == "add":
        return Add([sub(n, m) for _ in range(rng.integers(2, 4))])
    if kind == "scale":
        return Scale(rng.uniform(-0.9, 0.9, size=m), sub(n, m))
    if kind == "mul":
        return Mul(sub(n, m), sub(n, m))
    if kind in ("max", "min"):
        args = [sub(n, m) for _ in range(rng.integers(2, 4))]
        return Max(args) if kind == "max" else Min(args)
    mid = int(rng.integers(1, 5))
    return Compose(sub(mid, m), sub(n, mid))


def rooted_instance(rng, kind, max_dim=4, max_depth=3, directions=5,
                    max_tries=400):
    """A filtered (expr, x, hs) draw whose root node has the given kind."""
    pl_only = kind not in ("smooth", "mul") and bool(rng.integers(2))
    if kind in ("smooth", "mul"):
        pl_only = False
    for _ in range(max_tries):
        n = int(rng.integers(1, max_dim + 1))
        m = n if kind in ("var", "smooth") else int(rng.integers(1, max_dim + 1))
        depth = int(rng.integers(0, max_depth + 1))
        budget = [0 if pl_only else 2]
        e = _rooted(rng, kind, n, m, depth, pl_only, budget)
        x = rng.uniform(-1.5, 1.5, size=n)
        if not np.all(np.isfinite(e.evaluate(x))):
            continue
        if np.max(np.abs(e.evaluate(x))) > VALUE_CAP:
            continue
        if not is_generic_at(e, x):
            continue
        hs = unit_directions(rng, n, directions)
        if fd_quotients_converged(e, x, hs):
            return e, x, hs
    raise RuntimeError(f"could not draw a rooted {kind} instance")


def rand_instance(rng, max_dim=4, max_depth=5, pl_only=False, max_tries=200,
                  directions=0):
    """A generic (expr, x[, hs]) draw; retries until the filters pass.

    With directions > 0 also draws that many unit directions and keeps
    only instances whose finite-difference ladder has converged along
    all of them, returning (expr, x, hs).
    """
    for _ in range(max_tries):
        n = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(1, max_dim + 1))
        depth = int(rng.integers(1, max_depth + 1))
        e = rand_expr(rng, n, m, depth, pl_only=pl_only)
        x = rng.uniform(-1.5, 1.5, size=n)
        if not np.all(np.isfinite(e.evaluate(x))):
            continue
        if np.max(np.abs(e.evaluate(x))) > VALUE_CAP:
            continue
        if not is_generic_at(e, x):
            continue
        if directions == 0:
            return e, x
        hs = unit_directions(rng, n, directions)
        if fd_quotients_converged(e, x, hs):
            return e, x, hs
    raise RuntimeError("could not draw a generic instance")


# ---------------------------------------------------------------------------
# piecewise-linear optimization instances

def saddle_instance(rng, n):
    """Sum of weighted abs terms with mixed signs: a saddle at the origin."""
    split = int(rng.integers(1, n))
    a = rng.uniform(0.5, 2.0, size=n)
    terms = []
    for i in range(n):
        row = np.zeros((1, n))
        row[0, i] = 1.0
        t = Scale([a[i]], Abs(Affine(row, [0.0])))
        terms.append(t if i < split else Neg(t))
    return Add(terms)


def coercive_instance(rng, n):
    """Positive combination of abs of full-rank rows plus a mild tilt.

    The tilt is dominated by the abs terms, so the origin stays the
    unique minimizer.
    """
    a = rng.uniform(0.5, 2.0, size=n)
    if rng.random() < 0.5:
        rows = np.eye(n)
    else:
        while True:
            rows = rng.uniform(-1.0, 1.0, size=(n, n))
            if np.linalg.matrix_rank(rows) == n and np.abs(np.linalg.det(rows)) > 1e-2:
                break
    terms = [Scale([a[i]], Abs(Affine(rows[i][None, :], [0.0]))) for i in range(n)]
    # Tilt within the zonotope interior: c = rows^T w with |w_i| <= 0.4 a_i.
    w = rng.uniform(-0.4, 0.4, size=n) * a
    c = rows.T @ w
    terms.append(Affine(c[None, :], [0.0]))
    return Add(terms)


def convex_pl_instance(rng, n):
    """Max of affines anchored by a dominating sum of abs terms.

    Anchor weights exceed every piece's coefficient coordinatewise, so
    the total is coercive: along any ray the abs sum outgrows whatever
    the max term loses.
    """
    coeffs = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 5)), n))
    pieces = [Affine(c[None, :], rng.uniform(-1.0, 1.0, size=1)) for c in coeffs]
    a = np.abs(coeffs).max(axis=0) + rng.uniform(0.2, 1.0, size=n)
    shift = rng.uniform(-0.5, 0.5, size=n)
    terms = [Max(pieces)]
    for i in range(n):
        row = np.zeros((1, n))
        row[0, i] = 1.0
        terms.append(Scale([a[i]], Abs(Affine(row, [-shift[i]]))))
    return Add(terms)


# ---------------------------------------------------------------------------
# sampling oracles

def local_min_sampling(e: Expr, x0, radius=1e-3, samples=10_000, rng=None, slack=1e-12):
    """Brute-force check that x0 is an ideal local minimum on a sample.

    Ideal means every coordinate is minimized at x0 simultaneously, so a
    single sampled point dropping any coordinate below f(x0) - slack
    refutes it.  For scalar maps this is the plain descent test.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    u = rng.standard_normal(size=(samples, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius * rng.random(size=(samples, 1)) ** (1.0 / n)
    pts = x0 + r * u
    f0 = e.evaluate(x0)
    vals = e.evaluate(pts)
    return not bool(np.any(vals < f0 - slack))


def generalized_min_sampling(e: Expr, points, radius=1e-3, samples=2000, rng=None,
                             slack=1e-12):
    """Sampling check of a generalized local optimum for several points.

    Draws joint perturbations of all points and tests whether the
    coordinatewise meet of the values can drop below the base meet in
    any coordinate; the order on R^m is coordinatewise, so one dropping
    coordinate refutes the optimum.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    pts = [np.asarray(p, dtype=float) for p in points]
    n = pts[0].shape[0]
    meet0 = np.min(np.stack([e.evaluate(p) for p in pts]), axis=0)
    for _ in range(samples):
        trial = []
        for p in pts:
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            trial.append(p + radius * rng.random() * u)
        meet = np.min(np.stack([e.evaluate(t) for t in trial]), axis=0)
        if np.any(meet < meet0 - slack):
            return False
    return True


def grid_minimum(e: Expr, lo, hi, points_per_axis):
    """Exhaustive minimum of a scalar map over a uniform grid."""
    n = e.in_dim
    axes = [np.linspace(lo, hi, points_per_axis) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    vals = e.evaluate(pts)[..., 0]
    return float(vals.min())


# ---------------------------------------------------------------------------
# exact directional derivatives at kinks

def dir_deriv(e: Expr, x, h, eps_active: float = DEFAULT_EPS_ACTIVE) -> np.ndarray:
    """f'(x; h) of e by one forward walk that carries (value, derivative)
    through the tree, with no polytope: the chain rule for directional
    derivatives of Lipschitz, directionally differentiable maps (Shapiro,
    JOTA 1990), the forward mode of piecewise-linear AD.  A Max, Min or Abs
    (as max(u, -u)) takes the max (min) of its operands' derivatives over
    the operands active within eps_active, the band qd_at uses; values are
    formed by the operations evaluation uses, so both see the same ties.
    """
    return _walk(e, np.asarray(x, dtype=float), np.asarray(h, dtype=float), eps_active)[1]


def _walk(e: Expr, x, h, eps):
    if isinstance(e, Var):
        return x, h
    if isinstance(e, Const):
        return e.value, np.zeros(e.out_dim)
    if isinstance(e, Affine):
        return e.evaluate(x), e.a @ h
    if isinstance(e, Smooth):
        f, df = SMOOTH_PRIMITIVES[e.name]
        return f(x), df(x) * h
    if isinstance(e, Compose):
        return _walk(e.outer, *_walk(e.inner, x, h, eps), eps)
    if isinstance(e, Mul):
        (g, dg), (f, df) = _walk(e.scalar, x, h, eps), _walk(e.arg, x, h, eps)
        return g * f, dg * f + g * df
    parts = [_walk(c, x, h, eps) for c in e.children()]
    if isinstance(e, Neg):
        return -parts[0][0], -parts[0][1]
    if isinstance(e, Scale):
        return e.diag * parts[0][0], e.diag * parts[0][1]
    if isinstance(e, Abs):
        (v, d), = parts
        parts = [(v, d), (-v, -d)]
    vals, ders = np.array([v for v, _ in parts]), np.array([d for _, d in parts])
    if isinstance(e, Add):
        return functools.reduce(np.add, vals), ders.sum(axis=0)
    if isinstance(e, Min):
        active = vals <= vals.min(axis=0) + eps
        return vals.min(axis=0), np.where(active, ders, np.inf).min(axis=0)
    active = vals >= vals.max(axis=0) - eps  # Max, Abs
    return np.abs(vals[0]) if isinstance(e, Abs) else vals.max(axis=0), \
        np.where(active, ders, -np.inf).max(axis=0)


def exact_ties(e: Expr, x) -> int:
    """The coordinates, over all kink nodes, where two operands of a Max or
    Min attain exactly, or where the argument of an Abs is exactly 0, at x."""
    if isinstance(e, Compose):
        return exact_ties(e.inner, x) + exact_ties(e.outer, e.inner.evaluate(x))
    own = 0
    if isinstance(e, Abs):
        own = int(np.sum(e.arg.evaluate(x) == 0.0))
    elif isinstance(e, (Max, Min)):
        vals = np.stack([a.evaluate(x) for a in e.args])
        best = vals.max(axis=0) if isinstance(e, Max) else vals.min(axis=0)
        own = int(np.sum((vals == best).sum(axis=0) > 1))
    return own + sum(exact_ties(c, x) for c in e.children())


KINK_DIAGS = (-1.0, -1.5, 0.0, 2.0)


def kink_expr(rng, x, m, depth, tie=0.75):
    """A random tree R^n -> R^m over Var, Const, Affine, Abs, Neg, Scale, Add,
    Max and Min, at most depth deep, whose leaves tie at x: with
    probability tie an affine leaf gets b = -A x and a constant is 0, so
    its value at x is exactly 0 and every kink over such leaves ties.
    Max and Min take 2 or 3 operands; a Scale diagonal mixes the entries
    -1, -1.5, 0 and 2 with uniform ones."""
    n = x.size
    kinds = ["abs", "neg", "add", "scale", "max", "min", "leaf"]
    kind = "leaf" if depth <= 0 else kinds[rng.integers(len(kinds))]
    sub = lambda: kink_expr(rng, x, m, depth - 1, tie)
    if kind == "leaf":
        leaf = rng.integers(3 if m == n else 2)
        if leaf == 2:
            return Var(n)
        tied = rng.random() < tie
        if leaf == 1:
            return Const(np.zeros(m) if tied else rng.uniform(-1.0, 1.0, size=m), n)
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        return Affine(a, -(x @ a.T) if tied else rng.uniform(-0.5, 0.5, size=m))
    if kind in ("abs", "neg"):
        return (Abs if kind == "abs" else Neg)(sub())
    if kind == "scale":
        special = rng.choice(KINK_DIAGS, size=m)
        return Scale(np.where(rng.random(m) < 0.5, special, rng.uniform(-2.0, 2.0, size=m)), sub())
    args = [sub() for _ in range(rng.integers(2, 4))]
    return {"add": Add, "max": Max, "min": Min}[kind](args)


def fresh_env() -> dict:
    """The environment of a new interpreter that imports this qdcalc."""
    src = str(resources.files("qdcalc").parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
