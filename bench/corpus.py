"""Seeded problem corpora for the four benchmark workloads.

Every problem is built here from the workload seed alone: this module
imports nothing from the package under test or from its test suite, so
edits to either cannot shift the inputs.  A corpus is a sequence of
blocks.  Each block holds the same fixed mix of problem classes in a
seeded order, so any whole number of blocks has exactly the workload's
class shares; the runner only stops at block boundaries.

Each problem is written as a problem JSON file next to a manifest entry
that carries its command, its expected exit code, for ``check`` its
expected mode and, where the construction fixes one, its expected
verdict.

Left out on purpose (both wait for a typed work-budget error in the
package, so that they fail fast instead of running for minutes):

* the three-operand vector ``Max`` at n = m = 4: it had not finished
  after 90 s;
* the two-operand vector ``Max`` of three-term abs sums at n = m = 3: it
  had not finished after 300 s.
"""

from __future__ import annotations

import json
import os

import numpy as np

# The position of a workload here seeds its corpus: add new ones at the end.
WORKLOADS = ("qd-kinks", "check-modes", "minimize-pl", "check-nocone")

COMMAND = {"qd-kinks": "qd", "check-modes": "check", "minimize-pl": "minimize",
           "check-nocone": "check"}

# Blocks written per corpus.  A run that needs more wraps around to the
# first block; the sizes cover a full run on a 2-core machine.
CORPUS_BLOCKS = {"qd-kinks": 10, "check-modes": 16, "minimize-pl": 50,
                 "check-nocone": 40}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1

# qd-kinks: twelve small problems, where parsing and validation dominate,
# and three heavy ones, where the prune LPs and selections dominate.  The
# heavy share of 3/15 puts p90 in the middle of the heavy class and p50
# inside the small class.  Vector Max entries are (n, m, operands, terms).
QD_SMALL_ZONO = (2, 3, 4, 5, 6)
QD_SMALL_VMAX = ((2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 1), (3, 2, 2, 2),
                 (2, 2, 3, 1), (3, 3, 2, 1), (2, 3, 2, 1))
QD_HEAVY_ZONO = (7, 8)
QD_HEAVY_VMAX = ((3, 3, 3, 1),)

# check-modes: the set-constrained class at n = 2..6 plus eight classes
# whose dimension, constraint and point counts are fixed per slot, so
# every block has the same shape.
CHECK_SET_DIMS = (2, 3, 4, 5, 6)
CHECK_CLASSES = ("saddle", "coercive", "ineq-holds", "ineq-fails",
                 "combined-holds", "combined-fails", "gen-holds", "gen-fails")
# The mode `qdcalc check` must pick, by the first word of the class.
CHECK_MODES = {"set": "set_constrained", "saddle": "unconstrained",
               "coercive": "unconstrained", "ineq": "inequality_constrained",
               "combined": "combined", "gen": "generalized"}

# check-nocone: the check modes that take no set cone, so no problem
# reaches polar_cone.  Five unconstrained problems at n = 2..6 (saddle or
# coercive by parity), two inequality-constrained, one light generalized,
# and two heavy generalized ones with three points at n = 6.  The heavy
# share of 2/10 puts p90 in the middle of the heavy class.  Entries are
# (class, n, constraints, points).
NOCONE_UNCONSTRAINED_DIMS = (2, 3, 4, 5, 6)
NOCONE_CLASSES = (("ineq-holds", 4, 2, 0), ("ineq-fails", 5, 3, 0),
                  ("gen-holds", 3, 0, 2), ("gen-holds", 6, 0, 3),
                  ("gen-fails", 6, 0, 3))

MIN_DIMS = (1, 2, 3, 4, 5)
# Iteration cap for minimize-pl.  Uncapped, the iteration count is set by
# the random landscape (11 to 500, coefficient of variation up to 0.9), so
# the seed would decide the work per problem; at 40 most runs stop at the
# cap and the work per problem varies by about 20%.  The workload measures
# the cost of descent iterations, not how many the solver needs.
MIN_MAX_ITERS = 40


# ---------------------------------------------------------------------------
# expression nodes, as the problem schema spells them

def _vec(v) -> list:
    return [float(t) for t in np.ravel(v)]


def affine(a, b) -> dict:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return {"op": "affine", "a": [_vec(r) for r in a], "b": _vec(b)}


def absn(arg: dict) -> dict:
    return {"op": "abs", "arg": arg}


def neg(arg: dict) -> dict:
    return {"op": "neg", "arg": arg}


def scale(diag, arg: dict) -> dict:
    return {"op": "scale", "diag": _vec(diag), "arg": arg}


def add(args: list) -> dict:
    return {"op": "add", "args": args}


def maxn(args: list) -> dict:
    return {"op": "max", "args": args}


def minn(args: list) -> dict:
    return {"op": "min", "args": args}


def wabs(w: float, row, b: float = 0.0) -> dict:
    """w * |row . x + b| as a scalar node."""
    return scale([w], absn(affine([row], [b])))


# ---------------------------------------------------------------------------
# random pieces

def _unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _full_rank_rows(rng, n: int) -> np.ndarray:
    while True:
        rows = rng.uniform(-1.0, 1.0, size=(n, n))
        if abs(np.linalg.det(rows)) > 1e-2:
            return rows


def _zonotope(rng, n: int) -> dict:
    """Weighted sum of |r_i . x| over n full-rank rows: kinks at the origin."""
    rows = _full_rank_rows(rng, n)
    w = rng.uniform(0.5, 2.0, size=n)
    return add([wabs(w[i], rows[i]) for i in range(n)])


def _vector_max(rng, n: int, m: int, operands: int, terms: int) -> dict:
    """Max of abs sums R^n -> R^m; every operand is 0 at the origin, so all tie."""
    ops = []
    for _ in range(operands):
        ops.append(add([
            scale(rng.uniform(0.5, 2.0, size=m),
                  absn(affine(rng.uniform(-1.0, 1.0, size=(m, n)), np.zeros(m))))
            for _ in range(terms)
        ]))
    return maxn(ops)


def _saddle(rng, n: int) -> dict:
    """Mixed-sign sum of weighted |r_i . x|: the origin is a saddle."""
    rows = _full_rank_rows(rng, n)
    w = rng.uniform(0.5, 2.0, size=n)
    split = int(rng.integers(1, n))
    terms = [wabs(w[i], rows[i]) for i in range(n)]
    return add(terms[:split] + [neg(t) for t in terms[split:]])


def _coercive(rng, n: int, center=None) -> dict:
    """Sum of weighted |r_i . (x - center)| plus a tilt inside the zonotope.

    The tilt c = R^T u with |u_i| <= 0.4 w_i is dominated by the abs terms,
    so the center is the strict minimizer.
    """
    rows = _full_rank_rows(rng, n)
    w = rng.uniform(0.5, 2.0, size=n)
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    offs = -(rows @ center)
    terms = [wabs(w[i], rows[i], offs[i]) for i in range(n)]
    c = rows.T @ (rng.uniform(-0.4, 0.4, size=n) * w)
    terms.append(affine([c], [-float(c @ center)]))
    return add(terms)


def _descending(rng, n: int, h: np.ndarray) -> dict:
    """Objective with f'(0; h) < 0 and a concave kink at the origin."""
    w = rng.uniform(0.2, 0.6, size=n)
    delta = float(w.sum()) + 0.5
    omega = rng.uniform(0.3, 0.8)
    terms = [affine([-delta * h], [0.0])]
    terms += [wabs(w[i], np.eye(n)[i]) for i in range(n)]
    terms.append(neg(wabs(omega, _unit(rng, n))))
    return add(terms)


def _active_constraint(rng, n: int, h: np.ndarray) -> dict:
    """g(x) = -alpha h.x + beta |v.x| - gamma |u.x|: g(0) = 0, g'(0; h) < 0."""
    alpha = rng.uniform(1.0, 2.0)
    beta = rng.uniform(0.2, 0.5)
    gamma = rng.uniform(0.2, 0.5)
    return add([
        affine([-alpha * h], [0.0]),
        wabs(beta, _unit(rng, n)),
        neg(wabs(gamma, _unit(rng, n))),
    ])


def _positive_cone(rng, n: int) -> np.ndarray:
    """n + 2 generators with entries in [0.1, 1]: a pointed cone."""
    return rng.uniform(0.1, 1.0, size=(n + 2, n))


# ---------------------------------------------------------------------------
# problem classes

def _case(cls: str, command: str, problem: dict, expect_exit: int,
          expect_holds=None) -> dict:
    case = {"class": cls, "command": command, "problem": problem,
            "expect_exit": expect_exit, "expect_holds": expect_holds}
    if command == "check":
        case["expect_mode"] = CHECK_MODES[cls.split("-")[0]]
    return case


def _qd_block(rng) -> list[dict]:
    out = []
    for n in QD_SMALL_ZONO + QD_HEAVY_ZONO:
        heavy = n in QD_HEAVY_ZONO
        prob = {"n": n, "m": 1, "objective": _zonotope(rng, n), "point": [0.0] * n}
        out.append(_case(f"{'heavy' if heavy else 'small'}-zono-n{n}", "qd", prob, EXIT_OK))
    for spec in QD_SMALL_VMAX + QD_HEAVY_VMAX:
        n, m, ops, terms = spec
        heavy = spec in QD_HEAVY_VMAX
        prob = {"n": n, "m": m, "objective": _vector_max(rng, n, m, ops, terms),
                "point": [0.0] * n}
        name = f"{'heavy' if heavy else 'small'}-vmax-n{n}m{m}r{ops}t{terms}"
        out.append(_case(name, "qd", prob, EXIT_OK))
    return out


def _set_case(rng, n: int, holds: bool) -> dict:
    cone = _positive_cone(rng, n)
    if holds:
        # f'(0; k) >= (beta - omega) |k|_1 > 0 on the cone.
        beta = rng.uniform(1.0, 1.5)
        omega = rng.uniform(0.3, 0.8)
        w = rng.uniform(0.2, 0.6, size=n)
        terms = [affine([beta * np.ones(n)], [0.0])]
        terms += [wabs(w[i], np.eye(n)[i]) for i in range(n)]
        terms.append(neg(wabs(omega, _unit(rng, n))))
        obj = add(terms)
    else:
        obj = _descending(rng, n, cone[0] / np.linalg.norm(cone[0]))
    prob = {"n": n, "m": 1, "objective": obj, "point": [0.0] * n,
            "set_cone": {"generators": [_vec(g) for g in cone]}}
    label = "holds" if holds else "fails"
    return _case(f"set-{label}-n{n}", "check", prob,
                 EXIT_OK if holds else EXIT_CHECK_FAILED, holds)


def _generalized(rng, n: int, npoints: int, holds: bool) -> dict:
    # Points on a coarse grid, two units apart, so only one piece is
    # active at each point.
    pts = [np.zeros(n) for _ in range(npoints)]
    for k in range(1, npoints):
        pts[k][k % n] = 2.0 * (1 + k // n)
    pieces = [_coercive(rng, n, p) for p in pts]
    if not holds:
        rows = _full_rank_rows(rng, n)
        w = rng.uniform(0.5, 2.0, size=n)
        split = int(rng.integers(1, n))
        terms = [wabs(w[i], rows[i]) for i in range(n)]
        pieces[0] = add(terms[:split] + [neg(t) for t in terms[split:]])
    return {"n": n, "m": 1, "objective": minn(pieces), "point": _vec(pts[0]),
            "generalized_points": [_vec(p) for p in pts]}


def _check_class(rng, cls: str, n: int, ncons: int, npoints: int) -> dict:
    holds = cls.endswith("holds") or cls == "coercive"
    expect = EXIT_OK if holds else EXIT_CHECK_FAILED
    name = f"{cls}-n{n}"
    if cls == "saddle":
        prob = {"n": n, "m": 1, "objective": _saddle(rng, n), "point": [0.0] * n}
    elif cls == "coercive":
        prob = {"n": n, "m": 1, "objective": _coercive(rng, n), "point": [0.0] * n}
    elif cls.startswith("gen"):
        prob = _generalized(rng, n, npoints, holds)
        name = f"{cls}-n{n}p{npoints}"
    else:
        cone = _positive_cone(rng, n) if cls.startswith("combined") else None
        # The shared descent direction h is feasible for every constraint
        # (and inside the cone), so the failing objective has a feasible
        # descent direction; the holding objective is coercive.
        h = cone[0] / np.linalg.norm(cone[0]) if cone is not None else _unit(rng, n)
        obj = _coercive(rng, n) if holds else _descending(rng, n, h)
        prob = {"n": n, "m": 1, "objective": obj, "point": [0.0] * n,
                "constraints": [_active_constraint(rng, n, h) for _ in range(ncons)]}
        if cone is not None:
            prob["set_cone"] = {"generators": [_vec(g) for g in cone]}
        name = f"{cls}-n{n}c{ncons}"
    return _case(name, "check", prob, expect, holds)


def _check_block(rng, b: int) -> list[dict]:
    out = [_set_case(rng, n, (n + b) % 2 == 0) for n in CHECK_SET_DIMS]
    for slot, cls in enumerate(CHECK_CLASSES):
        out.append(_check_class(rng, cls, 2 + slot % 5, 1 + slot % 3, 2 + slot % 2))
    return out


def _nocone_block(rng, b: int) -> list[dict]:
    out = [_check_class(rng, "saddle" if (n + b) % 2 else "coercive", n, 0, 0)
           for n in NOCONE_UNCONSTRAINED_DIMS]
    for cls, n, ncons, npoints in NOCONE_CLASSES:
        out.append(_check_class(rng, cls, n, ncons, npoints))
    return out


def _convex_pl(rng, n: int) -> tuple[dict, dict]:
    """Max of affines plus dominating abs anchors, and its data for the LP oracle."""
    r = int(rng.integers(2, 5))
    coeffs = rng.uniform(-1.0, 1.0, size=(r, n))
    offsets = rng.uniform(-1.0, 1.0, size=r)
    anchors = np.abs(coeffs).max(axis=0) + rng.uniform(0.2, 1.0, size=n)
    shift = rng.uniform(-0.5, 0.5, size=n)
    terms = [maxn([affine([c], [d]) for c, d in zip(coeffs, offsets)])]
    terms += [wabs(anchors[i], np.eye(n)[i], -shift[i]) for i in range(n)]
    data = {"coeffs": coeffs.tolist(), "offsets": offsets.tolist(),
            "anchors": anchors.tolist(), "shift": shift.tolist()}
    return add(terms), data


def _min_block(rng) -> list[dict]:
    out = []
    for n in MIN_DIMS:
        obj, data = _convex_pl(rng, n)
        x0 = rng.uniform(-2.0, 2.0, size=n)
        prob = {"n": n, "m": 1, "objective": obj, "point": _vec(x0),
                "options": {"max_iters": MIN_MAX_ITERS}}
        case = _case(f"cpl-n{n}", "minimize", prob, EXIT_OK)
        case["convex_pl"] = data
        out.append(case)
    return out


# ---------------------------------------------------------------------------
# corpus

def blocks(workload: str, seed: int, count: int | None = None) -> list[list[dict]]:
    """The seeded corpus of one workload, as a list of blocks of cases."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    count = CORPUS_BLOCKS[workload] if count is None else count
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = []
    for b in range(count):
        if workload == "qd-kinks":
            block = _qd_block(rng)
        elif workload == "check-modes":
            block = _check_block(rng, b)
        elif workload == "check-nocone":
            block = _nocone_block(rng, b)
        else:
            block = _min_block(rng)
        order = rng.permutation(len(block))
        block = [block[i] for i in order]
        for i, case in enumerate(block):
            case["id"] = f"b{b:03d}-{i:02d}-{case['class']}"
        out.append(block)
    return out


# Fixed one-dimensional problems for the set-up probe: tiny, so that the
# time measured is interpreter start, imports and first use.
TINY = {
    "qd": {"n": 1, "m": 1, "point": [0.0],
           "objective": absn(affine([[1.0]], [0.0]))},
    "check": {"n": 1, "m": 1, "point": [0.0],
              "objective": absn(affine([[1.0]], [0.0]))},
    "minimize": {"n": 1, "m": 1, "point": [0.0],
                 "objective": absn(affine([[1.0]], [-1.0]))},
}


def write(workload: str, seed: int, outdir: str, count: int | None = None) -> dict:
    """Write the corpus files and manifest.json into outdir; return the manifest.

    The manifest lists blocks of entries with the problem file name, the
    command, the expected exit code and the expected verdict (or null),
    plus the data the oracles need.
    """
    os.makedirs(outdir, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "blocks": []}
    for block in blocks(workload, seed, count):
        entries = []
        for case in block:
            fname = case["id"] + ".json"
            _dump(case["problem"], os.path.join(outdir, fname))
            entry = {k: v for k, v in case.items() if k != "problem"}
            entry["file"] = fname
            entries.append(entry)
        manifest["blocks"].append(entries)
    command = COMMAND[workload]
    _dump(TINY[command], os.path.join(outdir, "tiny.json"))
    manifest["tiny"] = "tiny.json"
    manifest["command"] = command
    _dump(manifest, os.path.join(outdir, "manifest.json"))
    return manifest


def _dump(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True)
        f.write("\n")
