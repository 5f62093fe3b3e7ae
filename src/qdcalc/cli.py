"""Command line front end.

Problems are JSON files in the language of the shipped problem schema,
checked by one built-in pass over the whole document before any
expression is built; the pass reads each expression node's fields from
the op table that expr_from_json reads.  Reports come back as text or
JSON with a stable key order.  Floats pass through Python's shortest
round-trip serialization, so a report re-read from disk carries exactly
the binary values the run produced.

Exit codes: 0 success (and condition holds for check), 1 condition
fails, 2 problem file rejected (unreadable, not JSON, a non-finite
number, expressions nested deeper than 256 levels, or a schema violation,
named by its JSON path; also a flag outside the bounds the file puts on the
same option, or a --point entry that is not a finite number, named by
argparse), 3 dimension error (or a value that overflows the double range
while deriving, in the finite-difference diagnostic of qd or in a
projection of minimize), 4
infeasible base point, 5 unsupported problem shape for the command
(minimize needs a scalar unconstrained objective), 6 internal error (a
solver or audit failure inside the package, reported as one "error:
internal:" line).

With QDCALC_LOG=debug each run logs one timing line per phase
(load+validate, then derive, check or solve, then render) to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import NoReturn, Optional

import numpy as np

from .errors import (
    CompositionBoundError,
    DimensionMismatchError,
    InfeasiblePointError,
    NonFiniteError,
    SchemaError,
    UnsupportedDimensionError,
)
from .expr import (
    _NODE_FIELDS,
    SMOOTH_PRIMITIVES,
    Expr,
    dini_convergence,
    dini_fd,
    eval_expr,
    expr_from_json,
    qd_at,
)
from .geometry import DEFAULT_TOL, OperatorPolytope, PolyCone, Tolerance, coordinate_rows
from .optimality import (
    ConstraintSystem,
    Verdict,
    check_combined,
    check_generalized,
    check_inequality_constrained,
    check_set_constrained,
    check_unconstrained,
    quasiregularity_diagnostic,
)
from .qdcore import DEFAULT_EPS_ACTIVE, QuasiDiff, qd_eval_dir
from .solver import SolverParams, minimize

__all__ = ["main", "load_problem", "cmd_qd", "cmd_check", "cmd_minimize"]

logger = logging.getLogger("qdcalc")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_DIMENSION = 3
EXIT_INFEASIBLE = 4
EXIT_UNSUPPORTED = 5
EXIT_INTERNAL = 6

_FD_DIRECTIONS = 20

# Name of each command's working phase in the QDCALC_LOG=debug timings.
_COMMAND_PHASE = {"qd": "derive", "check": "check", "minimize": "solve"}


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"number {text} overflows a double")
    return x


@dataclass(frozen=True, eq=False)
class Problem:
    n: int
    m: int
    objective: Expr
    constraints: tuple[Expr, ...]
    set_cone: Optional[PolyCone]
    point: np.ndarray
    generalized_points: Optional[tuple[np.ndarray, ...]]
    options: dict


@dataclass(frozen=True)
class Options:
    """Resolved tolerances and solver knobs: defaults < file < flags."""

    tol: Tolerance
    eps_active: float
    max_iters: int
    step_init: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "tol_geom": self.tol.eps_geom,
            "tol_active": self.eps_active,
            "max_iters": self.max_iters,
            "step_init": self.step_init,
            "seed": self.seed,
        }


def load_problem(path: str) -> Problem:
    """Read, schema-check, and dimension-check a problem file.

    Every way the file itself can be bad raises SchemaError: unreadable,
    not JSON, a number that is not a finite double, nesting deeper than
    the decoder can recurse or than _MAX_DEPTH expression levels, or a
    schema violation.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f, parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("problem file is nested too deeply to decode") from exc
    try:
        return _problem_from_json(raw)
    except RecursionError as exc:
        raise SchemaError("problem file is nested too deeply to load") from exc
    except OverflowError as exc:  # an integer literal beyond the double range
        raise SchemaError(f"number out of range: {exc}") from exc


def _problem_from_json(raw) -> Problem:
    _validate_problem(raw)
    # The schema's integers include integral floats such as 2.0.
    n, m = int(raw["n"]), int(raw["m"])
    objective = expr_from_json(raw["objective"])
    if objective.in_dim != n or objective.out_dim != m:
        raise DimensionMismatchError(
            f"objective maps R^{objective.in_dim} -> R^{objective.out_dim}, "
            f"problem declares n={n}, m={m}"
        )
    constraints = []
    for i, cj in enumerate(raw.get("constraints", [])):
        g = expr_from_json(cj)
        if g.in_dim != n:
            raise DimensionMismatchError(f"constraint {i} has input dim {g.in_dim}, expected {n}")
        constraints.append(g)
    set_cone = None
    if "set_cone" in raw:
        for i, g in enumerate(raw["set_cone"]["generators"]):
            if len(g) != n:
                raise DimensionMismatchError(
                    f"set cone generator {i} has length {len(g)}, expected {n}"
                )
        gens = np.asarray(raw["set_cone"]["generators"], dtype=float)
        set_cone = (
            PolyCone.from_generators(gens[:, None, :]) if gens.size else PolyCone.trivial(1, n)
        )
    point = np.asarray(raw["point"], dtype=float)
    if point.shape != (n,):
        raise DimensionMismatchError(f"point has length {point.shape[0]}, expected {n}")
    gpoints = None
    if "generalized_points" in raw:
        gp = [np.asarray(p, dtype=float) for p in raw["generalized_points"]]
        for i, p in enumerate(gp):
            if p.shape != (n,):
                raise DimensionMismatchError(
                    f"generalized point {i} has length {p.shape[0]}, expected {n}"
                )
        gpoints = tuple(gp)
    return Problem(
        n=n,
        m=m,
        objective=objective,
        constraints=tuple(constraints),
        set_cone=set_cone,
        point=point,
        generalized_points=gpoints,
        options={
            key: int(value) if _OPTIONS[key][0] else value
            for key, value in raw.get("options", {}).items()
        },
    )


# ---------------------------------------------------------------------------
# the problem-file language

# The deepest expression nesting a problem file may use.  Deeper files are
# refused while the document is checked, before anything builds or walks an
# expression tree, so the limit does not depend on the interpreter's stack.
_MAX_DEPTH = 256

_PROBLEM_FIELDS = (
    "n", "m", "objective", "constraints", "set_cone", "point", "generalized_points", "options",
)
# options key, which is also the dest of its flag -> (integer, minimum,
# exclusive minimum, default)
_OPTIONS = {
    "tol_geom": (False, 0, True, DEFAULT_TOL.eps_geom),
    "tol_active": (False, 0, True, DEFAULT_EPS_ACTIVE),
    "max_iters": (True, 1, False, SolverParams.max_iters),
    "step_init": (False, 0, True, SolverParams.step_init),
    "seed": (True, 0, False, 0),
}
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "integer", float: "number", type(None): "null"}


def _validate_problem(raw) -> None:
    """Raise SchemaError at the first place raw leaves the problem language.

    Accepts exactly the documents that the shipped problem.schema.json
    accepts under JSON Schema 2020-12, where an integral float such as 1.0
    is an integer and a bool is not a number, except that expressions
    nested deeper than _MAX_DEPTH levels are refused.  The op -> {field:
    kind} table is expr._NODE_FIELDS, the one table expr_from_json reads.
    The message names the JSON path.
    """
    _check_object(raw, "$", _PROBLEM_FIELDS, ("n", "m", "objective", "point"))
    if "constraints" in raw and "generalized_points" in raw:
        _reject("$", "constraints and generalized_points are mutually exclusive")
    _check_number(raw["n"], "$.n", 1, integer=True)
    _check_number(raw["m"], "$.m", 1, integer=True)
    _check_expr(raw["objective"], "$.objective", 1)
    for i, g in enumerate(_check_array(raw.get("constraints", []), "$.constraints", False)):
        _check_expr(g, f"$.constraints[{i}]", 1)
    if "set_cone" in raw:
        cone = _check_object(raw["set_cone"], "$.set_cone", ("generators",), ("generators",))
        path = "$.set_cone.generators"
        for i, g in enumerate(_check_array(cone["generators"], path, False)):
            _check_vector(g, f"{path}[{i}]")
    _check_vector(raw["point"], "$.point")
    if "generalized_points" in raw:
        path = "$.generalized_points"
        for i, p in enumerate(_check_array(raw["generalized_points"], path, True)):
            _check_vector(p, f"{path}[{i}]")
    options = _check_object(raw.get("options", {}), "$.options", _OPTIONS)
    for key, value in options.items():
        integer, minimum, exclusive, _ = _OPTIONS[key]
        _check_number(value, f"$.options.{key}", minimum, integer=integer, exclusive=exclusive)


def _check_expr(node, path: str, depth: int) -> None:
    if depth > _MAX_DEPTH:
        _reject(path, f"expression nested deeper than {_MAX_DEPTH} levels")
    if type(node) is not dict:
        _reject(path, f"expected an expression object, got {_json_type(node)}")
    op = node.get("op")
    fields = _NODE_FIELDS.get(op) if type(op) is str else None
    if fields is None:
        if "op" not in node:
            _reject(path, "missing field 'op'")
        _reject(path, f"unknown op {op!r}" if type(op) is str else
                f"op must be a string, got {_json_type(op)}")
    for key, value in node.items():
        if key == "op":
            continue
        kind = fields.get(key)
        if kind is None:
            _reject(path, f"field {key!r} is not allowed on op {op!r}")
        at = f"{path}.{key}"
        if kind == "expr":
            _check_expr(value, at, depth + 1)
        elif kind == "exprs":
            for i, a in enumerate(_check_array(value, at, True)):
                _check_expr(a, f"{at}[{i}]", depth + 1)
        elif kind == "int":
            _check_number(value, at, 1, integer=True)
        elif kind == "matrix":
            for i, row in enumerate(_check_array(value, at, True)):
                _check_vector(row, f"{at}[{i}]")
        elif kind == "name":
            if type(value) is not str or value not in SMOOTH_PRIMITIVES:
                _reject(at, f"expected one of {', '.join(SMOOTH_PRIMITIVES)}")
        else:  # vector
            _check_vector(value, at)
    if len(node) <= len(fields):
        _reject(path, f"op {op!r} needs field {min(fields.keys() - node.keys())!r}")


def _check_object(value, path: str, allowed, required=()) -> dict:
    if type(value) is not dict:
        _reject(path, f"expected an object, got {_json_type(value)}")
    for key in value:
        if key not in allowed:
            _reject(path, f"unknown field {key!r}")
    for key in required:
        if key not in value:
            _reject(path, f"missing field {key!r}")
    return value


def _check_array(value, path: str, nonempty: bool) -> list:
    if type(value) is not list:
        _reject(path, f"expected an array, got {_json_type(value)}")
    if nonempty and not value:
        _reject(path, "expected a non-empty array")
    return value


def _check_vector(value, path: str) -> None:
    for i, x in enumerate(_check_array(value, path, True)):
        if type(x) is not float and type(x) is not int:
            _reject(f"{path}[{i}]", f"expected a number, got {_json_type(x)}")


def _check_number(value, path: str, minimum, *, integer: bool, exclusive: bool = False) -> None:
    if integer:
        ok = type(value) is int or (type(value) is float and value.is_integer())
    else:
        ok = type(value) is int or type(value) is float
    if not ok:
        _reject(path, f"expected {'an integer' if integer else 'a number'}, "
                      f"got {_json_type(value)}")
    reason = _out_of_bounds(value, minimum, exclusive)
    if reason is not None:
        _reject(path, reason)


def _out_of_bounds(value, minimum, exclusive: bool) -> Optional[str]:
    if value < minimum or (exclusive and value == minimum):
        return f"{value!r} is not {'above' if exclusive else 'at least'} {minimum}"
    return None


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _reject(path: str, reason: str) -> NoReturn:
    raise SchemaError(f"problem file rejected: {path}: {reason}")


def _resolve_options(problem: Problem, args: argparse.Namespace) -> Options:
    """Each option from its flag, else from the problem file, else its default."""
    values = {}
    for key, (*_, default) in _OPTIONS.items():
        flag = getattr(args, key, None)
        values[key] = flag if flag is not None else problem.options.get(key, default)
    return Options(
        tol=Tolerance(eps_geom=values["tol_geom"]),
        eps_active=values["tol_active"],
        max_iters=values["max_iters"],
        step_init=values["step_init"],
        seed=values["seed"],
    )


def _pair_dict(q: QuasiDiff) -> dict:
    return {"subd": q.subd.gens.tolist(), "supd": q.supd.gens.tolist()}


def _constraint_rows(
    problem: Problem, x: np.ndarray, opt: Options
) -> tuple[list[QuasiDiff], list[float]]:
    """Per-coordinate scalar pairs and values of every constraint."""
    rows: list[QuasiDiff] = []
    vals: list[float] = []
    for g in problem.constraints:
        q = qd_at(g, x, eps_active=opt.eps_active)
        v = eval_expr(g, x)
        for j in range(g.out_dim):
            rows.append(QuasiDiff(coordinate_rows(q.subd, j), coordinate_rows(q.supd, j)))
            vals.append(float(v[j]))
    return rows, vals


# ---------------------------------------------------------------------------
# commands

def cmd_qd(problem: Problem, opt: Options, point: Optional[np.ndarray] = None) -> dict:
    """Quasidifferentials of objective and constraints, plus FD residuals;
    NonFiniteError if a difference quotient or convergence gap is not finite."""
    x = problem.point if point is None else point
    if x.shape != (problem.n,):
        raise DimensionMismatchError(f"point has length {x.shape[0]}, expected {problem.n}")
    q = qd_at(problem.objective, x, eps_active=opt.eps_active)
    rng = np.random.default_rng(opt.seed)
    max_resid = 0.0
    max_gap = 0.0
    # A step that overflows makes a quotient inf or NaN: that is reported as
    # NonFiniteError, not as numpy warnings or a NaN that max() would drop.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_FD_DIRECTIONS):
            h = rng.standard_normal(problem.n)
            d_qd = qd_eval_dir(q, h)
            d_fd = dini_fd(problem.objective, x, h)
            resid = float(np.max(np.abs(d_qd - d_fd)))
            gap = dini_convergence(problem.objective, x, h)
            if not (math.isfinite(resid) and math.isfinite(gap)):
                raise NonFiniteError(f"finite-difference residual {resid!r}, gap {gap!r}")
            max_resid = max(max_resid, resid)
            max_gap = max(max_gap, gap)
    report = {
        "command": "qd",
        "options": opt.to_dict(),
        "point": x.tolist(),
        "objective": _pair_dict(q),
        "constraints": [
            _pair_dict(qd_at(g, x, eps_active=opt.eps_active))
            for g in problem.constraints
        ],
        "fd_diagnostic": {
            "directions": _FD_DIRECTIONS,
            "max_residual": max_resid,
            "max_convergence_gap": max_gap,
        },
    }
    return report


def cmd_check(problem: Problem, opt: Options) -> dict:
    """Dispatch to the matching optimality condition and report the verdict."""
    x = problem.point
    if problem.generalized_points is not None:
        points = problem.generalized_points
        qds = [qd_at(problem.objective, p, eps_active=opt.eps_active) for p in points]
        values = np.array([eval_expr(problem.objective, p) for p in points])
        cones = None
        if problem.set_cone is not None:
            cones = [problem.set_cone] * len(points)
        verdict = check_generalized(qds, values, cones, tol=opt.tol, eps_active=opt.eps_active)
        return {
            "command": "check",
            "options": opt.to_dict(),
            "mode": "generalized",
            "points": [p.tolist() for p in points],
            "values": values.tolist(),
            "verdict": verdict.to_dict(),
        }
    qf = qd_at(problem.objective, x, eps_active=opt.eps_active)
    quasireg = None
    if problem.constraints:
        rows, vals = _constraint_rows(problem, x, opt)
        cs = ConstraintSystem(tuple(rows), np.array(vals), set_cone=problem.set_cone)
        if problem.set_cone is not None:
            mode = "combined"
            verdict = check_combined(qf, cs, tol=opt.tol, eps_active=opt.eps_active)
        else:
            mode = "inequality_constrained"
            verdict = check_inequality_constrained(qf, cs, tol=opt.tol, eps_active=opt.eps_active)
        quasireg = quasiregularity_diagnostic(rows, tol=opt.tol).to_dict()
    elif problem.set_cone is not None:
        mode = "set_constrained"
        verdict = check_set_constrained(qf, problem.set_cone, tol=opt.tol)
    else:
        mode = "unconstrained"
        verdict = check_unconstrained(qf, tol=opt.tol)
    logger.info("check mode %s: holds=%s", mode, verdict.holds)
    report = {
        "command": "check",
        "options": opt.to_dict(),
        "mode": mode,
        "point": x.tolist(),
        "verdict": verdict.to_dict(),
    }
    if quasireg is not None:
        report["quasiregularity"] = quasireg
    return report


def cmd_minimize(problem: Problem, opt: Options) -> dict:
    """Descent run plus a final stationarity check."""
    params = SolverParams(max_iters=opt.max_iters, step_init=opt.step_init)
    result = minimize(
        problem.objective, problem.point, params, tol=opt.tol, eps_active=opt.eps_active
    )
    final_q = qd_at(problem.objective, result.x, eps_active=opt.eps_active)
    final_verdict = check_unconstrained(final_q, tol=opt.tol)
    solver = result.to_dict()
    solver["f_initial"] = result.trace[0].value
    return {
        "command": "minimize",
        "options": opt.to_dict(),
        "point": problem.point.tolist(),
        "solver": solver,
        "final_check": final_verdict.to_dict(),
    }


# ---------------------------------------------------------------------------
# rendering

def _fmt_op(gen) -> str:
    return json.dumps(gen)


def render_text(report: dict) -> str:
    lines = [f"qdcalc {report['command']}"]
    if "point" in report:
        lines.append(f"point: {json.dumps(report['point'])}")
    if report["command"] == "qd":
        for label in ("objective", "constraints"):
            pairs = [report[label]] if label == "objective" else report[label]
            for i, pair in enumerate(pairs):
                name = label if label == "objective" else f"constraint {i}"
                lines.append(f"{name} subdifferential ({len(pair['subd'])} generators):")
                lines.extend(f"  {_fmt_op(g)}" for g in pair["subd"])
                lines.append(f"{name} superdifferential ({len(pair['supd'])} generators):")
                lines.extend(f"  {_fmt_op(g)}" for g in pair["supd"])
        fd = report["fd_diagnostic"]
        lines.append(
            f"fd residual over {fd['directions']} directions: max {fd['max_residual']:.3e} "
            f"(convergence gap {fd['max_convergence_gap']:.3e})"
        )
    elif report["command"] == "check":
        lines.append(f"mode: {report['mode']}")
        v = report["verdict"]
        lines.append(f"verdict: {'holds' if v['holds'] else 'fails'}")
        if v["witness"] is not None:
            w = v["witness"]
            where = f" at point {w['point_index']}" if "point_index" in w else ""
            lines.append(
                f"witness{where}: coordinate {w['coordinate']}, generator {_fmt_op(w['generator'])}"
            )
            lines.append(
                f"descent direction {json.dumps(w['direction'])} with rate {w['rate']:.6g}"
            )
        if v["certificates"]:
            lines.append(f"certificates: {len(v['certificates'])}")
        if "quasiregularity" in report:
            qr = report["quasiregularity"]
            state = "vacuous" if qr["vacuous"] else ("regular" if qr["regular"] else "NOT regular")
            lines.append(f"quasiregularity diagnostic: {state}")
    else:
        s = report["solver"]
        lines.append(f"status: {s['status']} after {s['iterations']} iterations")
        lines.append(f"final x: {json.dumps(s['x'])}")
        lines.append(f"final value: {s['value']!r} (from {s['f_initial']!r})")
        fc = report["final_check"]
        lines.append(f"final stationarity check: {'holds' if fc['holds'] else 'fails'}")
    return "\n".join(lines)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(report))


# ---------------------------------------------------------------------------
# argument parsing

def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([_finite_float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated vector of finite numbers: {text!r}") from exc


def _option_type(key: str):
    """argparse type for the flag of options key: a finite number within
    the bounds the problem file puts on the same option."""
    integer, minimum, exclusive, _ = _OPTIONS[key]

    def parse(text: str):
        try:
            value = int(text) if integer else float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {'an integer' if integer else 'a number'}, got {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
        reason = _out_of_bounds(value, minimum, exclusive)
        if reason is not None:
            raise argparse.ArgumentTypeError(reason)
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem JSON file")
    common.add_argument("--tol-geom", type=_option_type("tol_geom"), default=None,
                        help="LP feasibility slack")
    common.add_argument("--tol-active", type=_option_type("tol_active"), default=None,
                        help="active-set threshold")
    common.add_argument("--seed", type=_option_type("seed"), default=None,
                        help="seed for diagnostic directions")
    common.add_argument("--format", choices=("text", "json"), default="text")
    parser = argparse.ArgumentParser(
        prog="qdcalc",
        description="Quasidifferential calculus: derive pairs, check optimality, minimize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_qd = sub.add_parser("qd", parents=[common], help="print quasidifferentials at a point")
    p_qd.add_argument("--point", type=_parse_point, default=None,
                      help="override point v1,v2,...; write --point=-1,2 when the first "
                           "entry is negative")
    sub.add_parser("check", parents=[common], help="check the matching optimality condition")
    p_min = sub.add_parser("minimize", parents=[common], help="steepest-descent minimization")
    p_min.add_argument("--max-iters", type=_option_type("max_iters"), default=None)
    p_min.add_argument("--step-init", type=_option_type("step_init"), default=None)
    return parser


def _configure_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("QDCALC_LOG", "error"), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")


def _log_phase(name: str, start: float) -> None:
    logger.debug("phase %s: %.3f ms", name, 1e3 * (time.perf_counter() - start))


def main(argv: Optional[list[str]] = None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    # An overflow ends in NonFiniteError, reported on one line; numpy's
    # warning about it would only add a second.
    with np.errstate(over="ignore"):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        start = time.perf_counter()
        problem = load_problem(args.file)
        opt = _resolve_options(problem, args)
        _log_phase("load+validate", start)
        start = time.perf_counter()
        if args.command == "qd":
            report = cmd_qd(problem, opt, point=args.point)
            code = EXIT_OK
        elif args.command == "check":
            report = cmd_check(problem, opt)
            code = EXIT_OK if report["verdict"]["holds"] else EXIT_CHECK_FAILED
        else:
            if problem.m != 1 or problem.constraints or problem.set_cone is not None \
                    or problem.generalized_points is not None:
                print(
                    "error: minimize needs a scalar unconstrained objective", file=sys.stderr
                )
                return EXIT_UNSUPPORTED
            report = cmd_minimize(problem, opt)
            code = EXIT_OK
        _log_phase(_COMMAND_PHASE[args.command], start)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DimensionMismatchError, UnsupportedDimensionError, CompositionBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except NonFiniteError as exc:
        print(f"error: a value overflowed the double range: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except InfeasiblePointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    start = time.perf_counter()
    _emit(report, args.format)
    _log_phase("render", start)
    return code


if __name__ == "__main__":
    sys.exit(main())
