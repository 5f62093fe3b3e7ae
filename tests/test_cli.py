"""End-to-end tests of the command-line interface.

Every invocation goes through main(argv) in process; reports are parsed
from captured stdout and validated against the shipped report schema.
"""

import json
import os
import subprocess
import sys
import time
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from qdcalc import cli, qd_at
from qdcalc.cli import _MAX_DEPTH, _build_parser, load_problem, main

from helpers import fresh_env

PROBLEM_SCHEMA = json.loads(
    resources.files("qdcalc.schemas").joinpath("problem.schema.json").read_text())
REPORT_SCHEMA = json.loads(
    resources.files("qdcalc.schemas").joinpath("report.schema.json").read_text())

ABS_1D = {"op": "abs", "arg": {"op": "var", "n": 1}}
NEG_ABS = {"op": "neg", "arg": ABS_1D}
X_ROW = {"op": "affine", "a": [[1.0]], "b": [0.0]}
NEG_X_ROW = {"op": "affine", "a": [[-1.0]], "b": [0.0]}


def saddle_objective():
    pick = lambda i: {"op": "affine", "a": [[1.0, 0.0]] if i == 0 else [[0.0, 1.0]],
                      "b": [0.0]}
    return {"op": "add", "args": [
        {"op": "abs", "arg": pick(0)},
        {"op": "neg", "arg": {"op": "abs", "arg": pick(1)}},
    ]}


def abs_sum_objective():
    pick = lambda i: {"op": "affine", "a": [[1.0, 0.0]] if i == 0 else [[0.0, 1.0]],
                      "b": [0.0]}
    return {"op": "add", "args": [
        {"op": "abs", "arg": pick(0)},
        {"op": "abs", "arg": pick(1)},
    ]}


# Chain links that nest an expression one level deeper, each with the JSON
# path step from a link to the expression it wraps.
CHAIN_LINKS = {
    "neg": (lambda e: {"op": "neg", "arg": e}, ".arg"),
    "scale": (lambda e: {"op": "scale", "diag": [1.0], "arg": e}, ".arg"),
    "mul": (lambda e: {"op": "mul", "scalar": {"op": "var", "n": 1}, "arg": e}, ".arg"),
    "add": (lambda e: {"op": "add", "args": [e]}, ".args[0]"),
    "compose": (lambda e: {"op": "compose", "outer": X_ROW, "inner": e}, ".inner"),
}


# Problems whose derivation overflows the double range.
BIG_ROW = {"op": "affine", "a": [[1e308]], "b": [0.0]}
OVERFLOWING = {
    "add": {"n": 1, "m": 1, "point": [1.0], "objective": {"op": "add", "args": [BIG_ROW, BIG_ROW]}},
    "abs": {"n": 1, "m": 1, "point": [0.0], "objective": {
        "op": "add", "args": [{"op": "abs", "arg": BIG_ROW}, {"op": "abs", "arg": BIG_ROW}]}},
    "exp": {"n": 1, "m": 1, "point": [800.0], "objective": {"op": "smooth", "name": "exp", "n": 1}},
    # the sum inside the max is inf - inf at the point, so no operand attains
    "nan-in-max": {"n": 1, "m": 1, "point": [1.0], "objective": {"op": "max", "args": [
        {"op": "add", "args": [{"op": "affine", "a": [[1e308]], "b": [1e308]},
                               {"op": "affine", "a": [[-1e308]], "b": [-1e308]}]},
        {"op": "affine", "a": [[2.0]], "b": [0.0]}]}},
}


# exp(x) (1e10 x - 6999999999999): finite at 0 and 700, and its pair at 700
# overflows.
EXP_TIMES_ROW = {"op": "mul", "scalar": {"op": "smooth", "name": "exp", "n": 1},
                 "arg": {"op": "affine", "a": [[1e10]], "b": [-6999999999999.0]}}


# The root's value is inf - inf at the point, but no rule reads it.
INF_MINUS_INF = {"n": 1, "m": 1, "point": [10.0], "objective": {"op": "add", "args": [
    BIG_ROW, {"op": "affine", "a": [[-1e308]], "b": [0.0]}, ABS_1D]}}


# Problems whose finite-difference diagnostic in qd overflows although the
# derivation itself stays finite.
FD_OVERFLOWING = {
    "exp": {"n": 1, "m": 1, "point": [709.7],
            "objective": {"op": "smooth", "name": "exp", "n": 1}},
    "mul": {"n": 1, "m": 1, "point": [1e200],
            "objective": {"op": "mul", "scalar": {"op": "var", "n": 1}, "arg": {"op": "var", "n": 1}}},
}


# Problems whose projection in minimize overflows: a squared generator norm
# leaves the double range although every entry is finite.
PROJECTION_OVERFLOWING = {
    "abs": {"n": 1, "m": 1, "point": [0.0],
            "objective": {"op": "abs", "arg": {"op": "affine", "a": [[1e155]], "b": [0.0]}}},
    **FD_OVERFLOWING,
}


# Every entry is finite, but the generators of the pair at the kink are not
# centred within the double range.
NEAR_LIMIT_ABS = {"n": 2, "m": 2, "point": [0.0, 0.0], "objective": {
    "op": "abs", "arg": {"op": "affine", "a": [[1e308, 1.0], [1.0, -1e308]], "b": [0.0, 0.0]}}}

# Five abs terms of rows near 1e151 at their common kink: the sum of the
# segments is a 32-point zonotope of affine rank 4, pruned by qhull.
HUGE_ZONOTOPE = {"n": 4, "m": 1, "point": [0.0] * 4, "objective": {"op": "add", "args": [
    {"op": "abs", "arg": {"op": "affine", "a": [row], "b": [0.0]}}
    for row in (np.random.default_rng(5).uniform(-1.0, 1.0, size=(5, 4)) * 1e151).tolist()]}}


def chain(link: str, levels: int) -> dict:
    """An expression `levels` levels deep: links over one affine leaf."""
    wrap, _ = CHAIN_LINKS[link]
    e = X_ROW
    for _ in range(levels - 1):
        e = wrap(e)
    return e


def write_problem(tmp_path, body, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def run_fresh(argv):
    """Run the command line in a new interpreter, where numpy has printed no
    warning yet."""
    return subprocess.run([sys.executable, "-m", "qdcalc.cli", *argv],
                          env=fresh_env(), capture_output=True, timeout=120)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    report = json.loads(out) if out.strip() else None
    if report is not None:
        jsonschema.validate(report, REPORT_SCHEMA,
                            cls=jsonschema.Draft202012Validator)
    return code, report, err


class TestQdCommand:
    def test_abs_at_origin(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D,
                                     "point": [0.0]})
        code, report, _ = run_json(capsys, ["qd", f])
        assert code == 0
        subd = sorted(report["objective"]["subd"])
        assert subd == [[[-1.0]], [[1.0]]]
        assert report["objective"]["supd"] == [[[0.0]]]

    def test_affine_single_generator(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 2, "m": 1,
            "objective": {"op": "affine", "a": [[1.0, -2.0]], "b": [0.5]},
            "point": [0.3, 0.4]})
        code, report, _ = run_json(capsys, ["qd", f])
        assert code == 0
        assert report["objective"]["subd"] == [[[1.0, -2.0]]]
        assert report["objective"]["supd"] == [[[0.0, 0.0]]]

    def test_pl_residual_within_tolerance(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 2, "m": 1,
                                     "objective": saddle_objective(),
                                     "point": [0.25, -0.75]})
        code, report, _ = run_json(capsys, ["qd", f])
        assert code == 0
        assert report["fd_diagnostic"]["max_residual"] <= 1e-9

    def test_point_override(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D,
                                     "point": [5.0]})
        code, report, _ = run_json(capsys, ["qd", f, "--point", "0.0"])
        assert code == 0
        assert len(report["objective"]["subd"]) == 2

    def test_point_with_leading_minus(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 2, "m": 1, "objective": saddle_objective(),
                                     "point": [5.0, 5.0]})
        code, report, _ = run_json(capsys, ["qd", f, "--point=-1,2"])
        assert code == 0 and report["point"] == [-1.0, 2.0]
        with pytest.raises(SystemExit) as exc:
            main(["qd", f, "--point", "-1,2"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "error: argument --point: expected one argument" in out.err

    def test_tol_geom_leaves_the_kink_report_unchanged(self, tmp_path, capsys):
        pick = lambda i: {"op": "affine", "a": [[1.0, 0.0]] if i == 0 else [[0.0, 1.0]],
                          "b": [0.0]}
        f = write_problem(tmp_path, {
            "n": 2, "m": 1, "objective": saddle_objective(),
            "constraints": [{"op": "max", "args": [pick(0), pick(1)]},
                            {"op": "abs", "arg": pick(1)}],
            "point": [0.0, 0.0]})
        code, default, _ = run_json(capsys, ["qd", f])
        code_loose, loose, _ = run_json(capsys, ["qd", f, "--tol-geom", "1e-3"])
        assert code == code_loose == 0
        assert loose["options"].pop("tol_geom") == 1e-3
        assert default["options"].pop("tol_geom") == 1e-9
        assert loose == default
        assert len(default["constraints"][0]["subd"]) == 2

    def test_constraints_reported_too(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": X_ROW,
            "constraints": [NEG_X_ROW], "point": [0.0]})
        code, report, _ = run_json(capsys, ["qd", f])
        assert code == 0
        assert len(report["constraints"]) == 1


class TestCheckCommand:
    def test_unconstrained_minimum_exits_zero(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 2, "m": 1,
                                     "objective": abs_sum_objective(),
                                     "point": [0.0, 0.0]})
        code, report, _ = run_json(capsys, ["check", f])
        assert code == 0
        assert report["mode"] == "unconstrained"
        assert report["verdict"]["holds"] is True

    def test_saddle_fails_with_witness(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 2, "m": 1,
                                     "objective": saddle_objective(),
                                     "point": [0.0, 0.0]})
        code, report, _ = run_json(capsys, ["check", f])
        assert code == 1
        w = report["verdict"]["witness"]
        assert w["rate"] < 0
        np.testing.assert_allclose(np.abs(w["direction"]), [0.0, 1.0], atol=1e-9)

    def test_boundary_multiplier(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": X_ROW,
            "constraints": [NEG_X_ROW], "point": [0.0]})
        code, report, _ = run_json(capsys, ["check", f])
        assert code == 0
        assert report["mode"] == "inequality_constrained"
        cert = report["verdict"]["certificates"][0]
        np.testing.assert_allclose(cert["gamma"], [1.0], atol=1e-8)
        assert report["quasiregularity"]["regular"] is True

    def test_set_cone_mode(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": X_ROW,
            "set_cone": {"generators": [[1.0]]}, "point": [0.0]})
        code, report, _ = run_json(capsys, ["check", f])
        assert code == 0
        assert report["mode"] == "set_constrained"

    def test_combined_mode(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": X_ROW,
            "constraints": [NEG_X_ROW],
            "set_cone": {"generators": [[1.0]]}, "point": [0.0]})
        code, report, _ = run_json(capsys, ["check", f])
        assert code == 0
        assert report["mode"] == "combined"

    def test_combined_mode_with_dependent_polar_rays(self, capsys):
        # The polar of this 6-dimensional set cone has numerically dependent
        # generators; enumerating them once made HiGHS give up (exit 6).
        f = os.path.join(os.path.dirname(__file__), "data", "combined_n6_dependent_polar.json")
        code, report, _ = run_json(capsys, ["check", f])
        assert code == 0
        assert report["mode"] == "combined"
        assert report["verdict"]["holds"]

    def test_generalized_mode(self, tmp_path, capsys):
        objective = {"op": "max", "args": [
            {"op": "abs", "arg": {"op": "affine", "a": [[1.0]], "b": [-1.0]}},
            {"op": "abs", "arg": {"op": "affine", "a": [[1.0]], "b": [1.0]}},
        ]}
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": objective, "point": [1.0],
            "generalized_points": [[1.0], [-1.0]]})
        code, report, _ = run_json(capsys, ["check", f])
        assert report["mode"] == "generalized"
        assert code in (0, 1)

    def test_infeasible_point_exits_four(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": X_ROW,
            "constraints": [X_ROW], "point": [2.0]})
        code, _, err = run(capsys, ["check", f])
        assert code == 4
        assert "error" in err


class TestGeneralizedDerivation:
    """cmd_check derives the pair at a generalized point only when the check
    reads it, and once however often it is read."""

    @staticmethod
    def derived_points(tmp_path, capsys, monkeypatch, body):
        points = []

        def spy(e, x, **kw):
            points.append(list(x))
            return qd_at(e, x, **kw)

        monkeypatch.setattr(cli, "qd_at", spy)
        code, report, _ = run_json(capsys, ["check", write_problem(tmp_path, body)])
        return code, report, points

    def test_a_failing_first_point_derives_one_pair(self, tmp_path, capsys, monkeypatch):
        # -|x| attains -1 at both points and descends from the first
        code, report, points = self.derived_points(tmp_path, capsys, monkeypatch, {
            "n": 1, "m": 1, "objective": NEG_ABS, "point": [1.0],
            "generalized_points": [[1.0], [-1.0]]})
        assert code == 1 and report["verdict"]["witness"]["point_index"] == 0
        assert points == [[1.0]]

    def test_a_holding_check_derives_each_point_once(self, tmp_path, capsys, monkeypatch):
        # min(|x - 1|, |x + 1|) in both coordinates: each point attains 0 at
        # both, so each pair is read twice
        rows = {"op": "affine", "a": [[1.0], [1.0]], "b": [-1.0, -1.0]}
        shifted = {"op": "affine", "a": [[1.0], [1.0]], "b": [1.0, 1.0]}
        objective = {"op": "min", "args": [{"op": "abs", "arg": rows},
                                           {"op": "abs", "arg": shifted}]}
        code, report, points = self.derived_points(tmp_path, capsys, monkeypatch, {
            "n": 1, "m": 2, "objective": objective, "point": [1.0],
            "generalized_points": [[1.0], [-1.0]]})
        assert code == 0 and report["verdict"]["detail"]["checked"] == 4
        assert points == [[1.0], [-1.0]]


class TestMinimizeCommand:
    def test_abs_from_five(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D,
                                     "point": [5.0]})
        code, report, _ = run_json(capsys, ["minimize", f])
        assert code == 0
        assert report["solver"]["status"] == "stationary"
        assert abs(report["solver"]["x"][0]) <= 1e-6
        assert report["final_check"]["holds"] is True

    def test_unbounded_reports_max_iters(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": X_ROW,
                                     "point": [0.0],
                                     "options": {"max_iters": 25}})
        code, report, _ = run_json(capsys, ["minimize", f])
        assert code == 0
        assert report["solver"]["status"] == "max_iters"
        assert report["solver"]["iterations"] == 25

    def test_stationary_start_takes_no_steps(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D,
                                     "point": [0.0]})
        code, report, _ = run_json(capsys, ["minimize", f])
        assert code == 0
        assert report["solver"]["iterations"] == 0

    def test_vector_objective_exits_five(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 2,
            "objective": {"op": "affine", "a": [[1.0], [2.0]], "b": [0.0, 0.0]},
            "point": [1.0]})
        code, _, err = run(capsys, ["minimize", f])
        assert code == 5
        assert "scalar" in err

    def test_constrained_minimize_unsupported(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": X_ROW,
            "constraints": [NEG_X_ROW], "point": [0.0]})
        code, _, _ = run(capsys, ["minimize", f])
        assert code == 5


class TestErrorPaths:
    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["qd", str(path)])
        assert code == 2 and "error" in err

    def test_schema_violation_exits_two(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 1, "objective": ABS_1D, "point": [0.0]})
        code, _, _ = run(capsys, ["qd", f])
        assert code == 2

    def test_unknown_op_exits_two(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": {"op": "sinh", "n": 1}, "point": [0.0]})
        code, _, _ = run(capsys, ["qd", f])
        assert code == 2

    def test_constraints_with_generalized_points_rejected(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": ABS_1D, "point": [0.0],
            "constraints": [NEG_X_ROW], "generalized_points": [[0.0]]})
        code, _, _ = run(capsys, ["qd", f])
        assert code == 2

    @staticmethod
    def assert_rejected(capsys, path):
        code, out, err = run(capsys, ["check", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        self.assert_rejected(capsys, tmp_path / "absent.json")

    def test_directory_exits_two(self, tmp_path, capsys):
        self.assert_rejected(capsys, tmp_path)

    def test_nesting_too_deep_to_decode_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"n": 1, "m": 1, "objective": {"op": "var", "n": 1}, "point": '
                        + "[" * depth + "0.0" + "]" * depth + "}")
        self.assert_rejected(capsys, path)

    def test_nesting_too_deep_to_validate_exits_two(self, tmp_path, capsys):
        objective = ABS_1D
        for _ in range(600):
            objective = {"op": "neg", "arg": objective}
        self.assert_rejected(capsys, write_problem(
            tmp_path, {"n": 1, "m": 1, "objective": objective, "point": [0.0]}))

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                                        "1" * 400])
    def test_non_finite_point_exits_two(self, tmp_path, capsys, number):
        path = tmp_path / "nonfinite.json"
        path.write_text('{"n": 1, "m": 1, "objective": {"op": "abs", "arg": {"op": "var", "n": 1}}, '
                        f'"point": [{number}]}}')
        self.assert_rejected(capsys, path)

    def test_overflowing_affine_entry_exits_two(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text('{"n": 1, "m": 1, "objective": {"op": "affine", "a": [[1e999]], '
                        '"b": [0.0]}, "point": [0.0]}')
        self.assert_rejected(capsys, path)

    @pytest.mark.parametrize("command", ["qd", "check", "minimize"])
    @pytest.mark.parametrize("name", sorted(OVERFLOWING))
    def test_overflow_while_deriving_exits_three(self, tmp_path, capsys, name, command):
        f = write_problem(tmp_path, OVERFLOWING[name])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, [command, f])
        assert code == 3
        assert out == ""
        assert err.startswith("error: a value overflowed the double range: ")
        assert err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    def test_overflow_prints_one_line_from_a_fresh_interpreter(self, tmp_path):
        f = write_problem(tmp_path, OVERFLOWING["exp"])
        done = run_fresh(["check", f])
        assert done.returncode == 3
        assert done.stdout == b""
        assert done.stderr.decode().count("\n") == 1

    def test_unread_overflow_prints_nothing(self, tmp_path):
        f = write_problem(tmp_path, INF_MINUS_INF)
        done = run_fresh(["check", f, "--format", "json"])
        assert done.returncode == 1
        assert json.loads(done.stdout)["verdict"]["holds"] is False
        assert done.stderr == b""

    @pytest.mark.parametrize("command, edit", [
        ("minimize", {}),
        ("check", {"generalized_points": [[0.0], [10.0]]}),
        ("check", {"objective": ABS_1D, "constraints": [INF_MINUS_INF["objective"]]}),
    ], ids=["minimize-start", "generalized-values", "constraint-values"])
    def test_non_finite_value_exits_three(self, tmp_path, command, edit):
        f = write_problem(tmp_path, {**INF_MINUS_INF, **edit})
        done = run_fresh([command, f, "--format", "json"])
        assert done.returncode == 3 and done.stdout == b""
        assert done.stderr.decode() == (
            "error: a value overflowed the double range: value [nan] at the point is not finite\n")

    def test_an_unread_generalized_pair_is_never_derived(self, tmp_path, capsys):
        # exp(x) (1e10 x - 6999999999999) is -7e12 at 0 and exp(700) at 700,
        # whose pair overflows: 0 alone attains the least value, so the check
        # reads only its pair, and fails there
        f = write_problem(tmp_path, {"n": 1, "m": 1, "point": [0.0], "objective": EXP_TIMES_ROW,
                                     "generalized_points": [[0.0], [700.0]]})
        code, report, err = run_json(capsys, ["check", f])
        assert code == 1 and err == ""
        assert report["verdict"]["witness"]["point_index"] == 0
        code, out, err = run(capsys, ["qd", f, "--point", "700"])
        assert code == 3 and out == ""
        assert err == "error: a value overflowed the double range: generator entries must be finite\n"

    def test_outer_overflow_is_reported_before_inner(self, tmp_path, capsys):
        # both maps overflow, and _qd derives the outer pair first
        exp_of_big = {"op": "compose", "outer": {"op": "smooth", "name": "exp", "n": 1},
                      "inner": OVERFLOWING["add"]["objective"]}
        f = write_problem(tmp_path, {"n": 1, "m": 1, "point": [10.0], "objective": exp_of_big})
        code, out, err = run(capsys, ["check", f])
        assert code == 3 and out == ""
        assert err == "error: a value overflowed the double range: operator entries must be finite\n"

    @pytest.mark.parametrize("name", sorted(FD_OVERFLOWING))
    def test_overflowing_fd_diagnostic_exits_three(self, tmp_path, name):
        f = write_problem(tmp_path, FD_OVERFLOWING[name])
        done = run_fresh(["qd", f, "--format", "json"])
        err = done.stderr.decode()
        assert done.returncode == 3 and done.stdout == b""
        assert err.startswith("error: a value overflowed the double range: finite-difference ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(PROJECTION_OVERFLOWING))
    def test_overflowing_projection_exits_three(self, tmp_path, name):
        f = write_problem(tmp_path, PROJECTION_OVERFLOWING[name])
        done = run_fresh(["minimize", f, "--format", "json"])
        err = done.stderr.decode()
        assert done.returncode == 3 and done.stdout == b""
        assert err.startswith("error: a value overflowed the double range: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["qd", "check"])
    def test_overflowing_centring_exits_three_at_once(self, tmp_path, command):
        # The four selections of abs at its kink have entries +-1e308, whose
        # mean overflows; an SVD of the centred stack need not return.
        f = write_problem(tmp_path, NEAR_LIMIT_ABS)
        start = time.perf_counter()
        done = run_fresh([command, f, "--format", "json"])
        assert time.perf_counter() - start < 2.0
        assert done.returncode == 3 and done.stdout == b""
        assert done.stderr.decode() == ("error: a value overflowed the double range: "
                                        "centred generator entries must be finite\n")

    @pytest.mark.parametrize("command, exit_code", [("qd", 0), ("check", 6)])
    def test_huge_hull_ends_without_a_signal(self, tmp_path, command, exit_code):
        # qhull once crashed the interpreter on these points; check still
        # fails, as any LP with entries past 1e15 does, on one line.
        f = write_problem(tmp_path, HUGE_ZONOTOPE)
        done = run_fresh([command, f, "--format", "json"])
        assert done.returncode == exit_code
        if exit_code:
            assert done.stdout == b""
            assert done.stderr.decode() == ("error: internal: deviation program failed "
                                            "unexpectedly: (HiGHS Status 2: Model error)\n")
        else:
            # five generic segments in R^4 make a zonotope of 2 (1 + 4 + 6 + 4) vertices
            assert done.stderr == b""
            assert len(json.loads(done.stdout)["objective"]["subd"]) == 30

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999", "0.5,nan"])
    def test_non_finite_point_flag_exits_two(self, tmp_path, value):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D, "point": [0.5]})
        done = run_fresh(["qd", f, "--point", value, "--format", "json"])
        lines = done.stderr.decode().splitlines()
        assert done.returncode == 2 and done.stdout == b""
        assert lines[0].startswith("usage: qdcalc qd ")
        assert [line for line in lines if "error" in line or "Warning" in line] == [
            "qdcalc qd: error: argument --point: not a comma-separated vector of "
            f"finite numbers: {value!r}"]

    def test_dimension_mismatch_exits_three(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 2, "m": 1, "objective": ABS_1D,
                                     "point": [0.0, 0.0]})
        code, _, _ = run(capsys, ["qd", f])
        assert code == 3

    def test_point_length_mismatch_exits_three(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D,
                                     "point": [0.0, 1.0]})
        code, _, _ = run(capsys, ["qd", f])
        assert code == 3

    @pytest.mark.parametrize("command", ["qd", "check", "minimize"])
    def test_ragged_set_cone_generators_exit_three(self, tmp_path, capsys, command):
        f = write_problem(tmp_path, {"n": 2, "m": 1, "objective": saddle_objective(),
                                     "point": [0.0, 0.0],
                                     "set_cone": {"generators": [[1.0, 0.0], [1.0]]}})
        code, out, err = run(capsys, [command, f])
        assert code == 3 and out == ""
        assert err == "error: set cone generator 1 has length 1, expected 2\n"

    @pytest.mark.parametrize("command", ["qd", "check", "minimize"])
    def test_ragged_affine_matrix_exits_three(self, tmp_path, capsys, command):
        f = write_problem(tmp_path, {"n": 2, "m": 2, "point": [0.0, 0.0], "objective": {
            "op": "affine", "a": [[1.0, 2.0], [3.0]], "b": [0.0, 0.0]}})
        code, out, err = run(capsys, [command, f])
        assert code == 3 and out == ""
        assert err == "error: row 1 of A has length 1, expected 2\n"

    @pytest.mark.parametrize("command, expected", [("qd", 0), ("check", 1), ("minimize", 0)])
    @pytest.mark.parametrize("edit", [{"n": 1.0}, {"options": {"seed": 2.0}},
                                      {"options": {"max_iters": 3.0}}],
                             ids=["n", "seed", "max_iters"])
    def test_integral_floats_load_as_integers(self, tmp_path, capsys, edit, command, expected):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D, "point": [0.5],
                                     **edit})
        code, report, err = run_json(capsys, [command, f])
        assert code == expected and err == ""
        for key, value in edit.get("options", {}).items():
            assert report["options"][key] == value
            assert type(report["options"][key]) is int

    @pytest.mark.parametrize("command, flag, value", [
        ("qd", "--seed", "-1"),
        ("minimize", "--max-iters", "0"),
        ("minimize", "--step-init", "-1"),
        ("check", "--tol-geom", "-1"),
        ("check", "--tol-geom", "nan"),
        ("check", "--tol-active", "-1"),
    ])
    def test_flag_outside_the_file_bounds_exits_two(self, tmp_path, capsys, command, flag, value):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D, "point": [0.5]})
        with pytest.raises(SystemExit) as exc:
            main([command, f, flag, value])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"error: argument {flag}: " in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("wrap, leaf, message", [
        (lambda e: {"op": "abs", "arg": e}, X_ROW, "deviation program failed unexpectedly"),
        (lambda e: {"op": "compose", "outer": ABS_1D, "inner": e}, {"op": "var", "n": 1},
         "projection failed its optimality audit"),
    ], ids=["abs-chain", "compose-chain"])
    def test_internal_error_exits_six(self, tmp_path, capsys, wrap, leaf, message):
        # 100 levels load under pytest's deeper stack; generator entries grow like 2^depth.
        objective = leaf
        for _ in range(100):
            objective = wrap(objective)
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": objective, "point": [0.5]})
        code, out, err = run(capsys, ["minimize", f])
        assert code == 6 and out == ""
        assert err.startswith("error: internal: ") and err.count("\n") == 1
        assert message in err


    def test_projection_far_from_unit_scale_is_no_internal_error(self, tmp_path, capsys):
        objective = {"op": "abs", "arg": {"op": "affine", "a": [[1e7]], "b": [0.0]}}
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": objective, "point": [0.0]})
        code, report, err = run_json(capsys, ["minimize", f])
        assert code == 0 and err == ""
        assert report["solver"]["status"] == "stationary" and report["final_check"]["holds"]

class TestArgumentParser:
    def test_one_parser_parses_each_call_afresh(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D, "point": [0.5]})
        _, report, _ = run_json(capsys, ["minimize", f, "--max-iters", "3", "--seed", "5",
                                         "--tol-geom", "1e-8", "--tol-active", "1e-7",
                                         "--step-init", "0.5"])
        assert report["options"] == {"tol_geom": 1e-8, "tol_active": 1e-7, "max_iters": 3,
                                     "step_init": 0.5, "seed": 5}
        _, report, _ = run_json(capsys, ["check", f])
        assert report["options"] == {"tol_geom": 1e-9, "tol_active": 1e-9, "max_iters": 500,
                                     "step_init": 1.0, "seed": 0}
        assert _build_parser() is _build_parser()


class TestDepthBound:
    @pytest.mark.parametrize("command", ["qd", "check", "minimize"])
    @pytest.mark.parametrize("link", sorted(CHAIN_LINKS))
    def test_deepest_chain_loads_and_runs(self, tmp_path, capsys, link, command):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": chain(link, _MAX_DEPTH),
                                     "point": [0.5], "options": {"max_iters": 5}})
        load_problem(f)
        code, _, err = run(capsys, [command, f])
        assert code in (0, 1) and err == ""

    @pytest.mark.parametrize("link", sorted(CHAIN_LINKS))
    def test_one_level_deeper_exits_two(self, tmp_path, capsys, link):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": chain(link, _MAX_DEPTH + 1),
                                     "point": [0.5]})
        code, out, err = run(capsys, ["check", f])
        # The path runs down the chain to a child of its deepest link.
        path = "$.objective" + CHAIN_LINKS[link][1] * (_MAX_DEPTH - 1)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: problem file rejected: {path}.")
        assert err.endswith(f": expression nested deeper than {_MAX_DEPTH} levels\n")


class TestReportContract:
    def test_text_format_mentions_verdict(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 2, "m": 1,
                                     "objective": abs_sum_objective(),
                                     "point": [0.0, 0.0]})
        code, out, _ = run(capsys, ["check", f])
        assert code == 0
        assert "holds" in out

    def test_same_seed_reports_identical(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 2, "m": 1,
                                     "objective": saddle_objective(),
                                     "point": [0.1, -0.2]})
        argv = ["qd", f, "--seed", "7", "--format", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_check_verdict_stable_across_runs(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": X_ROW,
            "constraints": [NEG_X_ROW], "point": [0.0]})
        _, r1, _ = run_json(capsys, ["check", f])
        _, r2, _ = run_json(capsys, ["check", f])
        assert r1 == r2

    def test_option_precedence_file_then_flag(self, tmp_path, capsys):
        f = write_problem(tmp_path, {
            "n": 1, "m": 1, "objective": ABS_1D, "point": [1.0],
            "options": {"max_iters": 3}})
        _, r_file, _ = run_json(capsys, ["minimize", f])
        assert r_file["options"]["max_iters"] == 3
        _, r_flag, _ = run_json(capsys, ["minimize", f, "--max-iters", "9"])
        assert r_flag["options"]["max_iters"] == 9

    def test_report_round_trips_losslessly(self, tmp_path, capsys):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D,
                                     "point": [0.123456789012345678]})
        _, out, _ = run(capsys, ["qd", f, "--format", "json"])
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_schema_copies_in_docs_match_package(self):
        import pathlib
        docs = pathlib.Path(__file__).resolve().parent.parent / "docs"
        for name, packaged in (("problem.schema.json", PROBLEM_SCHEMA),
                               ("report.schema.json", REPORT_SCHEMA)):
            assert json.loads((docs / name).read_text()) == packaged

    def test_problem_schema_is_draft_2020(self):
        assert "2020-12" in PROBLEM_SCHEMA["$schema"]
        jsonschema.Draft202012Validator.check_schema(PROBLEM_SCHEMA)
        jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


class TestLogging:
    def test_log_env_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QDCALC_LOG", "debug")
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D,
                                     "point": [0.0]})
        code, _, _ = run(capsys, ["qd", f])
        assert code == 0

    def test_debug_log_times_phases_on_stderr_only(self, tmp_path):
        f = write_problem(tmp_path, {"n": 2, "m": 1, "objective": saddle_objective(),
                                     "point": [0.0, 0.0]})
        env = fresh_env()
        env.pop("QDCALC_LOG", None)
        runs = {
            level: subprocess.run(
                [sys.executable, "-m", "qdcalc.cli", "check", f, "--format", "json"],
                env=env if level == "default" else dict(env, QDCALC_LOG=level),
                capture_output=True, timeout=120)
            for level in ("default", "debug")
        }
        assert runs["debug"].returncode == runs["default"].returncode == 1
        assert runs["debug"].stdout == runs["default"].stdout
        assert runs["default"].stderr == b""
        err = runs["debug"].stderr.decode()
        for phase in ("load+validate", "check", "render"):
            assert f"qdcalc DEBUG phase {phase}: " in err

    def test_bad_log_level_ignored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QDCALC_LOG", "shout")
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": ABS_1D,
                                     "point": [0.0]})
        code, _, _ = run(capsys, ["qd", f])
        assert code == 0


def _affine_abs(row, b=0.0):
    return {"op": "abs", "arg": {"op": "affine", "a": [row], "b": [b]}}


# A min of two pieces checked at two points, one piece active at each.
# The dense rows put kinks of the inactive piece at the other point.
TWO_POINT_MIN = {
    "n": 3, "m": 1, "point": [0, 0, 0], "generalized_points": [[0, 0, 0], [2, 0, 0]],
    "objective": {"op": "min", "args": [
        {"op": "add", "args": [
            _affine_abs([1, 0.2, 0.1]),
            {"op": "neg", "arg": _affine_abs([0.3, 1, 0.3])},
            {"op": "neg", "arg": _affine_abs([0.4, 0.2, 1])}]},
        {"op": "add", "args": [
            _affine_abs([1, 0, 0], -2), _affine_abs([1, 1, 0], -2), _affine_abs([1, 0, 1], -2)]},
    ]},
}


class TestColdStart:
    HEAVY = ("scipy.optimize", "scipy.spatial", "scipy.linalg", "scipy.sparse")

    def run_cold(self, commands, path):
        """Exit codes of `commands` on path in one fresh interpreter, and the
        heavy scipy modules loaded by then."""
        script = ("import sys; from qdcalc import cli; "
                  f"codes = [cli.main([c, {path!r}]) for c in {commands!r}]; "
                  f"print(codes, [m for m in {self.HEAVY!r} if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        return done.stdout.splitlines()[-1], done.stderr

    def test_check_and_minimize_load_no_scipy_optimize_or_spatial(self, tmp_path):
        f = write_problem(tmp_path, {"n": 1, "m": 1, "objective": {"op": "abs", "arg": X_ROW},
                                     "point": [0.0]})
        last, err = self.run_cold(("check", "minimize"), f)
        assert last == "[0, 0] []", err

    def test_generalized_min_with_one_active_piece_loads_no_qhull(self, tmp_path):
        last, err = self.run_cold(("check",), write_problem(tmp_path, TWO_POINT_MIN))
        assert last == "[1] []", err
