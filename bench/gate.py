"""Correctness gate for benchmark reports.

Generator lists may legitimately change representation between versions,
so the gate compares meaning, not bytes:

* every report must validate against the shipped report schema and the
  command must exit with the code the construction expects;
* ``qd``: the directional derivative read off the reported pair (support of
  the subdifferential minus support of the superdifferential) must match
  an independent one-sided difference quotient of the objective on a
  fixed direction set, and the report's own ``fd_diagnostic.max_residual``
  must stay within tolerance;
* ``check``: mode and verdict must match the construction, and a failing
  verdict's witness direction must descend at a small step;
* ``minimize``: the final value may not exceed the initial one nor fall
  below the minimum of the convex objective, which a linear program
  computes independently; a stationary stop must reach that minimum and
  pass the final check.

With a committed reference for the seed (``reference/<workload>.json``),
reports must also match it: ``qd`` support values of both halves within
1e-9 * (1 + |v|), ``check`` mode and verdict, ``minimize`` status, final
verdict and final value within 1e-6.
"""

from __future__ import annotations

import json
import os

import numpy as np

REFERENCE_SEED = 0
SUPPORT_TOL = 1e-9
VALUE_TOL = 1e-6
FD_STEP = 1e-7
FD_TOL = 1e-6
DIRECTIONS = 8

def directions(n: int) -> np.ndarray:
    """The fixed unit directions on which qd pairs are compared."""
    h = np.random.default_rng([20141228, n]).standard_normal((DIRECTIONS, n))
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def supports(pair: dict, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinatewise support values of both halves, shape (directions, m)."""
    sub = np.asarray(pair["subd"], dtype=float)
    sup = np.asarray(pair["supd"], dtype=float)
    return (np.einsum("kmn,dn->dkm", sub, hs).max(axis=1),
            np.einsum("kmn,dn->dkm", sup, hs).max(axis=1))


def convex_pl_minimum(data: dict) -> float:
    """min_x max_k (c_k x + d_k) + sum_i a_i |x_i - s_i|, as a linear program."""
    from scipy.optimize import linprog

    C = np.asarray(data["coeffs"], dtype=float)
    d = np.asarray(data["offsets"], dtype=float)
    a = np.asarray(data["anchors"], dtype=float)
    s = np.asarray(data["shift"], dtype=float)
    r, n = C.shape
    eye = np.eye(n)
    # variables: x (n), t, u (n); t >= c_k x + d_k, u_i >= |x_i - s_i|
    A = np.vstack([np.hstack([C, -np.ones((r, 1)), np.zeros((r, n))]),
                   np.hstack([eye, np.zeros((n, 1)), -eye]),
                   np.hstack([-eye, np.zeros((n, 1)), -eye])])
    b = np.concatenate([-d, s, -s])
    cost = np.concatenate([np.zeros(n), [1.0], a])
    res = linprog(cost, A_ub=A, b_ub=b, bounds=[(None, None)] * (2 * n + 1), method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def _close(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


class Gate:
    """Checks one workload's reports; see the module docstring."""

    def __init__(self, root: str, workload: str, seed: int, corpus_dir: str) -> None:
        from jsonschema import Draft202012Validator

        from qdcalc.expr import eval_expr, expr_from_json

        self._eval, self._parse = eval_expr, expr_from_json
        with open(os.path.join(root, "src", "qdcalc", "schemas", "report.schema.json"),
                  encoding="utf-8") as f:
            self._validator = Draft202012Validator(json.load(f))
        self.corpus_dir = corpus_dir
        self.reference = None
        ref_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "reference", f"{workload}.json")
        if seed == REFERENCE_SEED and os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                self.reference = json.load(f)["cases"]
        self._problems: dict[str, tuple] = {}

    def _problem(self, entry: dict):
        fname = entry["file"]
        if fname not in self._problems:
            with open(os.path.join(self.corpus_dir, fname), encoding="utf-8") as f:
                raw = json.load(f)
            self._problems[fname] = (raw, self._parse(raw["objective"]))
        return self._problems[fname]

    def check(self, entry: dict, code, text: str) -> list[str]:
        """Reasons the report is wrong; empty when it passes."""
        if code != entry["expect_exit"]:
            return [f"exit code {code}, expected {entry['expect_exit']}"]
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        errs = [f"schema: {e.message}" for e in self._validator.iter_errors(report)]
        if errs:
            return errs[:3]
        check = {"qd": self._check_qd, "check": self._check_verdict,
                 "minimize": self._check_minimize}[entry["command"]]
        ref = self.reference.get(entry["id"]) if self.reference is not None else None
        return check(entry, report, ref)

    # -- per command -------------------------------------------------------

    def _check_qd(self, entry, report, ref) -> list[str]:
        raw, f = self._problem(entry)
        x = np.asarray(report["point"], dtype=float)
        hs = directions(raw["n"])
        sub, sup = supports(report["objective"], hs)
        f0 = self._eval(f, x)
        fd = (self._eval(f, x + FD_STEP * hs) - f0) / FD_STEP
        errs = []
        if not _close(sub - sup, fd, FD_TOL):
            errs.append("pair disagrees with the difference quotient of the objective")
        if not report["fd_diagnostic"]["max_residual"] <= FD_TOL:
            errs.append(f"fd_diagnostic.max_residual {report['fd_diagnostic']['max_residual']}")
        if ref is not None and not (_close(sub, ref["subd"], SUPPORT_TOL)
                                    and _close(sup, ref["supd"], SUPPORT_TOL)):
            errs.append("support values differ from the reference")
        return errs

    def _check_verdict(self, entry, report, ref) -> list[str]:
        errs = []
        mode = entry["expect_mode"]
        holds = report["verdict"]["holds"]
        if report["mode"] != mode:
            errs.append(f"mode {report['mode']}, expected {mode}")
        if entry["expect_holds"] is not None and holds != entry["expect_holds"]:
            errs.append(f"verdict holds={holds}, construction says {entry['expect_holds']}")
        if ref is not None and (report["mode"], holds) != (ref["mode"], ref["holds"]):
            errs.append("mode or verdict differs from the reference")
        w = report["verdict"]["witness"]
        if not holds:
            if w is None:
                return errs + ["failing verdict without a witness"]
            errs += self._witness_descends(entry, report, w)
        return errs

    def _witness_descends(self, entry, report, w) -> list[str]:
        _, f = self._problem(entry)
        x = np.asarray(report["points"][w["point_index"]] if "point_index" in w
                       else report["point"], dtype=float)
        h = np.asarray(w["direction"], dtype=float)
        j, rate, t = w["coordinate"], w["rate"], 1e-5
        if not rate < 0.0:
            return [f"witness rate {rate} is not negative"]
        drop = float(self._eval(f, x + t * h)[j] - self._eval(f, x)[j])
        if not drop <= 0.5 * t * rate:
            return [f"witness does not descend: f changes by {drop:.3e} at step {t}"]
        return []

    def _check_minimize(self, entry, report, ref) -> list[str]:
        # The objective is convex, so a stationary stop must be the global
        # minimum and pass the final check.  A run that stops early
        # (max_iters, line_search_failure) may report any value between the
        # minimum and the start, with either verdict.
        s, holds = report["solver"], report["final_check"]["holds"]
        best = convex_pl_minimum(entry["convex_pl"])
        tol = VALUE_TOL * (1.0 + abs(best))
        errs = []
        if not s["value"] <= s["f_initial"]:
            errs.append(f"final value {s['value']} above the initial {s['f_initial']}")
        if not s["value"] >= best - tol:
            errs.append(f"final value {s['value']} below the minimum {best}")
        if s["status"] == "stationary" and not (holds and s["value"] <= best + tol):
            errs.append(f"stationary at value {s['value']} (holds={holds}), minimum is {best}")
        if ref is not None and not (
                (s["status"], holds) == (ref["status"], ref["holds"])
                and abs(s["value"] - ref["value"]) <= VALUE_TOL):
            errs.append("status, verdict or value differs from the reference")
        return errs


def reference_entry(entry: dict, text: str) -> dict:
    """What the committed reference keeps of one passing report."""
    report = json.loads(text)
    if entry["command"] == "qd":
        sub, sup = supports(report["objective"], directions(len(report["point"])))
        return {"subd": sub.tolist(), "supd": sup.tolist()}
    if entry["command"] == "check":
        return {"mode": report["mode"], "holds": report["verdict"]["holds"]}
    return {"status": report["solver"]["status"], "holds": report["final_check"]["holds"],
            "value": report["solver"]["value"]}
