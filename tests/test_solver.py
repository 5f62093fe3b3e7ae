"""Tests for the steepest-descent direction and the minimizer loop."""

import itertools
import json

import numpy as np
import pytest

from qdcalc import (
    Abs,
    Add,
    Affine,
    Compose,
    DimensionMismatchError,
    Max,
    Mul,
    Neg,
    Scale,
    Smooth,
    SolverParams,
    Var,
    check_unconstrained,
    minimize,
    qd_at,
    qd_eval_dir,
    qd_linear,
    steepest_descent_direction,
)
from qdcalc import solver

from helpers import coercive_instance, convex_pl_instance, rand_instance


def pick2(i):
    return Affine(np.eye(2)[i][None, :], [0.0])


class TestDirection:
    def test_abs_at_kink_is_stationary(self):
        dist, descent = steepest_descent_direction(qd_at(Abs(Var(1)), [0.0]))
        assert descent is None and dist <= 1e-8

    def test_saddle_direction(self):
        q = qd_at(Add([Abs(pick2(0)), Neg(Abs(pick2(1)))]), [0.0, 0.0])
        dist, (h, rate) = steepest_descent_direction(q)
        np.testing.assert_allclose(dist, 1.0, atol=1e-9)
        np.testing.assert_allclose(np.abs(h), [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(rate, -1.0, atol=1e-9)

    def test_linear_slope(self):
        dist, (h, rate) = steepest_descent_direction(qd_linear([[2.0]]))
        assert dist == 2.0
        np.testing.assert_allclose(h, [-1.0], atol=1e-12)
        np.testing.assert_allclose(rate, -2.0, atol=1e-12)

    def test_rate_negative_when_nonstationary(self):
        rng = np.random.default_rng(32)
        nontrivial = 0
        for _ in range(150):
            e, x = rand_instance(rng, pl_only=True)
            if e.out_dim != 1:
                continue
            dist, descent = steepest_descent_direction(qd_at(e, x))
            if descent is None:
                assert dist <= 1e-8
                continue
            h, rate = descent
            nontrivial += 1
            assert rate < 0 and rate <= -dist + 1e-9
            np.testing.assert_allclose(np.linalg.norm(h), 1.0, atol=1e-9)
            q = qd_at(e, x)
            np.testing.assert_allclose(qd_eval_dir(q, h)[0], rate, atol=1e-9)
        assert nontrivial >= 20

    def test_vector_pair_rejected(self):
        with pytest.raises(DimensionMismatchError):
            steepest_descent_direction(qd_linear(np.ones((2, 2))))


class TestMinimize:
    def test_abs_from_five(self):
        res = minimize(Abs(Var(1)), [5.0])
        assert res.status == "stationary"
        assert abs(res.x[0]) <= 1e-6
        assert res.value <= 1e-6

    def test_piecewise_v(self):
        res = minimize(Max([Affine([[1.0]], [0.0]), Affine([[-2.0]], [0.0])]), [1.0])
        assert res.status == "stationary"
        assert abs(res.x[0]) <= 1e-6

    def test_unbounded_linear_hits_iteration_cap(self):
        res = minimize(Affine([[1.0]], [0.0]), [0.0],
                       SolverParams(max_iters=40))
        assert res.status == "max_iters"
        vals = [r.value for r in res.trace]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_accepted_steps_strictly_decrease(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            e = coercive_instance(rng, n)
            res = minimize(e, rng.uniform(-1, 1, size=n))
            vals = [r.value for r in res.trace]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_convex_final_point_is_certified(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            e = convex_pl_instance(rng, n)
            res = minimize(e, rng.uniform(-1, 1, size=n))
            assert res.status == "stationary"
            assert check_unconstrained(qd_at(e, res.x)).holds

    def test_trace_records_steps_and_distances(self):
        res = minimize(Abs(Var(1)), [2.0])
        assert res.iterations == len(res.trace) - 1
        for rec in res.trace[:-1]:
            assert rec.step is not None and rec.step > 0
            assert rec.descent_dist > 0
        assert res.trace[-1].step is None

    def test_result_to_dict(self):
        import json
        res = minimize(Abs(Var(1)), [1.0])
        blob = json.loads(json.dumps(res.to_dict()))
        assert blob["status"] == "stationary"
        assert len(blob["trace"]) == len(res.trace)

    def test_vector_objective_rejected(self):
        with pytest.raises(DimensionMismatchError):
            minimize(Var(2), [1.0, 1.0])

    def test_more_iterations_never_worse(self):
        e = Add([Abs(Affine([[1.0, 0.4]], [0.0])), Abs(Affine([[-0.3, 1.0]], [0.1]))])
        x0 = [1.3, -0.7]
        vals = []
        for cap in (1, 3, 10, 50):
            res = minimize(e, x0, SolverParams(max_iters=cap))
            vals.append(res.value)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverParams(max_iters=0)
        with pytest.raises(ValueError):
            SolverParams(step_init=-1.0)

    def test_defaults(self):
        p = SolverParams()
        assert p.max_iters == 500
        assert p.step_init == 1.0
        assert solver._ARMIJO_C == 1e-4
        assert solver._SHRINK == 0.5
        assert solver._STOP_DIST == 1e-8


def _report(res):
    return json.dumps(res.to_dict())


def _scalar_smooth_mul(rng, n):
    """Scalar objective with Smooth leaves, a Mul node and abs kinks."""
    row = lambda: Affine(rng.uniform(-1.0, 1.0, size=(1, n)), rng.uniform(-0.5, 0.5, size=1))
    return Add([
        Mul(row(), Abs(row())),
        Compose(Smooth("sqr", 1), row()),
        Compose(Smooth("exp", 1), Scale([0.3], row())),
        Abs(row()),
    ])


def _memo_cases():
    rng = np.random.default_rng(35)
    cases = []
    for n in range(1, 6):
        for _ in range(3):
            cases.append((convex_pl_instance(rng, n), rng.uniform(-1, 1, size=n)))
    while len(cases) < 30:
        e, x = rand_instance(rng, pl_only=True)
        if e.out_dim == 1:
            cases.append((e, x))
    for n in (1, 2, 3):
        cases.append((_scalar_smooth_mul(rng, n), rng.uniform(-1, 1, size=n)))
    while len(cases) < 40:
        e, x = rand_instance(rng)
        if e.out_dim == 1:
            cases.append((e, x))
    return cases


class TestPieceMemo:
    """minimize derives one pair per visited piece and reuses it."""

    def test_reuse_matches_a_fresh_pair_every_iteration(self, monkeypatch):
        params = SolverParams(max_iters=40)
        cases = _memo_cases()
        derived = []
        real_qd = solver.qd_at
        monkeypatch.setattr(solver, "qd_at", lambda *a, **kw: derived.append(1) or real_qd(*a, **kw))
        memo = [_report(minimize(e, x, params)) for e, x in cases]
        memo_derived = len(derived)
        # A key that is new on every call forces a derivation per iteration.
        fresh = itertools.count()
        monkeypatch.setattr(solver, "piece_key", lambda e, x, eps: next(fresh))
        forced = [_report(minimize(e, x, params)) for e, x in cases]
        assert memo == forced
        forced_derived = next(fresh)
        assert len(derived) - memo_derived == forced_derived
        assert memo_derived < forced_derived // 2

    def test_one_derivation_per_distinct_key(self, monkeypatch):
        keys, derived, rated, directed = [], [], [], []
        real_key, real_qd, real_rate = solver.piece_key, solver.qd_at, solver.qd_eval_dir
        real_direction = solver.steepest_descent_direction

        def spy_key(e, x, eps):
            keys.append(real_key(e, x, eps))
            return keys[-1]

        def spy_qd(e, x, **kw):
            derived.append(real_key(e, x, kw["eps_active"]))
            return real_qd(e, x, **kw)

        monkeypatch.setattr(solver, "piece_key", spy_key)
        monkeypatch.setattr(solver, "qd_at", spy_qd)
        monkeypatch.setattr(solver, "qd_eval_dir", lambda q, h: rated.append(1) or real_rate(q, h))
        monkeypatch.setattr(solver, "steepest_descent_direction",
                            lambda q, tol: directed.append(1) or real_direction(q, tol))
        rng = np.random.default_rng(36)
        for n in (2, 3, 4):
            keys.clear()
            derived.clear()
            rated.clear()
            directed.clear()
            res = minimize(convex_pl_instance(rng, n), rng.uniform(-1, 1, size=n))
            assert len(keys) == len(res.trace)
            assert sorted(derived) == sorted(set(keys))
            assert len(derived) < len(keys)
            # the direction's rate is also taken once per piece, not per iteration
            assert len(rated) == len(derived) - (res.status == "stationary")
            assert len(directed) == len(derived)
