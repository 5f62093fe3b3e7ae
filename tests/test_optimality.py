"""Tests for the optimality checkers and their certificates.

The small fixtures are worked by hand; the randomized blocks check the
structural relations between the checkers (degenerations, implications,
monotonicity) and cross-validate verdicts against sampling oracles on
piecewise-linear instances.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from qdcalc import (
    Abs,
    Add,
    Affine,
    ConstraintSystem,
    DimensionMismatchError,
    InfeasiblePointError,
    Neg,
    OperatorPolytope,
    PolyCone,
    QuasiDiff,
    Var,
    check_combined,
    check_generalized,
    check_inequality_constrained,
    check_set_constrained,
    check_slackened,
    check_unconstrained,
    eval_expr,
    qd_at,
    qd_eval_dir,
    qd_linear,
    quasiregularity_diagnostic,
)
from qdcalc import geometry, optimality

from helpers import cone_residual, local_min_sampling, rand_instance, rand_qd

AXES2 = [Affine(np.eye(2)[i][None, :], [0.0]) for i in range(2)]


def qd_abs_sum_2d():
    """Pair of |x1|+|x2| at the origin."""
    return qd_at(Add([Abs(AXES2[0]), Abs(AXES2[1])]), [0.0, 0.0])


def qd_saddle_2d():
    """Pair of |x1|-|x2| at the origin."""
    return qd_at(Add([Abs(AXES2[0]), Neg(Abs(AXES2[1]))]), [0.0, 0.0])


def scalar_cs(qgs, values, set_cone=None):
    return ConstraintSystem(tuple(qgs), np.asarray(values, dtype=float),
                            set_cone=set_cone)


class TestUnconstrained:
    def test_abs_sum_holds(self):
        v = check_unconstrained(qd_abs_sum_2d())
        assert v.holds and v.witness is None

    def test_saddle_fails_with_descent_witness(self):
        v = check_unconstrained(qd_saddle_2d())
        assert not v.holds
        w = v.witness
        assert w is not None and w.coordinate == 0
        assert w.rate < 0
        # The witness direction must actually descend.
        e = Add([Abs(AXES2[0]), Neg(Abs(AXES2[1]))])
        f0 = eval_expr(e, [0.0, 0.0])
        for t in (1e-3, 1e-4):
            ft = eval_expr(e, t * w.direction)
            assert ft[0] < f0[0] - t * 1e-2 * abs(w.rate)

    def test_nonzero_linear_fails(self):
        v = check_unconstrained(qd_linear([[3.0]]))
        assert not v.holds
        assert v.witness.rate < 0

    def test_witness_descent_on_random_failures(self):
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(150):
            e, x = rand_instance(rng, pl_only=True)
            if e.out_dim != 1:
                continue
            v = check_unconstrained(qd_at(e, x))
            if v.holds:
                continue
            found += 1
            w = v.witness
            f0 = e.evaluate(x)
            dropped = False
            for t in (1e-3, 1e-4):
                ft = e.evaluate(x + t * w.direction)
                if ft[0] < f0[0] - t * 1e-2 * abs(w.rate):
                    dropped = True
            assert dropped
        assert found >= 10

    def test_monotone_in_generators(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            q = rand_qd(rng, m, n)
            extra = rng.uniform(-1, 1, size=(2, m, n))
            grown_sub = QuasiDiff(
                OperatorPolytope(np.concatenate([q.subd.gens, extra])), q.supd)
            grown_sup = QuasiDiff(
                q.subd, OperatorPolytope(np.concatenate([q.supd.gens, extra])))
            if check_unconstrained(q).holds:
                assert check_unconstrained(grown_sub).holds
            else:
                assert not check_unconstrained(grown_sup).holds


class TestInequalityConstrained:
    def test_boundary_minimum_holds_with_multiplier(self):
        # f(x)=x on {-x <= 0} at 0.
        v = check_inequality_constrained(
            qd_linear([[1.0]]), scalar_cs([qd_linear([[-1.0]])], [0.0]))
        assert v.holds
        cert = v.certificates[0]
        np.testing.assert_allclose(cert.gamma, [1.0], atol=1e-8)

    def test_inactive_constraint_cannot_certify(self):
        # f(x)=x on {x-1 <= 0} at 0: interior point, no local min.
        v = check_inequality_constrained(
            qd_linear([[1.0]]), scalar_cs([qd_linear([[1.0]])], [-1.0]))
        assert not v.holds and v.witness is not None

    def test_vacuous_constraint_reduces_to_unconstrained(self):
        qf = qd_at(Abs(Var(1)), [0.0])
        v = check_inequality_constrained(
            qf, scalar_cs([qd_linear([[0.0]])], [-1.0]))
        assert v.holds == check_unconstrained(qf).holds is True

    def test_infeasible_point_rejected(self):
        with pytest.raises(InfeasiblePointError):
            scalar_cs([qd_linear([[1.0]])], [0.5])

    def test_certificate_reconstruction(self):
        rng = np.random.default_rng(23)
        # A separate stream for the set cones keeps the instances above.
        cone_rng = np.random.default_rng(230)
        holds_seen = {"inequality": 0, "combined": 0}
        for _ in range(60):
            n = int(rng.integers(1, 4))
            qf = rand_qd(rng, 1, n)
            k = int(rng.integers(1, 3))
            qgs = [rand_qd(rng, 1, n) for _ in range(k)]
            values = -rng.random(k) * (rng.random(k) < 0.5)
            K = PolyCone(cone_rng.uniform(-1, 1, size=(int(cone_rng.integers(1, 3)), 1, n)))
            verdicts = {
                "inequality": check_inequality_constrained(qf, scalar_cs(qgs, values)),
                "combined": check_combined(qf, scalar_cs(qgs, values, set_cone=K)),
            }
            for mode, v in verdicts.items():
                if v.holds:
                    holds_seen[mode] += 1
                    self._check_certificates(v, qgs, values, K if mode == "combined" else None)
        assert min(holds_seen.values()) >= 5

    @staticmethod
    def _check_certificates(v, qgs, values, K):
        k = len(qgs)
        active = [i for i in range(k) if values[i] >= -1e-9]
        for cert in v.certificates:
            # supd_row must decompose into the subd point plus the
            # gamma-weighted active differences, up to the deviation.
            rebuilt = np.array(cert.subd_point, dtype=float)
            for pos, gi in enumerate(active):
                gamma = cert.gamma[gi]
                if gamma > 0:
                    S = qgs[gi].supd.gens[cert.supd_choice[pos], 0, :]
                    rebuilt = rebuilt + gamma * (cert.constraint_points[gi] - S)
            if K is None:
                assert cert.normal_element is None
            else:
                # The normal element lies in the polar of the set cone.
                normal = np.asarray(cert.normal_element)
                assert np.all(K.gens.reshape(-1, normal.size) @ normal <= 1e-7)
                rebuilt = rebuilt + normal
            np.testing.assert_allclose(rebuilt, cert.supd_row,
                                       atol=1e-6 + cert.deviation)
            # Complementary slackness: weight only on active constraints.
            for gi in range(k):
                if cert.gamma[gi] > 0:
                    assert values[gi] >= -1e-9


class TestSetConstrained:
    def test_x_on_halfline_holds(self):
        K = PolyCone.from_generators([[[1.0]]])
        v = check_set_constrained(qd_linear([[1.0]]), K)
        assert v.holds and v.certificates

    def test_neg_x_on_halfline_fails(self):
        K = PolyCone.from_generators([[[1.0]]])
        v = check_set_constrained(qd_linear([[-1.0]]), K)
        assert not v.holds
        assert v.witness.rate < 0
        # Witness direction must be feasible for the cone: descent along it.
        assert v.witness.direction[0] > 0

    def test_trivial_cone_always_holds(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            q = rand_qd(rng, int(rng.integers(1, 3)), 2)
            assert check_set_constrained(q, PolyCone.trivial(1, 2)).holds


class TestCombined:
    def test_degenerates_to_set_constrained(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            qf = rand_qd(rng, 1, n)
            K = PolyCone(rng.uniform(-1, 1, size=(int(rng.integers(1, 3)), 1, n)))
            cs = ConstraintSystem((), np.zeros(0), set_cone=K)
            assert (check_combined(qf, cs).holds
                    == check_set_constrained(qf, K).holds)

    def test_degenerates_to_inequality_constrained(self):
        # A cone spanning all of R^n has trivial polar: no normal help.
        rng = np.random.default_rng(26)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            qf = rand_qd(rng, 1, n)
            qgs = [rand_qd(rng, 1, n)]
            values = [float(-rng.random() * (rng.random() < 0.5))]
            span = np.concatenate([np.eye(n), -np.eye(n)])[:, None, :]
            cs_full = scalar_cs(qgs, values, set_cone=PolyCone(span))
            cs_none = scalar_cs(qgs, values)
            assert (check_combined(qf, cs_full).holds
                    == check_inequality_constrained(qf, cs_none).holds)

    def test_two_certificate_fixture(self):
        # f(x)=x, g(x)=-x, C=R+ at 0: compatible via gamma or via lambda.
        K = PolyCone.from_generators([[[1.0]]])
        v = check_combined(
            qd_linear([[1.0]]), scalar_cs([qd_linear([[-1.0]])], [0.0], set_cone=K))
        assert v.holds and v.certificates


class TestSlackened:
    def test_boundary_fixture_holds(self):
        v = check_slackened(qd_linear([[1.0]]), [qd_linear([[-1.0]])])
        assert v.holds

    def test_no_constraints_linear_fails(self):
        v = check_slackened(qd_linear([[1.0]]), [])
        assert not v.holds

    def test_implied_by_inequality_check(self):
        rng = np.random.default_rng(27)
        agree = 0
        for _ in range(60):
            n = int(rng.integers(1, 4))
            qf = rand_qd(rng, 1, n)
            k = int(rng.integers(1, 3))
            qgs = [rand_qd(rng, 1, n) for _ in range(k)]
            values = -rng.random(k) * (rng.random(k) < 0.5)
            strict = check_inequality_constrained(qf, scalar_cs(qgs, values))
            if strict.holds:
                agree += 1
                assert check_slackened(qf, qgs).holds
        assert agree >= 5

    def test_rejects_vector_objective(self):
        with pytest.raises(Exception):
            check_slackened(rand_qd(np.random.default_rng(0), 2, 2), [])


class TestGeneralized:
    def test_two_point_abs_fixture(self):
        # f(x) = (|x-1|, |x+1|) at points {1, -1}: each point minimizes its
        # own coordinate, so the pair is a generalized optimum.
        def _stack_rows(P1, P2):
            out = []
            for a in P1.gens:
                for b in P2.gens:
                    out.append(np.concatenate([a, b], axis=0))
            return np.stack(out)

        def qd_pair_at(x):
            q1 = qd_at(Abs(Affine([[1.0]], [-1.0])), [x])
            q2 = qd_at(Abs(Affine([[1.0]], [1.0])), [x])
            return QuasiDiff(OperatorPolytope(_stack_rows(q1.subd, q2.subd)),
                             OperatorPolytope(_stack_rows(q1.supd, q2.supd)))

        values = []
        qds = []
        for x in (1.0, -1.0):
            qds.append(qd_pair_at(x))
            values.append([abs(x - 1.0), abs(x + 1.0)])
        v = check_generalized(qds, np.asarray(values))
        assert v.holds

    def test_single_point_matches_unconstrained(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            q = rand_qd(rng, m, n)
            vals = rng.standard_normal((1, m))
            got = check_generalized([q], vals)
            assert got.holds == check_unconstrained(q).holds

    def test_single_point_matches_set_constrained(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            q = rand_qd(rng, 1, n)
            K = PolyCone(rng.uniform(-1, 1, size=(int(rng.integers(1, 3)), 1, n)))
            got = check_generalized([q], np.zeros((1, 1)), cones=[K])
            assert got.holds == check_set_constrained(q, K).holds

    def test_unique_meet_checks_only_attaining_point(self):
        rng = np.random.default_rng(30)
        # Point 0 attains the meet everywhere; point 1 has a hopeless pair
        # but strictly larger values, so it must not affect the verdict.
        q_good = qd_at(Abs(Var(1)), [0.0])
        q_bad = qd_linear([[5.0]])
        v = check_generalized([q_good, q_bad], [[0.0], [3.0]])
        assert v.holds

    def test_failure_names_the_point(self):
        q_good = qd_at(Abs(Var(1)), [0.0])
        q_bad = qd_linear([[5.0]])
        v = check_generalized([q_bad, q_good], [[0.0], [3.0]])
        assert not v.holds
        assert v.witness.point_index == 0

    def test_values_with_no_coordinate_are_rejected(self):
        with pytest.raises(DimensionMismatchError, match="m >= 1"):
            check_generalized([qd_linear([[1.0]])], np.zeros((1, 0)))

    def test_destroyed_optimum_is_rejected(self):
        # f(x) = (|x-1| - 2x, |x+1|) at {1, -1}: the slope-2 tilt makes
        # the first coordinate strictly decreasing through x=1, so the
        # pair is no longer a generalized optimum; checker and sampling
        # oracle must both say so.
        from helpers import generalized_min_sampling
        from qdcalc import Add
        e = Add([Abs(Affine([[1.0], [1.0]], [-1.0, 1.0])),
                 Affine([[-2.0], [0.0]], [0.0, 0.0])])
        pts = [np.array([1.0]), np.array([-1.0])]
        qds = [qd_at(e, p) for p in pts]
        values = np.stack([e.evaluate(p) for p in pts])
        v = check_generalized(qds, values)
        assert not v.holds
        assert not generalized_min_sampling(e, pts, rng=np.random.default_rng(602))


def check_with_cone(mode, qf, K):
    """Run one cone mode; combined adds the active constraint -x_1 <= 0."""
    n = qf.dims[1]
    if mode == "set_constrained":
        return check_set_constrained(qf, K)
    if mode == "combined":
        g = qd_linear([[-1.0] + [0.0] * (n - 1)])
        return check_combined(qf, scalar_cs([g], [0.0], set_cone=K))
    return check_generalized([qf, qf], np.zeros((2, 1)), cones=[K, K])


class TestConeModes:
    @pytest.mark.parametrize("n", [9, 12])
    @pytest.mark.parametrize("mode", ["set_constrained", "combined", "generalized"])
    def test_orthant_above_eight_dimensions(self, mode, n):
        K = PolyCone(np.eye(n)[:, None, :])
        assert check_with_cone(mode, qd_linear([[1.0] * n]), K).holds
        v = check_with_cone(mode, qd_linear([[-1.0] * n]), K)
        assert not v.holds
        assert v.witness.rate < 0
        assert cone_residual(K.flat, v.witness.direction) <= 1e-9

    def test_no_check_builds_polar_generators(self, monkeypatch):
        calls = []
        real = geometry.polar_cone

        def spy(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(geometry, "polar_cone", spy)
        monkeypatch.setattr(optimality, "polar_cone", spy, raising=False)
        K = PolyCone.from_generators([[[1.0, 0.0]], [[0.0, 1.0]]])
        g = qd_linear([[-1.0, 0.0]])
        for qf in (qd_abs_sum_2d(), qd_saddle_2d(), qd_linear([[-1.0, -1.0]])):
            check_unconstrained(qf)
            check_set_constrained(qf, K)
            check_inequality_constrained(qf, scalar_cs([g], [0.0]))
            check_combined(qf, scalar_cs([g], [0.0], set_cone=K))
            check_generalized([qf], np.zeros((1, 1)), cones=[K])
        assert calls == []


class TestSamplingCrossCheck:
    def test_fails_implies_not_ideal_local_min(self):
        # On scalar piecewise-linear instances a failing unconstrained
        # verdict must be confirmed by the brute-force sampler.
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(80):
            e, x = rand_instance(rng, max_dim=2, pl_only=True)
            if e.out_dim != 1:
                continue
            v = check_unconstrained(qd_at(e, x))
            if v.holds:
                continue
            checked += 1
            assert not local_min_sampling(e, x, rng=np.random.default_rng(1000 + checked))
        assert checked >= 10


class TestQuasiregularity:
    def test_strictly_negative_gradient_regular(self):
        rep = quasiregularity_diagnostic([qd_linear([[-1.0]])])
        assert rep.regular and not rep.vacuous

    def test_flat_constraint_flagged(self):
        q = QuasiDiff(OperatorPolytope.singleton([[0.0]]),
                      OperatorPolytope.singleton([[0.0]]))
        rep = quasiregularity_diagnostic([q])
        assert not rep.regular

    def test_empty_list_vacuous(self):
        rep = quasiregularity_diagnostic([])
        assert rep.regular and rep.vacuous

    def test_one_membership_test_per_row_for_all_masks(self, monkeypatch):
        # The identity is the only nonzero band projection of a scalar row.
        rng = np.random.default_rng(37)
        qgs = [rand_qd(rng, 1, 2) for _ in range(3)]
        calls = []
        real = optimality.contains_point
        monkeypatch.setattr(optimality, "contains_point",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        rep = quasiregularity_diagnostic(qgs)
        assert len(calls) == len(qgs)
        assert [e["row"] for e in rep.entries] == list(range(len(qgs)))
        assert [e["weights"] for e in rep.entries] == np.eye(len(qgs)).tolist()
        assert all(e["mask"] == [1] for e in rep.entries)

    def test_one_difference_polytope_per_row_and_no_polytope_arithmetic(self, monkeypatch):
        # Each row asks contains_point once, over the k1 k2 differences of its
        # generators; no union, sum or prune is formed on the way.
        rng = np.random.default_rng(37)
        qgs = [rand_qd(rng, 1, 2) for _ in range(3)]
        formed, asked = [], []
        for name in ("_prune_gens", "_pair_sum"):
            real = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, lambda *a, _name=name, _real=real:
                                formed.append(_name) or _real(*a))
        real_contains = optimality.contains_point
        monkeypatch.setattr(optimality, "contains_point",
                            lambda P, *a: asked.append(P) or real_contains(P, *a))
        quasiregularity_diagnostic(qgs)
        assert formed == []
        assert [P.num_generators for P in asked] == [
            q.subd.num_generators * q.supd.num_generators for q in qgs]
        assert all(P.dims == (1, 2) for P in asked)

    @pytest.mark.parametrize("gap, disjoint", [(1e-6, True), (1e-12, False)])
    def test_three_generators_against_two_across_a_gap(self, gap, disjoint):
        # Three a at or below 0 in coordinate 0 and two b at or above gap,
        # with b[0] = a[0] + gap e_0: the distance is gap.
        a = np.array([[0.0, 0.3], [-0.5, -0.2], [-0.1, 0.9]])
        b = np.array([[gap, 0.3], [0.4 + gap, -0.7]])
        assert (two_simplex_distance(a, b) > geometry.DEFAULT_TOL.eps_geom) == disjoint
        q = QuasiDiff(OperatorPolytope(a[:, None, :]), OperatorPolytope(b[:, None, :]))
        rep = quasiregularity_diagnostic([q])
        assert [e["disjoint"] for e in rep.entries] == [disjoint]
        assert rep.regular == disjoint

    def test_disjointness_matches_a_two_simplex_program(self):
        # Entry i is disjoint exactly when min |sum lam a - sum mu b|_inf over
        # the two simplices of constraint i exceeds eps_geom.
        rng = np.random.default_rng(41)
        eps = geometry.DEFAULT_TOL.eps_geom
        kinds = {"random": 0, "shared vertex": 0, "gap": 0}
        for batch in range(20):
            n = int(rng.integers(1, 4))
            qgs, want = [], []
            for case in range(4):
                a = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 5)), n))
                b = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 5)), n))
                kind = ["random", "shared vertex", "gap", "gap"][(batch + case) % 4]
                if kind == "shared vertex":
                    b[0] = a[0]
                elif kind == "gap":
                    # Every a at or below 0 = a[0, 0] and every b at or above
                    # gap in coordinate 0, with b[0] = a[0] + gap e_0: the
                    # distance is gap, far below or far above eps_geom.
                    gap = [1e-12, 1e-6][case % 2]
                    a[:, 0] -= a[:, 0].max()
                    a[0, 0] = 0.0
                    b[:, 0] += gap - b[:, 0].min()
                    b[0] = a[0] + gap * np.eye(n)[0]
                kinds[kind] += 1
                qgs.append(QuasiDiff(OperatorPolytope(a[:, None, :]),
                                     OperatorPolytope(b[:, None, :])))
                want.append(two_simplex_distance(a, b) > eps)
            rep = quasiregularity_diagnostic(qgs)
            assert [e["disjoint"] for e in rep.entries] == want
            assert rep.regular == all(want)
        assert min(kinds.values()) >= 20


def two_simplex_distance(a, b):
    """min |a.T lam - b.T mu|_inf over lam, mu in the simplices, by linprog."""
    p, q, n = a.shape[0], b.shape[0], a.shape[1]
    M = np.hstack([a.T, -b.T])
    ones = np.ones((n, 1))
    A_ub = np.vstack([np.hstack([M, -ones]), np.hstack([-M, -ones])])
    A_eq = np.zeros((2, p + q + 1))
    A_eq[0, :p] = A_eq[1, p:p + q] = 1.0
    c = np.zeros(p + q + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(2 * n), A_eq=A_eq, b_eq=np.ones(2),
                  bounds=[(0.0, None)] * (p + q + 1), method="highs")
    assert res.status == 0
    return res.fun


class TestConstraintSystem:
    def test_reports_worst_violation(self):
        with pytest.raises(InfeasiblePointError) as ei:
            scalar_cs([qd_linear([[1.0]]), qd_linear([[2.0]])], [0.2, 0.9])
        assert "constraint 1" in str(ei.value)

    def test_dimension_consistency(self):
        with pytest.raises(Exception):
            ConstraintSystem((qd_linear([[1.0]]), qd_linear([[1.0, 0.0]])),
                             np.zeros(2))

    def test_active_indices(self):
        cs = scalar_cs([qd_linear([[1.0]]), qd_linear([[1.0]])], [0.0, -0.5])
        assert list(cs.active_indices(1e-9)) == [0]


class TestVerdictShape:
    def test_to_dict_round_trips_through_json(self):
        import json
        v = check_unconstrained(qd_saddle_2d())
        blob = json.dumps(v.to_dict())
        back = json.loads(blob)
        assert back["holds"] is False
        assert back["witness"]["coordinate"] == 0

    def test_kind_labels(self):
        assert check_unconstrained(qd_abs_sum_2d()).kind == "unconstrained"
        K = PolyCone.trivial(1, 1)
        assert check_set_constrained(qd_linear([[0.0]]), K).kind == "set_constrained"
