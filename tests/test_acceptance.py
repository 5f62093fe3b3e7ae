"""Acceptance gate: the eight headline guarantees, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Each criterion draws from its own frozen seed stream, so
the corpora are reproducible run to run.
"""

import time

import numpy as np

from qdcalc import (
    Abs,
    Add,
    Affine,
    ConstraintSystem,
    OperatorPolytope,
    PolyCone,
    QuasiDiff,
    SolverParams,
    check_combined,
    check_generalized,
    check_inequality_constrained,
    check_slackened,
    check_unconstrained,
    dini_fd,
    is_piecewise_linear,
    minimize,
    qd_add,
    qd_at,
    qd_compose,
    qd_eval_dir,
    qd_inf,
    qd_linear,
    qd_product,
    qd_scale,
    qd_sup,
)

from helpers import (
    coercive_instance,
    convex_pl_instance,
    eval_dirs,
    generalized_min_sampling,
    grid_minimum,
    local_min_sampling,
    rand_instance,
    rand_polytope,
    rand_qd,
    saddle_instance,
    unit_directions,
)


def _criterion(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


def abs_pair_1d():
    return QuasiDiff(OperatorPolytope.from_generators([[[-1.0]], [[1.0]]]),
                     OperatorPolytope.singleton([[0.0]]))


class TestAcceptance:
    def test_criterion_1_calculus_derivative_consistency(self):
        # >=1000 random expressions (depth <= 5, n,m <= 4), 20 directions
        # each: propagated derivative vs finite differences, 1e-5 relative,
        # 1e-9 absolute on piecewise-linear instances, under 60 s.
        rng = np.random.default_rng(20260816)
        t0 = time.monotonic()
        worst_rel, worst_pl, n_pl, fails = 0.0, 0.0, 0, 0
        N = 1200
        for i in range(N):
            e, x, hs = rand_instance(rng, max_dim=4, max_depth=5,
                                     pl_only=(i % 2 == 0), directions=20)
            q = qd_at(e, x)
            pl = is_piecewise_linear(e)
            n_pl += pl
            for h in hs:
                fd = dini_fd(e, x, h)
                err = np.abs(qd_eval_dir(q, h) - fd)
                rel = np.max(err / (1.0 + np.abs(fd)))
                worst_rel = max(worst_rel, rel)
                if pl:
                    worst_pl = max(worst_pl, np.max(err))
                fails += (rel > 1e-5) or (pl and np.max(err) > 1e-9)
        elapsed = time.monotonic() - t0
        _criterion(1, fails == 0 and elapsed < 60.0,
                   f"{N} instances ({n_pl} piecewise linear), worst rel "
                   f"{worst_rel:.2e}, worst pl {worst_pl:.2e}, {elapsed:.1f}s")

    def test_criterion_2_rule_identities(self):
        # Sum, scale (alpha and -alpha), sup/inf duality, product: each on
        # 200 random operand pairs x 100 directions to 1e-9.
        worst = {"sum": 0.0, "scale": 0.0, "duality": 0.0, "product": 0.0}

        rng = np.random.default_rng(201)
        for _ in range(200):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            qs = [rand_qd(rng, m, n) for _ in range(int(rng.integers(2, 4)))]
            hs = unit_directions(rng, n, 100)
            got = eval_dirs(qd_add(qs), hs)
            want = np.sum([eval_dirs(q, hs) for q in qs], axis=0)
            worst["sum"] = max(worst["sum"], float(np.max(np.abs(got - want))))

        rng = np.random.default_rng(202)
        for _ in range(200):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            q = rand_qd(rng, m, n)
            alpha = rng.uniform(-2, 2, size=m)
            hs = unit_directions(rng, n, 100)
            base = eval_dirs(q, hs)
            for a in (alpha, -alpha):
                got = eval_dirs(qd_scale(a, q), hs)
                worst["scale"] = max(worst["scale"],
                                     float(np.max(np.abs(got - a[None, :] * base))))

        rng = np.random.default_rng(203)
        for _ in range(200):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            r = int(rng.integers(2, 4))
            qs = [rand_qd(rng, m, n) for _ in range(r)]
            vals = rng.uniform(-0.5, 0.5, size=(r, m))
            vals[rng.random(size=vals.shape) < 0.4] = 0.0
            hs = unit_directions(rng, n, 100)
            low = eval_dirs(qd_inf(qs, vals), hs)
            neg = qd_scale(-np.ones(m),
                           qd_sup([qd_scale(-np.ones(m), q) for q in qs], -vals))
            worst["duality"] = max(worst["duality"],
                                   float(np.max(np.abs(low - eval_dirs(neg, hs)))))

        rng = np.random.default_rng(204)
        for _ in range(200):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            qg, qf = rand_qd(rng, m, n), rand_qd(rng, m, n)
            g0 = rng.uniform(-1.5, 1.5, size=m)
            f0 = rng.uniform(-1.5, 1.5, size=m)
            hs = unit_directions(rng, n, 100)
            got = eval_dirs(qd_product(qg, g0, qf, f0), hs)
            want = g0[None, :] * eval_dirs(qf, hs) + f0[None, :] * eval_dirs(qg, hs)
            worst["product"] = max(worst["product"],
                                   float(np.max(np.abs(got - want))))

        bad = {k: v for k, v in worst.items() if v > 1e-9}
        _criterion(2, not bad,
                   "worst " + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))

    def test_criterion_3_composition_rule(self):
        # abs composed with a random linear map matches |a.h| exactly, and
        # the hand-worked pair reproduces generator-for-generator.
        q = qd_compose(abs_pair_1d(), qd_linear([[1.0]]))
        exact = (sorted(q.subd.gens.ravel().tolist()) == [0.0, 2.0]
                 and q.supd.gens.ravel().tolist() == [1.0])
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-2.0, 2.0, size=(1, n))
            qc = qd_compose(abs_pair_1d(), qd_linear(a))
            h = rng.standard_normal(n)
            got = qd_eval_dir(qc, h)[0]
            worst = max(worst, abs(got - abs((a @ h).item())))
        _criterion(3, exact and worst <= 1e-9,
                   f"worked pair exact: {exact}, worst |error| {worst:.2e} "
                   f"over 100 draws")

    def test_criterion_4_stationarity_vs_sampling_oracle(self):
        # 100 saddles (reject expected) + 100 coercive sums of abs (accept
        # expected) against brute-force local sampling, radius 1e-3,
        # 10^4 samples: zero disagreements.
        rng = np.random.default_rng(1804)
        disagree, saddle_holds, coercive_fails = 0, 0, 0
        for i in range(100):
            n = int(rng.integers(2, 5))
            e = saddle_instance(rng, n)
            x0 = np.zeros(n)
            v = check_unconstrained(qd_at(e, x0))
            oracle = local_min_sampling(e, x0, rng=np.random.default_rng(1000 + i))
            disagree += v.holds != oracle
            saddle_holds += v.holds
        for i in range(100):
            n = int(rng.integers(1, 5))
            e = coercive_instance(rng, n)
            x0 = np.zeros(n)
            v = check_unconstrained(qd_at(e, x0))
            oracle = local_min_sampling(e, x0, rng=np.random.default_rng(2000 + i))
            disagree += v.holds != oracle
            coercive_fails += not v.holds
        _criterion(4, disagree == 0 and saddle_holds == 0 and coercive_fails == 0,
                   f"disagreements {disagree}, saddles accepted {saddle_holds}/100, "
                   f"coercive rejected {coercive_fails}/100")

    def test_criterion_5_multiplier_fixtures(self):
        # The four hand-derived constrained fixtures with their stated
        # verdicts and certificates.
        results = []

        # f(x)=x on {-x <= 0} at 0: holds with gamma = 1.
        v1 = check_inequality_constrained(
            qd_linear([[1.0]]),
            ConstraintSystem((qd_linear([[-1.0]]),), np.array([0.0])))
        ok1 = v1.holds and np.allclose(v1.certificates[0].gamma, [1.0], atol=1e-8)
        results.append(("boundary gamma=1", ok1))

        # f(x)=x on {x-1 <= 0} at 0: inactive constraint cannot certify.
        v2 = check_inequality_constrained(
            qd_linear([[1.0]]),
            ConstraintSystem((qd_linear([[1.0]]),), np.array([-1.0])))
        ok2 = (not v2.holds) and v2.witness is not None
        results.append(("inactive fails", ok2))

        # f(x)=|x| with a never-active constraint: unconstrained behaviour.
        v3 = check_inequality_constrained(
            qd_at(Abs(Affine([[1.0]], [0.0])), [0.0]),
            ConstraintSystem((qd_linear([[0.0]]),), np.array([-1.0])))
        ok3 = v3.holds and np.allclose(v3.certificates[0].gamma, [0.0], atol=1e-12)
        results.append(("vacuous holds", ok3))

        # f(x)=x, g(x)=-x, C=R+ at 0: compatible with (gamma=1, lambda=0)
        # or (gamma=0, lambda=-1).
        v4 = check_combined(
            qd_linear([[1.0]]),
            ConstraintSystem((qd_linear([[-1.0]]),), np.array([0.0]),
                             set_cone=PolyCone.from_generators([[[1.0]]])))
        ok4 = v4.holds
        if ok4:
            c = v4.certificates[0]
            lam = np.zeros(1) if c.normal_element is None else np.asarray(c.normal_element)
            ok4 = (np.allclose(c.gamma, [1.0], atol=1e-8)
                   and np.allclose(lam, [0.0], atol=1e-8)) or (
                   np.allclose(c.gamma, [0.0], atol=1e-8)
                   and np.allclose(lam, [-1.0], atol=1e-8))
        results.append(("combined certificate", ok4))

        _criterion(5, all(ok for _, ok in results),
                   ", ".join(f"{name}: {'ok' if ok else 'BAD'}"
                             for name, ok in results))

    def test_criterion_6_generalized_two_point(self):
        # f(x) = (|x-1|, |x+1|) at {1, -1} is a generalized optimum; the
        # perturbation f(x) = (|x-1|-x, |x+1|) is stated to flip the
        # verdict, with the multi-point sampling oracle agreeing.
        stack = Abs(Affine([[1.0], [1.0]], [-1.0, 1.0]))
        pts = [np.array([1.0]), np.array([-1.0])]
        qds = [qd_at(stack, p) for p in pts]
        values = np.stack([stack.evaluate(p) for p in pts])
        base = check_generalized(qds, values)
        base_oracle = generalized_min_sampling(stack, pts,
                                               rng=np.random.default_rng(600))

        pert = _perturbed_pair()
        qds_p = [qd_at(pert, p) for p in pts]
        values_p = np.stack([pert.evaluate(p) for p in pts])
        flipped = check_generalized(qds_p, values_p)
        pert_oracle = generalized_min_sampling(pert, pts,
                                               rng=np.random.default_rng(601))

        ok = (base.holds and base_oracle
              and (not flipped.holds) and (not pert_oracle))
        _criterion(6, ok,
                   f"base holds {base.holds} (oracle {base_oracle}); perturbed "
                   f"holds {flipped.holds} (oracle confirms optimum: {pert_oracle}) "
                   f"- the stated flip does not occur: the first coordinate "
                   f"|x-1|-x still attains its joint minimum at x=1")

    def test_criterion_7_solver_reaches_grid_minimum(self):
        # 50 random convex piecewise-linear objectives (n <= 5): the final
        # point passes the stationarity check and the final value is within
        # 1e-6 of a fine-grid minimum, all under 30 s.
        rng = np.random.default_rng(1804)
        t0 = time.monotonic()
        fails, worst_gap = 0, -np.inf
        for _ in range(50):
            n = int(rng.integers(1, 6))
            e = convex_pl_instance(rng, n)
            x0 = rng.uniform(-1.0, 1.0, size=n)
            res = minimize(e, x0, SolverParams())
            certified = check_unconstrained(qd_at(e, res.x)).holds
            pts = [41, 41, 25, 17, 13][n - 1]
            fgrid = grid_minimum(e, -2.0, 2.0, pts)
            worst_gap = max(worst_gap, res.value - fgrid)
            if not (certified and res.value <= fgrid + 1e-6):
                fails += 1
        elapsed = time.monotonic() - t0
        _criterion(7, fails == 0 and elapsed < 30.0,
                   f"failures {fails}/50, worst value minus grid "
                   f"{worst_gap:.2e}, {elapsed:.1f}s")

    def test_criterion_8_implication_chain(self):
        # Multiplier condition implies its closure-cone relaxation on 200
        # random scalar constrained instances: zero violations.
        rng = np.random.default_rng(55)
        holds_count, violations = 0, 0
        for i in range(200):
            n = int(rng.integers(1, 4))
            family = i % 3
            if family == 0:
                qf = rand_qd(rng, 1, n)
            elif family == 1:
                sub = rand_polytope(rng, 1, n, max_gens=4)
                w = rng.dirichlet(np.ones(sub.num_generators),
                                  size=int(rng.integers(1, 3)))
                qf = QuasiDiff(sub, OperatorPolytope(
                    np.einsum("ik,kmn->imn", w, sub.gens)))
            else:
                qf = qd_linear(rng.uniform(0.5, 2.0, size=(1, n)))
            k = int(rng.integers(1, 4))
            qgs, vals = [], []
            for j in range(k):
                if family == 2 and j == 0:
                    c = rng.uniform(0.5, 2.0)
                    qgs.append(qd_linear(-qf.subd.gens[0] / c))
                    vals.append(0.0)
                else:
                    qgs.append(rand_qd(rng, 1, n, max_gens=3))
                    vals.append(float(-rng.random() * (rng.random() < 0.5)))
            cs = ConstraintSystem(tuple(qgs), np.array(vals))
            if check_inequality_constrained(qf, cs).holds:
                holds_count += 1
                if not check_slackened(qf, qgs).holds:
                    violations += 1
        _criterion(8, violations == 0 and holds_count >= 50,
                   f"antecedent held on {holds_count}/200, violations {violations}")


def _perturbed_pair():
    """(|x-1| - x, |x+1|) as a single two-row expression."""
    stack = Abs(Affine([[1.0], [1.0]], [-1.0, 1.0]))
    tilt = Affine([[-1.0], [0.0]], [0.0, 0.0])
    return Add([stack, tilt])
