"""Tests for the quasidifferential data type and its calculus rules.

Each rule is checked two ways: exact sub/superdifferential pairs on small
hand-worked cases, and the support-function identity the rule must satisfy
on randomly generated operands over a fan of directions.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

from qdcalc import (
    DimensionMismatchError,
    OperatorPolytope,
    QuasiDiff,
    UnsupportedDimensionError,
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
from qdcalc import geometry, qdcore
from qdcalc.geometry import prune

from helpers import eval_dirs, rand_qd, support_functions_match, unit_directions


def qd_abs_1d():
    """The pair ([conv{-1,1}], [{0}]) of the absolute value at the origin."""
    return QuasiDiff(
        OperatorPolytope.from_generators([[[-1.0]], [[1.0]]]),
        OperatorPolytope.singleton([[0.0]]),
    )


class TestLinear:
    def test_scalar(self):
        q = qd_linear([[3.0]])
        np.testing.assert_allclose(q.subd.gens, [[[3.0]]])
        np.testing.assert_allclose(q.supd.gens, [[[0.0]]])

    def test_zero(self):
        q = qd_linear([[0.0]])
        np.testing.assert_allclose(q.subd.gens, [[[0.0]]])
        np.testing.assert_allclose(q.supd.gens, [[[0.0]]])

    def test_directional_derivative_is_matrix_action(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            A = rng.standard_normal((m, n))
            q = qd_linear(A)
            for h in unit_directions(rng, n, 10):
                np.testing.assert_allclose(qd_eval_dir(q, h), A @ h, atol=1e-12)


class TestAdd:
    def test_abs_minus_abs_cancels(self):
        q = qd_add([qd_abs_1d(), qd_scale(-1.0, qd_abs_1d())])
        np.testing.assert_allclose(np.sort(q.subd.gens.ravel()), [-1.0, 1.0])
        np.testing.assert_allclose(np.sort(q.supd.gens.ravel()), [-1.0, 1.0])
        for h in (-2.0, -0.5, 0.0, 1.0, 3.0):
            np.testing.assert_allclose(qd_eval_dir(q, [h]), [0.0], atol=1e-12)

    def test_zero_identity(self):
        zero = qd_linear([[0.0]])
        q = qd_add([qd_abs_1d(), zero])
        assert support_functions_match(q, qd_abs_1d(), np.random.default_rng(2), 20)

    def test_linear_sum(self):
        q = qd_add([qd_linear([[1.0]]), qd_linear([[2.0]])])
        np.testing.assert_allclose(q.subd.gens, [[[3.0]]])
        np.testing.assert_allclose(q.supd.gens, [[[0.0]]])

    def test_directional_derivatives_add(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            qs = [rand_qd(rng, m, n) for _ in range(int(rng.integers(2, 4)))]
            total = qd_add(qs)
            hs = unit_directions(rng, n, 100)
            np.testing.assert_allclose(
                eval_dirs(total, hs),
                np.sum([eval_dirs(q, hs) for q in qs], axis=0),
                atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qd_add([qd_abs_1d(), qd_linear([[1.0, 0.0]])])


class TestScale:
    def test_negation_swaps_roles(self):
        q = qd_scale(-1.0, qd_abs_1d())
        np.testing.assert_allclose(q.subd.gens, [[[0.0]]])
        np.testing.assert_allclose(np.sort(q.supd.gens.ravel()), [-1.0, 1.0])

    def test_unit_identity(self):
        q = qd_scale(1.0, qd_abs_1d())
        np.testing.assert_allclose(np.sort(q.subd.gens.ravel()), [-1.0, 1.0])
        np.testing.assert_allclose(q.supd.gens, [[[0.0]]])

    def test_vertex_list_roles_match_raw_pair(self):
        # Zero-scaled copies of a pruned (vertex-list) half repeat one point
        # and must still be pruned to it.
        raw = qd_abs_1d()
        marked = QuasiDiff(prune(raw.subd), raw.supd)
        for alpha in (-1.0, 0.0, 1.0):
            a, b = qd_scale(alpha, raw), qd_scale(alpha, marked)
            np.testing.assert_array_equal(a.subd.gens, b.subd.gens)
            np.testing.assert_array_equal(a.supd.gens, b.supd.gens)

    def test_zero_diagonal_gives_one_zero_generator(self):
        rng = np.random.default_rng(6)
        P = prune(rand_qd(rng, 2, 3, max_gens=5).subd)
        Z = diag_scale(np.zeros(2), P)
        assert Z.num_generators == 1 and Z.dims == (2, 3)
        assert not Z.gens.any()

    def test_scalar_scale_of_vertex_lists_prunes_nothing(self, monkeypatch):
        rng = np.random.default_rng(7)
        pairs = []
        for _ in range(10):
            q = rand_qd(rng, 1, 3, max_gens=5)
            pairs.append((q, QuasiDiff(prune(q.subd), prune(q.supd))))
        stacks = []
        real = geometry._prune_gens
        monkeypatch.setattr(geometry, "_prune_gens",
                            lambda gens: stacks.append(gens.shape[0]) or real(gens))
        hs = unit_directions(rng, 3, 50)
        for q, marked in pairs:
            for alpha in (-2.0, 0.5):
                np.testing.assert_allclose(eval_dirs(qd_scale(alpha, marked), hs),
                                           alpha * eval_dirs(q, hs), atol=1e-9)
        # single sums pass through _prune_gens untouched; nothing larger may
        assert max(stacks, default=1) == 1

    def test_zero_annihilates(self):
        q = qd_scale(0.0, qd_abs_1d())
        np.testing.assert_allclose(q.subd.gens, [[[0.0]]])
        np.testing.assert_allclose(q.supd.gens, [[[0.0]]])

    def test_scaling_scales_derivative(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            q = rand_qd(rng, m, n)
            alpha = rng.uniform(-2, 2, size=m)
            hs = unit_directions(rng, n, 100)
            np.testing.assert_allclose(
                eval_dirs(qd_scale(alpha, q), hs),
                alpha[None, :] * eval_dirs(q, hs),
                atol=1e-9)

    def test_scale_and_negate_cancel(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            q = rand_qd(rng, m, n)
            alpha = rng.uniform(-2, 2, size=m)
            total = qd_add([qd_scale(alpha, q), qd_scale(-alpha, q)])
            for h in unit_directions(rng, n, 100):
                np.testing.assert_allclose(qd_eval_dir(total, h), np.zeros(m), atol=1e-9)


class TestSupInf:
    def test_sup_of_x_and_minus_x(self):
        q = qd_sup([qd_linear([[1.0]]), qd_linear([[-1.0]])], [[0.0], [0.0]])
        np.testing.assert_allclose(np.sort(q.subd.gens.ravel()), [-1.0, 1.0])
        np.testing.assert_allclose(q.supd.gens, [[[0.0]]])

    def test_inf_of_x_and_minus_x(self):
        q = qd_inf([qd_linear([[1.0]]), qd_linear([[-1.0]])], [[0.0], [0.0]])
        np.testing.assert_allclose(q.subd.gens, [[[0.0]]])
        np.testing.assert_allclose(np.sort(q.supd.gens.ravel()), [-1.0, 1.0])

    def test_sup_of_duplicate_keeps_derivative(self):
        rng = np.random.default_rng(6)
        q = rand_qd(rng, 2, 3)
        dup = qd_sup([q, q], np.zeros((2, 2)))
        assert support_functions_match(dup, q, rng)

    def test_single_operand_unchanged(self):
        rng = np.random.default_rng(7)
        q = rand_qd(rng, 2, 2)
        assert support_functions_match(qd_sup([q], np.zeros((1, 2))), q, rng, 50)
        assert support_functions_match(qd_inf([q], np.zeros((1, 2))), q, rng, 50)

    def test_inactive_operand_is_ignored(self):
        rng = np.random.default_rng(8)
        q = rand_qd(rng, 1, 2)
        other = rand_qd(rng, 1, 2)
        low = qd_inf([q, other], [[0.0], [5.0]])
        assert support_functions_match(low, q, rng, 50)
        high = qd_sup([q, other], [[0.0], [-5.0]])
        assert support_functions_match(high, q, rng, 50)

    def test_sup_matches_pointwise_max_of_derivatives_convex_case(self):
        # For linear operands the sup rule must reproduce max(A_k h + r_k)
        # locally: at a common value point, derivative = max over active A_k h.
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            r = int(rng.integers(2, 5))
            mats = [rng.standard_normal((1, n)) for _ in range(r)]
            q = qd_sup([qd_linear(A) for A in mats], np.zeros((r, 1)))
            for h in unit_directions(rng, n, 50):
                expect = max((A @ h).item() for A in mats)
                np.testing.assert_allclose(qd_eval_dir(q, h), [expect], atol=1e-9)

    def test_sup_inf_duality(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            r = int(rng.integers(2, 4))
            qs = [rand_qd(rng, m, n) for _ in range(r)]
            vals = rng.uniform(-0.5, 0.5, size=(r, m))
            # Force ties in some coordinates so active sets are nontrivial.
            vals[rng.random(size=vals.shape) < 0.4] = 0.0
            low = qd_inf(qs, vals)
            negsup = qd_scale(-np.ones(m),
                              qd_sup([qd_scale(-np.ones(m), q) for q in qs], -vals))
            assert support_functions_match(low, negsup, rng)

    def test_requires_operands(self):
        with pytest.raises(ValueError):
            qd_sup([], np.zeros((0, 1)))

    def test_per_coordinate_active_sets(self):
        # Coordinate 0 splits actives between operands, coordinate 1 only
        # sees operand 1: derivative must mix per coordinate.
        A = qd_linear([[1.0, 0.0], [2.0, 0.0]])
        B = qd_linear([[-1.0, 0.0], [0.0, 3.0]])
        q = qd_sup([A, B], [[0.0, -1.0], [0.0, 4.0]])
        h = np.array([1.0, 1.0])
        np.testing.assert_allclose(qd_eval_dir(q, h), [1.0, 3.0], atol=1e-9)
        np.testing.assert_allclose(qd_eval_dir(q, -h), [1.0, -3.0], atol=1e-9)


def product_loop(sel, mixed):
    """A selection polytope assembled row by row over the product of operands."""
    m, n = mixed[sel[0]].dims
    used = sorted(set(sel))
    masks = {k: np.array([c == k for c in sel], dtype=float) for k in used}
    gens = []
    for combo in itertools.product(*(mixed[k].gens for k in used)):
        g = np.zeros((m, n))
        for k, gk in zip(used, combo):
            g += masks[k][:, None] * gk
        gens.append(g)
    return OperatorPolytope(np.stack(gens))


def _zero_half_operands(rng, m, n, r, half):
    """r pairs whose `half` is {0}; some rows of the other halves are scaled to zero."""
    qs = []
    for _ in range(r):
        P = rand_qd(rng, m, n).subd
        if rng.random() < 0.5:
            P = diag_scale(np.where(rng.random(m) < 0.5, 0.0, 1.0), P)
        if rng.random() < 0.5:
            P = prune(P)
        Z = OperatorPolytope.zero(m, n)
        qs.append(QuasiDiff(P, Z) if half == "supd" else QuasiDiff(Z, P))
    return qs


class TestZeroHalfShortcuts:
    """The {0} shortcuts of the max/min rules give the general path's bits."""

    @pytest.mark.parametrize("rule, half", [(qd_sup, "supd"), (qd_inf, "subd")])
    def test_zero_halves_match_the_general_path(self, rule, half):
        rng = np.random.default_rng(41)
        for _ in range(40):
            m, n, r = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            qs = _zero_half_operands(rng, m, n, r, half)
            vals = rng.choice([0.0, 0.0, 0.5], size=(r, m))
            fast = rule(qs, vals)
            with mock.patch.object(qdcore, "_is_zero_point", lambda P: False), \
                    mock.patch.object(geometry, "_is_zero_point", lambda P: False), \
                    mock.patch.object(qdcore, "_selection_polytope", product_loop):
                general = rule(qs, vals)
            for a, b in ((fast.subd, general.subd), (fast.supd, general.supd)):
                assert a.gens.shape == b.gens.shape
                assert a.gens.tobytes() == b.gens.tobytes()

    def test_one_operand_selection_is_the_product_loop(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            mixed = {k: rand_qd(rng, m, n).subd for k in range(3)}
            mixed[1] = diag_scale(np.where(rng.random(m) < 0.5, 0.0, 1.0), mixed[1])
            for k in mixed:
                sel = (k,) * m
                got = qdcore._selection_polytope(sel, mixed)
                want = product_loop(sel, mixed)
                assert got.gens.tobytes() == want.gens.tobytes()

    def test_mixed_selections_are_the_product_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m, n = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            mixed = {k: rand_qd(rng, m, n).subd for k in range(3)}
            for sel in itertools.product(range(3), repeat=m):
                got = qdcore._selection_polytope(sel, mixed)
                want = product_loop(sel, mixed)
                assert got.gens.shape == want.gens.shape
                assert got.gens.tobytes() == want.gens.tobytes()


class TestProduct:
    def test_x_times_abs_x_at_zero(self):
        q = qd_product(qd_linear([[1.0]]), [0.0], qd_abs_1d(), [0.0])
        np.testing.assert_allclose(q.subd.gens, [[[0.0]]])
        np.testing.assert_allclose(q.supd.gens, [[[0.0]]])

    def test_unit_multiplier_is_identity(self):
        rng = np.random.default_rng(11)
        q = rand_qd(rng, 2, 3)
        unit = qd_linear(np.zeros((2, 3)))
        got = qd_product(unit, [1.0, 1.0], q, rng.standard_normal(2))
        assert support_functions_match(got, q, rng)

    def test_square_at_one(self):
        q = qd_product(qd_linear([[1.0]]), [1.0], qd_linear([[1.0]]), [1.0])
        np.testing.assert_allclose(q.subd.gens, [[[2.0]]])
        np.testing.assert_allclose(q.supd.gens, [[[0.0]]])

    def test_product_rule_identity(self):
        # (gf)'(h) = g0 f'(h) + f0 g'(h) must hold exactly for the 4-term
        # assembly whenever both operand derivatives do.
        rng = np.random.default_rng(12)
        for _ in range(25):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            qg, qf = rand_qd(rng, m, n), rand_qd(rng, m, n)
            g0 = rng.uniform(-1.5, 1.5, size=m)
            f0 = rng.uniform(-1.5, 1.5, size=m)
            q = qd_product(qg, g0, qf, f0)
            hs = unit_directions(rng, n, 100)
            np.testing.assert_allclose(
                eval_dirs(q, hs),
                g0[None, :] * eval_dirs(qf, hs) + f0[None, :] * eval_dirs(qg, hs),
                atol=1e-9)


class TestCompose:
    def test_abs_after_identity(self):
        q = qd_compose(qd_abs_1d(), qd_linear([[1.0]]))
        np.testing.assert_allclose(np.sort(q.subd.gens.ravel()), [0.0, 2.0])
        np.testing.assert_allclose(q.supd.gens, [[[1.0]]])
        for h in (-2.0, -1.0, 0.5, 3.0):
            np.testing.assert_allclose(qd_eval_dir(q, [h]), [abs(h)], atol=1e-12)

    def test_linear_outer_chain_rule(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            l, m, n = (int(rng.integers(1, 3)) for _ in range(3))
            A = rng.standard_normal((l, m))
            qf = rand_qd(rng, m, n)
            q = qd_compose(qd_linear(A), qf)
            for h in unit_directions(rng, n, 50):
                np.testing.assert_allclose(qd_eval_dir(q, h), A @ qd_eval_dir(qf, h),
                                           atol=1e-9)

    def test_linear_inner_matches_direct(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            qg = rand_qd(rng, 1, m)
            T = rng.standard_normal((m, n))
            q = qd_compose(qg, qd_linear(T))
            for h in unit_directions(rng, n, 50):
                np.testing.assert_allclose(qd_eval_dir(q, h), qd_eval_dir(qg, T @ h),
                                           atol=1e-9)

    def test_middle_dimension_cap(self):
        qg = qd_linear(np.ones((1, 9)))
        qf = qd_linear(np.ones((9, 1)))
        with pytest.raises(UnsupportedDimensionError):
            qd_compose(qg, qf)


class TestEvalDir:
    def test_abs_at_negative_direction(self):
        np.testing.assert_allclose(qd_eval_dir(qd_abs_1d(), [-2.0]), [2.0])

    def test_zero_direction(self):
        rng = np.random.default_rng(15)
        q = rand_qd(rng, 3, 2)
        np.testing.assert_allclose(qd_eval_dir(q, [0.0, 0.0]), np.zeros(3), atol=1e-12)

    def test_saddle_direction(self):
        # |x1| - |x2| at the origin: subd conv{(-1,0),(1,0)}, supd conv{(0,-1),(0,1)}.
        q = QuasiDiff(
            OperatorPolytope.from_generators([[[-1.0, 0.0]], [[1.0, 0.0]]]),
            OperatorPolytope.from_generators([[[0.0, -1.0]], [[0.0, 1.0]]]),
        )
        np.testing.assert_allclose(qd_eval_dir(q, [0.0, 1.0]), [-1.0])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            q = rand_qd(rng, m, n)
            h = rng.standard_normal(n)
            base = qd_eval_dir(q, h)
            for lam in (0.0, 0.25, 1.0, 7.5):
                np.testing.assert_allclose(qd_eval_dir(q, lam * h), lam * base,
                                           atol=1e-9 * (1 + lam))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qd_eval_dir(qd_abs_1d(), [1.0, 2.0])


class TestQuasiDiffType:
    def test_requires_matching_dims(self):
        with pytest.raises(DimensionMismatchError):
            QuasiDiff(OperatorPolytope.singleton([[1.0]]),
                      OperatorPolytope.singleton([[1.0, 0.0]]))

    def test_dims_property(self):
        q = qd_linear(np.zeros((2, 3)))
        assert q.dims == (2, 3)
