"""Tests for the V-representation geometry layer.

Exact values first (small hand-checkable polytopes), then randomized
property checks driven by support-function identities, which are the
ground truth all set operations must preserve.
"""

import dataclasses
import importlib.machinery
import importlib.util
import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from qdcalc import (
    DEFAULT_TOL,
    DimensionMismatchError,
    NonFiniteError,
    OperatorPolytope,
    PolyCone,
    Tolerance,
    UnsupportedDimensionError,
    contains_point,
    convex_union,
    minkowski_sum,
    nearest_point,
    polar_cone,
    prune,
    separating_direction,
    support,
)
from qdcalc import cli, geometry
from qdcalc.expr import Abs, Add, Affine, Scale, qd_at
from qdcalc.geometry import coordinate_rows

from helpers import cone_residual, coercive_instance, fresh_env, rand_polytope, unit_directions


def interval(lo, hi):
    return OperatorPolytope.from_generators([[[lo]], [[hi]]])


class TestSupport:
    def test_symmetric_interval(self):
        np.testing.assert_allclose(support(interval(-1.0, 1.0), [2.0]), [2.0])

    def test_zero_polytope(self):
        v = support(OperatorPolytope.singleton([[0.0]]), [17.3])
        np.testing.assert_allclose(v, [0.0])

    def test_two_rows_max(self):
        P = OperatorPolytope.from_generators([[[1.0, 0.0]], [[0.0, 1.0]]])
        np.testing.assert_allclose(support(P, [3.0, 4.0]), [4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            support(interval(-1.0, 1.0), [1.0, 2.0])


class TestMinkowskiSum:
    def test_zero_neutral(self):
        S = minkowski_sum(interval(-1.0, 1.0), OperatorPolytope.singleton([[0.0]]))
        np.testing.assert_allclose(np.sort(S.gens.ravel()), [-1.0, 1.0])

    def test_interval_doubling(self):
        S = minkowski_sum(interval(-1.0, 1.0), interval(-1.0, 1.0))
        np.testing.assert_allclose(np.sort(S.gens.ravel()), [-2.0, 2.0])

    def test_singletons_add(self):
        A = OperatorPolytope.singleton([[1.0, 2.0], [3.0, 4.0]])
        B = OperatorPolytope.singleton([[0.5, 0.5], [0.5, 0.5]])
        S = minkowski_sum(A, B)
        assert S.num_generators == 1
        np.testing.assert_allclose(S.gens[0], [[1.5, 2.5], [3.5, 4.5]])

    def test_support_additivity(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            P, Q = rand_polytope(rng, m, n), rand_polytope(rng, m, n)
            S = minkowski_sum(P, Q)
            for h in unit_directions(rng, n, 10):
                lhs = support(S, h)
                ra = support(P, h)
                rb = support(Q, h)
                np.testing.assert_allclose(lhs, ra + rb, atol=1e-9)


VL_DIMS = (2, 4)  # 8 flat coordinates


def _block_points(rng, base, coords, k):
    """k random points that differ from base only in the given flat coordinates."""
    pts = np.tile(base, (k, 1))
    pts[:, coords] += rng.uniform(-1.0, 1.0, size=(k, len(coords)))
    return pts


def _vertex_list_pair(rng, kind):
    """Two pruned polytopes whose Minkowski sum is of the given kind.

    translation: one operand is a single point; direct: segments or
    simplices in disjoint coordinate blocks, so the spans are
    independent; overlap: point clouds in one shared block, so
    rank(P) + rank(Q) exceeds the rank of the sum.  A common random
    rotation hides the blocks from the coordinate axes.
    """
    d = VL_DIMS[0] * VL_DIMS[1]
    coords = rng.permutation(d)
    base = rng.uniform(-1.0, 1.0, size=d)
    if kind == "translation":
        block = coords[: int(rng.integers(1, 7))]
        P = _block_points(rng, base, block, int(rng.integers(2, 10)))
        Q = rng.uniform(-1.0, 1.0, size=(1, d))
    elif kind == "direct":
        a, b = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        blocks = coords[:a], coords[a : a + b]
        P, Q = (
            _block_points(rng, base, blk, 2 if rng.random() < 0.5 else len(blk) + 1)
            for blk in blocks
        )
    else:
        block = coords[: int(rng.integers(1, 5))]
        P, Q = (_block_points(rng, base, block, len(block) + 2) for _ in range(2))
    rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
    P, Q = (prune(OperatorPolytope((X @ rot.T).reshape(-1, *VL_DIMS))) for X in (P, Q))
    return (Q, P) if rng.random() < 0.5 else (P, Q)


class TestVertexListSums:
    """minkowski_sum skips the prune only where the general path keeps every sum."""

    @settings(max_examples=90, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["translation", "direct", "overlap"]))
    def test_rules_match_general_prune(self, seed, kind):
        rng = np.random.default_rng(seed)
        P, Q = _vertex_list_pair(rng, kind)
        with mock.patch.object(geometry, "_prune_gens", wraps=geometry._prune_gens) as general:
            S = minkowski_sum(P, Q)
        assert general.called == (kind == "overlap")
        sums = (P.gens[:, None] + Q.gens[None]).reshape(-1, *VL_DIMS)
        np.testing.assert_array_equal(S.gens, geometry._prune_gens(sums))
        for h in unit_directions(rng, VL_DIMS[1], 20):
            np.testing.assert_allclose(
                support(S, h), support(P, h) + support(Q, h), rtol=0.0, atol=1e-12
            )

    @pytest.mark.parametrize("gens, vertices", [
        ([[[0.0, 0.0]], [[1.0, 1.0]], [[2.0, 2.0]]], [0, 2]),  # a midpoint
        ([[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 1.0]]], [0, 1, 3]),  # a duplicate
    ])
    def test_unmarked_input_is_still_pruned(self, gens, vertices):
        P = OperatorPolytope.from_generators(gens)
        t = OperatorPolytope.singleton([[0.5, -1.0]])
        expected = P.gens[vertices] + t.gens
        np.testing.assert_array_equal(minkowski_sum(P, t).gens, expected)
        np.testing.assert_array_equal(minkowski_sum(t, P).gens, expected)

    def test_marker_stays_out_of_the_value(self):
        raw = OperatorPolytope.from_generators([[[0.0]], [[1.0]]])
        marked = prune(raw)
        assert marked._vertex_list and not raw._vertex_list
        assert repr(marked) == repr(raw)
        assert [f.name for f in dataclasses.fields(marked)] == ["gens"]

    @pytest.mark.parametrize("seed", [0, 2])  # random rows, then identity rows
    def test_coercive_pair_needs_no_hull_or_lp(self, seed, monkeypatch):
        calls = []
        for name in ("ConvexHull", "linprog", "_highs_solve"):
            def counted(*args, _name=name, _f=getattr(geometry, name), **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(geometry, name, counted)
        q = qd_at(coercive_instance(np.random.default_rng(seed), 8), np.zeros(8))
        assert q.subd.num_generators == 256
        assert calls == []


def _with_negative_zeros(gens):
    """gens with every third entry, the first among them, replaced by -0.0."""
    out = np.array(gens, dtype=float)
    out.reshape(-1)[::3] = -0.0
    return out


def general_zero_sum(P, Z):
    """P + {0} on the general path: the sums, pruned unless P is a vertex list."""
    sums = (P.gens[:, None] + Z.gens[None]).reshape(-1, *P.dims)
    if geometry._is_vertex_list(P):
        return sums
    return geometry._prune_gens(sums)


class TestZeroIdentity:
    """P + {0} returns what the general path gives, bit for bit."""

    @pytest.mark.parametrize("negative_zeros", [False, True])
    @pytest.mark.parametrize("kind", ["vertex list", "unmarked", "point", "zero point"])
    def test_sum_with_zero_is_bitwise_general(self, kind, negative_zeros):
        rng = np.random.default_rng(31)
        gens = rng.uniform(-1.0, 1.0, size=(5, 2, 2))
        gens[4] = 0.5 * (gens[0] + gens[1])  # redundant, for the unmarked case
        if kind == "point":
            gens = gens[:1]
        elif kind == "zero point":
            gens = np.zeros((1, 2, 2))
        if negative_zeros:
            gens = _with_negative_zeros(gens)
        P = prune(OperatorPolytope(gens)) if kind == "vertex list" else OperatorPolytope(gens)
        Z = OperatorPolytope.zero(2, 2)
        expected = general_zero_sum(P, Z)
        for S in (minkowski_sum(P, Z), minkowski_sum(Z, P)):
            assert S.gens.shape == expected.shape
            assert S.gens.tobytes() == expected.tobytes()
            assert S._vertex_list == (S.num_generators > 1)
            if geometry._is_vertex_list(P):
                assert S is P or S is Z  # nothing new is built

    def test_shared_zero_is_read_only_and_unmarked(self):
        Z = OperatorPolytope.zero(2, 3)
        assert Z is OperatorPolytope.zero(2, 3)
        assert Z.gens.shape == (1, 2, 3) and Z.gens.tobytes() == bytes(Z.gens.nbytes)
        P = prune(OperatorPolytope(np.arange(12.0).reshape(2, 2, 3)))
        for S in (Z, P, OperatorPolytope(np.ones((2, 1, 1))), PolyCone.trivial(1, 2)):
            assert not S.gens.flags.writeable
            if S.num_generators:
                with pytest.raises(ValueError):
                    S.gens[0, 0, 0] = 1.0
            with pytest.raises(ValueError):
                S.gens.setflags(write=True)
        assert minkowski_sum(Z, Z) is Z
        for result in (prune(Z), convex_union([Z, Z]), minkowski_sum(P, Z), minkowski_sum(Z, P)):
            assert result is not Z
        assert not Z._vertex_list

    def test_overflowing_sum_raises_before_the_prune(self):
        P = OperatorPolytope.from_generators([[[1e308, 0.0]], [[-1e308, 1.0]]])
        with np.errstate(over="ignore"), \
                mock.patch.object(geometry, "_prune_gens") as pruned:
            with pytest.raises(NonFiniteError):
                minkowski_sum(P, P)
        assert not pruned.called


class TestDistinctPair:
    """Two points skip the SVD only where the SVD would keep both."""

    @pytest.mark.parametrize("gap, vertices", [(1e-13, 1), (1e-6, 2), (1.0, 2)])
    def test_pair_collapses_only_inside_the_rank_band(self, gap, vertices):
        P = OperatorPolytope.from_generators([[[0.25, -1.0]], [[0.25 + gap, -1.0]]])
        assert prune(P).num_generators == vertices

    def test_shortcut_matches_the_svd(self, monkeypatch):
        rng = np.random.default_rng(32)
        cases = []
        for exponent in range(-16, 3):
            for _ in range(4):
                base = rng.uniform(-1.0, 1.0, size=4) * 10.0 ** rng.integers(-3, 4)
                step = rng.standard_normal(4) * 10.0 ** exponent
                cases.append(np.stack([base, base + step]))
        shortcut = [geometry._hull_vertex_indices(flat) for flat in cases]
        monkeypatch.setattr(geometry, "_DISTINCT_PAIR", np.inf)
        assert shortcut == [geometry._hull_vertex_indices(flat) for flat in cases]


def reference_pair_sum(P, Q):
    """The two-operand Minkowski sum as written before sums of many parts."""
    geometry._check_same_dims(P, Q)
    if geometry._is_zero_point(P):
        P, Q = Q, P
    if geometry._is_zero_point(Q) and geometry._is_vertex_list(P):
        return P
    m, n = P.dims
    sums = (P.gens[:, None, :, :] + Q.gens[None, :, :, :]).reshape(-1, m, n)
    if sums.shape[0] > 1 and geometry._is_vertex_list(P) and geometry._is_vertex_list(Q):
        if P.num_generators == 1 or Q.num_generators == 1:
            return geometry._vertex_polytope(sums)
        cp, cq = geometry._centred(P.flat), geometry._centred(Q.flat)
        rank_p = geometry._rank(np.linalg.svd(cp, compute_uv=False))
        rank_q = geometry._rank(np.linalg.svd(cq, compute_uv=False))
        if rank_p + rank_q == geometry._rank(np.linalg.svd(np.vstack([cp, cq]), compute_uv=False)):
            return geometry._vertex_polytope(sums)
    if not np.isfinite(sums).all():
        raise NonFiniteError("generator entries must be finite")
    return geometry._vertex_polytope(geometry._prune_gens(sums))


def reference_fold(parts):
    total = parts[0]
    for P in parts[1:]:
        total = reference_pair_sum(total, P)
    return total


def sum_outcome(add, parts):
    """Everything a caller can see of a sum: bytes, order, mark, which
    part came back as the result, or the error."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            S = add(parts)
    except (NonFiniteError, RuntimeError) as exc:  # an LP of the prune may fail
        return type(exc), str(exc)
    return (S.gens.shape, S.gens.tobytes(), S._vertex_list,
            [i for i, P in enumerate(parts) if P is S])


def segment(a, b, dims):
    return geometry._vertex_polytope(np.stack([a, b]).reshape(2, *dims))


SUM_KINDS = ("zero", "point", "unmarked", "vertex list", "segment", "parallel",
             "tiny", "offset")


@st.composite
def sum_parts(draw):
    """One to six parts of one shape, of the kinds above, all scaled by 2^e."""
    dims = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 2)]))
    d = dims[0] * dims[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.one_of(st.integers(-30, 100), st.sampled_from([1000, 1020])))
    axis = rng.standard_normal(d)
    parts = []
    for kind in draw(st.lists(st.sampled_from(SUM_KINDS), min_size=1, max_size=6)):
        if kind == "zero":
            parts.append(OperatorPolytope.zero(*dims))
            continue
        a = rng.uniform(-1.0, 1.0, size=d)
        if kind == "point":
            P = OperatorPolytope(a.reshape(1, *dims))
        elif kind == "unmarked":
            pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 5)), d))
            P = OperatorPolytope(np.vstack([pts, pts[:2].mean(axis=0)]).reshape(-1, *dims))
        elif kind == "vertex list":
            P = prune(OperatorPolytope(rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 7)), *dims))))
        elif kind == "segment":
            P = segment(a, a + rng.standard_normal(d), dims)
        elif kind == "parallel":  # along one axis for the whole list, bent by 1e-16..1e-8
            bend = rng.standard_normal(d) * 10.0 ** rng.uniform(-16.0, -8.0)
            P = segment(a, a + rng.uniform(0.5, 2.0) * axis + bend, dims)
        elif kind == "tiny":  # length 1e-14..1e-10, around the rank band
            P = segment(a, a + rng.standard_normal(d) * 10.0 ** rng.uniform(-14.0, -10.0), dims)
        else:  # a short segment far from the origin
            far = a * 10.0 ** rng.integers(4, 9)
            P = segment(far, far + rng.standard_normal(d) * 10.0 ** rng.uniform(-6.0, 0.0), dims)
        # a part stays finite: near the overflow scales only its sums overflow
        gens = P.gens * min(scale, 2.0 ** 1020 / max(1.0, np.abs(P.gens).max()))
        parts.append(geometry._vertex_polytope(gens) if P._vertex_list else OperatorPolytope(gens))
    return parts


class TestManyPartSums:
    """geometry._sum returns what the left fold of the two-operand sum returns."""

    @settings(max_examples=400, deadline=None)
    @given(parts=sum_parts())
    def test_equals_the_pairwise_fold(self, parts):
        assert sum_outcome(geometry._sum, parts) == sum_outcome(reference_fold, parts)
        if len(parts) == 2:
            assert (sum_outcome(lambda ps: minkowski_sum(*ps), parts)
                    == sum_outcome(reference_fold, parts))

    def test_defers_to_the_fold_near_the_rank_band(self):
        # Two parallel segments 0.9e-12 long have rank 0 alone and in one
        # stack, but their sum has a singular value of 1.27e-12: the fold
        # then finds rank 1 + 1 > 1 beside a long segment and prunes.
        tiny = segment([0.0, 0.0], [0.0, 0.9e-12], (1, 2))
        parts = [tiny, tiny, segment([0.0, 0.0], [10.0, 0.0], (1, 2))]
        assert not geometry._certified_direct([P.flat for P in parts])
        assert sum_outcome(geometry._sum, parts) == sum_outcome(reference_fold, parts)
        assert geometry._sum(parts).num_generators == 2

    @pytest.mark.parametrize("n", [3, 5, 8])  # two terms take the two-operand rule
    def test_zonotope_at_its_kink_runs_one_svd(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        rows = rng.uniform(-1.0, 1.0, size=(n, n))
        e = Add([Scale([w], Abs(Affine(r[None, :], [0.0])))
                 for w, r in zip(rng.uniform(0.5, 2.0, size=n), rows)])
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        q = qd_at(e, np.zeros(n))
        assert len(calls) == 1
        assert q.subd.num_generators == 2 ** n and q.subd._vertex_list


class TestHullScale:
    """qhull sees unit-scale points, so the vertices do not depend on scale."""

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_vertices_are_scale_free(self, rank):
        rng = np.random.default_rng(40 + rank)
        basis = rng.standard_normal((rank, 6))
        pts = rng.uniform(-1.0, 1.0, size=(12, rank)) @ basis
        pts = np.vstack([pts, pts[:4].mean(axis=0), pts[4:7].mean(axis=0)])
        unit = geometry._hull_vertex_indices(pts)
        assert unit is not None and len(unit) < pts.shape[0]
        for e in (-20, -7, 7, 60, 200, 500, 900):
            assert geometry._hull_vertex_indices(np.ldexp(pts, e)) == unit


class TestConvexUnion:
    def test_two_singletons(self):
        U = convex_union([OperatorPolytope.singleton([[1.0]]),
                          OperatorPolytope.singleton([[-1.0]])])
        np.testing.assert_allclose(np.sort(U.gens.ravel()), [-1.0, 1.0])

    def test_interior_point_pruned(self):
        U = convex_union([interval(0.0, 1.0), OperatorPolytope.singleton([[0.5]])])
        assert U.num_generators == 2
        np.testing.assert_allclose(np.sort(U.gens.ravel()), [0.0, 1.0])

    def test_idempotent(self):
        P = interval(-2.0, 3.0)
        U = convex_union([P, P, P])
        np.testing.assert_allclose(np.sort(U.gens.ravel()), [-2.0, 3.0])

    def test_support_is_max(self):
        rng = np.random.default_rng(202)
        for _ in range(20):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            parts = [rand_polytope(rng, m, n) for _ in range(int(rng.integers(2, 4)))]
            U = convex_union(parts)
            for h in unit_directions(rng, n, 10):
                lhs = support(U, h)
                best = np.max([support(P, h) for P in parts], axis=0)
                np.testing.assert_allclose(lhs, best, atol=1e-9)


def _marked_polytope(rng, rank, k):
    """prune of k random points spanning an affine space of the given rank,
    in a random rotation of the 2-by-4 operators."""
    d = VL_DIMS[0] * VL_DIMS[1]
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    pts = rng.uniform(-1.0, 1.0, size=d) + rng.uniform(-1.0, 1.0, size=(k, rank)) @ basis[:rank]
    return prune(OperatorPolytope(pts.reshape(-1, *VL_DIMS)))


class TestUnionOfOneVertexList:
    """convex_union([P]) is P itself when P is a vertex list; every other
    union is still pruned."""

    @pytest.mark.parametrize("kind", ["marked", "single generator", "shared zero"])
    def test_returns_the_part_itself_without_a_prune(self, kind):
        if kind == "marked":
            P = prune(OperatorPolytope.from_generators([[[0.0, 1.0]], [[1.0, 0.0]], [[2.0, 2.0]]]))
            assert P._vertex_list
        elif kind == "single generator":
            P = OperatorPolytope.singleton([[0.5, -1.0]])
        else:
            P = OperatorPolytope.zero(1, 2)
        with mock.patch.object(geometry, "_prune_gens", wraps=geometry._prune_gens) as pruned:
            assert convex_union([P]) is P
        assert not pruned.called

    @pytest.mark.parametrize("gens, vertices", [
        ([[[0.0, 0.0]], [[1.0, 1.0]], [[2.0, 2.0]]], [0, 2]),  # an interior point
        ([[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 1.0]]], [0, 1, 3]),  # a duplicate
    ])
    def test_unmarked_part_is_still_pruned(self, gens, vertices):
        P = OperatorPolytope.from_generators(gens)
        U = convex_union([P])
        assert U is not P and U._vertex_list
        np.testing.assert_array_equal(U.gens, P.gens[vertices])

    def test_two_parts_are_still_pruned(self):
        P = prune(OperatorPolytope.from_generators([[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]]))
        inner = OperatorPolytope.singleton([[0.25, 0.25]])
        with mock.patch.object(geometry, "_prune_gens", wraps=geometry._prune_gens) as pruned:
            for parts in ([P, P], [P, inner], [inner, P]):
                np.testing.assert_array_equal(np.sort(convex_union(parts).gens, axis=0),
                                              np.sort(P.gens, axis=0))
        assert pruned.call_count == 3

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_support_equals_that_of_a_second_prune(self, rank):
        rng = np.random.default_rng(500 + rank)
        for _ in range(5):
            P = _marked_polytope(rng, rank, int(rng.integers(rank + 2, 3 * rank + 8)))
            assert geometry._is_vertex_list(P)
            again = OperatorPolytope(geometry._prune_gens(P.gens))
            U = convex_union([P])
            for h in unit_directions(rng, VL_DIMS[1], 20):
                np.testing.assert_allclose(support(U, h), support(again, h),
                                           rtol=0.0, atol=1e-12)


class TestContainsPoint:
    def test_midpoint(self):
        assert contains_point(interval(-1.0, 1.0), [[0.0]])

    def test_outside(self):
        assert not contains_point(interval(-1.0, 1.0), [[1.5]])

    def test_triangle_interior(self):
        P = OperatorPolytope.from_generators([[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 0.0]]])
        assert contains_point(P, [[0.25, 0.25]])

    def test_boundary_within_tolerance(self):
        assert contains_point(interval(0.0, 1.0), [[1.0 + 1e-12]])
        assert not contains_point(interval(0.0, 1.0), [[1.0 + 1e-6]])


def hull_within(P, Q):
    """conv(P) inside conv(Q): generators suffice, each tested by contains_point."""
    return all(contains_point(Q, g) for g in P.gens)


class TestSubset:
    """Hull inclusion generator by generator, as every check includes rows."""

    def test_singleton_in_interval(self):
        assert hull_within(OperatorPolytope.singleton([[0.0]]), interval(-1.0, 1.0))

    def test_interval_not_in_singleton(self):
        zero = OperatorPolytope.singleton([[0.0]])
        assert [contains_point(zero, g) for g in interval(-1.0, 1.0).gens] == [False, False]

    def test_interval_nesting(self):
        assert hull_within(interval(0.2, 0.8), interval(0.0, 1.0))
        assert not hull_within(interval(0.0, 1.0), interval(0.2, 0.8))

    def test_mutual_subset_matches_support_agreement(self):
        rng = np.random.default_rng(303)
        for _ in range(20):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            P = rand_polytope(rng, m, n)
            # Q has the same hull: generator points plus convex mixtures.
            w = rng.dirichlet(np.ones(P.num_generators), size=2)
            extra = np.einsum("ik,kmn->imn", w, P.gens)
            Q = OperatorPolytope(np.concatenate([P.gens[::-1], extra]))
            assert hull_within(P, Q) and hull_within(Q, P)
            for h in unit_directions(rng, n, 20):
                np.testing.assert_allclose(support(P, h), support(Q, h), atol=1e-9)

    def test_support_gap_implies_not_mutual(self):
        rng = np.random.default_rng(304)
        for _ in range(20):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            P, Q = rand_polytope(rng, m, n), rand_polytope(rng, m, n)
            gap = False
            for h in unit_directions(rng, n, 50):
                if np.max(np.abs(support(P, h) - support(Q, h))) > 1e-6:
                    gap = True
                    break
            if gap:
                assert not (hull_within(P, Q) and hull_within(Q, P))


class TestPrune:
    def test_keeps_support_values(self):
        rng = np.random.default_rng(404)
        for _ in range(10):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            gens = rng.uniform(-1, 1, size=(8, m, n))
            # Stack in convex mixtures so there is real redundancy to remove.
            w = rng.dirichlet(np.ones(8), size=4)
            P = OperatorPolytope(np.concatenate([gens, np.einsum("ik,kmn->imn", w, gens)]))
            Pp = prune(P)
            assert Pp.num_generators <= P.num_generators
            for h in unit_directions(rng, n, 100):
                np.testing.assert_allclose(support(P, h), support(Pp, h), atol=1e-9)

    def test_removes_duplicates(self):
        P = OperatorPolytope.from_generators([[[1.0]], [[1.0]], [[0.0]]])
        assert prune(P).num_generators == 2

    def test_lp_fallback_far_from_the_origin(self):
        # Three short 2x2 segments at offsets 1e5..1e7 sum to a flat box of
        # 8 vertices.  qhull rejects 40 of these 200 sums, and on 3 of them
        # the LP fallback, posed on the raw coordinates, failed in HiGHS
        # (Solve error, or an unknown status).
        rng = np.random.default_rng(0)
        lp_path = 0
        for _ in range(200):
            segs = []
            for _ in range(3):
                off = rng.uniform(1e5, 1e7) * rng.choice([-1, 1], size=(2, 2))
                d = rng.uniform(1e-4, 1e-2, size=(2, 2)) * rng.choice([-1, 1], size=(2, 2))
                segs.append(np.stack([off, off + d]))
            sums = (segs[0][:, None, None] + segs[1][None, :, None]
                    + segs[2][None, None, :]).reshape(-1, 2, 2)
            lp_path += geometry._hull_vertex_indices(sums.reshape(8, 4)) is None
            np.testing.assert_array_equal(geometry._prune_gens(sums), sums)
        assert lp_path == 40


class TestNearestPoint:
    def test_inside_gives_zero(self):
        p, d = nearest_point(interval(-1.0, 1.0), [[0.0]])
        np.testing.assert_allclose(p, [[0.0]], atol=1e-9)
        assert d <= 1e-9

    def test_projection_onto_interval(self):
        p, d = nearest_point(interval(1.0, 2.0), [[0.0]])
        np.testing.assert_allclose(p, [[1.0]], atol=1e-9)
        np.testing.assert_allclose(d, 1.0, atol=1e-9)

    def test_projection_onto_segment(self):
        P = OperatorPolytope.from_generators([[[1.0, 0.0]], [[0.0, 1.0]]])
        p, d = nearest_point(P, [[0.0, 0.0]])
        np.testing.assert_allclose(p, [[0.5, 0.5]], atol=1e-9)
        np.testing.assert_allclose(d, np.sqrt(0.5), atol=1e-9)

    def test_far_from_unit_scale_the_retry_projects_exactly(self):
        # The first pass returns about 1.1e-9 (from weights 0.5049 each),
        # which fails the audit; the retry at unit scale is exact.
        p, d = nearest_point(interval(-1e7, 1e7), [[0.0]])
        assert p.tolist() == [[0.0]] and d == 0.0

    def test_zero_distance_iff_contained(self):
        rng = np.random.default_rng(505)
        for _ in range(30):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            P = rand_polytope(rng, m, n)
            T = rng.uniform(-1.5, 1.5, size=(m, n))
            _, d = nearest_point(P, T)
            assert (d <= 1e-9) == contains_point(P, T)


def cone_sum_deviation(T, P, K):
    """(deviation, weights, cone coefficients) of T from conv(P) + cone(K)."""
    dev, lam, mu, _ = geometry._lp_min_deviation(
        np.ravel(T), convex_cols=P.flat.T, cone_cols=K.flat.T)
    return dev, lam, mu


class TestConeSum:
    """The convex-plus-cone deviation program of the row inclusions, and
    its certificate."""

    def test_cone_cancels_point(self):
        dev, _, mu = cone_sum_deviation(
            [[0.0]], OperatorPolytope.singleton([[1.0]]), PolyCone.from_generators([[[-1.0]]]))
        assert dev <= DEFAULT_TOL.eps_geom
        np.testing.assert_allclose(mu, [1.0], atol=1e-8)

    def test_trivial_cone_cannot_help(self):
        dev, _, mu = cone_sum_deviation(
            [[0.0]], OperatorPolytope.singleton([[1.0]]), PolyCone.trivial(1, 1))
        assert dev == 1.0 and mu.size == 0

    def test_zero_in_interval(self):
        dev, _, _ = cone_sum_deviation([[0.0]], interval(-1.0, 1.0), PolyCone.trivial(1, 1))
        assert dev <= DEFAULT_TOL.eps_geom

    def test_empty_cones_match_membership(self):
        # the projection is an independent oracle: no LP
        rng = np.random.default_rng(606)
        for _ in range(30):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            P = rand_polytope(rng, m, n)
            T = rng.uniform(-1.0, 1.0, size=(m, n))
            dev, _, _ = cone_sum_deviation(T, P, PolyCone.trivial(m, n))
            assert (dev <= DEFAULT_TOL.eps_geom) == (nearest_point(P, T)[1] <= 1e-9)

    def test_certificate_reconstructs_target(self):
        rng = np.random.default_rng(607)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            P = rand_polytope(rng, 1, n)
            K = PolyCone(rng.uniform(-1, 1, size=(2, 1, n)))
            lam = rng.dirichlet(np.ones(P.num_generators))
            mu = rng.random(2)
            T = np.einsum("k,kmn->mn", lam, P.gens) + np.einsum("k,kmn->mn", mu, K.gens)
            dev, weights, coeffs = cone_sum_deviation(T, P, K)
            assert dev <= DEFAULT_TOL.eps_geom
            rebuilt = np.einsum("k,kmn->mn", weights, P.gens) + np.einsum(
                "k,kmn->mn", coeffs, K.gens)
            np.testing.assert_allclose(rebuilt, T, atol=1e-7)


class TestPolarCone:
    def test_halfline(self):
        pol = polar_cone(PolyCone.from_generators([[[1.0]]]), 1)
        assert pol.num_generators == 1
        np.testing.assert_allclose(pol.gens[0], [[-1.0]])

    def test_full_space_gives_trivial(self):
        K = PolyCone.from_generators([[[1.0, 0.0]], [[-1.0, 0.0]], [[0.0, 1.0]], [[0.0, -1.0]]])
        assert polar_cone(K, 1).num_generators == 0

    def test_orthant(self):
        K = PolyCone.from_generators([[[1.0, 0.0]], [[0.0, 1.0]]])
        rows = sorted(map(tuple, polar_cone(K, 1).gens.reshape(-1, 2).tolist()))
        assert rows == [(-1.0, 0.0), (0.0, -1.0)]

    def test_trivial_cone_polar_spans_everything(self):
        pol = polar_cone(PolyCone.trivial(1, 2), 1)
        # Polar of {0} is all of R^2: must contain +-e_i conically.
        for v in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
            assert cone_residual(pol.flat, v) <= 1e-9

    def test_polar_inequality_on_samples(self):
        rng = np.random.default_rng(808)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            K = PolyCone(rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), 1, n)))
            pol = polar_cone(K, 1)
            for T in pol.gens:
                vals = K.gens.reshape(-1, n) @ T.ravel()
                assert np.all(vals <= 1e-9)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            polar_cone(PolyCone(np.ones((1, 1, 9))), 1)

    def test_lifts_rows_to_requested_output_dim(self):
        pol = polar_cone(PolyCone.from_generators([[[1.0]]]), 3)
        assert pol.dims == (3, 1)
        # Each generator has exactly one nonzero row.
        for G in pol.gens:
            assert np.sum(np.any(G != 0.0, axis=1)) == 1


class TestSeparation:
    def test_separates_outside_point(self):
        rng = np.random.default_rng(909)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            P = rand_polytope(rng, 1, n)
            T = rng.uniform(-1.0, 1.0, size=(1, n)) + 2.5  # push far outside
            if contains_point(P, T):
                continue
            h, margin = separating_direction(T.ravel(), P.gens.reshape(-1, n))
            assert margin > 0
            hull_vals = P.gens.reshape(-1, n) @ h
            assert float(T.ravel() @ h) >= hull_vals.max() + margin - 1e-9


class TestPolarInDeviationProgram:
    """The free polar vector against the enumerated polar as the oracle."""

    def test_accepts_exactly_what_the_enumerated_polar_accepts(self):
        rng = np.random.default_rng(1212)
        outcomes = set()
        for n in range(1, 6):
            for _ in range(12):
                P = rand_polytope(rng, 1, n)
                K = PolyCone(rng.uniform(-1, 1, size=(int(rng.integers(1, n + 2)), 1, n)))
                T = rng.uniform(-2.0, 2.0, size=(1, n))
                D = K.gens.reshape(-1, n)
                dev, _, _, p = geometry._lp_min_deviation(
                    T.ravel(), convex_cols=P.flat.T, polar_of=D)
                ok = cone_sum_deviation(T, P, polar_cone(K, 1))[0] <= DEFAULT_TOL.eps_geom
                assert (dev <= DEFAULT_TOL.eps_geom) == ok
                assert np.all(D @ p <= 1e-7)
                outcomes.add(ok)
        assert outcomes == {True, False}

    def test_separation_stays_in_direction_cone(self):
        rng = np.random.default_rng(1213)
        separated = 0
        for n in range(1, 6):
            for _ in range(12):
                P = rand_polytope(rng, 1, n)
                K = PolyCone(rng.uniform(-1, 1, size=(int(rng.integers(1, n + 2)), 1, n)))
                T = rng.uniform(-2.0, 2.0, size=(1, n))
                D = K.gens.reshape(-1, n)
                dev = geometry._lp_min_deviation(T.ravel(), convex_cols=P.flat.T, polar_of=D)[0]
                if dev <= DEFAULT_TOL.eps_geom:
                    continue
                separated += 1
                h, margin = separating_direction(T.ravel(), P.flat, directions=D)
                assert margin > 0
                assert cone_residual(K.flat, h) <= 1e-9
                assert float(T.ravel() @ h) >= float((P.flat @ h).max()) + margin - 1e-9
        assert separated >= 5


def recorded_programs():
    """Every LP the package builds on seeded draws of each program shape.

    Returns the argument tuples passed to `_highs_solve`: deviation programs
    with a convex block, convex plus cone, a cone alone and a free polar
    vector; separation programs with box bounds and with equality rows;
    the prune's programs above qhull's rank; and three that fail.
    """
    rng = np.random.default_rng(2718)
    with mock.patch.object(geometry, "_highs_solve", wraps=geometry._highs_solve) as spy:
        for n in range(1, 6):
            for _ in range(4):
                P = rand_polytope(rng, 1, n)
                T = rng.uniform(-2.0, 2.0, size=n)
                K = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, n + 2)), n))
                geometry._lp_min_deviation(T, convex_cols=P.flat.T)
                geometry._lp_min_deviation(T, convex_cols=P.flat.T, cone_cols=K.T)
                geometry._lp_min_deviation(T, cone_cols=K.T)
                geometry._lp_min_deviation(T, convex_cols=P.flat.T, polar_of=K)
                separating_direction(T, P.flat, cone_rays=K)
                separating_direction(T, P.flat, directions=K)
        # Affine rank 8 is above qhull's limit, so the prune solves one LP per
        # generator that support sampling cannot certify; mixtures are interior.
        cloud = rng.standard_normal((12, 1, 8))
        mixtures = np.einsum("ij,jkl->ikl", rng.dirichlet(np.ones(12), size=6), cloud)
        prune(OperatorPolytope(np.concatenate([cloud, mixtures])))
    programs = [call.args for call in spy.call_args_list]
    inf = np.full(1, np.inf)
    programs += [
        # entries past HiGHS's matrix limit: a model error
        (np.array([0.0, 1.0]), np.array([[1e16, -1.0], [-1e16, -1.0]]), np.array([1.0, -1.0]),
         np.zeros(2), np.full(2, np.inf)),
        # x >= 0 and x <= -1: infeasible
        (np.ones(1), np.ones((1, 1)), -np.ones(1), np.zeros(1), inf),
        # minimize -x over x >= 0: unbounded
        (-np.ones(1), -np.ones((1, 1)), np.ones(1), np.zeros(1), inf),
    ]
    return programs


def reference_solve(c, A_ub, b_ub, lb, ub, A_eq=None, b_eq=None):
    bounds = [(None if lo == -np.inf else lo, None if hi == np.inf else hi)
              for lo, hi in zip(lb, ub)]
    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                   method="highs")


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


direct_only = pytest.mark.skipif(geometry._highs is None,
                                 reason="scipy has no bundled HiGHS binding")


class TestHighsSolve:
    """The direct HiGHS call gives exactly what linprog gives, on both paths."""

    @pytest.fixture(params=[pytest.param("direct", marks=direct_only), "fallback"])
    def path(self, request, monkeypatch):
        if request.param == "fallback":
            monkeypatch.setattr(geometry, "_highs", None)
        return request.param

    def test_same_answer_as_linprog_on_every_program_shape(self, path):
        programs = recorded_programs()
        assert sum(len(p) > 5 and p[5] is not None for p in programs) >= 40  # equality rows
        assert sum(np.any(p[3] == -np.inf) for p in programs) >= 40  # free variables
        assert sum(p[1].shape[0] == 2 * 8 for p in programs) >= 1  # the prune's, in R^8
        outcomes = set()
        for args in programs:
            got, want = geometry._highs_solve(*args), reference_solve(*args)
            assert got.success == want.success
            assert got.message == want.message
            if want.success:
                assert bits(got.x) == bits(want.x)
                assert bits(got.fun) == bits(want.fun)
            outcomes.add(got.success)
        assert outcomes == {True, False}

    @direct_only
    def test_one_solver_gives_the_same_bits_in_any_order(self):
        programs = recorded_programs()
        with mock.patch.object(geometry._highs, "_Highs", side_effect=AssertionError):
            first = [geometry._highs_solve(*args) for args in programs]
            order = np.random.default_rng(15).permutation(len(programs))
            for i in order:
                got, want = geometry._highs_solve(*programs[i]), first[i]
                assert (got.success, got.message) == (want.success, want.message)
                if want.success:
                    assert bits(got.x) == bits(want.x) and bits(got.fun) == bits(want.fun)

    def test_abs_chain_model_error_line_is_unchanged(self, path, tmp_path, capsys):
        objective = {"op": "affine", "a": [[1.0]], "b": [0.0]}
        for _ in range(100):
            objective = {"op": "abs", "arg": objective}
        f = tmp_path / "abs_chain.json"
        f.write_text(json.dumps({"n": 1, "m": 1, "objective": objective, "point": [0.5]}))
        assert cli.main(["minimize", str(f)]) == 6
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: internal: deviation program failed unexpectedly: "
                           "(HiGHS Status 2: Model error)\n")


class TestScipyLoading:
    """Only the HiGHS extension loads with the module; scipy stays the oracle."""

    def test_direct_load_is_the_module_scipy_optimize_uses(self):
        script = (
            "import sys; from qdcalc import geometry; "
            "assert 'scipy.optimize' not in sys.modules; "
            "import scipy.optimize, scipy.spatial; "
            "from scipy.optimize._highspy import _core; "
            "from scipy.optimize._linprog_highs import HighsModelStatus; "
            "assert _core is geometry._highs is sys.modules['scipy.optimize._highspy._core']; "
            "assert HighsModelStatus is geometry._highs.HighsModelStatus; "
            "assert scipy.optimize.linprog([1.0], bounds=[(2.0, 3.0)]).x.tolist() == [2.0]; "
            "assert geometry.linprog is scipy.optimize.linprog; "
            "assert geometry.ConvexHull is scipy.spatial.ConvexHull; "
            "assert geometry.QhullError is scipy.spatial.QhullError; "
            "assert not hasattr(geometry, 'no_such_name'); "
            "print('ok')")
        done = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.stdout == "ok\n", done.stderr

    def test_patched_names_catch_every_call(self, monkeypatch):
        calls = []
        for name in ("ConvexHull", "linprog"):
            def counted(*args, _name=name, _f=getattr(geometry, name), **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(geometry, name, counted)
        monkeypatch.setattr(geometry, "_highs", None)
        square = OperatorPolytope.from_generators(
            [[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]], [[0.5, 0.5]]])
        assert prune(square).num_generators == 4
        assert geometry._highs_solve(np.ones(1), -np.ones((1, 1)), -np.ones(1), np.zeros(1),
                                     np.full(1, np.inf)).success
        assert calls == ["ConvexHull", "linprog"]

    @direct_only
    def test_status_table_matches_linprog(self):
        from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

        members = geometry._highs.HighsModelStatus.__members__
        assert set(geometry._LINPROG_STATUS) <= set(members)
        for status in members.values():
            for message in ("", "Optimal"):
                assert geometry._linprog_status(status, message) == (
                    _highs_to_scipy_status_message(status, message))

    @pytest.fixture
    def without_direct_load(self, monkeypatch):
        """Let the loader look for the extension file, and hand the normal
        import a stand-in it can be told apart by."""
        import scipy.optimize._highspy

        monkeypatch.delitem(sys.modules, geometry._HIGHS_MODULE, raising=False)
        stand_in = object()
        monkeypatch.setattr(scipy.optimize._highspy, "_core", stand_in, raising=False)
        return stand_in

    def test_no_extension_file_takes_the_normal_import(self, monkeypatch, without_direct_load):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        assert geometry._load_highs() is without_direct_load

    @pytest.mark.parametrize("error", [ImportError, OSError])
    def test_failed_file_load_takes_the_normal_import(self, monkeypatch, without_direct_load,
                                                       error):
        attempts = []

        def fail(spec):
            attempts.append(spec.origin)
            raise error("cannot load")

        monkeypatch.setattr(importlib.util, "module_from_spec", fail)
        assert geometry._load_highs() is without_direct_load
        assert len(attempts) == 1 and "_core" in attempts[0]

    def test_no_binding_at_all_gives_none(self, monkeypatch, without_direct_load):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
        assert geometry._load_highs() is None

    def test_without_binding_solves_through_lazy_linprog(self, monkeypatch):
        monkeypatch.setattr(geometry, "_highs", None)
        monkeypatch.delattr(geometry, "linprog", raising=False)
        assert "linprog" not in vars(geometry)
        c, A_ub, b_ub = np.array([1.0, 1.0]), np.array([[-1.0, -2.0]]), np.array([-2.0])
        lb, ub = np.zeros(2), np.full(2, np.inf)
        got = geometry._highs_solve(c, A_ub, b_ub, lb, ub)
        want = reference_solve(c, A_ub, b_ub, lb, ub)
        assert "linprog" in vars(geometry)
        assert got.success and got.message == want.message
        assert bits(got.x) == bits(want.x) and bits(got.fun) == bits(want.fun)


class TestCoordinateRows:
    def test_extracts_unique_rows(self):
        P = OperatorPolytope.from_generators(
            [[[1.0, 0.0], [5.0, 5.0]], [[1.0, 0.0], [6.0, 6.0]]])
        R = coordinate_rows(P, 0)
        assert R.dims == (1, 2)
        assert R.num_generators == 1

    def test_row_support_matches_full(self):
        rng = np.random.default_rng(111)
        for _ in range(20):
            m, n = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            P = rand_polytope(rng, m, n)
            h = rng.standard_normal(n)
            full = support(P, h)
            for j in range(m):
                rowv = support(coordinate_rows(P, j), h)
                np.testing.assert_allclose(rowv[0], full[j], atol=1e-12)


class TestGeneratorStacks:
    """OperatorPolytope and PolyCone share one frozen generator-stack base."""

    def test_polytopes_and_cones_stay_apart(self):
        P = OperatorPolytope.singleton([[1.0]])
        K = PolyCone.from_generators([[[1.0]]])
        assert not isinstance(K, OperatorPolytope)
        assert not isinstance(P, PolyCone)

    def test_empty_cones(self):
        K = PolyCone.trivial(2, 3)
        assert K.num_generators == 0 and K.dims == (2, 3)
        assert K.flat.shape == (0, 6)
        with pytest.raises(DimensionMismatchError):
            PolyCone.from_generators([])

    def test_repr_names_the_class(self):
        assert repr(OperatorPolytope(np.ones((3, 2, 1)))) == "OperatorPolytope(k=3, dims=(2, 1))"
        assert repr(PolyCone.trivial(1, 4)) == "PolyCone(k=0, dims=(1, 4))"

    @pytest.mark.parametrize("cls", [OperatorPolytope, PolyCone])
    def test_non_finite_entries_rejected(self, cls):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError):
                cls(np.array([[[0.0, bad]]]))
            with pytest.raises(NonFiniteError):
                cls.from_generators([[[0.0]], [[bad]]])

    @pytest.mark.parametrize("cls", [OperatorPolytope, PolyCone])
    def test_frozen_with_a_read_only_stack(self, cls):
        S = cls.from_generators([[[1.0, 2.0]], [[3.0, 4.0]]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            S.gens = np.zeros((1, 1, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            S.extra = 1
        assert not S.gens.flags.writeable
        with pytest.raises(DimensionMismatchError):
            cls.from_generators([[[1.0]], [[1.0, 2.0]]])


class TestToleranceAndValidation:
    def test_prune_tolerance_range(self):
        with pytest.raises(ValueError):
            Tolerance(eps_geom=0.0)

    def test_polytope_needs_generators(self):
        with pytest.raises(DimensionMismatchError):
            OperatorPolytope(np.zeros((0, 1, 1)))
        with pytest.raises(DimensionMismatchError):
            OperatorPolytope.from_generators([])

    def test_mismatched_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            minkowski_sum(interval(-1, 1), OperatorPolytope.singleton([[0.0, 0.0]]))
