"""qd_at against the plain rule lowering: the linear-pair shortcuts keep every bit.

`_reference_qd` is `expr._qd` as it was before the shortcuts: every node
goes through its `qdcore` rule, leaves through `qd_linear`.  `qd_at` must
give the same shape, bytes and vertex-list mark in both halves, and the
same error, at random points and at points placed on the kinks.  The
scale rule is the one rule with a row-wise path (`qdcore._scale`), so the
reference scales by `_plain_scale`, the rule's four diagonal scalings and
two Minkowski sums; `qd_scale` and `expr._row_scale` are also compared
with it directly, on halves that no tree derives.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_expr
from qdcalc import (
    Abs,
    Add,
    Affine,
    Compose,
    Const,
    Max,
    Min,
    Mul,
    Neg,
    NonFiniteError,
    OperatorPolytope,
    Orthomorphism,
    QuasiDiff,
    Scale,
    Smooth,
    Var,
    qd_at,
)
from qdcalc import expr, qdcore
from qdcalc.expr import SMOOTH_PRIMITIVES, _as_pair, _is_linear, _row_scale
from qdcalc.geometry import _vertex_polytope, minkowski_sum
from qdcalc.qdcore import (
    DEFAULT_EPS_ACTIVE,
    diag_scale,
    qd_add,
    qd_compose,
    qd_inf,
    qd_linear,
    qd_product,
    qd_scale,
    qd_sup,
)


def _plain_scale(alpha, q: QuasiDiff) -> QuasiDiff:
    """qd_scale by its sums alone: [a+ subd + a- supd, a- subd + a+ supd]."""
    m, _ = q.dims
    d = alpha.diag if isinstance(alpha, Orthomorphism) else np.broadcast_to(
        np.asarray(alpha, dtype=float), (m,))
    pos, neg = np.maximum(d, 0.0), np.maximum(-d, 0.0)
    sub = minkowski_sum(diag_scale(pos, q.subd), diag_scale(neg, q.supd))
    sup = minkowski_sum(diag_scale(neg, q.subd), diag_scale(pos, q.supd))
    return QuasiDiff(sub, sup)


def _reference_qd(e, x, eps=DEFAULT_EPS_ACTIVE) -> QuasiDiff:
    if isinstance(e, Var):
        return qd_linear(np.eye(e.n))
    if isinstance(e, Const):
        return qd_linear(np.zeros((e.out_dim, e.n)))
    if isinstance(e, Affine):
        return qd_linear(e.a)
    if isinstance(e, Smooth):
        return qd_linear(np.diag(SMOOTH_PRIMITIVES[e.name][1](x)))
    if isinstance(e, Abs):
        qu = _reference_qd(e.arg, x, eps)
        vu = e.arg.evaluate(x)
        if (
            qu.subd.num_generators == 1
            and qu.supd.num_generators == 1
            and not qu.supd.gens.any()
        ):
            qneg = qd_linear(-qu.subd.gens[0])
        else:
            qneg = _plain_scale(-1.0, qu)
        return qd_sup([qu, qneg], np.stack([vu, -vu]), eps)
    if isinstance(e, Neg):
        return _plain_scale(-1.0, _reference_qd(e.arg, x, eps))
    if isinstance(e, Add):
        return qd_add([_reference_qd(a, x, eps) for a in e.args])
    if isinstance(e, Scale):
        return _plain_scale(e.diag, _reference_qd(e.arg, x, eps))
    if isinstance(e, Mul):
        qg = _reference_qd(e.scalar, x, eps)
        qf = _reference_qd(e.arg, x, eps)
        return qd_product(qg, e.scalar.evaluate(x), qf, e.arg.evaluate(x))
    if isinstance(e, (Max, Min)):
        rule = qd_sup if isinstance(e, Max) else qd_inf
        qds = [_reference_qd(a, x, eps) for a in e.args]
        return rule(qds, np.stack([a.evaluate(x) for a in e.args]), eps)
    if isinstance(e, Compose):
        qg = _reference_qd(e.outer, e.inner.evaluate(x), eps)
        qf = _reference_qd(e.inner, x, eps)
        return qd_compose(qg, qf)
    raise TypeError(type(e).__name__)


def _fingerprint(P: OperatorPolytope) -> tuple:
    return P.gens.shape, P.gens.tobytes(), P._vertex_list


def _outcome(derive, e, x):
    try:
        q = derive(e, x)
    except ValueError as exc:  # DimensionMismatchError, NonFiniteError
        return type(exc).__name__, str(exc)
    return _fingerprint(q.subd), _fingerprint(q.supd)


def assert_same_pair(e, x):
    x = np.asarray(x, dtype=float)
    assert _outcome(qd_at, e, x) == _outcome(_reference_qd, e, x)


def _on_kinks(e, x):
    """e with every affine offset b = -A x at the point its leaf is evaluated
    and every constant zero, so that kink arguments tie exactly at x."""
    if isinstance(e, Affine):
        return Affine(e.a, -(x @ e.a.T))
    if isinstance(e, Const):
        return Const(np.zeros(e.out_dim), e.n)
    if isinstance(e, Compose):
        inner = _on_kinks(e.inner, x)
        return Compose(_on_kinks(e.outer, inner.evaluate(x)), inner)
    if isinstance(e, (Add, Max, Min)):
        return type(e)([_on_kinks(a, x) for a in e.args])
    if isinstance(e, Scale):
        return Scale(e.diag, _on_kinks(e.arg, x))
    if isinstance(e, Mul):
        return Mul(_on_kinks(e.scalar, x), _on_kinks(e.arg, x))
    if isinstance(e, (Abs, Neg)):
        return type(e)(_on_kinks(e.arg, x))
    return e  # Var, Smooth


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n, m = (int(v) for v in rng.integers(1, 4, size=2))
    depth = int(rng.integers(1, 5 if m < 3 else 3))
    return rand_expr(rng, n, m, depth), rng.uniform(-1.0, 1.0, size=n)


# Derandomized: about one kinked tree in 500 of this distribution takes
# 3 to 30 s to derive (thousands of tied selections to prune), so the
# examples are fixed, like the seeds of tests/test_qd_digests.py.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_trees_at_random_points(seed):
    e, x = _random_case(seed)
    assert_same_pair(e, x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_trees_on_their_kinks(seed):
    e, x = _random_case(seed)
    assert_same_pair(_on_kinks(e, x), x)


def _aff(a, b):
    return Affine(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


X2 = np.array([0.5, -0.25])


@pytest.mark.parametrize("diag", [[2.0, 0.5], [2.0, 0.0], [-1.0, 3.0], [0.0, 0.0], [-2.0, -0.5]])
def test_scale_with_zero_and_negative_entries(diag):
    u = _aff([[1.0, -2.0], [0.0, 3.0]], [0.1, -0.2])
    for arg in (u, Abs(u), Add([u, u])):
        assert_same_pair(Scale(diag, arg), X2)
        assert_same_pair(Abs(Scale(diag, arg)), np.zeros(2))


def test_negative_zero_entries():
    nz = _aff([[-0.0, 1.0], [2.0, -0.0]], [-0.0, 0.0])
    zero = _aff([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
    for e in (Abs(nz), Add([nz, zero]), Add([zero, nz]), Add([nz]), Scale([1.0, 2.0], nz),
              Max([nz, zero]), Max([zero, nz]), Abs(Add([nz, nz])), Neg(nz), Min([nz, zero])):
        for x in (np.zeros(2), X2, np.array([-0.0, 1.0])):
            assert_same_pair(e, x)


@pytest.mark.parametrize("gap", [0.0, 2e-10, 9e-10, 1.1e-9, 1e-3])
def test_ties_within_eps_active(gap):
    u = _aff([[1.0, 0.5], [-1.0, 2.0], [0.5, 0.5]], [gap, -gap, 0.5 * gap])
    v = _aff([[0.0, 1.0], [1.0, 1.0], [-0.5, 0.25]], [0.0, 0.0, 0.0])
    x = np.zeros(2)
    for e in (Abs(u), Max([u, v]), Max([v, u, Neg(Neg(v))]), Add([Abs(u), Abs(v)]),
              Scale([1.0, 2.0, 3.0], Abs(u)), Abs(Max([u, v])), Max([Abs(u), v])):
        assert_same_pair(e, x)


def test_max_with_a_different_operand_per_coordinate():
    a = _aff([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    b = _aff([[0.0, 2.0], [3.0, 0.0]], [0.0, 1.0])
    c = _aff([[-1.0, -1.0], [1.0, -1.0]], [0.5, 0.5])
    x = np.zeros(2)
    for e in (Max([a, b]), Max([b, a]), Max([a, b, c]), Abs(Max([a, b])),
              Scale([2.0, 3.0], Max([c, b, a]))):
        assert_same_pair(e, x)
        assert_same_pair(e, X2)


def test_overflow_raises_as_the_rules_do():
    big = _aff([[1e308, 1.0]], [0.0])
    with np.errstate(over="ignore"):
        for e in (Scale([10.0], big), Add([big, big]), Add([big, Neg(Neg(big))]),
                  Abs(Scale([10.0], big)), Add([big, big, Neg(big)])):
            assert _outcome(qd_at, e, X2)[0] == NonFiniteError.__name__
            assert_same_pair(e, X2)


def test_a_zero_given_negative_zero_entries_is_stored_as_plus_zero():
    T = OperatorPolytope(np.ones((1, 1, 2)))
    Z = OperatorPolytope(np.full((1, 1, 2), -0.0))
    assert Z.gens.tobytes() == bytes(Z.gens.nbytes)
    assert _is_linear(QuasiDiff(T, OperatorPolytope(np.zeros((1, 1, 2)))))
    assert _is_linear(QuasiDiff(T, Z))
    assert not _is_linear(QuasiDiff(OperatorPolytope(np.ones((2, 1, 2))),
                                    OperatorPolytope(np.zeros((1, 1, 2)))))
    # cos'(0) = -sin 0 = -0.0 on the diagonal: the pair is the +0.0 zero
    for n in (1, 3):
        q, want = qd_at(Smooth("cos", n), np.zeros(n)), qd_linear(np.zeros((n, n)))
        for a, b in ((q.subd, want.subd), (q.supd, want.supd)):
            assert a.gens.shape == b.gens.shape
            assert a.gens.tobytes() == b.gens.tobytes()


# ---------------------------------------------------------------------------
# bare operators and row-wise Scale and Neg

DIAGS = [[2.0, 0.5], [-2.0, -0.5], [-1.0, 3.0], [2.0, 0.0], [0.0, -3.0], [0.0, 0.0]]


@pytest.mark.parametrize("e", [Var(2), Const(np.array([1.0, -0.0, 2.0]), 2),
                               _aff([[-0.0, 1.0], [2.0, -0.0]], [1.0, 0.0]),
                               Smooth("sin", 2), Smooth("exp", 2)])
def test_bare_roots(e):
    for x in (np.zeros(2), X2, np.array([-0.0, 1.0])):
        assert_same_pair(e, x)


def test_a_non_finite_derivative_raises_as_qd_linear_does():
    e = Smooth("exp", 1)
    with np.errstate(over="ignore"):
        assert _outcome(qd_at, e, [710.0]) == (
            NonFiniteError.__name__, "operator entries must be finite")
        assert_same_pair(e, [710.0])


@pytest.mark.parametrize("diag", DIAGS)
def test_scale_and_neg_over_every_kind_of_operand(diag):
    nz = _aff([[-0.0, 1.0], [2.0, -0.0]], [-0.0, 0.0])
    u = _aff([[1.0, -2.0], [0.0, 3.0]], [0.1, -0.2])
    v = _aff([[0.5, 1.0], [-1.0, 0.25]], [0.0, 0.0])
    operands = (nz, Neg(nz), Abs(nz), Neg(Abs(nz)), Abs(u), Neg(Abs(u)), Max([u, v, nz]),
                Min([u, v]), Add([Abs(u), Neg(Abs(v))]), Scale([2.0, 0.0], Abs(nz)),
                Mul(Abs(u), v), Abs(Scale([-1.0, 2.0], Abs(u))))
    for arg in operands:
        for e in (Scale(diag, arg), Neg(arg), Scale(diag, Neg(arg)), Neg(Scale(diag, arg)),
                  Abs(Scale(diag, arg)), Add([Scale(diag, arg), Neg(arg)])):
            for x in (np.zeros(2), X2, np.array([-0.0, 1.0])):
                assert_same_pair(e, x)


def _halves():
    """Pair halves of dims (2, 2): vertex lists with and without -0.0
    entries, unmarked stacks with a redundant or repeated generator, a
    single point, and zero points of both signs."""
    gens = np.array([[[1.0, -0.0], [0.0, 1.0]], [[-1.0, 0.0], [-0.0, -1.0]],
                       [[1.0, 2.0], [-0.0, 0.0]]])
    return [
        _vertex_polytope(gens),
        _vertex_polytope(gens + 0.0),
        OperatorPolytope(np.concatenate([gens, gens[:2].mean(0)[None]])),
        OperatorPolytope(np.concatenate([gens, gens[:1]])),
        OperatorPolytope(gens[:1]),
        OperatorPolytope.zero(2, 2),
        OperatorPolytope(np.full((1, 2, 2), -0.0)),
    ]


@pytest.mark.parametrize("diag", DIAGS + [[1.0, 1.0], [-1.0, -1.0], [-0.5, -0.5]])
def test_row_scale_is_qd_scale_on_hand_built_halves(diag):
    d = np.asarray(diag)
    alphas = [diag, d, Orthomorphism(d)] + ([float(d[0])] if d[0] == d[1] else [])
    operands = [np.array([[-0.0, 1.0], [2.0, -3.0]])]
    operands += [QuasiDiff(sub, sup) for sub in _halves() for sup in _halves()]
    for q in operands:
        want = _outcome(lambda d, q: _plain_scale(d, _as_pair(q)), d, q)
        assert _outcome(lambda d, q: _as_pair(_row_scale(d, q)), d, q) == want
        for alpha in alphas:
            assert _outcome(lambda a, q: qd_scale(a, _as_pair(q)), alpha, q) == want


def test_neg_of_vertex_lists_swaps_the_halves_without_scaling():
    sub, sup = _halves()[0], _halves()[4]
    u = _aff([[1.0, -2.0], [0.0, 3.0]], [0.0, 0.0])
    with mock.patch.object(qdcore, "diag_scale", wraps=qdcore.diag_scale) as spy:
        got = _row_scale(np.full(2, -1.0), QuasiDiff(sub, sup))
        qd_at(Neg(Abs(u)), np.zeros(2))
    assert spy.call_count == 0
    assert got.subd is sup and got.supd is sub


def test_row_scale_overflow_raises_as_the_rule_does():
    big = _aff([[1e300, 1.0], [1.0, -1e300]], [0.0, 0.0])
    with np.errstate(over="ignore"):
        for diag in ([1e10, 1.0], [1.0, 1e10], [-1e10, -1.0], [-1.0, -1e10], [1e10, -1.0]):
            for arg in (big, Abs(big), Neg(Abs(big)), Max([big, Neg(big)])):
                e = Scale(diag, arg)
                assert _outcome(qd_at, e, np.zeros(2))[0] == NonFiniteError.__name__
                assert_same_pair(e, np.zeros(2))


# ---------------------------------------------------------------------------
# kink pairs: the tie of an abs of a linear map, formed as its two vertices


def _tied_abs_sum(rows, weights, tilt):
    """sum_i w_i |r_i . x| + c . x, tied at the origin: the corpus shape."""
    terms = [Scale([w], Abs(_aff([r], [0.0]))) for r, w in zip(rows, weights)]
    return Add(terms + [_aff([tilt], [0.0])])


def _unions_formed(e, x):
    """convex_union calls while deriving e at x, through expr's binding and qdcore's."""
    with mock.patch.object(expr, "convex_union", wraps=expr.convex_union) as in_expr, \
            mock.patch.object(qdcore, "convex_union", wraps=qdcore.convex_union) as in_rules:
        qd_at(e, x)
    return in_expr.call_count + in_rules.call_count


ROWS3 = [[1.0, -2.0, 0.5], [0.25, 1.0, -1.0], [-3.0, 0.5, 2.0], [1e-3, 0.0, 7.0]]


@pytest.mark.parametrize("weights", [[1.0, 2.0, 0.5, 3.0], [1.0, 1.0, 1.0, 1.0], [4.0, 0.3, 2.0, 1.0]])
def test_tied_weighted_abs_sums_and_their_negation(weights):
    x = np.zeros(3)
    tilt = [0.5, -0.25, 1.0]
    e = _tied_abs_sum(ROWS3, weights, tilt)
    for f in (e, Neg(e), _tied_abs_sum(ROWS3[:1], weights[:1], tilt), Neg(Abs(_aff([ROWS3[0]], [0.0])))):
        assert_same_pair(f, x)
    assert _unions_formed(e, x) == 0


@pytest.mark.parametrize("diag", [[-1.0], [-1.5], [0.0], [2.0]])
def test_scale_of_a_tied_abs(diag):
    u = _aff([[1.0, -2.0]], [0.0])
    for e in (Scale(diag, Abs(u)), Add([Scale(diag, Abs(u)), Abs(u)]),
              Neg(Scale(diag, Abs(u))), Scale(diag, Neg(Abs(u)))):
        assert_same_pair(e, np.zeros(2))
    assert _unions_formed(Scale(diag, Abs(u)), np.zeros(2)) == 0


@pytest.mark.parametrize("diag", [[1.0, -2.0], [-2.0, 0.5], [0.0, 3.0], [2.0, 0.5], [-1.0, -1.0]])
def test_mixed_diagonals_over_a_kink_pair(diag):
    # row 0 ties at the origin and row 1 does not: two selections
    u = _aff([[1.0, -2.0], [0.5, 1.0]], [0.0, 1.0])
    for e in (Scale(diag, Abs(u)), Neg(Scale(diag, Abs(u))), Add([Scale(diag, Abs(u)), u])):
        assert_same_pair(e, np.zeros(2))


def test_abs_of_a_tied_sum():
    e = _tied_abs_sum(ROWS3[:2], [1.0, 2.0], [0.0, 0.0, 0.0])
    for f in (Abs(e), Abs(Neg(e)), Abs(Abs(_aff([ROWS3[0]], [0.0]))),
              Abs(Scale([-2.0], Abs(_aff([ROWS3[1]], [0.0]))))):
        assert_same_pair(f, np.zeros(3))


def test_nested_sums_on_both_sides():
    a, b, c = (Abs(_aff([r], [0.0])) for r in ROWS3[:3])
    tilt = _aff([[0.5, -0.25, 1.0]], [0.0])
    for e in (Add([Add([a, b]), c]), Add([c, Add([a, b])]), Add([Add([a, tilt]), Add([b, c])]),
              Add([Neg(Add([a, b])), Scale([2.0], c)]), Add([tilt, Add([tilt, a])])):
        assert_same_pair(e, np.zeros(3))


def test_max_with_exactly_two_selections():
    # coordinate 0 ties between u and v, coordinate 1 has one maximizer;
    # above m = 1 the union is pruned, as qd_sup prunes it
    u = _aff([[1.0, 2.0], [0.5, -1.0]], [0.0, 1.0])
    v = _aff([[-1.0, 0.5], [2.0, 2.0]], [0.0, 0.0])
    for e in (Max([u, v]), Max([v, u]), Neg(Max([u, v])), Scale([2.0, -1.0], Max([u, v])),
              Add([Max([u, v]), Max([v, u])])):
        assert_same_pair(e, np.zeros(2))
    assert _unions_formed(Max([u, v]), np.zeros(2)) == 1


# A max of linear operands at m = 1, decided from its values: each case is
# its operands, the point, and the unions the derivation forms.
MAX_AT_M1 = {
    "one attains": ([_aff([[1.0, -2.0]], [1.0]), _aff([[0.5, 3.0]], [0.0])], [0.0, 0.0], 0),
    "two tied": ([_aff([[1.0, -2.0]], [0.0]), _aff([[0.5, 3.0]], [0.0])], [0.0, 0.0], 0),
    "two tied inside the pair band": (
        [_aff([[1.0, -2.0]], [0.0]), _aff([[1.0 + 5e-11, -2.0]], [0.0])], [0.0, 0.0], 1),
    "three tied": ([_aff([[1.0, -2.0]], [0.0]), _aff([[0.5, 3.0]], [0.0]),
                    _aff([[-1.0, 0.25]], [0.0])], [0.0, 0.0], 1),
    "an inf value": ([_aff([[1e308, 0.0]], [0.0]), _aff([[1.0, 1.0]], [0.0])], [10.0, 0.0], 0),
    "two inf values": ([_aff([[1e308, 0.0]], [0.0]), _aff([[1e308, 1.0]], [0.0])],
                       [10.0, 0.0], 0),
    "a NaN value": ([Add([_aff([[1e308, 0.0]], [1e308]), _aff([[-1e308, 0.0]], [-1e308])]),
                     _aff([[2.0, 0.0]], [0.0])], [1.0, 0.0], None),
}


@pytest.mark.parametrize("case", sorted(MAX_AT_M1))
def test_max_of_linear_operands_at_m_1(case):
    ops, x, unions = MAX_AT_M1[case]
    e = Max(ops)
    with np.errstate(over="ignore", invalid="ignore"):
        for f in (e, Max(ops[::-1]), Neg(e), Scale([-2.0], e), Scale([3.0], e),
                  Add([e, ops[0]]), Abs(e), Max([e, Neg(ops[-1])])):
            assert_same_pair(f, x)
        if unions is None:
            assert _outcome(qd_at, e, np.asarray(x))[0] == NonFiniteError.__name__
        else:
            assert _unions_formed(e, x) == unions


@pytest.mark.parametrize("row", [[0.0, 0.0], [-0.0, 0.0], [5e-11, -3e-11], [-5e-11, 5e-11]])
def test_rows_inside_the_distinct_pair_band_take_the_prune(row):
    u = _aff([row], [0.0])
    for e in (Abs(u), Add([Abs(u), Abs(u)]), Scale([-2.0], Abs(u))):
        assert_same_pair(e, np.zeros(2))
    assert _unions_formed(Abs(u), np.zeros(2)) == 1


@pytest.mark.parametrize("gap", [0.0, 2e-10, 4.9e-10, 5e-10, 5.1e-10, 1e-9, 1e-3])
def test_tied_abs_within_eps_active(gap):
    for b in (gap, -gap):
        u = _aff([[1.0, -0.5]], [b])
        for e in (Abs(u), _tied_abs_sum([[1.0, -0.5]], [2.0], [0.1, 0.2]), Neg(Abs(u)),
                  Scale([-3.0], Abs(u)), Add([Abs(u), Abs(u)])):
            assert_same_pair(e, np.zeros(2))


def test_overflow_at_a_scale_of_a_kink_pair():
    u = _aff([[1e10, 1.0]], [0.0])
    with np.errstate(over="ignore"):
        for diag in ([1e300], [-1e300], [-1e300, 2.0]):
            arg = Abs(u) if len(diag) == 1 else Abs(_aff([[1e10, 1.0], [1.0, 1.0]], [0.0, 1.0]))
            for e in (Scale(diag, arg), Neg(Scale(diag, arg)), Add([Scale(diag, arg), arg])):
                assert _outcome(qd_at, e, np.zeros(2)) == (
                    NonFiniteError.__name__, "generator entries must be finite")
                assert_same_pair(e, np.zeros(2))


def test_a_kink_pair_overflows_where_it_is_scaled():
    # the scale overflows before the second operand's derivative does
    exp_at_800 = Compose(Smooth("exp", 1), _aff([[1.0, 0.0]], [800.0]))
    e = Add([Scale([1e300], Abs(_aff([[1e10, 1.0]], [0.0]))), exp_at_800])
    with np.errstate(over="ignore"):
        assert _outcome(qd_at, e, np.zeros(2)) == (
            NonFiniteError.__name__, "generator entries must be finite")
        assert _outcome(qd_at, Add([exp_at_800, e]), np.zeros(2)) == (
            NonFiniteError.__name__, "operator entries must be finite")
        assert_same_pair(e, np.zeros(2))
