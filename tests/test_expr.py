"""Tests for the expression DSL, its derivative propagation, and JSON I/O."""

import inspect
import json

import numpy as np
import pytest

from qdcalc import (
    Abs,
    Add,
    Affine,
    Compose,
    Const,
    DimensionMismatchError,
    Expr,
    Max,
    Min,
    Mul,
    Neg,
    Scale,
    SchemaError,
    Smooth,
    Var,
    dini_convergence,
    dini_fd,
    dini_quotients,
    eval_expr,
    expr_from_json,
    expr_to_json,
    is_piecewise_linear,
    qd_at,
    qd_eval_dir,
)
from qdcalc.expr import SMOOTH_PRIMITIVES, _as_pair, _qd, _reads, piece_key
from qdcalc.qdcore import DEFAULT_EPS_ACTIVE

from helpers import ROOT_KINDS, rand_expr, rand_instance, rooted_instance, unit_directions


def x1():
    return Var(1)


class TestEvaluate:
    def test_abs(self):
        np.testing.assert_allclose(eval_expr(Abs(x1()), [-3.0]), [3.0])

    def test_max_of_x_and_neg_x(self):
        e = Max([x1(), Neg(x1())])
        np.testing.assert_allclose(eval_expr(e, [2.0]), [2.0])

    def test_affine(self):
        e = Affine([[1.0, 1.0]], [1.0])
        np.testing.assert_allclose(eval_expr(e, [2.0, 3.0]), [6.0])

    def test_batch_evaluation(self):
        e = Abs(x1())
        pts = np.array([[-2.0], [0.5], [3.0]])
        np.testing.assert_allclose(eval_expr(e, pts), [[2.0], [0.5], [3.0]])

    def test_smooth_primitives(self):
        x = np.array([0.3, -0.7])
        for name, fn in (("sin", np.sin), ("cos", np.cos), ("exp", np.exp),
                         ("sqr", np.square), ("tanh", np.tanh)):
            np.testing.assert_allclose(eval_expr(Smooth(name, 2), x), fn(x))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eval_expr(Abs(x1()), [1.0, 2.0])

    @pytest.mark.parametrize("a, row, length", [([[1.0, 2.0], [3.0]], 1, 1),
                                                ([[1.0], [2.0], [3.0, 4.0]], 2, 2),
                                                (([1.0, 2.0], (3.0, 4.0, 5.0)), 1, 3)])
    def test_ragged_affine_rows_name_the_row(self, a, row, length):
        expected = len(a[0])
        with pytest.raises(DimensionMismatchError,
                           match=rf"^row {row} of A has length {length}, expected {expected}$"):
            Affine(a, np.zeros(len(a)))


class TestQdAt:
    def test_abs_at_origin(self):
        q = qd_at(Abs(x1()), [0.0])
        np.testing.assert_allclose(np.sort(q.subd.gens.ravel()), [-1.0, 1.0])
        np.testing.assert_allclose(q.supd.gens, [[[0.0]]])

    def test_planar_saddle(self):
        pick = lambda i: Affine(np.eye(2)[i][None, :], [0.0])
        e = Add([Abs(pick(0)), Neg(Abs(pick(1)))])
        q = qd_at(e, [0.0, 0.0])
        sub = sorted(map(tuple, q.subd.gens.reshape(-1, 2).tolist()))
        sup = sorted(map(tuple, q.supd.gens.reshape(-1, 2).tolist()))
        assert sub == [(-1.0, 0.0), (1.0, 0.0)]
        assert sup == [(0.0, -1.0), (0.0, 1.0)]

    def test_affine_is_linear_pair(self):
        A, b = np.array([[1.0, -2.0]]), np.array([0.3])
        q = qd_at(Affine(A, b), [0.7, 0.1])
        np.testing.assert_allclose(q.subd.gens, A[None, :, :])
        np.testing.assert_allclose(q.supd.gens, np.zeros((1, 1, 2)))

    def test_abs_of_smooth_branch(self):
        # Away from the kink the abs must reduce to the signed Jacobian.
        e = Abs(Smooth("sin", 1))
        q = qd_at(e, [np.pi / 4])
        h = np.array([1.0])
        np.testing.assert_allclose(qd_eval_dir(q, h), [np.cos(np.pi / 4)], atol=1e-12)
        q = qd_at(e, [-np.pi / 4])
        np.testing.assert_allclose(qd_eval_dir(q, h), [-np.cos(np.pi / 4)], atol=1e-12)

    def test_neg_negates_derivative(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            e, x = rand_instance(rng)
            qe, qn = qd_at(e, x), qd_at(Neg(e), x)
            for h in unit_directions(rng, e.in_dim, 20):
                np.testing.assert_allclose(qd_eval_dir(qn, h), -qd_eval_dir(qe, h),
                                           atol=1e-9)

    def test_deterministic_support_functions(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            e, x = rand_instance(rng)
            qa, qb = qd_at(e, x), qd_at(e, x)
            for h in unit_directions(rng, e.in_dim, 30):
                np.testing.assert_allclose(qd_eval_dir(qa, h), qd_eval_dir(qb, h),
                                           atol=1e-12)

    def test_point_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            qd_at(Abs(x1()), [[0.0], [1.0]])


class TestPieceKey:
    """piece_key records exactly what qd_at reads from the point."""

    def test_abs_kink_splits_three_pieces(self):
        keys = {piece_key(Abs(x1()), [t]) for t in (-1e-3, 0.0, 1e-3)}
        assert len(keys) == 3

    def test_points_within_eps_active_of_a_tie_share_the_key(self):
        v = Max([Affine([[1.0]], [0.0]), Affine([[-2.0]], [0.0])])
        for e in (Abs(x1()), v):
            tie = piece_key(e, [0.0])
            assert piece_key(e, [2e-10]) == tie
            assert piece_key(e, [-3e-10]) == tie
            assert piece_key(e, [1e-3]) != tie

    def test_compose_includes_outer_key(self):
        inner = Add([Abs(Affine([[1.0]], [-1.0])), Const([-0.5], 1)])
        outer = Abs(x1())
        e = Compose(outer, inner)
        for t in (0.5, 1.0, 1.5, 2.0):
            u = inner.evaluate(np.array([t]))
            assert piece_key(e, [t]) == piece_key(outer, u) + piece_key(inner, [t])
        # inner piece the same at 0.5 and 0.9, outer piece different
        assert piece_key(inner, [0.5]) == piece_key(inner, [0.9])
        assert piece_key(e, [0.5]) != piece_key(e, [0.9])

    def test_smooth_input_and_mul_values_are_in_the_key(self):
        assert piece_key(Smooth("sin", 1), [0.1]) != piece_key(Smooth("sin", 1), [0.2])
        prod = Mul(Affine([[1.0]], [0.0]), Affine([[2.0]], [1.0]))
        assert piece_key(prod, [0.1]) != piece_key(prod, [0.2])
        assert piece_key(Affine([[1.0, 2.0]], [0.0]), [0.1, 0.2]) == ()

    def test_walk_values_are_the_evaluated_values(self):
        """The recording walk gives evaluate's value, and records the
        values that evaluating each node's operands on its own gives."""
        rng = np.random.default_rng(19)
        for _ in range(60):
            e, x = rand_instance(rng)
            reads = []
            got = e._eval(x, reads)
            assert got.tobytes() == e.evaluate(x).tobytes()
            assert _entry_bytes(reads) == _entry_bytes(_operand_values(e, x))

    def test_qd_consumes_exactly_the_recorded_entries(self):
        rng = np.random.default_rng(21)
        kinds = {Mul, Smooth, Compose}
        covered = 0
        for _ in range(300):
            n = m = int(rng.integers(1, 4))
            e = rand_expr(rng, n, m, int(rng.integers(2, 5)))
            if not kinds <= {type(node) for node in _nodes(e)}:
                continue
            covered += 1
            x = rng.uniform(-1.5, 1.5, size=n)
            reads = iter(_reads(e, x, "qd_at"))
            q = _as_pair(_qd(e, reads, DEFAULT_EPS_ACTIVE))
            assert next(reads, None) is None
            ref = qd_at(e, x)
            np.testing.assert_array_equal(q.subd.gens, ref.subd.gens)
            np.testing.assert_array_equal(q.supd.gens, ref.supd.gens)
        assert covered >= 20

    def test_one_evaluation_per_point(self, monkeypatch):
        calls = []
        sin, dsin = SMOOTH_PRIMITIVES["sin"]
        monkeypatch.setitem(SMOOTH_PRIMITIVES, "sin", (lambda v: calls.append(1) or sin(v), dsin))
        e = Abs(Abs(Abs(Smooth("sin", 1))))
        qd_at(e, [0.3])
        assert len(calls) == 1
        piece_key(e, [0.3])
        assert len(calls) == 2

    def test_equal_keys_give_identical_pairs(self):
        rng = np.random.default_rng(20)
        shared = 0
        for _ in range(40):
            e, x = rand_instance(rng)
            for scale in (1e-9, 1e-6, 1e-3):
                y = x + scale * rng.uniform(-1.0, 1.0, size=x.shape)
                if piece_key(e, x) != piece_key(e, y):
                    continue
                shared += 1
                qx, qy = qd_at(e, x), qd_at(e, y)
                np.testing.assert_array_equal(qx.subd.gens, qy.subd.gens)
                np.testing.assert_array_equal(qx.supd.gens, qy.supd.gens)
        assert shared >= 10

    def test_point_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            piece_key(Abs(x1()), [[0.0], [1.0]])


def _nodes(e):
    yield e
    for c in e.children():
        yield from _nodes(c)


def _operand_values(e, x) -> list:
    """What the rules read from x, each operand evaluated on its own, in
    the order _qd takes them: a node after its operands, and for Compose
    the outer map at the inner value before the inner map."""
    if isinstance(e, Smooth):
        return [x]
    if isinstance(e, Compose):
        return _operand_values(e.outer, e.inner.evaluate(x)) + _operand_values(e.inner, x)
    out = [v for c in e.children() for v in _operand_values(c, x)]
    if isinstance(e, Abs):
        u = e.arg.evaluate(x)
        out.append(("max", np.stack([u, -u])))
    elif isinstance(e, (Max, Min)):
        out.append(("max" if isinstance(e, Max) else "min",
                    np.stack([a.evaluate(x) for a in e.args])))
    elif isinstance(e, Mul):
        out += [e.scalar.evaluate(x), e.arg.evaluate(x)]
    return out


def _entry_bytes(reads) -> list:
    return [(r[0], r[1].tobytes()) if isinstance(r, tuple) else r.tobytes() for r in reads]


class TestOracleAgreement:
    """Finite differences against the propagated pair, per root node kind.

    Smooth-capable instances must agree to 1e-5 relative; piecewise-linear
    ones to 1e-9 absolute.  Instances are pre-filtered for genericity and
    quotient-ladder convergence using function values only.
    """

    @pytest.mark.parametrize("kind", ROOT_KINDS)
    def test_kind_agreement(self, kind):
        rng = np.random.default_rng(9000 + ROOT_KINDS.index(kind))
        for _ in range(200):
            e, x, hs = rooted_instance(rng, kind)
            q = qd_at(e, x)
            pl = is_piecewise_linear(e)
            for h in hs:
                got = qd_eval_dir(q, h)
                fd = dini_fd(e, x, h)
                if pl:
                    np.testing.assert_allclose(got, fd, atol=1e-9)
                else:
                    assert np.max(np.abs(got - fd) / (1.0 + np.abs(fd))) <= 1e-5


class TestDiniFd:
    def test_abs_at_zero(self):
        got = dini_fd(Abs(x1()), [0.0], [1.0])
        np.testing.assert_allclose(got, [1.0], atol=1e-6)

    def test_square_at_one(self):
        got = dini_fd(Smooth("sqr", 1), [1.0], [1.0])
        np.testing.assert_allclose(got, [2.0], atol=1e-4)

    def test_max_kink(self):
        got = dini_fd(Max([x1(), Neg(x1())]), [0.0], [-1.0])
        np.testing.assert_allclose(got, [1.0], atol=1e-6)

    def test_quotient_rows_match_steps(self):
        q = dini_quotients(Smooth("sqr", 1), [1.0], [1.0])
        # ((1+t)^2 - 1) / t = 2 + t exactly, one row per step of the ladder.
        np.testing.assert_allclose(q.ravel(), [2.01, 2.001, 2.0001, 2.00001], atol=1e-9)

    def test_convergence_diagnostic(self):
        gap = dini_convergence(Smooth("sqr", 1), [1.0], [1.0])
        np.testing.assert_allclose(gap, 0.009, atol=1e-9)


class TestPiecewiseLinearPredicate:
    def test_flags(self):
        assert is_piecewise_linear(Abs(x1()))
        assert is_piecewise_linear(Max([x1(), Neg(x1())]))
        assert not is_piecewise_linear(Smooth("sin", 1))
        assert not is_piecewise_linear(Mul(x1(), x1()))
        assert not is_piecewise_linear(Compose(Smooth("exp", 1), Abs(x1())))


class TestJsonRoundTrip:
    def test_all_kinds_round_trip(self):
        rng = np.random.default_rng(19)
        for kind in ROOT_KINDS:
            for _ in range(5):
                e, x, _ = rooted_instance(rng, kind, max_depth=2, directions=1)
                e2 = expr_from_json(expr_to_json(e))
                np.testing.assert_allclose(eval_expr(e2, x), eval_expr(e, x),
                                           atol=1e-15)
                qa, qb = qd_at(e, x), qd_at(e2, x)
                for h in unit_directions(rng, e.in_dim, 10):
                    np.testing.assert_allclose(qd_eval_dir(qa, h), qd_eval_dir(qb, h),
                                               atol=1e-12)

    def test_json_is_plain_data(self):
        import json
        e = Add([Abs(x1()), Affine([[2.0]], [0.5])])
        blob = json.dumps(expr_to_json(e))
        e2 = expr_from_json(json.loads(blob))
        np.testing.assert_allclose(eval_expr(e2, [1.5]), eval_expr(e, [1.5]))

    def test_unknown_op_rejected(self):
        with pytest.raises(SchemaError):
            expr_from_json({"op": "frobnicate", "n": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError):
            expr_from_json({"op": "abs"})

    def test_extra_field_rejected(self):
        with pytest.raises(SchemaError):
            expr_from_json({"op": "var", "n": 1, "bogus": 2})

    def test_non_dict_rejected(self):
        with pytest.raises(SchemaError):
            expr_from_json([1, 2, 3])

    def test_unknown_smooth_name_rejected(self):
        with pytest.raises(SchemaError):
            expr_from_json({"op": "smooth", "name": "gamma", "n": 1})


def random_doc(rng, n, m, depth, op=None):
    """A random JSON expression document for a map R^n -> R^m, with op at
    the root if given, and its keys in the documented order: "op", then
    the fields of the op's class in declaration order."""
    if op is None:
        ops = ["const", "affine"] + (["var", "smooth"] if n == m else [])
        if depth > 0:
            ops += ["abs", "neg", "add", "scale", "mul", "max", "min", "compose"]
        op = ops[rng.integers(len(ops))]
    vec = lambda k: [float(v) for v in rng.normal(size=k).round(3)]
    sub = lambda nn=n: random_doc(rng, nn, m, depth - 1)
    if op == "var":
        return {"op": op, "n": n}
    if op == "smooth":
        return {"op": op, "name": sorted(SMOOTH_PRIMITIVES)[rng.integers(5)], "n": n}
    if op == "const":
        return {"op": op, "value": vec(m), "n": n}
    if op == "affine":
        return {"op": op, "a": [vec(n) for _ in range(m)], "b": vec(m)}
    if op in ("abs", "neg"):
        return {"op": op, "arg": sub()}
    if op == "scale":
        return {"op": op, "diag": vec(m), "arg": sub()}
    if op == "mul":
        return {"op": op, "scalar": sub(), "arg": sub()}
    if op == "compose":
        k = int(rng.integers(1, 4))
        return {"op": op, "outer": random_doc(rng, k, m, depth - 1),
                "inner": random_doc(rng, n, k, depth - 1)}
    return {"op": op, "args": [sub() for _ in range(rng.integers(1, 4))]}


class TestJsonOrder:
    @pytest.mark.parametrize("op", ROOT_KINDS)
    def test_round_trip_keeps_every_byte(self, op):
        rng = np.random.default_rng(ROOT_KINDS.index(op))
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = n if op in ("var", "smooth") else int(rng.integers(1, 4))
            d = random_doc(rng, n, m, int(rng.integers(1, 4)), op=op)
            assert json.dumps(expr_to_json(expr_from_json(d))) == json.dumps(d)


class TestNodeClasses:
    def test_max_and_min_differ_and_hash(self):
        a = (x1(), Neg(x1()))
        assert Max(a) != Min(a) and Min(a) != Max(a)
        assert Max(a) == Max(list(a)) and Min(a) == Min(list(a))
        assert hash(Max(a)) == hash(Max(list(a))) and hash(Min(a)) == hash(Min(list(a)))
        assert len({Max(a), Min(a), Max(a)}) == 2

    @pytest.mark.parametrize("cls", [Add, Max, Min])
    def test_empty_operand_list_names_its_class(self, cls):
        with pytest.raises(DimensionMismatchError, match=f"^{cls.__name__} needs at least one"):
            cls([])

    def test_positional_construction(self):
        s = Scale([2.0], x1())
        assert s.diag.tolist() == [2.0] and s.arg == x1()
        m = Mul(Var(1), Abs(x1()))
        assert m.scalar == Var(1) and m.arg == Abs(x1())
        assert m.children() == (Var(1), Abs(x1()))
        np.testing.assert_allclose(eval_expr(m, [-3.0]), [-9.0])

    def test_constructor_signatures(self):
        expected = {
            Var: ["n"], Const: ["value", "n"], Affine: ["a", "b"], Smooth: ["name", "n"],
            Abs: ["arg"], Neg: ["arg"], Add: ["args"], Scale: ["diag", "arg"],
            Mul: ["scalar", "arg"], Max: ["args"], Min: ["args"], Compose: ["outer", "inner"],
        }
        for cls, params in expected.items():
            assert list(inspect.signature(cls).parameters) == params
            assert issubclass(cls, Expr)


class TestConstructorValidation:
    def test_affine_shape(self):
        with pytest.raises(DimensionMismatchError):
            Affine([[1.0, 0.0]], [1.0, 2.0])

    def test_add_mixed_dims(self):
        with pytest.raises(DimensionMismatchError):
            Add([x1(), Var(2)])

    def test_scale_diag_length(self):
        with pytest.raises(DimensionMismatchError):
            Scale([1.0, 2.0], x1())

    def test_compose_chain(self):
        with pytest.raises(DimensionMismatchError):
            Compose(Var(2), Affine([[1.0]], [0.0]))

    def test_const_shape(self):
        e = Const([1.0, 2.0], 3)
        assert e.in_dim == 3 and e.out_dim == 2
