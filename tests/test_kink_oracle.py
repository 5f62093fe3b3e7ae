"""qd_at against an exact directional-derivative oracle at kinks.

For a quasidifferentiable f, f'(x; h) is the support of the subdifferential
minus that of the superdifferential at h (Demyanov & Rubinov 1995), which is
what `qd_eval_dir` computes from a pair.  `helpers.dir_deriv` computes
f'(x; h) with no polytope, by one forward walk of the tree, so the two meet
only in the tree and the point.  The trees come from `helpers.kink_expr`,
whose leaves mostly vanish at x, so that abs, max and min nodes tie exactly
there: the points where the calculus has content and where finite
differences, which the acceptance criteria use, cannot tell branches apart.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import dir_deriv, exact_ties, kink_expr, unit_directions
from qdcalc import Abs, Add, Affine, Const, Max, Min, Neg, Scale, Var, qd_at, qd_eval_dir

# Relative to max(1, |f'(x; h)|).
RTOL = 1e-12
INSTANCES = 1000
# Size bound: n, m <= 3 and depth <= 3, or depth <= 2 at m = 3.  Deeper
# m = 3 trees can tie hundreds of selections and take seconds to derive,
# the unbounded work of ROADMAP item 18.
MAX_DIM = 3


def _walk_kinds(e, seen):
    seen.add(type(e))
    for c in e.children():
        _walk_kinds(c, seen)


def test_pairs_give_the_oracle_derivative_at_exact_ties():
    rng = np.random.default_rng(13)
    kinds: set = set()
    checked = 0
    while checked < INSTANCES:
        n, m = (int(v) for v in rng.integers(1, MAX_DIM + 1, size=2))
        x = np.zeros(n) if rng.random() < 0.25 else rng.uniform(-1.0, 1.0, size=n)
        e = kink_expr(rng, x, m, int(rng.integers(1, 4 if m < MAX_DIM else 3)))
        if not exact_ties(e, x):
            continue
        checked += 1
        _walk_kinds(e, kinds)
        q = qd_at(e, x)
        for h in unit_directions(rng, n, 3):
            want = dir_deriv(e, x, h)
            got = qd_eval_dir(q, h)
            assert np.all(np.abs(got - want) <= RTOL * np.maximum(1.0, np.abs(want))), (e, x, h)
    assert kinds == {Var, Const, Affine, Abs, Neg, Scale, Add, Max, Min}


def test_the_oracle_on_a_hand_checked_kink():
    # |u| - |u| + max(u, -u, 0) = |u| with u = x1 - 2 x2: three exact ties
    # at 0, and f'(0; h) = |h1 - 2 h2|
    u = Affine(np.array([[1.0, -2.0]]), np.zeros(1))
    e = Add([Abs(u), Neg(Abs(u)), Max([u, Neg(u), Const(np.zeros(1), 2)])])
    for h in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.25]):
        h = np.asarray(h)
        assert dir_deriv(e, np.zeros(2), h) == pytest.approx([abs(h[0] - 2.0 * h[1])])
        np.testing.assert_allclose(qd_eval_dir(qd_at(e, np.zeros(2)), h),
                                   dir_deriv(e, np.zeros(2), h), rtol=RTOL)
    assert exact_ties(e, np.zeros(2)) == 3


def _abs_chain(depth):
    e = Affine(np.array([[1.0]]), np.zeros(1))
    for _ in range(depth):
        e = Abs(e)
    return e


def test_abs_chain_agrees_below_the_rounding_depth():
    # the pair is {+-2^(d-1)} and {+-(2^(d-1) - 1)}, exact up to d = 54
    for depth in (1, 2, 10, 54):
        e = _abs_chain(depth)
        assert qd_eval_dir(qd_at(e, [0.0]), [1.0]) == dir_deriv(e, [0.0], [1.0]) == 1.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: from d = 55 on 2^(d-1) - 1 rounds "
                   "to 2^(d-1), and the pair of a d-deep abs chain at 0 gives f'(0; 1) = 0")
@pytest.mark.parametrize("depth", [55, 60])
def test_deep_abs_chain_matches_the_oracle(depth):
    e = _abs_chain(depth)
    assert qd_eval_dir(qd_at(e, [0.0]), [1.0]) == dir_deriv(e, [0.0], [1.0])
