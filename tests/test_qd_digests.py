"""Golden digests of qd_at: every derived pair must come out bit for bit.

`tests/data/qd_at_digests.json` holds the sha256 of the generator bytes
of both halves of qd_at for random expression trees from
`helpers.rand_expr`, each derived twice: at the origin with every affine
offset and constant set to zero, so that kink arguments tie exactly, and
at a random point.  A change that is meant to keep the calculus exact
(a faster rule, a shortcut for a special operand) must reproduce every
digest.  Regenerate the file only for a change that is meant to alter
derived pairs, and say so where the change is recorded:

    PYTHONPATH=src python tests/test_qd_digests.py

which rewrites the file and names on stderr the cases whose digests it
changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from helpers import rand_expr
from qdcalc import expr_from_json, expr_to_json, qd_at

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "qd_at_digests.json")
CASES = 600


def _zero_offsets(node):
    """The JSON form of an expression with every affine offset and constant zeroed."""
    if isinstance(node, dict):
        out = {k: _zero_offsets(v) for k, v in node.items()}
        if out["op"] == "affine":
            out["b"] = [0.0] * len(out["b"])
        elif out["op"] == "const":
            out["value"] = [0.0] * len(out["value"])
        return out
    if isinstance(node, list):
        return [_zero_offsets(v) for v in node]
    return node


def _digest(gens: np.ndarray) -> str:
    h = hashlib.sha256(repr(gens.shape).encode())
    h.update(np.ascontiguousarray(gens).tobytes())
    return h.hexdigest()


def _pair_digests(e, x) -> dict:
    try:
        q = qd_at(e, x)
    except ValueError as exc:
        return {"error": type(exc).__name__}
    for gens in (q.subd.gens, q.supd.gens):
        # what every stored stack guarantees: no -0.0, read-only, C order
        assert not (np.signbit(gens) & (gens == 0.0)).any()
        assert not gens.flags.writeable and gens.flags.c_contiguous
    return {"subd": _digest(q.subd.gens), "supd": _digest(q.supd.gens)}


def case(seed: int):
    """The tree of one case, with its kinked twin and random point."""
    rng = np.random.default_rng(seed)
    n, m = (int(v) for v in rng.integers(1, 4, size=2))
    # Vector max/min at m = 3 tie on every coordinate at the origin, and
    # deep trees of them take seconds; keep those shallow.
    depth = int(rng.integers(1, 5 if m < 3 else 3))
    e = rand_expr(rng, n, m, depth)
    kinked = expr_from_json(_zero_offsets(expr_to_json(e)))
    x = rng.uniform(-1.0, 1.0, size=n)
    return kinked, e, x


def digests(seed: int) -> dict:
    kinked, e, x = case(seed)
    return {"kink": _pair_digests(kinked, np.zeros(e.in_dim)), "point": _pair_digests(e, x)}


def _golden() -> dict:
    with open(DATA, encoding="utf-8") as f:
        return json.load(f)


def test_file_covers_every_case():
    assert sorted(_golden(), key=int) == [str(s) for s in range(CASES)]


@pytest.mark.parametrize("block", range(10))
def test_qd_at_reproduces_golden_digests(block):
    golden = _golden()
    for seed in range(block * CASES // 10, (block + 1) * CASES // 10):
        assert digests(seed) == golden[str(seed)], f"case {seed}"


if __name__ == "__main__":
    new = {str(s): digests(s) for s in range(CASES)}
    old = _golden() if os.path.exists(DATA) else {}
    changed = [s for s in new if old.get(s) != new[s]]
    sys.stderr.write(f"{len(changed)} case(s) changed: {' '.join(changed)}\n")
    with open(DATA, "w", encoding="utf-8") as f:
        json.dump(new, f, indent=1, sort_keys=True)
        f.write("\n")
