"""Tests of the problem schema and of the loader pass that enforces it.

The shipped schema declares every child field of an expression node once,
in one ``properties`` block, and lets the ``oneOf`` branches only pick the
fields each ``op`` allows.  ``data/problem.schema.oneof.json`` keeps the
earlier form, in which every branch carried its own copy of each field
schema: it stays frozen as the reference language, so that the property
test below can show that the rewrite accepts and rejects exactly the same
documents.

At run time ``cli._validate_problem`` checks problem files without
jsonschema; here ``Draft202012Validator`` on the shipped schema is its
oracle, and the two must agree on accept or reject for every document.
"""

import json
import os
import pathlib
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdcalc import cli
from qdcalc.errors import SchemaError

FROZEN = json.loads(
    (pathlib.Path(__file__).resolve().parent / "data" / "problem.schema.oneof.json").read_text())
SHIPPED = json.loads(
    resources.files("qdcalc.schemas").joinpath("problem.schema.json").read_text())
OLD = jsonschema.Draft202012Validator(FROZEN)
NEW = jsonschema.Draft202012Validator(SHIPPED)

# The fields each op takes, besides "op" itself; all are required.
FIELDS = {
    "var": ("n",),
    "const": ("value", "n"),
    "affine": ("a", "b"),
    "smooth": ("name", "n"),
    "abs": ("arg",),
    "neg": ("arg",),
    "add": ("args",),
    "max": ("args",),
    "min": ("args",),
    "scale": ("diag", "arg"),
    "mul": ("scalar", "arg"),
    "compose": ("outer", "inner"),
}
LEAVES = ("var", "const", "affine", "smooth")
ALL_FIELDS = sorted({f for fs in FIELDS.values() for f in fs})
MUTATIONS = ("drop", "unknown_key", "wrong_type", "unknown_op")
# Values of the wrong JSON type for n, diag and arg (and a few of the
# right type but out of range).
WRONG = (0, -1, 1.5, "1", True, None, [], [1.0], {}, {"op": "var"}, ["x"])

numbers = st.floats(min_value=-10, max_value=10, allow_nan=False)
vectors = st.lists(numbers, min_size=1, max_size=3)


def problem(objective) -> dict:
    return {"n": 1, "m": 1, "objective": objective, "point": [0.0]}


def loader_accepts(doc) -> bool:
    try:
        cli._validate_problem(doc)
    except SchemaError:
        return False
    return True


def field_value(draw, field: str, depth: int):
    """A value that the schema of `field` accepts."""
    if field == "n":
        return draw(st.integers(1, 4))
    if field in ("value", "b", "diag"):
        return draw(vectors)
    if field == "a":
        return draw(st.lists(vectors, min_size=1, max_size=2))
    if field == "name":
        return draw(st.sampled_from(["sin", "cos", "exp", "sqr", "tanh"]))
    if field == "args":
        return draw(st.lists(exprs(max(depth - 1, 0)), min_size=1, max_size=3))
    return draw(exprs(max(depth - 1, 0)))


@st.composite
def exprs(draw, depth: int = 5):
    """An expression tree of at most `depth` levels below this node; about
    one node in four carries one mutation, so documents of both verdicts
    come up."""
    op = draw(st.sampled_from(LEAVES if depth == 0 else tuple(FIELDS)))
    node = {"op": op}
    for field in FIELDS[op]:
        node[field] = field_value(draw, field, depth)
    if draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "unknown_key":
            # A field another op takes, with a value its schema accepts:
            # only the branch's additionalProperties can reject it.
            field = draw(st.sampled_from(ALL_FIELDS + ["bogus"]))
            node[field] = 1 if field == "bogus" else field_value(draw, field, 0)
        elif kind == "wrong_type":
            own = [f for f in ("n", "diag", "arg") if f in node]
            node[draw(st.sampled_from(own or ["n", "diag", "arg"]))] = draw(
                st.sampled_from(WRONG))
        else:
            node["op"] = draw(st.sampled_from(["sinh", "Abs", "", 3] + list(FIELDS)))
    return node


@settings(max_examples=150, deadline=None)
@given(exprs())
def test_hoisted_schema_accepts_the_same_documents(objective):
    doc = problem(objective)
    assert NEW.is_valid(doc) == OLD.is_valid(doc)


def single_field_edits():
    """Each op with one field removed, one of its own fields (or op) set to
    each sample value, or one foreign field added with a valid value: the
    single-edit neighbourhood of every valid node, enumerated."""
    leaf = {"op": "var", "n": 1}
    good = {"n": 2, "value": [1.0], "b": [0.0], "diag": [2.0], "a": [[1.0]],
            "name": "exp", "args": [leaf], "arg": leaf, "scalar": leaf,
            "outer": leaf, "inner": leaf, "bogus": 1}
    samples = list(WRONG) + [[[1.0]], "sin", [leaf], [{"op": "abs"}]] + list(FIELDS)
    for op, fields in FIELDS.items():
        base = {"op": op, **{f: good[f] for f in fields}}
        yield dict(base)
        yield from ({k: v for k, v in base.items() if k != f} for f in base)
        for field in ("op",) + fields:
            yield from ({**base, field: value} for value in samples)
        yield from ({**base, field: good[field]} for field in good if field not in fields)


def test_hoisted_schema_agrees_on_every_single_field_edit():
    verdicts = set()
    for objective in single_field_edits():
        doc = problem(objective)
        verdict = NEW.is_valid(doc)
        assert verdict == OLD.is_valid(doc), objective
        verdicts.add(verdict)
    assert verdicts == {True, False}


@settings(max_examples=300, deadline=None)
@given(exprs())
def test_loader_agrees_with_schema_on_generated_documents(objective):
    doc = problem(objective)
    assert loader_accepts(doc) == NEW.is_valid(doc)


def test_loader_agrees_with_schema_on_every_single_field_edit():
    verdicts = set()
    for objective in single_field_edits():
        doc = problem(objective)
        verdict = NEW.is_valid(doc)
        assert loader_accepts(doc) == verdict, objective
        verdicts.add(verdict)
    assert verdicts == {True, False}


def top_level_edits():
    """Edits of the fields around the expressions: every option set to each
    sample value, a foreign key on each object, the empty arrays, the
    exclusive pair, each required key dropped, and wrong types and bounds
    for the integers and vectors."""
    leaf = {"op": "var", "n": 1}
    bases = [
        {"n": 1, "m": 1, "objective": leaf, "point": [0.0], "constraints": [leaf],
         "set_cone": {"generators": [[1.0]]},
         "options": {"tol_geom": 1e-9, "tol_active": 1e-9, "max_iters": 5,
                     "step_init": 1.0, "seed": 0}},
        {"n": 1, "m": 1, "objective": leaf, "point": [0.0],
         "generalized_points": [[0.0], [1.0]], "set_cone": {"generators": []}},
    ]
    samples = (0, -1, 1.0, 1.5, True, "1", None, 2.0, 1e300, [], {})
    for base in bases:
        yield base
        for key in ("tol_geom", "tol_active", "max_iters", "step_init", "seed"):
            yield from ({**base, "options": {key: v}} for v in samples)
        yield {**base, "options": {"bogus": 1}}
        yield {**base, "options": {}}
        yield {**base, "options": None}
        yield {**base, "set_cone": {"generators": [[1.0]], "bogus": 1}}
        yield {**base, "set_cone": {}}
        yield {**base, "set_cone": {"generators": []}}
        yield {**base, "set_cone": {"generators": [[]]}}
        yield {**base, "set_cone": {"generators": [[1.0], [1.0, 2.0]]}}
        yield {**base, "set_cone": {"generators": [1.0]}}
        yield {**base, "set_cone": [[1.0]]}
        yield {**base, "generalized_points": []}
        yield {**base, "generalized_points": [[0.0]]}
        yield {**base, "generalized_points": [[True]]}
        yield {**base, "constraints": [leaf], "generalized_points": [[0.0]]}
        yield {**base, "constraints": []}
        yield {**base, "constraints": [{"op": "abs"}]}
        yield {**base, "constraints": leaf}
        yield {**base, "bogus": 1}
        yield from ({k: v for k, v in base.items() if k != key} for key in base)
        for key in ("n", "m", "point"):
            yield from ({**base, key: v} for v in samples + ([1.0, "x"], [[0.0]]))
        yield {**base, "objective": [leaf]}
    yield []
    yield "problem"
    yield None


def test_loader_agrees_with_schema_on_top_level_edits():
    verdicts = set()
    for doc in top_level_edits():
        verdict = NEW.is_valid(doc)
        assert loader_accepts(doc) == verdict, doc
        verdicts.add(verdict)
    assert verdicts == {True, False}


def chain(op: str, depth: int) -> dict:
    e = {"op": "affine", "a": [[1.0]], "b": [0.0]}
    for _ in range(depth):
        if op == "scale":
            e = {"op": "scale", "diag": [1.0], "arg": e}
        else:
            e = {"op": "mul", "scalar": {"op": "var", "n": 1}, "arg": e}
    return e


@pytest.mark.parametrize("name", ["problem.schema.json", "report.schema.json"])
def test_the_docs_copy_of_each_schema_is_the_shipped_one(name):
    docs = pathlib.Path(__file__).resolve().parent.parent / "docs" / name
    assert docs.read_bytes() == resources.files("qdcalc.schemas").joinpath(name).read_bytes()


def test_deep_chains_validate_in_linear_time(tmp_path):
    for op in ("scale", "mul"):
        path = tmp_path / f"{op}.json"
        path.write_text(json.dumps(problem(chain(op, 40))))
        t0 = time.perf_counter()
        cli.load_problem(str(path))
        assert time.perf_counter() - t0 < 2.0, op


def test_check_does_not_import_jsonschema(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem({"op": "abs", "arg": {"op": "var", "n": 1}})))
    src = str(resources.files("qdcalc").parent)
    script = ("import sys; from qdcalc import cli; "
              f"code = cli.main(['check', {str(path)!r}]); "
              "print(code, 'jsonschema' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 False", out.stderr
