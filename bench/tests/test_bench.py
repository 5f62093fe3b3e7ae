"""Tests for the benchmark's own pieces: corpus, tracer and gate.

    python3 -m pytest bench/tests -q
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import corpus  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

cli = worker.import_cli()


def _files(d):
    return {name: open(os.path.join(d, name), "rb").read() for name in sorted(os.listdir(d))}


def _bindings():
    """Every attribute of every qdcalc module, by identity."""
    return {(name, attr): id(value)
            for name, mod in sys.modules.items()
            if mod is not None and (name == "qdcalc" or name.startswith("qdcalc."))
            for attr, value in vars(mod).items()}


def _entry(manifest, prefix):
    return next(e for block in manifest["blocks"] for e in block if e["class"].startswith(prefix))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_same_files(tmp_path, workload):
    corpus.write(workload, 7, str(tmp_path / "a"), count=2)
    corpus.write(workload, 7, str(tmp_path / "b"), count=2)
    corpus.write(workload, 8, str(tmp_path / "c"), count=2)
    a, b, c = (_files(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert a != c


def test_blocks_share_one_class_mix():
    mixes = {tuple(sorted(e["class"] for e in block))
             for block in corpus.blocks("qd-kinks", 3, count=4)}
    assert len(mixes) == 1


def test_nocone_corpus_never_reaches_polar_cone():
    cases = [c for block in corpus.blocks("check-nocone", 3, count=4) for c in block]
    assert all("set_cone" not in c["problem"] for c in cases)
    assert {c["expect_mode"] for c in cases} == {
        "unconstrained", "inequality_constrained", "generalized"}


def test_untraced_run_installs_no_wrapper(tmp_path):
    manifest = corpus.write("minimize-pl", 1, str(tmp_path), count=1)
    before = _bindings()
    results, _ = worker.run_pass(cli, manifest["blocks"][0][:2], str(tmp_path))
    assert all(r[1] == 0 for r in results)
    assert _bindings() == before
    import scipy.optimize

    assert sys.modules["qdcalc.geometry"].linprog is scipy.optimize.linprog


def test_traced_run_patches_every_binding_and_restores_them(tmp_path):
    manifest = corpus.write("minimize-pl", 1, str(tmp_path), count=1)
    geometry, qdcore = sys.modules["qdcalc.geometry"], sys.modules["qdcalc.qdcore"]
    original = geometry.minkowski_sum
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        # the copy imported into qdcore is patched along with the original
        assert qdcore.minkowski_sum is geometry.minkowski_sum is not original
        worker.run_pass(cli, manifest["blocks"][0][:1], str(tmp_path), tracer)
    assert _bindings() == before
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["solver.iterations"] > 0
    assert metrics["expr.qd_at.calls"] > metrics["solver.iterations"]
    assert set(metrics) | {"trace.overhead_ratio"} == {name for name, _ in tracing.PER_LAYER}


def _graded(tmp_path, workload, prefix, tamper):
    manifest = corpus.write(workload, 2, str(tmp_path), count=1)
    entry = _entry(manifest, prefix)
    code, text, error, _ = worker.run_one(cli, entry, str(tmp_path))
    assert error is None
    g = gate.Gate(worker.ROOT, workload, 2, str(tmp_path))
    assert g.check(entry, code, text) == []
    report = json.loads(text)
    tamper(report)
    return g.check(entry, code, json.dumps(report))


def test_gate_rejects_a_shifted_qd_pair(tmp_path):
    def shift(report):
        sub = report["objective"]["subd"]
        sub[0][0][0] += 0.5

    assert _graded(tmp_path, "qd-kinks", "small-zono", shift)


def test_gate_rejects_a_flipped_verdict(tmp_path):
    def flip(report):
        report["verdict"]["holds"] = not report["verdict"]["holds"]

    assert _graded(tmp_path, "check-modes", "coercive", flip)


def test_gate_rejects_a_witness_that_does_not_descend(tmp_path):
    def stall(report):
        w = report["verdict"]["witness"]
        w["direction"] = [0.0 for _ in w["direction"]]

    assert _graded(tmp_path, "check-modes", "saddle", stall)


def test_gate_rejects_a_minimum_that_is_not_one(tmp_path):
    def raise_value(report):
        report["solver"]["value"] += 1e-3

    # n = 1 always stops stationary, so its value must be the minimum
    assert _graded(tmp_path, "minimize-pl", "cpl-n1", raise_value)


def test_gate_rejects_a_report_outside_the_schema(tmp_path):
    def extra(report):
        report["unexpected"] = 1

    assert _graded(tmp_path, "minimize-pl", "cpl-n2", extra)
