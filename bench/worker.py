"""Closed-loop worker: runs one corpus through ``qdcalc.cli.main`` in process.

One client, one process, one thread: each problem starts only after the
previous one returned.  Reports are captured from stdout and checked by
the gate after the timed region.  ``run.py`` starts this script and reads
the JSON summary it writes; see ``run.py --help`` for the benchmark itself.

    python3 bench/worker.py --manifest DIR/manifest.json --out OUT.json \
        --seconds 20 [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# p90 needs ten samples above it.
MIN_SAMPLES = 100
# Blocks of the corpus in the traced pass: a fixed problem set, so that
# its counts can repeat exactly.
TRACE_BLOCKS = {"qd-kinks": 2, "check-modes": 4, "minimize-pl": 6, "check-nocone": 4}


def import_cli():
    """qdcalc.cli from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from qdcalc import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "qdcalc")):
        raise ImportError(f"qdcalc was imported from {cli.__file__}, not from {src}")
    return cli


def run_one(cli, entry: dict, corpus_dir: str) -> tuple:
    """(exit code or None, captured stdout, error text or None, seconds)."""
    argv = [entry["command"], os.path.join(corpus_dir, entry["file"]), "--format", "json"]
    buf = io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed problem, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), error, time.perf_counter() - t0


def closed_loop(cli, manifest: dict, corpus_dir: str, seconds: float,
                min_samples: int = MIN_SAMPLES) -> tuple[list, float]:
    """Run whole blocks, wrapping around, until both time and samples suffice."""
    results = []
    blocks = manifest["blocks"]
    b = 0
    t0 = time.perf_counter()
    while True:
        for entry in blocks[b % len(blocks)]:
            results.append((entry,) + run_one(cli, entry, corpus_dir))
        b += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(results) >= min_samples:
            return results, elapsed


def run_pass(cli, entries: list, corpus_dir: str, tracer=None) -> tuple[list, float]:
    results = []
    t0 = time.perf_counter()
    for entry in entries:
        if tracer is None:
            results.append((entry,) + run_one(cli, entry, corpus_dir))
        else:
            with tracer.span("cli.main", entry["id"]):
                results.append((entry,) + run_one(cli, entry, corpus_dir))
    return results, time.perf_counter() - t0


def grade(gate, results: list) -> list[str]:
    """One line per failed problem."""
    failures = []
    for entry, code, text, error, _ in results:
        reasons = [error] if error is not None else gate.check(entry, code, text)
        if reasons:
            failures.append(f"{entry['id']}: {'; '.join(reasons)}")
    return failures


def warm_up(cli, manifest: dict, corpus_dir: str) -> None:
    """Pay first-use costs (lazy imports, first HiGHS and qhull calls) untimed."""
    tiny = {"command": manifest["command"], "file": manifest["tiny"]}
    for entry in [tiny, tiny] + manifest["blocks"][0]:
        run_one(cli, entry, corpus_dir)


def untraced(cli, manifest, corpus_dir, seconds) -> dict:
    warm_up(cli, manifest, corpus_dir)
    results, elapsed = closed_loop(cli, manifest, corpus_dir, seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"latencies": [r[4] for r in results], "elapsed": elapsed,
            "blocks": len(results) // len(manifest["blocks"][0]),
            "rss_kb": rss_kb, "results": results}


def traced(cli, manifest, corpus_dir, spans_path) -> dict:
    import tracing

    entries = [e for block in manifest["blocks"][:TRACE_BLOCKS[manifest["workload"]]]
               for e in block]
    warm_up(cli, manifest, corpus_dir)
    plain, plain_s = run_pass(cli, entries, corpus_dir)
    tracer = tracing.Tracer()
    passes = []
    for _ in range(2):
        tracer.reset()
        with tracer.installed():
            results, secs = run_pass(cli, entries, corpus_dir, tracer)
        passes.append((tracing.layer_metrics(tracer.spans, tracer.counts), results, secs))
        if len(passes) == 1:
            tracer.write(spans_path)
    (first, res_a, secs_a), (second, res_b, _) = passes
    a, b = tracing.repeatable(first), tracing.repeatable(second)
    diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    if diff:
        raise SystemExit(f"traced counts differ between two passes of one seed: {diff}")
    first["trace.overhead_ratio"] = secs_a / plain_s
    return {"metrics": first, "results": plain + res_a + res_b,
            "problems": len(entries), "untraced_s": plain_s, "traced_s": secs_a}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as f:
        manifest = json.load(f)
    corpus_dir = os.path.dirname(os.path.abspath(args.manifest))
    cli = import_cli()
    if args.trace:
        out = traced(cli, manifest, corpus_dir, os.path.join(corpus_dir, "spans.jsonl"))
    else:
        out = untraced(cli, manifest, corpus_dir, args.seconds)

    import gate

    g = gate.Gate(ROOT, manifest["workload"], manifest["seed"], corpus_dir)
    results = out.pop("results")
    out["attempted"] = len(results)
    out["failures"] = grade(g, results)
    out["reference_checked"] = g.reference is not None
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
