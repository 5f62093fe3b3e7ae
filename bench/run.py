"""The qdcalc benchmark: four seeded corpora through the command line.

    python3 bench/run.py --workload qd-kinks|check-modes|minimize-pl|check-nocone \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  Lines before it give the sample count, the
failures and the machine-noise probe.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import corpus
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 5
# Every child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150
NOISE_LOOP_N = 3_000_000
SHOWN_FAILURES = 5


def noise_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop: high when the machine is busy."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(NOISE_LOOP_N):
        acc += i * i
    return 1000.0 * (time.perf_counter() - t0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QDCALC_LOG", None)
    return env


def setup_seconds(command: str, problem: str) -> float:
    """Median wall time of fresh interpreters running one tiny problem."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                        command, problem], check=True, env=child_env(),
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(manifest_path: str, seconds: int, trace: bool) -> dict:
    out = os.path.join(os.path.dirname(manifest_path), "worker.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--manifest", manifest_path, "--out", out, "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, check=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qdcalc", "cli.py")):
        print(f"error: no qdcalc sources under {ROOT}/src", file=sys.stderr)
        return 2

    noise_before = noise_probe_ms()
    work = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    manifest = corpus.write(args.workload, args.seed, work)
    manifest_path = os.path.join(work, "manifest.json")
    try:
        if args.trace:
            out = run_worker(manifest_path, args.seconds, trace=True)
            metrics = {k: {"value": out["metrics"][k], "unit": u} for k, u in tracing.PER_LAYER}
            print(f"traced: {out['problems']} problems, untraced pass {out['untraced_s']:.3f} s, "
                  f"traced pass {out['traced_s']:.3f} s; spans in {work}/spans.jsonl")
        else:
            setup_s = setup_seconds(manifest["command"],
                                    os.path.join(work, manifest["tiny"]))
            out = run_worker(manifest_path, args.seconds, trace=False)
            lat = out["latencies"]
            metrics = {
                "latency_p50_ms": {"value": 1000.0 * percentile(lat, 0.50), "unit": "ms"},
                "latency_p90_ms": {"value": 1000.0 * percentile(lat, 0.90), "unit": "ms"},
                "throughput_pps": {"value": len(lat) / out["elapsed"], "unit": "1/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": out["rss_kb"] / 1024.0, "unit": "MB"},
            }
            print(f"samples: {len(lat)} problems in {out['blocks']} blocks "
                  f"over {out['elapsed']:.3f} s; setup probes: {SETUP_REPEATS}")
    except subprocess.CalledProcessError as exc:
        print(f"error: benchmark child failed with exit code {exc.returncode}",
              file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired as exc:
        print(f"error: benchmark child exceeded {exc.timeout} s", file=sys.stderr)
        return 3

    failures = out["failures"]
    attempted = out["attempted"]
    print(f"failed_ratio: {len(failures)}/{attempted} = {len(failures) / attempted:.4f}; "
          f"reference checked: {out['reference_checked']}")
    for line in failures[:SHOWN_FAILURES]:
        print(f"FAILED {line}")
    noise_after = noise_probe_ms()
    print(f"noise: pure-Python loop {noise_before:.1f} ms before, {noise_after:.1f} ms after "
          f"(diagnostic only; compare across runs)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
