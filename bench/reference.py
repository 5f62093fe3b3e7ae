"""Regenerate the committed reference of one workload for the default seed.

    python3 bench/reference.py --workload qd-kinks|check-modes|minimize-pl|check-nocone

Runs every problem of the seed-0 corpus once and writes
bench/reference/<workload>.json with what the gate compares for each
problem that passes the oracle checks.  Problems that fail are listed
under "failed" with their reasons; the gate counts them as failed on
every run, reference or not.  Regenerate only when the corpus changes;
a program change that moves the reference is what the gate exists to catch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import corpus
import gate
import worker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    args = ap.parse_args(argv)
    seed = gate.REFERENCE_SEED
    work = os.path.join(worker.ROOT, ".bench_work", f"{args.workload}-reference")
    shutil.rmtree(work, ignore_errors=True)
    manifest = corpus.write(args.workload, seed, work)
    cli = worker.import_cli()
    results = [(e,) + worker.run_one(cli, e, work) for block in manifest["blocks"] for e in block]
    g = gate.Gate(worker.ROOT, args.workload, seed, work)
    g.reference = None  # oracle checks only: the reference is being rebuilt
    failures = worker.grade(g, results)
    failed_ids = {line.split(":", 1)[0] for line in failures}
    cases = {e["id"]: gate.reference_entry(e, text)
             for e, _, text, _, _ in results if e["id"] not in failed_ids}
    path = os.path.join(worker.BENCH_DIR, "reference", f"{args.workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": seed, "cases": cases,
                   "failed": failures}, f,
                  sort_keys=True, indent=0)
        f.write("\n")
    print("\n".join(failures), file=sys.stderr)
    print(f"wrote {len(cases)} cases to {path}; {len(failures)} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
