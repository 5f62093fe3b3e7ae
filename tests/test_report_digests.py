"""Golden digests of whole reports: `--format json` output must come out byte for byte.

`tests/data/reports/` holds block 0 of the seed-0 corpus of each benchmark
workload: 10 `check-nocone`, 5 `minimize-pl` and 13 `check-modes`
problems, and the 12 small `qd-kinks` problems of that block with its two
heavy zonotopes (n = 7 and 8, the longest chains of direct sums).  They
were written once with `bench/corpus.py`, as `blocks(workload, 0, 1)[0]`,
each case's `problem` dumped by `corpus._dump` under its case id.
`digests.json` maps every file to its command, the exit code of
`qdcalc.cli.main([command, file, "--format", "json"])` and the sha256 of
that call's standard output, taken before the bare-operator form of
linear pairs went in (the two heavy zonotopes before sums of many parts
went in).  A change that is meant to keep every report (a
faster rule, a shortcut) must reproduce them all; regenerate the digests
only for a change that is meant to alter reports, and say so where the
change is recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import pytest

from qdcalc import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "reports")


def _golden() -> dict:
    with open(os.path.join(DATA, "digests.json"), encoding="utf-8") as f:
        return json.load(f)


def test_digests_cover_every_problem_file():
    files = sorted(
        f"{workload}/{name}"
        for workload in os.listdir(DATA) if os.path.isdir(os.path.join(DATA, workload))
        for name in os.listdir(os.path.join(DATA, workload))
    )
    assert files == sorted(_golden())
    assert len(files) == 42


@pytest.mark.parametrize("workload", ["check-nocone", "minimize-pl", "check-modes", "qd-kinks"])
def test_reports_reproduce_golden_digests(workload):
    for rel, want in sorted(_golden().items()):
        if not rel.startswith(workload + "/"):
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([want["command"], os.path.join(DATA, rel), "--format", "json"])
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert (code, got) == (want["exit"], want["sha256"]), rel
