"""The benchmark's tracer against this package.

`bench/tracing.py` wraps named functions by rebinding them in every
`qdcalc` module, and a traced run (`bench/run.py --trace 1`) fails when a
target is bound nowhere.  This test installs and uninstalls it, so that
removing or renaming a traced function shows here.  It reads `bench/`
without importing it as a package, and writes nothing there.
"""

from __future__ import annotations

import json
import os
import sys
import types

from qdcalc.cli import main  # imports every module the tracer patches

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing() -> types.ModuleType:
    path = os.path.join(ROOT, "bench", "tracing.py")
    module = types.ModuleType("bench_tracing")
    module.__file__ = path
    with open(path, encoding="utf-8") as f:
        exec(compile(f.read(), path, "exec"), module.__dict__)
    return module


def _bindings() -> dict:
    """Every attribute of every qdcalc module, by identity."""
    return {(name, attr): id(value)
            for name, mod in sys.modules.items()
            if mod is not None and (name == "qdcalc" or name.startswith("qdcalc."))
            for attr, value in vars(mod).items()}


def test_tracer_binds_every_target_and_restores_them(tmp_path, capsys):
    tracing = _tracing()
    tracer = tracing.Tracer()
    # The first install reads the lazily imported scipy names, which binds them.
    with tracer.installed():
        pass
    before = _bindings()
    targets = [(sys.modules[modname], attr) for modname, attr, _, _ in tracing.TARGETS]
    originals = [getattr(mod, attr) for mod, attr in targets]
    f = tmp_path / "abs.json"
    f.write_text(json.dumps({"n": 1, "m": 1, "point": [0.0],
                             "objective": {"op": "abs", "arg": {"op": "var", "n": 1}}}))
    with tracer.installed():
        for (mod, attr), orig in zip(targets, originals):
            assert getattr(mod, attr) is not orig, attr
        assert main(["check", str(f), "--format", "json"]) == 0
    capsys.readouterr()
    assert _bindings() == before
    assert {"cli.load_problem", "expr.qd_at", "optimality.check_unconstrained"} <= {
        span[0] for span in tracer.spans}
