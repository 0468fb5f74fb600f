"""The traced benchmark run wraps dp4 functions by name (perfbench/tracer.py
TARGETS); every target must exist and every listed binding must be that same
object, or the traced run exits with a missing target."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(dotted):
    module, attr = dotted.split(".")
    return getattr(importlib.import_module(f"dp4.{module}"), attr)


def test_tracer_targets_are_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("tracer").TARGETS
    assert targets
    for target, by_workload in targets.items():
        fn = _resolve(target)
        for bindings in by_workload.values():
            for binding in bindings:
                assert _resolve(binding) is fn, f"{binding} is not {target}"
