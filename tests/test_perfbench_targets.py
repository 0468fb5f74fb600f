"""The benchmark's hooks into dp4.  The traced benchmark run wraps dp4
functions by name (perfbench/tracer.py TARGETS); every target must exist and
every listed binding must be that same object, or the traced run exits with
a missing target.  The seed-1 family items must keep the output digests
frozen in perfbench/digests.json."""

import importlib
import json
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


def test_family_pipeline_seed_1_digests(monkeypatch):
    # the first seed-1 items, run and hashed as the benchmark does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    frozen = json.loads((PERFBENCH / "digests.json").read_text())
    assert frozen["seed"] == wl.DEFAULT_SEED
    expected = frozen["family_pipeline"]
    rng = wl.rng_for("family_pipeline", wl.DEFAULT_SEED)
    items = []
    while len(items) < len(expected):
        items.extend(wl.make_round("family_pipeline", rng))
    got = []
    for item in items[: len(expected)]:
        result = wl.run_item("family_pipeline", item, wl.prepare("family_pipeline", item))
        assert wl.check("family_pipeline", item, result) == []
        got.append(wl.digest(wl.canonical("family_pipeline", item, result))[:16])
    assert got == expected
