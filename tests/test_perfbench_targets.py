"""The benchmark's hooks into dp4.  The traced benchmark run wraps dp4
functions by name (perfbench/tracer.py TARGETS); every target must exist and
every listed binding must be that same object, or the traced run exits with
a missing target.  The first seed-1 family_pipeline and quintic_pencil items
must keep the output digests frozen in perfbench/digests.json."""

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


def replay_seed_1(monkeypatch, workload, count=None):
    """(digests, frozen digests) of the first seed-1 items of a workload,
    run, checked and hashed as the benchmark does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    frozen = json.loads((PERFBENCH / "digests.json").read_text())
    assert frozen["seed"] == wl.DEFAULT_SEED
    expected = frozen[workload][:count]
    rng = wl.rng_for(workload, wl.DEFAULT_SEED)
    items = []
    while len(items) < len(expected):
        items.extend(wl.make_round(workload, rng))
    got = []
    for item in items[: len(expected)]:
        result = wl.run_item(workload, item, wl.prepare(workload, item))
        assert wl.check(workload, item, result) == []
        got.append(wl.digest(wl.canonical(workload, item, result))[:16])
    return got, expected


def test_family_pipeline_seed_1_digests(monkeypatch):
    got, expected = replay_seed_1(monkeypatch, "family_pipeline")
    assert got == expected


def test_quintic_pencil_seed_1_digests(monkeypatch):
    # the stability, squarefree-profile and factorization paths
    got, expected = replay_seed_1(monkeypatch, "quintic_pencil", 30)
    assert got == expected
