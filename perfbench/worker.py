"""Child process of the benchmark: runs the warm workloads and the dp4-side
steps of cold_cli.  Its last stdout line is one JSON object for the
orchestrator.

    worker.py measure     --workload W --seed N --seconds S [--pause-every P]
    worker.py trace       --workload W --seed N --spans FILE [--overhead]
    worker.py digest      --workload W --seed N --items K
    worker.py cold-inputs --seed N --dir D
    worker.py cold-check  --seed N --dir D
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import workloads as wl
from setup_probe import READY_QUINTIC, ready, sympy_stamp


def _timed_item(workload, item):
    t0 = time.perf_counter()
    args = wl.prepare(workload, item)
    try:
        result, error = wl.run_item(workload, item, args), None
    except Exception:  # an item that raises is a failed item, not a crash
        result, error = None, traceback.format_exc(limit=3)
    return result, error, time.perf_counter() - t0


def _warm_up(workload, seed):
    """Fill lazy caches and first-call paths before timing.  Family warm-up
    runs only the two cheap engineered items of a separate stream."""
    items = wl.make_round(workload, wl.rng_for(workload, seed, "warmup"))
    for item in items:
        if workload == "quintic_pencil" or item["kind"] in ("squared", "diagonal"):
            _timed_item(workload, item)


def _output(workload, index, item, result, error):
    """(digest, failure or None) of one item."""
    if error is not None:
        return None, {"index": index, "item": item, "error": error}
    bad = wl.check(workload, item, result)
    failure = {"index": index, "item": item, "checks": bad} if bad else None
    return wl.digest(wl.canonical(workload, item, result)), failure


def _outputs(workload, records):
    """Digests and check failures of (item, result, error) records."""
    pairs = [_output(workload, i, *rec) for i, rec in enumerate(records)]
    return [d for d, _ in pairs], [f for _, f in pairs if f]


def _fixed_list(workload, seed):
    rng = wl.rng_for(workload, seed)
    return [it for _ in range(wl.TRACE_ROUNDS[workload]) for it in wl.make_round(workload, rng)]


def _pause():
    """Tell the orchestrator this process is idle, and wait until it is done
    (it takes its set-up probes meanwhile)."""
    sys.stdout.write("pause\n")
    sys.stdout.flush()
    sys.stdin.readline()


def measure(workload, seed, seconds, pause_every):
    """Whole rounds until ``seconds`` are measured.  With ``pause_every``,
    pause before the first item, and before each later one once that many
    seconds were measured since the last pause."""
    ready()
    _warm_up(workload, seed)
    rng = wl.rng_for(workload, seed)
    digests, failures, latencies, rounds = [], [], [], []
    since_pause = pause_every
    while True:  # whole rounds only, so every run has the same item mix
        completed, timed = 0, 0.0
        for item in wl.make_round(workload, rng):
            if pause_every and since_pause >= pause_every:
                _pause()
                since_pause = 0.0
            result, error, dt = _timed_item(workload, item)
            latencies.append(dt)
            completed += error is None
            timed += dt
            since_pause += dt
            # checked at once and dropped, so memory does not grow with items
            digest, failure = _output(workload, len(digests), item, result, error)
            digests.append(digest)
            if failure:
                failures.append(failure)
        rounds.append((completed, timed))
        if sum(wall for _, wall in rounds) >= seconds:
            break
    return {
        "attempted": len(digests),
        "failed": len(failures),
        "rounds": rounds,
        "latencies": latencies,
        "digests": digests,
        "failures": failures[:5],
        "stamp": sympy_stamp(),
    }


def trace(workload, seed, spans_path, overhead):
    """Traced set-up, then a traced pass over a fixed item list.  With
    ``overhead`` each item also runs untraced, alternately before and after
    its traced run, so warm caches favour neither side."""
    from fractions import Fraction

    import dp4.cli  # noqa: F401
    from dp4 import quintic
    from dp4.binforms import BinaryForm
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.span("setup"):
        quintic.invariants(BinaryForm(5, tuple(Fraction(c) for c in READY_QUINTIC)))
    tracer.uninstall()
    _warm_up(workload, seed)
    items = _fixed_list(workload, seed)

    def traced_run(index, item):
        tracer.install()
        try:
            with tracer.item_span(index, item["kind"]):
                try:
                    result = wl.run_item(workload, item, wl.prepare(workload, item))
                    error = None
                except Exception:
                    result, error = None, traceback.format_exc(limit=3)
        finally:
            tracer.uninstall()
        return item, result, error

    traced, untraced = [], []
    for index, item in enumerate(items):
        if overhead and index % 2:
            untraced.append(_timed_item(workload, item))
        traced.append(traced_run(index, item))
        if overhead and not index % 2:
            untraced.append(_timed_item(workload, item))

    digests, failures = _outputs(workload, traced)
    out = {
        "attempted": len(items),
        "failed": len(failures),
        "digests": digests,
        "failures": failures[:5],
        "missing": tracer.missing,
        "stamp": sympy_stamp(),
    }
    if overhead:
        plain, plain_failures = _outputs(workload, [(it, r, e) for it, (r, e, _) in zip(items, untraced)])
        out["untraced_digests"] = plain
        out["untraced_s"] = sum(dt for _, _, dt in untraced)
        out["failed"] += len(plain_failures)
        out["failures"] += plain_failures[:5]
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return out


def digest_only(workload, seed, count):
    rng = wl.rng_for(workload, seed)
    records = []
    while len(records) < count:
        for item in wl.make_round(workload, rng):
            result, error, _ = _timed_item(workload, item)
            records.append((item, result, error))
    digests, failures = _outputs(workload, records[:count])
    return {"digests": digests, "failed": len(failures), "failures": failures[:5]}


def cold_inputs(seed, run_dir):
    from fractions import Fraction

    from dp4 import plane_quintic, serialize
    from dp4.binforms import BinaryForm

    inp = wl.cold_inputs(seed)
    fx = inp["fixture"]
    if fx["name"] == "pencil":
        fixture = plane_quintic.pencil_fixture()
        plus, minus = fixture.eta(*fx["pair"])
    else:
        fixture = plane_quintic.quadrilateral_fixture()
        plus, minus = fixture.eta(fx["partition"])
    files = {
        "inputs.json": inp,
        "quintic.json": serialize.encode_form(
            BinaryForm(5, tuple(Fraction(c) for c in inp["quintic"]))
        ),
        "pencil.json": {
            "type": "pencil",
            "P": serialize.encode_matrix(inp["P"]),
            "Q": serialize.encode_matrix(inp["Q"]),
        },
        "curve.json": serialize.encode_curve(fixture.curve),
        "eta.json": {
            "plus": serialize.encode_divisor(plus),
            "minus": serialize.encode_divisor(minus),
        },
    }
    for name, tree in files.items():
        with open(f"{run_dir}/{name}", "w") as fh:
            json.dump(tree, fh, sort_keys=True)
    return {"files": sorted(files)}


def cold_check(seed, run_dir):
    """Checks on one round of cold_cli outputs that need dp4 in-process."""
    from fractions import Fraction

    from dp4 import families, serialize

    def load(name):
        with open(f"{run_dir}/{name}") as fh:
            return json.load(fh)

    inp = wl.cold_inputs(seed)
    bad = {}
    built = load("family.json")
    if (built.get("name"), built.get("seed")) != ("h10_ci", inp["model_seed"]):
        bad["examples_build"] = "build output names another model or seed"
    spec = serialize.decode_family(built["family"])
    expected = wl.family_tree(families.family_report(spec))
    if load("out_1.json") != expected:
        bad["family_analyze"] = "differs from the in-process family_report"
    q = load("out_2.json")
    if 125 * Fraction(q["discriminant"]) != Fraction(q["J4"]) ** 2 - 4 * Fraction(q["J8"]):
        bad["quintic_invariants"] = "125 disc != J4^2 - 4 J8"
    p = load("out_3.json")
    if not wl.spectral_matches(p["spectral_quintic"]["coeffs"], inp["P"], inp["Q"]):
        bad["pencil_analyze"] = "spectral quintic != det(uP + vQ)"
    if load("out_4.json").get("matches_golden") is not True:
        bad["lines_report"] = "report does not match the golden file"
    h8 = load("out_5.json")
    if h8.get("height") != 8 or not isinstance(h8.get("orbit_label"), int):
        bad["classify_h8"] = "no orbit label for height 8"
    h10 = load("out_6.json")
    if (h10.get("principal"), h10.get("theta_parity")) != (False, inp["fixture"]["parity"]):
        bad["classify_h10"] = "theta parity differs from the fixture's"
    return {"failures": bad}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("measure", "trace", "digest", "cold-inputs", "cold-check"))
    ap.add_argument("--workload", choices=wl.WORKLOADS[:2])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--spans")
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--pause-every", type=float, default=0.0)
    ap.add_argument("--items", type=int)
    ap.add_argument("--dir")
    a = ap.parse_args()
    if a.mode == "measure":
        out = measure(a.workload, a.seed, a.seconds, a.pause_every)
    elif a.mode == "trace":
        out = trace(a.workload, a.seed, a.spans, a.overhead)
    elif a.mode == "digest":
        out = digest_only(a.workload, a.seed, a.items)
    elif a.mode == "cold-inputs":
        out = cold_inputs(a.seed, a.dir)
    else:
        out = cold_check(a.seed, a.dir)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
