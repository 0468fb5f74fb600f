"""dp4 benchmark: three seeded workloads, end-to-end metrics from untraced
runs, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload family_pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process
    python3 perfbench/run.py --write-digests           # refreeze the default-seed digests

Run from anywhere; the checkout is the parent of this directory and dp4 is
taken from its ``src/``.  This process never imports dp4 or sympy: all
program work happens in child processes started one at a time.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are a readable report.  Exit status:
0 when every output check passes, 1 when one fails, 2 when the benchmark
cannot run (for instance, no ``src/dp4`` next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
PY = sys.executable

# setup_s is the median of fresh-interpreter probes: one before the first
# item, one after the last, and one between items whenever --seconds / PAUSES
# have been measured since the last probe, so that they sample the whole run
# (the machine's speed drifts within a run) and not only its start
PAUSES = 8
IMPORT_PROBES = 3
RUN_BUDGET = 170.0  # seconds for all children of one run (the limit is 180)
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0)
DIGEST_ITEMS = {"family_pipeline": 10, "quintic_pencil": 1000}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}
# printed in the JSON line (item_tail_s is not defined on every workload and
# failed_frac is 0 on a healthy commit, so both stay in the report only)
JSON_END_TO_END = ("setup_s", "items_per_s", "item_p50_s", "peak_rss_mb")

class BenchError(Exception):
    """The benchmark could not run (as opposed to an output check failing)."""


_deadline = math.inf  # perf_counter time by which every child must be done


def _remaining() -> float:
    left = _deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_BUDGET:.0f} s budget")
    return min(left, 1e6)


# ---------------------------------------------------------------------------
# child processes


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded its {RUN_BUDGET:.0f} s budget")


def run_child(argv, stdout_path, stderr_path=None, on_pause=None):
    """Run one child to completion; (exit code, wall seconds, peak RSS in MB)
    of that child alone, from ``wait4``.  The wait blocks (polling would steal
    cycles from the child on a small machine); an alarm at the run's deadline
    interrupts it, and the child is killed if the wait ends any other way.

    With ``on_pause`` the child may print a ``pause`` line and block until it
    reads a line on stdin: the call runs while the child waits, and its time
    is not counted in the wall seconds."""
    err_path = stderr_path or os.devnull
    paused = 0.0
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        signal.setitimer(signal.ITIMER_REAL, _remaining())
        start = time.perf_counter()
        pipes = {"stdin": subprocess.PIPE, "stdout": subprocess.PIPE} if on_pause else {"stdout": out}
        proc = subprocess.Popen(argv, stderr=err, env=_env(), cwd=ROOT, **pipes)
        try:
            if on_pause:
                for line in proc.stdout:
                    if line == b"pause\n":
                        t0 = time.perf_counter()
                        on_pause()
                        paused += time.perf_counter() - t0
                        proc.stdin.write(b"go\n")
                        proc.stdin.flush()
                    else:
                        out.write(line)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            for pipe in (proc.stdin, proc.stdout):
                if pipe is not None and pipe is not out:
                    pipe.close()
        wall = time.perf_counter() - start - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def _last_json(path: Path) -> dict:
    lines = path.read_text().strip().splitlines()
    return json.loads(lines[-1])


def run_worker(args, name, on_pause=None) -> tuple[dict, float]:
    """worker.py with ``args``; its JSON result and the child's peak RSS."""
    out, err = OUT / f"{name}.out", OUT / f"{name}.err"
    code, _, rss = run_child([PY, str(HERE / "worker.py")] + args, out, err, on_pause)
    if code != 0:
        tail = err.read_text().strip().splitlines()[-5:]
        raise BenchError(f"worker {' '.join(args[:1])} exited {code}: " + " | ".join(tail))
    return _last_json(out), rss


def setup_probe() -> tuple[float, dict]:
    """Spawn to ``ready`` of one fresh interpreter, and its sympy stamp."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [PY, str(HERE / "setup_probe.py")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=_env(), cwd=ROOT,
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], _remaining())
        line = proc.stdout.readline() if readable else b""
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()  # the stamp line, then EOF as the probe exits
        proc.wait(timeout=_remaining())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError("setup probe did not reach ready (is src/dp4 importable?)")
    return elapsed, json.loads(rest.decode().strip().splitlines()[-1])


class SetupProbes:
    """The set-up probes of one workload's run."""

    def __init__(self):
        self.times: list[float] = []
        self.stamp: dict = {}

    def take(self) -> None:
        elapsed, self.stamp = setup_probe()
        self.times.append(elapsed)

    def median(self) -> float:
        return statistics.median(self.times)


def import_times() -> dict:
    """Median cumulative ``-X importtime`` seconds of ``import dp4.cli`` and
    of the sympy import inside it (0 when dp4 no longer imports sympy)."""
    samples = {"dp4.cli": [], "sympy": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [PY, "-X", "importtime", "-c", "import dp4.cli"],
            capture_output=True, env=_env(), cwd=ROOT, timeout=_remaining(),
        )
        if proc.returncode != 0:
            raise BenchError("import dp4.cli failed")
        found = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        for name in samples:
            samples[name].append(found.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


# ---------------------------------------------------------------------------
# statistics and stamps


def tail(latencies) -> dict | None:
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it
    (nearest rank), or None when the run is too short to have one."""
    values = sorted(latencies)
    n = len(values)
    for pct in TAIL_LADDER:
        rank = math.ceil(n * pct / 100)
        if rank >= 1 and n - rank >= 10:
            return {"value": values[rank - 1], "percentile": pct, "samples": n, "beyond": n - rank}
    return None


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src" / "dp4", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".json") and OUT not in path.parents:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT, timeout=30
        )
    except OSError:
        return "unknown (no git)"
    return proc.stdout.decode().strip() or "unknown"


def env_stamp(seed, sympy_stamp) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "sympy": sympy_stamp.get("sympy"),
        "ground_types": sympy_stamp.get("ground_types"),
        "nproc": cpus,
        "commit": git_commit(),
        "code_hash": code_hash(),
        "seed": seed,
    }


def compare_digests(workload, seed, digests) -> tuple[int, list[str]]:
    """On the default seed, compare item digests with the frozen ones; the
    number compared and the mismatches."""
    if seed != wl.DEFAULT_SEED or not DIGESTS.exists():
        return 0, []
    pairs = list(zip(digests, json.loads(DIGESTS.read_text()).get(workload, [])))
    return len(pairs), [
        f"{workload} item {i}: digest {d and d[:16]} != frozen {f}"
        for i, (d, f) in enumerate(pairs)
        if d is None or d[:16] != f
    ]


# ---------------------------------------------------------------------------
# untraced workloads


def warm_workload(workload, seed, seconds, probes) -> dict:
    """The worker pauses for probes after its warm-up and between items; the
    last probe follows its exit."""
    res, rss = run_worker(
        ["measure", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--pause-every", str(seconds / PAUSES)],
        f"{workload}-{seed}-measure", probes.take,
    )
    probes.take()
    checked, mismatches = compare_digests(workload, seed, res["digests"])
    return {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "rounds": res["rounds"],
        "latencies": res["latencies"],
        "peak_rss_mb": rss,
        "digests_checked": checked,
        "problems": [json.dumps(f)[:300] for f in res["failures"]] + mismatches,
        "stamp": res["stamp"],
    }


def _fresh_dir(name) -> Path:
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _command_output(run_dir: Path, k: int) -> bytes:
    """What command k produced: the built file for ``examples build``."""
    return (run_dir / ("family.json" if k == 0 else f"out_{k}.json")).read_bytes()


def cold_command(run_dir: Path, k, argv, spans_path=None) -> dict:
    """Command k in a fresh process; through the launcher when traced."""
    if spans_path is None:
        cmd = [PY, "-m", "dp4.cli"] + argv
    else:
        cmd = [PY, str(HERE / "launcher.py"), str(spans_path), str(k), "--"] + argv
    code, wall, rss = run_child(cmd, run_dir / f"out_{k}.json", run_dir / f"err_{k}.txt")
    output = _command_output(run_dir, k)
    problem = None
    if code != 0:
        problem = f"exit code {code}"
    else:
        try:
            json.loads(output)
        except ValueError:
            problem = "output is not valid JSON"
    return {"wall": wall, "rss": rss, "output": output, "problem": problem}


def cold_round(run_dir: Path, argvs) -> list[dict]:
    """One pass over the command sequence, fresh process per command."""
    return [cold_command(run_dir, k, argv) for k, argv in enumerate(argvs)]


def cold_check(seed, run_dir) -> dict:
    res, _ = run_worker(["cold-check", "--seed", str(seed), "--dir", str(run_dir)], f"cold-{seed}-check")
    return res["failures"]


def cold_setup(seed, name) -> tuple[Path, list]:
    run_dir = _fresh_dir(name)
    run_worker(["cold-inputs", "--seed", str(seed), "--dir", str(run_dir)], f"{name}-inputs")
    return run_dir, wl.cold_argv(wl.cold_inputs(seed), str(run_dir))


def cold_workload(seed, seconds, probes) -> dict:
    run_dir, argvs = cold_setup(seed, f"cold-{seed}")
    rounds, since_probe = [], seconds
    while True:  # whole sequences only
        rounds.append([])
        for k, argv in enumerate(argvs):
            if since_probe >= seconds / PAUSES:
                probes.take()
                since_probe = 0.0
            rounds[-1].append(cold_command(run_dir, k, argv))
            since_probe += rounds[-1][-1]["wall"]
        if sum(r["wall"] for rnd in rounds for r in rnd) >= seconds:
            break
    probes.take()
    first = rounds[0]
    problems, failed = [], 0
    bad_checks = cold_check(seed, run_dir) if all(r["problem"] is None for r in first) else {}
    for rnd in rounds:
        for k, rec in enumerate(rnd):
            name = wl.COLD_COMMANDS[k]
            problem = rec["problem"] or bad_checks.get(name)
            if problem is None and rec["output"] != first[k]["output"]:
                problem = "output differs from the first round"
            if problem:
                failed += 1
                problems.append(f"{name}: {problem}")
    checked, mismatches = compare_digests(
        "cold_cli", seed, [hashlib.sha256(r["output"]).hexdigest() for r in first]
    )
    return {
        "attempted": sum(len(r) for r in rounds),
        "failed": failed,
        "rounds": [
            (sum(r["problem"] is None for r in rnd), sum(r["wall"] for r in rnd))
            for rnd in rounds
        ],
        "latencies": [r["wall"] for rnd in rounds for r in rnd],
        "peak_rss_mb": max(r["rss"] for rnd in rounds for r in rnd),
        "digests_checked": checked,
        "problems": sorted(set(problems)) + mismatches,
    }


def end_to_end(res, setup_s) -> dict:
    lat = res["latencies"]
    metrics = {
        "setup_s": setup_s,
        # per round, so a burst of machine slowdown moves one sample only
        "items_per_s": statistics.median(n / wall for n, wall in res["rounds"]),
        "item_p50_s": statistics.median(lat),
        "failed_frac": res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    t = tail(lat)
    if t is not None:
        metrics["item_tail_s"] = t["value"]
        res["tail"] = t
    return metrics


# ---------------------------------------------------------------------------
# traced run


def _in_item(span) -> bool:
    return span[4] is not None


def traced_run(workload, seed) -> dict:
    """Every workload's fixed list traced, so each per-layer metric is taken
    on the workload it belongs to; ``workload`` selects whose coverage and
    overhead are reported (its list also runs untraced, for the overhead)."""
    imports = import_times()
    warm = {}
    for name in ("family_pipeline", "quintic_pencil"):
        spans_path = OUT / f"spans-{name}-{seed}.json"
        args = ["trace", "--workload", name, "--seed", str(seed), "--spans", str(spans_path)]
        res, _ = run_worker(args + (["--overhead"] if name == workload else []), f"{name}-{seed}-trace")
        res["spans"] = json.loads(spans_path.read_text())
        warm[name] = res

    plain_dir, argvs = cold_setup(seed, f"cold-{seed}-untraced")
    traced_dir = _fresh_dir(f"cold-{seed}-traced")
    for path in plain_dir.glob("*.json"):
        shutil.copy(path, traced_dir)
    traced_argvs = wl.cold_argv(wl.cold_inputs(seed), str(traced_dir))
    plain, traced = [], []
    for k in range(len(argvs)):
        for side in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
            if side == "plain":
                plain.append(cold_command(plain_dir, k, argvs[k]))
            else:
                spans_path = traced_dir / f"spans_{k}.json"
                traced.append(cold_command(traced_dir, k, traced_argvs[k], spans_path))
    cold_spans = [json.loads((traced_dir / f"spans_{k}.json").read_text()) for k in range(len(argvs))]

    problems, attempted, failed = [], 0, 0
    for name, res in warm.items():
        attempted += res["attempted"]
        failed += res["failed"]
        problems += [json.dumps(f)[:300] for f in res["failures"]]
        problems += compare_digests(name, seed, res["digests"])[1]
        if "untraced_digests" in res and res["untraced_digests"] != res["digests"]:
            problems.append(f"{name}: traced and untraced outputs differ")
    checks = {}
    if all(r["problem"] is None for r in plain + traced):
        checks = cold_check(seed, traced_dir)
    for k, name in enumerate(wl.COLD_COMMANDS):
        attempted += 1
        problem = traced[k]["problem"] or plain[k]["problem"] or checks.get(name)
        if problem is None and traced[k]["output"] != plain[k]["output"]:
            problem = "traced and untraced outputs differ"
        if problem:
            failed += 1
            problems.append(f"{name}: {problem}")
    problems += compare_digests(
        "cold_cli", seed, [hashlib.sha256(r["output"]).hexdigest() for r in traced]
    )[1]

    fam, qp = warm["family_pipeline"]["spans"], warm["quintic_pencil"]["spans"]
    every = lambda span: True  # noqa: E731
    metrics = tr.layer_metrics({
        "family_pipeline": [(fam, _in_item)],
        "quintic_pencil": [(qp, _in_item)],
        "warm": [(fam, _in_item), (qp, _in_item)],
        "setup": [(qp, lambda span: not _in_item(span))],
        "cold_cli": [(spans, every) for spans in cold_spans],
    })
    metrics["import.sympy_s"] = imports["sympy"]
    metrics["import.dp4_s"] = imports["dp4.cli"]
    for name, rec in zip(wl.COLD_COMMANDS, plain):
        metrics[f"cli.{name}.s"] = rec["wall"]
    if workload == "cold_cli":
        covered = sum(s[2] - s[1] for spans in cold_spans for s in spans if s[3] is None)
        metrics["trace.coverage"] = covered / sum(r["wall"] for r in traced)
        metrics["trace.overhead"] = sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain) - 1
    else:
        spans = warm[workload]["spans"]
        traced_s = sum(s[2] - s[1] for s in spans if s[0] == "item")
        metrics["trace.coverage"] = tr.coverage(spans)
        metrics["trace.overhead"] = traced_s / warm[workload]["untraced_s"] - 1

    calls = {
        "family_pipeline": tr.binding_calls(fam),
        "quintic_pencil": tr.binding_calls(qp),
        "cold_cli": tr.binding_calls([s for spans in cold_spans for s in spans]),
    }
    silent = [
        f"{w}: {b}" for homes in tr.TARGETS.values()
        for w, bindings in homes.items() for b in bindings if calls[w].get(b, 0) == 0
    ]
    metrics = {row[0]: metrics[row[0]] for row in tr.LAYER_METRICS}  # table order
    problems += repeat_check(seed, metrics)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "silent_bindings": silent,
        "missing_targets": warm["family_pipeline"]["missing"],
        "stamp": warm["family_pipeline"]["stamp"],
    }


def repeat_check(seed, metrics) -> list[str]:
    """Counts of two traced runs of the same code and seed must be equal."""
    counts = {row[0]: metrics[row[0]] for row in tr.LAYER_METRICS if row[2] in tr.COUNT_STATS}
    path = OUT / f"counts-seed{seed}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    key = code_hash()
    if key not in stored:
        stored[key] = counts
        path.write_text(json.dumps(stored, indent=1, sort_keys=True))
        return []
    return [
        f"count {k} = {v} differs from an earlier traced run ({stored[key].get(k)})"
        for k, v in counts.items() if stored[key].get(k) != v
    ]


# ---------------------------------------------------------------------------
# reporting


def unit_of(name) -> str:
    name = name.split(".", 1)[1] if name.split(".", 1)[0] in wl.WORKLOADS else name
    return END_TO_END_UNITS.get(name) or tr.UNITS[name]


def print_untraced(workload, res, metrics, probes):
    wall = sum(w for _, w in res["rounds"])
    print(f"== {workload}: {res['attempted']} items in {len(res['rounds'])} rounds, {wall:.2f} s")
    for name, unit in END_TO_END_UNITS.items():
        if name == "item_tail_s" and "tail" not in res:
            print(f"  {name:<13} n/a: {len(res['latencies'])} items, no percentile has 10 beyond it")
            continue
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(probes.times)} fresh interpreters)"
        elif name == "item_tail_s":
            t = res["tail"]
            note = f"  (p{t['percentile']:g} of {t['samples']}, {t['beyond']} beyond)"
        elif name == "items_per_s":
            note = f"  (median over {len(res['rounds'])} rounds)"
        elif name == "failed_frac":
            note = f"  ({res['failed']}/{res['attempted']})"
        print(f"  {name:<13} {metrics[name]:.6g} {unit}{note}")
    if res.get("digests_checked"):
        print(f"  digests: {res['digests_checked']} item outputs compared with digests.json")
    for p in res["problems"]:
        print(f"  CHECK FAILED: {p}")


def print_stamp(stamp):
    print(
        f"env: python {stamp['python']}, sympy {stamp['sympy']} "
        f"(ground types {stamp['ground_types']}), nproc {stamp['nproc']}, "
        f"commit {stamp['commit']}, code {stamp['code_hash']}, seed {stamp['seed']}"
    )
    if stamp["ground_types"] != "python":
        print(
            f"WARNING: sympy ground types are {stamp['ground_types']!r}, not the "
            "pure-python baseline; figures are not comparable with it"
        )


def run_untraced(workloads, seed, seconds) -> tuple[dict, int, int, bool]:
    metrics, attempted, failed, correct = {}, 0, 0, True
    results, stamp = {}, None
    for workload in workloads:
        probes = SetupProbes()
        if workload == "cold_cli":
            res = cold_workload(seed, seconds, probes)
        else:
            res = warm_workload(workload, seed, seconds, probes)
        if stamp is None:
            stamp = env_stamp(seed, probes.stamp)
            print_stamp(stamp)
        m = end_to_end(res, probes.median())
        print_untraced(workload, res, m, probes)
        attempted += res["attempted"]
        failed += res["failed"]
        correct &= not res["problems"] and res["failed"] == 0
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + k: m[k] for k in JSON_END_TO_END})
        results[workload] = {
            "metrics": m, "tail": res.get("tail"), "items": res["attempted"],
            "rounds": res["rounds"], "setup_times": probes.times, "problems": res["problems"],
        }
    _write_result(seed, 0, workloads, {"stamp": stamp, "workloads": results})
    return metrics, attempted, failed, correct


def run_traced(workload, seed) -> tuple[dict, int, int, bool]:
    res = traced_run(workload, seed)
    stamp = env_stamp(seed, res["stamp"])
    print_stamp(stamp)
    sizes = ", ".join(
        f"{w} {wl.TRACE_ROUNDS[w] * n} items"
        for w, n in (("family_pipeline", len(wl.FAMILY_ROUND)),
                     ("quintic_pencil", len(wl.QUINTIC_ROUND)),
                     ("cold_cli", len(wl.COLD_COMMANDS)))
    )
    print(f"== traced run over fixed lists ({sizes}); coverage and overhead of {workload}")
    for name, value in res["metrics"].items():
        print(f"  {name:<48} {value:.6g} {unit_of(name)}")
    # A missing target would report its layers as 0, which reads as a gain,
    # so it fails the run.  A silent binding only warns: an optimisation may
    # rightly stop calling a function through one of its bindings.
    if res["missing_targets"]:
        print("  self-test: FAILED")
    elif res["silent_bindings"]:
        print("  self-test: passed with warnings")
    else:
        print("  self-test: every target found, every home binding recorded calls")
    for t in res["missing_targets"]:
        print(f"  CHECK FAILED: MISSING TARGET (no such function in dp4): {t}")
    for b in res["silent_bindings"]:
        print(f"  WARNING: SILENT BINDING (no calls on its home workload): {b}")
    for p in res["problems"]:
        print(f"  CHECK FAILED: {p}")
    _write_result(seed, 1, [workload], {"stamp": stamp, **{k: v for k, v in res.items() if k != "stamp"}})
    correct = not res["problems"] and not res["missing_targets"] and res["failed"] == 0
    return res["metrics"], res["attempted"], res["failed"], correct


def _write_result(seed, trace, workloads, tree):
    name = "-".join(workloads) if len(workloads) == 1 else "all"
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(tree, indent=1))


def write_digests():
    seed = wl.DEFAULT_SEED
    frozen = {"seed": seed, "note": "16-hex sha256 prefixes of item outputs on the default seed"}
    for workload, count in DIGEST_ITEMS.items():
        res, _ = run_worker(
            ["digest", "--workload", workload, "--seed", str(seed), "--items", str(count)],
            f"{workload}-digest",
        )
        if res["failed"]:
            raise BenchError(f"{workload}: output checks fail, not freezing: {res['failures']}")
        frozen[workload] = [d[:16] for d in res["digests"]]
    run_dir, argvs = cold_setup(seed, "cold-digest")
    records = cold_round(run_dir, argvs)
    if any(r["problem"] for r in records) or cold_check(seed, run_dir):
        raise BenchError("cold_cli: output checks fail, not freezing")
    frozen["cold_cli"] = [hashlib.sha256(r["output"]).hexdigest()[:16] for r in records]
    DIGESTS.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"wrote {DIGESTS}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true")
    a = ap.parse_args()
    global _deadline
    if a.workload != "all" and not a.write_digests:
        _deadline = time.perf_counter() + RUN_BUDGET
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "dp4" / "cli.py").is_file():
        print(f"error: no dp4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if a.write_digests:
            write_digests()
            return 0
        if a.trace:
            if a.workload == "all":
                print("error: --trace 1 needs one --workload", file=sys.stderr)
                return 2
            metrics, attempted, failed, correct = run_traced(a.workload, a.seed)
        else:
            names = wl.WORKLOADS if a.workload == "all" else (a.workload,)
            metrics, attempted, failed, correct = run_untraced(names, a.seed, a.seconds)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
