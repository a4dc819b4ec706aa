"""Benchmark for bht: four workloads driven through the library's public functions.

    python3 perfbench/run.py --workload search-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  One client drives the ops as a closed loop: the next op starts
when the previous one returns, with jobs=1 and at most one child
interpreter alive at a time.  Whole passes over the op list repeat until
``--seconds`` is used up (untraced: at least MIN_PASSES and enough for
P50_MIN_SAMPLES op latencies), so every run measures the same mix of ops;
each pass runs them in its own order, drawn from ``--seed``.  Untraced
times are rescaled to a reference machine speed by a probe timed while
they run (see speed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, read off
spans recorded around bht's public functions (see tracer.py).  Every op's
output is checked against the frozen oracle (oracle.json).  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Full records, including the seed, and the spans of the last traced pass go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ORACLE = HERE / "oracle.json"
SPEC = ROOT / "BENCHMARK.json"

import speed  # noqa: E402
from ops import WORKLOADS, agrees, build_ops, key  # noqa: E402

SETUP_SAMPLES = 7  # at least; one is taken before each untraced pass
SETUP_CMD = "import bht.cli; bht.cli.build_parser()"
SETUP_PROBE_S = 0.05  # probing before and after each set-up sample
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
CHILD_TIMEOUT = 150
# a percentile is reported only with at least ten samples beyond it
P50_MIN_SAMPLES = 20
P90_MIN_SAMPLES = 100

# functions whose calls and self time are reported per layer
PER_CALL = ("graphs.canonical_form", "forbidden.contains_subgraph",
            "spectral.spectral_radius")
MODULES = ("graphs", "search", "forbidden", "spectral", "polynomials",
           "partition", "families")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One BLAS thread: with a second one, numpy's eigen-solves on this
    # workload's small matrices wait on thread hand-offs whose cost depends on
    # what else holds the other core and on how long ago the previous solve
    # ran, so op times depended on op order and machine load (verify-range by
    # up to 1.5x).  The ops themselves run with jobs=1.
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def time_setup(env: dict) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import bht.cli and build its parser:
    (as measured, rescaled to the reference speed by probes run just before
    and just after)."""
    before = speed.sample(SETUP_PROBE_S)
    t0 = time.perf_counter()
    # with pipes, the wait ends when the child closes them; without, a wait
    # with a timeout polls every 50 ms and rounds the time up to that grid
    subprocess.run([sys.executable, "-c", SETUP_CMD], env=env, check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT)
    measured = time.perf_counter() - t0
    probes = before + speed.sample(SETUP_PROBE_S)
    return measured, measured * speed.factor([t for _, t in probes])


def run_child(ops: list, trace: bool, spans: str | None, env: dict) -> dict | None:
    """Run ops in one fresh worker interpreter; None if it did not answer."""
    request = json.dumps({"ops": ops, "trace": trace, "spans": spans})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=request,
                              capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {CHILD_TIMEOUT} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout)


def run_pass(workload: str, ops: list, trace: bool, env: dict) -> dict:
    """One pass over the op list.  search-cold gives each op a fresh
    interpreter, since every `bht search` starts with an empty layer cache;
    the other workloads run the whole list in one interpreter."""
    groups = [[op] for op in ops] if workload == "search-cold" else [ops]
    results: list[dict] = []
    rss_kb = 0
    traces = []
    for j, group in enumerate(groups):
        spans = str(OUT / f"spans-{workload}-{j}.json") if trace else None
        reply = run_child(group, trace, spans, env)
        if reply is None:
            results += [{"error": "worker failed"} for _ in group]
            continue
        results += reply["results"]
        rss_kb = max(rss_kb, reply["rss_kb"])
        if trace:
            traces.append(reply["trace"])
    return {"traced": trace, "ops": ops, "results": results, "rss_kb": rss_kb,
            "traces": traces, "wall_s": sum(r.get("t", 0.0) for r in results),
            "measured_s": sum(r.get("t_measured", 0.0) for r in results)}


def count_failed(ops: list, results: list, oracle: dict) -> int:
    failed = 0
    for op, res in zip(ops, results):
        expected = oracle.get(key(op))
        if "out" not in res or expected is None or not agrees(expected, res["out"]):
            failed += 1
    return failed


def layer_metrics(traces: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (summed over its children)."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for t in traces:
        calls.update(t["calls"])
        self_s.update(t["self_s"])
    free = sum(t["free"] for t in traces)
    kept = sum(t["classes_kept"] for t in traces)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in PER_CALL:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.us_per_call"] = 1e6 * ratio(self_s[name], calls[name])
    for name in ("search.connected_layer", "search.extremal_search",
                 "families.theorem_candidates", "polynomials.sturm_chain",
                 "polynomials.compare_largest_roots", "polynomials.positive_on_open_interval",
                 "partition.quotient"):
        out[f"{name}.self_s"] = self_s[name]
    for name in ("polynomials.largest_real_root", "polynomials.sign_at", "partition.charpoly"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["search.classes_kept"] = kept
    out["search.canon_per_class"] = ratio(calls["graphs.canonical_form"], kept)
    out["forbidden.free_ratio"] = ratio(free, calls["forbidden.contains_subgraph"])
    out["polynomials.sign_at_per_root"] = ratio(calls["polynomials.sign_at"],
                                                calls["polynomials.largest_real_root"])
    for mod in MODULES:
        mod_self = sum(s for name, s in self_s.items() if name.split(".")[0] == mod)
        out[f"{mod}.self_share"] = ratio(mod_self, wall_s)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        oracle: dict, quick: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    # Each pass (each pair of passes when tracing) runs the ops in its own
    # order, drawn from the seed, so that a run's medians do not rest on one
    # order; an op's cost can depend on what ran before it in the same
    # interpreter (search-sweep's shared layer cache, for one).
    rng = random.Random(seed)
    n_ops = len(build_ops(workload, random.Random(seed), quick))
    env = child_env()
    OUT.mkdir(exist_ok=True)
    time_setup(env)  # warm-up: writes the bytecode caches

    # Untraced and traced passes alternate when tracing, and set-up samples
    # are taken between passes, so that all see the same machine conditions.
    kinds = [False, True] if trace else [False]
    if quick:
        need = 1
    elif trace:
        need = 2
    else:
        need = max(MIN_PASSES, -(-P50_MIN_SAMPLES // n_ops))
    passes: list[dict] = []
    setup_times: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        if not traced:
            ops = build_ops(workload, rng, quick)
        t0 = time.perf_counter()
        if not trace:
            setup_times.append(time_setup(env))
        passes.append(run_pass(workload, ops, traced, env))
        now = time.perf_counter()
        done = len(passes) >= need * len(kinds) and len(passes) % len(kinds) == 0
        if done and now - start + (now - t0) * len(kinds) > seconds:
            break

    while not trace and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(time_setup(env))

    failed = sum(count_failed(p["ops"], p["results"], oracle) for p in passes)
    attempted = n_ops * len(passes)
    plain = [p for p in passes if not p["traced"]]
    latencies_ms = [1000 * r["t"] for p in plain for r in p["results"] if "out" in r]
    wall_s = statistics.median(p["wall_s"] for p in plain)

    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["traces"], p["wall_s"]) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        # traced times are as measured, so compare with measured untraced times
        values["trace.overhead_s"] = (statistics.median(p["measured_s"] for p in traced)
                                      - statistics.median(p["measured_s"] for p in plain))
    else:
        values = {
            "setup_s": statistics.median(s for _, s in setup_times),
            "wall_s": wall_s,
            "op_p50_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024,
        }

    n = len(latencies_ms)
    p90 = statistics.quantiles(latencies_ms, n=10)[8] if n >= P90_MIN_SAMPLES else None
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops_per_pass": n_ops,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_measured_s": [p["measured_s"] for p in plain],
        "setup_s": [s for _, s in setup_times],
        "setup_measured_s": [m for m, _ in setup_times],
        "latency_samples": n,
        "op_p90_ms": p90,
        "failed_frac": failed / attempted,
        "metrics": values,
    }
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return line, record


def print_report(record: dict, line: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']} x {record['ops_per_pass']} ops")
    for name, m in line["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        n = record["latency_samples"]
        p90 = record["op_p90_ms"]
        print(f"  {'op_p90_ms':<44} " + (f"{p90:.6g} ms  ({n} samples)" if p90 is not None
              else f"undefined: {n} samples, fewer than {P90_MIN_SAMPLES}"))
        print(f"  {'op latency samples':<44} {n}")
    print(f"  {'failed_frac':<44} {record['failed_frac']:.6g}  "
          f"({line['failed']} of {line['attempted']} ops)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bht" / "__init__.py").is_file():
        print(f"no bht package under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    oracle = json.loads(ORACLE.read_text())["entries"]
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace), oracle)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_report(record, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
