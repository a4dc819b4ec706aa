"""Self-test of the benchmark harness; takes about a minute.

    python3 perfbench/selftest.py

Checks the oracle against its independent anchors, checks that the
metric names match BENCHMARK.json, runs every workload at its smallest
size untraced and traced and expects no failures, then corrupts one
oracle entry that the workload uses and expects failed_frac > 0.
Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import random
import sys

import run
from make_oracle import anchor_problems
from ops import WORKLOADS, build_ops, key


def corrupted(entry: dict) -> dict:
    """A copy of an oracle entry with one checked value changed."""
    bad = copy.deepcopy(entry)
    if "best_lambda" in bad:
        bad["best_lambda"] += 1.0
    elif "status" in bad:
        bad["status"] = "fail"
    elif "flips" in bad:
        bad["flips"] = []
    elif "holds" in bad:
        name = next(iter(bad["holds"]))
        bad["holds"][name] = not bad["holds"][name]
    else:
        bad["matches"] = not bad["matches"]
    return bad


def main() -> int:
    problems = []
    oracle = json.loads(run.ORACLE.read_text())["entries"]
    problems += anchor_problems(oracle)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}

    for workload in WORKLOADS:
        for trace in (0, 1):
            line, record = run.run(workload, 0, 0, bool(trace), oracle, quick=True)
            if line["failed"]:
                problems.append(f"{workload} trace={trace}: {line['failed']} ops failed")
            if sorted(line["metrics"]) != sorted(names[trace]):
                problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
            if not trace:
                zero = [n for n, m in line["metrics"].items() if m["value"] <= 0]
                if zero:
                    problems.append(f"{workload}: non-positive end-to-end metrics {zero}")
                run.print_report(record, line)

        bad = dict(oracle)
        op = build_ops(workload, random.Random(0), quick=True)[0]
        bad[key(op)] = corrupted(oracle[key(op)])
        _, record = run.run(workload, 0, 0, False, bad, quick=True)
        if not record["failed_frac"] > 0:
            problems.append(f"{workload}: a corrupted oracle entry left failed_frac at 0")

    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
