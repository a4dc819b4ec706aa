"""Regenerate oracle.json: the expected output of every op any workload can run.

    PYTHONPATH=src python3 perfbench/make_oracle.py

The oracle is frozen: regenerate it only from code whose outputs are
trusted, and check the anchors below, which rest on facts independent of
the code under test.  Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORACLE = HERE / "oracle.json"

from ops import (  # noqa: E402
    CROSSOVER_RANGE, PATTERN_SETS, SWEEP_MS, THEOREM_IDS, crossover_ops, key, partition_ops,
)

FULL_RANGE = range(22, 121)
N_CERTIFICATES = 2444
N_VIOLATED = 167


def all_ops() -> list[list]:
    ops = [["search", m, list(p)] for m in SWEEP_MS for p in PATTERN_SETS]
    ops += crossover_ops(22, 120)
    ops += [["verify", thm, m] for thm in THEOREM_IDS for m in FULL_RANGE]
    ops += crossover_ops(*CROSSOVER_RANGE)
    ops += [["certify", m] for m in FULL_RANGE]
    ops += [op for m in FULL_RANGE for op in partition_ops(m)]
    return ops


def _graph6_degrees(text: str) -> list[int]:
    """Degree sequence of a graph6 string with fewer than 63 vertices."""
    n = ord(text[0]) - 63
    bits = [(ord(ch) - 63) >> s & 1 for ch in text[1:] for s in range(5, -1, -1)]
    deg = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                deg[i] += 1
                deg[j] += 1
            pos += 1
    return deg


def anchor_problems(entries: dict) -> list[str]:
    """Disagreements between the oracle and independently known facts."""
    problems = []
    # theta123 at odd m >= 9: the book K2 + (m-1)/2 independent vertices is
    # the unique maximizer, with lambda = (1 + sqrt(4m-3))/2 (at m=7 the
    # claim does not hold: K4 plus a pendant edge beats it)
    m = 9
    e = entries[key(["search", m, ["theta123"]])]
    n = (m + 3) // 2
    book = sorted([n - 1, n - 1] + [2] * (n - 2))
    if len(e["graph6"]) != 1 or sorted(_graph6_degrees(e["graph6"][0])) != book:
        problems.append(f"theta123 m={m}: maximizer is not the unique book")
    if abs(e["best_lambda"] - (1 + math.sqrt(4 * m - 3)) / 2) > 1e-9:
        problems.append(f"theta123 m={m}: best lambda is not (1+sqrt(4m-3))/2")
    # construction mode passes every claim inside its range; the pair
    # runner-up claim starts at m = 26
    for thm in THEOREM_IDS:
        for m in FULL_RANGE:
            want = "not_claimed" if thm == "theta_pair_runner_up" and m < 26 else "pass"
            if entries[key(["verify", thm, m])]["status"] != want:
                problems.append(f"verify {thm} m={m} is not {want}")
    # C6 crossovers: the even pair flips between 72 and 74, the odd between 71 and 73
    for lo, hi in ((22, 120), CROSSOVER_RANGE):
        for parity, flips in (("even", [[72, 74]]), ("odd", [[71, 73]])):
            if entries[key(["crossover", parity, lo, hi])]["flips"] != flips:
                problems.append(f"{parity} crossover flips over {lo}..{hi} are not {flips}")
    # 2444 certificates over 22..120; 167 are violated by design
    holds = [(name, ok) for m in FULL_RANGE
             for name, ok in entries[key(["certify", m])]["holds"].items()]
    violated = [name for name, ok in holds if not ok]
    if len(holds) != N_CERTIFICATES or len(violated) != N_VIOLATED:
        problems.append(f"{len(holds)} certificates with {len(violated)} violated, "
                        f"expected {N_CERTIFICATES} with {N_VIOLATED}")
    unexpected = {name for name in violated
                  if not name.startswith(("bipartite_minus", "bipartite_plus"))
                  and name != "cone_odd_neg_gate7"}
    if unexpected:
        problems.append(f"violated outside the known-false families: {sorted(unexpected)}")
    return problems


def main() -> int:
    from worker import execute

    entries = {key(op): execute(op) for op in all_ops()}
    problems = anchor_problems(entries)
    for p in problems:
        print(f"anchor: {p}", file=sys.stderr)
    if problems:
        return 1
    ORACLE.write_text(json.dumps({"entries": entries}, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {ORACLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
