"""Workload definitions: which operations each workload runs, and how an
operation's output is judged against the frozen oracle.

Nothing here imports ``bht``; the parent process only generates ops and
compares results, while ``worker.py`` executes them in a child interpreter.

An op is a JSON list whose first element names its kind:

    ["search", m, [pattern, ...]]          search.extremal_search(m, patterns)
    ["verify", theorem, m]                 search.verify_theorem(theorem, m)
    ["crossover", parity, lo, hi]          polynomials.crossover_scan(...)
    ["certify", m]                         polynomials.inequality_certificates(m)
    ["partition", entry, m, {params}]      quotient -> charpoly vs instantiate,
                                           then quotient_lambda_check
"""

from __future__ import annotations

import json
import random

# The five pattern sets of scripts/small_m_maximizers.py.
PATTERN_SETS = (
    ("theta123",),
    ("theta124",),
    ("c5",),
    ("c6",),
    ("theta122", "theta123"),
)

# Sizes are chosen so that a 30 s run holds many short passes.  search-cold
# stays at m <= 9 (an m=10 op takes 2.5-4 s on its own) and search-sweep at
# m <= 9 (4..10 takes 5.5 s a pass).  On a 2-core x86-64 VM the five
# search-cold ops take about 0.08, 0.06, 0.29, 0.21 and 1.4 s: the median
# op, (9, c5), lies well apart from its neighbours, so the median latency
# does not hop between ops as it would with (9, theta123) at 0.25 s added.
COLD_OPS = (
    (8, ("c5",)),
    (8, ("theta123",)),
    (8, ("theta122", "theta123")),
    (9, ("c5",)),
    (9, ("theta122", "theta123")),
)
SWEEP_MS = tuple(range(4, 10))

THEOREM_IDS = (
    "theta123",
    "theta124",
    "c5_runner_up",
    "c6_runner_up",
    "theta_pair_runner_up",
)
# Every 13th size of 22..120: both parities, and both sides of the C6
# crossovers at 71/73 (odd) and 72/74 (even).
RANGE_MS = tuple(range(22, 121, 13))
# The crossover scans cover a window around both flips rather than all of
# 22..120, whose scans alone would take a third of a verify-range pass.
CROSSOVER_RANGE = (62, 84)

# partition entry -> polynomials.instantiate id
PARTITION_POLY = {
    "split_pendant": "split_pendant",
    "diamond_k4": "diamond_k4",
    "cone_star_edge": "cone_star_edge",
    "cone_double_star": "cone_double_star",
    "cone_double_star_alt": "cone_double_star_alt",
    "star_matching": "star_matching_cubic",
    "bipartite_minus": "bipartite_minus",
    "bipartite_plus": "bipartite_plus",
}

WORKLOADS = ("search-cold", "search-sweep", "verify-range", "certify-range")


def _least_divisor(n: int) -> int | None:
    """Least p >= 2 dividing n with p*p <= n."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return None


def partition_ops(m: int) -> list[list]:
    """One check per REFERENCE_PARTITIONS entry that applies at size m."""
    ops = [
        ["partition", "split_pendant", m, {"t": 1 if m % 2 == 0 else 2}],
        ["partition", "cone_star_edge", m, {"r": 3}],
        ["partition", "star_matching", m, {}],
    ]
    if m % 2:
        ops += [["partition", name, m, {}]
                for name in ("diamond_k4", "cone_double_star", "cone_double_star_alt")]
    p = _least_divisor(m + 1)
    if p is not None:
        ops.append(["partition", "bipartite_minus", m, {"p": p}])
    p = _least_divisor(m - 1)
    if p is not None:
        ops.append(["partition", "bipartite_plus", m, {"p": p}])
    return ops


def crossover_ops(lo: int, hi: int) -> list[list]:
    return [["crossover", parity, lo, hi] for parity in ("even", "odd")]


def build_ops(workload: str, rng: random.Random, quick: bool = False) -> list[list]:
    """The op list of one pass, in an order drawn from ``rng``.  Every pass
    holds the same ops; the draw permutes their order only.

    ``quick`` gives each workload's smallest size, for the self-test.
    """
    if workload == "search-cold":
        ops = [["search", m, list(p)] for m, p in COLD_OPS if not quick or m == 8]
        rng.shuffle(ops)
        return ops
    if workload == "search-sweep":
        # ascending m, so each layer is enumerated once and reused by the
        # other pattern sets; only the pattern-set order within m is drawn
        ops = []
        for m in SWEEP_MS[:3] if quick else SWEEP_MS:
            sets = [list(p) for p in PATTERN_SETS]
            rng.shuffle(sets)
            ops += [["search", m, p] for p in sets]
        return ops
    ms = RANGE_MS[:2] if quick else RANGE_MS
    if workload == "verify-range":
        ops = [["verify", thm, m] for thm in THEOREM_IDS for m in ms]
        ops += crossover_ops(*CROSSOVER_RANGE)
    elif workload == "certify-range":
        ops = [["certify", m] for m in ms]
        ops += [op for m in ms for op in partition_ops(m)]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def key(op: list) -> str:
    return json.dumps(op, sort_keys=True, separators=(",", ":"))


LAMBDA_TOL = 1e-9


def agrees(expected: dict, got: dict) -> bool:
    """Compare only outputs that do not depend on how the work is done."""
    if "best_lambda" in expected:
        return (got["maximizers"] == expected["maximizers"]
                and abs(got["best_lambda"] - expected["best_lambda"]) <= LAMBDA_TOL)
    if "status" in expected:
        return got["status"] == expected["status"]
    if "flips" in expected:
        return got["flips"] == expected["flips"]
    if "holds" in expected:
        # every certificate the oracle knows must keep its value; a flip in
        # either direction is a failure
        return all(got["holds"].get(name) is value
                   for name, value in expected["holds"].items())
    if "matches" in expected:
        return (got["matches"] == expected["matches"]
                and got["lambda_ok"] == expected["lambda_ok"]
                and abs(got["lam"] - expected["lam"]) <= LAMBDA_TOL)
    raise ValueError(f"unrecognised oracle entry {expected!r}")
