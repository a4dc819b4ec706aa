#!/usr/bin/env python3
"""Exploratory brute-force maximizers for every pattern set at small sizes.

The main claims start at sizes far beyond exhaustive reach; this records
what the enumeration actually finds at m <= cap, without asserting any
claim there.  Output is JSON lines (one per pattern set and size).
"""

import argparse
import json

from bht import search
from bht.graphs import to_graph6

PATTERN_SETS = [
    ("theta123", ["theta123"]),
    ("theta124", ["theta124"]),
    ("c5", ["c5"]),
    ("c6", ["c6"]),
    ("theta122+theta123", ["theta122", "theta123"]),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=10)
    args = ap.parse_args()

    for m in range(4, args.max_m + 1):
        for tag, patterns in PATTERN_SETS:
            rep = search.extremal_search(m, patterns)
            print(json.dumps({
                "m": m,
                "patterns": tag,
                "best_lambda": rep.best_lambda,
                "maximizers": [to_graph6(g) for g, _ in rep.maximizers],
                "counts": rep.counts,
            }))


if __name__ == "__main__":
    main()
