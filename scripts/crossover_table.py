#!/usr/bin/env python3
"""Tabulate the cone-vs-pendant largest-root orderings over a size range.

Prints, for each size of the requested parity, both largest roots (12
digits), the winner, and finally the certified flip boundaries.
"""

import argparse

from bht import polynomials as P


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=22)
    ap.add_argument("--hi", type=int, default=120)
    ap.add_argument("--parity", choices=(*P.CROSSOVER, "both"), default="both")
    args = ap.parse_args()
    if args.lo > args.hi:
        ap.error("empty range")

    parities = tuple(P.CROSSOVER) if args.parity == "both" else (args.parity,)
    for parity in parities:
        cx = P.CROSSOVER[parity]
        print(f"\n== {parity} sizes: apex-join cone vs pendant split (t={cx.split_t}) ==")
        rep = P.crossover_scan(cx.cone, cx.split, parity, (args.lo, args.hi))
        for m, order in rep.orders:
            lc, _ = P.largest_real_root(cx.cone(m))
            rc, _ = P.largest_real_root(cx.split(m))
            mark = {"gt": "cone", "lt": "split", "eq": "tie"}[order]
            print(f"m={m:4d}  cone={lc:.12f}  split={rc:.12f}  winner={mark}")
        print(f"flips: {list(rep.flips) or 'none in range'}")


if __name__ == "__main__":
    main()
