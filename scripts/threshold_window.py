#!/usr/bin/env python3
"""Probe the disputed low end of the runner-up claims (sizes 22 through 25).

The characterization is stated from size 22 in one place and from 26 in
another; this script reports, for each size in between, the construction
contract results and the exact ordering of every closed-form candidate,
so both readings can be compared without assuming either.
"""

import argparse

from bht import families, polynomials, search
from bht.spectral import radius


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=22)
    ap.add_argument("--hi", type=int, default=25)
    args = ap.parse_args()

    for m in range(args.lo, args.hi + 1):
        print(f"\n== m = {m} ==")
        for thm in (t for t, claim in search.CLAIMS.items() if not claim.book):
            rep = search.verify_theorem(thm, m)
            flat = ", ".join(f"{n}={'ok' if ok else 'FAIL'}" for n, ok, _ in rep.checks)
            print(f"  {thm:22s} {rep.status:12s} {flat}")
        ranked = sorted(
            ((radius(g), str(spec)) for spec, g in families.theorem_candidates(m)),
            reverse=True,
        )
        print("  candidate ordering: " + "  >  ".join(f"{name} ({lam:.9f})" for lam, name in ranked))
        print(f"  book bound (1+sqrt(4m-3))/2 = {polynomials.book_lambda(m):.9f}")


if __name__ == "__main__":
    main()
