"""Child interpreter that runs one list of ops against ``bht``.

Reads {"ops": [...], "trace": bool, "spans": path | null} as JSON on stdin
and prints one JSON object on stdout: per-op seconds and outputs, the
process's peak resident memory and, when traced, the span summary.  The
op clock starts after the imports, so interpreter start-up is excluded.
Each op's "t" is its time rescaled to the reference speed of speed.py
(as measured when traced), "t_measured" its time as measured.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys

from bht import families, forbidden, graphs, partition, polynomials, search, spectral  # noqa: F401

from ops import PARTITION_POLY
from speed import Speedometer, clock
from tracer import Tracer


def _crossover_pair(parity: str):
    if parity == "even":
        return polynomials.cone_star_matching_even, lambda m: polynomials.split_pendant_poly(m, 1)
    return polynomials.cone_star_matching_odd, lambda m: polynomials.split_pendant_poly(m, 2)


def execute(op: list) -> dict:
    kind = op[0]
    if kind == "search":
        _, m, patterns = op
        rep = search.extremal_search(m, patterns)
        return {
            "best_lambda": rep.best_lambda,
            "maximizers": [c.hex() for _, c in rep.maximizers],
            "graph6": [graphs.to_graph6(g) for g, _ in rep.maximizers],
        }
    if kind == "verify":
        _, thm, m = op
        return {"status": search.verify_theorem(thm, m).status}
    if kind == "crossover":
        _, parity, lo, hi = op
        rep = polynomials.crossover_scan(*_crossover_pair(parity), parity, (lo, hi))
        return {"flips": [list(f) for f in rep.flips]}
    if kind == "certify":
        _, m = op
        return {"holds": {c.name: c.holds for c in polynomials.inequality_certificates(m)}}
    if kind == "partition":
        _, entry, m, params = op
        g, blocks = partition.REFERENCE_PARTITIONS[entry](m, **params)
        poly = partition.charpoly(partition.quotient(g, blocks))
        matches = poly == polynomials.instantiate(PARTITION_POLY[entry], m, **params)
        _, lam_q, lambda_ok = partition.quotient_lambda_check(g, blocks)
        return {"matches": matches, "lambda_ok": lambda_ok, "lam": lam_q}
    raise ValueError(f"unknown op kind {kind!r}")


def run(ops: list, trace: bool, spans_path: str | None) -> dict:
    """Untraced, the ops run under a Speedometer and each op's time is
    rescaled to the reference speed; traced, times are as measured."""
    tracer = Tracer() if trace else None
    meter = None if trace else Speedometer()
    times, results = [], []
    try:
        with meter or contextlib.nullcontext():
            for op in ops:
                t0 = clock()
                try:
                    res = {"out": execute(op)}
                except Exception as exc:  # an op that raises counts as failed
                    res = {"error": repr(exc)}
                times.append((t0, clock()))
                results.append(res)
    finally:
        if tracer is not None:
            tracer.close()
    for res, (t0, t1) in zip(results, times):
        if meter is None:
            res["t"] = res["t_measured"] = t1 - t0
        else:
            res["t_measured"], res["t"] = meter.rescale(t0, t1)
    reply = {
        "results": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        reply["trace"] = tracer.summary()
        if spans_path:
            tracer.dump(spans_path)
    return reply


if __name__ == "__main__":
    request = json.load(sys.stdin)
    json.dump(run(request["ops"], request["trace"], request.get("spans")), sys.stdout)
