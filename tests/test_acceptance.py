"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import random
import time
from fractions import Fraction

from bht import families as F
from bht import partition as PT
from bht import polynomials as P
from bht import search as SR
from bht.graphs import bits, canonical_form
from bht.spectral import spectral_radius
from conftest import (
    bound_clique_free,
    bound_vertex_deletion,
    random_bipartite_connected,
    random_connected,
    rewire_monotonicity,
)


def _report(number: int, description: str, started: float) -> None:
    print(f"criterion {number:2d} PASS ({time.perf_counter() - started:6.2f}s)  {description}")


def test_criterion_01_book_closed_form():
    t0 = time.perf_counter()
    for m in range(9, 60, 2):
        lam = spectral_radius(F.book(m)).lam
        assert abs(lam - (1 + math.sqrt(4 * m - 3)) / 2) <= 1e-9, m
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report(1, "closed-form radii of the odd-size books, m in 9..59", t0)


def _criterion2_cases():
    """Every (graph, blocks, expected polynomial) pair reproduced exactly."""
    layout = PT.REFERENCE_PARTITIONS
    cases = []
    for m in range(22, 41):
        for t in range(1, 7):
            if (m + t) % 2 == 1:
                cases.append((layout["split_pendant"](m, t=t), P.split_pendant_poly(m, t)))
        if m % 2 == 1:
            cases.append((layout["diamond_k4"](m), P.diamond_k4_poly(m)))
            cases.append((layout["cone_double_star"](m), P.cone_double_star_poly(m)))
            cases.append((layout["cone_double_star_alt"](m), P.cone_double_star_alt_poly(m)))
        for r in range(3, 9):
            if m >= 2 * r + 3:
                cases.append((layout["cone_star_edge"](m, r=r), P.cone_star_edge_poly(m, r)))
        g, merged = layout["star_matching"](m)
        cases.append(((g, merged), P.star_matching_cubic(m)))
        # the centre and one matched leaf seeded apart give the 4-block layout
        four = PT.coarsest_equitable_refinement(g, [range(2, m), [0], [1]])
        cases.append(((g, four), P.star_matching_quartic(m)))
    return cases


def test_criterion_02_exact_quotient_reproduction():
    t0 = time.perf_counter()
    cases = _criterion2_cases()
    for (g, blocks), expected in cases:
        assert PT.charpoly(PT.quotient(g, blocks)) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _report(2, f"exact quotient polynomials for {len(cases)} family/partition pairs", t0)


def test_criterion_03_quotient_lambda_agreement():
    t0 = time.perf_counter()
    for (g, blocks), _ in _criterion2_cases():
        lam_a, lam_q, ok = PT.quotient_lambda_check(g, blocks)
        assert ok, (g.n, g.m, lam_a, lam_q)
    _report(3, "largest quotient root equals adjacency radius (1e-9)", t0)


def test_criterion_04_gate_signs_exact():
    t0 = time.perf_counter()
    for m in range(22, 501):
        gate = P.gate(m, 7)
        assert P.split_pendant_poly(m, 1)(gate).sign() < 0, m
        assert P.split_pendant_poly(m, 2)(gate).sign() < 0, m
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report(4, "exact negativity of both pendant quartics at the gate, m in 22..500", t0)


def test_criterion_05_difference_identities():
    t0 = time.perf_counter()
    samples = [(m, t) for m in (22, 23, 30, 37, 44, 51, 58, 65, 72, 79)
               for t in (3, 6)]
    assert len(samples) == 20
    half = Fraction(1, 2)
    for m, t in samples:
        st = P.split_pendant_poly(m, t)
        assert st - P.split_pendant_poly(m, 1) == P.Polynomial(
            [half * (t - 1) * (m - t - 2), t - 1]
        )
        assert st - P.split_pendant_poly(m, 2) == P.Polynomial(
            [half * (t - 2) * (m - t - 3), t - 2]
        )
    _report(5, "pendant-difference identities at 20 sampled (m, t)", t0)


def test_criterion_06_crossovers():
    t0 = time.perf_counter()
    even = P.crossover_scan(
        P.cone_star_matching_even, lambda m: P.split_pendant_poly(m, 1),
        "even", (22, 200),
    )
    assert even.flips == ((72, 74),), even.flips
    odd = P.crossover_scan(
        P.cone_star_matching_odd, lambda m: P.split_pendant_poly(m, 2),
        "odd", (22, 200),
    )
    assert odd.flips == ((71, 73),), odd.flips
    # the boundary orderings stated by the claim's proof
    assert P.compare_largest_roots(
        P.cone_star_matching_even(72), P.split_pendant_poly(72, 1)
    ).order == "gt"
    for m in range(74, 89, 2):
        assert P.compare_largest_roots(
            P.cone_star_matching_even(m), P.split_pendant_poly(m, 1)
        ).order == "lt", m
    # exact-sign regime certificates beyond the crossover window
    for m in range(90, 201, 2):
        diff = P.cone_star_matching_even(m) - P.split_pendant_poly(m, 1)
        assert P.positive_on_open_interval(diff, P.gate(m, 7), P.gate(m, 3)), m
    for m in range(89, 200, 2):
        diff = P.cone_star_matching_odd(m) - P.X * P.split_pendant_poly(m, 2)
        assert P.positive_on_open_interval(diff, P.gate(m, 7), P.gate(m, 5)), m
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"took {elapsed:.2f}s, budget 2s"
    _report(6, "single crossover flips at 72/74 and 71/73 plus regime certificates", t0)


def test_criterion_07_factorization_bridge():
    t0 = time.perf_counter()
    x_plus_1 = P.Polynomial([1, 1])
    for m in range(22, 62, 2):
        cubic = P.Polynomial([m - 6, -(m - 3), -2, 1])
        assert x_plus_1 * cubic == P.cone_star_matching_even(m), m
    _report(7, "quartic/cubic factorization bridge at 20 even sizes", t0)


def test_criterion_08_brute_force_oracle():
    t0 = time.perf_counter()
    for m in (8, 9, 10, 11):
        rep = SR.extremal_search(m, ["theta123"])
        bound = (1 + math.sqrt(4 * m - 3)) / 2
        assert rep.best_lambda <= bound + 1e-9, m
        if m % 2 == 1:
            assert abs(rep.best_lambda - bound) <= 1e-9, m
            assert [c for _, c in rep.maximizers] == [canonical_form(F.book(m))], m
        else:
            assert rep.best_lambda < bound - 1e-9, m
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.2f}s, budget 10min"
    _report(8, "exhaustive theta-free oracle at m = 8..11", t0)


def test_criterion_09_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20260809)

    for _ in range(500):
        g = random_connected(rng, 3, 14)
        res = spectral_radius(g)
        assert max(res.perron) <= 1 / math.sqrt(2) + 1e-12

    equalities = 0
    for _ in range(500):
        g = random_connected(rng, 3, 14)
        v = rng.randrange(g.n)
        lhs, rhs, holds, flagged = bound_vertex_deletion(g, v)
        assert holds
        if abs(lhs - rhs) <= 1e-9:
            equalities += 1
            assert flagged
    for g, v in ((F.complete(7), 3), (F.star(9), 4)):
        lhs, rhs, holds, flagged = bound_vertex_deletion(g, v)
        assert holds and flagged and abs(lhs - rhs) <= 1e-9

    for _ in range(500):
        g = random_bipartite_connected(rng, 4, 14)
        lhs, rhs, holds = bound_clique_free(g, 2)
        assert holds and lhs <= math.sqrt(g.m) + 1e-9

    done = 0
    while done < 500:
        g = random_connected(rng, 4, 14)
        res = spectral_radius(g)
        u = max(range(g.n), key=lambda v: res.perron[v])
        candidates = [
            v for v in range(g.n)
            if v != u and res.perron[v] <= res.perron[u]
            and g.adj[v] & ~(g.adj[u] | 1 << u)
        ]
        if not candidates:
            continue
        v = candidates[rng.randrange(len(candidates))]
        movable = [w for w in bits(g.adj[v]) if not (g.adj[u] | 1 << u) >> w & 1]
        take = rng.randint(1, len(movable))
        before, after, holds = rewire_monotonicity(g, u, v, movable[:take])
        assert holds and after > before + 1e-12
        done += 1
    _report(9, "four spectral property suites, 500 random graphs each", t0)


def test_criterion_10_star_matching_supports():
    t0 = time.perf_counter()
    for m in range(26, 61):
        lam = spectral_radius(F.star_matching(m, 1)).lam
        assert lam >= math.sqrt(m - 1) + 1 / (m - 1) - 1e-12, m
        cubic_root, _ = P.largest_real_root(P.star_matching_cubic(m))
        quartic_root, _ = P.largest_real_root(P.star_matching_quartic(m))
        assert abs(cubic_root - quartic_root) <= 1e-12, m
        assert abs(lam - cubic_root) <= 1e-9, m
        d = F.double_star(m - 2, 1)
        closed = math.sqrt((m + math.sqrt(m * m - 4 * m + 8)) / 2)
        assert abs(spectral_radius(d).lam - closed) <= 1e-9, m

    for m in range(26, 61):
        g = P.star_matching_quartic(m)
        p = next((p for p in range(2, math.isqrt(m + 1) + 1) if (m + 1) % p == 0), None)
        if p is not None:
            f1 = P.bipartite_minus_poly(m, p)
            assert f1 - g == P.Polynomial([5 - p - Fraction(m + 1, p), 2]), (m, p)
        p = next((p for p in range(2, math.isqrt(m - 1) + 1) if (m - 1) % p == 0), None)
        if p is not None:
            f2 = P.bipartite_plus_poly(m, p)
            assert f2 - g == P.Polynomial([2 - Fraction(m - 1, p), 2]), (m, p)

    twin_sandwiched = [m for m in range(26, 201, 2)
                       if P._is_prime(m - 1) and P._is_prime(m + 1)]
    assert twin_sandwiched, "the range must contain twin-prime sandwiched sizes"
    for m in twin_sandwiched:
        assert P.nested_radical_below(m, inner_shift=0), m
        lam = spectral_radius(F.star_matching(m, 1)).lam
        assert math.sqrt(m - 1) + 1 / (m - 1) <= lam + 1e-12, m
    _report(10, "star-plus-edge supports, bipartite ceilings, twin-prime chain", t0)


def test_criterion_11_construction_contract():
    t0 = time.perf_counter()
    for m in range(22, 61):
        for thm in ("c5_runner_up", "c6_runner_up"):
            rep = SR.verify_theorem(thm, m)
            assert rep.status == "pass", (thm, m, rep.checks)
    for m in range(26, 61):
        rep = SR.verify_theorem("theta_pair_runner_up", m)
        assert rep.status == "pass", (m, rep.checks)
    _report(11, "construction contracts for the runner-up claims, m through 60", t0)
