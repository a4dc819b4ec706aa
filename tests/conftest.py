"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from bht.graphs import Graph, bits, from_edge_list


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """All-permutations isomorphism oracle (n <= 8)."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    for perm in permutations(range(g.n)):
        if all(
            (g.adj[u] >> v & 1) == (h.adj[perm[u]] >> perm[v] & 1)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def brute_contains(host: Graph, pattern: Graph) -> bool:
    """Exhaustive injective-map subgraph oracle (small sizes only)."""
    if pattern.n > host.n:
        return False
    edges = pattern.edges()
    for sub in combinations(range(host.n), pattern.n):
        for perm in permutations(sub):
            if all(host.adj[perm[u]] >> perm[v] & 1 for u, v in edges):
                return True
    return False


def unbroken_contains_subgraph(g: Graph, p: Graph) -> list[int] | None:
    """The subgraph search without symmetry-breaking conditions: pattern
    vertices in descending-degree order, hosts in ascending index, so the
    first embedding found is the lexicographically least one.  It tries
    every automorphic image of the pattern, and is the witness oracle."""
    if p.n > g.n or p.m > g.m:
        return None
    order = sorted(range(p.n), key=lambda v: (-p.degree(v), v))
    back = [[j for j in range(i) if p.has_edge(v, order[j])] for i, v in enumerate(order)]
    assign = [-1] * p.n
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == p.n:
            return True
        cand = ~used & ((1 << g.n) - 1)
        for j in back[i]:
            cand &= g.adj[assign[j]]
        for h in bits(cand):
            if g.adj[h].bit_count() < p.degree(order[i]):
                continue
            assign[i] = h
            used |= 1 << h
            if extend(i + 1):
                return True
            used &= ~(1 << h)
        return False

    if not extend(0):
        return None
    embedding = [-1] * p.n
    for i, v in enumerate(order):
        embedding[v] = assign[i]
    return embedding


def random_connected(rng: random.Random, n_lo: int = 4, n_hi: int = 14,
                     extra_hi: int = 6) -> Graph:
    """Random connected graph: random spanning tree plus extra edges."""
    n = rng.randint(n_lo, n_hi)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, extra_hi)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return from_edge_list(sorted(edges))


def random_bipartite_connected(rng: random.Random, n_lo: int = 4, n_hi: int = 14) -> Graph:
    """Random connected bipartite graph (hence triangle-free)."""
    while True:
        n = rng.randint(n_lo, n_hi)
        a = rng.randint(1, n - 1)
        edges = set()
        for left in range(a):
            right = rng.randrange(a, n)
            edges.add((left, right))
        for right in range(a, n):
            left = rng.randrange(a)
            edges.add((left, right))
        for _ in range(rng.randint(0, 8)):
            left, right = rng.randrange(a), rng.randrange(a, n)
            edges.add((left, right))
        g = from_edge_list(sorted(edges))
        from bht.graphs import is_connected

        if g.n == n and is_connected(g):
            return g


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
