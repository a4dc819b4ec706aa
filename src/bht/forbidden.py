"""Subgraph containment tests (not necessarily induced) with witnesses.

The detector is a backtracking injective homomorphism search: pattern
vertices v_0, v_1, ... are taken in descending-degree order (ties by
index) and host candidates in ascending index, with degree and
neighbourhood-bitset pruning.  The first embedding found is the
deterministic witness: the lexicographically least embedding E*, read
as the host sequence (E*(v_0), E*(v_1), ...).

Each pattern gets one plan, built on first use and cached (by name for
the named patterns, by adjacency for a ``Graph``): the validated
pattern, its cycle rank, the vertex order, the degrees and earlier
neighbours per position, and symmetry-breaking conditions (Grochow &
Kellis 2007, "Network motif discovery using subgraph enumeration and
symmetry-breaking").  The conditions come from a walk along the order
with a group G that starts as Aut(P): at position i, every u != v_i in
the orbit of v_i under G must receive a larger host than v_i; then G
shrinks to the stabiliser of v_i.  u lies in that orbit iff some
automorphism fixes v_0 .. v_{i-1} and maps v_i to u, and an automorphism
is an embedding of P into itself, so the search answers that question
with a pre-assigned prefix.  No plan lists Aut(P), which for K_r has r!
elements.  On a host without the pattern the search then tries each
automorphic image once instead of |Aut(P)| times.

The conditions keep the witness.  Every v_j before v_i is fixed by G.
If sigma in G maps v_i to u, then E* o sigma is an embedding that agrees
with E* before position i and puts E*(u) at position i, so E*(u) <
E*(v_i) would make it lexicographically smaller than E*.  Hence E* meets
every condition, and the constrained search, still trying hosts in
ascending order, returns E*.  Tests pin the witnesses over a fixed
corpus and compare them with the unconstrained search.

Hosts are cut by open twins, the vertices with one adjacency row.  The
books, split pendants and cones of the theorems have one large such
class, and on a free host the search would walk partial embeddings
through all of it.  When a class has more than p = |V(P)| members, the
search takes only its p lowest-indexed vertices: the rest start out as
used.  This keeps the witness too.  Swapping two open twins is an
automorphism of the host.  If E* used a vertex beyond the first p of its
class, some twin among those p would be unused, since E* has only p
vertices, and the swap would give an embedding smaller than E*.  So E*
avoids the cut vertices, and the search returns it.
``g.n - len(set(g.adj)) >= p`` is necessary for a class to exceed p, so
other hosts pay one ``set``.  Closed twins need no cut: a closed-twin
class of more than p vertices is a clique K_{p+1}, which contains P.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from . import families
from .graphs import Graph, is_connected

NAMED_PATTERNS = ("c5", "c6", "theta122", "theta123", "theta124")


def named_pattern(name: str) -> Graph:
    """Materialise one of the five named forbidden patterns."""
    if name == "c5":
        return families.cycle(5)
    if name == "c6":
        return families.cycle(6)
    if name.startswith("theta") and len(name) == 8:
        p, q, r = (int(c) for c in name[5:])
        return families.theta(p, q, r)
    raise ValueError(f"unknown pattern {name!r}")


def as_pattern(pattern: Graph | str) -> Graph:
    g = named_pattern(pattern) if isinstance(pattern, str) else pattern
    if g.m == 0 or not is_connected(g):
        raise ValueError("patterns must be connected with at least one edge")
    return g


class _Plan(NamedTuple):
    """How to search for one pattern; indices below are positions in ``order``."""

    graph: Graph
    m: int
    rank: int  # cycle rank m - n + 1 (patterns are connected)
    order: tuple[int, ...]  # pattern vertices, descending degree, ties by index
    pdeg: tuple[int, ...]  # degree per position
    back: tuple[tuple[int, ...], ...]  # earlier positions adjacent to this one
    below: tuple[tuple[int, ...], ...]  # earlier positions whose host must be smaller


def _plan(pattern: Graph | str) -> _Plan:
    return _build_plan(pattern if isinstance(pattern, str) else pattern.adj)


@cache
def _build_plan(key: str | tuple[int, ...]) -> _Plan:
    p = as_pattern(key if isinstance(key, str) else Graph(len(key), key))
    order = tuple(sorted(range(p.n), key=lambda v: (-p.degree(v), v)))
    pdeg = tuple(p.degree(v) for v in order)
    back = tuple(tuple(j for j in range(i) if p.adj[v] >> order[j] & 1)
                 for i, v in enumerate(order))
    unbroken = _Plan(p, p.m, p.m - p.n + 1, order, pdeg, back, ((),) * p.n)
    pos = {v: i for i, v in enumerate(order)}
    below: list[list[int]] = [[] for _ in order]
    for i, v in enumerate(order):
        # automorphisms fixing v_0 .. v_{i-1} (the prefix of ``assign``)
        assign = list(order[:i]) + [-1] * (p.n - i)
        for u in range(p.n):
            if u == v or u in order[:i] or p.degree(u) != pdeg[i]:
                continue
            if any(not p.adj[order[j]] >> u & 1 for j in back[i]):
                continue
            assign[i] = u
            if _extend(p.adj, unbroken, assign, i + 1):
                below[pos[u]].append(i)
    return unbroken._replace(below=tuple(map(tuple, below)))


def cycle_rank(pattern: Graph | str) -> int:
    """The dimension m - n + 1 of the pattern's cycle space.  A subgraph's
    cycle space lies inside its host's (Diestel, Graph Theory, 1.9), so no
    host of a smaller cycle rank contains the pattern."""
    return _plan(pattern).rank


def _extend(adj: tuple[int, ...], plan: _Plan, assign: list[int], start: int,
            used: int = 0) -> bool:
    """Complete ``assign[:start]`` (position -> host vertex) in place to an
    embedding into the host with rows ``adj`` that avoids the hosts in the
    bitset ``used``, trying hosts in ascending order; False, with
    ``assign[start:]`` unspecified, when none exists."""
    n = len(plan.order)
    pdeg, back, below = plan.pdeg, plan.back, plan.below
    full = (1 << len(adj)) - 1

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        # free hosts adjacent to all previously matched neighbours and above
        # the hosts the symmetry-breaking conditions put below this one
        cand = full & ~used
        for j in back[i]:
            cand &= adj[assign[j]]
        for j in below[i]:
            cand &= ~((2 << assign[j]) - 1)
        while cand:
            low = cand & -cand
            cand ^= low
            h = low.bit_length() - 1
            if adj[h].bit_count() < pdeg[i]:
                continue
            assign[i] = h
            if extend(i + 1, used | low):
                return True
        return False

    for h in assign[:start]:
        used |= 1 << h
    return extend(start, used)


def contains_subgraph(g: Graph, pattern: Graph | str) -> list[int] | None:
    """Return an embedding (pattern vertex -> host vertex) or None.

    The embedding maps every pattern edge onto a host edge; injectivity
    is guaranteed.  Vertices of the pattern are matched in descending
    degree order (ties by index), hosts in ascending index, making the
    witness deterministic.
    """
    plan = _plan(pattern)
    p = plan.graph.n
    if p > g.n or plan.m > g.m:
        return None
    cut = 0  # the open twins beyond the first p of their class
    if g.n - len(set(g.adj)) >= p:  # else no class exceeds p
        room = dict.fromkeys(g.adj, p)
        for v, row in enumerate(g.adj):
            if room[row]:
                room[row] -= 1
            else:
                cut |= 1 << v
    assign = [-1] * p
    if not _extend(g.adj, plan, assign, 0, cut):
        return None
    embedding = [-1] * p
    for v, h in zip(plan.order, assign):
        embedding[v] = h
    return embedding


def is_free(g: Graph, patterns: list[Graph | str]) -> bool:
    """True iff none of the patterns embeds into g."""
    return all(contains_subgraph(g, p) is None for p in patterns)
