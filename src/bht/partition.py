"""Equitable partitions, exact quotient matrices and their polynomials.

A quotient matrix of an equitable partition shares its largest eigenvalue
with the adjacency matrix (Godsil & Royle, Algebraic Graph Theory, 9.3;
a component's cells give a principal submatrix), connected or not, which
makes the closed-form polynomials of the extremal families exactly
reproducible and lets `bht quotient` report λ with no eigen-solve.  Quotient
matrices hold integer neighbour counts, and `charpoly` takes integer
matrices only, so its exact polynomial needs no Fraction.
Each vertex's neighbour count in every block is read off one table per
(graph, partition), which decides equitability and gives the quotient
rows.  Each round of the refinement builds one; the last round splits no
block, so its table also gives the refined partition's quotient rows.

`REFERENCE_PARTITIONS` at the bottom derives each family's layout as the
coarsest equitable refinement that sets apart the few vertices it names,
which keeps every cell the family's stated polynomial counts.
"""

from __future__ import annotations

import operator
from itertools import groupby
from typing import Callable, Sequence

from . import families
from .graphs import Graph
from .polynomials import Polynomial, largest_real_root

Blocks = tuple[tuple[int, ...], ...]


def validate_partition(g: Graph, blocks: Sequence[Sequence[int]]) -> Blocks:
    """Check disjointness, coverage and nonemptiness; return frozen blocks."""
    seen: set[int] = set()
    out = []
    for i, blk in enumerate(blocks):
        vs = tuple(blk)
        if not vs:
            raise ValueError(f"block {i} is empty")
        for v in vs:
            if not 0 <= v < g.n:
                raise ValueError(f"block {i}: vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears twice")
            seen.add(v)
        out.append(vs)
    if len(seen) != g.n:
        raise ValueError("blocks do not cover all vertices")
    return tuple(out)


def _neighbour_counts(g: Graph, blocks: Blocks) -> list[tuple[int, ...]]:
    """Each vertex's neighbour count in every block, indexed by vertex."""
    masks = [sum(1 << v for v in vs) for vs in blocks]  # blocks are disjoint
    return list(zip(*([(row & mask).bit_count() for row in g.adj] for mask in masks)))


def _equitable(blocks: Blocks, counts: list[tuple[int, ...]]) -> bool:
    return all(counts[v] == counts[vs[0]] for vs in blocks for v in vs)


def is_equitable(g: Graph, blocks: Sequence[Sequence[int]]) -> bool:
    """True iff within each block, neighbour counts into every block agree."""
    bl = validate_partition(g, blocks)
    return _equitable(bl, _neighbour_counts(g, bl))


def quotient(g: Graph, blocks: Sequence[Sequence[int]]) -> list[list[int]]:
    """The quotient matrix, of neighbour counts; requires an equitable partition."""
    bl = validate_partition(g, blocks)
    counts = _neighbour_counts(g, bl)
    if not _equitable(bl, counts):
        raise ValueError("partition is not equitable")
    return [list(counts[vs[0]]) for vs in bl]


def charpoly(matrix: Sequence[Sequence[int]]) -> Polynomial:
    """det(xI - M) of an integer matrix, by Faddeev-LeVerrier: its
    coefficients e_k are integers, so every division by k is exact."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    coeffs = [1]  # e_0, e_1, ...
    aux = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # aux <- M @ (aux + e_{k-1} I)
        for i in range(n):
            aux[i][i] += coeffs[-1]
        cols = list(zip(*aux))
        aux = [[sum(map(operator.mul, row, col)) for col in cols] for row in matrix]
        e_k, r = divmod(-sum(aux[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier division left a remainder"
        coeffs.append(e_k)
    return Polynomial(coeffs[::-1])


def adjacency_charpoly(g: Graph) -> Polynomial:
    """Exact characteristic polynomial of the full adjacency matrix."""
    mat = [[g.adj[u] >> v & 1 for v in range(g.n)] for u in range(g.n)]
    return charpoly(mat)


def coarsest_equitable_refinement(g: Graph, seed: Sequence[Sequence[int]]) -> Blocks:
    """Refine the seed partition by neighbour counts until equitable.

    Deterministic: blocks keep their seed order and split by ascending
    count signature; idempotent on already-equitable partitions.
    """
    return _refine(g, seed)[0]


def _refine(g: Graph, seed: Sequence[Sequence[int]]) -> tuple[Blocks, list[list[int]]]:
    """The coarsest equitable refinement of seed and its quotient matrix,
    read off the neighbour counts of the last round, which split no block."""
    blocks = tuple(tuple(sorted(vs)) for vs in validate_partition(g, seed))
    while True:
        counts = _neighbour_counts(g, blocks)
        sig = counts.__getitem__
        # a stable sort keeps the vertices of each new block ascending
        new_blocks = tuple(tuple(part) for vs in blocks
                           for _, part in groupby(sorted(vs, key=sig), key=sig))
        if len(new_blocks) == len(blocks):
            return blocks, [list(counts[vs[0]]) for vs in blocks]
        blocks = new_blocks


def quotient_lambda_check(g: Graph, blocks: Sequence[Sequence[int]]) -> tuple[float, float, bool]:
    """Largest adjacency eigenvalue vs largest quotient root, 1e-9 agreement: equal
    by theorem, kept only for the benchmark's partition op, whose oracle reads it."""
    from .spectral import radius

    lam_a = radius(g)
    lam_q, _ = largest_real_root(charpoly(quotient(g, blocks)))
    return lam_a, lam_q, abs(lam_a - lam_q) <= 1e-9


def _named(g: Graph, named: Sequence[int]) -> tuple[Graph, Blocks]:
    """g and the coarsest equitable refinement of the partition that sets
    each named vertex apart from the others (-1 names the last vertex)."""
    named = [range(g.n)[v] for v in named]
    others = [v for v in range(g.n) if v not in named]
    return g, coarsest_equitable_refinement(g, [others, *([v] for v in named)])


def _split_pendant(m: int, t: int) -> Graph:
    if t < 1 or m < t + 3:
        raise ValueError(f"need t >= 1 and m >= t+3, got m={m}, t={t}")
    return families.split_pendant_for_size(m, t)


def _cone_star_edge(m: int, r: int) -> Graph:
    if r < 3 or m < 2 * r + 3:
        raise ValueError(f"need r >= 3 and m >= 2r+3, got m={m}, r={r}")
    return families.k1_join_star_edge(m, r)


def _cone_double_star(m: int) -> Graph:
    """An apex over a double star: vertex 0 the apex, 1 and 2 the centres,
    then the (m-5)/2 leaves of 1, and last the one leaf of 2."""
    if m % 2 == 0 or m < 7:
        raise ValueError(f"need odd m >= 7, got {m}")
    return families.join(families.empty(1), families.double_star((m - 5) // 2, 1))


def _cone_double_star_alt(m: int) -> Graph:
    """The rewired comparison graph: centre 2's leaf detached, and a new
    pendant on the apex as the last vertex."""
    g = _cone_double_star(m)
    return g.remove_edge(2, g.n - 1).add_vertex().add_edge(0, g.n)


def _star_matching(m: int) -> Graph:
    if m < 4:
        raise ValueError("need m >= 4")
    return families.star_matching(m, 1)


def _bipartite(build: Callable[[int, int], Graph], m: int, p: int, e: int) -> Graph:
    """build(p, q) with m = pq + e edges, for a p >= 2 dividing m - e with p <= q."""
    if p < 2 or (m - e) % p or p * p > m - e:
        raise ValueError(f"need p >= 2 dividing m{-e:+d}, p <= sqrt(m{-e:+d}); got m={m}, p={p}")
    return build(p, (m - e) // p)


# entry -> layout(m, **params): the family graph with m edges and the vertices
# it names apart; K_{p,q} minus an edge names the edge's ends, and K_{p,q}
# plus a pendant names the pendant's neighbour and the pendant
REFERENCE_PARTITIONS: dict[str, Callable[..., tuple[Graph, Blocks]]] = {
    "split_pendant": lambda m, t: _named(_split_pendant(m, t), (0, 1)),  # both hubs
    "diamond_k4": lambda m: _named(families.star_diamond_k4(m), (0, 4)),  # K4 hub, star centre
    "cone_star_edge": lambda m, r: _named(_cone_star_edge(m, r), (0, 1)),  # apex, star centre
    "cone_double_star": lambda m: _named(_cone_double_star(m), (0, 1, 2)),  # apex, both centres
    "cone_double_star_alt": lambda m: _named(_cone_double_star_alt(m), (0, 1, -1)),
    "star_matching": lambda m: _named(_star_matching(m), (0,)),  # the centre
    "bipartite_minus": lambda m, p: _named(_bipartite(families.kminus, m, p, -1), (p - 1, -1)),
    "bipartite_plus": lambda m, p: _named(_bipartite(families.kplus, m, p, 1), (0, -1)),
}
