"""Equitable partitions, exact quotient matrices and their polynomials.

A quotient matrix of an equitable partition shares its largest eigenvalue
with the adjacency matrix, which is what makes the closed-form
polynomials of the extremal families exactly reproducible.  Quotient
matrices hold integer neighbour counts, and `charpoly` runs on integers,
clearing denominators only where an entry is a Fraction, so its exact
polynomial needs no Fraction; the float world only enters in
`charpoly_lambda_check`, which confronts the exact largest root with the
dense eigenvalue solver.
Each vertex's neighbour count in every block is read off one table per
(graph, partition), which decides equitability, gives the quotient rows
and drives each round of the refinement.

The ``*_partition`` helpers at the bottom return (graph, blocks) pairs
for the specific layouts produced by `bht.families`, block-ordered so the
quotient matrices come out in their reference shape.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import groupby
from typing import Sequence

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


def charpoly(matrix: Sequence[Sequence[int | Fraction]]) -> Polynomial:
    """det(xI - M) with exact rational coefficients.

    Faddeev-LeVerrier runs on the integer matrix N = D*M, with D the lcm of
    the entries' denominators: det(yI - N) has integer coefficients e_k, so
    every division by k is exact, and det(xI - M) = D^-n det(DxI - N) has
    coefficients e_k / D^k, the integers e_k D^(n-k) over D^n.  Quotient and
    adjacency matrices are integer matrices, D = 1, and no Fraction is built.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    m = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in matrix]
    den = math.lcm(*(x.denominator for row in m for x in row))
    ints = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    coeffs = [1]  # e_0, e_1, ...
    aux = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # aux <- N @ (aux + e_{k-1} I)
        for i in range(n):
            aux[i][i] += coeffs[-1]
        cols = list(zip(*aux))
        aux = [[sum(map(operator.mul, row, col)) for col in cols] for row in ints]
        e_k, r = divmod(-sum(aux[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier division left a remainder"
        coeffs.append(e_k)
    return Polynomial([e * den ** (n - k) for k, e in enumerate(coeffs)][::-1], den**n)


def adjacency_charpoly(g: Graph) -> Polynomial:
    """Exact characteristic polynomial of the full adjacency matrix."""
    mat = [[g.adj[u] >> v & 1 for v in range(g.n)] for u in range(g.n)]
    return charpoly(mat)


def coarsest_equitable_refinement(g: Graph, seed: Sequence[Sequence[int]]) -> Blocks:
    """Refine the seed partition by neighbour counts until equitable.

    Deterministic: blocks keep their seed order and split by ascending
    count signature; idempotent on already-equitable partitions.
    """
    blocks = tuple(tuple(sorted(vs)) for vs in validate_partition(g, seed))
    while True:
        sig = _neighbour_counts(g, blocks).__getitem__
        # a stable sort keeps the vertices of each new block ascending
        new_blocks = tuple(tuple(part) for vs in blocks
                           for _, part in groupby(sorted(vs, key=sig), key=sig))
        if len(new_blocks) == len(blocks):
            return blocks
        blocks = new_blocks


def charpoly_lambda_check(g: Graph, cp: Polynomial) -> tuple[float, float, bool]:
    """Largest adjacency eigenvalue vs the largest root of cp, 1e-9 agreement."""
    from .spectral import radius

    lam_a = radius(g)
    lam_q, _ = largest_real_root(cp)
    return lam_a, lam_q, abs(lam_a - lam_q) <= 1e-9


def quotient_lambda_check(g: Graph, blocks: Sequence[Sequence[int]]) -> tuple[float, float, bool]:
    """Largest adjacency eigenvalue vs largest quotient root, 1e-9 agreement."""
    return charpoly_lambda_check(g, charpoly(quotient(g, blocks)))


# ---------------------------------------------------------------------------
# reference partitions for the family layouts
# ---------------------------------------------------------------------------


def split_pendant_partition(m: int, t: int) -> tuple[Graph, Blocks]:
    """4 blocks: pendant-carrying hub, other hub, independents, pendants."""
    if t < 1:
        raise ValueError(f"need 1 <= t and m >= t+1, got m={m}, t={t}")
    g = families.split_pendant_for_size(m, t)
    n_base = g.n - t
    if n_base < 3:
        raise ValueError(f"need m >= t+3 for a nonempty independent block, got m={m}, t={t}")
    blocks = (
        (0,),
        (1,),
        tuple(range(2, n_base)),
        tuple(range(n_base, g.n)),
    )
    return g, blocks


def diamond_k4_partition(m: int) -> tuple[Graph, Blocks]:
    """Star joined onto K4: blocks (K4 rim, hub, star leaves, star centre)."""
    g = families.star_diamond_k4(m)
    blocks = ((1, 2, 3), (0,), tuple(range(5, g.n)), (4,))
    return g, blocks


def cone_star_edge_partition(m: int, r: int) -> tuple[Graph, Blocks]:
    """5 blocks: isolates, apex, matched pair, inner centre, plain leaves."""
    isolates = m - 2 * r - 2
    if r < 3 or isolates < 1:
        raise ValueError(f"need r >= 3 and m >= 2r+3, got m={m}, r={r}")
    g = families.k1_join_star_edge(m, r)
    blocks = (
        tuple(range(r + 2, r + 2 + isolates)),
        (0,),
        (2, 3),
        (1,),
        tuple(range(4, r + 2)),
    )
    return g, blocks


def cone_double_star_partition(m: int) -> tuple[Graph, Blocks]:
    """Apex over a double star: 5 singleton-ish blocks per reference layout."""
    if m % 2 == 0 or m < 7:
        raise ValueError(f"need odd m >= 7, got {m}")
    a = (m - 5) // 2
    g = families.join(families.empty(1), families.double_star(a, 1))
    # vertices: 0 apex, 1 centre u, 2 centre u', 3..a+2 leaves of u, a+3 leaf of u'
    blocks = ((0,), (1,), (2,), (a + 3,), tuple(range(3, a + 3)))
    return g, blocks


def cone_double_star_alt_partition(m: int) -> tuple[Graph, Blocks]:
    """The rewired comparison graph: deep leaf detached, pendant on the apex."""
    g, _ = cone_double_star_partition(m)
    a = (m - 5) // 2
    g = g.remove_edge(2, a + 3).add_vertex().add_edge(0, g.n)
    blocks = ((0,), (1,), (a + 3,), (g.n - 1,), tuple(range(3, a + 3)) + (2,))
    return g, blocks


def star_matching_partition(m: int, merged: bool = True) -> tuple[Graph, Blocks]:
    """Star plus one matching edge; 3 blocks merged, 4 blocks otherwise."""
    if m < 4:
        raise ValueError("need m >= 4")
    g = families.star_matching(m, 1)
    if merged:
        blocks: Blocks = ((0,), (1, 2), tuple(range(3, m)))
    else:
        blocks = ((0,), (1,), (2,), tuple(range(3, m)))
    return g, blocks


def bipartite_minus_partition(m: int, p: int) -> tuple[Graph, Blocks]:
    """Complete bipartite minus an edge, 4 blocks isolating the missing pair."""
    if p < 2 or (m + 1) % p or p * p > m + 1:
        raise ValueError(f"need p >= 2 dividing m+1, p <= sqrt(m+1); got m={m}, p={p}")
    q = (m + 1) // p
    g = families.kminus(p, q)
    blocks = (tuple(range(p - 1)), (p - 1,), tuple(range(p, p + q - 1)), (p + q - 1,))
    return g, blocks


def bipartite_plus_partition(m: int, p: int) -> tuple[Graph, Blocks]:
    """Complete bipartite plus a pendant, 4 blocks isolating the new edge."""
    if p < 2 or (m - 1) % p or p * p > m - 1:
        raise ValueError(f"need p >= 2 dividing m-1, p <= sqrt(m-1); got m={m}, p={p}")
    q = (m - 1) // p
    g = families.kplus(p, q)
    blocks = (tuple(range(1, p)), (0,), tuple(range(p, p + q)), (p + q,))
    return g, blocks


REFERENCE_PARTITIONS = {
    "split_pendant": split_pendant_partition,
    "diamond_k4": diamond_k4_partition,
    "cone_star_edge": cone_star_edge_partition,
    "cone_double_star": cone_double_star_partition,
    "cone_double_star_alt": cone_double_star_alt_partition,
    "star_matching": star_matching_partition,
    "bipartite_minus": bipartite_minus_partition,
    "bipartite_plus": bipartite_plus_partition,
}
