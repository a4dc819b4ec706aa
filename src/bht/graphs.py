"""Immutable simple graphs over bitset adjacency rows.

Vertices are 0..n-1 and every neighbourhood is a Python int used as a
bitset, so the same representation covers both small graphs (single
machine word) and the occasional larger one.  All editing operations
return new Graph values; nothing here mutates.  ``bits`` lists a row's
vertices as a tuple; a mask below 2^13, a row of any graph on at most 13
vertices (every graph the search grows), is read from a table filled on
first use, which thus holds at most 8,192 tuples, and a wider one is
walked.

Validation happens at the public constructor: ``Graph(n, adj)`` checks
that the rows are in range, loop-free and symmetric.  The builders here
make rows that are valid by construction from arguments they check
first, so they build with ``Graph._trusted`` and skip that O(m) walk:
``from_edge_list`` rejects loops and negative endpoints, sets both bits
of each pair and sizes n to the largest endpoint; ``from_graph6`` sets
both bits of each upper-triangle pair below its declared n;
``induced_subgraph`` checks its vertices and keeps the edges among them,
renumbered; ``disjoint_union`` and ``join`` shift valid rows into
disjoint bit ranges and add all or none of the cross pairs;
``add_edge`` and ``remove_edge`` check both endpoints and flip both bits
of a non-loop pair; ``add_vertex`` appends an empty row; ``relabel``
checks its permutation.

The canonical form is a partition-refinement labelling in the style of
McKay's nauty.  Colours start as the dense ranks of the degrees.  Each
refinement round gives every vertex one integer key that packs its
colour and its neighbour count in each colour as base-(n+1) digits, and
re-ranks the keys; a round that leaves the number of cells unchanged
ends the refinement.  While a cell has several vertices, the first
smallest one is split by giving one vertex, per twin class, a colour of
its own, and the search descends.  When every cell of several vertices
is one twin class, that branch splits off the cell's least vertex, which
splits no other cell, so it reaches one leaf: each cell's vertices
coloured in ascending order, which the search takes directly, with no
refinement on the way.  Every discrete colouring met is a
relabelling; the form is the vertex count followed by the
lexicographically least upper-triangle adjacency code over all of them.
Two graphs are isomorphic iff their canonical forms compare equal; tests
check this against an all-permutations oracle for small n and pin the
bytes on a fixed corpus.  ``canonical_labelling`` also returns the
relabelling that attains the form, so relabelling by it gives the class's
canonical graph; ``canonical_form`` is its first element.
``labelling_and_automorphisms`` adds generators of the automorphism
group, read off the same search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable


# each mask below _BITS_BELOW -> its bit positions, filled on first use
_BITS_BELOW = 1 << 13
_BITS: dict[int, tuple[int, ...]] = {}


def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` in increasing order, read from
    ``_BITS`` when ``mask`` is below ``_BITS_BELOW`` and walked otherwise."""
    out = _BITS.get(mask)
    if out is None:
        walk = []
        rest = mask
        while rest:
            low = rest & -rest
            walk.append(low.bit_length() - 1)
            rest ^= low
        out = tuple(walk)
        if mask < _BITS_BELOW:
            _BITS[mask] = out
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``adj[u]`` is the neighbour bitset of u.

    Calling ``Graph(n, adj)`` validates the rows.  The module's builders
    and edits, valid by construction, use ``_trusted`` instead.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {u}: neighbour out of range")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"asymmetric edge ({u},{v})")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Build without ``__post_init__``, for rows that are valid by
        construction: an edit of a valid graph, or a builder, whose
        arguments were checked and which cannot make invalid rows."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    # -- accessors ---------------------------------------------------------

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range 0..{self.n - 1}")

    # -- editing by copy ---------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) rejected")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._trusted(self.n, tuple(rows))

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._trusted(self.n, tuple(rows))

    def remove_vertex(self, v: int) -> "Graph":
        self._check_vertex(v)
        keep = [u for u in range(self.n) if u != v]
        return induced_subgraph(self, keep)

    def add_vertex(self) -> "Graph":
        """Append one isolated vertex."""
        return Graph._trusted(self.n + 1, self.adj + (0,))

    def relabel(self, perm: list[int]) -> "Graph":
        """Apply ``perm`` (new index -> old vertex) and return the copy,
        built without re-validation once ``perm`` is checked."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of the vertices")
        bit = [0] * self.n
        for new, old in enumerate(perm):
            bit[old] = 1 << new
        rows = tuple(sum(map(bit.__getitem__, bits(self.adj[old]))) for old in perm)
        return Graph._trusted(self.n, rows)


# -- construction ------------------------------------------------------------


def from_edge_list(pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build the minimal graph covering all endpoints; duplicates coalesce."""
    pairs = list(pairs)
    for u, v in pairs:
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) rejected")
        if u < 0 or v < 0:
            raise ValueError(f"negative vertex in ({u},{v})")
    n = 1 + max((max(u, v) for u, v in pairs), default=-1)
    rows = [0] * n
    for u, v in pairs:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._trusted(n, tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabelled 0.. in ascending order."""
    vs = sorted(set(vertices))
    for v in vs:
        g._check_vertex(v)
    pos = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for v in vs:
        for w in bits(g.adj[v]):
            if w in pos:
                rows[pos[v]] |= 1 << pos[w]
    return Graph._trusted(len(vs), tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph._trusted(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """All edges of both graphs plus every cross edge."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.adj] + [row << g.n | gmask for row in h.adj]
    return Graph._trusted(g.n + h.n, tuple(rows))


# -- connectivity ------------------------------------------------------------


def components(g: Graph) -> list[int]:
    """Connected components as vertex bitsets, ordered by least vertex.

    Each component grows from its least vertex one breadth-first layer at
    a time: the next layer is the union of the layer's rows, less the
    vertices already reached."""
    adj = g.adj
    rest = (1 << g.n) - 1
    out = []
    while rest:
        comp = layer = rest & -rest
        while layer:
            reach = 0
            for v in bits(layer):
                reach |= adj[v]
            layer = reach & ~comp
            comp |= layer
        rest &= ~comp
        out.append(comp)
    return out


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return len(components(g)) == 1


# -- canonical form ----------------------------------------------------------


def _refine(nbrs: list[tuple[int, ...]], colors: list[int], pw: tuple[int, ...],
            top: int) -> list[int]:
    """Coarsest equitable refinement of ``colors``, as dense colour ranks.

    ``colors`` are dense ranks whose cells all have one degree, so the
    key ``colour * top - sum(pw[colour(w)] for w in N(v))``, with
    ``pw[c] = (n+1) ** (n-1-c)`` and ``top = (n+1) ** n``, orders the
    vertices exactly as (colour, sorted neighbour colours) does: the sum
    writes v's neighbour counts per colour as base-(n+1) digits, colour 0
    first, and more neighbours of a smaller colour means a smaller sorted
    tuple.  The ranks of these keys refine ``colors`` in order, so the
    colouring is stable once a round leaves the number of cells unchanged,
    and a discrete colouring (n cells) is stable without another round.
    """
    n = len(colors)
    cells = max(colors) + 1
    while cells < n:
        cp = [pw[c] for c in colors]
        keys = [c * top - sum(map(cp.__getitem__, nb)) for c, nb in zip(colors, nbrs)]
        ranks = sorted(set(keys))
        if len(ranks) == cells:
            return colors
        cells = len(ranks)
        dense = {k: i for i, k in enumerate(ranks)}
        colors = [dense[k] for k in keys]
    return colors


def twin_masks(adj: tuple[int, ...]) -> list[int]:
    """Each vertex's twin class as a bitmask: the vertices with its open or
    its closed neighbourhood.  u, v are twins iff their neighbourhoods agree
    away from {u, v}, and every permutation of a class is an automorphism."""
    open_: dict[int, int] = {}
    closed: dict[int, int] = {}
    for v, row in enumerate(adj):
        open_[row] = open_.get(row, 0) | 1 << v
        closed[row | 1 << v] = closed.get(row | 1 << v, 0) | 1 << v
    return [open_[row] | closed[row | 1 << v] for v, row in enumerate(adj)]


def _adjacency_code(nbrs: list[tuple[int, ...]], colors: list[int], bit: tuple[int, ...]) -> int:
    """Upper triangle of the adjacency matrix relabelled by the discrete
    ``colors``, row by row, as one integer (first bit most significant).

    ``bit[c] = 1 << (n-1-c)``, so the relabelled row of the vertex coloured
    i has its columns j > i as its low n-1-i bits, column i+1 highest.
    """
    n = len(colors)
    cb = [bit[c] for c in colors]
    rows = [0] * n
    for c, nb in zip(colors, nbrs):
        rows[c] = sum(map(cb.__getitem__, nb))
    code = 0
    for i, row in enumerate(rows):
        code = (code << (n - 1 - i)) | (row & (bit[i] - 1))
    return code


@cache
def _powers(n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``pw``, ``bit`` and ``top`` for ``_refine`` and ``_adjacency_code``."""
    return (tuple((n + 1) ** (n - 1 - c) for c in range(n)),
            tuple(1 << (n - 1 - c) for c in range(n)), (n + 1) ** n)


def labelling_and_automorphisms(g: Graph) -> tuple[bytes, list[int], list[tuple[int, ...]]]:
    """``canonical_labelling(g)`` and generators of Aut(g), each a tuple
    ``p`` that maps vertex v to ``p[v]``.

    The generators come with the search: the transpositions within each
    twin class, and the map between the first leaf of least code and each
    later leaf with that code.  Every leaf apart from the twin-pruned
    branches is visited, and each pruned branch is a twin swap of one
    visited, so Aut(g) carries the first least leaf onto each visited
    leaf of least code composed with twin swaps; these generate Aut(g).
    """
    n = g.n
    if n == 0:
        return (0).to_bytes(2, "big"), [], []
    adj = g.adj
    nbrs = [bits(row) for row in adj]
    pw, bit, top = _powers(n)
    best: list = []
    twins: list[int] = []
    generators: list[tuple[int, ...]] = []

    def descend(colors: list[int]) -> None:
        colors = _refine(nbrs, colors, pw, top)
        k = max(colors) + 1
        if k < n:
            if not twins:
                twins[:] = twin_masks(adj)
            cells = [0] * k
            for v, c in enumerate(colors):
                cells[c] |= 1 << v
            if any(twins[(cell & -cell).bit_length() - 1] & cell != cell
                   for cell in cells if cell & (cell - 1)):
                target = min((cell.bit_count(), c) for c, cell in enumerate(cells)
                             if cell & (cell - 1))[1]
                # swapping twins is an automorphism, so one branch per twin class
                cell = cells[target]
                for v in bits(cell):
                    if twins[v] & cell & ((1 << v) - 1):
                        continue
                    branched = [c if c < target else c + 1 for c in colors]
                    branched[v] = target
                    descend(branched)
                return
            # every cell of several vertices is one twin class: the branching
            # splits off its least vertex, which splits no other cell, so it
            # reaches one leaf, that of each cell's vertices in ascending order
            leaf = [0] * n
            for i, v in enumerate(sorted(range(n), key=colors.__getitem__)):
                leaf[v] = i
            colors = leaf
        code = _adjacency_code(nbrs, colors, bit)
        if not best or code < best[0]:
            best[:] = [code, colors]
        elif code == best[0]:
            # equal codes: the vertex labelled i here maps to the one
            # labelled i at the first such leaf
            first = [0] * n
            for v, c in enumerate(best[1]):
                first[c] = v
            generators.append(tuple(first[c] for c in colors))

    degrees = [len(nb) for nb in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    descend([rank[d] for d in degrees])
    for v, twin in enumerate(twins):
        if not twin & ((1 << v) - 1):  # v is the least of its class
            for t in bits(twin & ~(1 << v)):
                swap = list(range(n))
                swap[v], swap[t] = t, v
                generators.append(tuple(swap))
    code, colors = best
    labelling = [0] * n
    for v, c in enumerate(colors):
        labelling[c] = v
    k = n * (n - 1) // 2
    nbytes = (k + 7) // 8
    form = n.to_bytes(2, "big") + (code << (nbytes * 8 - k)).to_bytes(nbytes, "big")
    return form, labelling, generators


def canonical_labelling(g: Graph) -> tuple[bytes, list[int]]:
    """The canonical form and a labelling that attains it: ``labelling[i]``
    is the vertex of ``g`` that takes label i, so ``g.relabel(labelling)``
    is the canonical graph, whose upper-triangle code the form stores."""
    form, labelling, _ = labelling_and_automorphisms(g)
    return form, labelling


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant byte string; equal iff graphs are isomorphic."""
    return canonical_labelling(g)[0]


# -- file formats -------------------------------------------------------------

_MAX_N = 258047  # the most vertices that graph6's four-character size prefix holds


def parse_edge_list(text: str) -> Graph:
    """One ``u v`` pair per line, 0-indexed; ``#`` starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}") from None
        if max(u, v) >= _MAX_N:
            raise ValueError(f"line {lineno}: vertex {max(u, v)} exceeds {_MAX_N - 1}, "
                             "the largest that graph6 holds")
        pairs.append((u, v))
    return from_edge_list(pairs)


def format_edge_list(g: Graph) -> str:
    lines = [f"# {g.n} vertices, {g.m} edges"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def to_graph6(g: Graph) -> str:
    """graph6 encoding: 6-bit chunks of the upper triangle, offset 63."""
    n = g.n
    if n > _MAX_N:
        raise ValueError(f"graph6 supports at most {_MAX_N} vertices here")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bitstring = 0
    k = 0
    for col in range(1, n):
        for row in range(col):
            bitstring = (bitstring << 1) | (g.adj[row] >> col & 1)
            k += 1
    pad = (-k) % 6
    bitstring <<= pad
    k += pad
    body = "".join(chr((bitstring >> s & 63) + 63) for s in range(k - 6, -6, -6))
    return head + body


def from_graph6(text: str) -> Graph:
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise ValueError("empty graph6 string")
    vals = [ord(c) - 63 for c in text]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("invalid graph6 character")
    if vals[0] != 63:
        n, body = vals[0], vals[1:]
    else:
        if len(vals) < 4 or vals[1] == 63:
            raise ValueError("unsupported graph6 size prefix")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
        if n < 63:
            raise ValueError(f"graph6 long size prefix for n = {n} < 63")
    need = n * (n - 1) // 2
    if len(body) != (chars := -(-need // 6)):
        raise ValueError(f"graph6 body of {len(body)} characters for n = {n}, expected {chars}")
    bitstring = 0
    for v in body:
        bitstring = (bitstring << 6) | v
    pad = len(body) * 6 - need
    if bitstring & ((1 << pad) - 1):
        raise ValueError("graph6 padding bits are not zero")
    bitstring >>= pad
    rows = [0] * n
    k = need
    for col in range(1, n):
        for row in range(col):
            k -= 1
            if bitstring >> k & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
    return Graph._trusted(n, tuple(rows))
