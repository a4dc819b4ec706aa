"""Constructors for the named graph families.

Every constructor validates its parameter constraints (including parity,
which is a hard error rather than silent rounding) and produces a fixed
vertex layout so that the equitable partitions used elsewhere can be
written down by index:

* ``complete_split(n, k)``: clique on 0..k-1, independent set after.
* ``split_pendant(n, k, t)``: complete split part first, then the t
  pendant vertices, all hanging off vertex 0 (the lowest-indexed
  dominating vertex).
* ``star_matching(n, k)``: centre 0, leaves 1..n-1, matching edges
  (1,2), (3,4), ...
* ``theta(p, q, r)``: the two hubs are 0 and 1, path interiors follow.
* ``double_star(a, b)``: adjacent centres 0 and 1, the a leaves of 0
  before the b leaves of 1.

The three base constructors write their rows directly and skip the
validation of ``Graph(n, adj)``, since the rows are valid by construction:
``empty(n)`` has no edges, ``complete(n)`` gives each vertex every other
vertex of 0..n-1, and ``complete_bipartite(a, b)`` gives each side the
other side's full range.  The rest build through the valid-by-construction
builders and edits of ``graphs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graphs import Graph, disjoint_union, from_edge_list, join


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic name plus integer parameters identifying one family member."""

    name: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.name}({','.join(map(str, self.params))})"


def empty(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Graph._trusted(n, (0,) * n)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be nonnegative")
    full = (1 << n) - 1
    return Graph._trusted(n, tuple(full & ~(1 << v) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ValueError("part sizes must be nonnegative")
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    return Graph._trusted(a + b, tuple(right for _ in range(a)) + tuple(left for _ in range(b)))


def star(n: int) -> Graph:
    """K_{1,n-1} with centre 0."""
    if n < 1:
        raise ValueError("a star needs at least one vertex")
    return complete_bipartite(1, n - 1)


def path(n: int) -> Graph:
    return from_edge_list([(i, i + 1) for i in range(n - 1)]) if n > 1 else empty(n)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return from_edge_list([(i, (i + 1) % n) for i in range(n)])


def complete_split(n: int, k: int) -> Graph:
    """K_k joined to n-k independent vertices; k*(k-1)/2 + k(n-k) edges."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return join(complete(k), empty(n - k))


def book(m: int) -> Graph:
    """The odd-size complete split graph with 2 dominating vertices."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"book graph needs odd m >= 3, got {m}")
    return complete_split((m + 3) // 2, 2)


def split_pendant(n: int, k: int, t: int) -> Graph:
    """Complete split graph plus t pendants on its first dominating vertex."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n - t < 1:
        raise ValueError(f"no vertex left to attach pendants: n={n}, t={t}")
    base = complete_split(n - t, k)
    if t and k == 0 and n - t > 1:
        raise ValueError("pendants need a dominating vertex, so k >= 1")
    return _pendants(base, t)


def _pendants(g: Graph, t: int) -> Graph:
    """g with t new vertices, each pendant on vertex 0, after g's vertices."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    for _ in range(t):
        g = g.add_vertex().add_edge(0, g.n)
    return g


def split_pendant_for_size(m: int, t: int) -> Graph:
    """The k=2 split-pendant graph with exactly m edges and t pendants."""
    if (m + t) % 2 == 0:
        raise ValueError(f"m={m} and t={t} must have opposite parity")
    if m < t + 1:
        raise ValueError(f"need m >= t+1, got m={m}, t={t}")
    return split_pendant((m + t + 3) // 2, 2, t)


def star_matching(n: int, k: int) -> Graph:
    """Star K_{1,n-1} plus k disjoint edges inside the leaf set; m = n-1+k."""
    if k < 0 or 2 * k > n - 1:
        raise ValueError(f"need 0 <= 2k <= n-1, got n={n}, k={k}")
    g = star(n)
    for i in range(k):
        g = g.add_edge(2 * i + 1, 2 * i + 2)
    return g


def generalized_theta(lengths: list[int]) -> Graph:
    """Two hub vertices joined by internally disjoint paths of the given lengths."""
    ls = list(lengths)
    if len(ls) < 2:
        raise ValueError("need at least two paths")
    if ls != sorted(ls):
        raise ValueError("path lengths must be nondecreasing")
    if any(l < 1 for l in ls) or ls.count(1) > 1 or (len(ls) > 1 and ls[1] < 2):
        raise ValueError(f"invalid path lengths {ls}: at most one length-1 path")
    edges = []
    nxt = 2
    for l in ls:
        prev = 0
        for _ in range(l - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return from_edge_list(edges)


def theta(p: int, q: int, r: int) -> Graph:
    if not (p <= q <= r and q >= 2 and p >= 1):
        raise ValueError(f"need 1 <= p <= q <= r and q >= 2, got ({p},{q},{r})")
    return generalized_theta([p, q, r])


def r_chain(k: int) -> Graph:
    """k copies of K_4 sharing the single common vertex 0; 6k edges."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    edges = []
    for i in range(k):
        block = [0, 3 * i + 1, 3 * i + 2, 3 * i + 3]
        edges += [(a, b) for ai, a in enumerate(block) for b in block[ai + 1:]]
    return from_edge_list(edges) if k else empty(1)


def double_star(a: int, b: int) -> Graph:
    """Adjacent centres with a and b leaves respectively; a+b+1 edges."""
    if a < 0 or b < 0:
        raise ValueError("leaf counts must be nonnegative")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return from_edge_list(edges)


def kminus(s: int, t: int) -> Graph:
    """K_{s,t} minus one edge (between the last vertex of each side); st-1 edges."""
    if not 2 <= s <= t:
        raise ValueError(f"need 2 <= s <= t, got ({s},{t})")
    return complete_bipartite(s, t).remove_edge(s - 1, s + t - 1)


def kplus(s: int, t: int) -> Graph:
    """K_{s,t} plus a new vertex pendant on vertex 0 of the s-side; st+1 edges."""
    if not 2 <= s <= t:
        raise ValueError(f"need 2 <= s <= t, got ({s},{t})")
    g = complete_bipartite(s, t).add_vertex()
    return g.add_edge(0, s + t)


def k1_join_star_edge(m: int, r: int) -> Graph:
    """K_1 joined to (star-plus-edge on r+1 vertices, plus isolated vertices).

    The apex is vertex 0; the star-plus-edge component is star_matching(r+1, 1)
    shifted by one; the m-2r-2 isolated vertices come last.  Total size m.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    isolates = m - 2 * r - 2
    if isolates < 0:
        raise ValueError(f"need m >= 2r+2, got m={m}, r={r}")
    return join(empty(1), disjoint_union(star_matching(r + 1, 1), empty(isolates)))


def k1_join_candidate(m: int) -> Graph:
    """The cone candidate of the right parity: apex over S^1 (even m adds
    no isolate, odd m adds one)."""
    if m % 2 == 0:
        if m < 8:
            raise ValueError("even cone candidate needs m >= 8")
        return k1_join_star_edge(m, m // 2 - 1)
    if m < 9:
        raise ValueError("odd cone candidate needs m >= 9")
    return k1_join_star_edge(m, (m - 3) // 2)


def star_diamond_k4(m: int) -> Graph:
    """K_4 with its first vertex joined to every vertex of a star; m edges.

    Layout: the K_4 on 0..3, then the star centre 4 and its leaves.
    """
    if m % 2 == 0 or m < 9:
        raise ValueError(f"star_diamond_k4 needs odd m >= 9, got {m}")
    g = disjoint_union(complete(4), star((m - 7) // 2 + 1))
    for v in range(4, g.n):
        g = g.add_edge(0, v)
    return g


# name -> (constructor, the CLI's parameter names in argument order);
# generalized_theta takes any number of path lengths
FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...] | None]] = {
    "complete": (complete, ("n",)),
    "complete_bipartite": (complete_bipartite, ("a", "b")),
    "star": (star, ("n",)),
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "complete_split": (complete_split, ("n", "k")),
    "book": (book, ("m",)),
    "split_pendant": (split_pendant, ("n", "k", "t")),
    "split_pendant_size": (split_pendant_for_size, ("m", "t")),
    "star_matching": (star_matching, ("n", "k")),
    "theta": (theta, ("p", "q", "r")),
    "generalized_theta": (lambda *lengths: generalized_theta(list(lengths)), None),
    "r_chain": (r_chain, ("k",)),
    "double_star": (double_star, ("a", "b")),
    "kminus": (kminus, ("s", "t")),
    "kplus": (kplus, ("s", "t")),
    "k1_join_star_edge": (k1_join_star_edge, ("m", "r")),
    "k1_join_candidate": (k1_join_candidate, ("m",)),
    "hts0_r_chain": (lambda t, k: _pendants(r_chain(k), t), ("t", "k")),
    "star_diamond_k4": (star_diamond_k4, ("m",)),
}


def _family(name: str) -> tuple[Callable[..., Graph], tuple[str, ...] | None]:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[name]


def spec_from_params(name: str, params: dict[str, int]) -> FamilySpec:
    """The FamilySpec for named parameters (generalized_theta: in key order)."""
    names = _family(name)[1]
    if names is None:
        return FamilySpec(name, tuple(params[k] for k in sorted(params)))
    if any(k not in params for k in names):
        raise ValueError(f"{name} needs parameters {names}")
    if unknown := sorted(set(params) - set(names)):
        raise ValueError(f"{name} takes no parameters {unknown}; expected {names}")
    return FamilySpec(name, tuple(params[k] for k in names))


def build(spec: FamilySpec) -> Graph:
    """Materialise a FamilySpec (the names accepted by the CLI)."""
    return _family(spec.name)[0](*spec.params)


def theorem_candidates(m: int) -> list[tuple[FamilySpec, Graph]]:
    """Every graph named by the main theorems at size m, with parity filtering.

    Each returned graph is asserted to have exactly m edges.  The pendant
    split has the pendant count of m's crossover class.
    """
    from .polynomials import crossover_at  # here, so that importing families loads no polynomials

    if m < 4:
        raise ValueError("need m >= 4")
    out: list[tuple[FamilySpec, Graph]] = []
    t = crossover_at(m).split_t

    def emit(spec: FamilySpec, g: Graph) -> None:
        assert g.m == m, f"{spec} has {g.m} edges, wanted {m}"
        out.append((spec, g))

    if m % 2 == 1:
        emit(FamilySpec("book", (m,)), book(m))
        if m >= 7:
            emit(FamilySpec("split_pendant_size", (m, t)), split_pendant_for_size(m, t))
        if m >= 9:
            emit(FamilySpec("k1_join_candidate", (m,)), k1_join_candidate(m))
    else:
        emit(FamilySpec("split_pendant_size", (m, t)), split_pendant_for_size(m, t))
        if m >= 8:
            emit(FamilySpec("k1_join_candidate", (m,)), k1_join_candidate(m))
    if m >= 4:
        emit(FamilySpec("star_matching", (m, 1)), star_matching(m, 1))
    return out
