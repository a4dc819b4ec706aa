"""Exhaustive extremal search over small connected graphs of a given size.

Enumeration is levelwise and isomorph-free by canonical augmentation
(McKay 1998, "Isomorph-free exhaustive generation", J. Algorithms 26).
Trees on n vertices grow from the trees on n - 1 by one leaf; a layer
(n, m) with m >= n grows from layer (n, m - 1) by one edge, since a
connected graph with a cycle stays connected when it loses a cycle edge.
The canonical deletion of a graph C is chosen among its leaves (a tree)
or its non-bridge edges (otherwise): those of the largest
isomorphism-invariant key.  Every non-edge e of a parent P (or vertex,
for a leaf) is tried on P unlabelled, and the child C = P + e is accepted
only if e has the largest key in C.  That test reads only invariants of
(P, e), so the accepted edits are a union of Aut(P) orbits, and the least
edit of each orbit is kept.  P is labelled, which yields generators of
Aut(P), only when two of its accepted edits share an invariant (the
sorted degrees and neighbour-degree sums of their endpoints in P); an
edit whose invariant is its own is alone in its orbit.  Each class is
kept exactly once:

- most children are rejected because e's key is not the largest, which
  per-parent degrees, neighbour-degree sums and bridge sides decide in a
  few integer operations, with no labelling;
- a class whose largest key belongs to one edit is generated exactly
  once, as an untied child, one in which e alone has the largest key:
  any edit that gives its class lies in e's Aut(P) orbit.  It is kept
  unlabelled;
- a class whose largest-key edits tie is never an untied child, since
  the tie is a property of the class.  It is generated once per Aut(C)
  orbit of its tied edits.  The layer's tied children are held until
  the layer is grown and then bucketed by ``_signature``, an
  isomorphism invariant, so all copies of a class share a bucket.  A
  child alone in its bucket is kept unlabelled; a bucket of two or more
  is labelled and keeps the first child of each canonical form.

A layer holds one graph per class as generated, labelled only where it
was a parent with colliding edits or shared its bucket.
``connected_layer`` labels the rest on demand and returns each class's
canonical graph (the graph relabelled by its canonical labelling),
sorted by form.  The search scans the layers
as generated and labels a graph only if its spectral radius comes within
reach of the layer's best (see ``_scan``); those near-ties are admitted
in form order with the radius of the canonical graph, so the search
output does not depend on the order of generation either.  The radii
that order the scan are solved in one stacked eigen-solve per layer, once
per class, and kept on the class for every later pattern set; they agree
with the reported radii within rounding only, and are never reported.
Layers are cached in-process and the search can checkpoint per-layer
summaries to disk, under a name that carries the format version, making
forced large runs resumable.

Only connected graphs are scanned.  A disconnected graph has the
spectral radius of a component with k < m edges; a pendant path of
m - k edges attached to that component gives a connected graph with m
edges and a strictly larger spectral radius, and it is still free of
every 2-connected pattern (all the named ones), since a path adds no
cycle.  Layers whose connected-graph ceiling sqrt(2m - n + 1) cannot
reach the running best are skipped; that bound is standard for connected
graphs with minimum degree one (Y. Hong, Linear Algebra Appl. 108, 1988)
and is validated against unpruned runs in the test suite.  The running
best starts at -1 and comes from the scanned layers alone.  No known
graph could seed it usefully: one on n_s vertices has lambda at most
sqrt(2m - n_s + 1), so it could prune only layers n > n_s, and the scan
reaches its own layer n_s first.  The reported ``best_lambda`` is thus
the lambda of the first listed maximizer's canonical graph.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from math import comb, sqrt
from pathlib import Path
from typing import Callable, NamedTuple

from . import families, forbidden
from .graphs import (
    Graph, bits, canonical_form, from_graph6, is_connected, labelling_and_automorphisms,
    to_graph6,
)
from .polynomials import (
    POS_INF,
    Polynomial,
    book_lambda,
    c5_extremal,
    c6_extremal,
    compare_largest_roots,
    count_roots,
    crossover_at,
    gate,
    largest_real_root,
    sign_at,
    star_matching_cubic,
)

TIE_TOL = 1e-9
DEFAULT_CAP = 12
# the most classes that one stacked eigen-solve of ``_scan`` is given
SOLVE_SLICE = 256


class _Class(NamedTuple):
    """One class of a layer: a graph and, once it is labelled, its
    canonical form, a labelling that attains it and generators of its
    automorphism group (``form`` is None until then).  A class is
    labelled when two of the edits it accepts while growing the next
    layer collide, when it is a tied child that shares its signature with
    another, or on demand (``connected_layer``, ``_scan``).  ``radius`` is the graph's spectral radius within
    rounding, solved by the first scan that finds the class free and read
    only to order the scans' walks (None until then)."""

    graph: Graph
    form: bytes | None = None
    labelling: list[int] | None = None
    generators: list[tuple[int, ...]] | None = None
    radius: float | None = None


# (n, m) -> one entry per class of the layer
_LAYERS: dict[tuple[int, int], list[_Class]] = {}


def connected_layer(n: int, m: int) -> list[Graph]:
    """Connected graphs with n vertices and m edges, one per class, sorted
    by canonical form; each is its class's canonical graph.  The cached
    layer keeps its order, so layers grown from it later do not depend on
    this call."""
    layer = _layer(n, m)
    for i in range(len(layer)):
        _labelled(layer, i)
    ordered = sorted(layer, key=lambda c: c.form)
    assert all(a.form < b.form for a, b in zip(ordered, ordered[1:])), "a class was kept twice"
    return [c.graph.relabel(c.labelling) for c in ordered]


def _layer(n: int, m: int) -> list[_Class]:
    """The cached layer (n, m), grown from its parent layer on first use."""
    if n < 1 or m < n - 1 or m > comb(n, 2):
        return []
    key = (n, m)
    if key not in _LAYERS:
        if n == 1:
            layer = [_Class(Graph(1, (0,)))]
        elif m == n - 1:
            layer = _grow_leaves(_layer(n - 1, n - 2))
        else:
            layer = _grow_edges(_layer(n, m - 1))
        _LAYERS[key] = layer
    return _LAYERS[key]


def _labelled(layer: list[_Class], i: int) -> _Class:
    """``layer[i]``, labelled once and stored so."""
    c = layer[i]
    if c.form is None:
        form, labelling, generators = labelling_and_automorphisms(c.graph)
        layer[i] = c._replace(form=form, labelling=labelling, generators=generators)
    return layer[i]


def _orbit_representatives(items: list[tuple[int, ...]], generators) -> list[tuple[int, ...]]:
    """The least of ``items`` (an ascending, closed list of leaves ``(v,)``
    or edges ``(u, v)``, u < v) in each orbit."""
    if not generators:
        return items
    seen: set[tuple[int, ...]] = set()
    out = []
    for t in items:
        if t in seen:
            continue
        out.append(t)
        seen.add(t)
        orbit = [t]
        for s in orbit:
            for p in generators:
                if len(s) == 1:
                    u = (p[s[0]],)
                else:
                    x, y = p[s[0]], p[s[1]]
                    u = (x, y) if x < y else (y, x)
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
    return out


def _bridges(adj: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Each bridge (x, y), x < y, of a connected graph, mapped to the vertex
    set (a bitmask) of the side away from vertex 0 (Tarjan's low links)."""
    disc = [0] * len(adj)
    low = [0] * len(adj)
    out: dict[tuple[int, int], int] = {}

    def visit(v: int, parent: int, t: int) -> tuple[int, int]:
        disc[v] = low[v] = t
        below = 1 << v
        for w in bits(adj[v]):
            if not disc[w]:
                sub, t = visit(w, v, t + 1)
                below |= sub
                low[v] = min(low[v], low[w])
                if low[w] > disc[v]:
                    out[(min(v, w), max(v, w))] = sub
            elif w != parent:
                low[v] = min(low[v], disc[w])
        return below, t

    visit(0, -1, 1)
    return out


def _signature(g: Graph) -> int:
    """An isomorphism invariant of g: its sorted (degree, neighbour-degree
    sum) pairs, packed into one integer."""
    n = g.n
    deg = [row.bit_count() for row in g.adj]
    sig = 0
    for pair in sorted(d * n * n + sum(deg[w] for w in bits(row)) for d, row in zip(deg, g.adj)):
        sig = sig * n ** 3 + pair
    return sig


def _with_tied(kept: list[_Class], tied: list[_Class]) -> list[_Class]:
    """``kept`` and one child per class among ``tied``, the layer's tied
    children.  Copies of a class share a signature: a child alone in its
    bucket is kept unlabelled, and a bucket of more is labelled and keeps
    the first child of each canonical form."""
    buckets: dict[int, list[_Class]] = {}
    for c in tied:
        buckets.setdefault(_signature(c.graph), []).append(c)
    for bucket in buckets.values():
        if len(bucket) == 1:
            kept += bucket
            continue
        forms = set()
        for i in range(len(bucket)):
            c = _labelled(bucket, i)
            if c.form not in forms:
                forms.add(c.form)
                kept.append(c)
    return kept


def _one_per_orbit(parents: list[_Class], i: int, accepted: list[tuple]) -> list[tuple]:
    """The accepted edits of ``parents[i]`` whose edit is the least of its
    Aut(parent) orbit.  ``accepted`` holds (edit, invariant, tie) in
    ascending edit order; its edits are a union of orbits, since the
    key test reads only invariants of (parent, edit).  An edit whose
    invariant no other accepted edit shares is alone in its orbit, so the
    parent is labelled only when two invariants collide."""
    invariants = {a[1] for a in accepted}
    if len(invariants) == len(accepted):
        return accepted
    least = set(_orbit_representatives([a[0] for a in accepted], _labelled(parents, i).generators))
    return [a for a in accepted if a[0] in least]


def _grow_leaves(parents: list[_Class]) -> list[_Class]:
    """The trees on one vertex more, one leaf per Aut(parent) orbit of
    vertices.  A leaf's key is the degree and the neighbour-degree sum of
    its neighbour.  Every vertex of the unlabelled parent is tested; the
    accepted ones are cut to one per orbit by ``_one_per_orbit``, with the
    vertex's degree and neighbour-degree sum as the invariant."""
    kept: list[_Class] = []
    tied: list[_Class] = []
    for i, c in enumerate(parents):
        parent = c.graph
        adj, x = parent.adj, parent.n
        deg = [row.bit_count() for row in adj]
        nsum = [sum(deg[w] for w in bits(row)) for row in adj]
        leaves = [leaf for leaf in range(x) if deg[leaf] == 1]
        grown = parent.add_vertex()
        accepted = []
        for v in range(x):

            def key(y: int) -> tuple[int, int]:
                # y's degree and neighbour-degree sum once x hangs from v
                return deg[y] + (y == v), nsum[y] + (y == v) + (adj[y] >> v & 1)

            mine = key(v)
            tie = False
            # v stops being a leaf; the point's child, the edge, needs no check
            for leaf in leaves:
                if leaf == v:
                    continue
                other = key(adj[leaf].bit_length() - 1)
                if other > mine:
                    break
                tie |= other == mine
            else:
                accepted.append(((v,), (deg[v], nsum[v]), tie))
        for (v,), _, tie in _one_per_orbit(parents, i, accepted):
            (tied if tie else kept).append(_Class(grown.add_edge(v, x)))
    return _with_tied(kept, tied)


def _grow_edges(parents: list[_Class]) -> list[_Class]:
    """The graphs with one edge more on the same vertices, one edge per
    Aut(parent) orbit of non-edges.  An edge's key is its sorted endpoint
    degrees, then its endpoints' common neighbours and sorted
    neighbour-degree sums, computed only on a tie of the degrees.  A
    bridge of the parent stays one in the child iff the new edge's
    endpoints lie on the same side of it.  Every non-edge of the
    unlabelled parent is tested; the accepted ones are cut to one per
    orbit by ``_one_per_orbit``, with the sorted (degree, neighbour-degree
    sum) pairs of the endpoints in the parent as the invariant."""
    kept: list[_Class] = []
    tied: list[_Class] = []
    for i, c in enumerate(parents):
        parent = c.graph
        adj, n = parent.adj, parent.n
        deg = [row.bit_count() for row in adj]
        nsum = [sum(deg[w] for w in bits(row)) for row in adj]
        sides = _bridges(adj)
        edges = [(x, y, sides.get((x, y), 0)) for x, y in parent.edges()]
        full = (1 << n) - 1
        non_edges = [(u, v) for u in range(n) for v in bits(full & ~adj[u] & ~((2 << u) - 1))]
        accepted = []
        for u, v in non_edges:
            cd = deg[:]
            cd[u] += 1
            cd[v] += 1
            a, b = cd[u], cd[v]
            mine = a * n + b if a > b else b * n + a
            rivals = []
            for x, y, side in edges:
                if side and not (side >> u ^ side >> v) & 1:
                    continue  # still a bridge
                a, b = cd[x], cd[y]
                pair = a * n + b if a > b else b * n + a
                if pair > mine:
                    break
                if pair == mine:
                    rivals.append((x, y))
            else:
                tie = False
                if rivals:
                    rows = list(adj)  # the child's rows
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u

                    def rest(x: int, y: int) -> tuple[int, int, int]:
                        # common neighbours, sorted neighbour-degree sums in the child
                        sx = nsum[x] + (adj[x] >> u & 1) + (adj[x] >> v & 1)
                        sy = nsum[y] + (adj[y] >> u & 1) + (adj[y] >> v & 1)
                        sx += (x == u) * cd[v] + (x == v) * cd[u]
                        sy += (y == u) * cd[v] + (y == v) * cd[u]
                        return (rows[x] & rows[y]).bit_count(), max(sx, sy), min(sx, sy)

                    best = rest(u, v)
                    rests = [rest(x, y) for x, y in rivals]
                    if max(rests) > best:
                        continue
                    tie = best in rests
                ends = tuple(sorted(((deg[u], nsum[u]), (deg[v], nsum[v]))))
                accepted.append(((u, v), ends, tie))
        for (u, v), _, tie in _one_per_orbit(parents, i, accepted):
            (tied if tie else kept).append(_Class(parent.add_edge(u, v)))
    return _with_tied(kept, tied)


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------


@dataclass
class SearchReport:
    m: int
    patterns: tuple[str, ...]
    exclusions: tuple[bytes, ...]
    best_lambda: float
    maximizers: list[tuple[Graph, bytes]]
    counts: dict[str, int]
    wall_time: float

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "m": self.m,
            "patterns": list(self.patterns),
            "exclusions": [e.hex() for e in self.exclusions],
            "best_lambda": self.best_lambda,
            "maximizers": [
                {"graph6": to_graph6(g), "n": g.n, "canonical": c.hex()}
                for g, c in self.maximizers
            ],
            "counts": self.counts,
            "wall_time": self.wall_time,
            "connected_only": True,
        }


def _pattern_name(p: Graph | str) -> str:
    return p if isinstance(p, str) else f"graph6:{to_graph6(p)}"


def _admit(best: float, tied: list, cand: tuple[Graph, bytes, float]) -> float:
    """Fold one (graph, canon, lambda) candidate into the running best.

    ``tied`` is updated in place and keeps every candidate within TIE_TOL
    of the returned best.
    """
    lam = cand[2]
    if lam > best + TIE_TOL:
        best = lam
        tied[:] = [cand]
    elif lam > best - TIE_TOL:
        tied.append(cand)
    return best


def _scan(layer: list[_Class], patterns, exclusions: frozenset[bytes]):
    """Near-ties for the best lambda, and the enumerated and free counts,
    over the admissible graphs of a layer, as ``_admit`` finds them in
    form order.

    The free classes whose ``radius`` is still None are solved together,
    in one stacked ``layer_radii`` per ``SOLVE_SLICE`` of them (a stacked
    solve gives each matrix the same bits whatever else is in the stack,
    and the slice caps its memory), and keep it: a class is solved once,
    however many pattern sets scan its layer.  Walking the free graphs by
    that radius, largest first, the contenders are the admissible ones
    down to the first gap wider than 2 * TIE_TOL below the last of them;
    only the graphs met on the way are labelled.  A graph's radius and
    its canonical graph's lambda differ by rounding only, far below
    TIE_TOL / 2, so each contender exceeds every other admissible lambda
    by more than TIE_TOL: the first contender in form order resets the
    best, and after it no other graph is kept or resets it.  The
    contenders' lambda, which ``_admit`` folds and the search reports, is
    ``radius`` of the canonical graph.
    """
    from .spectral import layer_radii, radius

    free = [i for i, c in enumerate(layer) if forbidden.is_free(c.graph, patterns)]
    unsolved = [i for i in free if layer[i].radius is None]
    for lo in range(0, len(unsolved), SOLVE_SLICE):
        part = unsolved[lo:lo + SOLVE_SLICE]
        for i, lam in zip(part, layer_radii([layer[i].graph for i in part])):
            layer[i] = layer[i]._replace(radius=lam)
    lams = sorted(((layer[i].radius, i) for i in free), reverse=True)
    contenders: list[tuple[float, _Class]] = []
    for lam, i in lams:
        if contenders and contenders[-1][0] - lam > 2 * TIE_TOL:
            break
        c = _labelled(layer, i)
        if c.form not in exclusions:
            contenders.append((lam, c))
    best = -1.0
    tied: list[tuple[Graph, bytes, float]] = []
    for _, c in sorted(contenders, key=lambda t: t[1].form):
        g = c.graph.relabel(c.labelling)
        best = _admit(best, tied, (g, c.form, radius(g)))
    return tied, len(layer), len(free)


# Part of every checkpoint's file name.  Raise it when what a checkpoint
# stores changes, so files written before are never read: version 4 stores
# only the tied graphs; 3 drops the per-layer best; 2 stores canonical graphs.
CHECKPOINT_VERSION = 4


def _checkpoint_path(cache_dir: str | Path, m: int, patterns, exclusions) -> Path:
    import hashlib

    tag = json.dumps([
        m,
        sorted(_pattern_name(p) for p in patterns),
        sorted(e.hex() for e in exclusions),
        CHECKPOINT_VERSION,
    ])
    digest = hashlib.sha256(tag.encode()).hexdigest()[:16]
    return Path(cache_dir) / f"search_m{m}_{digest}.json"


_LAYER_KEYS = ("tied", "enumerated", "free")


def _decode_tie(item, key: str, m: int, patterns, exclusions: frozenset[bytes]):
    """A tied entry of layer ``key``, the graph6 of its class's canonical
    graph, as (graph, canon, lambda) derived as ``_scan`` derives them,
    after checking that this search could have kept it there."""
    from .spectral import radius

    if type(item) is not str:
        raise ValueError(f"bad tied entry {item!r}")
    g = from_graph6(item)
    if str(g.n) != key or g.m != m or not is_connected(g):
        raise ValueError(f"tied entry {item!r} is not a connected graph "
                         f"with {key} vertices and {m} edges")
    canon, labelling, _ = labelling_and_automorphisms(g)
    if g.relabel(labelling) != g:
        raise ValueError(f"tied entry {item!r} is not its class's canonical graph")
    if not forbidden.is_free(g, patterns) or canon in exclusions:
        raise ValueError(f"tied entry {item!r} is not admissible")
    return g, canon, radius(g)


def _load_checkpoint(path: Path, m: int, patterns, exclusions: frozenset[bytes]) -> dict[str, tuple]:
    """Per-layer ``_scan`` results saved by an earlier run, keyed by str(n)."""
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        layers = {}
        for key, entry in data.items():
            if not isinstance(entry, dict) or not all(k in entry for k in _LAYER_KEYS):
                raise ValueError(f"layer {key!r} lacks one of {sorted(_LAYER_KEYS)}")
            tied, enumerated, free = (entry[k] for k in _LAYER_KEYS)
            if not (type(tied) is list and type(enumerated) is int and type(free) is int):
                raise ValueError(f"layer {key!r} has a value of the wrong type")
            ties = [_decode_tie(item, key, m, patterns, exclusions) for item in tied]
            layers[key] = (ties, enumerated, free)
    except ValueError as exc:
        raise ValueError(f"corrupt checkpoint {path}: {exc}") from None
    return layers


def _save_checkpoint(path: Path, layers: dict[str, tuple]) -> None:
    """Replace the file in one step, so an interrupted save leaves the old one."""
    data = {
        key: dict(zip(_LAYER_KEYS, ([to_graph6(g) for g, _, _ in tied], enumerated, free)))
        for key, (tied, enumerated, free) in layers.items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(data))
    os.replace(tmp, path)


def extremal_search(
    m: int,
    patterns,
    exclusions=(),
    *,
    force: bool = False,
    prune: bool = True,
    cache_dir: str | Path | None = None,
) -> SearchReport:
    """Locate all spectral-radius maximizers among admissible graphs.

    ``patterns`` are forbidden subgraphs (names or graphs); ``exclusions``
    are canonical forms (or graphs) removed from the candidate set after
    filtering.  Results are exact over the enumerated universe; see the
    module notes on pruning.  Sizes above ``DEFAULT_CAP`` raise ValueError
    unless ``force`` is set.  With ``cache_dir`` set, each scanned layer
    is checkpointed there and reused by later runs; a checkpoint that does
    not decode, or whose tied graphs this search could not have kept,
    raises ValueError naming the file.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if m > DEFAULT_CAP and not force:
        raise ValueError(f"m={m} exceeds the cap {DEFAULT_CAP}; pass --force (force=True) to override")
    patterns = list(patterns)
    excl = frozenset(
        e if isinstance(e, bytes) else canonical_form(e) for e in exclusions
    )
    t0 = time.perf_counter()
    pruned = 0
    best = -1.0

    ckpt_path = None if cache_dir is None else _checkpoint_path(cache_dir, m, patterns, excl)
    checkpoint = {} if ckpt_path is None else _load_checkpoint(ckpt_path, m, patterns, excl)

    enumerated = free = 0
    tied = []
    for n in range(2, m + 2):
        if not n - 1 <= m <= comb(n, 2):
            continue
        if prune and sqrt(2 * m - n + 1) < best - TIE_TOL:
            pruned += 1
            continue
        key = str(n)
        if key not in checkpoint:
            checkpoint[key] = _scan(_layer(n, m), patterns, excl)
            if ckpt_path is not None:
                _save_checkpoint(ckpt_path, checkpoint)
        layer_tied, layer_enum, layer_free = checkpoint[key]
        enumerated += layer_enum
        free += layer_free
        for cand in layer_tied:
            best = _admit(best, tied, cand)

    return SearchReport(
        m,
        tuple(_pattern_name(p) for p in patterns),
        tuple(sorted(excl)),
        best,
        sorted(((g, c) for g, c, _ in tied), key=lambda t: (t[0].n, t[1])),
        {"enumerated": enumerated, "free": free, "pruned": pruned},
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    theorem: str
    m: int
    status: str  # "pass" | "fail" | "not_claimed"
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))
        if not ok:
            self.status = "fail"

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "theorem": self.theorem,
            "m": self.m,
            "status": self.status,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks],
            "notes": self.notes,
        }


def _complete_bipartite_exclusions(m: int) -> list[Graph]:
    return [families.complete_bipartite(a, m // a)
            for a in range(1, m + 1) if m % a == 0 and a <= m // a]


def _book_exclusion(m: int) -> list[Graph]:
    return [families.book(m)] if m % 2 else []


def _isomorphic(g: Graph, h: Graph) -> bool:
    """Whether g and h are isomorphic; they are labelled only when their
    vertex counts and sorted degree sequences agree."""
    if g.n != h.n or sorted(map(int.bit_count, g.adj)) != sorted(map(int.bit_count, h.adj)):
        return False
    return canonical_form(g) == canonical_form(h)


def _c6_regimes(m: int) -> tuple[Graph, Graph]:
    """(claimed, alternative): the cone up to the crossover, the split after."""
    cx = crossover_at(m)
    cone = families.k1_join_candidate(m)
    split = families.split_pendant_for_size(m, cx.split_t)
    return (cone, split) if m <= cx.last_cone else (split, cone)


@dataclass(frozen=True)
class Claim:
    """One maximality claim; the callables take m and run only inside its range.

    ``book``: the book bound (1 + sqrt(4m - 3)) / 2 is the maximum.
    ``rival``: the graph of the other regime, which the claimed graph beats.
    """

    start: int
    patterns: tuple[str, ...]
    exclusions: Callable[[int], list[Graph]]
    graph: Callable[[int], Graph | None]
    poly: Callable[[int], Polynomial]
    book: bool = False
    rival: Callable[[int], Graph] | None = None


def _book_claim(start: int, pattern: str) -> Claim:
    return Claim(start, (pattern,), lambda m: [],
                 lambda m: families.book(m) if m % 2 else None,
                 lambda m: Polynomial([-(m - 1), -1, 1]), book=True)


CLAIMS = {
    "theta123": _book_claim(8, "theta123"),
    "theta124": _book_claim(22, "theta124"),
    "c5_runner_up": Claim(
        22, ("c5",), _book_exclusion,
        lambda m: families.split_pendant_for_size(m, crossover_at(m).split_t), c5_extremal),
    "c6_runner_up": Claim(
        22, ("c6",), _book_exclusion, lambda m: _c6_regimes(m)[0], c6_extremal,
        rival=lambda m: _c6_regimes(m)[1]),
    "theta_pair_runner_up": Claim(
        26, ("theta122", "theta123"), _complete_bipartite_exclusions,
        lambda m: families.star_matching(m, 1), star_matching_cubic),
}

THEOREM_IDS = tuple(CLAIMS)


def _derived_poly(g: Graph) -> Polynomial:
    """The characteristic polynomial of g's coarsest equitable quotient,
    whose largest root is g's spectral radius (Godsil & Royle, Algebraic
    Graph Theory, 9.3)."""
    # imported here, so that a search does not load partition
    from .partition import _refine, charpoly

    return charpoly(_refine(g, [range(g.n)])[1])


def _versus_book(q: Polynomial, m: int) -> int:
    """The sign of λ(q) - (1 + sqrt(4m - 3))/2: roots above the gate, else q's sign there."""
    book_gate = gate(m, 3)
    if count_roots(q, book_gate, POS_INF):
        return 1
    return -1 if sign_at(q, book_gate) else 0


def verify_theorem(theorem: str, m: int, *, cache_dir=None) -> VerificationReport:
    """Check one maximality claim at a given size.

    Construction mode (any m in the claim's range) checks the claimed
    graph's size, freeness and exclusion-set membership, and decides every
    spectral claim exactly on q, the characteristic polynomial of the
    graph's coarsest equitable quotient: its largest root equals the stated
    polynomial's, the book graph's is (1 + sqrt(4m - 3))/2, a runner-up's
    lies at or below that bound, and the C6 claim's is at least the rival
    regime's.  Each also needs the graph connected.  This mode runs no
    eigen-solve: the λ in each detail is q's certified largest root.  Oracle
    mode (claims starting at or below ``DEFAULT_CAP``, today ``theta123`` at
    m = 8..12, all book claims) also searches exhaustively, and asserts the
    book bound on each maximizer's q and, at odd m, the book as sole maximizer.
    """
    if theorem not in CLAIMS:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {THEOREM_IDS}")
    claim = CLAIMS[theorem]
    report = VerificationReport(theorem, m, "pass")
    if m < claim.start:
        report.status = "not_claimed"
        report.notes.append(f"claim covers m >= {claim.start}; m={m} is outside it")
        return report
    patterns, exclusions = list(claim.patterns), claim.exclusions(m)
    claimed, poly = claim.graph(m), claim.poly(m)

    bound = book_lambda(m)
    if claimed is None:
        report.notes.append("even m: the bound is claimed strict (no equality graph)")
    else:
        q = _derived_poly(claimed)
        if q == poly:
            q = poly  # one object, so that its chain and isolation are built once
        connected = is_connected(claimed)
        lam, _ = largest_real_root(q)
        poly_ok = connected and (q is poly or compare_largest_roots(q, poly).order == "eq")
        report.record("edge_count", claimed.m == m, f"edges={claimed.m}")
        report.record("pattern_free", forbidden.is_free(claimed, patterns))
        if claim.book:
            report.record("lambda_closed_form", connected and _versus_book(q, m) == 0,
                          f"lambda={lam!r} vs (1+sqrt(4m-3))/2={bound!r}")
            report.record("lambda_poly_root", poly_ok)
        else:
            report.record(
                "not_excluded", not any(_isomorphic(claimed, e) for e in exclusions)
            )
            root = lam if q is poly else largest_real_root(poly)[0]
            report.record("lambda_poly_root", poly_ok, f"lambda={lam!r} root={root!r}")
            report.record("below_book_bound",
                          connected and count_roots(q, gate(m, 3), POS_INF) == 0,
                          f"claimed lambda {lam!r} vs book bound {bound!r}")
        if claim.rival is not None:
            rival = claim.rival(m)
            q_alt = _derived_poly(rival)
            report.record("beats_other_regime",
                          connected and is_connected(rival)
                          and compare_largest_roots(q, q_alt).order != "lt",
                          f"claimed {lam!r} vs alternative {largest_real_root(q_alt)[0]!r}")

    if m <= DEFAULT_CAP:
        result = extremal_search(m, patterns, exclusions, cache_dir=cache_dir)
        report.notes.append(
            f"oracle mode: enumerated {result.counts['enumerated']} classes"
        )
        signs = [_versus_book(_derived_poly(g), m) for g, _ in result.maximizers]
        report.record("oracle_bound", max(signs) <= 0, f"best={result.best_lambda!r}")
        if m % 2:
            report.record(
                "oracle_unique_maximizer",
                [c for _, c in result.maximizers] == [canonical_form(claimed)],
                f"{len(result.maximizers)} maximizers",
            )
            report.record("oracle_equality", signs[0] == 0)
        else:
            report.record("oracle_strict", max(signs) < 0, f"best={result.best_lambda!r}")
    else:
        report.notes.append(
            "construction mode only: exhaustive enumeration is infeasible at this size"
        )
    return report
