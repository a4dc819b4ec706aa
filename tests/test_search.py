"""Enumeration correctness (independent oracles), search and verification."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

import pytest

from bht import families as F
from bht import forbidden as FB
from bht import graphs, spectral
from bht import partition as PT
from bht import polynomials as P
from bht import search as SR
from bht.forbidden import NAMED_PATTERNS, is_free
from bht.graphs import (
    Graph,
    bits,
    canonical_form,
    from_edge_list,
    is_connected,
)
from bht.polynomials import Polynomial, book_lambda, compare_largest_roots
from bht.spectral import layer_radii, radius, spectral_radius
from conftest import (
    enumerate_connected, extremal_vertex, fraction_count_roots, graph_of_form, random_connected,
    refuse_overlap_gcd, seen_dict_layer, value_sign,
)

# Totals per edge count, frozen from the oracle runs below (the Burnside
# cross-check recomputes the layer counts live on every test run).
# m = 11 is the literature total (OEIS A002905; Harary & Palmer 1973).
FROZEN_CLASS_COUNTS = {1: 1, 2: 1, 3: 3, 4: 5, 5: 12, 6: 30, 7: 79, 8: 227, 9: 710, 10: 2322,
                       11: 8071}


def test_frozen_totals():
    for m, expected in FROZEN_CLASS_COUNTS.items():
        if m <= 8:
            assert len(list(enumerate_connected(m))) == expected


def test_frozen_totals_nine_ten():
    assert len(list(enumerate_connected(9))) == FROZEN_CLASS_COUNTS[9]
    assert len(list(enumerate_connected(10))) == FROZEN_CLASS_COUNTS[10]


def test_frozen_total_eleven():
    assert len(list(enumerate_connected(11))) == FROZEN_CLASS_COUNTS[11]


def test_unpruned_search_enumerates_every_class_once():
    """With no layer pruned, a search scans each connected class with m
    edges once: its enumerated count is the frozen class total."""
    for m in range(1, 10):
        rep = SR.extremal_search(m, ["c5"], prune=False)
        assert rep.counts["enumerated"] == FROZEN_CLASS_COUNTS[m], m


def test_no_duplicates_and_determinism():
    for m in range(1, 8):
        first = [canonical_form(g) for g in enumerate_connected(m)]
        second = [canonical_form(g) for g in enumerate_connected(m)]
        assert first == second
        assert len(set(first)) == len(first)
        for g in enumerate_connected(m):
            assert is_connected(g) and g.m == m and min(g.adj) > 0


def test_layer_counts_against_labeled_oracle():
    """Spec oracle: dedup all labeled graphs, filter connectivity and size."""
    for n in range(2, 7):
        pair_list = list(combinations(range(n), 2))
        per_m: dict[int, set[bytes]] = {}
        for mask in range(2 ** len(pair_list)):
            edges = [e for i, e in enumerate(pair_list) if mask >> i & 1]
            if not edges:
                continue
            g = from_edge_list(edges)
            if g.n < n:
                g = Graph(n, g.adj + (0,) * (n - g.n))
            if not is_connected(g):
                continue
            per_m.setdefault(g.m, set()).add(canonical_form(g))
        for m, classes in per_m.items():
            assert len(SR.connected_layer(n, m)) == len(classes), (n, m)


def test_tree_layers_against_pruefer_oracle():
    """Every labeled tree decodes from a unique Pruefer sequence.

    Capped at n = 7 for runtime; the Burnside joint check covers the
    larger tree layers.
    """
    for n in (6, 7):
        seen = set()
        for code in range(n ** (n - 2)):
            seq = []
            c = code
            for _ in range(n - 2):
                seq.append(c % n)
                c //= n
            degree = [1] * n
            for v in seq:
                degree[v] += 1
            edges = []
            avail = sorted(range(n))
            seq_iter = list(seq)
            for v in seq_iter:
                leaf = next(u for u in avail if degree[u] == 1)
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
                avail.remove(leaf)
            last = [u for u in avail if degree[u] == 1]
            edges.append((last[0], last[1]))
            seen.add(canonical_form(from_edge_list(edges)))
        assert len(SR.connected_layer(n, n - 1)) == len(seen)


def _burnside_all_graph_classes(n: int, m: int) -> int:
    """Isomorphism classes of ALL n-vertex graphs with m edges, by orbit
    counting over cycle types (no canonical forms involved)."""

    def partitions(k: int, cap: int | None = None):
        cap = cap or k
        if k == 0:
            yield []
            return
        for first in range(min(k, cap), 0, -1):
            for rest in partitions(k - first, first):
                yield [first] + rest

    total = Fraction(0)
    nfact = math.factorial(n)
    for ptn in partitions(n):
        counts: dict[int, int] = {}
        for part in ptn:
            counts[part] = counts.get(part, 0) + 1
        perms = nfact
        for length, cnt in counts.items():
            perms //= length**cnt * math.factorial(cnt)
        orbit_sizes: list[int] = []
        for i, a in enumerate(ptn):
            orbit_sizes += [a] * ((a - 1) // 2)
            if a % 2 == 0:
                orbit_sizes.append(a // 2)
            for b in ptn[i + 1:]:
                g = math.gcd(a, b)
                orbit_sizes += [a * b // g] * g
        ways = [0] * (m + 1)
        ways[0] = 1
        for size in orbit_sizes:
            if size <= m:
                for tot in range(m, size - 1, -1):
                    ways[tot] += ways[tot - size]
        total += Fraction(perms * ways[m], nfact)
    assert total.denominator == 1
    return int(total)


def test_layer_counts_against_burnside():
    """Joint validation: multisets of enumerated connected classes (plus
    isolated vertices) must reproduce the Burnside count of all classes,
    over every layer that a search at m <= 11 grows."""
    n_top, m_top = 12, 11
    layer_count = {
        (n, m): len(SR.connected_layer(n, m))
        for n in range(2, n_top + 1)
        for m in range(n - 1, min(m_top, n * (n - 1) // 2) + 1)
    }
    for n in range(2, n_top + 1):
        for m in range(1, min(m_top, n * (n - 1) // 2) + 1):
            dp = {(0, 0): 1}
            for (nc, mc), cnt in sorted(layer_count.items()):
                if not cnt:
                    continue
                new = dict(dp)
                for (v, e), ways in dp.items():
                    k = 1
                    while v + k * nc <= n and e + k * mc <= m:
                        choose = math.comb(cnt + k - 1, k)
                        key = (v + k * nc, e + k * mc)
                        new[key] = new.get(key, 0) + ways * choose
                        k += 1
                dp = new
            ours = sum(ways for (v, e), ways in dp.items() if e == m and v <= n)
            assert ours == _burnside_all_graph_classes(n, m), (n, m)


def test_layers_match_seen_dict_oracle():
    """Canonical deletion keeps the same classes, in the same form order,
    as labelling every child does; each kept graph is its canonical graph."""
    for m in range(0, 11):
        for n in range(1, m + 2):
            oracle = [canonical_form(g) for g in seen_dict_layer(n, m)]
            layer = SR.connected_layer(n, m)
            assert [canonical_form(g) for g in layer] == oracle, (n, m)
            assert layer == [graph_of_form(c) for c in oracle], (n, m)


# sha256 of the rows of every layer (n, m), m <= 10, in the order grown
# from an empty cache, taken when a class with a leaf was first grown from
# the class less its largest-key leaf, and a leafless one from the class
# less its largest-key non-bridge edge.
LAYER_ROWS_PIN = "7c18490e68c115a2549f0393cadf628f51da4d4fc1f50871adfa69648577efb4"


def test_layers_are_pinned(monkeypatch):
    """Every layer up to m = 10 holds the same graphs, with the same rows,
    in the same order as when the pin was taken: a change of which parent
    or edit represents a class shows here first."""
    monkeypatch.setattr(SR, "_LAYERS", {})
    h = hashlib.sha256()
    for m in range(0, 11):
        for n in range(1, m + 2):
            for c in SR._layer(n, m):
                h.update(f"{n} {m} {' '.join(map(str, c.graph.adj))}\n".encode())
    assert h.hexdigest() == LAYER_ROWS_PIN


# sha256 of (form, labelling, generators) of every class of every layer
# (n, m), m <= 9, in the order grown from an empty cache, taken with the
# layers of LAYER_ROWS_PIN.
LABELLING_PIN = (1069, "3c9918a7f732436d966098ac4ed2059ff03eee446c007ffe0e66b12cea46fac7")


def test_labellings_are_pinned(monkeypatch):
    """Every form, labelling and generator list of the layers up to m = 9
    is the one pinned: going straight to the one leaf of a colouring whose
    cells of several vertices are twin classes keeps them."""
    monkeypatch.setattr(SR, "_LAYERS", {})
    h = hashlib.sha256()
    count = 0
    for m in range(0, 10):
        for n in range(1, m + 2):
            for c in SR._layer(n, m):
                form, labelling, generators = graphs.labelling_and_automorphisms(c.graph)
                h.update(f"{form.hex()} {labelling} {generators}\n".encode())
                count += 1
    assert (count, h.hexdigest()) == LABELLING_PIN


def test_growth_refinements(monkeypatch):
    """Growing every layer up to m = 10 from an empty cache makes at most
    2,242 refinements: 3,263 when every twin cell is split one vertex at
    a time, each split refined again."""
    calls = [0]
    refine = graphs._refine

    def counted(*args):
        calls[0] += 1
        return refine(*args)

    monkeypatch.setattr(graphs, "_refine", counted)
    monkeypatch.setattr(SR, "_LAYERS", {})
    for m in range(0, 11):
        for n in range(1, m + 2):
            SR._layer(n, m)
    assert 0 < calls[0] <= 2242, calls[0]


def test_growth_key_tests_only_edits_that_leave_no_leaf(monkeypatch):
    """Growing every layer up to m = 10 from an empty cache key-tests at
    most 2,160 non-edges, those that ``_leafless_sites`` returns; testing
    every non-edge of every parent, when every class with a cycle was
    grown by one edge, took 21,836."""
    tested = [0]
    sites = SR._leafless_sites

    def counted(adj, deg):
        out = sites(adj, deg)
        tested[0] += len(out)
        return out

    monkeypatch.setattr(SR, "_leafless_sites", counted)
    monkeypatch.setattr(SR, "_LAYERS", {})
    for m in range(0, 11):
        for n in range(1, m + 2):
            SR._layer(n, m)
    assert 0 < tested[0] <= 2160, tested[0]


def test_each_growth_keeps_its_own_classes(monkeypatch):
    """Up to m = 10, every class that ``_grow_leaves`` keeps has a leaf and
    every class that ``_grow_edges`` keeps is leafless, so no class comes
    from both."""
    monkeypatch.setattr(SR, "_LAYERS", {})
    for m in range(1, 11):
        for n in range(2, m + 2):
            for c in SR._grow_leaves(SR._layer(n - 1, m - 1)):
                assert min(map(int.bit_count, c.graph.adj)) == 1, (n, m, c.graph)
            for c in SR._grow_edges(SR._layer(n, m - 1)):
                assert min(map(int.bit_count, c.graph.adj)) >= 2, (n, m, c.graph)


def test_bit_table_holds_only_narrow_masks(monkeypatch):
    """``verify`` at m = 400 walks the rows of graphs on 200 vertices and
    more, and the bit table keeps none of them."""
    monkeypatch.setattr(graphs, "_BITS", {})
    for thm in SR.THEOREM_IDS:
        assert SR.verify_theorem(thm, 400).status == "pass"
    assert max(SR.CLAIMS["c6_runner_up"].graph(400).adj).bit_length() > 200
    assert graphs._BITS and max(graphs._BITS) < graphs._BITS_BELOW == 1 << 13


@pytest.mark.parametrize("m", [40, 100])
def test_c6_verify_builds_each_regime_graph_once(monkeypatch, m):
    """One ``verify`` of the c6 claim builds the cone and the split once
    each, on either side of the crossover."""
    calls = {"k1_join_candidate": 0, "split_pendant_for_size": 0}
    for name in calls:
        build = getattr(F, name)

        def counted(*args, name=name, build=build):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(F, name, counted)
    assert SR.verify_theorem("c6_runner_up", m).status == "pass"
    assert calls == {"k1_join_candidate": 1, "split_pendant_for_size": 1}


def _layer_rows(n: int, m: int) -> list[tuple[int, ...]]:
    return [c.graph.adj for c in SR._layer(n, m)]


def test_connected_layer_leaves_the_cache_as_grown(monkeypatch):
    """``connected_layer`` reads the cached layer without reordering it,
    so a layer grown after the call holds the same representatives, in
    the same order, as one grown from an empty cache."""
    monkeypatch.setattr(SR, "_LAYERS", {})
    fresh = _layer_rows(7, 8)
    monkeypatch.setattr(SR, "_LAYERS", {})
    before = _layer_rows(7, 7)
    SR.connected_layer(7, 7)
    assert _layer_rows(7, 7) == before
    assert _layer_rows(7, 8) == fresh


def _count_labellings(monkeypatch) -> list[int]:
    """Empty the layer cache and count the labellings that ``search``
    makes through any labelling function of ``graphs`` that it imports."""
    calls = [0]

    def counted(fn):
        def wrapper(g):
            calls[0] += 1
            return fn(g)
        return wrapper

    wrapped = 0
    for name in ("canonical_labelling", "canonical_form", "labelling_and_automorphisms"):
        fn = getattr(graphs, name, None)
        if fn is not None and getattr(SR, name, None) is fn:
            monkeypatch.setattr(SR, name, counted(fn))
            wrapped += 1
    assert wrapped
    monkeypatch.setattr(SR, "_LAYERS", {})
    return calls


def test_labelling_calls_per_class_kept(monkeypatch):
    """Over every layer up to m = 10, at most 2.5 labellings per class
    kept, counting the on-demand labelling of every class; labelling
    every child took 6.97."""
    calls = _count_labellings(monkeypatch)
    kept = sum(len(SR.connected_layer(n, m)) for m in range(0, 11) for n in range(1, m + 2))
    assert sum(FROZEN_CLASS_COUNTS[m] for m in range(1, 11)) + 1 == kept  # the point is kept too
    assert calls[0] <= 2.5 * kept, calls[0] / kept


def test_search_labellings_per_class(monkeypatch):
    """A cold search labels the parents whose accepted edits collide, the
    tied children that share a signature bucket and its maximizers, not
    the other classes: at most 0.9 labellings per class kept (1.32 when
    every kept child was labelled, 0.22 with parents labelled only on a
    collision)."""
    calls = _count_labellings(monkeypatch)
    rep = SR.extremal_search(9, ["theta122", "theta123"])
    kept = sum(len(layer) for layer in SR._LAYERS.values())
    assert rep.counts["pruned"] == 0 and kept > 1000
    assert calls[0] <= 0.9 * kept, calls[0] / kept


def test_search_labels_tied_children_only_on_a_collision(monkeypatch):
    """A tied child alone in its signature bucket is kept unlabelled, so a
    cold search makes at most 0.5 labellings per class kept; labelling
    every tied child took 716 for 1,064 classes (0.67), 360 of them in
    the top layer, which is never a parent.  With every parent labelled
    as well the search made 429 (0.40)."""
    calls = _count_labellings(monkeypatch)
    rep = SR.extremal_search(9, ["theta122", "theta123"])
    kept = sum(len(layer) for layer in SR._LAYERS.values())
    assert rep.counts["pruned"] == 0 and kept > 1000
    assert calls[0] <= 0.5 * kept, calls[0] / kept


def test_search_labels_parents_only_on_a_collision(monkeypatch):
    """A parent is labelled only when two of its accepted edits share an
    invariant, so a cold search makes at most 0.25 labellings per class
    kept: 230 for 1,064 classes (0.22), 140 of them parents, where
    labelling every parent for its orbits took 429 (0.40), 339 of them
    parents."""
    calls = _count_labellings(monkeypatch)
    rep = SR.extremal_search(9, ["theta122", "theta123"])
    kept = sum(len(layer) for layer in SR._LAYERS.values())
    assert rep.counts["pruned"] == 0 and kept > 1000
    assert calls[0] <= 0.25 * kept, calls[0] / kept


def _count_eigen_solves(monkeypatch) -> tuple[list[list[Graph]], list[Graph]]:
    """Empty the layer cache and record the graphs that the search's
    eigen-solves are given: one list per ``layer_radii`` call and one
    graph per ``radius`` call."""
    stacked: list[list[Graph]] = []
    single: list[Graph] = []

    def stack(graphs):
        stacked.append(list(graphs))
        return layer_radii(graphs)

    def one(g):
        single.append(g)
        return radius(g)

    monkeypatch.setattr(spectral, "layer_radii", stack)
    monkeypatch.setattr(spectral, "radius", one)
    monkeypatch.setattr(SR, "_LAYERS", {})
    return stacked, single


def test_search_solves_each_scanned_layer_in_one_call(monkeypatch):
    """A cold search solves each free class once, in at most one stacked
    call per scanned layer (no layer here exceeds one slice), and takes
    ``radius`` only of the contenders it folds into the best,
    once each: 511 stacked solves in 5 calls and 5 contender solves, where
    the per-graph scan made 516."""
    stacked, single = _count_eigen_solves(monkeypatch)
    folded = []
    admit = SR._admit

    def counted_admit(best, tied, cand):
        folded.append(cand[0])
        return admit(best, tied, cand)

    monkeypatch.setattr(SR, "_admit", counted_admit)
    rep = SR.extremal_search(9, ["theta122", "theta123"])
    scanned = sum(1 for n in range(2, 11) if n - 1 <= 9 <= math.comb(n, 2)) - rep.counts["pruned"]
    assert 0 < len(stacked) <= scanned
    assert all(len({g.n for g in graphs}) == 1 for graphs in stacked)
    assert sum(map(len, stacked)) == rep.counts["free"]
    # the search folds each scanned contender again from the layer's ties
    assert [id(g) for g in single] == list(dict.fromkeys(map(id, folded)))


def test_scan_solves_a_large_layer_in_slices(monkeypatch):
    """A layer of more free classes than one slice is solved in stacked
    calls of at most ``SOLVE_SLICE`` classes, and each class keeps the
    radius that one stack of the whole layer gives it, to the bit."""
    stacked, _ = _count_eigen_solves(monkeypatch)
    layer = SR._layer(9, 10)
    SR._scan(layer, ["c5"], frozenset())
    free = [c for c in layer if c.radius is not None]
    assert len(free) > SR.SOLVE_SLICE
    assert [len(graphs) for graphs in stacked] == [SR.SOLVE_SLICE, len(free) - SR.SOLVE_SLICE]
    assert [c.radius for c in free] == layer_radii([c.graph for c in free])


def test_search_sweep_solves_no_class_twice(monkeypatch):
    """Pattern sets that scan the same cached layer reuse its radii: over
    m = 4..9 and five pattern sets, no class is solved twice: 754 stacked
    solves in 20 calls, where solving every free graph in each scan took
    850."""
    stacked, _ = _count_eigen_solves(monkeypatch)
    for m in range(4, 10):
        for patterns in (["theta123"], ["theta124"], ["c5"], ["c6"], ["theta122", "theta123"]):
            SR.extremal_search(m, patterns)
    solved = [g for graphs in stacked for g in graphs]
    assert len(solved) == len(set(solved))


PATTERN_SETS = (["theta123"], ["theta124"], ["c5"], ["c6"], ["theta122", "theta123"])


def test_scan_by_cycle_rank_matches_a_scan_of_every_pattern(monkeypatch):
    """Dropping the patterns whose cycle rank exceeds a layer's changes no
    scan of m = 1..10: the same tied graphs, enumerated and free counts as
    a scan that searches every class for every pattern."""
    for m in range(1, 11):
        for n in range(2, m + 2):
            layer = SR._layer(n, m)
            for patterns in PATTERN_SETS:
                with monkeypatch.context() as patch:
                    patch.setattr(FB, "cycle_rank", lambda p: 0)
                    want = SR._scan(layer, patterns, frozenset())
                got = SR._scan(layer, patterns, frozenset())
                assert got == want, (n, m, patterns)
                assert got[2] == sum(is_free(c.graph, patterns) for c in layer)


def test_no_host_below_a_patterns_cycle_rank_is_searched(monkeypatch):
    """A search never looks for a pattern in a layer of smaller cycle rank:
    the trees for every pattern, and the unicyclic graphs for the thetas.
    Unpruned, it scans those layers too, and searches from the patterns'
    rank up."""
    contains = FB.contains_subgraph
    searched = []

    def guarded(g, pattern):
        assert g.m - g.n + 1 >= FB.cycle_rank(pattern), (g, pattern)
        searched.append(g.m - g.n + 1)
        return contains(g, pattern)

    monkeypatch.setattr(FB, "contains_subgraph", guarded)
    for patterns, least in ((["theta122", "theta123"], 2), (["c5"], 1)):
        SR.extremal_search(9, patterns)
        searched.clear()
        assert SR.extremal_search(9, patterns, prune=False).counts["pruned"] == 0
        assert min(searched) == least


@pytest.mark.parametrize("pattern", NAMED_PATTERNS)
def test_pendant_path_lemma_step(pattern):
    """Why the search scans connected graphs only.  A disconnected free
    graph has the spectral radius of a component G1 with k < m edges;
    attaching a pendant path of m - k edges to G1 gives a connected free
    graph with m edges (a path adds no cycle, and every named pattern is
    2-connected) and a strictly larger spectral radius."""
    for k in range(1, 9):
        for n in range(2, k + 2):
            for g in SR.connected_layer(n, k):
                if not is_free(g, [pattern]):
                    continue
                lam = spectral_radius(g).lam
                grown, end = g, 0
                for m in range(k + 1, 10):
                    grown = grown.add_vertex().add_edge(end, grown.n)
                    end = grown.n - 1
                    assert is_connected(grown) and grown.m == m
                    assert is_free(grown, [pattern])
                    assert spectral_radius(grown).lam > lam


def test_pruning_soundness():
    for m in (7, 8, 9):
        for patterns in (["theta123"], ["c5"]):
            pruned = SR.extremal_search(m, patterns)
            unpruned = SR.extremal_search(m, patterns, prune=False)
            assert pruned.best_lambda == unpruned.best_lambda
            assert [c for _, c in pruned.maximizers] == [c for _, c in unpruned.maximizers]
            assert pruned.counts["pruned"] > 0


@pytest.mark.parametrize("patterns", [["theta123"], ["theta124"], ["c5"], ["c6"],
                                      ["theta122", "theta123"]], ids="+".join)
def test_best_lambda_and_hong_pruned_count(patterns):
    """best_lambda is the radius of the first listed maximizer, bit for bit,
    and the pruned layers are exactly those whose Hong ceiling
    sqrt(2m - n + 1) falls below it."""
    for m in range(4, 10):
        for excl in ([], [F.book(m)]) if m % 2 else ([],):
            rep = SR.extremal_search(m, patterns, excl)
            assert rep.best_lambda == radius(rep.maximizers[0][0]), (m, excl)
            below = sum(1 for n in range(2, m + 2)
                        if n - 1 <= m <= math.comb(n, 2)
                        and math.sqrt(2 * m - n + 1) < rep.best_lambda - SR.TIE_TOL)
            assert rep.counts["pruned"] == below, (m, excl)


def test_search_determinism():
    a = SR.extremal_search(8, ["theta123"])
    b = SR.extremal_search(8, ["theta123"])
    assert a.to_json()["maximizers"] == b.to_json()["maximizers"]
    assert a.best_lambda == b.best_lambda


def test_search_cap_guard():
    with pytest.raises(ValueError, match="cap"):
        SR.extremal_search(13, ["c5"])


def test_book_is_unique_maximizer_at_nine():
    rep = SR.extremal_search(9, ["theta123"])
    assert abs(rep.best_lambda - book_lambda(9)) <= 1e-9
    assert [c for _, c in rep.maximizers] == [canonical_form(F.book(9))]


def test_sqrt_m_equality_family_at_nine():
    excl = [
        canonical_form(F.complete_bipartite(a, 9 // a))
        for a in (1, 3)
    ]
    rep = SR.extremal_search(9, ["theta122", "theta123"], excl)
    assert abs(rep.best_lambda - 3.0) <= 1e-9
    expected = {
        canonical_form(F.star_matching(7, 3)),
        canonical_form(F.star_matching(8, 2)),
        canonical_form(F.star_matching(9, 1)),
    }
    assert {c for _, c in rep.maximizers} == expected


def _articulation_points(g: Graph) -> set[int]:
    return {
        v for v in range(g.n)
        if g.n > 2 and not is_connected(g.remove_vertex(v))
    }


def test_maximizers_cut_vertex_consistency():
    """With a 2-connected forbidden pattern, no maximizer has a cut vertex
    away from the extremal vertex's closed neighbourhood."""
    for m, patterns in [(8, ["theta123"]), (9, ["theta123"]), (9, ["c5"])]:
        rep = SR.extremal_search(m, patterns)
        for g, _ in rep.maximizers:
            assert is_connected(g)
            u = extremal_vertex(g)
            closed = {u, *bits(g.adj[u])}
            assert _articulation_points(g) <= closed


def test_checkpoint_resume(tmp_path):
    first = SR.extremal_search(7, ["c5"], cache_dir=tmp_path)
    files = list(tmp_path.glob("search_m7_*.json"))
    assert len(files) == 1
    second = SR.extremal_search(7, ["c5"], cache_dir=tmp_path)
    assert first.to_json()["maximizers"] == second.to_json()["maximizers"]
    assert first.counts == second.counts
    # drop one layer from the checkpoint; the run must recompute only it
    data = json.loads(files[0].read_text())
    data.pop(sorted(data)[0])
    files[0].write_text(json.dumps(data))
    third = SR.extremal_search(7, ["c5"], cache_dir=tmp_path)
    assert first.to_json()["maximizers"] == third.to_json()["maximizers"]
    assert first.counts == third.counts


def test_resumed_search_equals_fresh(tmp_path, monkeypatch):
    """A run read wholly from its checkpoint gives the fresh run's report,
    best_lambda bits included; only wall_time may differ."""
    for m, patterns, excl in ((9, ["c5"], []), (10, ["theta123"], []),
                              (9, ["theta122", "theta123"], [F.book(9)])):
        fresh = SR.extremal_search(m, patterns, excl, cache_dir=tmp_path).to_json()
        with monkeypatch.context() as patch:
            patch.setattr(SR, "_scan", None)  # every layer must come from the file
            resumed = SR.extremal_search(m, patterns, excl, cache_dir=tmp_path).to_json()
        fresh["wall_time"] = resumed["wall_time"] = 0.0
        assert json.dumps(resumed) == json.dumps(fresh)


def test_checkpoints_of_earlier_versions_are_not_read(tmp_path):
    """Files under the names of format version 1 (the tag ended in the
    connected-only flag), version 2 (layers stored a best) and version 3
    (ties stored their form and lambda) are never opened; a fresh run
    writes the new name."""
    excl = [canonical_form(F.book(7))]
    olds = set()
    for last in (True, 2, 3):
        tag = json.dumps([7, ["c5"], [e.hex() for e in excl], last])
        old = tmp_path / f"search_m7_{hashlib.sha256(tag.encode()).hexdigest()[:16]}.json"
        old.write_text("not a checkpoint")
        olds.add(old)
    rep = SR.extremal_search(7, ["c5"], excl, cache_dir=tmp_path)
    new = SR._checkpoint_path(tmp_path, 7, ["c5"], excl)
    assert new not in olds and new.exists()
    assert all(old.read_text() == "not a checkpoint" for old in olds)
    assert set(tmp_path.iterdir()) == olds | {new}
    assert rep.to_json()["maximizers"] == SR.extremal_search(7, ["c5"], excl).to_json()["maximizers"]


def test_only_book_claims_start_within_the_cap():
    """Oracle mode checks the book bound, so it is sound only while every
    claim that starts at or below the cap is a book claim."""
    assert all(c.book or c.start > SR.DEFAULT_CAP for c in SR.CLAIMS.values())


def test_verify_theorem_oracle_modes():
    rep = SR.verify_theorem("theta123", 9)
    assert rep.status == "pass"
    names = {n for n, ok, _ in rep.checks}
    assert "oracle_unique_maximizer" in names
    rep = SR.verify_theorem("theta123", 8)
    assert rep.status == "pass"
    assert any(n == "oracle_strict" for n, _, _ in rep.checks)
    rep = SR.verify_theorem("theta123", 7)
    assert rep.status == "not_claimed"


@pytest.mark.parametrize("poly, failed", [
    (Polynomial([-100, 1]), ["oracle_bound", "oracle_strict"]),  # a root above the book gate
    (Polynomial([-7, -1, 1]), ["oracle_strict"]),  # the book polynomial at m = 8: on the bound
])
def test_oracle_checks_read_the_maximizers_polynomials(monkeypatch, poly, failed):
    """Oracle mode decides the book bound exactly on each maximizer's derived
    polynomial, not on the search's float λ.  At even m no graph is claimed,
    so only the oracle checks read ``_derived_poly``."""
    monkeypatch.setattr(SR, "_derived_poly", lambda g: poly)
    rep = SR.verify_theorem("theta123", 8)
    assert [name for name, ok, _ in rep.checks if not ok] == failed


def _gate_side(x: Fraction, m: int) -> int:
    """The sign of (1 + sqrt(4m - 3))/2 - x, on rationals."""
    t = 2 * x - 1
    return 1 if t < 0 or t * t < 4 * m - 3 else -1 if t * t > 4 * m - 3 else 0


BOOK_M = 51  # odd, so that theta123's claimed graph is the book graph
BELOW_GATE = Fraction(1 + Fraction(math.isqrt((4 * BOOK_M - 3) * 10**30), 10**15), 2)


@pytest.mark.parametrize("q, sides, sign", [
    (Polynomial([-100, 1]), (-1, -1), 1),  # the gate below the bracket
    (Polynomial([-BELOW_GATE - Fraction(1, 10**15), 1]), (1, -1), 1),  # inside, below the root
    (Polynomial([-BELOW_GATE, 1]), (1, -1), -1),  # inside, above the root
    (Polynomial([-1, 1]), (1, 1), -1),  # above the bracket
    (None, (1, -1), 0),  # at the root: the book graph's own polynomial
], ids=["below", "inside_below_root", "inside_above_root", "above", "at_root"])
def test_versus_book_reads_the_root_bracket(q, sides, sign):
    """_versus_book places the gate against the bracket (lo, hi] of q's
    largest root and, inside it, takes q's sign there, as the Fraction
    oracle's Sturm count above the gate and sign at it decide."""
    if q is None:
        q = SR._derived_poly(SR.CLAIMS["theta123"].graph(BOOK_M))
    _, bracket = P.largest_real_root(q)
    assert (_gate_side(bracket.lo, BOOK_M), _gate_side(bracket.hi, BOOK_M)) == sides
    book_gate = P.gate(BOOK_M, 3)
    want = 1 if fraction_count_roots(q, book_gate, P.POS_INF) else -1 if value_sign(q, book_gate) else 0
    assert SR._versus_book(q, BOOK_M) == want == sign


def test_verify_takes_no_sturm_count(monkeypatch):
    """Every claim at m = 22..120 passes with no Sturm count, isolation,
    bisection or gcd of overlapping brackets: its λ checks read the
    brackets of the largest roots."""
    def refuse(*args):
        raise AssertionError("counted, isolated or bisected")

    for name in ("count_roots", "_isolate", "_halve"):
        monkeypatch.setattr(P, name, refuse)
    refuse_overlap_gcd(monkeypatch)
    seen = 0
    for thm, claim in SR.CLAIMS.items():
        for m in range(max(22, claim.start), 121):
            assert SR.verify_theorem(thm, m).status == "pass", (thm, m)
            seen += 1
    assert seen == 491


def test_verify_theorem_construction_modes():
    for thm, m in [
        ("c5_runner_up", 23), ("c5_runner_up", 24),
        ("c6_runner_up", 72), ("c6_runner_up", 74),
        ("c6_runner_up", 71), ("c6_runner_up", 73),
        ("theta124", 22), ("theta124", 23),
        ("theta_pair_runner_up", 26), ("theta_pair_runner_up", 27),
    ]:
        rep = SR.verify_theorem(thm, m)
        assert rep.status == "pass", (thm, m, rep.checks)
    assert SR.verify_theorem("theta_pair_runner_up", 20).status == "not_claimed"
    # below its start a claim builds nothing, even where its graphs do not exist
    for thm in SR.THEOREM_IDS:
        assert SR.verify_theorem(thm, 2).status == "not_claimed", thm
    with pytest.raises(ValueError):
        SR.verify_theorem("bogus", 9)


def test_derived_polynomials_equal_the_stated_ones():
    """Over m = 22..120 the claimed graph's coarsest equitable quotient has
    the claim's stated polynomial as its characteristic polynomial."""
    seen = 0
    for thm, claim in SR.CLAIMS.items():
        for m in range(max(22, claim.start), 121):
            g = claim.graph(m)
            if g is not None:
                assert SR._derived_poly(g) == claim.poly(m), (thm, m)
                seen += 1
    assert seen == 391


def test_derived_poly_reads_the_last_refinement_round(rng):
    """On random graphs, connected and not, the quotient rows read off the
    refinement's last round are those that partition.quotient counts, and
    _derived_poly is the characteristic polynomial of that quotient."""
    hosts = [random_connected(rng, 2, 12) for _ in range(40)]
    for _ in range(40):
        n = rng.randint(1, 12)
        adj = [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.3:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        hosts.append(Graph(n, tuple(adj)))
    assert sum(not is_connected(g) for g in hosts) > 10
    for g in hosts:
        blocks = PT.coarsest_equitable_refinement(g, [range(g.n)])
        assert PT._refine(g, [range(g.n)]) == (blocks, PT.quotient(g, blocks))
        assert SR._derived_poly(g) == PT.charpoly(PT.quotient(g, blocks)), graphs.to_graph6(g)


def _sympy_charpoly(g: Graph) -> Polynomial:
    """The characteristic polynomial of g's full adjacency matrix, by sympy."""
    sympy = pytest.importorskip("sympy")
    a = sympy.Matrix(g.n, g.n, lambda u, v: g.adj[u] >> v & 1)
    return Polynomial([int(c) for c in reversed(a.charpoly().all_coeffs())])


def test_derived_radius_matches_the_full_charpoly(rng):
    """For connected graphs on at most 12 vertices, the derived quotient's
    largest root is that of the full adjacency matrix's characteristic
    polynomial: every claimed and rival graph, the claims' families below
    the claims' ranges, and random graphs."""
    hosts = []
    for claim in SR.CLAIMS.values():
        for m in range(claim.start, 121):
            hosts.append(claim.graph(m))
            if claim.rival is not None:
                hosts.append(claim.rival(m))
    hosts += [F.split_pendant_for_size(m, t) for t in (1, 2) for m in range(t + 1, 20)
              if (m + t) % 2]
    hosts += [F.k1_join_candidate(m) for m in range(8, 20)]
    hosts += [F.star_matching(n, 1) for n in range(3, 13)]
    hosts = [g for g in hosts if g is not None and g.n <= 12]
    assert len(hosts) > 30
    hosts += [random_connected(rng, 4, 12) for _ in range(30)]
    for g in hosts:
        assert is_connected(g)
        order = compare_largest_roots(SR._derived_poly(g), _sympy_charpoly(g)).order
        assert order == "eq", graphs.to_graph6(g)


@pytest.mark.parametrize("thm, m", [("c5_runner_up", 50), ("theta123", 51)])
def test_a_stated_polynomial_off_by_a_trillionth_fails(monkeypatch, thm, m):
    """Lowering the stated polynomial's constant term by 10^-12 moves its
    largest root far less than a 1e-9 tolerance, and the exact check still
    reports it."""
    claim = SR.CLAIMS[thm]
    shifted = dataclasses.replace(
        claim, poly=lambda m: claim.poly(m) - Polynomial([Fraction(1, 10**12)]))
    monkeypatch.setitem(SR.CLAIMS, thm, shifted)
    rep = SR.verify_theorem(thm, m)
    assert rep.status == "fail"
    assert [name for name, ok, _ in rep.checks if not ok] == ["lambda_poly_root"]


def test_a_disconnected_claimed_graph_fails_the_lambda_checks(monkeypatch):
    """An isolated vertex keeps the spectral radius, but the claims are about
    connected graphs, so each exact λ check also asks for connectivity."""
    claim = SR.CLAIMS["theta124"]
    padded = dataclasses.replace(claim, graph=lambda m: claim.graph(m).add_vertex())
    monkeypatch.setitem(SR.CLAIMS, "theta124", padded)
    rep = SR.verify_theorem("theta124", 51)
    assert [name for name, ok, _ in rep.checks if not ok] == ["lambda_closed_form",
                                                             "lambda_poly_root"]
