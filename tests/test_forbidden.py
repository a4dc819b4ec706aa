"""Subgraph containment: witnesses, brute-force agreement, implications."""

import hashlib
import json
import math
from functools import reduce
from itertools import permutations

import pytest

from bht import families as F
from bht import forbidden as FB
from bht.graphs import Graph, bits
from conftest import (
    brute_contains,
    check_embedding,
    random_connected,
    seen_dict_layer,
    unbroken_contains_subgraph,
)


def test_identity_witness():
    emb = FB.contains_subgraph(F.cycle(5), "c5")
    assert emb == [0, 1, 2, 3, 4]


def test_too_small_host():
    assert FB.contains_subgraph(F.complete(4), "c5") is None


def test_book_is_pattern_free():
    assert FB.contains_subgraph(F.book(9), "c5") is None
    assert FB.is_free(F.book(9), ["c5", "c6", "theta123", "theta124"])


def test_known_containments():
    assert FB.is_free(F.star_matching(9, 1), ["theta122", "theta123"])
    # K2 v 3K1 contains K2 v 2K1
    host = F.join(F.complete(2), F.empty(3))
    assert FB.contains_subgraph(host, "theta122") is not None
    for tree in (F.star(8), F.path(9), F.double_star(3, 4)):
        assert FB.is_free(tree, ["c5", "c6"])


def test_free_filter_stats_examples():
    stats = {name: FB.contains_subgraph(F.r_chain(2), name) is None for name in FB.NAMED_PATTERNS}
    assert stats["c5"] and stats["c6"] and not stats["theta122"]
    stats = {name: FB.contains_subgraph(F.cycle(6), name) is None for name in FB.NAMED_PATTERNS}
    assert stats["c5"] and not stats["c6"]
    # the 1-2-4 theta graph holds a 6-cycle (its 2-path plus 4-path)
    assert FB.contains_subgraph(F.theta(1, 2, 4), "c6") is not None


def test_witness_validity_on_random_graphs(rng):
    hits = 0
    for _ in range(120):
        g = random_connected(rng, 5, 10)
        for name in FB.NAMED_PATTERNS:
            emb = FB.contains_subgraph(g, name)
            if emb is not None:
                hits += 1
                assert check_embedding(g, name, emb)
    assert hits > 50  # the sample must actually exercise positives


def test_agreement_with_brute_force(rng):
    patterns = [F.cycle(4), F.theta(1, 2, 2), F.complete(4), F.path(5), F.star(4)]
    for _ in range(80):
        g = random_connected(rng, 4, 7)
        for p in patterns:
            assert (FB.contains_subgraph(g, p) is not None) == brute_contains(g, p)


def test_monotone_under_edge_addition(rng):
    for _ in range(80):
        g = random_connected(rng, 5, 9)
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            continue
        u, v = non_edges[rng.randrange(len(non_edges))]
        bigger = g.add_edge(u, v)
        for name in FB.NAMED_PATTERNS:
            if FB.contains_subgraph(g, name) is not None:
                assert FB.contains_subgraph(bigger, name) is not None


@pytest.mark.parametrize("r", [2, 3, 4])
def test_theta_forces_cycle(r, rng):
    """Containing the (1,2,r) theta forces the (r+1)-cycle."""
    theta = F.theta(1, 2, r)
    cyc = F.cycle(r + 1)
    found = 0
    for _ in range(400):
        g = random_connected(rng, 5, 9)
        if FB.contains_subgraph(g, theta) is not None:
            found += 1
            assert FB.contains_subgraph(g, cyc) is not None
    assert found > 40


def test_pattern_validation():
    with pytest.raises(ValueError):
        FB.as_pattern(F.empty(3))
    with pytest.raises(ValueError):
        FB.as_pattern(F.disjoint_union(F.complete(2), F.complete(2)))
    for _ in range(2):  # a rejected pattern leaves no plan behind
        with pytest.raises(ValueError):
            FB.contains_subgraph(F.cycle(5), F.empty(3))
    with pytest.raises(ValueError):
        FB.named_pattern("c7")


def test_deterministic_witness():
    g = F.join(F.complete(2), F.empty(4))
    first = FB.contains_subgraph(g, "theta122")
    for _ in range(5):
        assert FB.contains_subgraph(g, "theta122") == first


def test_check_embedding_rejects_hosts_out_of_range():
    assert check_embedding(F.cycle(5), "c5", [0, 1, 2, 3, 4])
    assert not check_embedding(F.cycle(5), "c5", [0, 1, 2, 3, 99])
    assert not check_embedding(F.cycle(5), "c5", [-1, 0, 1, 2, 3])


PIN_PATTERNS = list(FB.NAMED_PATTERNS) + [F.complete(3), F.complete(4), F.cycle(4), F.path(5)]
# sha256 of json.dumps(contains_subgraph(g, p)), one per line, for every
# connected class at m = 1..8 (the graphs of conftest.seen_dict_layer, by
# vertex count then form) and every theorem candidate at m = 22, 35, ...,
# 113, each against every PIN_PATTERNS entry: the witnesses as the search
# without symmetry-breaking conditions found them
WITNESS_PIN = (386, "8bc03563430a748236ffe2a3b900b2ecbce1b06fb46f4e28ed540d97dee3a8ba")


def test_witnesses_are_pinned():
    graphs = [g for m in range(1, 9) for n in range(2, m + 2) for g in seen_dict_layer(n, m)]
    graphs += [g for m in range(22, 114, 13) for _, g in F.theorem_candidates(m)]
    digest = hashlib.sha256()
    for g in graphs:
        for p in PIN_PATTERNS:
            digest.update(json.dumps(FB.contains_subgraph(g, p)).encode() + b"\n")
    assert (len(graphs), digest.hexdigest()) == WITNESS_PIN


def test_witnesses_match_unbroken_search(rng):
    patterns = [FB.named_pattern(name) for name in FB.NAMED_PATTERNS]
    patterns += [F.cycle(4), F.complete(3), F.complete(4), F.path(5), F.star(4)]
    found = 0
    for _ in range(150):
        g = random_connected(rng, 5, 12, extra_hi=14)
        for p in patterns:
            witness = FB.contains_subgraph(g, p)
            assert witness == unbroken_contains_subgraph(g, p)
            found += witness is not None
    assert 0.2 < found / (150 * len(patterns)) < 0.8  # both outcomes are exercised


# sha256 of json.dumps(contains_subgraph(g, name)), one per line, for every
# theorem candidate at every m = 22..120 against each named pattern: the
# witnesses as the search over the whole host found them
CANDIDATE_WITNESS_PIN = (1730, "d62229d9871602f0601e2e18a018a158e6b0a092c25bff535abaf190c1ae1eac")


def test_theorem_candidate_witnesses_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for m in range(22, 121):
        for _, g in F.theorem_candidates(m):
            for name in FB.NAMED_PATTERNS:
                digest.update(json.dumps(FB.contains_subgraph(g, name)).encode() + b"\n")
                count += 1
    assert (count, digest.hexdigest()) == CANDIDATE_WITNESS_PIN


def _blow_up(rng, g):
    """g with one or two vertices each grown into a class of 7-12 open twins,
    then shuffled so that every class is spread over the indices."""
    rows = list(g.adj)
    for v in rng.sample(range(g.n), rng.randint(1, 2)):
        for _ in range(rng.randint(7, 12) - 1):
            for u in bits(rows[v]):
                rows[u] |= 1 << len(rows)
            rows.append(rows[v])
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return Graph(len(rows), tuple(rows)).relabel(perm)


@pytest.fixture
def extend_hosts(monkeypatch):
    """(host rows, bitset of hosts marked used) of every ``_extend`` call."""
    hosts = []
    extend = FB._extend

    def spy(adj, *args):  # args: plan, assign, start[, used]
        hosts.append((adj, args[3] if len(args) > 3 else 0))
        return extend(adj, *args)

    monkeypatch.setattr(FB, "_extend", spy)
    return hosts


def test_twin_cut_hosts_match_unbroken_search(rng, extend_hosts):
    """Hosts whose open-twin classes exceed p: the search on the cut host
    returns the witness of the unconstrained search on the whole host."""
    patterns = [FB.named_pattern(name) for name in FB.NAMED_PATTERNS]
    patterns += [F.cycle(4), F.complete(3), F.complete(4), F.path(5), F.star(4)]
    for p in patterns:
        FB._plan(p)  # plan searches stay out of ``extend_hosts``
    found = 0
    for _ in range(200):
        g = _blow_up(rng, random_connected(rng, 4, 9))
        for p in patterns:
            extend_hosts.clear()
            witness = FB.contains_subgraph(g, p)
            assert witness == unbroken_contains_subgraph(g, p)
            assert [used != 0 for _, used in extend_hosts] == [True]  # the cut fired
            found += witness is not None
    assert 0.2 < found / (200 * len(patterns)) < 0.8  # both outcomes are exercised


def test_twin_classes_are_cut_to_p_vertices(extend_hosts):
    """The search may take at most p vertices per distinct adjacency row, and
    a host with no open-twin class larger than p is searched whole."""
    host = F.split_pendant_for_size(113, 2)
    assert host.n == 59
    for name in FB.NAMED_PATTERNS:
        extend_hosts.clear()
        FB.contains_subgraph(host, name)
        p = FB._plan(name).graph.n
        assert [(adj is host.adj, host.n - used.bit_count() <= p * len(set(host.adj)))
                for adj, used in extend_hosts] == [(True, True)]
    partite = reduce(F.join, [F.empty(2)] * 9)
    for g, patterns in ((F.cycle(8), FB.NAMED_PATTERNS), (partite, [F.complete(9), F.complete(10)])):
        for p in patterns:
            FB._plan(p)
            extend_hosts.clear()
            FB.contains_subgraph(g, p)
            assert extend_hosts == [(g.adj, 0)]


def _automorphism_count(p):
    edges = p.edges()
    return sum(all(p.adj[s[u]] >> s[v] & 1 for u, v in edges) for s in permutations(range(p.n)))


@pytest.mark.parametrize("pattern, size", [
    ("c5", 10), ("c6", 12), ("theta122", 4), ("theta123", 2), ("theta124", 2),
    (F.complete(4), 24),
])
def test_orbits_along_the_stabiliser_chain(pattern, size):
    """|Aut(P)| is the product of the orbit sizes along the order; the orbit
    of position i is i itself plus the later positions that i is below."""
    plan = FB._plan(pattern)
    orbits = [1 + sum(i in below for below in plan.below) for i in range(plan.graph.n)]
    assert math.prod(orbits) == size == _automorphism_count(plan.graph)


def test_clique_free_host_needs_one_image_per_clique():
    """K10 has 10! automorphisms.  Without the conditions, proving the
    complete 9-partite graph on 18 vertices K10-free walks all 2^9 * 9!
    ordered 9-cliques; with them, each clique once in ascending order."""
    host = reduce(F.join, [F.empty(2)] * 9)
    assert FB.contains_subgraph(host, F.complete(10)) is None
    assert FB.contains_subgraph(host, F.complete(9)) == list(range(0, 18, 2))
    assert FB._plan(F.complete(10)).below[9] == tuple(range(9))


def test_equal_patterns_share_one_plan():
    assert FB._plan(F.cycle(4)) is FB._plan(F.cycle(4))
    assert FB._plan("theta123") is FB._plan("theta123")


def test_cycle_ranks_are_pinned():
    """Each plan keeps its pattern's cycle rank m - n + 1: 1 for the cycles,
    2 for the thetas, 6 for K5."""
    assert {name: FB.cycle_rank(name) for name in FB.NAMED_PATTERNS} == {
        "c5": 1, "c6": 1, "theta122": 2, "theta123": 2, "theta124": 2}
    assert FB.cycle_rank(F.complete(5)) == FB._plan(F.complete(5)).rank == 6


def test_no_connected_host_of_smaller_cycle_rank_contains_a_pattern(rng):
    """A pattern's cycle space lies inside its host's, so a witness needs a
    connected host of cycle rank at least the pattern's."""
    patterns = list(FB.NAMED_PATTERNS) + [F.complete(4), F.cycle(3)]
    for _ in range(300):
        g = random_connected(rng, 4, 10)
        for p in patterns:
            if FB.contains_subgraph(g, p) is not None:
                assert g.m - g.n + 1 >= FB.cycle_rank(p)
