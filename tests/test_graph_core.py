"""Graph value semantics, canonical forms and file formats."""

import hashlib
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bht import families, graphs, search
from bht.graphs import (
    Graph,
    bits,
    canonical_form,
    canonical_labelling,
    components,
    disjoint_union,
    format_edge_list,
    from_edge_list,
    from_graph6,
    induced_subgraph,
    is_connected,
    join,
    labelling_and_automorphisms,
    parse_edge_list,
    to_graph6,
)
from conftest import brute_automorphisms, brute_isomorphic, enumerate_connected, graph_of_form


def _walk(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@pytest.mark.parametrize("mask", [0, 1, 0b101101, (1 << 13) - 1, 1 << 13, (1 << 13) + 5,
                                  (1 << 20) - 3, (1 << 300) - 1,
                                  sum(1 << i for i in range(0, 300, 7))])
def test_bits_is_the_ascending_walk(monkeypatch, mask):
    """``bits`` returns the ascending tuple of set positions, from the table
    or walked, and tables only masks below 2^13."""
    monkeypatch.setattr(graphs, "_BITS", {})
    assert bits(mask) == _walk(mask)  # walked
    assert bits(mask) == _walk(mask) and type(bits(mask)) is tuple  # read back, if tabled
    assert list(graphs._BITS) == ([mask] if mask < 1 << 13 else [])


def test_from_edge_list_triangle():
    g = from_edge_list([(0, 1), (1, 2), (2, 0)])
    assert (g.n, g.m) == (3, 3)


def test_from_edge_list_empty():
    g = from_edge_list([])
    assert (g.n, g.m) == (0, 0)


def test_from_edge_list_dedup():
    assert from_edge_list([(0, 1), (0, 1)]).m == 1


def test_loop_rejected():
    with pytest.raises(ValueError, match=r"\(2,2\)"):
        from_edge_list([(0, 1), (2, 2)])


def test_induced_subgraph():
    k4 = families.complete(4)
    assert induced_subgraph(k4, [0, 2, 3]).m == 3
    c5 = families.cycle(5)
    p3 = induced_subgraph(c5, [0, 1, 2])
    assert (p3.n, p3.m) == (3, 2)
    book = families.complete_split(6, 2)
    assert induced_subgraph(book, [0, 1]).m == 1  # the dominating pair is K2


def test_induced_subgraph_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(families.complete(3), [0, 5])


def test_join_counts():
    s62 = join(families.complete(2), families.empty(4))
    assert (s62.n, s62.m) == (6, 9)
    wheelish = join(families.empty(1), families.cycle(4))
    assert wheelish.m == 8
    cone = join(families.empty(1), families.star_matching(4, 1))
    assert cone.m == 2 * 3 + 2  # r = 3 in the cone construction


def test_edit_operations():
    k4 = families.complete(4)
    assert brute_isomorphic(k4.remove_vertex(1), families.complete(3))
    p3 = families.path(3)
    assert brute_isomorphic(p3.add_edge(0, 2), families.cycle(3))
    star_plus = families.star(9).add_edge(1, 2)
    assert star_plus.m == 9  # star on m vertices plus a leaf edge has m edges
    with pytest.raises(ValueError):
        p3.remove_edge(0, 2)
    with pytest.raises(ValueError):
        p3.add_edge(0, 7)


def test_remove_vertex_edge_count(rng):
    for _ in range(50):
        from conftest import random_connected

        g = random_connected(rng, 4, 9)
        v = rng.randrange(g.n)
        assert g.remove_vertex(v).m == g.m - g.degree(v)


def test_connectivity():
    assert is_connected(families.cycle(6))
    two_k3 = disjoint_union(families.complete(3), families.complete(3))
    assert not is_connected(two_k3)
    assert len(components(two_k3)) == 2
    assert is_connected(families.split_pendant(7, 2, 1))
    assert not is_connected(Graph(0, ()))
    assert is_connected(Graph(1, (0,)))


@st.composite
def graph_and_perm(draw, max_n=12, min_n=0):
    """A graph on ``min_n`` to ``max_n`` vertices (isolated ones allowed)
    and a permutation of its vertices."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    rows = [0] * n
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows)), draw(st.permutations(list(range(n))))


@settings(max_examples=200, deadline=None)
@given(graph_and_perm())
def test_canonical_invariant_under_relabeling(case):
    g, perm = case
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


def _validated(g: Graph) -> Graph:
    """``g`` rebuilt through the validating constructor, which raises on
    rows that are out of range, looped or asymmetric."""
    return Graph(g.n, g.adj)


@settings(max_examples=200, deadline=None)
@given(graph_and_perm(), graph_and_perm(max_n=6), st.data())
def test_trusted_edits_equal_validated_graphs(case, other, data):
    """The edits and builders skip re-validation; what they build must
    equal the graph that full validation builds from the same rows."""
    g, _ = case
    h, _ = other
    assume(g.n >= 2)
    u, v = data.draw(st.permutations(list(range(g.n))))[:2]
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    assert g.add_edge(u, v) == Graph(g.n, tuple(rows))
    assert g.add_vertex() == Graph(g.n + 1, g.adj + (0,))
    perm = data.draw(st.permutations(list(range(g.n))))
    relabelled = g.relabel(perm)
    assert relabelled == Graph(g.n, relabelled.adj)
    grown = g.add_edge(u, v)
    assert grown.remove_edge(u, v) == _validated(grown.remove_edge(u, v))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14))
                               .filter(lambda e: e[0] != e[1]), max_size=30))
    built = from_edge_list(pairs)
    assert built == _validated(built)
    assert built.m == len({frozenset(e) for e in pairs})
    assert from_graph6(to_graph6(g)) == _validated(g)
    kept = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert induced_subgraph(g, kept) == _validated(induced_subgraph(g, kept))
    for combined in (disjoint_union(g, h), disjoint_union(h, g), join(g, h), join(h, g)):
        assert combined == _validated(combined)


def _family_arguments(names):
    """Every argument tuple of a small grid: one parameter runs over
    0..11, two over 0..7 each, three over 0..5 each, and the path lengths
    of generalized_theta are 2 or 3 values in 0..5."""
    if names is None:
        return [ls for k in (2, 3) for ls in product(range(6), repeat=k)]
    return list(product(range({1: 12, 2: 8, 3: 6}[len(names)]), repeat=len(names)))


@pytest.mark.parametrize("name", sorted(families.FAMILIES))
def test_family_builders_equal_validated_graphs(name):
    """Every family constructor, over the small grid, builds only graphs
    that full validation accepts unchanged, and the grid holds valid
    arguments for each."""
    build, names = families.FAMILIES[name]
    valid = 0
    for args in _family_arguments(names):
        try:
            g = build(*args)
        except ValueError:
            continue
        valid += 1
        assert g == _validated(g), (name, args)
    assert valid, name


@settings(max_examples=200, deadline=None)
@given(graph_and_perm())
def test_canonical_labelling_attains_the_form(case):
    """Relabelling g by its canonical labelling gives the graph whose
    upper-triangle code is the form, the same graph for every relabelling
    of g."""
    g, perm = case
    form, labelling = canonical_labelling(g)
    assert form == canonical_form(g)
    assert g.relabel(labelling) == graph_of_form(form)
    form2, labelling2 = canonical_labelling(g.relabel(perm))
    assert form2 == form
    assert g.relabel(perm).relabel(labelling2) == graph_of_form(form)


@settings(max_examples=300, deadline=None)
@given(graph_and_perm(max_n=10))
def test_layer_signature_is_invariant_under_relabelling(case):
    """The signature that buckets a layer's tied children is the same for
    every relabelling of a graph, so copies of one class share a bucket."""
    g, perm = case
    assert search._signature(g.relabel(perm)) == search._signature(g)


def _check_automorphisms(g: Graph, automorphisms: list[tuple[int, ...]]) -> None:
    """The generators from the labelling search generate exactly the
    brute-force group, and the orbits the layer builder takes from them on
    vertices and on non-edges are the brute-force orbits."""
    form, labelling, generators = labelling_and_automorphisms(g)
    assert (form, labelling) == canonical_labelling(g)
    group = {tuple(range(g.n))}
    todo = list(group)
    for p in todo:
        for q in generators:
            r = tuple(q[v] for v in p)
            if r not in group:
                group.add(r)
                todo.append(r)
    assert group == set(automorphisms)
    vertices = [(v,) for v in range(g.n)]
    non_edges = [(u, v) for u, v in combinations(range(g.n), 2) if not g.adj[u] >> v & 1]
    for items in (vertices, non_edges):
        orbits = {t: {tuple(sorted(a[v] for v in t)) for a in automorphisms} for t in items}
        assert search._orbit_representatives(items, generators) == [
            t for t in items if t == min(orbits[t])]
        for t in items:
            # the generators move t onto every member of its orbit
            assert search._orbit_representatives(sorted(orbits[t]), generators) == [min(orbits[t])]


def test_automorphisms_match_brute_force_up_to_six_vertices():
    """Every class on n <= 6 vertices, grown edge by edge from the empty
    graph with one graph kept per form."""
    for n in range(7):
        layer = {canonical_form(Graph(n, (0,) * n)): Graph(n, (0,) * n)}
        classes = 0
        while layer:
            classes += len(layer)
            grown: dict[bytes, Graph] = {}
            for g in layer.values():
                _check_automorphisms(g, brute_automorphisms(g))
                for u, v in combinations(range(n), 2):
                    if not g.adj[u] >> v & 1:
                        h = g.add_edge(u, v)
                        grown.setdefault(canonical_form(h), h)
            layer = grown
        assert classes == (1, 1, 2, 4, 11, 34, 156)[n]


@settings(max_examples=100, deadline=None)
@given(graph_and_perm(max_n=9, min_n=7))
def test_automorphisms_match_brute_force_seven_to_nine_vertices(case):
    g, perm = case
    g = g.relabel(perm)
    automorphisms = brute_automorphisms(g, cap=5040)
    assume(automorphisms is not None)
    _check_automorphisms(g, automorphisms)


def test_direct_construction_still_validates():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (2, 0))
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, (4, 0))
    with pytest.raises(ValueError, match="loop"):
        Graph(1, (1,))


# sha256 of the canonical forms' hex, one per line, of every connected class
# at m = 1..9 (in enumeration order) and every theorem candidate at
# m = 22, 35, ..., 113: the bytes that checkpoints, JSON reports and the
# benchmark oracle store
CANONICAL_PIN = (1096, "1eeff25c834c5883581927a9991e00b8e3e1cef8d919335e968aff93e8b84101")


def test_canonical_bytes_are_pinned():
    graphs = [g for m in range(1, 10) for g in enumerate_connected(m)]
    graphs += [g for m in range(22, 121, 13) for _, g in families.theorem_candidates(m)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(canonical_form(g).hex().encode() + b"\n")
    assert (len(graphs), digest.hexdigest()) == CANONICAL_PIN


def test_canonical_distinguishes():
    assert canonical_form(families.star(4)) != canonical_form(families.path(4))


def test_canonical_matches_brute_force_exhaustively_n4():
    pairs = list(combinations(range(4), 2))
    graphs = []
    for mask in range(2**6):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        g = from_edge_list(edges) if edges else families.empty(0)
        graphs.append(Graph(4, g.adj + (0,) * (4 - g.n)))
    canon_classes = {}
    for g in graphs:
        canon_classes.setdefault(canonical_form(g), g)
    # brute-force class representatives must biject with canonical classes
    reps: list[Graph] = []
    for g in graphs:
        if not any(brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    assert len(reps) == len(canon_classes) == 11


def test_canonical_matches_brute_force_exhaustively_n5():
    pairs = list(combinations(range(5), 2))
    by_canon: dict[bytes, Graph] = {}
    for mask in range(2**10):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        g = from_edge_list(edges) if edges else families.empty(0)
        g = Graph(5, g.adj + (0,) * (5 - g.n))
        canon = canonical_form(g)
        if canon in by_canon:
            assert brute_isomorphic(g, by_canon[canon])
        else:
            assert not any(brute_isomorphic(g, h) for h in by_canon.values())
            by_canon[canon] = g
    assert len(by_canon) == 34  # distinct graphs on five vertices


def test_canonical_matches_brute_force_sampled(rng):
    from conftest import random_connected

    for n in (6, 7):
        for _ in range(60):
            g = random_connected(rng, n, n)
            h = random_connected(rng, n, n)
            assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)


def test_canonical_hundred_random_permutations(rng):
    for g in (families.cycle(5), families.book(9), families.star_matching(8, 2),
              families.r_chain(2), families.theta(1, 2, 3)):
        base = canonical_form(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == base


def test_graph6_round_trip(rng):
    from conftest import random_connected

    cases = [families.complete(4), families.empty(1), families.cycle(7),
             families.book(11), families.empty(2)]
    cases += [random_connected(rng, 3, 14) for _ in range(40)]
    for g in cases:
        assert from_graph6(to_graph6(g)).adj == g.adj


def test_graph6_against_networkx(rng):
    nx = pytest.importorskip("networkx")
    from conftest import random_connected

    for _ in range(40):
        g = random_connected(rng, 2, 14)
        ours = to_graph6(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg)
        # networkx emits a ">>graph6<<" header and trailing newline
        assert theirs.decode().replace(">>graph6<<", "").strip() == ours
        back = nx.from_graph6_bytes(ours.encode())
        assert sorted(map(tuple, map(sorted, back.edges()))) == g.edges()


@settings(max_examples=200, deadline=None)
@given(graph_and_perm(max_n=16))
def test_components_against_networkx(case):
    nx = pytest.importorskip("networkx")
    g, _ = case
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    theirs = sorted(nx.connected_components(nxg), key=min)
    assert components(g) == [sum(1 << v for v in comp) for comp in theirs]


def test_graph6_long_form():
    g = families.star(70)
    assert to_graph6(g).startswith("~")
    assert from_graph6(to_graph6(g)).adj == g.adj


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        from_graph6("C")  # truncated body
    with pytest.raises(ValueError):
        from_graph6("")


def test_edge_list_text_round_trip():
    g = families.theta(1, 2, 4)
    assert parse_edge_list(format_edge_list(g)).adj == g.adj
    parsed = parse_edge_list("# comment\n0 1\n1 2  # trailing\n\n")
    assert parsed.m == 2
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("0 1\n1 2 3\n")


def _reads_or_rejects(parse, text: str) -> Graph | None:
    """``parse(text)`` gives a graph that round-trips through graph6, or
    raises ValueError (None); any other exception fails the test."""
    try:
        g = parse(text)
    except ValueError:
        return None
    assert from_graph6(to_graph6(g)) == g
    return g


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=200), max_size=12))
@example("Dhcxyz")  # C5 with trailing characters
@example("Dhc?")  # C5 with a trailing character of zero bits
@example("Dhd")  # C5 with a nonzero padding bit
@example("A`")
@example("A~")
@example("~??@")  # K1 behind the long size prefix
def test_graph6_parser_fuzz(text):
    """A string that reads as a graph is that graph's own graph6 encoding,
    header and surrounding whitespace aside."""
    g = _reads_or_rejects(from_graph6, text)
    if g is not None:
        assert to_graph6(g) == text.strip().removeprefix(">>graph6<<")


def test_edge_list_vertex_past_graph6_range_is_rejected_on_its_line():
    """The bound is checked before any row is allocated."""
    with pytest.raises(ValueError, match="line 2: vertex 1000000000000 exceeds 258046"):
        parse_edge_list("0 1\n1000000000000 3\n")


# every index past graph6's range is rejected before a graph is built
_EDGE_TOKENS = ["0", "1", "2", "10", "99", "+3", "-1", "x", "1.5", "#", "", "\t", "1000000000000"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_EDGE_TOKENS), max_size=4), max_size=5))
def test_edge_list_parser_fuzz(lines):
    _reads_or_rejects(parse_edge_list, "\n".join(" ".join(line) for line in lines))
