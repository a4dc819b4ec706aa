"""Equitable partitions and exact quotient polynomial reproduction."""

import inspect
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bht import families as F
from bht import partition as PT
from bht import polynomials as P
from bht.graphs import Graph, is_connected, to_graph6
from conftest import (fraction_charpoly, mask_is_equitable, mask_quotient, mask_refinement,
                      random_connected)

LAYOUT = PT.REFERENCE_PARTITIONS


def test_integer_inputs_build_no_fraction(monkeypatch):
    """The Sturm chain of an integer polynomial (with a repeated root, so that
    its squarefree part is a proper factor), the quotient matrix of an
    equitable partition and the characteristic polynomials of integer
    matrices run on integers alone: none builds a Fraction."""
    g, blocks = LAYOUT["cone_star_edge"](40, r=3)
    new = Fraction.__new__
    calls = []

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    chain = P.sturm_chain(P.Polynomial([4, -4, -3, 4, -1]) * P.Polynomial([-1, 1]))
    cp = PT.charpoly(PT.quotient(g, blocks))
    adj = PT.adjacency_charpoly(F.cycle(5))
    monkeypatch.undo()
    assert calls == []
    assert chain[0] == P.Polynomial([-2, 1, 2, -1])  # -(x - 2)(x - 1)(x + 1)
    assert cp == P.instantiate("cone_star_edge", 40, r=3)
    assert adj == P.Polynomial([-2, 5, 0, -5, 0, 1])


def test_is_equitable():
    g, blocks = LAYOUT["split_pendant"](23, t=2)
    assert PT.is_equitable(g, blocks)
    singletons = [[v] for v in range(g.n)]
    assert PT.is_equitable(g, singletons)
    assert not PT.is_equitable(F.cycle(5), [[0, 1, 2], [3, 4]])


def test_partition_validation():
    g = F.cycle(4)
    with pytest.raises(ValueError, match="empty"):
        PT.validate_partition(g, [[0, 1, 2, 3], []])
    with pytest.raises(ValueError, match="twice"):
        PT.validate_partition(g, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError, match="cover"):
        PT.validate_partition(g, [[0, 1], [2]])
    with pytest.raises(ValueError, match="equitable"):
        PT.quotient(F.cycle(5), [[0, 1, 2], [3, 4]])


def test_split_pendant_quotient_matrix_shape():
    """Blocks in refinement order: pendants, independents, the
    pendant-carrying hub, the other hub."""
    g, blocks = LAYOUT["split_pendant"](23, t=2)
    assert blocks == ((12, 13), tuple(range(2, 12)), (0,), (1,))
    assert PT.quotient(g, blocks) == [
        [0, 0, 1, 0],
        [0, 0, 1, 1],
        [2, 10, 0, 1],
        [0, 10, 1, 0],
    ]


def test_diamond_quotient_matrix_shape():
    """Star leaves, K4 rim, hub, star centre."""
    g, blocks = LAYOUT["diamond_k4"](23)
    assert blocks == (tuple(range(5, 13)), (1, 2, 3), (0,), (4,))
    assert PT.quotient(g, blocks) == [
        [0, 0, 1, 1],
        [0, 2, 1, 0],
        [8, 3, 0, 1],
        [8, 0, 1, 0],
    ]


def test_cone_double_star_quotient_matrix_shape():
    """The leaf of centre 2, the leaves of centre 1, the apex, the centres.
    In the alternative the first block is the detached leaf, centre 2
    joins centre 1's leaves, and the apex's pendant comes last."""
    g, blocks = LAYOUT["cone_double_star"](23)
    assert blocks == ((12,), tuple(range(3, 12)), (0,), (1,), (2,))
    nine = 9  # (m-5)/2 at m = 23
    assert PT.quotient(g, blocks) == [
        [0, 0, 1, 0, 1],
        [0, 0, 1, 1, 0],
        [1, nine, 0, 1, 1],
        [0, nine, 1, 0, 1],
        [1, 0, 1, 1, 0],
    ]
    g2, blocks2 = LAYOUT["cone_double_star_alt"](23)
    assert blocks2 == ((12,), tuple(range(2, 12)), (0,), (1,), (13,))
    ten = 10  # (m-3)/2
    assert PT.quotient(g2, blocks2) == [
        [0, 0, 1, 0, 0],
        [0, 0, 1, 1, 0],
        [1, ten, 0, 1, 1],
        [0, ten, 1, 0, 0],
        [0, 0, 1, 0, 0],
    ]


def test_bipartite_quotient_matrix_shapes():
    """K_{p,q} minus an edge: the q-side but the missing edge's end, the
    p-side but the other end, then both ends.  K_{p,q} plus a pendant: the
    q-side, the p-side but the pendant's neighbour, then it and the pendant."""
    g, blocks = LAYOUT["bipartite_minus"](27, p=2)
    q = (27 + 1) // 2  # 14
    assert blocks == (tuple(range(2, 15)), (0,), (1,), (15,))
    assert PT.quotient(g, blocks) == [
        [0, 1, 1, 0],
        [q - 1, 0, 0, 1],
        [q - 1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    g, blocks = LAYOUT["bipartite_plus"](28, p=3)
    q = (28 - 1) // 3  # 9
    assert blocks == (tuple(range(3, 12)), (1, 2), (0,), (12,))
    assert PT.quotient(g, blocks) == [
        [0, 2, 1, 0],
        [q, 0, 0, 0],
        [q, 0, 0, 1],
        [0, 0, 1, 0],
    ]


def test_charpoly_identity_matrix():
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    expected = P.Polynomial([1])  # (x-1)^5
    for _ in range(5):
        expected = expected * P.Polynomial([-1, 1])
    assert PT.charpoly(eye) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-20, 20), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_charpoly_matches_fraction_oracle(matrix):
    assert PT.charpoly(matrix) == fraction_charpoly(matrix)


def test_quotient_polynomials_match_named_instances():
    for m, t in [(22, 1), (23, 2), (29, 4), (34, 3), (39, 6)]:
        g, blocks = LAYOUT["split_pendant"](m, t=t)
        assert PT.charpoly(PT.quotient(g, blocks)) == P.split_pendant_poly(m, t)
    for m in (23, 31):
        g, blocks = LAYOUT["diamond_k4"](m)
        assert PT.charpoly(PT.quotient(g, blocks)) == P.diamond_k4_poly(m)
    for m, r in [(22, 3), (30, 5), (40, 8)]:
        g, blocks = LAYOUT["cone_star_edge"](m, r=r)
        assert PT.charpoly(PT.quotient(g, blocks)) == P.cone_star_edge_poly(m, r)


def test_double_star_quintics_exact_formulas():
    for m in (23, 31, 39):
        g, blocks = LAYOUT["cone_double_star"](m)
        cp = PT.charpoly(PT.quotient(g, blocks))
        assert cp == P.Polynomial(
            [m - 5, Fraction(3 * m - 15, 2), -(m - 1), -m, 0, 1]
        )
        g2, blocks2 = LAYOUT["cone_double_star_alt"](m)
        cp2 = PT.charpoly(PT.quotient(g2, blocks2))
        assert cp2 == P.Polynomial([0, m - 3, -(m - 3), -m, 0, 1])
        diff = cp - cp2
        assert diff == P.Polynomial([m - 5, Fraction(m - 9, 2), -2])


def test_cone_double_star_partitions_take_the_quintics_range():
    """Both layouts take every odd m >= 7, as cone_double_star_poly and
    cone_double_star_alt_poly do, and reproduce their quintics there."""
    for m in (7, 9):
        for layout, poly in ((LAYOUT["cone_double_star"], P.cone_double_star_poly),
                             (LAYOUT["cone_double_star_alt"], P.cone_double_star_alt_poly)):
            g, blocks = layout(m)
            assert g.m == m
            assert PT.charpoly(PT.quotient(g, blocks)) == poly(m)
            assert PT.quotient_lambda_check(g, blocks)[2]
    for m in (5, 8):
        for layout in (LAYOUT["cone_double_star"], LAYOUT["cone_double_star_alt"]):
            with pytest.raises(ValueError, match=f"need odd m >= 7, got {m}"):
                layout(m)


def _star_four_blocks(m: int):
    """Star plus one matching edge, refined from the centre and one matched
    leaf seeded apart: 4 blocks where the reference layout has 3."""
    g = F.star_matching(m, 1)
    return g, PT.coarsest_equitable_refinement(g, [range(2, m), [0], [1]])


def test_star_matching_partitions():
    """The reference layout gives the cubic and the 4-block layout the
    quartic, at the sizes the CLI pin takes too, with the same largest root."""
    for m in (9, 22, 23, 35, 40, 41, 120):
        g, merged = LAYOUT["star_matching"](m)
        g4, four = _star_four_blocks(m)
        assert g4 == g and len(merged) == 3 and len(four) == 4
        assert PT.charpoly(PT.quotient(g, merged)) == P.star_matching_cubic(m)
        assert PT.charpoly(PT.quotient(g, four)) == P.star_matching_quartic(m)
        assert PT.quotient_lambda_check(g, four)[2]


def test_bipartite_partitions():
    for m, p in [(27, 2), (26, 3), (50, 3)]:
        g, blocks = LAYOUT["bipartite_minus"](m, p=p)
        assert PT.charpoly(PT.quotient(g, blocks)) == P.bipartite_minus_poly(m, p)
    for m, p in [(28, 3), (46, 3), (26, 5)]:
        g, blocks = LAYOUT["bipartite_plus"](m, p=p)
        assert PT.charpoly(PT.quotient(g, blocks)) == P.bipartite_plus_poly(m, p)


@pytest.mark.parametrize("name", sorted(PT.REFERENCE_PARTITIONS))
def test_reference_partitions_build_or_raise_value_error(name):
    """Over m = 1..39 and each required parameter in 0..11, a reference
    layout is an equitable partition of its graph, or ValueError."""
    layout = PT.REFERENCE_PARTITIONS[name]
    required = sum(1 for q in inspect.signature(layout).parameters.values()
                   if q.default is inspect.Parameter.empty)
    built = 0
    for m in range(1, 40):
        for args in product(range(12), repeat=required - 1):
            try:
                g, blocks = layout(m, *args)
            except ValueError:
                continue
            PT.quotient(g, blocks)
            built += 1
    assert built, name


def test_quotient_charpoly_divides_adjacency_charpoly():
    cases = [
        LAYOUT["split_pendant"](13, t=2),
        LAYOUT["star_matching"](11),
        LAYOUT["diamond_k4"](9),
        LAYOUT["bipartite_minus"](11, p=2),
    ]
    for g, blocks in cases:
        assert g.n <= 12
        quot = PT.charpoly(PT.quotient(g, blocks))
        full = PT.adjacency_charpoly(g)
        _, rem = full.divmod(quot)
        assert not rem.coeffs, f"remainder {rem} for n={g.n}"


def test_divisibility_on_refined_random_graphs(rng):
    for _ in range(25):
        g = random_connected(rng, 4, 10)
        blocks = PT.coarsest_equitable_refinement(g, [list(range(g.n))])
        quot = PT.charpoly(PT.quotient(g, blocks))
        _, rem = PT.adjacency_charpoly(g).divmod(quot)
        assert not rem.coeffs


def test_coarsest_refinement():
    book = F.book(9)
    ref = PT.coarsest_equitable_refinement(book, [list(range(book.n))])
    assert sorted(len(b) for b in ref) == [2, 4]
    kn = F.complete(7)
    assert PT.coarsest_equitable_refinement(kn, [list(range(7))]) == (tuple(range(7)),)
    sm = F.star_matching(10, 1)
    ref = PT.coarsest_equitable_refinement(sm, [list(range(10))])
    assert sorted(len(b) for b in ref) == [1, 2, 7]
    # idempotent
    assert PT.coarsest_equitable_refinement(sm, ref) == ref


@st.composite
def graphs_and_seeds(draw):
    """A graph on n <= 10 vertices and a seed partition of it, in random
    block and vertex order, sometimes spoiled: an empty block, a repeated,
    out-of-range or missing vertex."""
    n = draw(st.integers(1, 10))
    adj = [0] * n
    for u, v in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks = [draw(st.permutations([v for v in range(n) if labels[v] == k]))
              for k in draw(st.permutations(sorted(set(labels))))]
    spoil = draw(st.sampled_from(["none", "none", "empty", "repeat", "range", "missing"]))
    if spoil == "empty":
        blocks.insert(draw(st.integers(0, len(blocks))), [])
    elif spoil == "repeat":
        blocks[-1].append(blocks[0][0])
    elif spoil == "range":
        blocks[0].append(draw(st.sampled_from([-1, n, n + 3])))
    elif spoil == "missing" and len(blocks[-1]) > 1:
        blocks[-1].pop()
    return Graph(n, tuple(adj)), blocks


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(graphs_and_seeds())
def test_partition_matches_mask_oracles(case):
    g, seed = case
    assert _outcome(PT.is_equitable, g, seed) == _outcome(mask_is_equitable, g, seed)
    assert _outcome(PT.quotient, g, seed) == _outcome(mask_quotient, g, seed)
    refined = _outcome(PT.coarsest_equitable_refinement, g, seed)
    assert refined == _outcome(mask_refinement, g, seed)
    if not isinstance(refined, str):
        assert PT.is_equitable(g, refined)
        assert PT.quotient(g, refined) == mask_quotient(g, refined)


def test_equitable_quotients_keep_the_largest_root(rng):
    """An equitable quotient's largest root is the graph's, connected or not
    (the cells that meet a component give a principal submatrix), so `bht
    quotient` reports it with no eigen-solve.  Exactly, on random graphs
    with n <= 10: the coarsest equitable refinement of a random seed has
    the largest root of the full adjacency charpoly."""
    disconnected = 0
    for _ in range(300):
        n, density = rng.randint(1, 10), rng.random()
        adj = [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        g = Graph(n, tuple(adj))
        disconnected += not is_connected(g)
        labels = [rng.randrange(3) for _ in range(n)]
        seed = [[v for v in range(n) if labels[v] == k] for k in sorted(set(labels))]
        blocks = PT.coarsest_equitable_refinement(g, seed)
        order = P.compare_largest_roots(PT.charpoly(PT.quotient(g, blocks)),
                                        PT.adjacency_charpoly(g)).order
        assert order == "eq", (to_graph6(g), blocks)
    assert disconnected > 50


def test_quotient_lambda_agreement():
    g, blocks = LAYOUT["split_pendant"](23, t=2)
    lam_a, lam_q, ok = PT.quotient_lambda_check(g, blocks)
    assert ok
    # singleton partition is trivially equitable with the same lambda
    g = F.theta(1, 2, 3)
    lam_a, lam_q, ok = PT.quotient_lambda_check(g, [[v] for v in range(g.n)])
    assert ok
    # both star partitions deliver the same largest root
    g, merged = LAYOUT["star_matching"](20)
    _, lam3, _ = PT.quotient_lambda_check(g, merged)
    g, four = _star_four_blocks(20)
    _, lam4, _ = PT.quotient_lambda_check(g, four)
    assert abs(lam3 - lam4) <= 1e-12


def test_c6_extremal_odd_equals_cone_quintic():
    for m in range(23, 72, 2):
        assert P.c6_extremal(m) == P.cone_star_matching_odd(m)
