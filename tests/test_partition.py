"""Equitable partitions and exact quotient polynomial reproduction."""

import inspect
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bht import families as F
from bht import partition as PT
from bht import polynomials as P
from bht.graphs import Graph
from conftest import (fraction_charpoly, mask_is_equitable, mask_quotient, mask_refinement,
                      random_connected)


def test_integer_inputs_build_no_fraction(monkeypatch):
    """The Sturm chain of an integer polynomial (with a repeated root, so that
    its squarefree part is a proper factor), the quotient matrix of an
    equitable partition and the characteristic polynomials of integer
    matrices run on integers alone: none builds a Fraction."""
    g, blocks = PT.cone_star_edge_partition(40, 3)
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
    g, blocks = PT.split_pendant_partition(23, 2)
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
    g, blocks = PT.split_pendant_partition(23, 2)
    q = PT.quotient(g, blocks)
    assert q == [
        [Fraction(0), Fraction(1), Fraction(10), Fraction(2)],
        [Fraction(1), Fraction(0), Fraction(10), Fraction(0)],
        [Fraction(1), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
    ]


def test_diamond_quotient_matrix_shape():
    g, blocks = PT.diamond_k4_partition(23)
    assert PT.quotient(g, blocks) == [
        [Fraction(2), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(3), Fraction(0), Fraction(8), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(8), Fraction(0)],
    ]


def test_cone_double_star_quotient_matrix_shape():
    g, blocks = PT.cone_double_star_partition(23)
    nine = Fraction(9)  # (m-5)/2 at m = 23
    assert PT.quotient(g, blocks) == [
        [Fraction(0), Fraction(1), Fraction(1), Fraction(1), nine],
        [Fraction(1), Fraction(0), Fraction(1), Fraction(0), nine],
        [Fraction(1), Fraction(1), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
    ]
    g2, blocks2 = PT.cone_double_star_alt_partition(23)
    ten = Fraction(10)  # (m-3)/2
    assert PT.quotient(g2, blocks2) == [
        [Fraction(0), Fraction(1), Fraction(1), Fraction(1), ten],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0), ten],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
    ]


def test_bipartite_quotient_matrix_shapes():
    g, blocks = PT.bipartite_minus_partition(27, 2)
    q = (27 + 1) // 2  # 14
    assert PT.quotient(g, blocks) == [
        [Fraction(0), Fraction(0), Fraction(q - 1), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(q - 1), Fraction(0)],
        [Fraction(1), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
    ]
    g, blocks = PT.bipartite_plus_partition(28, 3)
    q = (28 - 1) // 3  # 9
    assert PT.quotient(g, blocks) == [
        [Fraction(0), Fraction(0), Fraction(q), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(q), Fraction(1)],
        [Fraction(2), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
    ]


def test_charpoly_identity_matrix():
    eye = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    expected = P.Polynomial([1])  # (x-1)^5
    for _ in range(5):
        expected = expected * P.Polynomial([-1, 1])
    assert PT.charpoly(eye) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=15), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_charpoly_matches_fraction_oracle(matrix):
    assert PT.charpoly(matrix) == fraction_charpoly(matrix)


def test_quotient_polynomials_match_named_instances():
    for m, t in [(22, 1), (23, 2), (29, 4), (34, 3), (39, 6)]:
        g, blocks = PT.split_pendant_partition(m, t)
        assert PT.charpoly(PT.quotient(g, blocks)) == P.split_pendant_poly(m, t)
    for m in (23, 31):
        g, blocks = PT.diamond_k4_partition(m)
        assert PT.charpoly(PT.quotient(g, blocks)) == P.diamond_k4_poly(m)
    for m, r in [(22, 3), (30, 5), (40, 8)]:
        g, blocks = PT.cone_star_edge_partition(m, r)
        assert PT.charpoly(PT.quotient(g, blocks)) == P.cone_star_edge_poly(m, r)


def test_double_star_quintics_exact_formulas():
    for m in (23, 31, 39):
        g, blocks = PT.cone_double_star_partition(m)
        cp = PT.charpoly(PT.quotient(g, blocks))
        assert cp == P.Polynomial(
            [m - 5, Fraction(3 * m - 15, 2), -(m - 1), -m, 0, 1]
        )
        g2, blocks2 = PT.cone_double_star_alt_partition(m)
        cp2 = PT.charpoly(PT.quotient(g2, blocks2))
        assert cp2 == P.Polynomial([0, m - 3, -(m - 3), -m, 0, 1])
        diff = cp - cp2
        assert diff == P.Polynomial([m - 5, Fraction(m - 9, 2), -2])


def test_cone_double_star_partitions_take_the_quintics_range():
    """Both layouts take every odd m >= 7, as cone_double_star_poly and
    cone_double_star_alt_poly do, and reproduce their quintics there."""
    for m in (7, 9):
        for layout, poly in ((PT.cone_double_star_partition, P.cone_double_star_poly),
                             (PT.cone_double_star_alt_partition, P.cone_double_star_alt_poly)):
            g, blocks = layout(m)
            assert g.m == m
            assert PT.charpoly(PT.quotient(g, blocks)) == poly(m)
            assert PT.quotient_lambda_check(g, blocks)[2]
    for m in (5, 8):
        for layout in (PT.cone_double_star_partition, PT.cone_double_star_alt_partition):
            with pytest.raises(ValueError, match=f"need odd m >= 7, got {m}"):
                layout(m)


def test_star_matching_partitions():
    for m in (9, 22, 35):
        g, merged = PT.star_matching_partition(m, merged=True)
        g, four = PT.star_matching_partition(m, merged=False)
        assert PT.charpoly(PT.quotient(g, merged)) == P.star_matching_cubic(m)
        assert PT.charpoly(PT.quotient(g, four)) == P.star_matching_quartic(m)


def test_bipartite_partitions():
    for m, p in [(27, 2), (26, 3), (50, 3)]:
        g, blocks = PT.bipartite_minus_partition(m, p)
        assert PT.charpoly(PT.quotient(g, blocks)) == P.bipartite_minus_poly(m, p)
    for m, p in [(28, 3), (46, 3), (26, 5)]:
        g, blocks = PT.bipartite_plus_partition(m, p)
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
        PT.split_pendant_partition(13, 2),
        PT.star_matching_partition(11),
        PT.diamond_k4_partition(9),
        PT.bipartite_minus_partition(11, 2),
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


def test_quotient_lambda_agreement():
    g, blocks = PT.split_pendant_partition(23, 2)
    lam_a, lam_q, ok = PT.quotient_lambda_check(g, blocks)
    assert ok
    # singleton partition is trivially equitable with the same lambda
    g = F.theta(1, 2, 3)
    lam_a, lam_q, ok = PT.quotient_lambda_check(g, [[v] for v in range(g.n)])
    assert ok
    # both star partitions deliver the same largest root
    g, merged = PT.star_matching_partition(20, merged=True)
    _, lam3, _ = PT.quotient_lambda_check(g, merged)
    g, four = PT.star_matching_partition(20, merged=False)
    _, lam4, _ = PT.quotient_lambda_check(g, four)
    assert abs(lam3 - lam4) <= 1e-12


def test_c6_extremal_odd_equals_cone_quintic():
    for m in range(23, 72, 2):
        assert P.c6_extremal(m) == P.cone_star_matching_odd(m)
