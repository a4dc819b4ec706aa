"""Spectral radii, Perron vectors, eigen-identities and perturbation bounds."""

import math

import numpy as np
import pytest

from bht import families as F
from bht import search
from bht import spectral as S
from bht.graphs import disjoint_union
from bht.partition import adjacency_charpoly, charpoly, charpoly_lambda_check, quotient
from bht.polynomials import largest_real_root
from conftest import (
    bound_clique_free,
    bound_vertex_deletion,
    eigen_identity_residuals,
    extremal_vertex,
    is_complete_bipartite,
    random_connected,
    rayleigh_lower_bound,
    rewire_monotonicity,
)


def test_complete_graphs():
    for n in (2, 5, 9):
        assert abs(S.spectral_radius(F.complete(n)).lam - (n - 1)) <= 1e-10


def test_complete_bipartite():
    for a, b in ((1, 5), (3, 7), (4, 4)):
        assert abs(S.spectral_radius(F.complete_bipartite(a, b)).lam - math.sqrt(a * b)) <= 1e-10


def test_book_closed_form():
    lam = S.spectral_radius(F.book(9)).lam
    assert abs(lam - (1 + math.sqrt(33)) / 2) <= 1e-10


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        S.spectral_radius(F.empty(0))


def test_disconnected_components():
    g = disjoint_union(F.complete(3), F.cycle(4))
    res = S.spectral_radius(g)
    assert abs(res.lam - 2.0) <= 1e-10
    # achieving component is the first one at lambda = 2; the rest zero-padded
    assert all(x == 0.0 for x in res.perron[3:])
    iso = disjoint_union(F.complete(4), F.empty(2))
    assert abs(S.spectral_radius(iso).lam - 3.0) <= 1e-10


def test_perron_contract_on_random_suite(rng):
    for _ in range(1000):
        g = random_connected(rng, 2, 16)
        res = S.spectral_radius(g)
        assert res.residual <= 1e-10
        arr = np.array(res.perron)
        assert abs(float(arr @ arr) - 1.0) <= 1e-12
        assert min(res.perron) > 0.0
        assert max(res.perron) <= 1 / math.sqrt(2) + 1e-12


def test_extremal_vertex():
    assert extremal_vertex(F.book(9)) == 0
    assert extremal_vertex(F.complete(6)) == 0
    assert extremal_vertex(F.star_matching(10, 1)) == 0
    with pytest.raises(ValueError):
        extremal_vertex(disjoint_union(F.complete(2), F.complete(2)))


def test_eigen_identities():
    for g in (F.cycle(5), F.complete(4), F.book(9), F.split_pendant_for_size(23, 2)):
        r1, r2 = eigen_identity_residuals(g)
        assert r1 <= 1e-8 and r2 <= 1e-8


def test_eigen_identities_random(rng):
    for _ in range(200):
        g = random_connected(rng, 3, 12)
        r1, r2 = eigen_identity_residuals(g)
        assert r1 <= 1e-8 and r2 <= 1e-8


def test_clique_free_bound():
    lhs, rhs, holds = bound_clique_free(F.cycle(5), 2)
    assert holds and abs(lhs - 2.0) <= 1e-10 and abs(rhs - math.sqrt(5)) <= 1e-12
    lhs, rhs, holds = bound_clique_free(F.complete_bipartite(3, 6), 2)
    assert holds and abs(lhs - rhs) <= 1e-9  # equality for complete bipartite
    with pytest.raises(ValueError, match="contains"):
        bound_clique_free(F.complete(4), 3)


def test_clique_free_equality_cases_exhaustive():
    """Over all connected graphs with n <= 6, triangle-free equality with
    sqrt(m) happens exactly for the complete bipartite ones."""
    from bht.forbidden import contains_subgraph

    for n in range(2, 7):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for g in search.connected_layer(n, m):
                if contains_subgraph(g, F.complete(3)) is not None:
                    continue
                lhs, rhs, holds = bound_clique_free(g, 2)
                assert holds
                assert (abs(lhs - rhs) <= 1e-9) == is_complete_bipartite(g)


def test_vertex_deletion_bound():
    lhs, rhs, holds, eq = bound_vertex_deletion(F.star(8), 3)
    assert holds and eq and abs(lhs - rhs) <= 1e-9
    lhs, rhs, holds, eq = bound_vertex_deletion(F.complete(6), 2)
    assert holds and eq and abs(lhs - rhs) <= 1e-9
    lhs, rhs, holds, eq = bound_vertex_deletion(F.cycle(6), 0)
    assert holds and not eq and rhs - lhs > 1e-3
    with pytest.raises(ValueError):
        bound_vertex_deletion(disjoint_union(F.complete(2), F.empty(1)), 2)


def test_vertex_deletion_random(rng):
    for _ in range(300):
        g = random_connected(rng, 3, 12)
        v = rng.randrange(g.n)
        lhs, rhs, holds, eq = bound_vertex_deletion(g, v)
        assert holds
        if abs(lhs - rhs) <= 1e-9:
            assert eq


def test_deletion_monotone_and_edge_addition_strict(rng):
    for _ in range(200):
        g = random_connected(rng, 3, 12)
        lam = S.spectral_radius(g).lam
        v = rng.randrange(g.n)
        sub = g.remove_vertex(v)
        if sub.n:
            assert S.spectral_radius(sub).lam <= lam + 1e-10
        non_edges = [(u, w) for u in range(g.n) for w in range(u + 1, g.n)
                     if not g.has_edge(u, w)]
        if non_edges:
            u, w = non_edges[rng.randrange(len(non_edges))]
            assert S.spectral_radius(g.add_edge(u, w)).lam > lam + 1e-12


def test_rewire_monotonicity_examples():
    # the star centre absorbs a leaf's private neighbour from a path tail
    g = F.star(5).add_vertex().add_edge(2, 5).add_vertex().add_edge(5, 6)
    before, after, holds = rewire_monotonicity(g, 0, 2, [5])
    assert holds and after > before
    # empty move leaves the radius unchanged
    before, after, holds = rewire_monotonicity(g, 0, 2, [])
    assert holds and after == before


def test_rewire_end_block_relocation():
    # a two-block graph whose cut vertex differs from the extremal vertex
    g = F.complete(5)
    for edge in [(4, 5), (5, 6), (6, 7)]:
        g = g.add_vertex().add_edge(*edge)
    u = extremal_vertex(g)
    assert u != 6
    before, after, holds = rewire_monotonicity(g, u, 6, [7])
    assert holds and after > before + 1e-9


def test_rewire_precondition_errors():
    g = F.star(6)
    with pytest.raises(ValueError, match="x_u >= x_v"):
        rewire_monotonicity(g, 1, 0, [2])
    with pytest.raises(ValueError, match="not movable"):
        rewire_monotonicity(g, 0, 1, [2])


def test_rayleigh_quotient():
    g = F.cycle(5)
    assert abs(rayleigh_lower_bound(g, [1.0] * 5) - 2.0) <= 1e-12
    res = S.spectral_radius(g)
    assert abs(rayleigh_lower_bound(g, list(res.perron)) - res.lam) <= 1e-10
    with pytest.raises(ValueError):
        rayleigh_lower_bound(g, [0.0] * 5)


def test_rayleigh_star_vector_lower_bound():
    """Plugging the plain star's Perron vector into the star-plus-edge graph."""
    for m in (10, 26, 40):
        g = F.star_matching(m, 1)
        y = np.zeros(m)
        y[0] = 1 / math.sqrt(2)
        y[1:] = 1 / math.sqrt(2 * (m - 1))
        val = rayleigh_lower_bound(g, y)
        assert abs(val - (math.sqrt(m - 1) + 1 / (m - 1))) <= 1e-12
        assert val <= S.spectral_radius(g).lam + 1e-12


def test_rayleigh_never_exceeds_lambda(rng):
    for _ in range(150):
        g = random_connected(rng, 3, 10)
        y = [rng.uniform(-1, 1) for _ in range(g.n)]
        if all(abs(v) < 1e-9 for v in y):
            continue
        assert rayleigh_lower_bound(g, y) <= S.spectral_radius(g).lam + 1e-12


def test_lambda_matches_exact_charpoly_root():
    for g in (F.book(9), F.star_matching(12, 1), F.split_pendant_for_size(13, 2),
              F.r_chain(2), F.theta(1, 2, 4)):
        lam = S.spectral_radius(g).lam
        root, _ = largest_real_root(adjacency_charpoly(g))
        assert abs(lam - root) <= 1e-9


def test_lambda_only_routines_keep_the_bits_on_every_claim_graph():
    """verify_theorem reads λ alone; on each claimed graph and rival at
    every m = 22..120 the λ-only routines equal spectral_radius(g).lam
    exactly, with no tolerance."""
    checked = 0
    for claim in search.CLAIMS.values():
        for m in range(max(22, claim.start), 121):
            graphs = [claim.graph(m)] + ([claim.rival(m)] if claim.rival else [])
            for g in filter(None, graphs):
                lam = S.spectral_radius(g).lam
                assert S.radius(g) == lam, (m, g.n)
                checked += 1
    assert checked >= 4 * 99


def test_radius_keeps_the_bits_on_disconnected_graphs(rng):
    """radius splits a disconnected graph into the components that
    spectral_radius solves, and returns its λ exactly; so does the
    quotient check that ``bht quotient`` runs on user input."""
    g = disjoint_union(F.star(4), F.cycle(4))  # K_{1,3} and C_4
    blocks = [[0], [1, 2, 3], [4, 5, 6, 7]]
    lam_a, lam_q, equal = charpoly_lambda_check(g, charpoly(quotient(g, blocks)))
    assert lam_a == S.spectral_radius(g).lam == S.radius(g)
    assert equal and abs(lam_a - 2.0) <= 1e-12
    for _ in range(200):
        g = disjoint_union(F.empty(rng.randrange(2)), random_connected(rng, 2, 9))
        for _ in range(rng.randrange(3)):
            g = disjoint_union(random_connected(rng, 2, 9), g)
        assert S.radius(g) == S.spectral_radius(g).lam
    assert S.radius(F.empty(1)) == S.spectral_radius(F.empty(1)).lam == 0.0


def test_layer_radii_agree_with_radius():
    """The stacked solve gives ``radius`` within 1e-12 on every
    class of every layer with m <= 10 (3,391 graphs), solved a layer at a
    time and one graph at a time; the largest difference measured is
    7.1e-15, far below the search's TIE_TOL / 2."""
    for m in range(11):
        for n in range(1, m + 2):
            graphs = [c.graph for c in search._layer(n, m)]
            if not graphs:
                continue
            exact = [S.radius(g) for g in graphs]
            for got in (S.layer_radii(graphs), [S.layer_radii([g])[0] for g in graphs]):
                assert max(abs(a - b) for a, b in zip(got, exact)) <= 1e-12, (n, m)
