"""Family constructors: edge counts, isomorphism identities, validation."""

import math

import pytest

from bht import families as F
from bht import forbidden
from bht.graphs import canonical_form, disjoint_union, is_connected
from bht.spectral import spectral_radius
from conftest import expected_size, is_complete_bipartite


def test_complete_split_counts():
    g = F.complete_split(6, 2)
    assert (g.n, g.m) == (6, 9)
    assert F.complete_split(5, 0).m == 0
    for m in range(3, 41, 2):
        assert F.book(m).m == m
    with pytest.raises(ValueError):
        F.complete_split(3, 4)
    with pytest.raises(ValueError):
        F.book(10)


def test_closed_form_sizes():
    cases = [
        F.FamilySpec("complete_split", (9, 3)),
        F.FamilySpec("split_pendant", (10, 2, 3)),
        F.FamilySpec("star_matching", (11, 4)),
        F.FamilySpec("theta", (2, 3, 5)),
        F.FamilySpec("r_chain", (3,)),
        F.FamilySpec("double_star", (4, 2)),
        F.FamilySpec("kminus", (3, 5)),
        F.FamilySpec("kplus", (2, 6)),
    ]
    for spec in cases:
        assert F.build(spec).m == expected_size(spec), str(spec)


def test_split_pendant_parity():
    for m in range(22, 40):
        for t in (1, 2, 3):
            if (m + t) % 2 == 1:
                assert F.split_pendant_for_size(m, t).m == m
            else:
                with pytest.raises(ValueError, match="parity"):
                    F.split_pendant_for_size(m, t)
    assert F.split_pendant(7, 2, 0).adj == F.complete_split(7, 2).adj


def test_split_pendant_attaches_to_dominating_vertex():
    g = F.split_pendant_for_size(23, 2)
    assert g.degree(0) == max(g.degree(v) for v in range(g.n))
    assert is_connected(g)


def test_star_matching():
    assert F.star_matching(9, 0).adj == F.star(9).adj
    assert F.star_matching(7, 3).m == 9
    for m in range(4, 30):
        assert F.star_matching(m, 1).m == m
    with pytest.raises(ValueError):
        F.star_matching(6, 3)


def test_theta_shapes():
    assert canonical_form(F.theta(1, 2, 2)) == canonical_form(
        F.join(F.complete(2), F.empty(2))
    )
    assert canonical_form(F.theta(2, 2, 2)) == canonical_form(F.complete_bipartite(2, 3))
    assert F.theta(1, 2, 3).m == 6
    with pytest.raises(ValueError):
        F.theta(2, 1, 3)
    with pytest.raises(ValueError):
        F.theta(1, 1, 3)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_theta_is_cycle_plus_chord(r):
    chorded = F.cycle(r + 2).add_edge(0, 2)
    assert canonical_form(F.theta(1, 2, r)) == canonical_form(chorded)


def test_book_is_c5_c6_free():
    for m in (9, 15, 27):
        stats = {name: forbidden.contains_subgraph(F.book(m), name) is None
                 for name in forbidden.NAMED_PATTERNS}
        assert stats["c5"] and stats["c6"]


def test_r_chain():
    assert canonical_form(F.r_chain(1)) == canonical_form(F.complete(4))
    g = F.r_chain(2)
    assert (g.n, g.m) == (7, 12)
    assert F.r_chain(0).n == 1


def test_hts_over_k4_chain_is_below_book_bound():
    """Pendants on a chain of K4 blocks never reach the book ceiling."""
    import math

    for k in (1, 2):
        for t in (2, 5, 8):
            m = 6 * k + t
            if m < 8:
                continue
            g = F.FAMILIES["hts0_r_chain"][0](t, k)
            assert g.m == m
            assert spectral_radius(g).lam < (1 + math.sqrt(4 * m - 3)) / 2 - 1e-9


def test_hts0_r_chain():
    """The chain's vertices first, then t pendants on its shared vertex 0."""
    hts0_r_chain = F.FAMILIES["hts0_r_chain"][0]
    for t in (0, 1, 3):
        g = hts0_r_chain(t, 2)
        assert g.m == 12 + t
        assert set(g.edges()) == set(F.r_chain(2).edges()) | {(0, 7 + i) for i in range(t)}
    assert set(hts0_r_chain(2, 0).edges()) == {(0, 1), (0, 2)}
    with pytest.raises(ValueError, match="t must be nonnegative"):
        hts0_r_chain(-1, 1)


def test_star_diamond_k4():
    """K_4 on 0..3, the star's centre 4 and leaves after, vertex 0 joined to the star."""
    for m in (9, 23, 41):
        assert F.star_diamond_k4(m).m == m
    k4 = {(a, b) for a in range(4) for b in range(a + 1, 4)}
    assert set(F.star_diamond_k4(11).edges()) == k4 | {(4, 5), (4, 6), (0, 4), (0, 5), (0, 6)}


def test_double_star():
    assert canonical_form(F.double_star(0, 0)) == canonical_form(F.complete(2))
    assert canonical_form(F.double_star(3, 0)) == canonical_form(F.star(5))
    for m in (10, 23, 40):
        d = F.double_star(m - 2, 1)
        assert d.m == m
        lam = spectral_radius(d).lam
        closed = math.sqrt((m + math.sqrt(m * m - 4 * m + 8)) / 2)
        assert abs(lam - closed) <= 1e-9


def test_kminus_kplus():
    assert canonical_form(F.kminus(2, 2)) == canonical_form(F.path(4))
    for m in (27, 41):  # odd sizes: remove an edge from K_{2,(m+1)/2}
        assert F.kminus(2, (m + 1) // 2).m == m
    assert F.kplus(3, 5).m == 16
    with pytest.raises(ValueError):
        F.kminus(1, 5)
    with pytest.raises(ValueError):
        F.kplus(4, 3)


def test_k1_join_star_edge():
    g = F.k1_join_star_edge(24, 12 - 1)
    assert g.m == 24 and g.n == 13
    g = F.k1_join_star_edge(23, 10)
    assert g.m == 23
    with pytest.raises(ValueError):
        F.k1_join_star_edge(7, 3)


def test_k1_join_candidate_edges():
    for m in range(8, 40):
        assert F.k1_join_candidate(m).m == m


def test_theorem_candidates():
    names9 = {str(spec) for spec, _ in F.theorem_candidates(9)}
    assert "book(9)" in names9 and "star_matching(9,1)" in names9
    for m in (9, 23, 24):
        for spec, g in F.theorem_candidates(m):
            assert g.m == m, str(spec)
    cand23 = {str(spec): g for spec, g in F.theorem_candidates(23)}
    split = cand23["split_pendant_size(23,2)"]
    assert split.m == 1 + 2 * 10 + 2
    cand24 = {str(spec): g for spec, g in F.theorem_candidates(24)}
    assert cand24["k1_join_candidate(24)"].m == 12 + 11 + 1


def test_is_complete_bipartite():
    assert is_complete_bipartite(F.complete_bipartite(3, 4))
    assert is_complete_bipartite(F.star(5))
    assert not is_complete_bipartite(F.cycle(5))
    assert not is_complete_bipartite(F.kminus(2, 3))
    assert not is_complete_bipartite(disjoint_union(F.complete(2), F.complete(2)))


def test_build_rejects_unknown():
    with pytest.raises(ValueError):
        F.build(F.FamilySpec("moebius", (5,)))
