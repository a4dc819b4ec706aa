"""Shared oracles, generators and paper-lemma checks for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, isqrt, lcm

import numpy as np
import pytest

from bht import families, search
from bht.forbidden import as_pattern, contains_subgraph
from bht.graphs import Graph, bits, canonical_form, components, from_edge_list, is_connected
from bht.polynomials import (NEG_INF, POS_INF, Polynomial, Quad, RootBracket, RootComparison,
                             cauchy_bound, count_roots, sign_at, sturm_chain)
from bht.spectral import SpectralResult, adjacency_matrix, spectral_radius


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """All-permutations isomorphism oracle (n <= 8)."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    for perm in permutations(range(g.n)):
        if all(
            (g.adj[u] >> v & 1) == (h.adj[perm[u]] >> perm[v] & 1)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def brute_automorphisms(g: Graph, cap: int | None = None) -> list[tuple[int, ...]] | None:
    """Every automorphism of g as a tuple p mapping v to p[v], found by
    extending a partial map vertex by vertex while it keeps degrees and
    adjacency; None once more than ``cap`` are found."""
    deg = [g.degree(v) for v in range(g.n)]
    image = [-1] * g.n
    out: list[tuple[int, ...]] = []

    def extend(i: int) -> bool:
        if i == g.n:
            out.append(tuple(image))
            return cap is None or len(out) <= cap
        for w in range(g.n):
            if deg[w] == deg[i] and w not in image[:i] and all(
                    (g.adj[i] >> j & 1) == (g.adj[w] >> image[j] & 1) for j in range(i)):
                image[i] = w
                if not extend(i + 1):
                    return False
        return True

    return out if extend(0) else None


def brute_contains(host: Graph, pattern: Graph) -> bool:
    """Exhaustive injective-map subgraph oracle (small sizes only)."""
    if pattern.n > host.n:
        return False
    edges = pattern.edges()
    for sub in combinations(range(host.n), pattern.n):
        for perm in permutations(sub):
            if all(host.adj[perm[u]] >> perm[v] & 1 for u, v in edges):
                return True
    return False


def unbroken_contains_subgraph(g: Graph, p: Graph) -> list[int] | None:
    """The subgraph search without symmetry-breaking conditions: pattern
    vertices in descending-degree order, hosts in ascending index, so the
    first embedding found is the lexicographically least one.  It tries
    every automorphic image of the pattern, and is the witness oracle."""
    if p.n > g.n or p.m > g.m:
        return None
    order = sorted(range(p.n), key=lambda v: (-p.degree(v), v))
    back = [[j for j in range(i) if p.has_edge(v, order[j])] for i, v in enumerate(order)]
    assign = [-1] * p.n
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == p.n:
            return True
        cand = ~used & ((1 << g.n) - 1)
        for j in back[i]:
            cand &= g.adj[assign[j]]
        for h in bits(cand):
            if g.adj[h].bit_count() < p.degree(order[i]):
                continue
            assign[i] = h
            used |= 1 << h
            if extend(i + 1):
                return True
            used &= ~(1 << h)
        return False

    if not extend(0):
        return None
    embedding = [-1] * p.n
    for i, v in enumerate(order):
        embedding[v] = assign[i]
    return embedding


_SEEN_LAYERS: dict[tuple[int, int], list[Graph]] = {}


def seen_dict_layer(n: int, m: int) -> list[Graph]:
    """Connected graphs with n vertices and m edges, one per class, sorted
    by canonical form: the layer builder that labels every one-edge (or
    one-leaf) child and keeps the first graph met per form.  It is the
    oracle for the canonical-deletion layers, and its graphs, as generated,
    are the fixed corpus that the witness pin was recorded on."""
    if n < 1 or m < n - 1 or m > comb(n, 2):
        return []
    if (n, m) not in _SEEN_LAYERS:
        seen: dict[bytes, Graph] = {}
        if n == 1:
            seen[canonical_form(Graph(1, (0,)))] = Graph(1, (0,))
        elif m == n - 1:
            for parent in seen_dict_layer(n - 1, n - 2):
                grown = parent.add_vertex()
                for v in range(parent.n):
                    child = grown.add_edge(v, parent.n)
                    seen.setdefault(canonical_form(child), child)
        else:
            full = (1 << n) - 1
            for parent in seen_dict_layer(n, m - 1):
                for u in range(n):
                    above = full & ~((1 << (u + 1)) - 1)
                    for v in bits(above & ~parent.adj[u]):
                        child = parent.add_edge(u, v)
                        seen.setdefault(canonical_form(child), child)
        _SEEN_LAYERS[(n, m)] = [seen[c] for c in sorted(seen)]
    return _SEEN_LAYERS[(n, m)]


def graph_of_form(form: bytes) -> Graph:
    """The graph whose upper-triangle code, row by row with the first bit
    most significant, a canonical form stores after its 2-byte vertex count."""
    n = int.from_bytes(form[:2], "big")
    k = n * (n - 1) // 2
    code = int.from_bytes(form[2:], "big") >> (8 * (len(form) - 2) - k)
    rows = [0] * n
    for i, j in combinations(range(n), 2):
        k -= 1
        if code >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def random_connected(rng: random.Random, n_lo: int = 4, n_hi: int = 14,
                     extra_hi: int = 6) -> Graph:
    """Random connected graph: random spanning tree plus extra edges."""
    n = rng.randint(n_lo, n_hi)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, extra_hi)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return from_edge_list(sorted(edges))


def random_bipartite_connected(rng: random.Random, n_lo: int = 4, n_hi: int = 14) -> Graph:
    """Random connected bipartite graph (hence triangle-free)."""
    while True:
        n = rng.randint(n_lo, n_hi)
        a = rng.randint(1, n - 1)
        edges = set()
        for left in range(a):
            right = rng.randrange(a, n)
            edges.add((left, right))
        for right in range(a, n):
            left = rng.randrange(a)
            edges.add((left, right))
        for _ in range(rng.randint(0, 8)):
            left, right = rng.randrange(a), rng.randrange(a, n)
            edges.add((left, right))
        g = from_edge_list(sorted(edges))
        if g.n == n and is_connected(g):
            return g


def _interval_sqrt(lo: Fraction, hi: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    s_lo = isqrt((lo.numerator * scale * scale) // lo.denominator)
    s_hi = isqrt(-(-hi.numerator * scale * scale // hi.denominator)) + 1
    return Fraction(s_lo, scale), Fraction(s_hi, scale)


def interval_nested_radical_below(m: int, inner_shift: int) -> bool:
    """sqrt((m + sqrt(E))/2) < sqrt(m-1) + 1/(m-1) by outward-rounded
    rational intervals, refined until the two sides separate: the oracle
    for the exact rule in ``polynomials.nested_radical_below``."""
    scale = 1 << 60
    for _ in range(8):
        rt_m1_lo, rt_m1_hi = _interval_sqrt(Fraction(m - 1), Fraction(m - 1), scale)
        if inner_shift:
            e_lo = e_hi = Fraction(m * m - 4 * m + 8)
        else:
            e_lo = m * m - 4 * (m - 1 - rt_m1_lo)
            e_hi = m * m - 4 * (m - 1 - rt_m1_hi)
        inner_lo, inner_hi = _interval_sqrt(e_lo, e_hi, scale)
        left_lo, left_hi = _interval_sqrt((m + inner_lo) / 2, (m + inner_hi) / 2, scale)
        if left_hi < rt_m1_lo + Fraction(1, m - 1):
            return True
        if left_lo > rt_m1_hi + Fraction(1, m - 1):
            return False
        scale <<= 30
    raise ValueError("intervals failed to separate")


def fraction_charpoly(matrix) -> Polynomial:
    """det(xI - M) by Faddeev-LeVerrier over Fraction: the oracle for the
    integer ``partition.charpoly``."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(1)]
    aux = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        shifted = [row[:] for row in aux]
        for i in range(n):
            shifted[i][i] += coeffs[-1]
        aux = [[sum(m[i][l] * shifted[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(aux[i][i] for i in range(n)) / k)
    return Polynomial(list(reversed(coeffs)))


class FractionPolynomial:
    """Univariate polynomial on a tuple of Fraction coefficients, ascending,
    with schoolbook arithmetic in Q: the oracle for the integer numerators
    over one denominator of ``polynomials.Polynomial``."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def __call__(self, x):
        if isinstance(x, Quad):
            # Horner in Q(sqrt d) on the pair (u, v) of u + v sqrt(d)
            a, b = Fraction(x.a, x.c), Fraction(x.b, x.c)
            u = v = Fraction(0)
            for c in reversed(self.coeffs):
                u, v = u * a + v * b * x.d + c, u * b + v * a
            return Quad.of(u, v, x.d)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0) if isinstance(x, Fraction) else 0.0
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return FractionPolynomial([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FractionPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FractionPolynomial):
            if not self.coeffs or not other.coeffs:
                return FractionPolynomial([])
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return FractionPolynomial(out)
        return FractionPolynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self):
        return FractionPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            f = rem[i] / lead
            quot[i - d] = f
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] -= f * c
        return FractionPolynomial(quot), FractionPolynomial(rem)

    def squarefree(self):
        g = _fraction_gcd(self, self.derivative())
        return self if g.degree <= 0 else self.divmod(g)[0]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            term = "" if (mag == 1 and i > 0) else str(mag)
            if i >= 1:
                term += "x" if i == 1 else f"x^{i}"
            parts.append(("- " if c < 0 else "+ ") + term)
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]


def _fraction_gcd(a: FractionPolynomial, b: FractionPolynomial) -> FractionPolynomial:
    """The monic gcd by rational remainders (zero for two zeros)."""
    while b.coeffs:
        a, b = b, a.divmod(b)[1]
    return FractionPolynomial([c / a.leading for c in a.coeffs]) if a.coeffs else a


def fraction_sturm_chain(p: Polynomial) -> list[Polynomial]:
    """The Sturm chain of p's squarefree part by rational remainders: the
    oracle for the primitive integer chain of ``polynomials.sturm_chain``."""
    sf = FractionPolynomial(p.coeffs).squarefree()
    chain = [sf, sf.derivative()]
    while chain[-1].coeffs:
        _, r = chain[-2].divmod(chain[-1])
        if not r.coeffs:
            break
        chain.append(-r)
    return [Polynomial(q.coeffs) for q in chain]


def value_sign(p: Polynomial, x) -> int:
    """Sign of p at +-inf, or of its value p(x) computed on Fraction
    coefficients, in Q or Q(sqrt d)."""
    if not p.coeffs:
        return 0
    if isinstance(x, str):
        s = (p.num[-1] > 0) - (p.num[-1] < 0)
        return -s if x == NEG_INF and p.degree % 2 else s
    val = FractionPolynomial(p.coeffs)(x)
    return val.sign() if isinstance(val, Quad) else (val > 0) - (val < 0)


def fraction_count_roots(p: Polynomial, lo, hi) -> int:
    """Distinct real roots of p in (lo, hi] by the rational chain's sign
    variations at exact values."""
    chain = fraction_sturm_chain(p)

    def variations(x) -> int:
        signs = [s for s in (value_sign(q, x) for q in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)



def fraction_isolate(p: Polynomial) -> tuple[Polynomial, Fraction, Fraction]:
    """Sturm isolation of p's largest root with Fraction endpoints: the
    oracle for the integer-numerator ``polynomials._isolate``."""
    if p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    sf = sturm_chain(p)[0]
    bound = Fraction(*cauchy_bound(sf))
    lo, hi = -bound, bound
    above = count_roots(p, lo, POS_INF)
    if above == 0:
        raise ValueError(f"no real root of {p} in [-{bound}, {bound}]")
    while above != 1:
        mid = (lo + hi) / 2
        count = count_roots(p, mid, POS_INF)
        if count >= 1:
            lo, above = mid, count
        else:
            hi = mid
    return sf, lo, hi


def fraction_bisect(sf: Polynomial, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink (lo, hi] around its single root with Fraction midpoints; exact
    midpoint hits keep the root at the closed upper endpoint."""
    s_hi = sign_at(sf, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = sign_at(sf, mid)
        if s_mid != 0 and s_mid * s_hi <= 0:
            lo = mid
        else:
            hi, s_hi = mid, s_mid
    return lo, hi


def fraction_largest_root_bracket(p: Polynomial) -> RootBracket:
    """The bracket of ``polynomials.largest_real_root``, bisected on Fractions."""
    sf, lo, hi = fraction_isolate(p)
    return _bracket(*fraction_bisect(sf, lo, hi, Fraction(1, 10**13)))


def _bracket(lo: Fraction, hi: Fraction) -> RootBracket:
    """The RootBracket (lo, hi], its ends over their least common denominator."""
    den = lcm(lo.denominator, hi.denominator)
    return RootBracket(lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den)


def fraction_compare_largest_roots(p: Polynomial, q: Polynomial) -> RootComparison:
    """``polynomials.compare_largest_roots`` on Fraction brackets, from the
    brackets of ``fraction_largest_root_bracket``, with the gcd by rational
    remainders."""
    sp, sq = sturm_chain(p)[0], sturm_chain(q)[0]
    (plo, phi), (qlo, qhi) = ((b.lo, b.hi) for b in map(fraction_largest_root_bracket, (p, q)))
    lo, hi = max(plo, qlo), min(phi, qhi)
    g = Polynomial(_fraction_gcd(FractionPolynomial(sp.coeffs), FractionPolynomial(sq.coeffs)).coeffs)
    if lo < hi and g.degree > 0 and count_roots(g, lo, hi) > 0:
        order = "eq"
    else:
        while qlo < phi and plo < qhi:
            if phi - plo >= qhi - qlo:
                plo, phi = fraction_bisect(sp, plo, phi, (phi - plo) / 2)
            else:
                qlo, qhi = fraction_bisect(sq, qlo, qhi, (qhi - qlo) / 2)
        order = "lt" if phi <= qlo else "gt"
    return RootComparison(order, _bracket(plo, phi), _bracket(qlo, qhi))

def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def mask_is_equitable(g: Graph, blocks) -> bool:
    """Equitability by one neighbour-count set per (block, block) pair: the
    oracle for ``partition.is_equitable``."""
    from bht.partition import validate_partition

    bl = validate_partition(g, blocks)
    masks = [_mask(vs) for vs in bl]
    for vs in bl:
        for mask in masks:
            if len({(g.adj[v] & mask).bit_count() for v in vs}) > 1:
                return False
    return True


def mask_quotient(g: Graph, blocks) -> list[list[Fraction]]:
    """The quotient matrix after validating the blocks and checking
    equitability separately: the oracle for ``partition.quotient``."""
    from bht.partition import validate_partition

    bl = validate_partition(g, blocks)
    if not mask_is_equitable(g, bl):
        raise ValueError("partition is not equitable")
    masks = [_mask(vs) for vs in bl]
    return [[Fraction((g.adj[vs[0]] & mask).bit_count()) for mask in masks] for vs in bl]


def mask_refinement(g: Graph, seed) -> tuple[tuple[int, ...], ...]:
    """Refinement by per-vertex count signatures recomputed from masks: the
    oracle for ``partition.coarsest_equitable_refinement``."""
    from bht.partition import validate_partition

    blocks = [tuple(sorted(vs)) for vs in validate_partition(g, seed)]
    while True:
        masks = [_mask(vs) for vs in blocks]
        new_blocks: list[tuple[int, ...]] = []
        changed = False
        for vs in blocks:
            sig: dict[tuple[int, ...], list[int]] = {}
            for v in vs:
                key = tuple((g.adj[v] & mask).bit_count() for mask in masks)
                sig.setdefault(key, []).append(v)
            if len(sig) > 1:
                changed = True
            for key in sorted(sig):
                new_blocks.append(tuple(sig[key]))
        blocks = new_blocks
        if not changed:
            return tuple(blocks)


def enumerate_connected(m: int):
    """Stream one representative per isomorphism class, by (n, canonical form)."""
    if m < 1:
        raise ValueError("need m >= 1")
    for n in range(2, m + 2):
        yield from search.connected_layer(n, m)


def expected_size(spec: families.FamilySpec) -> int | None:
    """Closed-form edge count for specs that have one."""
    name, p = spec.name, spec.params
    if name == "complete_split":
        n, k = p
        return comb(k, 2) + k * (n - k)
    if name == "split_pendant":
        n, k, t = p
        return comb(k, 2) + k * (n - t - k) + t
    if name == "star_matching":
        n, k = p
        return n - 1 + k
    if name == "theta":
        return sum(p)
    if name == "r_chain":
        return 6 * p[0]
    if name == "double_star":
        return p[0] + p[1] + 1
    if name == "kminus":
        return p[0] * p[1] - 1
    if name == "kplus":
        return p[0] * p[1] + 1
    return None


def is_complete_bipartite(g: Graph) -> bool:
    """True iff g is K_{a,b} for some a, b >= 1."""
    if g.n < 2 or not g.m:
        return False
    if len(components(g)) != 1:
        return False
    side = {0: 0}
    queue = [0]
    while queue:
        v = queue.pop()
        for w in bits(g.adj[v]):
            if w not in side:
                side[w] = side[v] ^ 1
                queue.append(w)
            elif side[w] == side[v]:
                return False
    a = sum(1 for v in side.values() if v == 0)
    return g.m == a * (g.n - a)


def check_embedding(g: Graph, pattern: Graph | str, embedding: list[int]) -> bool:
    """Validate that an embedding maps pattern edges onto host edges."""
    p = as_pattern(pattern)
    if len(embedding) != p.n or len(set(embedding)) != p.n:
        return False
    if not all(0 <= h < g.n for h in embedding):
        return False
    return all(g.has_edge(embedding[u], embedding[v]) for u, v in p.edges())


# -- the eigenvector lemmas of the paper, checked in floating point ----------


def extremal_vertex(g: Graph, result: SpectralResult | None = None) -> int:
    """Lowest-indexed vertex carrying the maximal Perron entry."""
    if not is_connected(g):
        raise ValueError("extremal vertex is defined for connected graphs")
    res = result or spectral_radius(g)
    top = max(res.perron)
    for v, xv in enumerate(res.perron):
        if xv >= top - 1e-12:
            return v
    raise AssertionError("unreachable")


def eigen_identity_residuals(g: Graph, result: SpectralResult | None = None) -> tuple[float, float]:
    """Residuals of the first and second eigen-equations at every vertex.

    r1 checks lam*x_u = sum of neighbour entries; r2 checks the walk
    count expansion of lam^2*x_u through degrees, neighbours-of-
    neighbours inside N(u) and the second neighbourhood.
    """
    if not is_connected(g):
        raise ValueError("identities need a connected graph")
    res = result or spectral_radius(g)
    lam, x = res.lam, res.perron
    r1 = 0.0
    r2 = 0.0
    for u in range(g.n):
        nu = g.adj[u]
        s1 = sum(x[v] for v in bits(nu))
        r1 = max(r1, abs(lam * x[u] - s1))
        closed = nu | 1 << u
        second = 0
        for v in bits(nu):
            second |= g.adj[v]
        second &= ~closed
        s2 = g.degree(u) * x[u]
        s2 += sum((g.adj[v] & nu).bit_count() * x[v] for v in bits(nu))
        s2 += sum((g.adj[w] & nu).bit_count() * x[w] for w in bits(second))
        r2 = max(r2, abs(lam * lam * x[u] - s2))
    return r1, r2


def bound_clique_free(g: Graph, r: int) -> tuple[float, float, bool]:
    """Edge bound for K_{r+1}-free graphs: lam <= sqrt(2m(1-1/r))."""
    if r < 2:
        raise ValueError("need r >= 2")
    if contains_subgraph(g, families.complete(r + 1)) is not None:
        raise ValueError(f"graph contains K_{r + 1}")
    lhs = spectral_radius(g).lam
    rhs = float(np.sqrt(2.0 * g.m * (1.0 - 1.0 / r)))
    return lhs, rhs, lhs <= rhs + 1e-9


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def is_star(g: Graph) -> bool:
    return g.n >= 2 and g.m == g.n - 1 and max(g.degree(v) for v in range(g.n)) == g.n - 1


def bound_vertex_deletion(g: Graph, v: int) -> tuple[float, float, bool, bool]:
    """lam(G) <= sqrt(lam(G-v)^2 + 2 d(v) - 1), with the equality cases flagged.

    Returns (lhs, rhs, holds, equality_expected) where the last field is
    True exactly when G is complete, or a star with v a leaf.
    """
    d = g.degree(v)
    if d < 1:
        raise ValueError("v must not be isolated")
    lhs = spectral_radius(g).lam
    sub = g.remove_vertex(v)
    lam_sub = spectral_radius(sub).lam if sub.n else 0.0
    rhs = float(np.sqrt(lam_sub**2 + 2 * d - 1))
    equality_case = is_complete(g) or (is_star(g) and d == 1)
    return lhs, rhs, lhs <= rhs + 1e-9, equality_case


def rewire_monotonicity(g: Graph, u: int, v: int, moved: list[int]) -> tuple[float, float, bool]:
    """Move the edges v-w (w in ``moved``) over to u and compare radii.

    Preconditions: x_u >= x_v in the Perron vector of g, and every moved
    vertex is a neighbour of v outside the closed neighbourhood of u.
    The perturbation never decreases the radius, strictly increasing it
    whenever ``moved`` is nonempty.
    """
    if not is_connected(g):
        raise ValueError("rewiring argument needs a connected graph")
    res = spectral_radius(g)
    if res.perron[u] < res.perron[v] - 1e-12:
        raise ValueError("precondition x_u >= x_v fails")
    allowed = g.adj[v] & ~(g.adj[u] | 1 << u)
    for w in moved:
        if not allowed >> w & 1:
            raise ValueError(f"vertex {w} is not movable from {v} to {u}")
    h = g
    for w in moved:
        h = h.remove_edge(v, w).add_edge(u, w)
    lam_after = spectral_radius(h).lam
    return res.lam, lam_after, lam_after > res.lam - 1e-12


def rayleigh_lower_bound(g: Graph, y: list[float] | np.ndarray) -> float:
    """Rayleigh quotient y^T A y / y^T y; never exceeds the spectral radius."""
    y = np.asarray(y, dtype=float)
    nrm = float(y @ y)
    if nrm == 0.0:
        raise ValueError("y must be nonzero")
    return float(y @ adjacency_matrix(g) @ y) / nrm


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
