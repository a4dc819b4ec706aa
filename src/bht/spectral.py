"""Spectral radius, Perron vectors and the eigenvector-based bounds.

The eigenpair comes from a dense symmetric eigen-solve (numpy) per
connected component, followed by one Rayleigh-quotient pass; for these
graph sizes that is both faster and more accurate than iterative
schemes.  ``spectral_radius`` returns the max over components, a unit
vector signed so that its entries sum to a non-negative number, and the
max-norm residual of that pair.  The residual is reported, not checked:
nothing here compares it with a bound.  The test suite checks, on random
connected graphs, that it stays below 1e-10 and that the Perron vector
is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forbidden
from .graphs import Graph, bits, components, is_connected


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix, unpacked from the bit rows."""
    width = (g.n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in g.adj), np.uint8)
    return np.unpackbits(packed, bitorder="little").reshape(g.n, 8 * width)[:, :g.n].astype(float)


@dataclass(frozen=True)
class SpectralResult:
    lam: float
    perron: tuple[float, ...]
    residual: float

    def as_array(self) -> np.ndarray:
        return np.array(self.perron)


def _component_eigenpair(a: np.ndarray) -> tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eigh(a)
    lam = float(vals[-1])
    x = vecs[:, -1]
    if x.sum() < 0:
        x = -x
    # one Rayleigh refinement pass keeps the residual comfortably small
    y = a @ x
    lam = float(x @ y)
    return lam, x


def connected_radius(g: Graph) -> float:
    """The spectral radius of a connected graph: ``spectral_radius(g).lam``
    to the bit, without the component split, Perron tuple and residual."""
    return _component_eigenpair(adjacency_matrix(g))[0]


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue with its (component-wise) Perron vector.

    For a disconnected graph the value is the max over components and the
    reported vector is the Perron vector of the first achieving component,
    zero-padded elsewhere (so the positivity guarantee applies only to
    connected inputs).
    """
    if g.n == 0:
        raise ValueError("spectral radius of the empty graph is undefined")
    a_full = adjacency_matrix(g)
    best: tuple[float, list[int], np.ndarray] | None = None
    for comp in components(g):
        vs = list(bits(comp))
        if len(vs) == 1:
            lam, vec = 0.0, np.ones(1)
        else:
            lam, vec = _component_eigenpair(a_full[np.ix_(vs, vs)])
        if best is None or lam > best[0] + 1e-13:
            best = (lam, vs, vec)
    assert best is not None
    lam, vs, vec = best
    residual = float(np.max(np.abs(a_full[np.ix_(vs, vs)] @ vec - lam * vec)))
    x = np.zeros(g.n)
    x[vs] = vec
    x /= np.linalg.norm(x)
    return SpectralResult(lam, tuple(float(v) for v in x), residual)


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
    from . import families

    if forbidden.contains_subgraph(g, families.complete(r + 1)) is not None:
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
