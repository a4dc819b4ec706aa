"""Spectral radius and Perron vector of a graph.

The eigenpair comes from a dense symmetric eigen-solve (numpy) per
connected component, followed by one Rayleigh-quotient pass; for these
graph sizes that is both faster and more accurate than iterative
schemes.  ``spectral_radius`` returns the max over components, a unit
vector signed so that its entries sum to a non-negative number, and the
max-norm residual of that pair.  The residual is reported, not checked:
nothing here compares it with a bound.  The test suite checks, on random
connected graphs, that it stays below 1e-10 and that the Perron vector
is strictly positive.

Callers that read λ alone take it from ``radius``, which returns
``spectral_radius(g).lam`` to the bit; only ``bht lambda``, which prints
the vector and the residual, needs ``spectral_radius``.  ``radius``
serves the float check of ``bht quotient`` and the λ that the search
reports; ``verify`` decides its claims on exact quotient polynomials,
and solves eigenvalues only in the searches of its oracle mode.
``layer_radii`` solves many graphs of one order in one stacked
``eigvalsh``: its values agree with ``radius`` within rounding, not to
the bit, so the search uses them only to order its walk and never
reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, bits, components


def _adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """The 0/1 adjacency matrices of graphs of one order n, unpacked from
    the bit rows into one (k, n, n) array."""
    n = graphs[0].n
    width = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(row.to_bytes(width, "little") for g in graphs for row in g.adj), np.uint8)
    unpacked = np.unpackbits(packed, bitorder="little").reshape(len(graphs), n, 8 * width)
    return unpacked[:, :, :n].astype(float)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix, unpacked from the bit rows."""
    return _adjacency_stack([g])[0]


def layer_radii(graphs: Sequence[Graph]) -> list[float]:
    """The largest eigenvalue of each of a non-empty list of graphs of one
    order, from one stacked ``eigvalsh``: ``radius`` of each connected
    graph within rounding, not to the bit."""
    return np.linalg.eigvalsh(_adjacency_stack(graphs))[:, -1].tolist()


@dataclass(frozen=True)
class SpectralResult:
    lam: float
    perron: tuple[float, ...]
    residual: float


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


def _best_component(g: Graph) -> tuple[float, list[int], np.ndarray, np.ndarray]:
    """λ, the vertices and the Perron vector of the first component that
    attains the max, with the component's adjacency matrix.  A connected
    graph is solved on its full matrix, which is the one the component
    copy would hold, so λ has the same bits without the copy."""
    if g.n == 0:
        raise ValueError("spectral radius of the empty graph is undefined")
    a_full = adjacency_matrix(g)
    best: tuple[float, list[int], np.ndarray, np.ndarray] | None = None
    for comp in components(g):
        vs = list(bits(comp))
        a = a_full if len(vs) == g.n else a_full[np.ix_(vs, vs)]
        if len(vs) == 1:
            lam, vec = 0.0, np.ones(1)
        else:
            lam, vec = _component_eigenpair(a)
        if best is None or lam > best[0] + 1e-13:
            best = (lam, vs, vec, a)
    assert best is not None
    return best


def radius(g: Graph) -> float:
    """The spectral radius of any non-empty graph: ``spectral_radius(g).lam``
    to the bit, without the Perron tuple and residual."""
    return _best_component(g)[0]


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue with its (component-wise) Perron vector.

    For a disconnected graph the value is the max over components and the
    reported vector is the Perron vector of the first achieving component,
    zero-padded elsewhere (so the positivity guarantee applies only to
    connected inputs).
    """
    lam, vs, vec, a = _best_component(g)
    residual = float(np.max(np.abs(a @ vec - lam * vec)))
    x = np.zeros(g.n)
    x[vs] = vec
    x /= np.linalg.norm(x)
    return SpectralResult(lam, tuple(float(v) for v in x), residual)

