"""Spectral extremal graph computations at fixed edge count.

Submodules: graph values and canonical forms (`graphs`), the named
extremal families (`families`), forbidden-subgraph detection
(`forbidden`), spectral radii and Perron vectors (`spectral`),
equitable partitions with exact quotient polynomials (`partition`),
exact root isolation and sign certificates (`polynomials`), exhaustive
small-size searches (`search`), and the `bht` command line (`cli`).
"""

from .families import FamilySpec
from .graphs import Graph, canonical_form, from_edge_list, from_graph6, to_graph6
from .polynomials import Polynomial, largest_real_root
from .search import SearchReport, extremal_search, verify_theorem
from .spectral import SpectralResult, spectral_radius

__all__ = [
    "FamilySpec",
    "Graph",
    "Polynomial",
    "SearchReport",
    "SpectralResult",
    "canonical_form",
    "extremal_search",
    "from_edge_list",
    "from_graph6",
    "largest_real_root",
    "spectral_radius",
    "to_graph6",
    "verify_theorem",
]
