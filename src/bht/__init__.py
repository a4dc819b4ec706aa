"""Spectral extremal graph computations at fixed edge count.

Submodules: graph values and canonical forms (`graphs`), the named
extremal families (`families`), forbidden-subgraph detection
(`forbidden`), spectral radii and Perron vectors (`spectral`),
equitable partitions with exact quotient polynomials (`partition`),
exact root isolation and sign certificates (`polynomials`), exhaustive
small-size searches (`search`), and the `bht` command line (`cli`).

The package root re-exports nothing: import the submodules.  Only
`spectral` loads numpy, and the other modules import it inside the
functions that run an eigen-solve.  `cli` builds its parser from the
standard library and imports inside each command the modules it runs;
README.md tabulates them.
"""
