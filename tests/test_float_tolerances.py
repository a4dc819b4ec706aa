"""Every small float literal in ``src/bht`` is a tolerance, and a tolerance
can decide a claim in floating point.  Each one is listed here with the
reason it stays, so that a new one fails this test until it is argued for
or replaced by an exact decision."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bht"

# (module, enclosing function or assigned name, value) -> why it stays
TOLERANCES = {
    ("search", "TIE_TOL", 1e-9): "the search's float band for ties and for the Hong prune; "
                                 "ROADMAP item 2 decides inside it exactly",
    ("partition", "quotient_lambda_check", 1e-9): "the flag that the benchmark's partition op "
                                                  "reads; it goes with the next benchmark change",
    ("spectral", "_best_component", 1e-13): "picks the component whose Perron vector `bht lambda` "
                                            "prints; no claim reads it",
}


def _small_floats(tree: ast.Module) -> list[tuple[str | None, float]]:
    """(innermost enclosing function, else the module-level name assigned,
    value) of each float literal in (0, 1e-6]; a negative one is a unary
    minus on such a literal."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and owner is None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            owner = ",".join(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value <= 1e-6:
            found.append((owner, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_small_floats_are_listed_tolerances():
    found = sorted((path.stem, owner, value) for path in sorted(SRC.glob("*.py"))
                   for owner, value in _small_floats(ast.parse(path.read_text())))
    assert found == sorted(TOLERANCES), (
        f"unlisted: {sorted(set(found) - set(TOLERANCES))}; "
        f"gone, so drop from TOLERANCES: {sorted(set(TOLERANCES) - set(found))}; "
        f"each listed literal appears once: {found}")

