"""The benchmark harness under perfbench/ reaches into bht by name: its
tracer wraps the functions listed in ``TARGETS`` and its worker calls
module functions directly.  These tests read both files as source and
fail when a name they use no longer resolves in bht, and fail when the
package defines a public name, or a class a public method or property,
that no command or benchmark names."""

import ast
import importlib
import importlib.util
from pathlib import Path

from bht import partition, polynomials

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BHT_MODULES = {"families", "forbidden", "graphs", "partition", "polynomials", "search", "spectral"}


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def test_tracer_targets_resolve():
    (targets,) = [ast.literal_eval(node.value) for node in _tree("tracer.py").body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    assert len(targets) > 10
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"bht.{module}"), name, None)), (module, name)


def test_worker_calls_resolve():
    calls = [node for node in ast.walk(_tree("worker.py")) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
             and node.func.value.id in BHT_MODULES]
    assert len(calls) > 5
    for call in calls:
        module, name = call.func.value.id, call.func.attr
        assert callable(getattr(importlib.import_module(f"bht.{module}"), name, None)), (module, name)
    (check,) = [c for c in calls if c.func.attr == "quotient_lambda_check"]
    assert len(check.args) == 2 and not check.keywords
    g, blocks = partition.REFERENCE_PARTITIONS["split_pendant"](23, t=2)
    lam_a, lam_q, ok = partition.quotient_lambda_check(g, blocks)
    assert ok and abs(lam_a - lam_q) <= 1e-9


def _ops_module():
    """perfbench/ops.py, which imports no bht, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_ops", PERFBENCH / "ops.py")
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    return ops


def test_partition_ops_match_the_stated_polynomials():
    """Every partition op that the benchmark can draw, at every m of 22..120
    (a pass samples every 13th), gives the polynomial its oracle pairs with
    the layout, exactly, and a largest root that the eigen-solve confirms:
    what the worker computes and the frozen oracle expects."""
    ops = _ops_module()
    checked = 0
    for m in range(22, 121):
        for _, entry, size, params in ops.partition_ops(m):
            g, blocks = partition.REFERENCE_PARTITIONS[entry](size, **params)
            poly = partition.charpoly(partition.quotient(g, blocks))
            assert poly == polynomials.instantiate(ops.PARTITION_POLY[entry], size, **params), (
                entry, size, params)
            assert partition.quotient_lambda_check(g, blocks)[2], (entry, size, params)
            checked += 1
    assert checked > 500


# Public names that nothing in the package or the benchmark names yet,
# each kept for a stated reason.
UNREACHED_ON_PURPOSE = {
    ("partition", "is_equitable"): "exact spectral radii test cells with it",
    ("partition", "adjacency_charpoly"): "the oracle that exact spectral radii are checked against",
    ("graphs", "Graph.remove_vertex"): "the vertex-deletion helper in tests/conftest.py uses it",
}


def _names(node: ast.AST) -> set[str]:
    """Every identifier that ``node`` uses: names, attributes, imports, and
    string constants that are identifiers (the tracer lists targets as strings)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _units(tree: ast.Module):
    """(owners, nodes) for each top-level statement, a class split into its
    header and its members: a member's owners are the class and
    ``Class.member``, so one method naming another reaches it."""
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        if not isinstance(stmt, ast.ClassDef):
            yield {owner}, [stmt]
            continue
        yield {owner}, [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
        for member in stmt.body:
            yield {owner, f"{owner}.{getattr(member, 'name', '')}"}, [member]


def test_package_names_are_reached():
    """Every public function and class of bht, and every public method and
    property of a bht class (keyed ``Class.name``), is named outside its own
    definition, by name or attribute."""
    files = [*sorted((ROOT / "src" / "bht").glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]
    defined: dict[tuple[str, str], Path] = {}
    used: list[tuple[Path, set[str], set[str]]] = []
    for path in files:
        tree = ast.parse(path.read_text())
        for stmt in tree.body if path.parent.name == "bht" else ():
            if isinstance(stmt, ast.ClassDef):
                defined.update(((path.stem, f"{stmt.name}.{m.name}"), path) for m in stmt.body
                               if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined[(path.stem, stmt.name)] = path
        used += [(path, owners, set().union(*map(_names, nodes)))
                 for owners, nodes in _units(tree)]
    assert len(defined) > 100
    unreached = sorted(
        key for key, path in defined.items()
        if not any(key[1].rpartition(".")[2] in names for where, owners, names in used
                   if where != path or key[1] not in owners)
    )
    assert unreached == sorted(UNREACHED_ON_PURPOSE), (
        "public names that no command or benchmark names: "
        f"{sorted(set(unreached) - set(UNREACHED_ON_PURPOSE))}; "
        f"reached now, so drop from UNREACHED_ON_PURPOSE: {sorted(set(UNREACHED_ON_PURPOSE) - set(unreached))}"
    )
