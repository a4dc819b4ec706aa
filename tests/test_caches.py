"""Every memo in ``src/bht`` that outlives a call: a function under
``functools.cache``, ``lru_cache`` or ``cached_property``, or a module-level
container that starts empty and is filled as the program runs.  Each one
is listed here with its key space and the reason that space is bounded, so
that a new memo fails this test until its memory is argued for.  Caches
held on a value (``Polynomial._root``, a layer class's form and radius)
live and die with that value and are not listed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bht"

# (module, name) -> its key space and why that space is bounded
MEMOS = {
    ("forbidden", "_build_plan"): "one plan per pattern a process checks: the named patterns by "
                                  "name, each other pattern graph by its rows; commands take "
                                  "their patterns from the command line",
    ("graphs", "_powers"): "one entry per vertex count labelled, so at most the largest n seen, "
                           "each holding 2n + 1 integers of at most (n + 1) log2(n + 1) bits",
    ("graphs", "_BITS"): "masks below _BITS_BELOW = 2^13 only, the rows of graphs on at most 13 "
                         "vertices: at most 8,192 tuples of at most 13 positions",
    ("search", "_LAYERS"): "one layer per (n, m) with n <= m + 1, and m above DEFAULT_CAP only "
                           "under force: 51 layers up to the cap",
}

_DECORATORS = {"cache", "lru_cache", "cached_property"}
_EMPTY_CALLS = {"dict", "list", "set", "OrderedDict"}


def _name(node: ast.expr) -> str | None:
    """The last name of ``f``, ``a.f``, ``f(...)`` or ``a.f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _starts_empty(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return not (value.keys if isinstance(value, ast.Dict) else value.elts)
    if isinstance(value, ast.Call):
        name = _name(value)
        return name == "defaultdict" or (name in _EMPTY_CALLS and not value.args
                                         and not value.keywords)
    return False


def _memos(tree: ast.Module) -> list[str]:
    """Functions (at any depth) under a caching decorator, and module-level
    names assigned a container that starts empty."""
    found = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_name(d) in _DECORATORS for d in node.decorator_list)]
    for node in tree.body:
        if isinstance(node, ast.Assign) and _starts_empty(node.value):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and _starts_empty(node.value):
            found += [node.target.id] if isinstance(node.target, ast.Name) else []
    return found


def test_every_memo_is_listed():
    found = sorted((path.stem, name) for path in sorted(SRC.glob("*.py"))
                   for name in _memos(ast.parse(path.read_text())))
    assert found == sorted(MEMOS), (
        f"unlisted: {sorted(set(found) - set(MEMOS))}; "
        f"gone, so drop from MEMOS: {sorted(set(MEMOS) - set(found))}")


def test_the_census_sees_each_kind():
    """The walk finds a decorated function at any depth and each empty
    container at module level, and passes over filled tables."""
    tree = ast.parse(
        "import functools\n"
        "A = {}\n"
        "B: dict[int, int] = dict()\n"
        "C = {1: 2}\n"
        "D = []\n"
        "F = collections.defaultdict(list)\n"
        "class K:\n"
        "    @functools.lru_cache(maxsize=8)\n"
        "    def f(self): ...\n"
        "@cache\n"
        "def g(): ...\n"
        "def h():\n"
        "    E = {}\n")
    assert sorted(_memos(tree)) == ["A", "B", "D", "F", "f", "g"]
