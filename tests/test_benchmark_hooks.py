"""The benchmark harness under perfbench/ reaches into bht by name: its
tracer wraps the functions listed in ``TARGETS`` and its worker calls
module functions directly.  These tests read both files as source and
fail when a name they use no longer resolves in bht."""

import ast
import importlib
from pathlib import Path

from bht import partition

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
    g, blocks = partition.split_pendant_partition(23, 2)
    lam_a, lam_q, ok = partition.quotient_lambda_check(g, blocks)
    assert ok and abs(lam_a - lam_q) <= 1e-9
