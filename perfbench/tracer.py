"""Span tracer that wraps bht's public functions from outside the package.

Each wrapped call records a span (function, parent span, start, end) in
memory.  A module that imported a function by name (``search`` binds
``canonical_form``, ``spectral_radius`` and ``largest_real_root``;
``partition`` binds ``largest_real_root``) holds its own reference, so
every ``bht`` module attribute bound to the original is replaced.
Unwrapped helpers count toward the nearest wrapped caller.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs; the per-layer metrics are read off these spans
TARGETS = (
    ("graphs", "canonical_form"),
    ("search", "extremal_search"),
    ("search", "connected_layer"),
    ("search", "verify_theorem"),
    ("families", "theorem_candidates"),
    ("forbidden", "is_free"),
    ("forbidden", "contains_subgraph"),
    ("spectral", "spectral_radius"),
    ("polynomials", "inequality_certificates"),
    ("polynomials", "crossover_scan"),
    ("polynomials", "compare_largest_roots"),
    ("polynomials", "largest_real_root"),
    ("polynomials", "sturm_chain"),
    ("polynomials", "sign_at"),
    ("polynomials", "positive_on_open_interval"),
    ("polynomials", "positive_on_ray"),
    ("partition", "quotient"),
    ("partition", "charpoly"),
    ("partition", "quotient_lambda_check"),
)


class Tracer:
    """Installs wrappers on construction; ``close`` restores the originals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float] | None] = []
        self.free = 0  # contains_subgraph calls that found no embedding
        self.layers: dict[tuple[int, int], int] = {}  # (n, m) -> classes kept
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        modules = [mod for name, mod in sys.modules.items()
                   if name == "bht" or name.startswith("bht.")]
        for modname, fname in TARGETS:
            home = sys.modules.get(f"bht.{modname}")
            orig = getattr(home, fname, None)
            if orig is None:
                continue
            wrapper = self._wrap(len(self.names), orig, self._note(fname))
            self.names.append(f"{modname}.{fname}")
            for mod in modules:
                if getattr(mod, fname, None) is orig:
                    setattr(mod, fname, wrapper)
                    self._patched.append((mod, fname, orig))

    def _note(self, fname: str):
        if fname == "contains_subgraph":
            def note(args, result):
                if result is None:
                    self.free += 1
            return note
        if fname == "connected_layer":
            def note(args, result):
                self.layers[tuple(args[:2])] = len(result)
            return note
        return None

    def _wrap(self, idx: int, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, parent, t0, t1)
            if note is not None:
                note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def close(self) -> None:
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    def summary(self) -> dict:
        """Calls and self time per function; self time is a span's duration
        minus the durations of its direct child spans."""
        child = [0.0] * len(self.spans)
        for idx, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for sid, (idx, parent, t0, t1) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            self_s[name] += t1 - t0 - child[sid]
        return {
            "calls": calls,
            "self_s": self_s,
            "free": self.free,
            "classes_kept": sum(self.layers.values()),
        }

    def dump(self, path) -> None:
        """Write the spans as {"names": [...], "spans": [[fn, parent, t0, t1], ...]}."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))
