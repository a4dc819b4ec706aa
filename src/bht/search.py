"""Exhaustive extremal search over small connected graphs of a given size.

Enumeration is levelwise and isomorph-free: trees grow by leaf
augmentation, denser layers by single-edge augmentation, and each layer
is deduplicated through canonical forms (every connected graph with m
edges contains a spanning tree, so all intermediate stages stay
connected).  Layer (n, m) results are cached in-process and the search
itself can checkpoint per-layer summaries to disk, making forced large
runs resumable.

Layers whose connected-graph ceiling sqrt(2m - n + 1) cannot reach the
running best are skipped; that bound is standard for connected graphs
with minimum degree one and is validated against unpruned runs in the
test suite.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from math import comb, sqrt
from pathlib import Path
from typing import Callable

from . import families, forbidden
from .graphs import (
    Graph, bits, canonical_form, disjoint_union, from_graph6, is_connected, to_graph6,
)
from .polynomials import (
    Polynomial,
    book_lambda,
    c5_extremal,
    c6_extremal,
    crossover_at,
    largest_real_root,
    star_matching_cubic,
)
from .spectral import spectral_radius

TIE_TOL = 1e-9
DEFAULT_CAP = 12

# (n, m) -> canonical form -> the class's kept graph, in form order
_LAYERS: dict[tuple[int, int], dict[bytes, Graph]] = {}


def trees(n: int) -> list[Graph]:
    """All trees on n vertices up to isomorphism, sorted by canonical form."""
    return connected_layer(n, n - 1)


def connected_layer(n: int, m: int) -> list[Graph]:
    """Connected graphs with n vertices and m edges, one per class, sorted
    by canonical form."""
    if n < 1 or m < n - 1 or m > comb(n, 2):
        return []
    key = (n, m)
    if key not in _LAYERS:
        seen: dict[bytes, Graph] = {}
        if n == 1:
            point = Graph(1, (0,))
            seen[canonical_form(point)] = point
        elif m == n - 1:
            for parent in trees(n - 1):
                grown = parent.add_vertex()
                for v in range(parent.n):
                    child = grown.add_edge(v, parent.n)
                    seen.setdefault(canonical_form(child), child)
        else:
            full = (1 << n) - 1
            for parent in connected_layer(n, m - 1):
                for u in range(n):
                    above = full & ~((1 << (u + 1)) - 1)
                    for v in bits(above & ~parent.adj[u]):
                        child = parent.add_edge(u, v)
                        seen.setdefault(canonical_form(child), child)
        _LAYERS[key] = {c: seen[c] for c in sorted(seen)}
    return list(_LAYERS[key].values())


def _classes(n: int, m: int):
    """(canonical form, graph) for each class of ``connected_layer(n, m)``,
    read from the layer cache that call fills, so no form is recomputed."""
    connected_layer(n, m)
    return _LAYERS.get((n, m), {}).items()


def enumerate_connected(m: int):
    """Stream one representative per isomorphism class, by (n, canonical form)."""
    if m < 1:
        raise ValueError("need m >= 1")
    for n in range(2, m + 2):
        yield from connected_layer(n, m)


def enumerate_isolate_free(m: int):
    """Widened stream: every isolate-free graph with m edges (tiny m only).

    Multisets of connected components are produced in nondecreasing
    (edge count, canonical form) order, which is itself a canonical
    labelling of the multiset, so no cross-class deduplication is needed.
    """
    if m > 10:
        raise ValueError("the widened enumeration is meant for tiny m")
    pool: list[tuple[tuple[int, bytes], Graph]] = []
    for k in range(1, m + 1):
        for n in range(2, k + 2):
            for canon, g in _classes(n, k):
                pool.append(((k, canon), g))
    pool.sort(key=lambda item: item[0])

    def expand(start: int, left: int, acc: Graph | None):
        if left == 0:
            if acc is not None:
                yield acc
            return
        for i in range(start, len(pool)):
            (k, _), g = pool[i]
            if k > left:
                break
            yield from expand(i, left - k, g if acc is None else disjoint_union(acc, g))

    yield from expand(0, m, None)


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------


@dataclass
class SearchReport:
    m: int
    patterns: tuple[str, ...]
    exclusions: tuple[bytes, ...]
    best_lambda: float
    maximizers: list[tuple[Graph, bytes]]
    counts: dict[str, int]
    wall_time: float
    connected_only: bool = True

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "m": self.m,
            "patterns": list(self.patterns),
            "exclusions": [e.hex() for e in self.exclusions],
            "best_lambda": self.best_lambda,
            "maximizers": [
                {"graph6": to_graph6(g), "n": g.n, "canonical": c.hex()}
                for g, c in self.maximizers
            ],
            "counts": self.counts,
            "wall_time": self.wall_time,
            "connected_only": self.connected_only,
        }


def _pattern_name(p: Graph | str) -> str:
    return p if isinstance(p, str) else f"graph6:{to_graph6(p)}"


def _admit(best: float, tied: list, cand: tuple[Graph, bytes, float]) -> float:
    """Fold one (graph, canon, lambda) candidate into the running best.

    ``tied`` is updated in place and keeps every candidate within TIE_TOL
    of the returned best.
    """
    lam = cand[2]
    if lam > best + TIE_TOL:
        best = lam
        tied[:] = [cand]
    elif lam > best - TIE_TOL:
        tied.append(cand)
    return best


def _scan(classes, patterns, exclusions: frozenset[bytes]):
    """Best lambda and near-ties among the admissible graphs of a stream of
    (canonical form, graph) pairs; a form of None is computed when needed."""
    best = -1.0
    tied: list[tuple[Graph, bytes, float]] = []
    enumerated = free = 0
    for canon, g in classes:
        enumerated += 1
        if not forbidden.is_free(g, patterns):
            continue
        free += 1
        if canon is None:
            canon = canonical_form(g)
        if canon not in exclusions:
            best = _admit(best, tied, (g, canon, spectral_radius(g).lam))
    return best, tied, enumerated, free


def _checkpoint_path(cache_dir: str | Path, m: int, patterns, exclusions, connected_only: bool) -> Path:
    import hashlib

    tag = json.dumps([
        m,
        sorted(_pattern_name(p) for p in patterns),
        sorted(e.hex() for e in exclusions),
        connected_only,
    ])
    digest = hashlib.sha256(tag.encode()).hexdigest()[:16]
    return Path(cache_dir) / f"search_m{m}_{digest}.json"


_LAYER_KEYS = ("best", "tied", "enumerated", "free")
_NUMBER = (int, float)  # exact types, so JSON true/false are not numbers


def _decode_tie(item, key: str, m: int, patterns, exclusions: frozenset[bytes]):
    """A ``[graph6, hex, number]`` triple of layer ``key`` as (graph, canon,
    lambda), after checking that this search could have kept it there."""
    if not (type(item) is list and [type(v) for v in item[:2]] == [str, str]
            and len(item) == 3 and type(item[2]) in _NUMBER):
        raise ValueError(f"bad tied entry {item!r}")
    g, canon, lam = from_graph6(item[0]), bytes.fromhex(item[1]), item[2]
    if str(g.n) != key or g.m != m or not is_connected(g):
        raise ValueError(f"tied entry {item[0]!r} is not a connected graph "
                         f"with {key} vertices and {m} edges")
    if canonical_form(g) != canon:
        raise ValueError(f"tied entry {item[0]!r} does not have canonical form {item[1]}")
    if not forbidden.is_free(g, patterns) or canon in exclusions:
        raise ValueError(f"tied entry {item[0]!r} is not admissible")
    if abs(spectral_radius(g).lam - lam) > TIE_TOL:
        raise ValueError(f"tied entry {item[0]!r} does not have spectral radius {lam!r}")
    return g, canon, lam


def _load_checkpoint(path: Path, m: int, patterns, exclusions: frozenset[bytes]) -> dict[str, tuple]:
    """Per-layer ``_scan`` results saved by an earlier run, keyed by str(n)."""
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        layers = {}
        for key, entry in data.items():
            if not isinstance(entry, dict) or not all(k in entry for k in _LAYER_KEYS):
                raise ValueError(f"layer {key!r} lacks one of {sorted(_LAYER_KEYS)}")
            best, tied, enumerated, free = (entry[k] for k in _LAYER_KEYS)
            if not (type(best) in _NUMBER and type(tied) is list
                    and type(enumerated) is int and type(free) is int):
                raise ValueError(f"layer {key!r} has a value of the wrong type")
            ties = [_decode_tie(item, key, m, patterns, exclusions) for item in tied]
            layers[key] = (best, ties, enumerated, free)
    except ValueError as exc:
        raise ValueError(f"corrupt checkpoint {path}: {exc}") from None
    return layers


def _save_checkpoint(path: Path, layers: dict[str, tuple]) -> None:
    """Replace the file in one step, so an interrupted save leaves the old one."""
    data = {
        key: dict(zip(_LAYER_KEYS, (best, [[to_graph6(g), c.hex(), lam] for g, c, lam in tied],
                                    enumerated, free)))
        for key, (best, tied, enumerated, free) in layers.items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(data))
    os.replace(tmp, path)


def extremal_search(
    m: int,
    patterns,
    exclusions=(),
    *,
    force: bool = False,
    prune: bool = True,
    connected_only: bool = True,
    cache_dir: str | Path | None = None,
) -> SearchReport:
    """Locate all spectral-radius maximizers among admissible graphs.

    ``patterns`` are forbidden subgraphs (names or graphs); ``exclusions``
    are canonical forms (or graphs) removed from the candidate set after
    filtering.  Results are exact over the enumerated universe; see the
    module notes on pruning.  Sizes above ``DEFAULT_CAP`` raise ValueError
    unless ``force`` is set.  With ``cache_dir`` set, each scanned layer
    of a connected search is checkpointed there and reused by later runs;
    a checkpoint that does not decode, or whose tied graphs this search
    could not have kept, raises ValueError naming the file.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if m > DEFAULT_CAP and not force:
        raise ValueError(f"m={m} exceeds the cap {DEFAULT_CAP}; pass force=True to override")
    patterns = list(patterns)
    excl = frozenset(
        e if isinstance(e, bytes) else canonical_form(e) for e in exclusions
    )
    t0 = time.perf_counter()
    pruned = 0

    if not connected_only:
        # sanity-scale widened search, no pruning
        widened = ((None, g) for g in enumerate_isolate_free(m))
        best, tied, enumerated, free = _scan(widened, patterns, excl)
    else:
        # seed the running best with the closed-form candidates so sparse
        # layers prune immediately
        best = -1.0
        if prune and m >= 4:
            for _, g in families.theorem_candidates(m):
                if forbidden.is_free(g, patterns) and canonical_form(g) not in excl:
                    best = max(best, spectral_radius(g).lam)

        ckpt_path = None if cache_dir is None else _checkpoint_path(
            cache_dir, m, patterns, excl, connected_only)
        checkpoint = {} if ckpt_path is None else _load_checkpoint(ckpt_path, m, patterns, excl)

        enumerated = free = 0
        tied = []
        for n in range(2, m + 2):
            if not n - 1 <= m <= comb(n, 2):
                continue
            if prune and sqrt(2 * m - n + 1) < best - TIE_TOL:
                pruned += 1
                continue
            key = str(n)
            if key not in checkpoint:
                checkpoint[key] = _scan(_classes(n, m), patterns, excl)
                if ckpt_path is not None:
                    _save_checkpoint(ckpt_path, checkpoint)
            _, layer_tied, layer_enum, layer_free = checkpoint[key]
            enumerated += layer_enum
            free += layer_free
            for cand in layer_tied:
                best = _admit(best, tied, cand)

    return SearchReport(
        m,
        tuple(_pattern_name(p) for p in patterns),
        tuple(sorted(excl)),
        best,
        sorted(((g, c) for g, c, _ in tied), key=lambda t: (t[0].n, t[1])),
        {"enumerated": enumerated, "free": free, "pruned": pruned},
        time.perf_counter() - t0,
        connected_only,
    )


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    theorem: str
    m: int
    status: str  # "pass" | "fail" | "not_claimed"
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))
        if not ok:
            self.status = "fail"

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "theorem": self.theorem,
            "m": self.m,
            "status": self.status,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks],
            "notes": self.notes,
        }


def _complete_bipartite_exclusions(m: int) -> list[bytes]:
    out = []
    for a in range(1, m + 1):
        if m % a == 0 and a <= m // a:
            out.append(canonical_form(families.complete_bipartite(a, m // a)))
    return out


def _book_exclusion(m: int) -> list[bytes]:
    return [canonical_form(families.book(m))] if m % 2 else []


def _c6_regimes(m: int) -> tuple[Graph, Graph]:
    """(claimed, alternative): the cone up to the crossover, the split after."""
    cx = crossover_at(m)
    cone = families.k1_join_candidate(m)
    split = families.split_pendant_for_size(m, cx.split_t)
    return (cone, split) if m <= cx.last_cone else (split, cone)


@dataclass(frozen=True)
class Claim:
    """One maximality claim; the callables take m and run only inside its range."""

    start: int
    patterns: tuple[str, ...]
    exclusions: Callable[[int], list[bytes]]
    graph: Callable[[int], Graph | None]
    poly: Callable[[int], Polynomial]


def _book_claim(start: int, pattern: str) -> Claim:
    return Claim(start, (pattern,), lambda m: [],
                 lambda m: families.book(m) if m % 2 else None,
                 lambda m: Polynomial([-(m - 1), -1, 1]))


CLAIMS = {
    "theta123": _book_claim(8, "theta123"),
    "theta124": _book_claim(22, "theta124"),
    "c5_runner_up": Claim(
        22, ("c5",), _book_exclusion,
        lambda m: families.split_pendant_for_size(m, crossover_at(m).split_t), c5_extremal),
    "c6_runner_up": Claim(
        22, ("c6",), _book_exclusion, lambda m: _c6_regimes(m)[0], c6_extremal),
    "theta_pair_runner_up": Claim(
        26, ("theta122", "theta123"), _complete_bipartite_exclusions,
        lambda m: families.star_matching(m, 1), star_matching_cubic),
}

THEOREM_IDS = tuple(CLAIMS)


def verify_theorem(theorem: str, m: int, *, cache_dir=None) -> VerificationReport:
    """Check one maximality claim at a given size.

    Construction mode (any m in the claim's range) checks the claimed
    graph's size, freeness, exclusion-set membership and the agreement of
    its spectral radius with the stated polynomial root.  Oracle mode
    (m small enough to enumerate) additionally asserts that no competitor
    exceeds the claimed value and that the maximizer set is as claimed.
    """
    if theorem not in CLAIMS:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {THEOREM_IDS}")
    claim = CLAIMS[theorem]
    report = VerificationReport(theorem, m, "pass")
    if m < claim.start:
        report.status = "not_claimed"
        report.notes.append(f"claim covers m >= {claim.start}; m={m} is outside it")
        return report
    patterns, exclusions = list(claim.patterns), claim.exclusions(m)
    claimed, poly = claim.graph(m), claim.poly(m)

    bound = book_lambda(m)
    if claimed is None:
        report.notes.append("even m: the bound is claimed strict (no equality graph)")
    else:
        lam = spectral_radius(claimed).lam
        root, _ = largest_real_root(poly)
        report.record("edge_count", claimed.m == m, f"edges={claimed.m}")
        report.record("pattern_free", forbidden.is_free(claimed, patterns))
        if theorem in ("theta123", "theta124"):
            report.record("lambda_closed_form", abs(lam - bound) <= 1e-9,
                          f"lambda={lam!r} vs (1+sqrt(4m-3))/2={bound!r}")
            report.record("lambda_poly_root", abs(lam - root) <= 1e-9)
        else:
            report.record(
                "not_excluded", canonical_form(claimed) not in set(exclusions)
            )
            report.record("lambda_poly_root", abs(lam - root) <= 1e-9,
                          f"lambda={lam!r} root={root!r}")
            report.record("below_book_bound", lam < bound + 1e-9,
                          f"claimed lambda {lam!r} vs book bound {bound!r}")
        if theorem == "c6_runner_up":
            lam_alt = spectral_radius(_c6_regimes(m)[1]).lam
            report.record("beats_other_regime", lam > lam_alt - 1e-12,
                          f"claimed {lam!r} vs alternative {lam_alt!r}")

    if m <= DEFAULT_CAP:
        result = extremal_search(m, patterns, exclusions, cache_dir=cache_dir)
        report.notes.append(
            f"oracle mode: enumerated {result.counts['enumerated']} classes"
        )
        if theorem in ("theta123", "theta124"):
            report.record("oracle_bound", result.best_lambda <= bound + 1e-9,
                          f"best={result.best_lambda!r}")
            if m % 2:
                book_canon = canonical_form(families.book(m))
                report.record(
                    "oracle_unique_maximizer",
                    [c for _, c in result.maximizers] == [book_canon],
                    f"{len(result.maximizers)} maximizers",
                )
                report.record("oracle_equality", abs(result.best_lambda - bound) <= 1e-9)
            else:
                report.record("oracle_strict", result.best_lambda < bound - 1e-9,
                              f"best={result.best_lambda!r}")
        else:
            assert claimed is not None
            report.record(
                "oracle_maximizer",
                [c for _, c in result.maximizers] == [canonical_form(claimed)]
                and abs(result.best_lambda - lam) <= 1e-9,
                f"best={result.best_lambda!r}",
            )
    else:
        report.notes.append(
            "construction mode only: exhaustive enumeration is infeasible at this size"
        )
    return report
