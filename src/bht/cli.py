"""Command line interface: one subcommand per module surface.

Exit codes follow the claim contract: 0 when the requested computation
succeeds and every asserted claim holds, 1 when some claim is violated,
2 for usage errors.  Machine-readable output (one JSON object per line,
each carrying ``schema: 1``) sits behind ``--json``; the default output
is a small human-readable table.

Exhaustive search runs up to ``search.DEFAULT_CAP`` edges unless
``--force`` is given.  Checkpoints go to ``--cache-dir`` when given, else
to ``BHT_CACHE_DIR``; ``verify`` reads only ``BHT_CACHE_DIR``.

The parser is built from the standard library alone, and each subcommand
imports the library modules it runs (README.md tabulates them).  Ids,
pairs and theorems are checked by the command, which names the known
values in its usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graphs import Graph


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps({"schema": 1, **payload}))
    else:
        for line in lines:
            print(line)


def _read_graph(path: str) -> Graph:
    """The graph in ``path``, an edge list when its first content line
    (comments stripped) has whitespace, which graph6 never does, and
    graph6 otherwise.  A file with no content line holds no graph."""
    from .graphs import from_graph6, parse_edge_list

    text = Path(path).read_text()
    content = (line.split("#", 1)[0].strip() for line in text.splitlines())
    first = next((line for line in content if line), "")
    if not first:
        raise ValueError(f"{path}: no graph in the file")
    if len(first.split()) > 1:
        return parse_edge_list(text)
    return from_graph6(first)


def _parse_params(text: str) -> dict[str, int]:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad parameter {item!r}; expected k=v")
        key, val = (s.strip() for s in item.split("=", 1))
        try:
            out[key] = int(val)
        except ValueError:
            raise ValueError(f"parameter {key} needs an integer, got {val!r}") from None
    return out


def _parse_patterns(text: str) -> list[str]:
    from . import forbidden

    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise ValueError(f"no pattern names in {text!r}; known: {forbidden.NAMED_PATTERNS}")
    for name in names:
        if name not in forbidden.NAMED_PATTERNS:
            raise ValueError(f"unknown pattern {name!r}; known: {forbidden.NAMED_PATTERNS}")
    return names


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _parse_blocks(text: str) -> list[list[int]]:
    blocks = []
    for chunk in text.split(";"):
        block: list[int] = []
        for token in chunk.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                if "-" in token[1:]:
                    lo, hi = token.split("-", 1)
                    block.extend(range(int(lo), int(hi) + 1))
                else:
                    block.append(int(token))
            except ValueError:
                raise ValueError(f"block {len(blocks)}: bad vertex or range {token!r}") from None
        blocks.append(block)
    return blocks


# -- subcommands -------------------------------------------------------------


def cmd_family(args) -> int:
    from . import families
    from .graphs import format_edge_list, parse_edge_list, to_graph6

    g = families.build(families.spec_from_params(args.name, _parse_params(args.params)))
    if args.format == "graph6":
        out = to_graph6(g) + "\n"
    else:
        out = format_edge_list(g)
        if not g.m or parse_edge_list(out) != g:
            raise ValueError(f"an edge list of this {g.n}-vertex, {g.m}-edge graph "
                             "does not read back; use --format graph6")
    if args.output:
        Path(args.output).write_text(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_lambda(args) -> int:
    from .spectral import spectral_radius

    g = _read_graph(args.input)
    res = spectral_radius(g)
    payload = {"lambda": res.lam, "residual": res.residual, "n": g.n, "m": g.m}
    lines = [f"lambda    {res.lam:.12f}", f"residual  {res.residual:.3e}"]
    if args.perron:
        payload["perron"] = list(res.perron)
        lines.append("perron    " + " ".join(f"{x:.8f}" for x in res.perron))
    _emit(payload, args.json, lines)
    return 0


def cmd_free(args) -> int:
    from . import forbidden

    g = _read_graph(args.input)
    results = {}
    lines = []
    for name in _parse_patterns(args.patterns):
        witness = forbidden.contains_subgraph(g, name)
        results[name] = {"free": witness is None, "witness": witness}
        lines.append(f"{name:10s} {'free' if witness is None else f'contained, witness {witness}'}")
    _emit({"free": results}, args.json, lines)
    return 0


def cmd_quotient(args) -> int:
    from . import partition
    from .polynomials import largest_real_root

    g = _read_graph(args.input)
    q = partition.quotient(g, _parse_blocks(args.blocks))
    cp = partition.charpoly(q)
    lam_q, _ = largest_real_root(cp)  # g's spectral radius, as q is equitable
    payload = {
        "matrix": [[str(x) for x in row] for row in q],
        "charpoly": [str(c) for c in cp.coeffs],
        "charpoly_str": str(cp),
        "lambda_Q": lam_q,
    }
    lines = ["quotient matrix:"]
    lines += ["  " + "  ".join(f"{str(x):>6s}" for x in row) for row in q]
    lines += [f"charpoly  {cp}", f"lambda_Q  {lam_q:.12f}"]
    _emit(payload, args.json, lines)
    return 0


def cmd_poly(args) -> int:
    from . import polynomials

    params = {k: getattr(args, k) for k in ("t", "r", "p") if getattr(args, k) is not None}
    poly = polynomials.instantiate(args.id, args.m, **params)
    payload: dict = {"id": args.id, "m": args.m, **params,
                     "coeffs": [str(c) for c in poly.coeffs], "poly": str(poly)}
    lines = [f"{args.id}(m={args.m}{''.join(f', {k}={v}' for k, v in params.items())}) = {poly}"]
    if not args.coeffs:
        value, bracket = polynomials.largest_real_root(poly)
        payload["largest_root"] = value
        payload["bracket"] = [str(bracket.lo), str(bracket.hi)]
        lines.append(f"largest root {value:.12f} in ({bracket.lo}, {bracket.hi}]")
    _emit(payload, args.json, lines)
    return 0


def cmd_crossover(args) -> int:
    from . import polynomials

    if args.pair not in polynomials.CROSSOVER:
        raise ValueError(f"unknown crossover pair {args.pair!r}; "
                         f"known: {tuple(polynomials.CROSSOVER)}")
    lo, hi = _parse_range(args.range)
    cx = polynomials.CROSSOVER[args.pair]
    rep = polynomials.crossover_scan(cx.cone, cx.split, args.pair, (lo, hi))
    payload = {
        "pair": args.pair,
        "runs": [list(r) for r in rep.runs],
        "flips": [list(f) for f in rep.flips],
    }
    lines = [f"run m={a}..{b}: cone root {dict(gt='>', lt='<', eq='=')[o]} split root"
             for a, b, o in rep.runs]
    lines += [f"flip between m={a} and m={b}" for a, b in rep.flips]
    _emit(payload, args.json, lines)
    return 0


def _parse_range(text: str | None, m: int | None = None) -> tuple[int, int]:
    """lo, hi of ``--range lo:hi``, or m, m when no range is given."""
    if text is None:
        return m, m
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected lo:hi") from None
    if lo > hi:
        raise ValueError("empty range")
    return lo, hi


def cmd_search(args) -> int:
    from . import families, search
    from .graphs import canonical_form, to_graph6

    patterns = _parse_patterns(args.forbid)
    exclusions = [canonical_form(families.book(args.m))] if args.exclude_book else []
    rep = search.extremal_search(
        args.m, patterns, exclusions, force=args.force, cache_dir=args.cache_dir,
    )
    payload = rep.to_json()
    lines = [
        f"m={rep.m} patterns={','.join(rep.patterns)} best_lambda={rep.best_lambda:.12f}",
        f"counts: {rep.counts}  wall_time={rep.wall_time:.2f}s",
    ]
    lines += [f"maximizer: {to_graph6(g)}  (n={g.n})" for g, _ in rep.maximizers]
    _emit(payload, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    from . import polynomials, search

    if args.thm != "all" and args.thm not in search.THEOREM_IDS:
        return _usage_error(f"unknown theorem id {args.thm!r}; known: {search.THEOREM_IDS}")
    thms = search.THEOREM_IDS if args.thm == "all" else (args.thm,)
    lo, hi = _parse_range(args.range, args.m)
    if all(hi < search.CLAIMS[thm].start for thm in thms):
        starts = ", ".join(f"{thm} covers m >= {search.CLAIMS[thm].start}" for thm in thms)
        sizes = f"m={lo}" if lo == hi else f"m={lo}..{hi}"
        return _usage_error(f"no requested claim covers {sizes}; {starts}")
    failed = False
    for thm in thms:
        for m in range(lo, hi + 1):
            rep = search.verify_theorem(thm, m, cache_dir=os.environ.get("BHT_CACHE_DIR"))
            if rep.status == "fail":
                failed = True
            if args.json:
                print(json.dumps(rep.to_json()))
            else:
                detail = "; ".join(
                    f"{name}{'' if ok else ' FAILED'}" for name, ok, _ in rep.checks
                )
                print(f"{thm} m={m}: {rep.status}  [{detail}]")
        claim = search.CLAIMS[thm]
        if claim.rival is not None and hi > lo and hi >= claim.start:
            pair = (max(lo, claim.start), hi)
            for parity, cx in polynomials.CROSSOVER.items():
                rep2 = polynomials.crossover_scan(cx.cone, cx.split, parity, pair)
                line = {"schema": 1, "crossover": parity, "flips": [list(f) for f in rep2.flips]}
                print(json.dumps(line) if args.json else
                      f"crossover ({parity}): flips at {rep2.flips}")
    return 1 if failed else 0


def cmd_certify(args) -> int:
    from . import polynomials

    lo, hi = _parse_range(args.range, args.m)
    ok = True
    for m in range(lo, hi + 1):
        certs = polynomials.inequality_certificates(m)
        ok &= all(c.holds for c in certs)
        if args.json:
            for c in certs:
                print(json.dumps({"schema": 1, "m": m, "name": c.name,
                                  "statement": c.statement, "holds": c.holds,
                                  "detail": c.detail}))
            continue
        if args.range is not None:
            print(f"m={m}")
        width = max(len(c.name) for c in certs)
        for c in certs:
            mark = "ok " if c.holds else "VIOLATED"
            print(f"{c.name:<{width}}  {mark}  {c.statement}"
                  + (f"  [{c.detail}]" if c.detail else ""))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bht", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    # the inputs that several subcommands share, each declared once
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    graph_input = argparse.ArgumentParser(add_help=False, parents=[as_json])
    graph_input.add_argument("--input", required=True)
    sizes = argparse.ArgumentParser(add_help=False, parents=[as_json])
    size = sizes.add_mutually_exclusive_group(required=True)
    size.add_argument("--m", type=int)
    size.add_argument("--range", help="lo:hi")

    p = sub.add_parser("family", help="emit a named family graph")
    p.add_argument("--name", required=True)
    p.add_argument("--params", default="", help="comma list k=v")
    p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p.add_argument("--output")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("lambda", parents=[graph_input],
                       help="spectral radius of a graph file")
    p.add_argument("--perron", action="store_true")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("free", parents=[graph_input],
                       help="forbidden-subgraph tests with witnesses")
    p.add_argument("--patterns", required=True)
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("quotient", parents=[graph_input],
                       help="exact quotient matrix of a partition")
    p.add_argument("--blocks", required=True, help='e.g. "0;1;2,3;4-9"')
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("poly", parents=[as_json], help="named polynomial instances and roots")
    p.add_argument("--id", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--coeffs", action="store_true")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("crossover", parents=[as_json],
                       help="largest-root ordering scans over m")
    p.add_argument("--pair", required=True)
    p.add_argument("--range", required=True, help="lo:hi")
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("search", parents=[as_json], help="exhaustive extremal search at small m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--forbid", required=True, help="comma list of pattern names")
    p.add_argument("--exclude-book", action="store_true")
    p.add_argument("--force", action="store_true")
    p.add_argument("--cache-dir", default=os.environ.get("BHT_CACHE_DIR"),
                   help="checkpoint directory (default: $BHT_CACHE_DIR)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", parents=[sizes], help="check the maximality claims")
    p.add_argument("--thm", required=True, help="a theorem id, or 'all'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", parents=[sizes], help="exact-sign inequality certificates")
    p.set_defaults(func=cmd_certify)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _usage_error(f"cannot read {exc.filename}")
    except ValueError as exc:
        return _usage_error(str(exc))
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
