"""CLI surface: formats, exit codes under the claim contract, round trips."""

import argparse
import hashlib
import inspect
import json
import os
import shlex
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from bht import cli, partition, polynomials, search
from bht import families as F
from bht.graphs import canonical_form, disjoint_union, from_graph6, parse_edge_list, to_graph6
from conftest import brute_isomorphic, check_embedding, graph_of_form


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_edgelist_round_trip(capsys):
    code, out, _ = run(capsys, "family", "--name", "complete_split",
                       "--params", "n=6,k=2")
    assert code == 0
    g = parse_edge_list(out)
    assert brute_isomorphic(g, F.complete_split(6, 2))


def test_family_graph6(capsys):
    code, out, _ = run(capsys, "family", "--name", "theta", "--params",
                       "p=1,q=2,r=3", "--format", "graph6")
    assert code == 0
    assert canonical_form(from_graph6(out.strip())) == canonical_form(F.theta(1, 2, 3))


def test_family_usage_errors(capsys):
    code, _, err = run(capsys, "family", "--name", "book", "--params", "m=10")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "family", "--name", "nope", "--params", "n=3")
    assert code == 2
    code, _, err = run(capsys, "family", "--name", "theta", "--params", "p=1")
    assert code == 2
    code, out, err = run(capsys, "family", "--name", "book", "--params", "m")
    assert (code, out, err) == (2, "", "error: bad parameter 'm'; expected k=v\n")
    code, out, err = run(capsys, "family", "--name", "book", "--params", "m=x")
    assert (code, out, err) == (2, "", "error: parameter m needs an integer, got 'x'\n")


def test_family_rejects_parameters_it_does_not_take(capsys):
    code, out, err = run(capsys, "family", "--name", "book", "--params", "m=5,x=2")
    assert (code, out, err) == (2, "", "error: book takes no parameters ['x']; expected ('m',)\n")
    # generalized_theta takes any keys, as path lengths in key order
    code, out, _ = run(capsys, "family", "--name", "generalized_theta",
                       "--params", "z=3,x=1,y=2", "--format", "graph6")
    assert code == 0
    assert canonical_form(from_graph6(out.strip())) == canonical_form(F.generalized_theta([1, 2, 3]))


# The message for each family with its first parameter -1 and any others 3
# (generalized_theta: the lengths x=-1, y=3, z=3).
NEGATIVE_PARAMETER_ERRORS = {
    "complete": "n must be nonnegative",
    "complete_bipartite": "part sizes must be nonnegative",
    "star": "a star needs at least one vertex",
    "path": "n must be nonnegative",
    "cycle": "cycles need n >= 3",
    "complete_split": "need 0 <= k <= n, got k=3, n=-1",
    "book": "book graph needs odd m >= 3, got -1",
    "split_pendant": "no vertex left to attach pendants: n=-1, t=3",
    "split_pendant_size": "m=-1 and t=3 must have opposite parity",
    "star_matching": "need 0 <= 2k <= n-1, got n=-1, k=3",
    "theta": "need 1 <= p <= q <= r and q >= 2, got (-1,3,3)",
    "generalized_theta": "invalid path lengths [-1, 3, 3]: at most one length-1 path",
    "r_chain": "k must be nonnegative",
    "double_star": "leaf counts must be nonnegative",
    "kminus": "need 2 <= s <= t, got (-1,3)",
    "kplus": "need 2 <= s <= t, got (-1,3)",
    "k1_join_star_edge": "need m >= 2r+2, got m=-1, r=3",
    "k1_join_candidate": "odd cone candidate needs m >= 9",
    "hts0_r_chain": "t must be nonnegative",
    "star_diamond_k4": "star_diamond_k4 needs odd m >= 9, got -1",
}


@pytest.mark.parametrize("name", sorted(F.FAMILIES))
def test_family_bad_parameters_exit_2(capsys, name):
    """A negative or a missing parameter is a usage error with its message,
    for every family, whatever the constructors validate."""
    names = F.FAMILIES[name][1] or ("x", "y", "z")
    params = ",".join(f"{k}={-1 if i == 0 else 3}" for i, k in enumerate(names))
    code, out, err = run(capsys, "family", "--name", name, "--params", params)
    assert (code, out, err) == (2, "", f"error: {NEGATIVE_PARAMETER_ERRORS[name]}\n")
    code, out, err = run(capsys, "family", "--name", name)
    missing = ("need at least two paths" if name == "generalized_theta"
               else f"{name} needs parameters {names}")
    assert (code, out, err) == (2, "", f"error: {missing}\n")


def test_lambda_json(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "lambda", "--input", str(path), "--perron", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert abs(payload["lambda"] - 2.0) <= 1e-10
    assert len(payload["perron"]) == 3


def test_lambda_graph6_input(capsys, tmp_path):
    from bht.graphs import to_graph6

    path = tmp_path / "g.g6"
    path.write_text(to_graph6(F.book(9)) + "\n")
    code, out, _ = run(capsys, "lambda", "--input", str(path), "--json")
    assert code == 0
    assert abs(json.loads(out)["lambda"] - 3.3722813232690143) <= 1e-9


def test_lambda_missing_file(capsys):
    code, _, err = run(capsys, "lambda", "--input", "/nonexistent/file")
    assert code == 2


def test_free_command(capsys, tmp_path):
    path = tmp_path / "book.txt"
    path.write_text("\n".join(f"{u} {v}" for u, v in F.book(9).edges()))
    code, out, _ = run(capsys, "free", "--input", str(path),
                       "--patterns", "c5,c6,theta122", "--json")
    assert code == 0
    payload = json.loads(out)["free"]
    assert payload["c5"]["free"] and payload["c6"]["free"]
    assert not payload["theta122"]["free"]
    witness = payload["theta122"]["witness"]
    assert check_embedding(F.book(9), "theta122", witness)
    code, _, _ = run(capsys, "free", "--input", str(path), "--patterns", "c9")
    assert code == 2


KNOWN_PATTERNS = "known: ('c5', 'c6', 'theta122', 'theta123', 'theta124')"


@pytest.mark.parametrize("command, text, reason", [
    ("free", "", f"no pattern names in ''; {KNOWN_PATTERNS}"),
    ("free", " , ", f"no pattern names in ' , '; {KNOWN_PATTERNS}"),
    ("free", "c5,c9", f"unknown pattern 'c9'; {KNOWN_PATTERNS}"),
    ("search", "c9", f"unknown pattern 'c9'; {KNOWN_PATTERNS}"),
    ("search", ",", f"no pattern names in ','; {KNOWN_PATTERNS}"),
])
def test_pattern_list_errors_name_the_reason(capsys, tmp_path, command, text, reason):
    path = tmp_path / "book.txt"
    path.write_text("\n".join(f"{u} {v}" for u, v in F.book(9).edges()))
    argv = (["free", "--input", str(path), "--patterns", text] if command == "free"
            else ["search", "--m", "5", "--forbid", text])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_quotient_command(capsys, tmp_path):
    path = tmp_path / "book.txt"
    path.write_text("\n".join(f"{u} {v}" for u, v in F.book(9).edges()))
    code, out, _ = run(capsys, "quotient", "--input", str(path),
                       "--blocks", "0,1;2-5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["1", "4"], ["2", "0"]]
    assert payload["lambda_Q"] == 3.3722813232690143  # (1 + sqrt(33))/2, to the nearest float
    # non-equitable partition is a usage error
    code, _, err = run(capsys, "quotient", "--input", str(path), "--blocks", "0,2;1,3,4,5")
    assert code == 2
    code, _, err = run(capsys, "quotient", "--input", str(path), "--blocks", "0;1")
    assert code == 2


@pytest.mark.parametrize("blocks, reason", [
    ("0,1;;2-5", "block 1 is empty"),
    ("0,1;1-5", "vertex 1 appears twice"),
    ("0,1;2-6", "block 1: vertex 6 out of range"),
    ("0;1,2;3-x", "block 2: bad vertex or range '3-x'"),
    ("0;1,2;-3-29", "block 2: bad vertex or range '-3-29'"),
    ("0,1;2-4", "blocks do not cover all vertices"),
])
def test_quotient_blocks_errors_name_the_reason(capsys, tmp_path, blocks, reason):
    path = tmp_path / "book.txt"
    path.write_text("\n".join(f"{u} {v}" for u, v in F.book(9).edges()))
    code, out, err = run(capsys, "quotient", "--input", str(path), "--blocks", blocks)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_malformed_input_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nnot a line with two ints here\n")
    code, _, err = run(capsys, "lambda", "--input", str(path))
    assert code == 2 or "error" in err  # ValueError surfaces as usage


@pytest.mark.parametrize("text", ["", "# a comment\n\n   \n"])
def test_input_without_graph_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "none.txt"
    path.write_text(text)
    for cmd in (["lambda"], ["free", "--patterns", "c5"], ["quotient", "--blocks", "0"]):
        code, _, err = run(capsys, *cmd, "--input", str(path))
        assert code == 2 and "none.txt" in err


def _largest_member(name):
    """Parameters and graph of the family member with the largest values
    (each at most 11) that has an edge and no isolated vertex, so an edge
    list names every vertex."""
    names = F.FAMILIES[name][1] or ("x", "y", "z")
    for values in product(range(11, 0, -1), repeat=len(names)):
        params = dict(zip(names, values))
        try:
            g = F.build(F.spec_from_params(name, params))
        except ValueError:
            continue
        if g.m and all(g.adj):
            return params, g
    raise AssertionError(name)


# members whose edge list would be a lone "# n vertices, 0 edges" comment
EDGELESS_MEMBERS = {"complete_bipartite": "a=1,b=0", "star": "n=1", "complete_split": "n=3,k=0"}


@pytest.mark.parametrize("name", sorted(F.FAMILIES))
def test_family_files_read_back_by_content(capsys, tmp_path, name):
    """`bht family` output in either format, also behind a comment and
    blank lines, reads back as the constructor's graph: the first content
    line decides the format.  An edge list that would not read back, as
    for an edgeless member, is refused with a usage error that names
    graph6, which does."""
    params, g = _largest_member(name)
    path = tmp_path / "g.txt"
    for fmt in ("edgelist", "graph6"):
        code, _, _ = run(capsys, "family", "--name", name, "--format", fmt, "--output", str(path),
                         "--params", ",".join(f"{k}={v}" for k, v in params.items()))
        assert code == 0
        assert cli._read_graph(str(path)) == g, fmt
        path.write_text("# a comment\n\n  \n" + path.read_text())
        assert cli._read_graph(str(path)) == g, fmt
    if name in EDGELESS_MEMBERS:
        params = EDGELESS_MEMBERS[name]
        g = F.build(F.spec_from_params(name, cli._parse_params(params)))
        argv = ["family", "--name", name, "--params", params, "--output", str(tmp_path / "e.txt")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.endswith("use --format graph6\n"), err
        assert not (tmp_path / "e.txt").exists()
        assert run(capsys, *argv, "--format", "graph6") == (0, "", "")
        assert cli._read_graph(str(tmp_path / "e.txt")) == g


@pytest.mark.parametrize("command", [["lambda"], ["free", "--patterns", "c5"],
                                     ["quotient", "--blocks", "0"]])
@pytest.mark.parametrize("fmt", ["auto", "edgelist", "graph6"])
def test_input_commands_take_no_format(capsys, tmp_path, command, fmt):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--input", str(path), "--format", fmt])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_every_declared_option_is_read():
    """Each subcommand's function reads every option the parser declares
    for it, as ``args.<dest>`` or as the dest string given to getattr, so a
    flag that nothing reads fails here."""
    (subparsers,) = (a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        for action in parser._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source or f'"{action.dest}"' in source, \
                    (command, action.dest)


def test_graph6_file_with_more_than_one_line_is_usage_error(capsys, tmp_path):
    path = tmp_path / "two.g6"
    path.write_text(">>graph6<<Dhc\n# C5, then K2\nA_\n")
    for cmd in (["lambda"], ["free", "--patterns", "c5"], ["quotient", "--blocks", "0"]):
        code, out, err = run(capsys, *cmd, "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: more than one graph6 line\n")


@pytest.mark.parametrize("text", ["Dhcxyz", "Dhd", "A`", "A~", "~??@", "0 1\n2 1000000000000"])
def test_input_that_is_not_a_graph_is_usage_error(capsys, tmp_path, text):
    """Trailing characters, nonzero padding bits, a long size prefix for a
    small graph, and a vertex past graph6's range: one error line each."""
    path = tmp_path / "g.txt"
    path.write_text(text + "\n")
    code, out, err = run(capsys, "lambda", "--input", str(path))
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_bad_edge_list_names_its_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n1 x\n")
    code, _, err = run(capsys, "lambda", "--input", str(path))
    assert code == 2 and "line 2" in err and "graph6" not in err


def test_poly_coeffs_flag_omits_the_root(capsys):
    args = ("poly", "--id", "split_pendant", "--m", "30", "--t", "2")
    code, out, _ = run(capsys, *args, "--coeffs", "--json")
    assert code == 0
    assert "largest_root" not in json.loads(out) and "bracket" not in json.loads(out)
    code, out, _ = run(capsys, *args, "--coeffs")
    assert code == 0 and "largest root" not in out
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--root"])
    assert exc.value.code == 2


def test_poly_command(capsys):
    code, out, _ = run(capsys, "poly", "--id", "split_pendant", "--m", "30",
                       "--t", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["27", "-27", "-30", "0", "1"]
    assert abs(payload["largest_root"] - 5.8175056127685) <= 1e-9
    code, _, _ = run(capsys, "poly", "--id", "cone_star_matching_even", "--m", "23")
    assert code == 2


@pytest.mark.parametrize("argv, reason", [
    (("bipartite_minus", "--m", "10"), "bipartite_minus needs --p"),
    (("split_pendant", "--m", "30", "--t", "2", "--r", "3"), "split_pendant takes no --r"),
    (("c5_extremal", "--m", "30", "--t", "2", "--p", "3"), "c5_extremal takes no --t, --p"),
])
def test_poly_parameter_errors_name_the_flag(capsys, argv, reason):
    code, out, err = run(capsys, "poly", "--id", *argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_crossover_command(capsys):
    code, out, _ = run(capsys, "crossover", "--pair", "even", "--range", "22:120", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["flips"] == [[72, 74]]
    code, out, _ = run(capsys, "crossover", "--pair", "odd", "--range", "23:121", "--json")
    assert json.loads(out)["flips"] == [[71, 73]]


def test_search_command(capsys):
    code, out, _ = run(capsys, "search", "--m", "9", "--forbid", "theta123", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["counts"]["enumerated"] > 0
    g = from_graph6(payload["maximizers"][0]["graph6"])
    assert brute_isomorphic(g, F.book(9))
    code, _, _ = run(capsys, "search", "--m", "10", "--forbid", "c5", "--exclude-book")
    assert code == 2  # no book at even size
    code, _, _ = run(capsys, "search", "--m", "13", "--forbid", "c5")
    assert code == 2  # cap guard


def test_search_reports_canonical_graphs(capsys):
    """Each maximizer's graph6 is the graph its canonical hex encodes, so
    the output does not depend on the order in which classes were met."""
    for m, forbid in (("8", "c5"), ("9", "theta123"), ("9", "theta122,theta123"), ("10", "c6")):
        code, out, _ = run(capsys, "search", "--m", m, "--forbid", forbid, "--json")
        assert code == 0
        maximizers = json.loads(out)["maximizers"]
        assert maximizers
        for entry in maximizers:
            assert from_graph6(entry["graph6"]) == graph_of_form(bytes.fromhex(entry["canonical"]))


def test_search_widen_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--m", "5", "--forbid", "c5", "--widen"])
    assert exc.value.code == 2


def test_search_above_the_cap_names_the_force_flag(capsys):
    code, out, err = run(capsys, "search", "--m", "13", "--forbid", "c5")
    msg = "error: m=13 exceeds the cap 12; pass --force (force=True) to override\n"
    assert (code, out, err) == (2, "", msg)


def test_search_cap_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--m", "6", "--forbid", "c5", "--cap", "8"])
    assert exc.value.code == 2


def test_search_ignores_config_file_and_cap_env(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bht.conf").write_text(f"cap = 5\ncache_dir = {tmp_path / 'conf'}\n")
    monkeypatch.setenv("BHT_SEARCH_CAP", "5")
    code, _, _ = run(capsys, "search", "--m", "6", "--forbid", "c5")
    assert code == 0
    assert not (tmp_path / "conf").exists()


def test_search_cache_dir_flag_beats_env(capsys, monkeypatch, tmp_path):
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("BHT_CACHE_DIR", str(env_dir))
    code, _, _ = run(capsys, "search", "--m", "6", "--forbid", "c5", "--cache-dir", str(flag_dir))
    assert code == 0
    assert len(list(flag_dir.glob("search_m6_*.json"))) == 1
    assert not env_dir.exists()


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--thm", "theta123", "--m", "9", "--json")
    assert code == 0
    assert json.loads(out.splitlines()[0])["status"] == "pass"
    code, out, _ = run(capsys, "verify", "--thm", "theta124", "--range", "21:22", "--json")
    assert code == 0  # not_claimed is not a failure
    assert json.loads(out.splitlines()[0])["status"] == "not_claimed"
    code, _, _ = run(capsys, "verify", "--thm", "wat", "--m", "9")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--thm", "theta123"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [("verify", "--thm", "theta123"), ("certify",)])
def test_size_flags_are_exclusive(capsys, command):
    """`verify` and `certify` take one size: --m or --range, not both."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--m", "9", "--range", "30:40"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_readme_commands_parse():
    """Each `bht` line of a README code block parses (argparse exits 2 on a
    stale flag), and README names no script: the commands do that work."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for block in text.split("```")[1::2] for line in block.splitlines()
             if line.startswith("bht ")]
    assert len(lines) > 15
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
    assert "scripts/" not in text


def test_verify_range_below_a_rival_claims_start(capsys):
    """A range wholly below c6_runner_up's start is a usage error; where
    another claim covers it, c6_runner_up reports not_claimed and runs no
    crossover scan, so it ends cleanly."""
    code, out, err = run(capsys, "verify", "--thm", "c6_runner_up", "--range", "5:6")
    assert (code, out) == (2, "") and err.startswith("error: no requested claim covers m=5..6")
    code, out, err = run(capsys, "verify", "--thm", "all", "--range", "20:21")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 10 and lines[-1].startswith("theta_pair_runner_up m=21: not_claimed")


def test_verify_sizes_no_requested_claim_covers_are_usage_errors(capsys):
    """Sizes that no requested claim covers exit 2 with one line naming
    each claim's first covered m; a range that one claim reaches reports
    the sizes below its start as not_claimed and exits 0."""
    code, out, err = run(capsys, "verify", "--thm", "c5_runner_up", "--range", "5:6")
    assert (code, out, err) == (
        2, "", "error: no requested claim covers m=5..6; c5_runner_up covers m >= 22\n")
    starts = ", ".join(f"{t} covers m >= {c.start}" for t, c in search.CLAIMS.items())
    code, out, err = run(capsys, "verify", "--thm", "all", "--m", "5")
    assert (code, out, err) == (2, "", f"error: no requested claim covers m=5; {starts}\n")
    code, out, err = run(capsys, "verify", "--thm", "c5_runner_up", "--range", "21:22")
    assert (code, err) == (0, "")
    assert [line.split("  ")[0] for line in out.splitlines()] == [
        "c5_runner_up m=21: not_claimed", "c5_runner_up m=22: pass"]


def test_verify_reads_cache_dir_from_env(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("BHT_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "verify", "--thm", "theta123", "--m", "9")
    assert code == 0
    assert len(list(tmp_path.glob("search_m9_*.json"))) == 1


def test_search_rejects_malformed_checkpoint(capsys, tmp_path):
    args = ("search", "--m", "7", "--forbid", "c5", "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    counts = json.loads(out)["counts"]
    (path,) = tmp_path.glob("search_m7_*.json")
    good = path.read_text()
    layer = next(iter(json.loads(good)))

    def edited(**fields):
        data = json.loads(good)
        data[layer].update(fields)
        return json.dumps(data)

    (g6,) = json.loads(good)[layer]["tied"]
    for bad in ("[]", json.dumps({"5": {"best": 1.0}}), good[: len(good) // 2],
                edited(tied=[1]), edited(enumerated="x"), edited(tied=["??"]),
                edited(tied=[[g6, "00", 1.0]])):
        path.write_text(bad)
        code, _, err = run(capsys, *args)
        assert code == 2, bad
        assert "corrupt checkpoint" in err and str(path) in err, err

    def tie(g):
        return to_graph6(graph_of_form(canonical_form(g)))

    # well-typed ties that this search could not have kept
    stored = from_graph6(g6)
    relabelled = next(h for h in (stored.relabel([*range(i, stored.n), *range(i)])
                                  for i in range(1, stored.n)) if h != stored)
    c5_chords = F.cycle(5).add_edge(0, 2).add_edge(0, 3)
    k4_k2 = disjoint_union(F.complete(4), F.complete(2))
    for bad, why in ((edited(tied=["@"]), "not a connected graph"),
                     (edited(tied=[tie(F.complete(5))]), "not a connected graph"),
                     (json.dumps({"6": {"tied": [tie(k4_k2)], "enumerated": 1, "free": 1}}),
                      "not a connected graph"),
                     (edited(tied=[to_graph6(relabelled)]), "canonical graph"),
                     (edited(tied=[tie(c5_chords)]), "not admissible")):
        path.write_text(bad)
        code, _, err = run(capsys, *args)
        assert code == 2, bad
        assert "corrupt checkpoint" in err and str(path) in err and why in err, err
    # the book is C5-free but excluded by --exclude-book
    code, _, _ = run(capsys, *args, "--exclude-book")
    assert code == 0
    (excl_path,) = set(tmp_path.glob("search_m7_*.json")) - {path}
    data = json.loads(excl_path.read_text())
    data[layer]["tied"] = [tie(F.book(7))]
    excl_path.write_text(json.dumps(data))
    code, _, err = run(capsys, *args, "--exclude-book")
    assert code == 2 and str(excl_path) in err and "not admissible" in err, err
    # a good checkpoint still resumes to the same report
    path.write_text(good)
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0 and json.loads(out)["counts"] == counts
    assert path.read_text() == good


def test_verify_range_reports_crossovers(capsys):
    code, out, _ = run(capsys, "verify", "--thm", "c6_runner_up",
                       "--range", "70:75", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    flips = [l for l in lines if "crossover" in l]
    assert any(l["flips"] == [[72, 74]] for l in flips)
    assert any(l["flips"] == [[71, 73]] for l in flips)


@pytest.mark.parametrize("command, text, reason", [
    ("verify", "30:20", "empty range"),
    ("crossover", "30:20", "empty range"),
    ("verify", "22", "bad range '22'; expected lo:hi"),
    ("verify", "22:x", "bad range '22:x'; expected lo:hi"),
    ("verify", "x:22", "bad range 'x:22'; expected lo:hi"),
    ("verify", "22:30:40", "bad range '22:30:40'; expected lo:hi"),
])
def test_range_errors_name_the_reason(capsys, command, text, reason):
    flag = ("--thm", "all") if command == "verify" else ("--pair", "even")
    code, out, err = run(capsys, command, *flag, "--range", text)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_certify_command(capsys):
    code, out, _ = run(capsys, "certify", "--m", "22", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert all(l["holds"] for l in lines)
    assert any(l["name"] == "split1_below_gate7" for l in lines)
    # the known violated orderings must drive a nonzero exit
    code, out, _ = run(capsys, "certify", "--m", "27", "--json")
    assert code == 1
    lines = [json.loads(l) for l in out.splitlines()]
    assert any(not l["holds"] for l in lines)
    code, _, _ = run(capsys, "certify", "--m", "10")
    assert code == 2
    code, out, err = run(capsys, "certify", "--m", "21", "--json")
    assert (code, out, err) == (2, "", "error: certificates start at m = 22\n")


def test_certify_range_is_the_per_m_runs(capsys):
    """`certify --range lo:hi` prints what the runs at each m print, in
    order: the same bytes in JSON, and under an `m=M` header per m in
    text.  It exits 1 iff some certificate is false."""
    runs = [run(capsys, "certify", "--m", str(m), "--json") for m in range(22, 121)]
    code, out, err = run(capsys, "certify", "--range", "22:120", "--json")
    assert (code, out, err) == (1, "".join(o for _, o, _ in runs), "")
    assert [c for c, _, _ in runs].count(1) > 0
    texts = [run(capsys, "certify", "--m", str(m)) for m in (25, 26)]
    assert all(c == 0 for c, _, _ in texts)
    code, out, err = run(capsys, "certify", "--range", "25:26")
    assert (code, out, err) == (0, "m=25\n" + texts[0][1] + "m=26\n" + texts[1][1], "")
    code, out, err = run(capsys, "certify", "--range", "26:27")
    assert code == 1 and out.startswith("m=26\n") and "\nm=27\n" in out
    code, out, err = run(capsys, "certify", "--range", "21:23", "--json")
    assert (code, out, err) == (2, "", "error: certificates start at m = 22\n")


# Runs in a fresh interpreter, since this suite has every module loaded
# already.  Builds the parser, runs the command given (if any), and prints
# its exit code, the bht modules then loaded and whether numpy is.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import bht.cli
bht.cli.build_parser()
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = bht.cli.main(argv)
bht_modules = sorted(m for m in sys.modules if m == "bht" or m.startswith("bht."))
print(json.dumps([code, bht_modules, "numpy" in sys.modules]))
"""


def test_exact_commands_start_without_numpy(tmp_path):
    """The parser loads no library module; each exact command loads the
    modules it runs and no numpy (``quotient`` reports λ off its exact
    quotient), and an eigen-solve loads numpy.  Above the search cap
    ``verify`` decides every claim exactly; at or below it, its oracle
    searches solve eigenvalues."""
    path = tmp_path / "book.txt"
    path.write_text("\n".join(f"{u} {v}" for u, v in F.book(9).edges()))
    base = ["bht", "bht.cli"]
    verify = [*base, "bht.families", "bht.forbidden", "bht.graphs", "bht.partition",
              "bht.polynomials", "bht.search"]
    expected = [
        ([], None, base, False),
        (["certify", "--m", "50"], 1, [*base, "bht.polynomials"], False),
        (["poly", "--id", "split_pendant", "--m", "30", "--t", "2"], 0,
         [*base, "bht.polynomials"], False),
        (["crossover", "--pair", "odd", "--range", "22:80"], 0,
         [*base, "bht.polynomials"], False),
        (["family", "--name", "book", "--params", "m=9", "--output", str(tmp_path / "out.txt")],
         0, [*base, "bht.families", "bht.graphs"], False),
        (["free", "--input", str(path), "--patterns", "c5,theta122"], 0,
         [*base, "bht.families", "bht.forbidden", "bht.graphs"], False),
        (["quotient", "--input", str(path), "--blocks", "0,1;2-5"], 0,
         [*base, "bht.families", "bht.graphs", "bht.partition", "bht.polynomials"], False),
        (["verify", "--thm", "all", "--m", "50"], 0, verify, False),
        # the controls: an eigen-solve loads numpy, so the probe can see it
        (["lambda", "--input", str(path)], 0, [*base, "bht.graphs", "bht.spectral"], True),
        (["verify", "--thm", "theta123", "--m", "9"], 0, [*verify, "bht.spectral"], True),
    ]
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for argv, *seen in expected:
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == seen, argv


def test_unknown_ids_are_usage_errors_naming_the_known_values(capsys):
    """An unknown polynomial id, crossover pair or theorem id exits 2 with
    one error line that lists the known values."""
    cases = [
        (["poly", "--id", "nope", "--m", "30"],
         f"unknown polynomial id 'nope'; known: {polynomials.POLY_IDS}"),
        (["crossover", "--pair", "nope", "--range", "22:80"],
         f"unknown crossover pair 'nope'; known: {tuple(polynomials.CROSSOVER)}"),
        (["verify", "--thm", "nope", "--m", "30"],
         f"unknown theorem id 'nope'; known: {search.THEOREM_IDS}"),
    ]
    for argv, msg in cases:
        assert run(capsys, *argv) == (2, "", f"error: {msg}\n"), argv


PIN_SIZES = (22, 23, 40, 41, 120)
# the parameter values tried for each polynomial id and reference partition
# that takes one; values out of range at a size are skipped
POLY_PARAMS = {"split_pendant": [{"t": t} for t in range(1, 8)],
               "cone_star_edge": [{"r": r} for r in range(3, 9)],
               "bipartite_minus": [{"p": p} for p in range(2, 12)],
               "bipartite_plus": [{"p": p} for p in range(2, 12)]}


def _exact_cli_records(capsys, tmp_path):
    """[command, exit code, stdout, stderr] of `poly` for every id and
    parameter at each pin size, plain, --json and --coeffs, and of
    `quotient --json` on every reference partition at those sizes."""
    for m in PIN_SIZES:
        for poly_id in polynomials.POLY_IDS:
            for params in POLY_PARAMS.get(poly_id, [{}]):
                try:
                    polynomials.instantiate(poly_id, m, **params)
                except ValueError:
                    continue
                argv = ["poly", "--id", poly_id, "--m", str(m)]
                argv += [f"--{k}={v}" for k, v in params.items()]
                for extra in ([], ["--json"], ["--coeffs"]):
                    yield [argv + extra, *run(capsys, *argv, *extra)]
    path = tmp_path / "g.g6"
    for m in PIN_SIZES:
        for entry, build in sorted(partition.REFERENCE_PARTITIONS.items()):
            for params in POLY_PARAMS.get(entry, [{}]):
                try:
                    g, blocks = build(m, **params)
                except ValueError:
                    continue
                path.write_text(to_graph6(g) + "\n")
                code, out, err = run(capsys, "quotient", "--input", str(path), "--blocks",
                                     ";".join(",".join(map(str, b)) for b in blocks), "--json")
                yield [["quotient", entry, m, params], code, json.loads(out), err]


# (record count, sha256 of the records as JSON lines)
EXACT_CLI_PIN = (403, "9bf780a3669da56146e516c98cf2fef15833035b4bee0014cc004ab338775cf8")


def test_exact_layer_cli_output_is_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    count = 0
    for record in _exact_cli_records(capsys, tmp_path):
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == EXACT_CLI_PIN
