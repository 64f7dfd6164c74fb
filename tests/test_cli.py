import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from majdim import (
    Profile,
    VerifyReport,
    build,
    from_edge_list,
    cycle,
    majority_margin,
    path,
    realize_path,
    realizer_from_json,
    realizer_to_json,
    subset_family,
    to_edge_list,
    verify,
)
from majdim import cli, constructions, realizer, solver
from majdim.cli import _sweep_row, _sweep_rows, main

from helpers import all_labeled_digraphs, brute_canonical_code, converse, converse_class_code

try:
    import resource
except ImportError:  # not on every platform
    resource = None


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_exit(capsys, *argv):
    """Like run, but argparse rejections (SystemExit) count as exit codes."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_gen_emits_edge_list(capsys):
    code, out, _ = run(capsys, "gen", "path", "3")
    assert code == 0
    assert from_edge_list(out) == path(3)


def test_gen_wrong_parameter_count_exits_two(capsys):
    code, _, err = run(capsys, "gen", "path", "1", "2")
    assert code == 2 and "parameter" in err


def test_gen_dot_flag(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "3", "--dot")
    assert code == 0
    assert out.startswith("digraph") and "2 -> 0" in out


def test_verify_valid_realizer(capsys, tmp_path):
    g = write(tmp_path, "p3.txt", to_edge_list(path(3)))
    r = write(tmp_path, "p3.json", '{"d": 3, "vectors": {"0": [1,2,3], "1": [3,1,2], "2": [2,0,3]}}')
    code, out, _ = run(capsys, "verify", g, r)
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_verify_invalid_realizer_exits_one(capsys, tmp_path):
    g = write(tmp_path, "p3.txt", to_edge_list(path(3)))
    r = write(tmp_path, "bad.json", '{"d": 2, "vectors": {"0": [2,2], "1": [1,1], "2": [0,0]}}')
    code, out, _ = run(capsys, "verify", g, r)
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False and payload["violations"]


def test_verify_malformed_edge_list_exits_two(capsys, tmp_path):
    g = write(tmp_path, "bad.txt", "not a number\n")
    r = write(tmp_path, "r.json", '{"d": 0, "vectors": {}}')
    code, _, err = run(capsys, "verify", g, r)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("verify", '{"d": 1, "vectors": {"0": [1.7], "1": [1.2]}}'),
        ("verify", '{"d": 1, "vectors": {"0": ["a"], "1": [1]}}'),
        ("verify", '{"d": "x", "vectors": {"0": [2], "1": [1]}}'),
        ("profile", '{"alternatives": 2, "voters": [[1.5, 1]]}'),
        ("profile", '{"alternatives": 2, "voters": [["abc", 1]]}'),
        ("verify", '{"d": 1, "vectors": {"0": [2], "0": [0], "1": [1]}}'),
        ("profile", '{"alternatives": 2, "voters": [[2, 1]], "voters": [[1, 2]]}'),
        # Longer than int() converts (sys.get_int_max_str_digits()).
        ("verify", '{"d": 1, "vectors": {"0": [' + "9" * 5000 + '], "1": [1]}}'),
        ("profile", '{"alternatives": 2, "voters": [[1, ' + "9" * 5000 + ']]}'),
    ],
    ids=["float-coordinate", "string-coordinate", "string-d", "float-rank", "string-rank",
         "repeated-vertex-key", "repeated-voters-key", "long-coordinate", "long-rank"],
)
def test_non_integer_json_values_exit_two(capsys, tmp_path, command, text):
    data = write(tmp_path, "data.json", text)
    if command == "verify":
        argv = ["verify", write(tmp_path, "arc.txt", "2\n0 1\n"), data]
    else:
        argv = ["profile", "digraph", data]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "{g}", "--budget", "-5"],
        ["dim", "{g}", "--max-d", "-1"],
        ["sweep", "3", "--budget", "-1"],
        ["sweep", "3", "--max-d", "-1"],
    ],
)
def test_negative_budget_or_max_d_exits_two(capsys, tmp_path, argv):
    g = write(tmp_path, "p3.txt", to_edge_list(path(3)))
    code, err = run_exit(capsys, *[a.format(g=g) for a in argv])
    assert code == 2 and "nonnegative" in err


@pytest.mark.parametrize(
    "argv, files",
    [
        (["condense", "{g}"], {"g": "1_0\n0 1\n"}),
        (["dim", "{g}"], {"g": "3\n\u0661 2\n"}),
        (["es", "{p}"], {"p": "\u0661 5\n2 4\n"}),
        (["es", "{p}"], {"p": "1 5\n2 4_0\n"}),
        (["gen", "path", "\u0663"], {}),
        (["gen", "path", "3_0"], {}),
        (["realize", "path", "\u0663"], {}),
        (["sweep", "\u0663"], {}),
        (["sweep", " 3"], {}),
        (["dim", "{g}", "--budget", "1_000"], {"g": "2\n0 1\n"}),
        (["dim", "{g}", "--max-d", "\u0663"], {"g": "2\n0 1\n"}),
        (["sweep", "2", "--budget", "\uff15"], {}),
    ],
    ids=["condense-underscore-count", "dim-arabic-indic-arc", "es-arabic-indic-point",
         "es-underscore-point", "gen-arabic-indic", "gen-underscore", "realize-arabic-indic",
         "sweep-arabic-indic", "sweep-space", "budget-underscore", "max-d-arabic-indic",
         "budget-fullwidth"],
)
def test_integers_are_ascii_decimal_only(capsys, tmp_path, argv, files):
    paths = {name: write(tmp_path, f"{name}.txt", text) for name, text in files.items()}
    code, err = run_exit(capsys, *[a.format(**paths) for a in argv])
    assert code == 2 and "Traceback" not in err


def test_signed_and_zero_padded_integers_still_read(capsys, tmp_path):
    g = write(tmp_path, "p3.txt", "+3\n0 01\n1 2\n")
    code, out, _ = run(capsys, "dim", g, "--max-d", "+3")
    assert code == 0 and json.loads(out)["dimension"] == 3
    code, out, _ = run(capsys, "gen", "path", "+03")
    assert code == 0 and from_edge_list(out) == path(3)
    pts = write(tmp_path, "pts.txt", "-1 +5\n2 4\n")
    code, out, _ = run(capsys, "es", pts)
    assert code == 0 and json.loads(out)["witness"] == [[-1, 5], [2, 4]]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["profile", "margin"], '{"alternatives": 100000000000000000000, "voters": []}'),
        (["profile", "digraph"], '{"alternatives": 100000000000000000000, "voters": []}'),
        (["profile", "to-realizer"], '{"alternatives": 100000000000000000000, "voters": []}'),
        (["profile", "from-realizer"], '{"d": 100000000000000000000, "vectors": {}}'),
        (["verify", "{g}"], '{"d": 100000000000000000000, "vectors": {}}'),
        (["profile", "margin"], '{"alternatives": 9223372036854775808, "voters": []}'),
        (["profile", "margin"], '{"alternatives": 1000000000000000, "voters": []}'),
        (["profile", "margin"], f'{{"alternatives": {sys.maxsize}, "voters": []}}'),
    ],
    ids=["margin", "digraph", "to-realizer", "from-realizer", "verify", "margin-2**63",
         "margin-10**15", "margin-maxsize"],
)
def test_counts_beyond_any_sequence_exit_two(capsys, tmp_path, argv, text):
    g = write(tmp_path, "g.txt", "0\n")
    data = write(tmp_path, "data.json", text)
    code, out, err = run(capsys, *[a.format(g=g) for a in argv], data)
    assert code == 2 and out == ""
    assert "exceeds sys.maxsize" in err and "Traceback" not in err


def test_profile_negative_alternative_count_exits_two(capsys, tmp_path):
    data = write(tmp_path, "data.json", '{"alternatives": -1, "voters": []}')
    assert run(capsys, "profile", "margin", data) == (
        2, "", f"error: {data}: negative alternative count -1\n")


def test_profile_digraph_without_voters_allocates_nothing_per_alternative(tmp_path):
    data = write(tmp_path, "none.json", '{"alternatives": 10000000, "voters": []}')
    script = (
        "import resource, sys\n"
        "import majdim.cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "rc = majdim.cli.main(['profile', 'digraph', sys.argv[1]])\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(rc, grown, file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", script, data], capture_output=True, text=True)
    assert out.stdout == '{"n": 10000000, "arcs": []}\n'
    rc, grown_kb = map(int, out.stderr.split())
    # One lane or one tuple per alternative would be tens of MB at this count.
    assert rc == 0 and grown_kb < 4096


_LOAD_PROBE = (
    "import contextlib, io, json, sys\n"
    "from majdim.cli import main\n"
    "loaded = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = main(argv)\n"
    "    loaded.append([code, 'majdim.deciders' in sys.modules])\n"
    "print(json.dumps(loaded))\n"
)


def test_only_dimension_commands_load_the_deciders(tmp_path):
    # Constructions, verification and profiles never compile the matcher,
    # the obstruction table or the rules; `dim` and `sweep` load them.
    g = write(tmp_path, "g.txt", to_edge_list(path(3)))
    r = write(tmp_path, "r.json", realizer_to_json(realize_path(3)))
    p = write(tmp_path, "p.json", '{"alternatives": 3, "voters": [[3,2,1],[1,3,2],[2,1,3]]}')
    pts = write(tmp_path, "pts.txt", "1 5\n2 4\n3 3\n")
    methods = cli._COMMANDS["realize"][2][0][1]["choices"]
    subcommands = cli._COMMANDS["profile"][2][0][1]["choices"]
    light = [["gen", "path", "3"], ["verify", g, r], ["condense", g], ["es", pts],
             *(["realize", m, "3"] for m in ("path", "cycle", "tournament", "empty")),
             *(["realize", m, "-d", g] for m in ("generic", "condense-lift")),
             ["realize", "union", "-d", g, "-d", g],
             *(["profile", sub, r if sub == "from-realizer" else p] for sub in subcommands)]
    loaders = [["dim", g], ["sweep", "2"]]
    assert sorted(argv[1] for argv in light if argv[0] == "realize") == sorted(methods)
    assert {argv[0] for argv in light + loaders} == set(cli._COMMANDS)

    def probe(corpus):
        out = subprocess.run([sys.executable, "-c", _LOAD_PROBE, json.dumps(corpus)],
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    assert probe(light) == [[0, False]] * len(light)
    for argv in loaders:
        assert probe([argv]) == [[0, True]], argv


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize(
    "argv, name, text",
    [
        (["profile", "margin"], "big.json", '{"alternatives": 1000000000, "voters": []}'),
        (["profile", "to-realizer"], "big.json", '{"alternatives": 1000000000, "voters": []}'),
        (["dim"], "big.txt", "1000000000\n"),
    ],
    ids=["profile-margin", "profile-to-realizer", "dim"],
)
def test_out_of_memory_exits_two(tmp_path, argv, name, text):
    data = write(tmp_path, name, text)

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = subprocess.run([sys.executable, "-m", "majdim.cli", *argv, data],
                         capture_output=True, text=True, preexec_fn=cap_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "error: out of memory\n")


# Every command that reads files, with a well-formed file in each file slot.
GOOD_FILES = {
    "graph.txt": to_edge_list(path(3)),
    "realizer.json": '{"d": 3, "vectors": {"0": [1,2,3], "1": [3,1,2], "2": [2,0,3]}}',
    "profile.json": '{"alternatives": 3, "voters": [[3,2,1],[1,3,2],[2,1,3]]}',
    "points.txt": "1 5\n2 4\n",
}
FILE_COMMANDS = [
    ["verify", "graph.txt", "realizer.json"],
    ["dim", "graph.txt"],
    ["condense", "graph.txt"],
    ["realize", "generic", "-d", "graph.txt"],
    ["realize", "union", "-d", "graph.txt", "-d", "graph.txt"],
    ["realize", "condense-lift", "-d", "graph.txt"],
    ["profile", "margin", "profile.json"],
    ["profile", "digraph", "profile.json"],
    ["profile", "to-realizer", "profile.json"],
    ["profile", "from-realizer", "realizer.json"],
    ["es", "points.txt"],
]


@pytest.mark.parametrize(
    "argv, slot",
    [(argv, i) for argv in FILE_COMMANDS for i, arg in enumerate(argv) if arg in GOOD_FILES],
    ids=lambda x: " ".join(x) if isinstance(x, list) else f"slot{x}",
)
def test_non_utf8_file_exits_two(capsys, tmp_path, argv, slot):
    for name, text in GOOD_FILES.items():
        write(tmp_path, name, text)
    paths = [str(tmp_path / arg) if arg in GOOD_FILES else arg for arg in argv]
    assert run(capsys, *paths)[0] == 0
    bad = tmp_path / "bin.txt"
    bad.write_bytes(b"\xff\xfe")
    paths[slot] = str(bad)
    code, out, err = run(capsys, *paths)
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err


def test_verify_missing_file_exits_two(capsys, tmp_path):
    r = write(tmp_path, "r.json", '{"d": 0, "vectors": {}}')
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"), r)
    assert code == 2


@pytest.mark.parametrize("family", ["path", "cycle", "tournament", "empty"])
@pytest.mark.parametrize("n", range(3, 13))
def test_realize_then_verify_roundtrip(capsys, tmp_path, family, n):
    code, out, _ = run(capsys, "gen", family, str(n))
    assert code == 0
    g = write(tmp_path, "d.txt", out)
    code, out, _ = run(capsys, "realize", family, str(n))
    assert code == 0
    r = write(tmp_path, "r.json", out)
    code, out, _ = run(capsys, "verify", g, r)
    assert code == 0, out


def test_realize_generic_from_file(capsys, tmp_path):
    g = write(tmp_path, "c3.txt", to_edge_list(cycle(3)))
    code, out, _ = run(capsys, "realize", "generic", "--digraph", g)
    assert code == 0
    f = realizer_from_json(out)
    assert f.d == 6
    assert verify(cycle(3), f).valid


def test_realize_union_from_files(capsys, tmp_path):
    a = write(tmp_path, "a.txt", to_edge_list(path(3)))
    b = write(tmp_path, "b.txt", to_edge_list(cycle(3)))
    code, out, _ = run(capsys, "realize", "union", "-d", a, "-d", b)
    assert code == 0
    f = realizer_from_json(out)
    combined = from_edge_list("6\n0 1\n1 2\n3 4\n4 5\n5 3\n")
    assert verify(combined, f).valid


def test_realize_condense_lift(capsys, tmp_path):
    g = write(tmp_path, "d.txt", "3\n0 1\n0 2\n")
    code, out, _ = run(capsys, "realize", "condense-lift", "-d", g)
    assert code == 0
    f = realizer_from_json(out)
    assert verify(from_edge_list("3\n0 1\n0 2\n"), f).valid
    assert f.vectors[1] == f.vectors[2]


def test_realize_rejects_bad_params(capsys):
    code, _, err = run(capsys, "realize", "cycle", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["path"], "realize path takes exactly one parameter n"),
        (["cycle", "3", "4"], "realize cycle takes exactly one parameter n"),
        (["tournament"], "realize tournament takes exactly one parameter n"),
        (["empty", "1", "2"], "realize empty takes exactly one parameter n"),
        (["generic", "3", "-d", "g.txt"], "realize generic takes digraph files, not parameters"),
        (["union", "3"], "realize union takes digraph files, not parameters"),
        (["generic"], "realize generic needs at least one --digraph file"),
        (["union"], "realize union needs at least one --digraph file"),
        (["condense-lift"], "realize condense-lift needs at least one --digraph file"),
        (["union", "-d", "g.txt"], "realize union needs at least two --digraph files"),
        (["generic", "-d", "g.txt", "-d", "g.txt"],
         "realize generic takes exactly one --digraph file"),
        (["condense-lift", "-d", "g.txt", "-d", "g.txt"],
         "realize condense-lift takes exactly one --digraph file"),
        *((argv, f"realize {argv[0]} takes one parameter n, not --digraph files")
          for argv in (["path", "3", "-d", "missing.txt"], ["cycle", "3", "-d", "g.txt"],
                       ["tournament", "3", "-d", "g.txt"], ["empty", "3", "-d", "g.txt"],
                       ["path", "-d", "g.txt"])),
    ],
)
def test_realize_argument_errors_exit_two(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "g.txt", to_edge_list(path(3)))
    assert run(capsys, "realize", *argv) == (2, "", f"error: {message}\n")


def test_dim_path3(capsys, tmp_path):
    g = write(tmp_path, "p3.txt", to_edge_list(path(3)))
    code, out, _ = run(capsys, "dim", g)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert [row["d"] for row in payload["per_d"]] == [0, 1, 2, 3]


def test_dim_cycle3(capsys, tmp_path):
    g = write(tmp_path, "c3.txt", to_edge_list(cycle(3)))
    code, out, _ = run(capsys, "dim", g)
    assert code == 0
    assert json.loads(out)["dimension"] == 3


def test_dim_transitive_tournament(capsys, tmp_path):
    g = write(tmp_path, "d.txt", "3\n0 1\n2 1\n0 2\n")
    code, out, _ = run(capsys, "dim", g)
    assert json.loads(out)["dimension"] == 1 and code == 0


def test_dim_budget_exhaustion_exits_one(capsys, tmp_path):
    # No rule settles subset_family(3, 1) at d = 3, and 3 nodes finish neither
    # its obstruction scan nor a search.
    g = write(tmp_path, "s31.txt", to_edge_list(subset_family(3, 1)))
    code, out, _ = run(capsys, "dim", g, "--budget", "3")
    assert code == 1
    payload = json.loads(out)
    assert "unknown" in payload
    assert payload["unknown"]["lower"] <= payload["unknown"]["upper"]


_S41_HEAD = ('{"d": 0, "verdict": "not_realizable", "nodes": 0, "reason": "empty"}, '
             '{"d": 1, "verdict": "not_realizable", "nodes": 0, "reason": "condensed_tournament"}, ')
_S41_OBSTRUCTED = ''.join(
    f'{{"d": {d}, "verdict": "not_realizable", "nodes": {nodes}, "reason": "obstruction", '
    '"obstruction": "subset_family(4, 1)", "vertices": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}, '
    for d, nodes in ((2, 10), (3, 0)))
_S41_CLIMB = {
    0: (1, '{"unknown": {"lower": 2, "upper": 4}, "per_d": [' + _S41_HEAD
        + '{"d": 2, "verdict": "budget_exceeded", "nodes": 0, "reason": "search"}]}\n'),
    5: (1, '{"unknown": {"lower": 2, "upper": 4}, "per_d": [' + _S41_HEAD
        + '{"d": 2, "verdict": "budget_exceeded", "nodes": 5, "reason": "search"}]}\n'),
    44: (1, '{"unknown": {"lower": 4, "upper": 4}, "per_d": [' + _S41_HEAD + _S41_OBSTRUCTED
         + '{"d": 4, "verdict": "budget_exceeded", "nodes": 44, "reason": "search"}]}\n'),
    50: (0, '{"dimension": 4, "per_d": [' + _S41_HEAD + _S41_OBSTRUCTED
         + '{"d": 4, "verdict": "realizable", "nodes": 0, "reason": "ceiling"}]}\n'),
    1000: (0, '{"dimension": 4, "per_d": [' + _S41_HEAD + _S41_OBSTRUCTED
           + '{"d": 4, "verdict": "realizable", "nodes": 0, "reason": "ceiling"}]}\n'),
}


@pytest.mark.parametrize("budget", sorted(_S41_CLIMB))
def test_dim_climb_where_each_search_runs_out_is_pinned(capsys, tmp_path, budget):
    # On subset_family(4, 1) the obstruction scan needs 10 matcher nodes.
    # Budget 5 stops it short, so d = 2 goes to the search, which stops at
    # 5; budget 44 finds the copy, excluding d = 2 and 3, and the d = 4
    # search stops at 44.  At every budget the upper bound is the ceiling,
    # 2 * #forests = 4.  From budget 45 on, its 45 vertex pairs fit, so
    # the verified ceiling answers d = 4 unsearched.
    code, text, _ = run(capsys, "gen", "subset-family", "4", "1")
    assert code == 0
    g = write(tmp_path, "s41.txt", text)
    assert run(capsys, "dim", g, "--budget", str(budget)) == (*_S41_CLIMB[budget], "")


@pytest.mark.parametrize("family", ["cycle", "path"])
def test_dim_on_a_long_path_or_cycle_is_bounded_by_its_ceiling(capsys, tmp_path, family):
    # 20000 vertices have too many pairs to verify within the default
    # budget, so the ceiling rule passes, yet the family's width is still
    # the upper bound.  The d = 4 space of 20000^4 vectors is never built.
    code, text, _ = run(capsys, "gen", family, "20000")
    assert code == 0
    g = write(tmp_path, "g.txt", text)
    start = time.perf_counter()
    code, out, _ = run(capsys, "dim", g)
    assert time.perf_counter() - start < 1.0
    payload = json.loads(out)
    assert code == 1 and payload["unknown"] == {"lower": 4, "upper": 4}
    assert payload["per_d"][-1] == {"d": 4, "verdict": "budget_exceeded", "nodes": 0,
                                    "reason": "search"}


def test_sweeps_pack_no_star_forests(capsys, monkeypatch):
    # A sweep searches every level and reads the ceiling only as the upper
    # bound of a row the search leaves unknown, so a full sweep packs none.
    calls = []
    real = constructions.star_forests

    def counting(D):
        calls.append(D)
        return real(D)

    monkeypatch.setattr(constructions, "star_forests", counting)
    for argv in (["sweep", "4"], ["sweep", "4", "--dedup"]):
        assert run(capsys, *argv)[0] == 0
    assert calls == []
    assert run(capsys, "sweep", "3", "--budget", "3")[0] == 0
    assert calls


def test_realize_cycle_verifies_once(capsys, monkeypatch):
    # realize_cycle takes the matrix rows without cycle_matrix's re-check,
    # so the command's own check of its witness is the only full verify.
    sizes = []
    real = realizer.verify

    def counting(D, f):
        sizes.append(D.n)
        return real(D, f)

    for module in (realizer, constructions, cli):
        monkeypatch.setattr(module, "verify", counting)
    assert run(capsys, "realize", "cycle", "600")[0] == 0
    assert sizes == [600]
    constructions.cycle_matrix(600)
    assert sizes == [600, 600]


def test_dim_ignores_env_budget(capsys, tmp_path, monkeypatch):
    # the node budget is set by --budget alone
    monkeypatch.setenv("MAJDIM_BUDGET", "3")
    g = write(tmp_path, "p3.txt", to_edge_list(path(3)))
    code, out, _ = run(capsys, "dim", g)
    assert code == 0 and json.loads(out)["dimension"] == 3


def test_dim_beyond_search_space_limit_reports_bounds(capsys, tmp_path):
    # A matching on 2001 vertices plus a directed two-path on three more:
    # transitivity excludes d = 2, no rule settles d = 3, whose space
    # holds 2004^3 > 4,000,000 vectors, and the ceiling is 4.
    arcs = [(2 * i, 2 * i + 1) for i in range(1000)] + [(2001, 2002), (2002, 2003)]
    g = write(tmp_path, "m2004.txt", to_edge_list(build(2004, arcs)))
    start = time.perf_counter()
    code, out, err = run(capsys, "dim", g)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["unknown"] == {"lower": 3, "upper": 4}
    assert payload["per_d"][-1] == {"d": 3, "verdict": "budget_exceeded", "nodes": 0,
                                    "reason": "search"}


def test_dim_long_path_is_four_without_search(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "path", "2001")
    g = write(tmp_path, "p2001.txt", out)
    start = time.perf_counter()
    code, out, err = run(capsys, "dim", g)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert json.loads(out)["dimension"] == 4


# `majdim dim` stdout: which rule settles each level, and at what cost.
DIM_JSON = {
    "path": '{"dimension": 4, "per_d": ['
            '{"d": 0, "verdict": "not_realizable", "nodes": 0, "reason": "empty"}, '
            '{"d": 1, "verdict": "not_realizable", "nodes": 0, "reason": "condensed_tournament"}, '
            '{"d": 2, "verdict": "not_realizable", "nodes": 0, "reason": "transitivity"}, '
            '{"d": 3, "verdict": "not_realizable", "nodes": 6, "reason": "obstruction", '
            '"obstruction": "path(6)", "vertices": [0, 1, 2, 3, 4, 5]}, '
            '{"d": 4, "verdict": "realizable", "nodes": 0, "reason": "ceiling"}]}\n',
    "cycle": '{"dimension": 4, "per_d": ['
             '{"d": 0, "verdict": "not_realizable", "nodes": 0, "reason": "empty"}, '
             '{"d": 1, "verdict": "not_realizable", "nodes": 0, "reason": "condensed_tournament"}, '
             '{"d": 2, "verdict": "not_realizable", "nodes": 0, "reason": "transitivity"}, '
             '{"d": 3, "verdict": "not_realizable", "nodes": 60, "reason": "obstruction", '
             '"obstruction": "cycle(6)", "vertices": [0, 1, 2, 3, 4, 5]}, '
             '{"d": 4, "verdict": "realizable", "nodes": 0, "reason": "ceiling"}]}\n',
}


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_dim_json_is_pinned(capsys, tmp_path, family):
    code, out, _ = run(capsys, "gen", family, "6")
    g = write(tmp_path, f"{family}6.txt", out)
    code, out, _ = run(capsys, "dim", g)
    assert code == 0 and out == DIM_JSON[family]


def test_condense_json(capsys, tmp_path):
    g = write(tmp_path, "d.txt", "3\n0 1\n0 2\n")
    code, out, _ = run(capsys, "condense", g)
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == 2
    assert payload["condensed"]["arcs"] == [[0, 1]]
    assert payload["class_of"] == {"0": 0, "1": 1, "2": 1}


def test_condense_dot(capsys, tmp_path):
    g = write(tmp_path, "d.txt", "3\n0 1\n0 2\n")
    code, out, _ = run(capsys, "condense", g, "--dot")
    assert code == 0 and out.startswith("digraph")


def test_sweep_two_vertices(capsys):
    code, out, _ = run(capsys, "sweep", "2")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    assert [r["dimension"] for r in rows] == [0, 1, 1]
    assert summary["rows"] == 3 and summary["unknown_rows"] == 0
    assert all(v for k, v in summary.items() if k.startswith("dim"))


def test_sweep_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "sweep", "3")
    code2, out2, _ = run(capsys, "sweep", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 27 + 1  # rows plus summary
    rows = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    counts = Counter(str(r["dimension"]) for r in rows)
    assert summary["histogram"] == dict(counts)
    assert sum(summary["histogram"].values()) == summary["rows"]


def test_sweep_dedup_counts_isomorphism_classes(capsys):
    code, out, _ = run(capsys, "sweep", "3", "--dedup")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) - 1 == 7  # classes on 3 vertices


def _code(D):
    return ";".join(f"{u}>{v}" for u, v in D.sorted_arcs())


def _from_code(n, code):
    return build(n, [tuple(map(int, arc.split(">"))) for arc in code.split(";") if arc])


def _recorded_rows(monkeypatch, n, dedup):
    """The rows of one walk, and the (code, digraph) of each `_sweep_row` call."""
    searched = []

    def recording_row(D, code, budget, max_d):
        searched.append((code, D))
        return _sweep_row(D, code, budget, max_d)

    monkeypatch.setattr(cli, "_sweep_row", recording_row)
    return list(_sweep_rows(n, dedup, solver.DEFAULT_BUDGET, None)), searched


@pytest.mark.parametrize("n, classes", [(0, 1), (1, 1), (2, 2), (3, 7), (4, 42)])
def test_sweep_digraphs_match_brute_force(monkeypatch, n, classes):
    labeled = list(all_labeled_digraphs(n))
    first_of_class = {}
    first_of_pair = {}  # of each class together with its converse class
    for D in labeled:
        first_of_class.setdefault(brute_canonical_code(D), D)
        first_of_pair.setdefault(converse_class_code(D), D)
    assert len(first_of_class) == classes

    # The plain walk reports every labeled digraph under its own code, in
    # order, but searches only the first member of each class and its
    # converse class: every row is settled at the default budget.
    rows, searched = _recorded_rows(monkeypatch, n, False)
    assert all(row.dimension is not None for row in rows)
    assert [row.digraph_code for row in rows] == [_code(D) for D in labeled]
    assert searched == [(_code(D), D) for D in first_of_pair.values()]

    rows, searched = _recorded_rows(monkeypatch, n, True)
    assert searched == [(brute_canonical_code(D), D) for D in first_of_pair.values()]
    assert [row.digraph_code for row in rows] == list(first_of_class)


@pytest.mark.parametrize("n", range(5))
def test_sweep_rows_match_direct_search_of_every_labeled_digraph(n):
    rows = list(_sweep_rows(n, False, solver.DEFAULT_BUDGET, None))
    assert rows == [
        _sweep_row(D, _code(D), solver.DEFAULT_BUDGET, None) for D in all_labeled_digraphs(n)
    ]


@pytest.mark.parametrize("argv", [["sweep", "4"], ["sweep", "4", "--dedup"]])
def test_sweep_searches_each_isomorphism_class_once(capsys, monkeypatch, argv):
    calls = []
    real_dimension = solver.dimension

    def counting_dimension(*args, **kwargs):
        calls.append(args[0])
        return real_dimension(*args, **kwargs)

    monkeypatch.setattr(solver, "dimension", counting_dimension)
    assert run(capsys, *argv)[0] == 0
    # 42 classes, 18 of them self-converse: one search per converse pair.
    assert len(calls) == 30
    assert len({converse_class_code(D) for D in calls}) == 30


@pytest.mark.parametrize("n, dedup, rows, searches", [
    (0, True, 1, 1), (1, True, 1, 1), (2, True, 2, 2), (3, True, 7, 6), (4, True, 42, 30),
    (5, True, 582, 342), (4, False, 729, 30)])
def test_sweep_searches_one_class_per_converse_pair(monkeypatch, n, dedup, rows, searches):
    # On n vertices, (classes + self-converse classes) / 2 converse pairs.
    walked, searched = _recorded_rows(monkeypatch, n, dedup)
    assert (len(walked), len(searched)) == (rows, searches)


def test_sweep_mirrored_rows_match_their_own_search(monkeypatch):
    # Each of the 240 classes of `sweep 5 --dedup` that take their
    # converse's row gets the row that searching it would give.
    rows, searched = _recorded_rows(monkeypatch, 5, True)
    searched_codes = {code for code, _ in searched}
    mirrored = [row for row in rows if row.digraph_code not in searched_codes]
    assert len(mirrored) == 582 - 342
    for row in mirrored:
        D = _from_code(5, row.digraph_code)
        assert _sweep_row(D, row.digraph_code, solver.DEFAULT_BUDGET, None) == row


def _serial_rows(monkeypatch):
    """Stub `_sweep_row` so that a row's dimension is the serial number of
    the search that made it, and collect the searched digraphs."""
    searched = []

    def serial_row(D, code, budget, max_d):
        searched.append(D)
        return cli.SweepRow(code, D.n, len(D.arcs), len(searched), 0, 0, False, False, False)

    monkeypatch.setattr(cli, "_sweep_row", serial_row)
    return searched


@pytest.mark.parametrize("n", range(5))
def test_sweep_walk_classes_are_isomorphism_classes(monkeypatch, n):
    # A later member carries the row, hence the serial, of the search its
    # class index points at, and a class whose converse came first carries
    # that class's serial: the stub settles every row.
    _serial_rows(monkeypatch)
    rows = list(_sweep_rows(n, False, solver.DEFAULT_BUDGET, None))
    canon = [converse_class_code(D) for D in all_labeled_digraphs(n)]
    assert len(rows) == len(canon) == 3 ** (n * (n - 1) // 2)
    for (a, ca), (b, cb) in itertools.combinations(zip(rows, canon), 2):
        assert (a.dimension == b.dimension) == (ca == cb), (a.digraph_code, b.digraph_code)


def test_sweep_dedup_code_is_the_least_sorted_image_arc_list(monkeypatch):
    # A mirrored class is coded by its own least image, not its converse's.
    searched = _serial_rows(monkeypatch)
    rows = list(_sweep_rows(5, True, solver.DEFAULT_BUDGET, None))
    assert len(rows) == 582 and len(searched) == 342
    for row in rows:
        D = _from_code(5, row.digraph_code)
        least = min(sorted((p[u], p[v]) for u, v in D.arcs)
                    for p in itertools.permutations(range(5)))
        assert row.digraph_code == _code(build(5, least))


def test_sweep_five_dedup_walk_stays_small(monkeypatch):
    # Keeping a frozenset per image peaked at about 65 MB on this walk; it
    # keeps one class index per state and one table per relabeling.
    _serial_rows(monkeypatch)
    tracemalloc.start()
    try:
        rows = sum(1 for _ in _sweep_rows(5, True, solver.DEFAULT_BUDGET, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 582
    assert peak < 4 * 2**20


def test_sweep_under_small_budget_gives_isomorphic_digraphs_equal_rows(capsys):
    code, out, _ = run(capsys, "sweep", "3", "--budget", "3")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    assert len(rows) == 27 and json.loads(lines[-1])["summary"]["unknown_rows"] == 20
    by_class = {}
    for row in rows:
        D = _from_code(3, row.pop("digraph_code"))
        by_class.setdefault(brute_canonical_code(D), []).append(row)
    assert len(by_class) == 7
    for members in by_class.values():
        assert all(row == members[0] for row in members)
    # A settled row serves its converse class.  Here the in-star's search
    # settles, and its row serves the out-stars 0>1;0>2, 1>0;1>2 and
    # 2>0;2>1, whose own search would run out at this budget.
    for canon, members in by_class.items():
        if members[0]["dimension"] is not None:
            assert by_class[brute_canonical_code(converse(_from_code(3, canon)))] == members
    out_star = by_class[brute_canonical_code(_from_code(3, "0>1;0>2"))]
    assert len(out_star) == 3 and out_star[0]["dimension"] == 1


@pytest.mark.parametrize("dedup", [False, True], ids=["labeled", "dedup"])
@pytest.mark.parametrize("n", [3, 4])
def test_sweep_converse_pairs_always_agree(n, dedup):
    # Whichever class of a converse pair the walk meets first, and whichever
    # of the two searches settles under a small budget, both report one row.
    canon = {}
    for budget in [*range(1, 40), 50, 60, 80, 100, 150]:
        by_pair = {}
        for row in _sweep_rows(n, dedup, budget, None):
            code = row.digraph_code
            if code not in canon:
                canon[code] = converse_class_code(_from_code(n, code))
            by_pair.setdefault(canon[code], set()).add(row[1:])
        assert all(len(rows) == 1 for rows in by_pair.values()), budget


@pytest.mark.parametrize("argv, unknown", [
    (["sweep", "4", "--budget", "50"], 24), (["sweep", "4", "--dedup", "--budget", "20"], 22)])
def test_sweep_unknown_rows_under_small_budget_are_pinned(capsys, argv, unknown):
    # A converse pair's row is unknown only when both of its searches run out.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"]["unknown_rows"] == unknown


# sha256 of stdout and the exit code of sweeps whose bytes must not change.
SWEEP_DIGESTS = {
    "sweep 0": (0, "6830b2b4dc2ce88f796ce729ee8a64727ecc06ce9219dfadcc925f0733f96bb0"),
    "sweep 1": (0, "3304ddc7db2dcebe71f74a139795af3681e6a97cff353d541ff92b699980d1ec"),
    "sweep 2": (0, "7d2e814c8e846bc6800b6cf5058f592da21a831ea0976aba9a5b278f03af7d01"),
    "sweep 3": (0, "8efecd68ef769380d3cb6d91c561310dc0516c29a832daa127a598f0556ff214"),
    "sweep 4": (0, "34527f62812060455d0ed8f772d1fcdf9322c0e3a42d8531e4942e55cb4eb77a"),
    "sweep 0 --dedup": (0, "6830b2b4dc2ce88f796ce729ee8a64727ecc06ce9219dfadcc925f0733f96bb0"),
    "sweep 1 --dedup": (0, "3304ddc7db2dcebe71f74a139795af3681e6a97cff353d541ff92b699980d1ec"),
    "sweep 2 --dedup": (0, "f7234e7618d54f388d35cfb29cf4a40e8ea312148685adfa7ac067760035e144"),
    "sweep 3 --dedup": (0, "d96078365981adb7d47e36145fe848560535d113b976d2bf4bff3982d6f7d44f"),
    "sweep 4 --dedup": (0, "31285817d79ec0bf988e1014d17d04c09efe68635d708e0d8a3b5d60827a7de5"),
    "sweep 5 --dedup": (0, "89581f8352d34ec5682dea74c803991f16e1f0b3f42b4c0861f4b5ecbffa8c85"),
    "sweep 3 --csv": (0, "178ccdb7c7e6e259332e74479d612fa120949e7a61a1b86d14da2634ca379b42"),
    "sweep 4 --dedup --csv": (0, "43159f9632829394f8ff616eb3a21959f83ee3cee77400128a965568c06ae5fc"),
}


def _digest(code, out):
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("command", [c for c in SWEEP_DIGESTS if c != "sweep 5 --dedup"])
def test_sweep_output_digests(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert _digest(code, out) == SWEEP_DIGESTS[command]


def test_sweep_five_dedup(capsys):
    code, out, _ = run(capsys, "sweep", "5", "--dedup")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert len(lines) - 1 == summary["rows"] == 582
    assert summary["histogram"] == {"0": 1, "1": 15, "2": 47, "3": 514, "4": 5}
    assert all(v for k, v in summary.items() if k.startswith("dim"))
    assert _digest(code, out) == SWEEP_DIGESTS["sweep 5 --dedup"]


# sha256 over one line per search of a walk: the searched digraph's arc
# code, then d, verdict and nodes at every level.  The output digests
# above carry no node counts.
SEARCH_DIGESTS = {
    (4, False): "cabdd50a7e22daa10f91808617d97b59b8a8f77f66d17f8920fa77e0d6be3567",
    (5, True): "0a219531fbbf17b1a48deb8ce9f338544a72f022f0dfa39d1b6530314dfb4624",
}


@pytest.mark.parametrize("n, dedup", SEARCH_DIGESTS)
def test_sweep_searches_are_pinned(monkeypatch, n, dedup):
    lines = []
    real_dimension = solver.dimension

    def recording_dimension(D, **kwargs):
        result = real_dimension(D, **kwargs)
        levels = " ".join(f"{d}:{o.verdict.value}:{o.nodes_explored}" for d, o in result.per_d)
        lines.append(f"{_code(D)} {levels}\n")
        return result

    monkeypatch.setattr(solver, "dimension", recording_dimension)
    _sweep_rows(n, dedup, solver.DEFAULT_BUDGET, None)
    assert len(lines) == {4: 30, 5: 342}[n]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == SEARCH_DIGESTS[n, dedup]


def test_rules_agree_with_search_on_every_five_vertex_class():
    # Sweep rows come from the search alone; `dimension` with its rules must
    # give every class the same verdict at every level.
    for row in _sweep_rows(5, True, solver.DEFAULT_BUDGET, None):
        res = solver.dimension(_from_code(5, row.digraph_code))
        verdicts = [outcome.verdict for _, outcome in res.per_d]
        assert verdicts == [solver.Verdict.NOT_REALIZABLE] * row.dimension + [
            solver.Verdict.REALIZABLE], row.digraph_code


def test_sweep_decides_low_dimensions_by_search(capsys, monkeypatch):
    # A broken d = 1 characterization in the solver must not reach the
    # sweep's rows, or its dim1 flag would be checking the solver's shortcut.
    monkeypatch.setattr("majdim.deciders.is_acyclic_tournament", lambda D: False)
    code, out, _ = run(capsys, "sweep", "3")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"]["histogram"] == {
        "0": 1, "1": 12, "2": 6, "3": 8,
    }


@pytest.mark.parametrize(
    "argv, graph, source",
    [
        (["dim", "{g}"], to_edge_list(path(3)), "ceiling"),
        (["dim", "{g}"], "2\n0 1\n", "condensation shortcut"),
        (["sweep", "2"], None, "search"),
        (["realize", "path", "4"], None, "construction"),
    ],
    ids=["dim-ceiling", "dim-condensed-tournament", "sweep-search", "realize"],
)
def test_failed_witness_self_check_exits_three(capsys, monkeypatch, tmp_path, argv, graph,
                                               source):
    # Every witness goes through realizer.verified, which reads verify from
    # its own module, so a verify that rejects everything reaches each check.
    monkeypatch.setattr("majdim.realizer.verify", lambda D, f: VerifyReport(False, ()))
    if graph is not None:
        argv = [a.format(g=write(tmp_path, "g.txt", graph)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"internal error: {source} produced an invalid witness\n")


def test_sweep_row_outside_its_bounds_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(solver, "dimension",
                        lambda D, **kwargs: solver.DimensionResult(99, 99, 99, ()))
    code, out, err = run(capsys, "sweep", "2")
    assert code == 3 and out == ""
    assert err.startswith("internal error: sweep row breaks dimension bounds: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_sweep_row_above_twice_the_vertex_count_exits_three(capsys, monkeypatch):
    # Each digraph on 4 vertices with 5 or 6 arcs is given dimension 9: at
    # most 2 * #arcs, but above 2n = 8, which 2 * nu <= 2n rules out.
    real = solver.dimension

    def inflated(D, **kwargs):
        if 2 * D.n + 1 <= 2 * len(D.arcs):
            return solver.DimensionResult(2 * D.n + 1, 2 * D.n + 1, 2 * D.n + 1, ())
        return real(D, **kwargs)

    monkeypatch.setattr(solver, "dimension", inflated)
    code, out, err = run(capsys, "sweep", "4")
    assert code == 3 and out == ""
    assert err.startswith("internal error: sweep row breaks dimension bounds: ")
    assert "dimension=9" in err and "arc_count=5" in err


def test_sweep_csv_mode(capsys):
    code, out, err = run(capsys, "sweep", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("digraph_code,")
    assert len(lines) == 4
    assert "summary" in err


def test_sweep_rejects_large_n(capsys):
    for argv, bound in [(["5"], "0 <= n <= 4 without"), (["-1"], "0 <= n <= 4 without"),
                        (["6", "--dedup"], "0 <= n <= 5 with"),
                        (["-1", "--dedup"], "0 <= n <= 5 with")]:
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 2 and out == ""
        assert err == f"error: sweep supports {bound} --dedup\n"


def test_profile_commands(capsys, tmp_path):
    prof = write(
        tmp_path, "condorcet.json",
        '{"alternatives": 3, "voters": [[3,2,1],[1,3,2],[2,1,3]]}',
    )
    code, out, _ = run(capsys, "profile", "digraph", prof)
    assert code == 0
    assert json.loads(out) == {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}

    code, out, _ = run(capsys, "profile", "margin", prof)
    assert code == 0
    margins = json.loads(out)["margins"]
    assert margins[0][1] == 1 and margins[1][0] == -1 and margins[0][0] == 0

    code, out, _ = run(capsys, "profile", "to-realizer", prof)
    assert code == 0
    f = realizer_from_json(out)
    assert verify(cycle(3), f).valid


def test_profile_margin_matches_pairwise_margins(capsys, tmp_path):
    rng = random.Random(67)
    for _ in range(60):
        m, nv = rng.randrange(0, 8), rng.randrange(0, 5)
        voters = [[rng.randrange(-1, 3) for _ in range(m)] for _ in range(nv)]
        R = Profile(m, voters)
        prof = write(tmp_path, "p.json", json.dumps({"alternatives": m, "voters": voters}))
        code, out, _ = run(capsys, "profile", "margin", prof)
        margins = [[majority_margin(R, a, b) for b in range(m)] for a in range(m)]
        assert code == 0
        assert out == json.dumps({"alternatives": m, "margins": margins}) + "\n"


def test_profile_from_realizer(capsys, tmp_path):
    r = write(tmp_path, "c3.json", '{"d": 3, "vectors": {"0": [1,2,3], "1": [3,1,2], "2": [2,3,1]}}')
    code, out, _ = run(capsys, "profile", "from-realizer", r)
    assert code == 0
    payload = json.loads(out)
    assert payload["alternatives"] == 3 and len(payload["voters"]) == 3
    # no vertices: d voters that rank no alternatives, not zero voters
    r = write(tmp_path, "r.json", '{"d": 2, "vectors": {}}')
    code, out, _ = run(capsys, "profile", "from-realizer", r)
    assert code == 0 and out == '{"alternatives": 0, "voters": [[], []]}\n'


def test_es_command(capsys, tmp_path):
    pts = write(tmp_path, "pts.txt", "1 5\n2 4\n3 3\n4 2\n5 1\n")
    code, out, _ = run(capsys, "es", pts)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "antichain" and payload["size"] == 5


def test_es_empty_points_exits_two(capsys, tmp_path):
    pts = write(tmp_path, "empty.txt", "# nothing\n")
    assert run(capsys, "es", pts) == (2, "", "error: no points given\n")


def test_console_entry_point_subprocess(tmp_path):
    g = tmp_path / "p3.txt"
    g.write_text(to_edge_list(path(3)))
    out = subprocess.run(
        [sys.executable, "-m", "majdim.cli", "dim", str(g)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["dimension"] == 3


def test_reader_closing_stdout_early_exits_two_quietly():
    # `sweep 4` writes about 128 KB, more than a pipe holds, so it is still
    # writing when the reader goes away after 50 bytes.
    proc = subprocess.Popen([sys.executable, "-m", "majdim.cli", "sweep", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert b"Traceback" not in err, err.decode()


def _every_command_parser(description):
    """The parser `main` built for every argv before it built one command's:
    all commands registered, no metavar on the command argument."""
    parser = argparse.ArgumentParser(prog="majdim", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for *flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv), argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_bytes_match_the_every_command_parser(tmp_path, monkeypatch):
    # Compared in-process, not with pinned strings: argparse's messages
    # differ across Python versions.
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "g.txt", to_edge_list(path(3)))
    write(tmp_path, "r.json", realizer_to_json(realize_path(3)))
    write(tmp_path, "p.json", '{"alternatives": 3, "voters": [[3,2,1],[1,3,2],[2,1,3]]}')
    write(tmp_path, "pts.txt", "1 5\n2 4\n3 3\n")
    valid = {"gen": ["path", "3"], "verify": ["g.txt", "r.json"], "realize": ["path", "3"],
             "dim": ["g.txt"], "condense": ["g.txt"], "sweep": ["2"],
             "profile": ["margin", "p.json"], "es": ["pts.txt"]}
    assert list(valid) == list(cli._COMMANDS)
    corpus = [[], ["-h"], ["--help"], ["bogus"], ["sweep", "x"], ["realize", "nope"],
              ["gen", "nofamily", "3"], ["dim", "g.txt", "--budget", "-1"]]
    for command, args in valid.items():
        corpus += [[command, "-h"], [command], [command, *args, "extra"], [command, *args]]
    changed = {tuple(argv): _outcome(argv) for argv in corpus}
    assert all(changed[command, *args][0] == 0 for command, args in valid.items())
    for argv, outcome in changed.items():
        assert _outcome(argv) == _outcome(arg for arg in argv) == outcome, argv
    description = cli._build_parser().description
    monkeypatch.setattr(cli, "_build_parser", lambda command: _every_command_parser(description))
    for argv, outcome in changed.items():
        assert _outcome(list(argv)) == outcome, argv


# --- fuzz guard over every command -----------------------------------------
#
# Well-formed files have at most five vertices and every integer is small,
# so no example searches past five vertices or builds more than a few
# thousand vertices.  Derandomized, so tier-1 sees the same 250 examples.

_TOKENS = st.one_of(
    st.integers(-1, 5).map(str),
    st.sampled_from(["x", "1.5", "0x1", "+2", "٣", "", "-", "#", "1e3"]),
)
_LINES = st.lists(st.lists(_TOKENS, max_size=3).map(" ".join), max_size=6).map("\n".join)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.floats(), st.text(max_size=3)
).map(json.dumps)
_KEYS = st.one_of(
    st.sampled_from(["d", "vectors", "alternatives", "voters", "0", "1", "2", "01", "-1"]),
    st.text(max_size=2),
)


def _json_object(items):
    # Built as text, so a key can repeat.
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in items) + "}"


_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
        st.lists(st.tuples(_KEYS, kids), max_size=4).map(_json_object),
    ),
    max_leaves=12,
)
_ANY_FILE = st.one_of(_LINES.map(str.encode), _JSON.map(str.encode), st.binary(max_size=12))


def _file_strategy(kind, n):
    """Bytes for a file slot: mostly well-formed for its kind, else anything."""
    small = st.integers(-1, 5)
    if kind == "graph":
        pairs = list(itertools.combinations(range(n), 2))
        good = st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)).map(
            lambda states: f"{n}\n" + "".join(
                f"{u} {v}\n" if s == 1 else f"{v} {u}\n"
                for (u, v), s in zip(pairs, states) if s))
    elif kind == "points":
        good = st.lists(st.tuples(small, small), max_size=8).map(
            lambda points: "".join(f"{x} {y}\n" for x, y in points))
    elif kind == "realizer":
        good = st.integers(0, 3).flatmap(lambda d: st.lists(
            st.lists(small, min_size=d, max_size=d), min_size=n, max_size=n,
        ).map(lambda vectors: _json_object([
            ("d", str(d)),
            ("vectors", _json_object([(str(v), json.dumps(x)) for v, x in enumerate(vectors)])),
        ])))
    else:
        good = st.lists(st.lists(small, min_size=n, max_size=n), max_size=4).map(
            lambda voters: _json_object([("alternatives", str(n)),
                                         ("voters", json.dumps(voters))]))
    # Listed twice, so about two files in three are well-formed.
    return st.one_of(good.map(str.encode), good.map(str.encode), _ANY_FILE)


_SMALL = st.integers(-2, 12).map(str)


@st.composite
def _command_lines(draw):
    """(argv, files): one command line and the bytes of each file it names."""
    n = draw(st.integers(0, 5))
    files = []

    def file(kind):
        files.append(draw(_file_strategy(kind, n)))
        return f"{{{len(files) - 1}}}"

    def flags(*names):
        return [name for name in names if draw(st.booleans())]

    def number(flag):
        return [flag, draw(_SMALL)] if draw(st.booleans()) else []

    # An empty argv and unknown words reach the parser with every command,
    # the eight commands the one-command parser.
    command = draw(st.sampled_from([*cli._COMMANDS, None, "bogus", "Dim", "", "--dot"]))
    if command is None:
        return [], files
    if command == "gen":
        family = draw(st.sampled_from(["empty", "path", "cycle", "tournament",
                                       "single-arc", "subset-family", "bogus"]))
        arity = 2 if family == "subset-family" else 1
        params = draw(st.lists(_SMALL, min_size=arity, max_size=arity) | st.lists(_SMALL))
        argv = [family, *params, *flags("--dot")]
    elif command == "verify":
        argv = [file("graph"), file("realizer")]
    elif command == "realize":
        method = draw(st.sampled_from(["path", "cycle", "tournament", "empty", "generic",
                                       "union", "condense-lift", "bogus"]))
        if method in ("generic", "union", "condense-lift"):
            argv = [method]
            for _ in range(draw(st.integers(1, 3))):
                argv += ["-d", file("graph")]
        else:
            argv = [method, draw(st.integers(-2, 40).map(str))]
    elif command == "dim":
        argv = [file("graph"), *number("--max-d"), *number("--budget")]
    elif command == "condense":
        argv = [file("graph"), *flags("--dot")]
    elif command == "sweep":
        size = draw(st.integers(-1, 6))
        dedup = ["--dedup"] if size != 5 and draw(st.booleans()) else []
        argv = [str(size), *dedup, *flags("--csv"), *number("--max-d"), *number("--budget")]
    elif command == "profile":
        sub = draw(st.sampled_from(["margin", "digraph", "to-realizer", "from-realizer"]))
        argv = [sub, file("realizer" if sub == "from-realizer" else "profile")]
    elif command == "es":
        argv = [file("points")]
    else:
        argv = draw(st.lists(_SMALL, max_size=2))
    junk = draw(st.sampled_from([None] * 12 + ["--bogus", "--dot", "--budget", "-d", "extra", "3"]))
    return [command, *argv, *filter(None, [junk])], files


@settings(max_examples=250, deadline=None, derandomize=True)
@given(command=_command_lines())
def test_cli_fuzz_exit_codes(command):
    argv, files = command
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            paths.append(os.path.join(tmp, f"f{i}"))
            with open(paths[-1], "wb") as fh:
                fh.write(data)
        argv = [arg.format(*paths) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert [json.loads(line) for line in out.getvalue().splitlines()]
    if code == 2:
        assert "error" in err.getvalue()
