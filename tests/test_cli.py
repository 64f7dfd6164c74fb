import json
import random
import subprocess
import sys
from collections import Counter

import pytest

from majdim import (
    Profile,
    from_edge_list,
    cycle,
    majority_margin,
    path,
    realizer_from_json,
    to_edge_list,
    verify,
)
from majdim.cli import _sweep_digraphs, main

from helpers import all_labeled_digraphs, brute_canonical_code


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
    ],
    ids=["float-coordinate", "string-coordinate", "string-d", "float-rank", "string-rank",
         "repeated-vertex-key", "repeated-voters-key"],
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


def test_negative_env_budget_exits_two(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MAJDIM_BUDGET", "-3")
    g = write(tmp_path, "p3.txt", to_edge_list(path(3)))
    code, out, err = run(capsys, "dim", g)
    assert code == 2 and out == "" and "nonnegative" in err


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
    g = write(tmp_path, "p3.txt", to_edge_list(path(3)))
    code, out, _ = run(capsys, "dim", g, "--budget", "3")
    assert code == 1
    payload = json.loads(out)
    assert "unknown" in payload
    assert payload["unknown"]["lower"] <= payload["unknown"]["upper"]


def test_dim_env_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MAJDIM_BUDGET", "3")
    g = write(tmp_path, "p3.txt", to_edge_list(path(3)))
    code, out, _ = run(capsys, "dim", g)
    assert code == 1 and "unknown" in json.loads(out)


def test_dim_beyond_search_space_limit_reports_bounds(capsys, tmp_path):
    g = write(tmp_path, "p2001.txt", to_edge_list(path(2001)))
    code, out, err = run(capsys, "dim", g)
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["unknown"] == {"lower": 2, "upper": 4000}
    assert payload["per_d"][-1] == {"d": 2, "verdict": "budget_exceeded", "nodes": 0}


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


@pytest.mark.parametrize("n, classes", [(0, 1), (1, 1), (2, 2), (3, 7), (4, 42)])
def test_sweep_digraphs_match_brute_force(n, classes):
    labeled = list(all_labeled_digraphs(n))
    assert list(_sweep_digraphs(n, dedup=False)) == [
        (";".join(f"{u}>{v}" for u, v in D.sorted_arcs()), D) for D in labeled
    ]
    first_of_class = {}
    for D in labeled:
        first_of_class.setdefault(brute_canonical_code(D), D)
    assert len(first_of_class) == classes
    assert list(_sweep_digraphs(n, dedup=True)) == list(first_of_class.items())


def test_sweep_five_dedup(capsys):
    code, out, _ = run(capsys, "sweep", "5", "--dedup")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert len(lines) - 1 == summary["rows"] == 582
    assert summary["histogram"] == {"0": 1, "1": 15, "2": 47, "3": 514, "4": 5}
    assert all(v for k, v in summary.items() if k.startswith("dim"))


def test_sweep_decides_low_dimensions_by_search(capsys, monkeypatch):
    # A broken d = 1 characterization in the solver must not reach the
    # sweep's rows, or its dim1 flag would be checking the solver's shortcut.
    monkeypatch.setattr("majdim.solver.is_acyclic_tournament", lambda D: False)
    code, out, _ = run(capsys, "sweep", "3")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"]["histogram"] == {
        "0": 1, "1": 12, "2": 6, "3": 8,
    }


def test_sweep_csv_mode(capsys):
    code, out, err = run(capsys, "sweep", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("digraph_code,")
    assert len(lines) == 4
    assert "summary" in err


def test_sweep_rejects_large_n(capsys):
    code, _, _ = run(capsys, "sweep", "5")
    assert code == 2
    code, _, _ = run(capsys, "sweep", "6", "--dedup")
    assert code == 2


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


def test_es_command(capsys, tmp_path):
    pts = write(tmp_path, "pts.txt", "1 5\n2 4\n3 3\n4 2\n5 1\n")
    code, out, _ = run(capsys, "es", pts)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "antichain" and payload["size"] == 5


def test_es_empty_points_exits_two(capsys, tmp_path):
    pts = write(tmp_path, "empty.txt", "# nothing\n")
    code, _, err = run(capsys, "es", pts)
    assert code == 2


def test_console_entry_point_subprocess(tmp_path):
    g = tmp_path / "p3.txt"
    g.write_text(to_edge_list(path(3)))
    out = subprocess.run(
        [sys.executable, "-m", "majdim.cli", "dim", str(g)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["dimension"] == 3
