import random
import re
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from majdim import (
    Digraph,
    DigraphError,
    acyclic_tournament,
    build,
    condense,
    cycle,
    disjoint_union,
    empty,
    from_edge_list,
    generate,
    has_induced_two_path,
    induced,
    induced_two_paths,
    is_acyclic_tournament,
    is_tournament,
    is_transitive,
    path,
    single_arc,
    subset_family,
    to_dot,
    to_edge_list,
)
from majdim import digraph
from majdim.digraph import FAMILIES, _neighbour_rows, parse_int
from helpers import (
    all_labeled_digraphs,
    naive_condense,
    naive_homogeneous,
    naive_induced_two_paths,
    naive_is_acyclic_tournament,
    naive_is_transitive,
    random_digraph,
)

TT3 = build(3, [(0, 1), (2, 1), (0, 2)])  # transitive tournament, order 0 > 2 > 1


def test_build_path():
    D = build(3, [(0, 1), (1, 2)])
    assert D.n == 3 and D.arcs == {(0, 1), (1, 2)}


def test_build_rejects_antiparallel():
    with pytest.raises(DigraphError, match=r"^both \((0, 1|1, 0)\) and \((1, 0|0, 1)\) present$"):
        build(2, [(0, 1), (1, 0)])


def test_build_rejects_loop():
    with pytest.raises(DigraphError, match="^loop at vertex 0$"):
        build(1, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(DigraphError, match=r"^arc \(0, 2\) outside 0\.\.1$"):
        build(2, [(0, 2)])


def test_build_rejects_duplicates():
    with pytest.raises(DigraphError, match=r"^arc \(0, 1\) listed twice$"):
        build(3, [(0, 1), (0, 1)])


@pytest.mark.parametrize("arc", [(1.9, 0), (True, 2), (0, "1"), (0, 1.0)])
def test_non_integer_endpoints_rejected(arc):
    with pytest.raises(DigraphError):
        Digraph(3, frozenset({arc}))
    with pytest.raises(DigraphError):
        build(3, [arc])


@pytest.mark.parametrize("arcs", [[(1, 0), (True, 0)], [(0, 1), (0.0, 1)], [(0, 1), (0, True)]])
def test_arc_equal_to_an_earlier_one_only_by_coercion_is_rejected(arcs):
    # Each arc is checked before it enters the set, so the second one is
    # not merged into the first as an equal, hashed-alike element.
    with pytest.raises(DigraphError, match="has a non-integer endpoint$"):
        Digraph(3, arcs)
    with pytest.raises(DigraphError, match="has a non-integer endpoint$"):
        build(3, arcs)


@pytest.mark.parametrize("arc", [(0, 1, 2), (0,), (), 5, None])
def test_arcs_that_are_not_pairs_rejected(arc):
    with pytest.raises(DigraphError, match="not a pair"):
        Digraph(3, frozenset({arc}))
    with pytest.raises(DigraphError, match="not a pair"):
        build(3, [arc])


@pytest.mark.parametrize("n", [2.0, True, "3"])
def test_non_integer_vertex_count_rejected(n):
    with pytest.raises(DigraphError, match="^vertex count must be a nonnegative integer, got "):
        Digraph(n, frozenset())


def test_neighbour_rows_are_computed_once_per_digraph(monkeypatch):
    calls = []

    def counting_rows(n, arcs):
        calls.append(n)
        return _neighbour_rows(n, arcs)

    monkeypatch.setattr(digraph, "_neighbour_rows", counting_rows)
    D = build(3, [(0, 1), (1, 2)])
    assert calls == []
    assert D.out is D.out and D.into is D.into
    assert (D.out, D.into) == ((0b010, 0b100, 0), (0, 0b001, 0b010))
    assert calls == [3, 3]
    # An equal digraph keeps rows of its own.
    assert build(3, [(0, 1), (1, 2)]).out == D.out and calls == [3, 3, 3]


def test_neighbour_rows_read_by_threads_at_once_are_equal():
    # Racing first reads may each compute a row tuple, never a different one.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in range(3, 40):
            D = cycle(n)
            start = threading.Barrier(4)
            seen = []

            def read():
                start.wait()
                seen.append((D.out, D.into))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == [(D.out, D.into)] * 4
    finally:
        sys.setswitchinterval(interval)


def test_a_huge_arcless_digraph_builds_no_rows():
    D = empty(10**9)
    assert D.arcs == frozenset()
    assert "out" not in D.__dict__ and "into" not in D.__dict__


def small_and_random_digraphs():
    """Every labeled digraph with n <= 4, then 200 seeded random ones with n <= 8."""
    for n in range(5):
        yield from all_labeled_digraphs(n)
    rng = random.Random(23)
    for _ in range(200):
        yield random_digraph(rng, rng.randrange(0, 9))


def test_neighbour_rows_match_arcs():
    for D in small_and_random_digraphs():
        for u in range(D.n):
            for v in range(D.n):
                assert D.out[u] >> v & 1 == ((u, v) in D.arcs)
                assert D.into[v] >> u & 1 == ((u, v) in D.arcs)
        assert len(D.out) == len(D.into) == D.n


def test_predicates_match_first_principles():
    for D in small_and_random_digraphs():
        assert is_transitive(D) == naive_is_transitive(D)
        assert is_acyclic_tournament(D) == naive_is_acyclic_tournament(D)
        found = list(induced_two_paths(D))
        assert len(found) == len(set(found))
        assert set(found) == naive_induced_two_paths(D)


def test_condense_classes_match_first_principles():
    for D in small_and_random_digraphs():
        cr = condense(D)
        for u in range(D.n):
            same = [v for v in range(D.n) if naive_homogeneous(D, u, v)]
            assert cr.representative[u] == min(same)
            assert [v for v in range(D.n) if cr.class_of[v] == cr.class_of[u]] == same


def test_condense_matches_its_definition_on_seeded_random_digraphs():
    # Blow-ups of random digraphs give classes of many homogeneous vertices,
    # plain random digraphs mostly singletons.
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randrange(0, 13)
        base = random_digraph(rng, rng.randrange(1, 6))
        blow = [rng.randrange(base.n) for _ in range(n)]
        for D in (random_digraph(rng, n),
                  Digraph(n, frozenset((u, v) for u in range(n) for v in range(n)
                                       if (blow[u], blow[v]) in base.arcs))):
            cr = condense(D)
            assert (cr.representative, cr.class_of, cr.condensed) == naive_condense(D)


def test_condense_reads_arcs_not_rows():
    # Keying by the n-bit rows hashes about n^2 / 30 words in all: 0.39 s of
    # condense(path(20000)).  The neighbour sets hold 2 * #arcs items.
    D = path(20000)
    assert condense(D).condensed == D
    assert "out" not in vars(D) and "into" not in vars(D)


def test_neighbour_rows_are_built_on_first_use():
    D = Digraph(10**9, frozenset())
    assert to_edge_list(D) == "1000000000\n"
    assert "out" not in vars(D) and "into" not in vars(D)


def test_transitive_examples():
    assert is_transitive(TT3)
    assert not is_transitive(cycle(3))
    assert is_transitive(empty(5))


def test_induced_two_path_examples():
    assert has_induced_two_path(path(3))
    assert not has_induced_two_path(TT3)  # shortcut arc closes the pair
    assert not has_induced_two_path(empty(4))
    assert not has_induced_two_path(cycle(3))


def test_induced_two_paths_match_bruteforce():
    rng = random.Random(17)
    for _ in range(100):
        D = random_digraph(rng, rng.randrange(0, 8))
        expected = {
            (x, y, z)
            for x in range(D.n)
            for y in range(D.n)
            for z in range(D.n)
            if (x, y) in D.arcs and (y, z) in D.arcs and x != z
            and (x, z) not in D.arcs and (z, x) not in D.arcs
        }
        found = list(induced_two_paths(D))
        assert len(found) == len(expected) and set(found) == expected
        assert has_induced_two_path(D) == bool(expected)


def test_induced_examples():
    assert induced(TT3, {0, 2}).arcs == {(0, 1)}
    assert induced(cycle(4), {0, 1, 2}).arcs == {(0, 1), (1, 2)}
    assert induced(TT3, range(3)) == TT3
    with pytest.raises(DigraphError, match=r"^vertex 7 outside 0\.\.2$"):
        induced(TT3, {0, 7})


@pytest.mark.parametrize("S", [[1.0, 2], [True, 2], ["1"], [0, 1, True]])
def test_induced_rejects_non_integer_vertices(S):
    with pytest.raises(DigraphError):
        induced(path(3), S)


def test_induced_matches_arc_intersection_bruteforce():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randrange(1, 7)
        D = random_digraph(rng, n)
        S = sorted(v for v in range(n) if rng.random() < 0.6)
        pos = {v: i for i, v in enumerate(S)}
        expected = {(pos[u], pos[v]) for u, v in D.arcs if u in pos and v in pos}
        assert induced(D, S).arcs == expected


def test_condense_merges_homogeneous_sinks():
    cr = condense(build(3, [(0, 1), (0, 2)]))
    assert cr.representative == {0: 0, 1: 1, 2: 1}
    assert cr.class_of == {0: 0, 1: 1, 2: 1}
    assert cr.condensed.n == 2 and cr.condensed.arcs == {(0, 1)}


def test_condense_empty_collapses_to_point():
    cr = condense(empty(4))
    assert cr.condensed.n == 1 and not cr.condensed.arcs
    assert set(cr.class_of.values()) == {0}


def test_condense_tournament_is_identity():
    D = acyclic_tournament(3)
    cr = condense(D)
    assert cr.condensed == D
    assert all(cr.representative[v] == v for v in range(3))


def test_condense_idempotent():
    rng = random.Random(11)
    for _ in range(80):
        D = random_digraph(rng, rng.randrange(1, 7))
        once = condense(D).condensed
        twice = condense(once)
        assert twice.condensed == once
        assert all(twice.representative[v] == v for v in range(once.n))


def test_family_path():
    assert path(3).arcs == {(0, 1), (1, 2)}


def test_family_acyclic_tournament_labeling():
    assert acyclic_tournament(3).arcs == {(1, 0), (2, 0), (2, 1)}


def test_family_subset_family_small():
    D = subset_family(3, 1)
    assert D.n == 6
    assert len(D.arcs) == 6
    # elements 0..2 point at the three 2-subsets {1,2}, {1,3}, {2,3}
    assert D.arcs == {(0, 3), (1, 3), (0, 4), (2, 4), (1, 5), (2, 5)}
    assert is_transitive(D)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_subset_family_vacuously_transitive(r, d):
    if r < d + 1:
        pytest.skip("needs r >= d + 1")
    D = subset_family(r, d)
    assert is_transitive(D)
    # no vertex carries both in- and out-arcs
    heads = {v for _, v in D.arcs}
    tails = {u for u, _ in D.arcs}
    assert not (heads & tails)


def test_family_bad_params():
    for fn, params, message in [
            (cycle, (2,), "cycle(2): length must be at least 3"),
            (path, (0,), "path(0)"),
            (single_arc, (1,), "single_arc(1): needs at least 2 vertices"),
            (subset_family, (1, 1), "subset_family(1, 1): needs r >= d + 1 >= 1"),
            (empty, (-1,), "empty(-1)")]:
        with pytest.raises(DigraphError, match=f"^{re.escape(message)}$"):
            fn(*params)


@pytest.mark.parametrize("bad", [True, 3.0])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_rejects_non_integer_params(kind, bad):
    # A bool or float is refused, never read as an int, in each parameter
    # place in turn, the others valid.
    fn, arity = FAMILIES[kind]
    valid = (3, 1)[:arity]
    for i in range(arity):
        params = (*valid[:i], bad, *valid[i + 1:])
        with pytest.raises(DigraphError, match=re.escape(repr(bad))):
            fn(*params)


def test_generate_dispatch():
    assert generate("path", 3) == path(3)
    assert generate("tournament", 3) == acyclic_tournament(3)
    assert generate("subset-family", 3, 1) == subset_family(3, 1)
    for kind, params, message in [
            ("widget", (3,), "unknown family 'widget'; choose from "),
            ("path", (1, 2), "family path takes 1 parameter(s), got 2"),
            ("subset-family", (3,), "family subset-family takes 2 parameter(s), got 1"),
            ("empty", (), "family empty takes 1 parameter(s), got 0")]:
        with pytest.raises(DigraphError, match=f"^{re.escape(message)}"):
            generate(kind, *params)


@given(st.integers(1, 8), st.integers(0, 4))
def test_generated_families_validate(n, which):
    # construction re-runs the full Digraph validation
    family = [empty, path, acyclic_tournament, cycle, single_arc][which]
    if family is cycle and n < 3:
        n = 3
    if family is single_arc and n < 2:
        n = 2
    D = family(n)
    assert build(D.n, sorted(D.arcs)) == D


@given(st.integers(0, 2), st.integers(1, 6))
def test_subset_family_validates(d, r):
    if r < d + 1:
        r = d + 1
    D = subset_family(r, d)
    assert build(D.n, sorted(D.arcs)) == D


def test_tournament_predicates():
    assert is_tournament(acyclic_tournament(4))
    assert is_acyclic_tournament(acyclic_tournament(4))
    assert is_tournament(cycle(3)) and not is_acyclic_tournament(cycle(3))
    assert not is_tournament(path(3))


def test_disjoint_union_offsets():
    U = disjoint_union([single_arc(2), empty(1), path(2)])
    assert U.n == 5
    assert U.arcs == {(0, 1), (3, 4)}


def test_edge_list_roundtrip():
    D = TT3
    assert from_edge_list(to_edge_list(D)) == D


def test_edge_list_comments_and_blanks():
    D = from_edge_list("# a digraph\n3\n\n0 1  # the first arc\n1 2\n")
    assert D == path(3)


_EDGE_LIST_ERRORS = {
    "": "empty edge list: missing vertex count",
    "2\n0 1 2\n": "line 2: expected 'u v', got '0 1 2'",
    "x\n": "line 1: bad vertex count 'x'",
    "2\n0 one\n": "line 2: bad arc '0 one'",
}


@pytest.mark.parametrize("text", list(_EDGE_LIST_ERRORS))
def test_edge_list_errors(text):
    with pytest.raises(DigraphError, match=f"^{re.escape(_EDGE_LIST_ERRORS[text])}$"):
        from_edge_list(text)


@pytest.mark.parametrize(
    "text, message",
    [("1_0\n0 1\n", "line 1: bad vertex count '1_0'"),
     ("\u0663\n0 1\n", "line 1: bad vertex count '\u0663'"),
     ("3\n\u0661 2\n", "line 2: bad arc '\u0661 2'"),
     ("3\n0 1_0\n", "line 2: bad arc '0 1_0'"),
     ("3\n0 0x1\n", "line 2: bad arc '0 0x1'"),
     ("3\n0 \uff11\n", "line 2: bad arc '0 \uff11'")],
    ids=["underscore-count", "arabic-indic-count", "arabic-indic-arc", "underscore-arc",
         "hex-arc", "fullwidth-arc"],
)
def test_edge_list_reads_ascii_decimal_only(text, message):
    with pytest.raises(DigraphError, match=f"^{re.escape(message)}$"):
        from_edge_list(text)


def test_edge_list_takes_signs_and_leading_zeros():
    assert from_edge_list("+3\n00 1\n+1 02\n") == path(3)


@pytest.mark.parametrize("text, value", [("0", 0), ("-12", -12), ("+7", 7), ("007", 7)])
def test_parse_int_reads_ascii_decimal(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize(
    "text", ["", "+", "-", "1_0", "\u0663", "\uff11", " 5", "5 ", "5\n", "0x1", "1e3", "1.0", "--1"]
)
def test_parse_int_refuses_everything_else(text):
    with pytest.raises(ValueError):
        parse_int(text)


def test_to_dot_mentions_all_arcs():
    dot = to_dot(path(3))
    assert "0 -> 1" in dot and "1 -> 2" in dot and dot.startswith("digraph")
