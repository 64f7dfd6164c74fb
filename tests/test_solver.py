import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import threading
import time

import pytest

from majdim import (
    DEFAULT_BUDGET,
    Digraph,
    PointError,
    Realizer,
    SolveOutcome,
    Verdict,
    acyclic_tournament,
    build,
    condense,
    cycle,
    dimension,
    disjoint_union,
    empty,
    es_chain_or_antichain,
    extend_dims,
    generic_realizer,
    induced,
    is_realizable,
    path,
    realize_cycle,
    realize_path,
    single_arc,
    star_forests,
    subset_family,
    verify,
)
from majdim import deciders, solver
from majdim.deciders import _obstructions, induced_copy
from majdim.digraph import bits
from majdim.solver import _first_orbit, _plan, _Plan, _Space, _space_fits, _space_for
from helpers import (
    all_labeled_digraphs,
    brute_canonical_code,
    brute_orbit,
    converse,
    cyclic_tournament,
    naive_induced_two_paths,
    naive_margin,
    naive_matching_number,
    naive_realizable,
    quadratic_es,
    random_digraph,
    relabeled,
    static_order_search,
)


def test_path3_not_realizable_in_two_dims():
    out = is_realizable(path(3), 2)
    assert out.verdict is Verdict.NOT_REALIZABLE
    assert out.witness is None


def test_path3_realizable_in_three_dims():
    out = is_realizable(path(3), 3)
    assert out.verdict is Verdict.REALIZABLE
    assert verify(path(3), out.witness).valid


def test_cycle3_not_realizable_in_two_dims():
    assert is_realizable(cycle(3), 2).verdict is Verdict.NOT_REALIZABLE


def test_search_matches_naive_enumeration():
    for n in (1, 2, 3):
        for D in all_labeled_digraphs(n):
            for d in (0, 1, 2):
                got = is_realizable(D, d).verdict is Verdict.REALIZABLE
                assert got == naive_realizable(D, d), (n, sorted(D.arcs), d)


def test_search_matches_naive_in_three_dims():
    # exercises the column-symmetry and no-shared-coordinate pruning
    for D in all_labeled_digraphs(3):
        got = is_realizable(D, 3).verdict is Verdict.REALIZABLE
        assert got == naive_realizable(D, 3), sorted(D.arcs)


def test_realizable_is_monotone_in_dimension():
    rng = random.Random(17)
    for _ in range(25):
        D = random_digraph(rng, rng.randrange(1, 5))
        res = dimension(D)
        d = res.dimension
        padded = extend_dims(res.witness, d + 1)
        assert verify(D, padded).valid
        assert is_realizable(D, d + 1).verdict is Verdict.REALIZABLE


def test_dimension_examples():
    assert dimension(empty(4)).dimension == 0
    tournament3 = build(3, [(0, 1), (2, 1), (0, 2)])  # total order 0 > 2 > 1
    sub_two_path = build(3, [(0, 2), (2, 1)])  # drop the shortcut arc
    assert dimension(tournament3).dimension == 1
    assert dimension(sub_two_path).dimension == 3


def test_dimension_cycle4_settled_by_complete_search():
    res = dimension(cycle(4), shortcuts=False)
    assert res.dimension in (3, 4)
    assert all(outcome.reason == "search" for _, outcome in res.per_d)
    verdicts = dict(res.per_d)
    assert verdicts[3].verdict in (Verdict.REALIZABLE, Verdict.NOT_REALIZABLE)
    assert verify(cycle(4), res.witness).valid


def test_path_and_cycle_dimension_jumps():
    # values cross-checked against an unpruned natural-order backtracker
    assert dimension(path(4)).dimension == 3
    assert dimension(path(5)).dimension == 3
    assert dimension(path(6)).dimension == 4
    assert dimension(cycle(4)).dimension == 3
    assert dimension(cycle(5)).dimension == 4


def test_dimension_witness_and_bounds_fields():
    res = dimension(path(3))
    assert res.known and res.lower == res.upper == 3
    assert verify(path(3), res.witness).valid
    assert [d for d, _ in res.per_d] == [0, 1, 2, 3]


@pytest.mark.parametrize("D, d, verdict, finish", [
    (cycle(4), 3, Verdict.REALIZABLE, 10),
    (path(5), 3, Verdict.REALIZABLE, 24),
    (subset_family(3, 1), 2, Verdict.NOT_REALIZABLE, 160),
    (cycle(5), 3, Verdict.NOT_REALIZABLE, 276),
], ids=["cycle(4)", "path(5)", "subset_family(3, 1)", "cycle(5)"])
def test_is_realizable_answers_at_every_budget(D, d, verdict, finish):
    # Every budget below the finishing count runs out after exactly that
    # many nodes, and the finishing count gives the final answer.
    for budget in range(finish):
        assert is_realizable(D, d, budget) == SolveOutcome(Verdict.BUDGET_EXCEEDED, None, budget)
    out = is_realizable(D, d, finish)
    assert (out.verdict, out.nodes_explored) == (verdict, finish)
    assert out == is_realizable(D, d)


def test_orbit_matcher_running_out_is_not_the_search_running_out(monkeypatch):
    # The orbit scan runs the matcher inside the search's root loop.  With
    # every matcher run capped at one node, each run is cut short and the
    # orbit stays empty, yet the search still exhausts its tree.
    runs = []
    real_copies = deciders.induced_copies

    def capped(P, D, first=None):
        find = real_copies(P, D, first)

        def capped_find(budget, target=None):
            runs.append(find(1, target))
            return runs[-1]

        return capped_find

    monkeypatch.setattr(deciders, "induced_copies", capped)
    _plan.cache_clear()
    try:
        out = is_realizable(cycle(5), 3)
    finally:
        _plan.cache_clear()
    assert runs and all(complete is False for _, _, complete in runs)
    assert out.verdict is Verdict.NOT_REALIZABLE


def test_dimension_budget_exhaustion_reports_bounds():
    # No rule settles subset_family(3, 1) at d = 3, and 4 nodes cannot
    # finish its obstruction scan or its search.  Its 15 vertex pairs do
    # not fit either, yet the upper bound is the star-forest ceiling.
    D = subset_family(3, 1)
    res = dimension(D, budget=4)
    assert not res.known
    assert res.dimension is None
    assert res.lower >= 1
    assert res.upper == generic_realizer(D).d == 4
    assert res.per_d[-1][1].verdict is Verdict.BUDGET_EXCEEDED


def test_constructive_climb_bounds_by_twice_matching_number():
    # subset_family(4, 1) has 10 vertices, so at budget 50 its 45 vertex
    # pairs fit and the ceiling rule may answer.  Its 4 stars pack into 2 star
    # forests, so the ceiling is 4 < 2 * nu = 8; once the obstruction
    # excludes d = 2 and 3, the verified ceiling answers d = 4 unsearched.
    D = subset_family(4, 1)
    assert 2 * len(star_forests(D)) == 4 < 2 * naive_matching_number(D) == 8 < 2 * len(D.arcs)
    for budget in (50, 1000):
        res = dimension(D, budget=budget)
        assert res.dimension == 4
        assert res.per_d[-1][1].reason == "ceiling"
        assert sum(o.nodes_explored for _, o in res.per_d if o.reason == "search") == 0


@pytest.mark.parametrize("k", [5, 6])
def test_subset_family_dimension_four_without_search(k):
    # The subset_family(4, 1) obstruction excludes d = 2 and 3, and the
    # star-forest ceiling is 4, so no level searches.
    res = dimension(subset_family(k, 1))
    assert res.dimension == 4
    assert [o.reason for _, o in res.per_d][2:] == ["obstruction", "obstruction", "ceiling"]
    assert all(o.reason != "search" for _, o in res.per_d)


@pytest.mark.parametrize("d", [True, 2.0, "2", -1])
def test_is_realizable_rejects_non_integer_dimension(d):
    with pytest.raises(ValueError):
        is_realizable(path(3), d)


@pytest.mark.parametrize("budget", [2.5, True, "5", -1])
def test_budget_must_be_a_nonnegative_integer(budget):
    with pytest.raises(ValueError):
        is_realizable(path(3), 2, budget=budget)
    with pytest.raises(ValueError):
        dimension(path(3), budget=budget)


@pytest.mark.parametrize("max_d", [2.5, True, "2", -1])
def test_dimension_rejects_non_integer_max_d(max_d):
    with pytest.raises(ValueError):
        dimension(path(3), max_d=max_d)


def test_dimension_respects_max_d():
    # Transitivity excludes d = 2 and max_d stops the climb before
    # realize_path's 3-coordinate ceiling settles d = 3.
    res = dimension(path(5), max_d=2)
    assert not res.known
    assert res.lower == 3 and res.upper == 3


def test_dimension_cut_by_max_d_has_no_witness():
    res = dimension(cycle(5), max_d=2)
    assert not res.known and res.witness is None
    assert all(outcome.verdict is Verdict.NOT_REALIZABLE for _, outcome in res.per_d)


def _levels(res):
    return [(d, outcome.verdict) for d, outcome in res.per_d]


def test_shortcuts_agree_with_search():
    # Every level's verdict, for every labeled digraph on 4 vertices.
    for D in all_labeled_digraphs(4):
        assert _levels(dimension(D)) == _levels(dimension(D, shortcuts=False)), sorted(D.arcs)


@pytest.mark.parametrize("n", range(2, 10))
def test_rules_agree_with_search_on_paths_and_cycles(n):
    for D in (path(n), cycle(n)) if n >= 3 else (path(n),):
        assert _levels(dimension(D)) == _levels(dimension(D, shortcuts=False))


def _paper_dimension(family, n):
    # The paper's values: paths 0, 1, 3, 3, 3, then 4 from 6 vertices on;
    # cycles 3, 3, then 4 from 5 vertices on.
    if family == "path":
        return (0, 1, 3, 3, 3)[n - 1] if n <= 5 else 4
    return 3 if n <= 4 else 4


def test_paths_and_cycles_are_decided_without_search():
    cases = [("path", n, path(n), realize_path) for n in range(1, 41)]
    cases += [("cycle", n, cycle(n), realize_cycle) for n in range(3, 41)]
    for family, n, D, construct in cases:
        res = dimension(D)
        assert [d for d, outcome in res.per_d if outcome.reason == "search"] == [], (family, n)
        assert res.dimension == res.upper == _paper_dimension(family, n), (family, n)
        assert verify(D, res.witness).valid, (family, n)
        assert construct(n).d == res.dimension, (family, n)


def _cycle6_plus_two(rng):
    """cycle(6) on vertices 0-5, plus vertices 6 and 7 each joined to every
    earlier vertex by a random arc or none; cycle(6) stays induced."""
    arcs = [(i, (i + 1) % 6) for i in range(6)]
    for v in (6, 7):
        for u in range(v):
            r = rng.random()
            if r < 1 / 3:
                arcs.append((u, v))
            elif r < 2 / 3:
                arcs.append((v, u))
    return build(8, arcs)


def test_induced_cycle6_settles_d3_by_obstruction():
    rng = random.Random(1)
    for _ in range(3):
        D = _cycle6_plus_two(rng)
        res = dimension(D)
        d3 = dict(res.per_d)[3]
        assert (d3.reason, d3.obstruction.name) == ("obstruction", "cycle(6)"), sorted(D.arcs)
        assert _levels(res) == _levels(dimension(D, shortcuts=False)), sorted(D.arcs)
        assert verify(D, res.witness).valid


@pytest.mark.parametrize("name, P, k", _obstructions(),
                         ids=[name for name, _, _ in _obstructions()])
def test_obstructions_are_certified_by_search(name, P, k):
    # Exhausted at k - 1, a verified witness at k.
    assert is_realizable(P, k - 1).verdict is Verdict.NOT_REALIZABLE
    outcome = is_realizable(P, k)
    assert outcome.verdict is Verdict.REALIZABLE
    assert verify(P, outcome.witness).valid


def _brute_force_copies(P, D):
    """Every injective vertex map that carries P's arcs and non-arcs to D's."""
    pairs = [(u, v) for u in range(P.n) for v in range(P.n) if u != v]
    for image in itertools.permutations(range(D.n), P.n):
        if all(((image[u], image[v]) in D.arcs) == ((u, v) in P.arcs) for u, v in pairs):
            yield image


def test_induced_copy_matches_brute_force():
    rng = random.Random(67)
    entries = [P for _, P, _ in _obstructions() if P.n <= 5]
    found = absent = 0
    for _ in range(300):
        D = random_digraph(rng, rng.randrange(1, 8))
        for P in entries:
            embedding, nodes, complete = induced_copy(P, D, DEFAULT_BUDGET)
            assert complete
            if embedding is None:
                assert next(_brute_force_copies(P, D), None) is None, sorted(D.arcs)
                absent += 1
            else:
                assert len(set(embedding)) == P.n
                assert all(((embedding[u], embedding[v]) in D.arcs) == ((u, v) in P.arcs)
                           for u in range(P.n) for v in range(P.n) if u != v)
                found += 1
    assert found and absent


def test_induced_copy_stops_at_its_budget():
    assert induced_copy(path(6), path(7), 3) == (None, 3, False)
    assert induced_copy(path(6), path(7), 6) == ((0, 1, 2, 3, 4, 5), 6, True)
    assert induced_copy(path(6), path(5), 0) == (None, 0, True)


@pytest.mark.parametrize("P, D, pin, finish, embedding", [
    (path(6), path(7), None, 6, (0, 1, 2, 3, 4, 5)),
    (cycle(5), cycle(5), (0, 2), 5, (2, 3, 4, 0, 1)),
])
def test_induced_copy_answers_at_every_budget(P, D, pin, finish, embedding):
    # Every budget below the finishing count runs out after exactly that
    # many nodes; from the finishing count on, the copy is found.
    for budget in range(finish + 2):
        expected = (None, budget, False) if budget < finish else (embedding, finish, True)
        assert induced_copy(P, D, budget, pin=pin) == expected


def test_induced_copy_honours_its_pin():
    assert induced_copy(cycle(5), cycle(5), 25, pin=(0, 2)) == ((2, 3, 4, 0, 1), 5, True)
    assert induced_copy(path(2), path(3), 25, pin=(1, 0)) == (None, 0, True)
    assert induced_copy(path(3), path(5), 25, pin=(0, 2)) == ((2, 3, 4), 3, True)


def _from_code(n, code):
    """The digraph on n vertices with the arcs of a "u>v;..." code."""
    return build(n, [tuple(map(int, arc.split(">"))) for arc in code.split(";") if arc])


def test_induced_copy_results_are_pinned():
    # Embeddings and node counts depend on the vertex order and the
    # candidate order, which the other matcher tests leave free; this pins both.
    rng = random.Random(83)
    codes = ["0>1;0>2;1>2;2>3;3>0;4>3", "0>1;0>2;1>2;2>3;3>0;3>4", "0>1;0>2;1>2;2>3;3>4;4>0",
             "0>1;0>2;1>2;2>3;2>4;3>0;4>3"]
    entries = [path(6), cycle(5), *(_from_code(5, code) for code in codes),
               subset_family(4, 1), subset_family(3, 1)]
    digest = hashlib.sha256()
    for _ in range(200):
        D = random_digraph(rng, rng.randrange(1, 9))
        for P in [*entries, D]:
            pin = (rng.randrange(P.n), rng.randrange(D.n)) if rng.random() < 0.5 else None
            digest.update(repr(induced_copy(P, D, rng.choice([2, 10, 10**6]), pin)).encode())
    assert digest.hexdigest() == (
        "2ef16ea7b7547cbc495fe4b126fc6b925cbacdc8a9a956fa6e92bc4b3a482873")


def test_first_orbit_matches_brute_force_on_small_digraphs():
    for n in range(5):
        for D in all_labeled_digraphs(n):
            for v in range(n):
                assert set(_first_orbit(D, v)) == brute_orbit(D, v), (sorted(D.arcs), v)


def test_first_orbit_matches_brute_force_on_symmetric_and_random_digraphs():
    rng = random.Random(71)
    cases = [random_digraph(rng, rng.randrange(1, 7)) for _ in range(60)]
    symmetric = [disjoint_union([cycle(3)] * 2), disjoint_union([cycle(4), path(2)]),
                 disjoint_union([path(2)] * 3), disjoint_union([path(3)] * 2), cycle(6),
                 cyclic_tournament(5), cyclic_tournament(7)]
    for D in symmetric:
        perm = list(range(D.n))
        rng.shuffle(perm)
        cases += [D, relabeled(D, perm)]
    # Random digraphs with many automorphisms: copies of one random part.
    cases += [disjoint_union([random_digraph(rng, 3)] * 2) for _ in range(20)]
    moved = 0
    for D in cases:
        for v in range(D.n):
            orbit = brute_orbit(D, v)
            assert set(_first_orbit(D, v)) == orbit, (D.n, sorted(D.arcs), v)
            moved += bool(orbit)
    assert moved > len(cases)


_KEY_SPACES = [(1, 3), (3, 0), (3, 1), (4, 2), (4, 3), (2, 4)]


@pytest.mark.parametrize("nranks, d", _KEY_SPACES)
def test_permutations_match_brute_force(nranks, d):
    space = _Space(nranks, d)
    for c, vc in enumerate(space.vectors):
        perms = space.permutations(c)
        for x, vx in enumerate(space.vectors):
            assert perms >> x & 1 == (sorted(vx) == sorted(vc)), (vc, vx)


@pytest.mark.parametrize("nranks, d", _KEY_SPACES)
def test_key_mask_matches_sorted_order(nranks, d):
    # The search's root takes the column-ordered vectors in index order,
    # and an orbit vertex keeps the vectors that permute no earlier one.
    space = _Space(nranks, d)
    root = space.mask((1 << max(d - 1, 0)) - 1, 0, space.top)
    assert root & 1 and space.permutations(0) == 1  # (1, ..., 1), the search's start
    passed = 0
    for c in bits(root):
        key = space.full ^ passed
        for x, vx in enumerate(space.vectors):
            assert key >> x & 1 == (sorted(vx) >= sorted(space.vectors[c])), (c, vx)
        passed |= space.permutations(c)
    assert passed == space.full


def test_dimension_one_characterization_via_search():
    # nonempty acyclic-tournament condensations are exactly the d=1 digraphs
    from majdim import is_acyclic_tournament
    for D in all_labeled_digraphs(3):
        cr = condense(D)
        expected = bool(cr.condensed.arcs) and is_acyclic_tournament(cr.condensed)
        got = (
            is_realizable(D, 1).verdict is Verdict.REALIZABLE
            and is_realizable(D, 0).verdict is Verdict.NOT_REALIZABLE
        )
        assert got == expected, sorted(D.arcs)


def test_induced_subdigraph_dimension_monotone():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(2, 6)
        D = random_digraph(rng, n)
        S = [v for v in range(n) if rng.random() < 0.7]
        sub = induced(D, S)
        assert dimension(sub).dimension <= dimension(D).dimension


def test_condensation_preserves_dimension():
    rng = random.Random(37)
    for _ in range(20):
        D = random_digraph(rng, rng.randrange(1, 6))
        assert dimension(D).dimension == dimension(condense(D).condensed).dimension


def test_acyclic_tournament_dimension_one():
    for n in (2, 3, 4):
        assert dimension(acyclic_tournament(n)).dimension == 1
    assert dimension(single_arc(2)).dimension == 1


def test_union_dimension_example():
    U = disjoint_union([single_arc(2), empty(1)])
    assert dimension(U).dimension == 2


@pytest.mark.parametrize("nranks, d", [(1, 3), (3, 0), (3, 3), (4, 2), (2, 4)])
def test_space_rows_match_naive_margins(nranks, d):
    space = _Space(nranks, d)
    vectors = space.vectors
    assert vectors == tuple(itertools.product(range(1, nranks + 1), repeat=d))
    for c, vc in enumerate(vectors):
        assert space.ties[c] == sum(1 << i for i in range(d - 1) if vc[i] == vc[i + 1])
        row = space.row(c)
        # need holds +-2 at every d, so every row has five entries; outside
        # d = 3 the +-2 entries are the +-1 ones, not copies of them.
        assert len(row) == 5
        if d != 3:
            assert row[2] is row[1] and row[-2] is row[-1]
        for x, vx in enumerate(vectors):
            m = naive_margin(vx, vc)
            apart = d != 3 or all(a != b for a, b in zip(vx, vc))
            for need in (0, 1, -1, 2, -2):
                sign = (need > 0) - (need < 0)
                expected = (m > 0) - (m < 0) == sign and (abs(need) < 2 or apart)
                assert row[need] >> x & 1 == expected, (vx, vc, need)


def test_plan_orbit_is_computed_once_per_plan(monkeypatch):
    calls = []

    def counting_orbit(D, first):
        calls.append(first)
        return _first_orbit(D, first)

    monkeypatch.setattr(solver, "_first_orbit", counting_orbit)
    plan = _Plan(cycle(5))
    assert calls == []
    assert plan.orbit is plan.orbit
    assert plan.orbit == (1, 2, 3, 4) and calls == [0]


def test_plan_orbit_read_by_threads_at_once_is_equal():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for D in [cycle(6), disjoint_union([cycle(4)] * 2), cyclic_tournament(7),
                  subset_family(4, 1)]:
            plan = _Plan(D)
            start = threading.Barrier(4)
            seen = []

            def read():
                start.wait()
                seen.append(plan.orbit)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == [_first_orbit(D, plan.order[0])] * 4
    finally:
        sys.setswitchinterval(interval)


def test_plan_need_is_the_naive_constraint_table():
    # need[u][w] is the required sign of margin(w, u): +-1 on every arc,
    # +-2 on both arcs of every induced two-path, at every d.
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(8)
        D = random_digraph(rng, n)
        need = [[0] * n for _ in range(n)]
        for u, v in D.arcs:
            need[v][u], need[u][v] = 1, -1
        for x, y, z in naive_induced_two_paths(D):
            for u, v in ((x, y), (y, z)):
                need[v][u], need[u][v] = 2, -2
        assert _plan(D).need == need, sorted(D.arcs)


@pytest.mark.parametrize("nranks, d", [(1, 2), (3, 0), (3, 1), (4, 2), (3, 3), (2, 4)])
def test_rank_compression_mask_matches_first_principles(nranks, d):
    # For every state a search can reach (each column's used values S with
    # at most left + 1 missing below max S) a vector is allowed exactly when
    # every column keeps at most left missing values below its maximum
    # once the vector's value joins S.
    space = _Space(nranks, d)
    width = nranks + 1
    pattern = (1 << max(d - 1, 0)) - 1
    value_sets = [frozenset(S) for k in range(nranks + 1)
                  for S in itertools.combinations(range(1, nranks + 1), k)]

    def missing(S):
        return max(S, default=0) - len(S)

    def ordered(tied, vx):
        return all(vx[i] <= vx[i + 1] for i in range(d - 1) if tied >> i & 1)

    for sets in itertools.product(value_sets, repeat=d):
        used = sum(1 << i * width + r for i, S in enumerate(sets) for r in S)
        for left in range(nranks - max(map(len, sets), default=0)):
            if any(missing(S) > left + 1 for S in sets):
                continue
            ceilings = sum(1 << i * width + len(S) + 1 + left for i, S in enumerate(sets))
            for tied in (0, pattern):
                mask = space.mask(tied, used, ceilings)
                for x, vx in enumerate(space.vectors):
                    expected = ordered(tied, vx) and all(
                        missing(S | {r}) <= left for S, r in zip(sets, vx)
                    )
                    assert mask >> x & 1 == expected, (sets, left, tied, vx)
    for tied in range(pattern + 1):
        column_order = space.mask(tied, 0, space.top)
        for x, vx in enumerate(space.vectors):
            assert column_order >> x & 1 == ordered(tied, vx), (tied, vx)
    assert len(space._masks) <= 4 * len(space.vectors)


def _is_compressed(witness):
    columns = zip(*witness.vectors.values())
    return all(set(col) == set(range(1, len(set(col)) + 1)) for col in columns)


def test_every_witness_is_rank_compressed():
    # At the last placement no vertex is left, so no column may keep a gap.
    rng = random.Random(61)
    cases = [(path(n), d) for n in range(2, 9) for d in (2, 3, 4)]
    cases += [(cycle(n), d) for n in range(3, 9) for d in (2, 3, 4)]
    cases += [(subset_family(3, 1), d) for d in (3, 4)]
    cases += [(random_digraph(rng, rng.randrange(1, 7)), d) for _ in range(100) for d in (2, 3, 4)]
    realizable = 0
    for D, d in cases:
        out = is_realizable(D, d)
        if out.verdict is Verdict.REALIZABLE:
            realizable += 1
            assert _is_compressed(out.witness), (D.n, sorted(D.arcs), d, out.witness)
    assert realizable > len(cases) // 2


def test_cycle10_d3_exhaustion_is_pinned():
    # The orbit rule's largest tier-1 exhaustion; 478,735 nodes without it.
    outcome = is_realizable(cycle(10), 3)
    assert (outcome.verdict, outcome.nodes_explored) == (Verdict.NOT_REALIZABLE, 86962)


def test_symmetric_searches_are_pinned():
    # Verdicts, node counts and witnesses of searches that bound the first
    # vertex's orbit, at d = 3-5, by one sha256.
    cases = [(cyclic_tournament(7), d) for d in range(2, 6)]
    cases += [(subset_family(4, 1), 4), (subset_family(4, 1), 5),
              (disjoint_union([cycle(4)] * 2), 3), (cycle(7), 3),
              (disjoint_union([cycle(3)] * 3), 3)]
    digest = hashlib.sha256()
    for D, d in cases:
        outcome = is_realizable(D, d)
        digest.update(repr((outcome.verdict, outcome.nodes_explored, outcome.witness)).encode())
    assert digest.hexdigest() == (
        "071027b692b66f7cd8564541b59ff0a37e4d83b412d3fa4f6b4b81ad9c94d145")


def test_search_does_not_depend_on_call_history():
    # The per-digraph plan and the spaces are cached; what a call returns
    # must not depend on which calls came before it.
    cases = [(cycle(6), 3), (cycle(5), 4), (subset_family(3, 1), 3), (cyclic_tournament(5), 4)]
    for D, d in cases:
        _plan.cache_clear()
        _space_for.cache_clear()
        expected = is_realizable(D, d)
        dimension(D)
        assert is_realizable(D, d) == expected
        for other in (4, 3, 2):
            is_realizable(D, other)
        assert is_realizable(D, d) == expected
        is_realizable(path(5), 3)
        assert is_realizable(D, d) == expected


def test_search_answers_the_same_under_concurrent_calls():
    # Threads share the per-digraph plan and the spaces; each call must
    # still return what it returns alone.
    cases = [(cycle(5), 3), (cycle(6), 2), (subset_family(3, 1), 3),
             (cyclic_tournament(5), 4), (path(5), 3)]
    expected = [is_realizable(D, d) for D, d in cases]
    mismatches = []

    def work(shift):
        for _ in range(3):
            for i in range(len(cases)):
                k = (i + shift) % len(cases)
                D, d = cases[k]
                _plan.cache_clear()
                if is_realizable(D, d) != expected[k]:
                    mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_solver_nodes_are_deterministic():
    a = is_realizable(cycle(4), 3)
    b = is_realizable(cycle(4), 3)
    assert a.nodes_explored == b.nodes_explored
    assert a.witness == b.witness


@pytest.mark.parametrize(
    "D, d, nodes",
    [
        (path(4), None, [0, 0, 25, 13]),
        (path(5), None, [0, 0, 51, 24]),
        (path(6), None, [0, 0, 94, 4428, 68]),
        (cycle(4), None, [0, 0, 10, 10]),
        (cycle(5), None, [0, 0, 15, 276, 38]),
        (cycle(6), None, [0, 0, 21, 1264, 14]),
        (path(8), 4, [4682]),
        (path(9), 4, [8584]),
        # Searches that bound the first vertex's orbit.
        (cyclic_tournament(7), None, [0, 0, 28, 5744, 10658, 8717]),
        (subset_family(4, 1), 4, [321]),
        (subset_family(4, 1), 5, [1400]),
        (disjoint_union([cycle(4)] * 2), 3, [24229]),
        (cycle(7), 3, [4467]),
    ],
    ids=["path4", "path5", "path6", "cycle4", "cycle5", "cycle6", "path8-d4", "path9-d4",
         "tournament7", "subset_family41-d4", "subset_family41-d5", "2cycle4-d3", "cycle7-d3"],
)
def test_solver_node_counts_are_pinned(D, d, nodes):
    # The search's own regression gate, level by level from d = 2; levels
    # 0 and 1 are settled by rules at 0 nodes.
    if d is None:
        got = [0, 0] + [is_realizable(D, level).nodes_explored for level in range(2, len(nodes))]
    else:
        got = [is_realizable(D, d).nodes_explored]
    assert got == nodes


_LOW = [("empty", 0), ("condensed_tournament", 0)]


@pytest.mark.parametrize(
    "D, levels",
    [
        (path(5), _LOW + [("transitivity", 0), ("ceiling", 0)]),
        (path(6), _LOW + [("transitivity", 0), ("obstruction", 6), ("ceiling", 0)]),
        (path(7), _LOW + [("transitivity", 0), ("obstruction", 6), ("ceiling", 0)]),
        (cycle(5), _LOW + [("transitivity", 0), ("obstruction", 5), ("ceiling", 0)]),
        (cycle(6), _LOW + [("transitivity", 0), ("obstruction", 60), ("ceiling", 0)]),
        (cycle(7), _LOW + [("transitivity", 0), ("obstruction", 6), ("ceiling", 0)]),
        (path(10), _LOW + [("transitivity", 0), ("obstruction", 6), ("ceiling", 0)]),
        (cycle(10), _LOW + [("transitivity", 0), ("obstruction", 6), ("ceiling", 0)]),
        (subset_family(3, 1), _LOW + [("obstruction", 6), ("search", 79)]),
    ],
    ids=["path5", "path6", "path7", "cycle5", "cycle6", "cycle7", "path10", "cycle10",
         "subset_family31"],
)
def test_dimension_decisions_are_pinned(D, levels):
    # (reason, nodes) per level: which rule settles it and what it costs.
    res = dimension(D)
    assert [(outcome.reason, outcome.nodes_explored) for _, outcome in res.per_d] == levels
    assert verify(D, res.witness).valid


@pytest.mark.parametrize(
    "D, d, nodes",
    [
        (path(5), None, [0, 0, 106, 24]),
        (path(6), None, [0, 0, 211, 24676, 71]),
        (cycle(5), None, [0, 0, 106, 3585, 147]),
        (cycle(6), None, [0, 0, 211, 24676, 68]),
        (path(8), 4, [38208]),  # 4096 vectors
        (path(9), 4, [61088]),  # 6561 vectors
    ],
    ids=["path5", "path6", "cycle5", "cycle6", "path8-d4", "path9-d4"],
)
def test_static_order_node_counts_are_pinned(D, d, nodes):
    # The fixed descending-degree order the search used before it went
    # fail-first; levels 0 and 1 are settled by shortcuts at 0 nodes.
    if d is None:
        got = [0, 0]
        for level in range(2, len(nodes)):
            got.append(static_order_search(D, level).nodes_explored)
    else:
        got = [static_order_search(D, d).nodes_explored]
    assert got == nodes


def _assert_same_verdict(D, d):
    new = is_realizable(D, d)
    old = static_order_search(D, d)
    assert new.verdict is old.verdict, (D.n, sorted(D.arcs), d)
    assert new.verdict is not Verdict.BUDGET_EXCEEDED
    for outcome in (new, old):
        if outcome.verdict is Verdict.REALIZABLE:
            assert outcome.witness.d == d
            assert verify(D, outcome.witness).valid


def test_fail_first_matches_static_order_on_small_digraphs():
    for n in range(5):
        for D in all_labeled_digraphs(n):
            for d in range(5):
                _assert_same_verdict(D, d)


def test_fail_first_matches_static_order_on_paths_and_cycles():
    for n in range(2, 9):
        for D in (path(n), cycle(n)) if n >= 3 else (path(n),):
            for d in (2, 3, 4):
                _assert_same_verdict(D, d)


def test_fail_first_matches_static_order_on_random_digraphs():
    rng = random.Random(53)
    for _ in range(200):
        D = random_digraph(rng, rng.randrange(1, 7))
        for d in (2, 3, 4):
            _assert_same_verdict(D, d)


_SYMMETRIC = (
    [(f"cycle({n})", cycle(n), (2, 3, 4)) for n in range(3, 10)]
    + [(f"cyclic_tournament({n})", cyclic_tournament(n), (2, 3, 4)) for n in (3, 5, 7)]
    + [("2 x cycle(3)", disjoint_union([cycle(3)] * 2), (2, 3, 4)),
       ("2 x cycle(4)", disjoint_union([cycle(4)] * 2), (2, 3, 4)),
       ("3 x cycle(3)", disjoint_union([cycle(3)] * 3), (2,)),
       ("3 x path(2)", disjoint_union([path(2)] * 3), (2, 3, 4)),
       ("2 x path(3)", disjoint_union([path(3)] * 2), (2, 3, 4)),
       ("2 x path(4)", disjoint_union([path(4)] * 2), (2, 3, 4)),
       ("3 x path(3)", disjoint_union([path(3)] * 3), (2, 3)),
       ("subset_family(3, 1)", subset_family(3, 1), (2, 3, 4))]
)


@pytest.mark.parametrize("name, D, levels", _SYMMETRIC, ids=[name for name, _, _ in _SYMMETRIC])
def test_orbit_rule_matches_static_order_on_symmetric_digraphs(name, D, levels):
    # Inputs whose first vertex has a nontrivial orbit, where the orbit rule
    # cuts; the static order runs without it.
    assert _first_orbit(D, _plan(D).order[0])
    for d in levels:
        _assert_same_verdict(D, d)
        outcome = is_realizable(D, d)
        if outcome.verdict is Verdict.REALIZABLE:
            assert _is_compressed(outcome.witness), (name, d, outcome.witness)


def _shuffled(D, rng):
    arcs = sorted(D.arcs)
    rng.shuffle(arcs)
    return build(D.n, arcs)


_FINGERPRINT_SCRIPT = """
from majdim import cycle, dimension, path, subset_family
for D in (path(7), cycle(7), subset_family(3, 1)):
    res = dimension(D)
    print([outcome.nodes_explored for _, outcome in res.per_d], sorted(res.witness.vectors.items()))
"""


def _fingerprint(D):
    res = dimension(D)
    return f"{[outcome.nodes_explored for _, outcome in res.per_d]} {sorted(res.witness.vectors.items())}"


def test_search_does_not_depend_on_arc_order_or_hash_seed():
    # Node counts are an exact regression gate, so neither the order in
    # which arcs arrive nor string hashing may move them.
    rng = random.Random(59)
    expected = []
    for D in (path(7), cycle(7), subset_family(3, 1)):
        fingerprint = _fingerprint(D)
        for _ in range(3):
            assert _fingerprint(_shuffled(D, rng)) == fingerprint, sorted(D.arcs)
        expected.append(fingerprint)
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", _FINGERPRINT_SCRIPT], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == expected, seed


def test_ceiling_answers_only_when_its_pairs_fit_the_budget():
    # Verifying path(6)'s ceiling compares 15 vertex pairs.  Below that
    # the ceiling still bounds the result from above.
    res = dimension(path(6), budget=15)
    assert res.dimension == 4 and res.per_d[-1][1].reason == "ceiling"
    res = dimension(path(6), budget=14)
    assert not res.known and (res.lower, res.upper) == (4, realize_path(6).d)
    assert res.per_d[-1][1] == SolveOutcome(Verdict.BUDGET_EXCEEDED, None, 14)


def test_family_ceiling_builds_one_realizer(monkeypatch):
    # Reading the ceiling builds realize_cycle's realizer alone; only the
    # ceiling rule moves its vectors onto D's labels.
    widths = []
    real = Realizer.__post_init__

    def counting(self):
        widths.append(self.d)
        real(self)

    monkeypatch.setattr(Realizer, "__post_init__", counting)
    assert deciders.Climb(cycle(20000), 0).ceiling == 4
    assert widths == [4]


def test_negated_witness_realizes_the_converse(hard_mode):
    # margin(-x, -y) = margin(y, x), so -f realizes D^T, D with every arc
    # reversed, exactly when f realizes D: the two climb alike, which lets
    # a sweep search one class of each converse pair.  Seven-vertex draws
    # take 10-20 s in all, dimension-5 digraphs 1-2 s each, so only --hard
    # draws them.
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randrange(4, 8 if hard_mode else 7)
        D = random_digraph(rng, n)
        T = converse(D)
        res = dimension(D, shortcuts=n > 5)
        f = res.witness
        assert verify(T, Realizer(f.d, {v: tuple(-x for x in vec)
                                        for v, vec in f.vectors.items()})).valid
        rev = dimension(T, shortcuts=n > 5)
        assert rev.known and rev.dimension == res.dimension
        assert [(d, o.verdict) for d, o in rev.per_d] == [(d, o.verdict) for d, o in res.per_d]


def _construction_width(D):
    """realize_path's or realize_cycle's width when D is a relabeled
    directed path or cycle, else generic_realizer's."""
    if D.arcs:
        families = [(path(D.n), realize_path)]
        if D.n >= 3:
            families.append((cycle(D.n), realize_cycle))
        for F, realize in families:
            if len(D.arcs) == len(F.arcs) and brute_canonical_code(D) == brute_canonical_code(F):
                return realize(D.n).d
    return generic_realizer(D).d


def test_every_unknown_result_is_bounded_by_the_construction():
    # Whether or not a ceiling's pairs fit the budget, and whether or not
    # every level is searched, the upper bound is the construction's width.
    rng = random.Random(26)
    cases = [D for n in range(5) for D in all_labeled_digraphs(n)]
    cases += [random_digraph(rng, rng.randrange(5, 8)) for _ in range(300)]
    unknown = 0
    for D in cases:
        width = _construction_width(D)
        for budget in (0, 5, 200):
            for shortcuts in (True, False):
                res = dimension(D, budget=budget, shortcuts=shortcuts)
                if not res.known:
                    unknown += 1
                    assert res.lower <= res.upper == width, (sorted(D.arcs), budget, shortcuts)
    assert unknown > len(cases)


def _matching(n):
    """n vertices, arcs 2i -> 2i + 1: transitive, and no rule settles d = 2."""
    return Digraph(n, frozenset((2 * i, 2 * i + 1) for i in range(n // 2)))


def test_space_beyond_size_limit_is_a_bounds_verdict():
    # The matching plus a directed two-path 2001 -> 2002 -> 2003 is
    # intransitive, which excludes d = 2; the d = 3 space of 2004^3
    # vectors is too large to build, and the ceiling is 4.
    D = Digraph(2004, _matching(2001).arcs | {(2001, 2002), (2002, 2003)})
    start = time.perf_counter()
    res = dimension(D)
    assert time.perf_counter() - start < 1.0
    assert not res.known and (res.lower, res.upper) == (3, 4)
    assert res.per_d[-1] == (3, SolveOutcome(Verdict.BUDGET_EXCEEDED, None, 0))


def test_matching_beyond_size_limit_is_two_by_ceiling():
    # No rule excludes d = 2 on a transitive matching, but its 1000 arcs
    # form one star forest, so the ceiling answers before the d = 2 space
    # of 2001^2 vectors would be built.
    res = dimension(_matching(2001))
    assert res.dimension == 2
    assert res.per_d[-1][1].reason == "ceiling"
    assert res.per_d[-1][1].nodes_explored == 0


def test_space_is_sized_by_the_bits_it_builds(monkeypatch):
    # single_arc(1000) at d = 2: a million vectors, but 2 * 2 * 1001 masks
    # of a million bits each, about 500 MB before the first node.
    # single_arc(2) at d = 20: a million tuples of 20 slots, 334 MB.
    # Neither space may be built.
    def never_built(nranks, d):
        raise AssertionError(f"_Space({nranks}, {d}) was built")

    monkeypatch.setattr("majdim.solver._space_for", never_built)
    for D, d in [(single_arc(1000), 2), (single_arc(2), 20)]:
        start = time.perf_counter()
        res = is_realizable(D, d, budget=100)
        assert time.perf_counter() - start < 1.0
        assert res == SolveOutcome(Verdict.BUDGET_EXCEEDED, None, 0)


@pytest.mark.parametrize("d, largest", [(1, 8191), (2, 322), (3, 68), (4, 27), (5, 15), (6, 10)])
def test_largest_space_searched_at_each_dimension(d, largest):
    assert _space_fits(largest, d) and not _space_fits(largest + 1, d)


def test_solver_runs_without_numpy():
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from majdim import cycle, dimension\n"
        "print(dimension(cycle(5)).dimension)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "4"


# --- chain / antichain utility ---------------------------------------------


def test_es_total_order_gives_chain():
    kind, witness = es_chain_or_antichain([(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
    assert kind == "chain" and len(witness) == 5


def test_es_antichain():
    kind, witness = es_chain_or_antichain([(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)])
    assert kind == "antichain" and len(witness) == 5


def test_es_single_point_and_empty():
    kind, witness = es_chain_or_antichain([(7, 9)])
    assert kind == "chain" and witness == [(7, 9)]
    with pytest.raises(PointError, match="^no points given$"):
        es_chain_or_antichain([])


def test_es_guarantee_on_ten_points():
    rng = random.Random(41)
    for _ in range(60):
        xs = rng.sample(range(50), 10)
        ys = rng.sample(range(50), 10)
        pts = list(zip(xs, ys))
        kind, witness = es_chain_or_antichain(pts)
        assert len(witness) >= 4
        assert set(witness) <= set(pts)
        for i, p in enumerate(witness):
            for q in witness[i + 1 :]:
                comparable = (p[0] <= q[0] and p[1] <= q[1]) or (
                    q[0] <= p[0] and q[1] <= p[1]
                )
                assert comparable == (kind == "chain")


def test_es_size_guarantee_scales():
    # among k*k + 1 points there is a chain or antichain of size k + 1
    rng = random.Random(43)
    for k in range(1, 6):
        for _ in range(20):
            m = k * k + 1
            xs = rng.sample(range(10 * m), m)
            ys = rng.sample(range(10 * m), m)
            _, witness = es_chain_or_antichain(list(zip(xs, ys)))
            assert len(witness) >= k + 1


def test_es_ties_prefer_chain():
    # longest chain 2 and largest level 2: the chain wins the tie
    kind, witness = es_chain_or_antichain([(1, 1), (2, 2), (3, 0)])
    assert kind == "chain" and witness == [(1, 1), (2, 2)]


@pytest.mark.parametrize(
    "points, message",
    [
        ([(1.7, 0.2), (True, "3")], "point (1.7, 0.2) has a non-integer coordinate"),
        ([(0, 0), (2.0, 1)], "point (2.0, 1) has a non-integer coordinate"),
        ([(0, 0), (1, False)], "point (1, False) has a non-integer coordinate"),
        ([(0, 0), ("1", 2)], "point ('1', 2) has a non-integer coordinate"),
        ([(0, 0), (1, None)], "point (1, None) has a non-integer coordinate"),
        ([(0, 0), (1, 2, 3)], "point (1, 2, 3) is not a pair of coordinates"),
        ([(0, 0), (1,)], "point (1,) is not a pair of coordinates"),
        ([(0, 0), 7], "point 7 is not a pair of coordinates"),
    ],
    ids=["float-and-bool", "float", "bool", "string", "none", "triple", "single", "scalar"],
)
def test_es_rejects_points_that_are_not_int_pairs(points, message):
    with pytest.raises(PointError, match=f"^{re.escape(message)}$"):
        es_chain_or_antichain(points)
    assert issubclass(PointError, ValueError)


def test_es_matches_quadratic_dp():
    # Two levels of 3 beat the chain of 2, and the lower level is reported.
    tie = [(1, 3), (2, 2), (3, 1), (4, 4), (5, 3), (6, 2)]
    assert es_chain_or_antichain(tie) == quadratic_es(tie) == ("antichain", tie[:3])
    # Small coordinate ranges force duplicate points and shared x or y.
    rng = random.Random(47)
    for _ in range(400):
        m = rng.randrange(1, 40)
        span = rng.choice([2, 4, 10, 1000])
        pts = [(rng.randrange(span), rng.randrange(-span, span)) for _ in range(m)]
        assert es_chain_or_antichain(pts) == quadratic_es(pts)
    # Hundreds of points over few values: long piles that share y values.
    for _ in range(12):
        m = rng.randrange(100, 401)
        span = rng.choice([3, 10, 50])
        pts = [(rng.randrange(span), rng.randrange(-span, span)) for _ in range(m)]
        assert es_chain_or_antichain(pts) == quadratic_es(pts)
