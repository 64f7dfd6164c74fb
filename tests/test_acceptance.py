"""Acceptance suite: one test per criterion, strict tolerances, no retries.

Budgets are node counts (default 10**7 here), so every run is
reproducible.  The conftest hook prints one PASS/FAIL line per criterion.
The d=3 exhaustions for the 10-vertex path and for subset_family(4, 1)
are stretch checks behind ``pytest --hard``.  For the path, running out of
budget is a legitimate outcome and is asserted to be reported as bounds,
never as a settled dimension.
"""

import itertools
import random
import time

import pytest

from majdim import (
    Digraph,
    Realizer,
    Verdict,
    acyclic_tournament,
    add_arc_realizer,
    build,
    condense,
    cycle,
    cycle_matrix,
    dimension,
    disjoint_union,
    empty,
    es_chain_or_antichain,
    generic_realizer,
    has_induced_two_path,
    induced,
    is_acyclic_tournament,
    is_realizable,
    is_transitive,
    majority_digraph,
    majority_margin,
    margin,
    path,
    realize_cycle,
    realize_path,
    realizer_to_profile,
    single_arc,
    subset_family,
    union_realizer,
    verify,
)
from helpers import (
    all_labeled_digraphs,
    cycle_matrix_failures,
    naive_realizable,
    pair_counts,
    random_digraph,
)

BUDGET = 10**7


def _timed_dimension(D, limit=10.0):
    t0 = time.monotonic()
    result = dimension(D, budget=BUDGET)
    assert time.monotonic() - t0 < limit
    assert result.known
    return result.dimension


def test_criterion_1_golden_dimensions():
    for k in range(6):
        assert _timed_dimension(empty(k)) == 0
    assert _timed_dimension(single_arc(2)) == 1
    for n in (2, 3, 4):
        assert _timed_dimension(acyclic_tournament(n)) == 1
    assert _timed_dimension(path(3)) == 3
    assert _timed_dimension(cycle(3)) == 3
    tournament3 = build(3, [(0, 1), (2, 1), (0, 2)])  # total order 0 > 2 > 1
    sub_two_path = build(3, [(0, 2), (2, 1)])  # its shortcut-free subdigraph
    assert _timed_dimension(tournament3) == 1
    assert _timed_dimension(sub_two_path) == 3
    union = disjoint_union([single_arc(2), empty(1)])
    assert _timed_dimension(union) == 2


def test_criterion_2_construction_soundness():
    t0 = time.monotonic()
    for n in range(1, 16):
        assert verify(path(n), realize_path(n)).valid
    for n in range(3, 13):
        assert verify(cycle(n), realize_cycle(n)).valid
    for n in range(4, 65):
        assert cycle_matrix_failures(n, cycle_matrix(n).entries) == []

    rng = random.Random(4242)
    for _ in range(200):
        D = random_digraph(rng, rng.randrange(1, 9))
        assert verify(D, generic_realizer(D)).valid

    compositions = 0
    while compositions < 200:
        if compositions % 2 == 0:
            k = rng.randrange(2, 5)
            parts = [random_digraph(rng, rng.randrange(1, 5)) for _ in range(k)]
            pairs = [(P, generic_realizer(P)) for P in parts]
            assert verify(disjoint_union(parts), union_realizer(pairs)).valid
        else:
            D = random_digraph(rng, rng.randrange(2, 7))
            free = [
                (u, v)
                for u in range(D.n)
                for v in range(D.n)
                if u != v and not D.adjacent(u, v)
            ]
            if not free:
                continue
            arc = free[rng.randrange(len(free))]
            g = add_arc_realizer(D, generic_realizer(D), arc)
            assert verify(Digraph(D.n, D.arcs | {arc}), g).valid
        compositions += 1
    assert time.monotonic() - t0 < 30.0


def test_criterion_3_structure_sweep_729():
    t0 = time.monotonic()
    count = 0
    for D in all_labeled_digraphs(4):
        count += 1
        searched = dimension(D, budget=BUDGET, shortcuts=False)
        fast = dimension(D, budget=BUDGET)
        assert searched.known and fast.known
        assert searched.dimension == fast.dimension
        dim = searched.dimension
        if dim <= 2:
            assert is_transitive(D), sorted(D.arcs)
            assert not has_induced_two_path(D), sorted(D.arcs)
        cr = condense(D)
        line = bool(cr.condensed.arcs) and is_acyclic_tournament(cr.condensed)
        assert (dim == 1) == line, sorted(D.arcs)
        assert (dim == 0) == (not D.arcs), sorted(D.arcs)
    assert count == 729
    assert time.monotonic() - t0 < 300.0


def test_criterion_4_bounds_properties():
    # cycle(4): d=3 is settled by its verified 3-coordinate ceiling with no
    # search; test_dimension_cycle4_settled_by_complete_search searches it.
    res = dimension(cycle(4), budget=BUDGET)
    assert res.dimension == 3
    d3 = dict(res.per_d)[3]
    assert d3.verdict is Verdict.REALIZABLE and d3.reason == "ceiling"

    rng = random.Random(77)
    checked = 0
    while checked < 100:
        D = random_digraph(rng, rng.randrange(2, 5))
        if not D.arcs:
            continue
        arc = sorted(D.arcs)[rng.randrange(len(D.arcs))]
        minus = Digraph(D.n, D.arcs - {arc})
        assert dimension(D, budget=BUDGET).dimension <= dimension(minus, budget=BUDGET).dimension + 2
        checked += 1

    for _ in range(40):
        A = random_digraph(rng, rng.randrange(1, 4))
        B = random_digraph(rng, rng.randrange(1, 4))
        da = dimension(A, budget=BUDGET).dimension
        db = dimension(B, budget=BUDGET).dimension
        d_max = max(da, db)
        du = dimension(disjoint_union([A, B]), budget=BUDGET).dimension
        assert d_max <= du <= 2 * ((d_max + 1) // 2)

    for _ in range(30):
        n = rng.randrange(2, 6)
        D = random_digraph(rng, n)
        S = [v for v in range(n) if rng.random() < 0.7]
        assert dimension(induced(D, S), budget=BUDGET).dimension <= dimension(D, budget=BUDGET).dimension

    for _ in range(30):
        D = random_digraph(rng, rng.randrange(1, 6))
        assert dimension(D, budget=BUDGET).dimension == dimension(condense(D).condensed, budget=BUDGET).dimension


def test_criterion_5_oracle_equivalence():
    count = 0
    for D in all_labeled_digraphs(3):
        count += 1
        for d in (0, 1, 2):
            got = is_realizable(D, d, budget=BUDGET).verdict is Verdict.REALIZABLE
            assert got == naive_realizable(D, d), (sorted(D.arcs), d)
    assert count == 27


def test_criterion_6a_transitive_family_generator():
    # desk-scale substitute for the unbounded-dimension construction
    for r in range(1, 7):
        for d in range(0, 3):
            if r < d + 1:
                continue
            D = subset_family(r, d)
            assert is_transitive(D)
            subsets = list(itertools.combinations(range(1, r + 1), d + 1))
            expected = {
                (i - 1, r + j) for j, S in enumerate(subsets) for i in S
            }
            assert D.arcs == expected
    D = subset_family(3, 1)
    assert is_realizable(D, 0, budget=BUDGET).verdict is Verdict.NOT_REALIZABLE
    assert is_realizable(D, 1, budget=BUDGET).verdict is Verdict.NOT_REALIZABLE


def test_criterion_6a_subset_family_dimension_three():
    # the transitive family's first member beyond dimension 2: d=2 is
    # exhausted and d=3 yields a verified witness
    D = subset_family(3, 1)
    res = dimension(D, budget=BUDGET)
    assert res.dimension == 3
    assert dict(res.per_d)[2].verdict is Verdict.NOT_REALIZABLE
    assert verify(D, res.witness).valid


def test_criterion_6a_subset_family_dimension_four_stretch(hard_mode):
    if not hard_mode:
        pytest.skip("stretch check: run with --hard")
    D = subset_family(4, 1)
    assert is_realizable(D, 3, budget=10**9).verdict is Verdict.NOT_REALIZABLE
    outcome = is_realizable(D, 4, budget=BUDGET)
    assert outcome.verdict is Verdict.REALIZABLE
    assert verify(D, outcome.witness).valid


def test_criterion_6b_ten_vertex_path_witness():
    # the 4-dimensional witness must verify; the d=3 lower-bound search is
    # the --hard stretch below
    f = realize_path(10)
    assert f.d == 4
    assert verify(path(10), f).valid


def test_criterion_6b_ten_vertex_path_lower_bound_stretch(hard_mode):
    if not hard_mode:
        pytest.skip("stretch check: run with --hard")
    outcome = is_realizable(path(10), 3, budget=10**9)
    assert outcome.verdict is not Verdict.REALIZABLE
    if outcome.verdict is Verdict.NOT_REALIZABLE:
        # exhaustion plus the verified witness settles the dimension at 4
        assert verify(path(10), realize_path(10)).valid
    else:
        # budget ran out: the aggregate answer must stay a bounds report
        res = dimension(path(10), budget=10**9)
        assert not res.known
        assert res.lower <= 4 <= res.upper


def test_criterion_7_margin_parity_invariants():
    t0 = time.monotonic()
    rng = random.Random(99)
    for _ in range(10**4):
        d = rng.randrange(0, 7)
        x = tuple(rng.randrange(-3, 5) for _ in range(d))
        y = tuple(rng.randrange(-3, 5) for _ in range(d))
        m = margin(x, y)
        assert m == -margin(y, x)
        assert abs(m) <= d
        wins, losses, eq = pair_counts(x, y)
        assert wins + losses + eq == d and m == wins - losses
        if d % 2 == 1 and m == 0:
            assert eq % 2 == 1
    assert time.monotonic() - t0 < 5.0


def test_criterion_8_profiles():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 6)
        d = rng.randrange(1, 5)
        f = Realizer(d, {v: tuple(rng.randrange(0, 5) for _ in range(d)) for v in range(n)})
        R = realizer_to_profile(f)
        for a in range(n):
            for b in range(n):
                assert margin(f.vectors[a], f.vectors[b]) == majority_margin(R, a, b)

    from majdim import Profile, profile_to_realizer

    condorcet = Profile(3, ((3, 2, 1), (1, 3, 2), (2, 1, 3)))
    assert majority_digraph(condorcet) == cycle(3)

    for _ in range(50):
        m = rng.randrange(1, 5)
        voters = tuple(
            tuple(rng.randrange(0, 4) for _ in range(m))
            for _ in range(rng.randrange(1, 4))
        )
        R = Profile(m, voters)
        back = realizer_to_profile(profile_to_realizer(R))
        for a in range(m):
            for b in range(m):
                assert majority_margin(back, a, b) == majority_margin(R, a, b)


def test_criterion_9_erdos_szekeres():
    rng = random.Random(55)
    for _ in range(500):
        xs = rng.sample(range(1000), 10)
        ys = rng.sample(range(1000), 10)
        pts = list(zip(xs, ys))
        kind, witness = es_chain_or_antichain(pts)
        assert len(witness) >= 4
        assert set(witness) <= set(pts)
        for i, p in enumerate(witness):
            for q in witness[i + 1 :]:
                comparable = (p[0] <= q[0] and p[1] <= q[1]) or (
                    q[0] <= p[0] and q[1] <= p[1]
                )
                if kind == "chain":
                    assert comparable
                else:
                    assert not comparable
