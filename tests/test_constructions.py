import hashlib
import random
import re
import sys

import pytest

from majdim import (
    ConstructionError,
    CycleMatrix,
    Digraph,
    DigraphError,
    Realizer,
    acyclic_tournament,
    add_arc_realizer,
    arc_cover,
    build,
    check_cycle_matrix,
    condense,
    condense_lift,
    cycle,
    cycle_matrix,
    disjoint_union,
    empty,
    generic_realizer,
    margin,
    path,
    realize_acyclic_tournament,
    realize_cycle,
    realize_empty,
    realize_path,
    realizer_to_json,
    single_arc,
    star_forests,
    subset_family,
    union_realizer,
    verify,
)
from majdim.constructions import _PATH_FIVE, _two_voters
from helpers import (
    all_labeled_digraphs,
    cycle_matrix_failures,
    naive_matching_number,
    random_digraph,
)


def test_realize_empty():
    f = realize_empty(empty(3))
    assert f.d == 0 and f.vectors == {0: (), 1: (), 2: ()}
    assert verify(empty(3), f).valid
    assert realize_empty(empty(1)).d == 0
    with pytest.raises(ConstructionError, match="^digraph has 1 arcs$"):
        realize_empty(path(2))


def test_realize_acyclic_tournament_positions():
    D = acyclic_tournament(3)
    f = realize_acyclic_tournament(D)
    assert f.d == 1
    # vertex k sits at position k + 1 of the winning order
    assert f.vectors == {0: (1,), 1: (2,), 2: (3,)}
    assert verify(D, f).valid


def test_realize_two_tournament():
    D = single_arc(2)
    f = realize_acyclic_tournament(D)
    assert f.vectors == {0: (2,), 1: (1,)}
    assert verify(D, f).valid


def test_realize_tournament_errors():
    with pytest.raises(ConstructionError,
                       match="^tournament out-degrees are not pairwise distinct$"):
        realize_acyclic_tournament(cycle(3))
    with pytest.raises(ConstructionError, match="^3 vertices need 3 arcs$"):
        realize_acyclic_tournament(path(3))


def test_add_arc_to_empty_uses_two_coordinates():
    f = add_arc_realizer(empty(3), realize_empty(empty(3)), (0, 1))
    assert f.vectors == {0: (2, 3), 1: (1, 2), 2: (3, 1)}
    assert verify(single_arc(3), f).valid


def test_add_arc_second_arc():
    base = build(4, [(0, 1)])
    f = Realizer(2, {0: (2, 3), 1: (1, 2), 2: (3, 1), 3: (3, 1)})
    g = add_arc_realizer(base, f, (2, 3))
    assert g.d == 4
    assert g.vectors == {
        0: (2, 3, 0, 1),
        1: (1, 2, 0, 1),
        2: (3, 1, 2, 0),
        3: (3, 1, 1, 0),
    }
    assert verify(build(4, [(0, 1), (2, 3)]), g).valid


def test_add_arc_rejects_adjacent_endpoints():
    f = realize_path(3)
    with pytest.raises(ConstructionError, match=r"^\(0, 1\) already an arc of the base$"):
        add_arc_realizer(path(3), f, (0, 1))
    with pytest.raises(DigraphError, match=r"^both \((0, 1|1, 0)\) and \((1, 0|0, 1)\) present$"):
        add_arc_realizer(path(3), f, (1, 0))
    with pytest.raises(DigraphError, match="^loop at vertex 1$"):
        add_arc_realizer(path(3), f, (1, 1))


@pytest.mark.parametrize("arc", [(True, 0), (1.0, 0), (1, False)])
def test_add_arc_rejects_an_arc_equal_to_a_base_arc_only_by_coercion(arc):
    # (True, 0) == (1, 0): the new arc must fail as a non-integer endpoint,
    # not merge into the base arc and read as "already an arc".
    base = build(2, [(1, 0)])
    with pytest.raises(DigraphError, match="has a non-integer endpoint$"):
        add_arc_realizer(base, Realizer(1, {0: (1,), 1: (2,)}), arc)


def test_add_arc_rejects_bad_base():
    junk = Realizer(1, {0: (1,), 1: (1,), 2: (1,)})
    with pytest.raises(ConstructionError,
                       match="^realizer does not verify against the base digraph$"):
        add_arc_realizer(path(3), junk, (0, 2))


def test_union_arc_plus_isolated_vertex():
    parts = [(single_arc(2), Realizer(1, {0: (2,), 1: (1,)})),
             (empty(1), Realizer(0, {0: ()}))]
    f = union_realizer(parts)
    assert f.d == 2  # 2 * floor((1 + 1) / 2)
    U = disjoint_union([single_arc(2), empty(1)])
    assert verify(U, f).valid


def test_union_of_empties_is_zero_dimensional():
    parts = [(empty(2), realize_empty(empty(2))), (empty(2), realize_empty(empty(2)))]
    f = union_realizer(parts)
    assert f.d == 0
    assert verify(empty(4), f).valid


def test_union_path_and_cycle():
    parts = [(path(3), realize_path(3)), (cycle(3), realize_cycle(3))]
    f = union_realizer(parts)
    assert f.d == 4
    assert verify(disjoint_union([path(3), cycle(3)]), f).valid


def test_union_cross_pairs_split_evenly():
    parts = [(path(3), realize_path(3)), (cycle(3), realize_cycle(3))]
    f = union_realizer(parts)
    gamma = f.d // 2
    for u in range(3):
        for v in range(3, 6):
            x, y = f.vectors[u], f.vectors[v]
            wins = sum(a > b for a, b in zip(x, y))
            losses = sum(b > a for a, b in zip(x, y))
            assert wins == losses == gamma


def test_constructions_ignore_keys_beyond_the_digraph():
    # verify ignores the vector at key 2 of a 2-vertex realizer; so must
    # every construction that takes one
    arc = Realizer(1, {0: (2,), 1: (1,), 2: (5,)})
    f = union_realizer([(single_arc(2), arc), (path(3), realize_path(3))])
    assert sorted(f.vectors) == list(range(5))
    assert verify(disjoint_union([single_arc(2), path(3)]), f).valid
    base = build(3, [(0, 1)])
    padded = Realizer(2, {**generic_realizer(base).vectors, 3: (9, 9)})
    g = add_arc_realizer(base, padded, (0, 2))
    assert sorted(g.vectors) == [0, 1, 2] and verify(build(3, [(0, 1), (0, 2)]), g).valid
    D = build(3, [(0, 1), (0, 2)])
    lifted = condense_lift(D, condense(D), arc)
    assert sorted(lifted.vectors) == [0, 1, 2] and verify(D, lifted).valid


def _mcgarvey_fold(D):
    """McGarvey's two coordinates per arc: add_arc_realizer folded over
    the sorted arcs, starting from realize_empty."""
    f = realize_empty(empty(D.n))
    current = empty(D.n)
    for arc in D.sorted_arcs():
        f = add_arc_realizer(current, f, arc)
        current = Digraph(D.n, current.arcs | {arc})
    return f


def _random_union_parts(rng):
    # McGarvey realizers under order-preserving coordinate maps plus zero
    # padding: odd and even d, negative coordinates, empty and 0-d parts
    parts = []
    for _ in range(rng.randrange(2, 5)):
        D = random_digraph(rng, rng.randrange(0, 6))
        f = _mcgarvey_fold(D)
        scale = [rng.randrange(1, 4) for _ in range(f.d)]
        shift = [rng.randrange(-5, 6) for _ in range(f.d)]
        pad = (0,) * rng.randrange(3)
        vecs = {v: tuple(a * c + b for a, b, c in zip(scale, shift, vec)) + pad
                for v, vec in f.vectors.items()}
        parts.append((D, Realizer(f.d + len(pad), vecs)))
    return parts


# sha256 of the JSON of union_realizer over 600 seeded part lists, one
# line each; the witness bytes of `realize union` must not change.
UNION_DIGEST = "8cd3e9151de9ab1b090be1232ceea5dab8978fb0a90b268e7392eacceef4bb6b"


def test_union_output_digest():
    rng = random.Random(12)
    h = hashlib.sha256()
    for _ in range(600):
        parts = _random_union_parts(rng)
        f = union_realizer(parts)
        assert verify(disjoint_union([D for D, _ in parts]), f).valid
        h.update(realizer_to_json(f).encode() + b"\n")
    assert h.hexdigest() == UNION_DIGEST


def test_union_errors():
    with pytest.raises(ConstructionError, match="^need at least 2 parts, got 1$"):
        union_realizer([(empty(1), realize_empty(empty(1)))])
    with pytest.raises(ConstructionError,
                       match="^part realizer does not verify against its digraph$"):
        union_realizer([
            (path(2), Realizer(0, {0: (), 1: ()})),
            (empty(1), realize_empty(empty(1))),
        ])


def test_condense_lift_shared_sink_vector():
    D = build(3, [(0, 1), (0, 2)])
    cr = condense(D)
    f_star = Realizer(1, {0: (2,), 1: (1,)})
    g = condense_lift(D, cr, f_star)
    assert g.vectors == {0: (2,), 1: (1,), 2: (1,)}
    assert verify(D, g).valid


def test_condense_lift_identity_when_classes_singleton():
    D = acyclic_tournament(3)
    cr = condense(D)
    f_star = realize_acyclic_tournament(cr.condensed)
    g = condense_lift(D, cr, f_star)
    assert g == f_star
    assert verify(D, g).valid


def test_condense_lift_empty():
    D = empty(4)
    g = condense_lift(D, condense(D), realize_empty(condense(D).condensed))
    assert g.d == 0 and set(g.vectors) == {0, 1, 2, 3}


def test_condense_lift_errors():
    D = build(3, [(0, 1), (0, 2)])
    other = condense(path(3))
    with pytest.raises(ConstructionError, match="^condensation data does not match the digraph$"):
        condense_lift(D, other, realize_path(3))
    with pytest.raises(ConstructionError,
                       match="^realizer does not verify against the condensed digraph$"):
        condense_lift(D, condense(D), Realizer(1, {0: (1,), 1: (1,)}))


def test_realize_path_goldens():
    assert realize_path(1).d == 0
    assert realize_path(2).vectors == {0: (2,), 1: (1,)}
    # A prefix of a path is an induced subpath: path(3) takes the first
    # three of path(5)'s vectors.
    assert realize_path(3).vectors == {0: (2, 1, 4), 1: (1, 2, 3), 2: (3, 1, 2)}
    assert realize_path(3).vectors == dict(enumerate(_PATH_FIVE[:3]))
    assert realize_path(5).vectors == {
        0: (2, 1, 4),
        1: (1, 2, 3),
        2: (3, 1, 2),
        3: (2, 2, 1),
        4: (1, 1, 5),
    }
    # n >= 6: the first n rows of the (n + 1)-cycle matrix, the 7-cycle's
    # odd layout for 6 and the 8-cycle's even one for 7, so 6 is no
    # prefix of 7.
    six = {0: (4, 6, 1, 5), 1: (2, 5, 5, 4), 2: (7, 2, 4, 3), 3: (6, 1, 7, 2),
           4: (5, 4, 6, 1), 5: (3, 3, 3, 7)}
    seven = {0: (2, 8, 1, 7), 1: (1, 7, 4, 6), 2: (4, 6, 3, 5), 3: (3, 5, 6, 4),
             4: (6, 4, 5, 3), 5: (5, 3, 8, 2), 6: (8, 2, 7, 1)}
    assert realize_path(6).vectors == six
    assert realize_path(7).vectors == seven
    for n, vectors in ((6, six), (7, seven)):
        assert list(vectors.values()) == list(cycle_matrix(n + 1).entries[:n])
    with pytest.raises(DigraphError, match=r"^realize_path\(0\)$"):
        realize_path(0)


@pytest.mark.parametrize("construct", [realize_path, realize_cycle, cycle_matrix])
@pytest.mark.parametrize("n", [3.0, 4.0, True, "4"])
def test_constructions_reject_non_integer_sizes(construct, n):
    with pytest.raises(DigraphError, match=f"^{construct.__name__}\\({re.escape(repr(n))}\\)"):
        construct(n)


@pytest.mark.parametrize("n", range(1, 16))
def test_realize_path_verifies(n):
    f = realize_path(n)
    assert f.d == {1: 0, 2: 1, 3: 3, 4: 3, 5: 3}.get(n, 4)
    assert verify(path(n), f).valid


def test_realize_path_is_the_leading_rows_of_the_next_cycle_matrix():
    # CycleMatrix re-checks all five conditions, so each path witness is
    # the prefix of a checked matrix.
    for n in range(6, 65):
        assert realize_path(n).vertex_vectors(n) == list(cycle_matrix(n + 1).entries[:n])


def test_cycle_matrix_base_case():
    entries = cycle_matrix(4).entries
    assert entries == ((2, 4, 1, 3), (1, 3, 4, 2), (4, 2, 3, 1), (3, 1, 2, 4))
    # The hand-typed 4-cycle matrix of earlier versions, rotated by one row.
    earlier = ((3, 1, 2, 4), (2, 4, 1, 3), (1, 3, 4, 2), (4, 2, 3, 1))
    assert entries == tuple(earlier[(i + 1) % 4] for i in range(4))
    with pytest.raises(DigraphError, match=r"^cycle_matrix\(3\): need n >= 4$"):
        cycle_matrix(3)


@pytest.mark.parametrize("value", [4.5, 4.0, "4"])
def test_cycle_matrix_rejects_non_integer_entries(value):
    rows = [list(row) for row in cycle_matrix(4).entries]
    assert rows[0][1] == 4
    rows[0][1] = value
    with pytest.raises(ConstructionError):
        CycleMatrix(4, tuple(tuple(row) for row in rows))
    with pytest.raises(ConstructionError):
        check_cycle_matrix(4, rows)


@pytest.mark.parametrize("shorten", ["drop-row", "short-row"])
def test_cycle_matrix_rejects_wrong_shapes(shorten):
    rows = [list(row) for row in cycle_matrix(4).entries]
    if shorten == "drop-row":
        rows.pop()
    else:
        rows[2].pop()
    with pytest.raises(ConstructionError, match="^expected 4 rows of 4 entries$"):
        CycleMatrix(4, tuple(tuple(row) for row in rows))
    with pytest.raises(ConstructionError, match="^expected 4 rows of 4 entries$"):
        check_cycle_matrix(4, rows)


def test_add_arc_realizer_rejects_vertices_outside_the_digraph():
    with pytest.raises(DigraphError, match=r"^arc \(0, 5\) outside 0\.\.1$"):
        add_arc_realizer(path(2), realize_path(2), (0, 5))


@pytest.mark.parametrize("arc", [(True, 0), (0.0, 1)], ids=["bool", "float"])
def test_add_arc_realizer_rejects_non_integer_endpoints(arc):
    # The extended Digraph checks the arc, so True is not read as vertex 1.
    message = f"arc {arc!r} has a non-integer endpoint"
    with pytest.raises(DigraphError, match=f"^{re.escape(message)}$"):
        add_arc_realizer(empty(2), realize_empty(empty(2)), arc)


@pytest.mark.parametrize("n", [4.0, True, False, "4", None, -1, 0])
def test_cycle_matrix_rejects_bad_row_counts(n):
    entries = cycle_matrix(4).entries
    with pytest.raises(ConstructionError, match="row count"):
        CycleMatrix(n, entries)
    with pytest.raises(ConstructionError, match="row count"):
        check_cycle_matrix(n, entries)


def _first_failing_pair_message(failures):
    """check_cycle_matrix's message for the helper's first failure, if a row pair."""
    found = re.match(r"(consecutive|distant) rows \((\d+), (\d+)\)", failures[0])
    if found is None:
        return None
    kind, i, j = found[1], int(found[2]), int(found[3])
    condition = "consecutive pair is not 3-1" if kind == "consecutive" else "distant pair is not 2-2"
    return f"rows {i + 1}, {j + 1}: {condition}"


def test_cycle_matrix_check_matches_independent_checker():
    # Cycle matrices with up to two column values swapped with their rank
    # neighbour (which keeps (i) and (ii)), plus random 1-3 row matrices.
    rng = random.Random(53)
    seen = {"ok": 0, "consecutive": 0, "distant": 0}
    for _ in range(1200):
        n = rng.randrange(1, 13)
        if n < 4:
            rows = [rng.sample(range(1, 20), 4) for _ in range(n)]
        else:
            rows = [list(row) for row in cycle_matrix(n).entries]
        for _ in range(rng.randrange(0, 3) if n >= 4 else 0):
            k, t = rng.randrange(4), rng.randrange(n - 1)
            order = sorted(range(n), key=lambda r: rows[r][k])
            a, b = order[t], order[t + 1]
            rows[a][k], rows[b][k] = rows[b][k], rows[a][k]
        failures = cycle_matrix_failures(n, rows)
        if not failures:
            check_cycle_matrix(n, rows)
            seen["ok"] += 1
            continue
        with pytest.raises(ConstructionError) as err:
            check_cycle_matrix(n, rows)
        expected = _first_failing_pair_message(failures)
        if expected is not None:
            assert str(err.value) == expected
            seen[failures[0].split(" ", 1)[0]] += 1
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("n", list(range(4, 65)))
def test_cycle_matrix_conditions_independent_checker(n):
    cm = cycle_matrix(n)
    assert cycle_matrix_failures(n, cm.entries) == []


def test_cycle_matrix_goldens():
    # 5 and 7 take the odd layout, 7 the first with a pair cluster in its
    # first block; 6 takes the even one.
    assert cycle_matrix(5).entries == (
        (4, 4, 1, 3), (2, 3, 5, 2), (5, 2, 4, 1), (3, 1, 3, 5), (1, 5, 2, 4))
    assert cycle_matrix(6).entries == (
        (2, 6, 1, 5), (1, 5, 4, 4), (4, 4, 3, 3), (3, 3, 6, 2), (6, 2, 5, 1), (5, 1, 2, 6))
    assert cycle_matrix(7).entries == (
        (4, 6, 1, 5), (2, 5, 5, 4), (7, 2, 4, 3), (6, 1, 7, 2), (5, 4, 6, 1), (3, 3, 3, 7),
        (1, 7, 2, 6))


def test_cycle_matrix_columns_are_ranks():
    for n in range(4, 65):
        entries = cycle_matrix(n).entries
        for k in range(4):
            assert sorted(row[k] for row in entries) == list(range(1, n + 1))


def test_two_voters_split_clusters_and_follow_local_orders():
    # Random partitions of 0..n-1 into clusters with random local orders:
    # a pair from two clusters has margin 0, and a pair inside one cluster
    # gets +1 or -1 from each local order.
    rng = random.Random(1959)
    for _ in range(300):
        n = rng.randrange(1, 12)
        vertices = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), rng.randrange(0, n)))
        parts = [vertices[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        clusters = [(part, rng.sample(part, len(part))) for part in parts]
        xs, ys = _two_voters(n, clusters)
        assert sorted(xs) == sorted(ys) == list(range(1, n + 1))
        where = {v: (t, x.index(v), y.index(v)) for t, (x, y) in enumerate(clusters) for v in x}
        for u in range(n):
            for v in range(n):
                (s, xu, yu), (t, xv, yv) = where[u], where[v]
                want = 0 if s != t else (xu < xv) - (xu > xv) + (yu < yv) - (yu > yv)
                assert margin((xs[u], ys[u]), (xs[v], ys[v])) == want


def test_realize_cycle_goldens():
    f = realize_cycle(3)
    assert f.vectors == {0: (1, 2, 3), 1: (3, 1, 2), 2: (2, 3, 1)}
    assert verify(cycle(3), f).valid
    f4 = realize_cycle(4)
    assert f4.vectors == {0: (1, 2, 3), 1: (4, 1, 2), 2: (3, 2, 1), 3: (2, 1, 4)}
    assert verify(cycle(4), f4).valid
    with pytest.raises(DigraphError, match=r"^realize_cycle\(2\): need n >= 3$"):
        realize_cycle(2)


@pytest.mark.parametrize("n", range(3, 13))
def test_realize_cycle_verifies(n):
    assert verify(cycle(n), realize_cycle(n)).valid


def test_realize_cycle_margins():
    n = 7
    f = realize_cycle(n)
    for i in range(n):
        assert margin(f.vectors[i], f.vectors[(i + 1) % n]) == 2
    for i in range(n):
        for j in range(i + 2, n):
            if (i, j) != (0, n - 1):
                assert margin(f.vectors[i], f.vectors[j]) == 0


def test_generic_realizer_examples():
    assert generic_realizer(empty(4)).d == 0
    f = generic_realizer(path(3))
    assert f.d == 4
    assert verify(path(3), f).valid
    g = generic_realizer(cycle(3))
    assert g.d == 6
    assert verify(cycle(3), g).valid


def test_generic_realizer_path3_golden():
    assert _mcgarvey_fold(path(3)).vectors == {0: (2, 3, 0, 1), 1: (1, 2, 2, 0), 2: (3, 1, 1, 0)}


def test_generic_realizer_equals_add_arc_fold():
    # The fold appends McGarvey's columns directly: for the k-th sorted arc
    # (u, v), u's pair, v's pair and every other vertex's pair are
    # (2, 3), (1, 2), (3, 1) for the first arc, with no earlier coordinates,
    # and (2, 0), (1, 0), (0, 1) for each later one.
    rng = random.Random(1953)
    for _ in range(200):
        D = random_digraph(rng, rng.randrange(0, 13))
        coords = [[] for _ in range(D.n)]
        for k, (u, v) in enumerate(D.sorted_arcs()):
            pairs = ((2, 0), (1, 0), (0, 1)) if k else ((2, 3), (1, 2), (3, 1))
            for w, col in enumerate(coords):
                col += pairs[0] if w == u else pairs[1] if w == v else pairs[2]
        want = Realizer(2 * len(D.arcs), {w: tuple(col) for w, col in enumerate(coords)})
        assert _mcgarvey_fold(D) == want


def test_generic_realizer_dimension_is_twice_arc_count():
    rng = random.Random(5)
    for _ in range(40):
        D = random_digraph(rng, rng.randrange(1, 7))
        f = _mcgarvey_fold(D)
        assert f.d == (2 * len(D.arcs) if D.arcs else 0)
        assert verify(D, f).valid


# sha256 of the JSON of generic_realizer over 400 seeded digraphs, half
# of them thinned to sparse ones, one line each; the witness bytes of
# `realize generic` must not change.
GENERIC_DIGEST = "bf4373f82e72e7fcbfdb86950a4fed3f9b7921c2c07dcbe34e41526001e8b849"


def test_generic_realizer_output_digest():
    rng = random.Random(3918)
    h = hashlib.sha256()
    for _ in range(400):
        D = random_digraph(rng, rng.randrange(0, 17))
        if rng.random() < 0.5:
            D = build(D.n, [a for a in D.sorted_arcs() if rng.random() < 0.3])
        f = generic_realizer(D)
        assert verify(D, f).valid
        h.update(realizer_to_json(f).encode() + b"\n")
    assert h.hexdigest() == GENERIC_DIGEST


def _check_cover_realizer(D):
    tails, heads = arc_cover(D)
    assert tails == sorted(set(tails)) and heads == sorted(set(heads))
    assert all(u in tails or v in heads for u, v in D.arcs)
    nu = naive_matching_number(D)
    assert len(tails) + len(heads) == nu
    f = generic_realizer(D)
    assert f.d == 2 * len(star_forests(D)) <= 2 * nu
    assert verify(D, f).valid


@pytest.mark.parametrize("n", range(5))
def test_generic_realizer_is_twice_matching_number_on_every_small_digraph(n):
    for D in all_labeled_digraphs(n):
        _check_cover_realizer(D)


def test_generic_realizer_is_twice_matching_number_on_random_digraphs():
    rng = random.Random(1959)
    for _ in range(300):
        _check_cover_realizer(random_digraph(rng, rng.randrange(0, 13)))


@pytest.mark.parametrize("D, d", [(subset_family(4, 1), 4), (subset_family(5, 1), 4),
                                  (cycle(10), 4)],
                         ids=["subset_family(4, 1)", "subset_family(5, 1)", "cycle(10)"])
def test_generic_realizer_widths(D, d):
    f = generic_realizer(D)
    assert f.d == d and verify(D, f).valid


def _check_star_forests(D):
    # Read each star as its arcs, without the voters or verify: the stars
    # of a forest share no vertex, the stars of all forests hold every arc
    # of D exactly once, and there are at most nu forests.
    forests = star_forests(D)
    held = []
    for forest in forests:
        assert forest
        seen = 0
        for center, leaves, out in forest:
            assert leaves and not leaves >> center & 1
            star = leaves | 1 << center
            assert not seen & star
            seen |= star
            held += [(center, v) if out else (v, center)
                     for v in range(D.n) if leaves >> v & 1]
    assert sorted(held) == D.sorted_arcs()
    assert len(forests) <= naive_matching_number(D)


@pytest.mark.parametrize("n", range(5))
def test_star_forests_pack_every_arc_once_on_every_small_digraph(n):
    for D in all_labeled_digraphs(n):
        _check_star_forests(D)


def test_star_forests_pack_every_arc_once_on_random_digraphs():
    rng = random.Random(1992)
    for _ in range(300):
        _check_star_forests(random_digraph(rng, rng.randrange(0, 13)))


def test_generic_realizer_on_a_random_tournament_beats_twice_its_vertex_count():
    # Two voters per cover vertex would take 2 * nu = 600 coordinates here.
    rng = random.Random(300)
    D = build(300, [(u, v) if rng.random() < 0.5 else (v, u)
                    for u in range(300) for v in range(u + 1, 300)])
    f = generic_realizer(D)
    assert sum(map(len, arc_cover(D))) == naive_matching_number(D) == 300
    assert f.d == 350 and verify(D, f).valid


def test_arc_cover_follows_long_augmenting_paths_without_recursion():
    # An oriented path s -> h0 <- t0 -> h1 <- t1 -> ... <- t1498 -> h1499
    # on 3,000 vertices, plus the chord h1499 -> s.  Tails t_i = i come
    # before s = 1499 and each takes its lower head h_i = 1500 + i, so the
    # only augmenting path from s runs through every t_i to h1499.
    k = 1499
    arcs = [(k, 1500)] + [(i, 1500 + j) for i in range(k) for j in (i, i + 1)]
    D = build(3000, arcs + [(2999, k)])
    assert sys.getrecursionlimit() < D.n
    tails, heads = arc_cover(D)
    assert len(tails) + len(heads) == 1501
    assert all(u in tails or v in heads for u, v in D.arcs)


def test_randomized_construction_soundness():
    # the master property: every construction's output verifies
    rng = random.Random(2024)
    for _ in range(60):
        D = random_digraph(rng, rng.randrange(1, 13))
        assert verify(D, generic_realizer(D)).valid
    for _ in range(30):
        k = rng.randrange(2, 5)
        parts = [random_digraph(rng, rng.randrange(1, 5)) for _ in range(k)]
        pairs = [(P, generic_realizer(P)) for P in parts]
        assert verify(disjoint_union(parts), union_realizer(pairs)).valid
    for _ in range(30):
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
    for _ in range(30):
        D = random_digraph(rng, rng.randrange(1, 9))
        cr = condense(D)
        lifted = condense_lift(D, cr, generic_realizer(cr.condensed))
        assert verify(D, lifted).valid
