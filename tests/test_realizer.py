import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from majdim import (
    Realizer,
    RealizerError,
    build,
    cycle,
    extend_dims,
    margin,
    margin_lanes,
    normalize,
    path,
    realizer_from_json,
    realizer_to_json,
    verify,
)
from helpers import naive_margin, naive_violations, pair_counts, random_digraph

P3_REALIZER = Realizer(3, {0: (1, 2, 3), 1: (3, 1, 2), 2: (2, 0, 3)})
C3_REALIZER = Realizer(3, {0: (1, 2, 3), 1: (3, 1, 2), 2: (2, 3, 1)})


def test_margin_examples():
    assert margin((1, 2, 3), (3, 1, 2)) == 1
    assert margin((5, 0, 7), (5, 0, 7)) == 0
    assert margin((1, 2, 3), (2, 0, 3)) == 0
    assert margin((), ()) == 0


def test_margin_dimension_mismatch():
    with pytest.raises(RealizerError, match="^vector lengths differ: 2 vs 3$"):
        margin((1, 2), (1, 2, 3))


def test_verify_path3():
    assert verify(path(3), P3_REALIZER).valid


def test_verify_cycle3():
    assert verify(cycle(3), C3_REALIZER).valid


def test_verify_strict_domination_fails():
    f = Realizer(2, {0: (2, 2), 1: (1, 1), 2: (0, 0)})
    report = verify(path(3), f)
    assert not report.valid
    bad = [v for v in report.violations if (v.u, v.v) == (0, 2)]
    assert bad and bad[0].expected == "tie" and bad[0].margin == 2


@settings(max_examples=300)
@example([])
@example([()])
@example([(), (), ()])
@example([(4, -1)])
@example([(10**30, -10**30), (-10**30, 10**30), (10**30, 10**30), (-10**30, -10**30)])
@example([(10**30, 0, -10**30), (10**30 + 1, -1, -10**30), (10**30, 1, 1 - 10**30)])
@example([(0,) * 1000, (1,) * 1000, (2,) * 1000])  # every margin is +-d, w = 12
@given(st.integers(0, 6).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=9)
))
def test_margin_lanes_match_naive_margins(vectors):
    n = len(vectors)
    d = len(vectors[0]) if vectors else 0
    w, rows = margin_lanes(vectors)
    assert w == (2 * d).bit_length() + 1
    assert len(rows) == n
    lane = (1 << w) - 1
    for u, row in enumerate(rows):
        assert 0 <= row < 1 << n * w
        for v in range(n):
            value = row >> v * w & lane
            assert value < 1 << w - 1, "the top bit of every lane stays clear"
            assert value - d == naive_margin(vectors[u], vectors[v])


def test_margin_lanes_reject_ragged_vectors():
    with pytest.raises(RealizerError, match=r"^vector lengths differ: \[2, 3\]$"):
        margin_lanes([(1, 2), (1, 2, 3)])


def test_verify_violations_match_naive_reference_in_order():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(0, 10)
        d = rng.randrange(0, 5)
        D = random_digraph(rng, n)
        extra = rng.randrange(3)  # vertices beyond D.n are ignored
        vecs = {v: tuple(rng.randrange(-2, 3) for _ in range(d)) for v in range(n + extra)}
        report = verify(D, Realizer(d, vecs))
        expected = naive_violations(D, vecs)
        assert [tuple(w) for w in report.violations] == expected
        assert report.valid == (not expected)


def test_verify_missing_vertex():
    with pytest.raises(RealizerError, match="^no vector for vertex 2$"):
        verify(path(3), Realizer(1, {0: (1,), 1: (2,)}))
    # vertex_vectors names the first missing vertex and ignores keys beyond n
    f = Realizer(1, {0: (1,), 1: (2,), 3: (4,), 7: (0,)})
    with pytest.raises(RealizerError, match="^no vector for vertex 2$"):
        f.vertex_vectors(5)
    with pytest.raises(RealizerError, match="^no vector for vertex 0$"):
        Realizer(1, {1: (2,)}).vertex_vectors(2)
    assert f.vertex_vectors(2) == [(1,), (2,)]
    assert f.vertex_vectors(0) == []


def test_realizer_rejects_ragged_vectors():
    with pytest.raises(RealizerError, match="^vertex 1 has a 1-vector in a d=2 realizer$"):
        Realizer(2, {0: (1, 2), 1: (3,)})


@pytest.mark.parametrize(
    "d, vectors",
    [(1, {0: (1.7,)}), (1, {0: ("1",)}), (1, {0: (True,)}), ("1", {0: (1,)}),
     (True, {0: (1,)}), (1, {"0": (1,)})],
)
def test_realizer_accepts_integers_only(d, vectors):
    with pytest.raises(RealizerError):
        Realizer(d, vectors)


def test_normalize_rank_compresses():
    f = Realizer(1, {0: (10,), 1: (3,), 2: (3,)})
    assert normalize(f).vectors == {0: (2,), 1: (1,), 2: (1,)}


def test_normalize_fixes_ranks():
    assert normalize(C3_REALIZER) == C3_REALIZER


def test_normalize_path3_by_column_rule():
    # per column: [1,3,2] -> itself, [2,1,0] -> [3,2,1], [3,2,3] -> [2,1,2]
    g = normalize(P3_REALIZER)
    assert g.vectors == {0: (1, 3, 2), 1: (3, 2, 1), 2: (2, 1, 2)}
    assert verify(path(3), g).valid


def test_extend_dims_pads_with_zeros():
    f = Realizer(1, {0: (1,), 1: (2,)})
    assert extend_dims(f, 3).vectors == {0: (1, 0, 0), 1: (2, 0, 0)}
    assert extend_dims(f, 1) is f
    with pytest.raises(RealizerError, match="^cannot extend d=1 realizer down to 0$"):
        extend_dims(f, 0)


def test_negative_dimension_is_refused():
    with pytest.raises(RealizerError, match="^dimension must be nonnegative, got -1$"):
        Realizer(-1, {})


def test_extend_dims_preserves_path_verification():
    assert verify(path(3), extend_dims(P3_REALIZER, 5)).valid


vectors = st.integers(-4, 6)


@given(st.integers(0, 5).flatmap(
    lambda d: st.tuples(st.tuples(*[vectors] * d), st.tuples(*[vectors] * d))
))
def test_margin_antisymmetric(pair):
    x, y = pair
    assert margin(x, y) == -margin(y, x)


@given(st.integers(0, 6).flatmap(
    lambda d: st.tuples(st.tuples(*[vectors] * d), st.tuples(*[vectors] * d))
))
def test_margin_accounting_identity(pair):
    x, y = pair
    wins, losses, eq = pair_counts(x, y)
    d = len(x)
    assert wins + losses + eq == d
    m = margin(x, y)
    assert m == wins - losses
    assert abs(m) <= d
    assert (m - (d - eq)) % 2 == 0


def test_odd_dimension_zero_margin_has_odd_equal_count():
    rng = random.Random(3)
    hits = 0
    while hits < 400:
        d = rng.choice([1, 3, 5])
        x = tuple(rng.randrange(4) for _ in range(d))
        y = tuple(rng.randrange(4) for _ in range(d))
        if margin(x, y) != 0:
            continue
        hits += 1
        _, _, eq = pair_counts(x, y)
        assert eq % 2 == 1


@st.composite
def digraph_with_realizer(draw):
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    D = random_digraph(rng, n)
    d = draw(st.integers(0, 4))
    f = Realizer(d, {v: tuple(rng.randrange(-2, 4) for _ in range(d)) for v in range(n)})
    return D, f


@settings(max_examples=150)
@given(digraph_with_realizer())
def test_normalize_preserves_verify_verdict(case):
    D, f = case
    assert verify(D, f).valid == verify(D, normalize(f)).valid


@settings(max_examples=150)
@given(digraph_with_realizer(), st.integers(0, 3))
def test_extend_preserves_verify_verdict(case, extra):
    D, f = case
    assert verify(D, f).valid == verify(D, extend_dims(f, f.d + extra)).valid


def test_json_roundtrip_bit_exact():
    text = realizer_to_json(P3_REALIZER)
    again = realizer_from_json(text)
    assert again == P3_REALIZER
    assert realizer_to_json(again) == text
    assert json.loads(text)["vectors"]["2"] == [2, 0, 3]


def test_json_rejects_garbage():
    from majdim import RealizerError
    with pytest.raises(RealizerError):
        realizer_from_json('{"vectors": {"0": [1]}}')
    with pytest.raises(RealizerError):
        realizer_from_json('{"d": 1, "vectors": [1, 2]}')
    with pytest.raises(RealizerError):
        realizer_from_json('{"d": 1, "vectors": {"0": [2], "1": [1], "01": [0]}}')
