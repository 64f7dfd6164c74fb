import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from majdim import (
    Profile,
    ProfileError,
    Realizer,
    RealizerError,
    acyclic_tournament,
    build,
    cycle,
    majority_digraph,
    majority_margin,
    majority_margins,
    margin,
    profile_from_json,
    profile_to_json,
    profile_to_realizer,
    realizer_to_profile,
    verify,
)
from helpers import naive_majority_arcs

# a > b > c; b > c > a; c > a > b
CONDORCET = Profile(3, ((3, 2, 1), (1, 3, 2), (2, 1, 3)))

C3_REALIZER = Realizer(3, {0: (1, 2, 3), 1: (3, 1, 2), 2: (2, 3, 1)})


def test_majority_margin_condorcet():
    assert majority_margin(CONDORCET, 0, 1) == 1
    assert majority_margin(CONDORCET, 1, 2) == 1
    assert majority_margin(CONDORCET, 2, 0) == 1


def test_majority_margin_self_and_single_voter():
    assert majority_margin(CONDORCET, 1, 1) == 0
    single = Profile(2, ((2, 1),))
    assert majority_margin(single, 0, 1) == 1


def test_majority_margin_unknown_alternative():
    with pytest.raises(ProfileError, match=r"^alternatives must lie in 0\.\.2$"):
        majority_margin(CONDORCET, 0, 3)


def test_majority_digraph_condorcet_cycle():
    assert majority_digraph(CONDORCET) == cycle(3)


def test_majority_digraph_unanimity():
    # three identical voters ranking 2 > 1 > 0
    R = Profile(3, ((1, 2, 3),) * 3)
    assert majority_digraph(R) == acyclic_tournament(3)


def test_majority_digraph_opposed_voters_cancel():
    R = Profile(3, ((1, 2, 3), (3, 2, 1)))
    assert majority_digraph(R).arcs == frozenset()


def test_realizer_to_profile_c3():
    R = realizer_to_profile(C3_REALIZER)
    assert R.voters == ((1, 3, 2), (2, 1, 3), (3, 2, 1))
    assert majority_digraph(R) == cycle(3)


def test_realizer_to_profile_constant_realizer():
    f = Realizer(2, {0: (1, 1), 1: (1, 1), 2: (1, 1)})
    assert majority_digraph(realizer_to_profile(f)).arcs == frozenset()


def test_realizer_to_profile_zero_dimension():
    with pytest.raises(ProfileError, match="^a 0-dimensional realizer induces no voters$"):
        realizer_to_profile(Realizer(0, {0: ()}))


def test_realizer_to_profile_needs_dense_vertices():
    with pytest.raises(ProfileError):
        realizer_to_profile(Realizer(1, {0: (1,), 2: (2,)}))


def test_profile_to_realizer_condorcet():
    f = profile_to_realizer(CONDORCET)
    assert f.d == 3
    assert verify(cycle(3), f).valid


def test_profile_to_realizer_unanimous_and_indifferent():
    unanimous = Profile(3, ((1, 2, 3),) * 3)
    assert verify(acyclic_tournament(3), profile_to_realizer(unanimous)).valid
    indifferent = Profile(3, ((5, 5, 5), (2, 2, 2)))
    f = profile_to_realizer(indifferent)
    assert all(
        margin(f.vectors[a], f.vectors[b]) == 0 for a in range(3) for b in range(3)
    )


def test_profile_to_realizer_without_voters_or_alternatives():
    assert profile_to_realizer(Profile(3, ())) == Realizer(0, {0: (), 1: (), 2: ()})
    assert profile_to_realizer(Profile(0, ((), ()))) == Realizer(2, {})
    assert profile_to_realizer(Profile(0, ())) == Realizer(0, {})


def _random_realizer(rng, n, d):
    return Realizer(d, {v: tuple(rng.randrange(0, 5) for _ in range(d)) for v in range(n)})


def test_margin_identity_random_realizers():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randrange(1, 6)
        d = rng.randrange(1, 5)
        f = _random_realizer(rng, n, d)
        R = realizer_to_profile(f)
        for a in range(n):
            for b in range(n):
                assert margin(f.vectors[a], f.vectors[b]) == majority_margin(R, a, b)


def test_roundtrip_preserves_margins():
    rng = random.Random(103)
    for _ in range(50):
        m = rng.randrange(1, 5)
        voters = tuple(
            tuple(rng.randrange(0, 4) for _ in range(m)) for _ in range(rng.randrange(0, 4))
        )
        R = Profile(m, voters)
        back = realizer_to_profile(profile_to_realizer(R)) if voters else None
        for a in range(m):
            for b in range(m):
                want = majority_margin(R, a, b)
                got = majority_margin(back, a, b) if back else 0
                assert got == want


@settings(max_examples=200)
@given(st.integers(0, 8), st.integers(0, 5), st.data())
def test_majority_digraph_always_validates(m, nv, data):
    voters = tuple(
        tuple(data.draw(st.integers(-2, 3)) for _ in range(m)) for _ in range(nv)
    )
    D = majority_digraph(Profile(m, voters))
    assert build(D.n, sorted(D.arcs)) == D  # full validation passes
    assert D.n == m and D.arcs == naive_majority_arcs(m, voters)


def test_majority_digraph_and_margins_match_majority_margin():
    rng = random.Random(109)
    shapes = [(0, 0), (1, 0), (1, 1), (1, 4), (5, 0), (0, 3)]
    shapes += [(rng.randrange(0, 9), rng.randrange(0, 7)) for _ in range(200)]
    for m, nv in shapes:
        scale = rng.choice([1, 3, 10**30])
        voters = tuple(tuple(rng.randrange(-scale, scale + 1) for _ in range(m)) for _ in range(nv))
        R = Profile(m, voters)
        D = majority_digraph(R)
        assert D.n == m
        margins = [[majority_margin(R, a, b) for b in range(m)] for a in range(m)]
        assert majority_margins(R) == margins
        assert D.arcs == {(a, b) for a in range(m) for b in range(m) if margins[a][b] > 0}


def test_counts_beyond_any_sequence_are_refused():
    with pytest.raises(ProfileError):
        Profile(sys.maxsize + 1, ())
    with pytest.raises(RealizerError):
        Realizer(sys.maxsize + 1, {})
    assert Profile(sys.maxsize, ()).alternatives == sys.maxsize
    assert Realizer(sys.maxsize, {}).d == sys.maxsize
    # A count that fits a sequence can still square past one.
    for m in (10**15, sys.maxsize):
        with pytest.raises(ProfileError, match="margin matrix"):
            majority_margins(Profile(m, ()))


def test_profile_validation():
    with pytest.raises(ProfileError):
        Profile(3, ((1, 2),))


def test_negative_alternative_count_is_refused():
    with pytest.raises(ProfileError, match="negative alternative count -1"):
        Profile(-1, ())


@pytest.mark.parametrize("voters", ["5", "[5]"], ids=["number", "list-of-numbers"])
def test_profile_json_malformed_voters(voters):
    with pytest.raises(ProfileError, match="malformed 'voters'"):
        profile_from_json(f'{{"alternatives": 1, "voters": {voters}}}')


@pytest.mark.parametrize(
    "alternatives, voters",
    [(2, ((1.5, 1),)), (2, (("abc", 1),)), (2, ((True, 1),)), (2.0, ((2, 1),)), (True, ((1,),))],
)
def test_profile_accepts_integers_only(alternatives, voters):
    with pytest.raises(ProfileError):
        Profile(alternatives, voters)


def test_profile_json_roundtrip():
    text = profile_to_json(CONDORCET)
    assert profile_from_json(text) == CONDORCET
    with pytest.raises(ProfileError):
        profile_from_json('{"voters": [[1]]}')
