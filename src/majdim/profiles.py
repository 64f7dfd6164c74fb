"""Voter profiles, majority margins, and the realizer correspondence.

A profile is a tuple of voter orders over alternatives 0..m-1, each voter
a total preorder encoded as a rank list (higher rank = more preferred,
equal ranks = indifference).  The majority margin of a over b counts the
voters strictly preferring a minus those strictly preferring b; arcs of
the majority digraph are the positive margins.

A d-dimensional realizer is the same data seen sideways: coordinate i is
voter i's rank list, and the weak majority margin of two vectors equals
the majority margin of the corresponding alternatives.  Only strict
preference counts enter the margin, which is why ties are harmless.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .digraph import Digraph, bits
from .realizer import Realizer, RealizerError, lane_signs, margin, margin_lanes, strict_json_loads


class ProfileError(ValueError):
    """Invalid profile data: a bad alternative count or rank, an alternative
    outside 0..m-1, or a realizer that gives no profile."""


@dataclass(frozen=True)
class Profile:
    """Voter rank lists over alternatives 0..alternatives-1.

    The alternative count and every rank must be `int`; floats, strings
    and booleans raise ProfileError rather than being coerced.  The count
    may not exceed sys.maxsize, the most items any sequence can hold.
    """

    alternatives: int
    voters: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if type(self.alternatives) is not int:
            raise ProfileError(f"alternative count must be an integer, got {self.alternatives!r}")
        if self.alternatives < 0:
            raise ProfileError(f"negative alternative count {self.alternatives}")
        if self.alternatives > sys.maxsize:
            raise ProfileError(f"alternative count {self.alternatives} exceeds sys.maxsize")
        voters = tuple(tuple(voter) for voter in self.voters)
        for i, voter in enumerate(voters):
            if any(type(r) is not int for r in voter):
                raise ProfileError(f"voter {i} has a non-integer rank: {list(voter)!r}")
            if len(voter) != self.alternatives:
                raise ProfileError(
                    f"voter {i} ranks {len(voter)} alternatives, expected {self.alternatives}"
                )
        object.__setattr__(self, "voters", voters)


def majority_margin(R: Profile, a: int, b: int) -> int:
    """#{voters preferring a to b} - #{voters preferring b to a}, the
    margin of a's ranks over b's, read voter by voter."""
    m = R.alternatives
    if not (0 <= a < m and 0 <= b < m):
        raise ProfileError(f"alternatives must lie in 0..{m - 1}")
    return margin([voter[a] for voter in R.voters], [voter[b] for voter in R.voters])


def majority_digraph(R: Profile) -> Digraph:
    """Digraph with an arc a -> b exactly when the margin of a over b is
    positive.  Antisymmetry of the margin keeps the underlying graph
    simple.

    The margins come from margin_lanes on the transposed voters, one
    vector per alternative, and the arcs out of a are the positive lanes
    of a's row.  Without voters every margin is 0 and there are no arcs,
    which is answered without building a lane per alternative."""
    d = len(R.voters)
    if not d:
        return Digraph(R.alternatives, frozenset())
    w, rows = margin_lanes(list(zip(*R.voters)))
    guard, gt, _ = lane_signs(R.alternatives, d, w)
    arcs = [(a, bit // w) for a, row in enumerate(rows) for bit in bits(row + gt & guard)]
    return Digraph(R.alternatives, frozenset(arcs))


def majority_margins(R: Profile) -> list[list[int]]:
    """The matrix of majority_margin(R, a, b), row a, column b.

    Lane b of margin_lanes' row a holds d + margin(a, b) in w bits, and
    lane 0 is the last w digits of the row written in binary, so each
    row is decoded from one binary string.  Without voters every margin
    is 0.  A matrix of more than sys.maxsize entries raises ProfileError
    before anything is allocated."""
    m, d = R.alternatives, len(R.voters)
    if m * m > sys.maxsize:
        raise ProfileError(f"the {m}x{m} margin matrix exceeds sys.maxsize entries")
    if not d:
        return [[0] * m for _ in range(m)]
    w, rows = margin_lanes(list(zip(*R.voters)))
    margins = []
    for row in rows:
        digits = format(row, f"0{m * w}b")
        margins.append([int(digits[i:i + w], 2) - d for i in range((m - 1) * w, -1, -w)])
    return margins


def realizer_to_profile(f: Realizer) -> Profile:
    """Read coordinate i of a realizer as voter i's rank list.

    For every vertex pair the weak majority margin of the vectors equals
    the majority margin of the resulting profile.  The m keys must be the
    vertices 0..m-1; a realizer without vertices gives d empty voters.
    """
    if f.d == 0:
        raise ProfileError("a 0-dimensional realizer induces no voters")
    m = len(f.vectors)
    try:
        vecs = f.vertex_vectors(m)
    except RealizerError:
        raise ProfileError("realizer vertices must be exactly 0..m-1") from None
    return Profile(m, tuple(zip(*vecs)) if vecs else ((),) * f.d)


def profile_to_realizer(R: Profile) -> Realizer:
    """Give alternative a the vector of its ranks, one coordinate per voter.

    Without voters every alternative gets the empty vector."""
    if not R.voters:
        return Realizer(0, dict.fromkeys(range(R.alternatives), ()))
    return Realizer(len(R.voters), dict(enumerate(zip(*R.voters))))


# --- JSON format: {"alternatives": m, "voters": [[rank per alternative], ...]}


def profile_to_json(R: Profile) -> str:
    return json.dumps(
        {"alternatives": R.alternatives, "voters": [list(v) for v in R.voters]}
    )


def profile_from_json(text: str) -> Profile:
    data = strict_json_loads(text, ProfileError)
    if not isinstance(data, dict) or "alternatives" not in data or "voters" not in data:
        raise ProfileError("profile JSON needs 'alternatives' and 'voters' fields")
    try:
        return Profile(data["alternatives"], tuple(tuple(v) for v in data["voters"]))
    except TypeError:
        raise ProfileError("profile JSON has malformed 'voters'")
