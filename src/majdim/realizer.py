"""Integer coordinate vectors under the weak majority relation.

A vector x beats y when strictly more coordinates of x exceed y's than the
other way around; equal coordinates count for neither side.  `margin`
returns the signed difference, so x beats y iff margin(x, y) > 0 and the
pair is incomparable iff the margin is 0.

Coordinates are plain integers.  The relation only depends on the
per-coordinate order, so any real-valued assignment can be rank-compressed
to integers without changing a single comparison; integer coordinates make
equality tests exact.  Dimension 0 is legal: every vertex maps to the empty
vector and all margins are 0.

All pairwise margins of n vectors come from one kernel, `margin_lanes`:
vertex u gets one Python int of n counters, w bits each, and one pass per
coordinate adds to it u's wins and ties against every other vertex at
once (SIMD within a register).  `verify`, the majority digraph and the
margin matrix of a profile read their signs or values from these lanes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import NamedTuple, Sequence

from .digraph import Digraph, bits


class RealizerError(ValueError):
    """Invalid realizer data or incompatible operands: vectors of different
    lengths, a missing vertex, or a dimension out of range."""


def margin(x: Sequence[int], y: Sequence[int]) -> int:
    """#{i : x_i > y_i} - #{i : y_i > x_i}; positive means x beats y."""
    if len(x) != len(y):
        raise RealizerError(f"vector lengths differ: {len(x)} vs {len(y)}")
    wins = 0
    losses = 0
    for a, b in zip(x, y):
        if a > b:
            wins += 1
        elif b > a:
            losses += 1
    return wins - losses


@dataclass(frozen=True)
class Realizer:
    """Map from vertices to d-dimensional integer vectors.

    d, the vertex keys and the coordinates must be `int`; floats, strings
    and booleans raise RealizerError rather than being coerced.  d may not
    exceed sys.maxsize, the most items any sequence can hold.
    """

    d: int
    vectors: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        if type(self.d) is not int:
            raise RealizerError(f"dimension must be an integer, got {self.d!r}")
        if self.d < 0:
            raise RealizerError(f"dimension must be nonnegative, got {self.d}")
        if self.d > sys.maxsize:
            raise RealizerError(f"dimension {self.d} exceeds sys.maxsize")
        vecs = {v: tuple(vec) for v, vec in self.vectors.items()}
        # The types of the keys and coordinates and the lengths of the
        # vectors, in one set: a valid realizer's holds only int and d.  Only
        # a failing one is walked vertex by vertex, to name the bad vertex.
        if not {*map(type, vecs), *map(type, chain.from_iterable(vecs.values())),
                *map(len, vecs.values())} <= {int, self.d}:
            for v, vec in vecs.items():
                if type(v) is not int or any(type(c) is not int for c in vec):
                    raise RealizerError(
                        f"vertex {v!r} has a non-integer key or coordinate: {vec!r}")
                if len(vec) != self.d:
                    raise RealizerError(
                        f"vertex {v} has a {len(vec)}-vector in a d={self.d} realizer")
        object.__setattr__(self, "vectors", vecs)

    def vertex_vectors(self, n: int) -> list[tuple[int, ...]]:
        """The vectors of vertices 0..n-1, in order.

        This is how every consumer reads a realizer of an n-vertex
        digraph: keys outside 0..n-1 are ignored, and the first vertex
        without a vector raises RealizerError.
        """
        try:
            return [self.vectors[v] for v in range(n)]
        except KeyError as exc:
            raise RealizerError(f"no vector for vertex {exc.args[0]}") from None


class Violation(NamedTuple):
    u: int
    v: int
    expected: str  # "u>v", "v>u", or "tie"
    margin: int


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[Violation, ...]


def margin_lanes(vectors: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """All pairwise margins of the vectors, packed w bits to a lane.

    Returns (w, rows): lane v of rows[u], bits v*w .. v*w + w - 1, holds
    d + margin(vectors[u], vectors[v]), a value in 0..2d, and
    w = (2d).bit_length() + 1 keeps the top bit of every lane clear.

    Each coordinate is one column pass.  The vertices tied at a value are
    summed as one int of unit lanes, one walk over the sorted values gives
    each value the step 2*below + eq, and every row adds the step of its
    own value.  Lane v of u's step is 2, 1 or 0 as v lies below, level
    with or above u there, so after d passes it holds 2*wins + ties =
    d + wins - losses.  The cost is d*(n + #distinct values) dict and
    list steps plus d*n additions of n*w-bit ints.
    """
    lengths = set(map(len, vectors))
    if len(lengths) > 1:
        raise RealizerError(f"vector lengths differ: {sorted(lengths)}")
    d = lengths.pop() if lengths else 0
    w = (2 * d).bit_length() + 1
    units = [1 << v * w for v in range(len(vectors))]
    rows = [0] * len(vectors)
    for col in zip(*vectors):
        step: dict[int, int] = {}
        for value, unit in zip(col, units):
            if value in step:
                step[value] |= unit
            else:
                step[value] = unit
        below = 0
        for value in sorted(step):
            eq = step[value]
            step[value] = below << 1 | eq
            below |= eq
        rows = list(map(add, rows, map(step.__getitem__, col)))
    return w, rows


def lane_signs(n: int, d: int, w: int) -> tuple[int, int, int]:
    """(guard, gt, ge) for n lanes of w bits that hold d + margin.

    guard has the top bit of every lane.  (row + gt) & guard keeps the
    guard bits of the lanes whose margin is positive, (row + ge) & guard
    those whose margin is nonnegative: the lane value d + m reaches the
    top bit, 2^(w-1) > 2d, exactly when m > 0 (m >= 0), and never carries
    into the next lane.
    """
    top = 1 << w - 1
    ones = ((1 << n * w) - 1) // ((1 << w) - 1)
    return top * ones, (top - 1 - d) * ones, (top - d) * ones


def verify(D: Digraph, f: Realizer) -> VerifyReport:
    """Check that arcs coincide exactly with positive margins.

    For every pair u < v the margin of f(u) against f(v) must be positive
    when (u, v) is an arc, negative when (v, u) is, and zero otherwise.
    The margins come from margin_lanes; each row's positive and negative
    lanes are compared at once with the lanes of u's out- and
    in-neighbours, and only the lanes v > u whose margin has the wrong
    sign are decoded into Violations, in (u, v) order.
    """
    w, rows = margin_lanes(f.vertex_vectors(D.n))
    guard, gt, ge = lane_signs(D.n, f.d, w)
    top = 1 << w - 1
    win = [0] * D.n
    loss = [0] * D.n
    for u, v in D.arcs:
        win[u] |= top << v * w
        loss[v] |= top << u * w
    lane = (1 << w) - 1
    violations: list[Violation] = []
    for u, row in enumerate(rows):
        pos = row + gt & guard
        neg = row + ge & guard ^ guard
        bad = (pos ^ win[u] | neg ^ loss[u]) >> (u + 1) * w
        if not bad:
            continue
        for bit in bits(bad):
            v = u + 1 + bit // w
            expected = "u>v" if D.out[u] >> v & 1 else "v>u" if D.into[u] >> v & 1 else "tie"
            violations.append(Violation(u, v, expected, (row >> v * w & lane) - f.d))
    return VerifyReport(not violations, tuple(violations))


class SelfCheckFailed(RuntimeError):
    """A result of the package failed its own re-check: a bug, never bad input."""


def verified(D: Digraph, f: Realizer, source: str) -> Realizer:
    """f, once `verify` has confirmed that it realizes D.

    Every witness the package builds or finds passes here before it is
    returned or printed; one that fails raises SelfCheckFailed naming its
    source.
    """
    if not verify(D, f).valid:
        raise SelfCheckFailed(f"{source} produced an invalid witness")
    return f


def normalize(f: Realizer) -> Realizer:
    """Rank-compress each coordinate to 1..#distinct values.

    Per-coordinate order is preserved, hence so is every pairwise margin
    and every verify verdict.
    """
    if not f.vectors or f.d == 0:
        return f
    keys = sorted(f.vectors)
    cols: list[dict[int, int]] = []
    for i in range(f.d):
        values = sorted({f.vectors[v][i] for v in keys})
        cols.append({val: rank for rank, val in enumerate(values, start=1)})
    vecs = {
        v: tuple(cols[i][f.vectors[v][i]] for i in range(f.d)) for v in keys
    }
    return Realizer(f.d, vecs)


def extend_dims(f: Realizer, r: int) -> Realizer:
    """Pad every vector with zeros up to dimension r (r >= f.d).

    Appended coordinates are equal across vertices, so they join neither
    win set and all margins are unchanged.
    """
    if r < f.d:
        raise RealizerError(f"cannot extend d={f.d} realizer down to {r}")
    if r == f.d:
        return f
    pad = (0,) * (r - f.d)
    return Realizer(r, {v: vec + pad for v, vec in f.vectors.items()})


# --- JSON format ------------------------------------------------------------
#
# {"d": <int>, "vectors": {"<vertex>": [<ints>], ...}} with decimal vertex
# keys; emission orders keys numerically so output is byte-stable.


def strict_json_loads(text: str, error: type[ValueError]):
    """json.loads that raises `error` on a repeated key and on an integer
    longer than int() converts (sys.get_int_max_str_digits() digits).

    Plain json.loads keeps the last of two equal keys and drops the other
    value without a word, and raises a bare ValueError for the long integer.
    """

    def hook(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            keys = [k for k, _ in pairs]
            repeated = sorted({k for k in keys if keys.count(k) > 1})
            raise error(f"JSON object repeats key(s) {repeated}")
        return obj

    try:
        return json.loads(text, object_pairs_hook=hook)
    except (json.JSONDecodeError, error):
        raise
    except ValueError as exc:
        raise error(f"JSON number not readable: {exc}") from None


def realizer_to_json(f: Realizer) -> str:
    vectors = {str(v): list(f.vectors[v]) for v in sorted(f.vectors)}
    return json.dumps({"d": f.d, "vectors": vectors})


def realizer_from_json(text: str) -> Realizer:
    data = strict_json_loads(text, RealizerError)
    if not isinstance(data, dict) or "d" not in data or "vectors" not in data:
        raise RealizerError("realizer JSON needs 'd' and 'vectors' fields")
    try:
        vectors = {int(k): tuple(v) for k, v in data["vectors"].items()}
    except (TypeError, ValueError, AttributeError):
        raise RealizerError("realizer JSON has malformed 'vectors'")
    if {str(v) for v in vectors} != set(data["vectors"]):
        raise RealizerError("realizer JSON vertex keys must be distinct decimal integers")
    return Realizer(data["d"], vectors)
