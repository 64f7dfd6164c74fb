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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .digraph import Digraph, bits


class RealizerError(ValueError):
    """Invalid realizer data or incompatible operands."""


class DimensionMismatch(RealizerError):
    """Vectors of different lengths compared or stored together."""


class MissingVertex(RealizerError):
    """Realizer lacks a vector for some vertex of the target digraph."""


class BadDimension(RealizerError):
    """Requested an extension to fewer dimensions than the realizer has."""


def margin(x: Sequence[int], y: Sequence[int]) -> int:
    """#{i : x_i > y_i} - #{i : y_i > x_i}; positive means x beats y."""
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths differ: {len(x)} vs {len(y)}")
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
    and booleans raise RealizerError rather than being coerced.
    """

    d: int
    vectors: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        if type(self.d) is not int:
            raise RealizerError(f"dimension must be an integer, got {self.d!r}")
        if self.d < 0:
            raise BadDimension(f"dimension must be nonnegative, got {self.d}")
        vecs = {v: tuple(vec) for v, vec in self.vectors.items()}
        for v, vec in vecs.items():
            if type(v) is not int or any(type(c) is not int for c in vec):
                raise RealizerError(f"vertex {v!r} has a non-integer key or coordinate: {vec!r}")
            if len(vec) != self.d:
                raise DimensionMismatch(
                    f"vertex {v} has a {len(vec)}-vector in a d={self.d} realizer"
                )
        object.__setattr__(self, "vectors", vecs)

    def vector(self, v: int) -> tuple[int, ...]:
        try:
            return self.vectors[v]
        except KeyError:
            raise MissingVertex(f"no vector for vertex {v}")


class Violation(NamedTuple):
    u: int
    v: int
    expected: str  # "u>v", "v>u", or "tie"
    margin: int


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[Violation, ...]


def margin_rows(vectors: Sequence[Sequence[int]]):
    """Yield, for each u in order, {m: set of v > u with margin(vectors[u],
    vectors[v]) == m} over the nonempty margins m; sets are bitsets (bit v).

    One sort per coordinate gives every u the set of vectors below it and
    the set below or equal to it there.  Row u starts with all v > u at
    margin 0, and each coordinate moves every live margin set down, across
    or up.  The live sets partition the v > u, so a row holds at most
    min(2d + 1, n - u - 1) of them, and rows are built one at a time.
    """
    n = len(vectors)
    lengths = set(map(len, vectors))
    if len(lengths) > 1:
        raise DimensionMismatch(f"vector lengths differ: {sorted(lengths)}")
    # cols[i][u] = (vectors below u, vectors below or equal to u) in coordinate i.
    cols = []
    for col in zip(*vectors):
        tied: dict[int, int] = {}
        for v, value in enumerate(col):
            tied[value] = tied.get(value, 0) | 1 << v
        below = 0
        masks = {}
        for value in sorted(tied):
            masks[value] = below, below | tied[value]
            below |= tied[value]
        cols.append([masks[value] for value in col])
    later = (1 << n) - 1
    for u in range(n):
        later >>= 1
        levels = {0: later << u + 1} if later else {}
        for masks in cols:
            lt, le = masks[u]
            moved: dict[int, int] = {}
            for m, s in levels.items():
                up = s & lt
                if up:
                    moved[m + 1] = moved.get(m + 1, 0) | up
                across = s & le ^ up
                if across:
                    moved[m] = moved.get(m, 0) | across
                down = s ^ up ^ across
                if down:
                    moved[m - 1] = moved.get(m - 1, 0) | down
            levels = moved
        yield levels


def verify(D: Digraph, f: Realizer) -> VerifyReport:
    """Check that arcs coincide exactly with positive margins.

    For every pair u < v the margin of f(u) against f(v) must be positive
    when (u, v) is an arc, negative when (v, u) is, and zero otherwise.
    The margins come row by row from margin_rows and are compared with
    the digraph's out- and in-neighbour rows; only the pairs whose margin
    has the wrong sign become Violations, in (u, v) order.
    """
    for v in range(D.n):
        if v not in f.vectors:
            raise MissingVertex(f"no vector for vertex {v}")
    violations: list[Violation] = []
    rows = margin_rows([f.vectors[v] for v in range(D.n)])
    for u, (row, win, loss) in enumerate(zip(rows, D.out, D.into)):
        wrong = []
        for m, s in row.items():
            bad = s & ~win if m > 0 else s & ~loss if m < 0 else s & (win | loss)
            if bad:
                wrong.extend((v, m) for v in bits(bad))
        for v, m in sorted(wrong):
            expected = "u>v" if win >> v & 1 else "v>u" if loss >> v & 1 else "tie"
            violations.append(Violation(u, v, expected, m))
    return VerifyReport(not violations, tuple(violations))


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
        raise BadDimension(f"cannot extend d={f.d} realizer down to {r}")
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
