"""Digraphs whose underlying graphs are simple.

Vertices are the dense integers 0..n-1.  Arcs are ordered pairs (u, v) with
u != v, and at most one of (u, v), (v, u) may be present, so the underlying
undirected graph has no loops or parallel edges.  Everything here is an
immutable value and every operation is a pure function, so concurrent use
needs no coordination.

Adjacency has one representation: `D.out[u]` and `D.into[v]` are the out-
and in-neighbours as bitsets (Python ints, bit v of out[u] set iff u -> v).
They are built from the arcs on first read and kept (`lazy`), so a
digraph that is only printed never allocates them.  The predicates here,
`verify` and the search all read their neighbourhoods from these rows;
`condense` keys each vertex by a set built from the arcs instead, as its
docstring explains.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass


class DigraphError(ValueError):
    """Invalid digraph input: an arc set that breaks the simple-underlying-graph
    invariants, a family parameter outside its domain, or malformed
    edge-list text."""


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """The integer that text writes in ASCII decimal digits, with an
    optional sign.

    int() also reads Unicode digits, underscores between digits and
    surrounding whitespace; here those raise ValueError, as does anything
    int() itself refuses.
    """
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def bits(mask: int):
    """Indices of the set bits of mask, from low to high."""
    digits = bin(mask)[:1:-1]
    x = digits.find("1")
    while x >= 0:
        yield x
        x = digits.find("1", x + 1)


class lazy:
    """An attribute computed by its function on first read and then kept in
    the instance's __dict__, where later reads find it directly.

    This is functools.cached_property without the lock that Python 3.11
    and earlier take on every first read (3.12 dropped it).  It works on
    frozen dataclasses, whose __setattr__ it never calls.  Two threads
    that read the attribute for the first time at once may both compute
    it: the functions it wraps read only state that never changes, so the
    two values are equal, and the later store wins.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _neighbour_rows(n: int, arcs) -> tuple[int, ...]:
    """rows[u] has bit v set for every (u, v) in arcs."""
    rows = [0] * n
    for u, v in arcs:
        rows[u] |= 1 << v
    return tuple(rows)


@dataclass(frozen=True)
class Digraph:
    """A digraph on vertices 0..n-1 with a simple underlying graph.

    The vertex count and the arc endpoints must be `int`; floats, strings
    and booleans raise DigraphError rather than being coerced.  arcs may
    be given as any iterable of pairs, and is kept as a frozenset of
    tuples.  One pass over it checks each arc in the order given, before
    the arc enters the set, so an arc equal to an earlier one only by
    coercion, such as (True, 0) after (1, 0), is rejected, not merged.
    """

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int or n < 0:
            raise DigraphError(f"vertex count must be a nonnegative integer, got {n!r}")
        arcs: set[tuple[int, int]] = set()
        for arc in self.arcs:
            try:
                u, v = arc
            except (TypeError, ValueError):
                raise DigraphError(f"arc {arc!r} is not a pair of vertices") from None
            if type(u) is not int or type(v) is not int:
                raise DigraphError(f"arc ({u!r}, {v!r}) has a non-integer endpoint")
            if u == v:
                raise DigraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DigraphError(f"arc ({u}, {v}) outside 0..{n - 1}")
            if (v, u) in arcs:
                raise DigraphError(f"both ({v}, {u}) and ({u}, {v}) present")
            arcs.add((u, v))
        object.__setattr__(self, "arcs", frozenset(arcs))

    @lazy
    def out(self) -> tuple[int, ...]:
        """out[u]: bitset of the out-neighbours of u."""
        return _neighbour_rows(self.n, self.arcs)

    @lazy
    def into(self) -> tuple[int, ...]:
        """into[v]: bitset of the in-neighbours of v."""
        return _neighbour_rows(self.n, ((v, u) for u, v in self.arcs))

    def adjacent(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs or (v, u) in self.arcs

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)


def build(n: int, arcs: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> Digraph:
    """Validate raw input and return a Digraph.

    Unlike the Digraph constructor this also rejects duplicate arcs in the
    input sequence.  The constructor checks every arc; a duplicate shows
    only as a set smaller than the list, and only then is the list walked
    again to name it.
    """
    D = Digraph(n, arcs)
    if len(D.arcs) != len(arcs):
        seen: set[tuple[int, int]] = set()
        for u, v in arcs:
            if (u, v) in seen:
                raise DigraphError(f"arc {(u, v)} listed twice")
            seen.add((u, v))
    return D


def is_transitive(D: Digraph) -> bool:
    """True iff (x, z) is an arc whenever (x, y) and (y, z) are."""
    out = D.out
    return all(not out[y] & ~out[x] for x, y in D.arcs)


def induced_two_paths(D: Digraph):
    """Yield every (x, y, z) with arcs x -> y -> z and x, z non-adjacent."""
    out, into = D.out, D.into
    for x, y in D.arcs:  # out[y] never holds x: y -> x would be antiparallel
        if ends := out[y] & ~(out[x] | into[x]):
            for z in bits(ends):
                yield x, y, z


def has_induced_two_path(D: Digraph) -> bool:
    """True iff some x -> y -> z has non-adjacent endpoints x, z."""
    return next(induced_two_paths(D), None) is not None


def is_tournament(D: Digraph) -> bool:
    """True iff every pair of distinct vertices is adjacent."""
    return len(D.arcs) == D.n * (D.n - 1) // 2


def is_acyclic_tournament(D: Digraph) -> bool:
    """True iff D is a tournament whose arc relation is a total order.

    A tournament is acyclic exactly when its out-degrees are pairwise
    distinct (hence 0..n-1).
    """
    if not is_tournament(D):
        return False
    return sorted(row.bit_count() for row in D.out) == list(range(D.n))


def induced(D: Digraph, S) -> Digraph:
    """Subdigraph induced by vertex subset S, relabeled along sorted(S).

    Vertices must be `int`; floats, strings and booleans raise DigraphError
    rather than being coerced.
    """
    S = list(S)
    for v in S:
        if type(v) is not int:
            raise DigraphError(f"vertex {v!r} is not an integer")
        if not (0 <= v < D.n):
            raise DigraphError(f"vertex {v} outside 0..{D.n - 1}")
    vs = sorted(set(S))
    pos = {v: i for i, v in enumerate(vs)}
    return Digraph(len(vs), [(pos[u], pos[v]) for u, v in D.arcs if u in pos and v in pos])


@dataclass(frozen=True)
class CondensationResult:
    """Partition of V(D) into homogeneous classes plus the condensed digraph.

    Two vertices are homogeneous when they have identical out- and
    in-neighborhoods; collapsing each class to its smallest member yields
    `condensed`, relabeled 0..l-1 in order of those representatives.
    """

    representative: dict[int, int]
    class_of: dict[int, int]
    condensed: Digraph


def condense(D: Digraph) -> CondensationResult:
    """Group homogeneous vertices and return the condensed digraph.

    A vertex is keyed by one set built from the arcs: its out-neighbours w
    and, as ~u, its in-neighbours u.  The sets hold 2 * #arcs items in all,
    where hashing the n-bit rows `out` and `into` would take about n^2 / 30
    words.  A key enters `first` at its least vertex, so the representatives
    come in order.
    """
    nbrs: list[list[int]] = [[] for _ in range(D.n)]
    for u, v in D.arcs:
        nbrs[u].append(v)
        nbrs[v].append(~u)
    first: dict[frozenset[int], int] = {}
    representative = {v: first.setdefault(frozenset(row), v) for v, row in enumerate(nbrs)}
    rep_index = {r: i for i, r in enumerate(first.values())}
    class_of = {v: rep_index[r] for v, r in representative.items()}
    arcs = [(rep_index[u], rep_index[v]) for u, v in D.arcs if u in rep_index and v in rep_index]
    return CondensationResult(representative, class_of, Digraph(len(rep_index), arcs))


def disjoint_union(parts: list[Digraph] | tuple[Digraph, ...]) -> Digraph:
    """Disjoint union; part p's vertices are shifted by the sizes before it."""
    arcs: set[tuple[int, int]] = set()
    offset = 0
    for part in parts:
        arcs.update((u + offset, v + offset) for u, v in part.arcs)
        offset += part.n
    return Digraph(offset, arcs)


# --- named families -------------------------------------------------------
#
# Parameters must be `int`; floats, strings and booleans raise DigraphError.


def empty(n: int) -> Digraph:
    if type(n) is not int or n < 0:
        raise DigraphError(f"empty({n!r})")
    return Digraph(n, frozenset())


def path(n: int) -> Digraph:
    """Directed path v_0 -> v_1 -> ... -> v_{n-1}."""
    if type(n) is not int or n < 1:
        raise DigraphError(f"path({n!r})")
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Digraph:
    """Directed cycle v_0 -> v_1 -> ... -> v_{n-1} -> v_0."""
    if type(n) is not int or n < 3:
        raise DigraphError(f"cycle({n!r}): length must be at least 3")
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def acyclic_tournament(n: int) -> Digraph:
    """Transitive tournament in which higher-indexed vertices beat lower."""
    if type(n) is not int or n < 1:
        raise DigraphError(f"acyclic_tournament({n!r})")
    return Digraph(n, [(j, i) for j in range(n) for i in range(j)])


def single_arc(n: int) -> Digraph:
    """One arc 0 -> 1 plus n - 2 isolated vertices."""
    if type(n) is not int or n < 2:
        raise DigraphError(f"single_arc({n!r}): needs at least 2 vertices")
    return Digraph(n, [(0, 1)])


def subset_family(r: int, d: int) -> Digraph:
    """Membership digraph of (d+1)-subsets of {1..r}.

    Vertices 0..r-1 stand for the elements 1..r; the subsets of size d+1
    follow in lexicographic order.  Each element points to every subset
    containing it, so no vertex has both in- and out-arcs and the digraph
    is vacuously transitive.
    """
    if type(r) is not int or type(d) is not int or d < 0 or r < d + 1:
        raise DigraphError(f"subset_family({r!r}, {d!r}): needs r >= d + 1 >= 1")
    arcs: set[tuple[int, int]] = set()
    for j, S in enumerate(itertools.combinations(range(1, r + 1), d + 1)):
        for i in S:
            arcs.add((i - 1, r + j))
    n = r + sum(1 for _ in itertools.combinations(range(r), d + 1))
    return Digraph(n, arcs)


# Name (as spelled by `majdim gen`) -> (generator, parameter count).
FAMILIES = {
    "empty": (empty, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "tournament": (acyclic_tournament, 1),
    "single-arc": (single_arc, 1),
    "subset-family": (subset_family, 2),
}


def generate(kind: str, *params: int) -> Digraph:
    """Dispatch to a named family generator, checking the parameter count."""
    try:
        fn, arity = FAMILIES[kind]
    except KeyError:
        raise DigraphError(f"unknown family {kind!r}; choose from {sorted(FAMILIES)}")
    if len(params) != arity:
        raise DigraphError(f"family {kind} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


# --- edge-list text format ------------------------------------------------
#
# First non-comment line is the vertex count; each following line is one
# arc "u v".  '#' starts a comment; blank lines are ignored.


def from_edge_list(text: str) -> Digraph:
    n: int | None = None
    arcs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise DigraphError(f"line {lineno}: expected vertex count, got {raw!r}")
            try:
                n = parse_int(fields[0])
            except ValueError:
                raise DigraphError(f"line {lineno}: bad vertex count {fields[0]!r}")
            continue
        if len(fields) != 2:
            raise DigraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            arcs.append((parse_int(fields[0]), parse_int(fields[1])))
        except ValueError:
            raise DigraphError(f"line {lineno}: bad arc {raw!r}")
    if n is None:
        raise DigraphError("empty edge list: missing vertex count")
    return build(n, arcs)


def to_edge_list(D: Digraph) -> str:
    lines = [str(D.n)]
    lines.extend(f"{u} {v}" for u, v in D.sorted_arcs())
    return "\n".join(lines) + "\n"


def to_dot(D: Digraph, name: str = "D") -> str:
    lines = [f"digraph {name} {{"]
    lines.extend(f"  {v};" for v in range(D.n))
    lines.extend(f"  {u} -> {v};" for u, v in D.sorted_arcs())
    lines.append("}")
    return "\n".join(lines) + "\n"
