"""The deciders that `solver.dimension` hands each level d to.

A decider answers a level with a SolveOutcome or passes (None); the first
answer settles the level.  Each decider's docstring proves its rule.  The
rules need an induced-subdigraph matcher, a table of certified
obstructions and the path and cycle constructions.  Outside this module
only the search's orbit scan (`solver._first_orbit`) uses the matcher, so
`dimension` and that scan load this module on first use, and a command
that asks for no dimension never does.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import constructions
from .digraph import (
    Digraph,
    build,
    condense,
    cycle,
    is_acyclic_tournament,
    is_transitive,
    path,
    subset_family,
)
from .realizer import Realizer, verified
from .solver import Obstruction, SolveOutcome, Verdict, _OutOfBudget, is_realizable


@lru_cache(maxsize=1)
def _degree_groups(D: Digraph) -> dict[tuple[int, int], int]:
    """(out-degree, in-degree) -> the set of D's vertices with it.

    Kept for the last D, which `induced_copy` meets once per pattern.  The
    bits are set in bytes, since ORing into a growing int would copy it
    once per vertex.
    """
    groups: dict[tuple[int, int], bytearray] = {}
    for t, key in enumerate(zip(map(int.bit_count, D.out), map(int.bit_count, D.into))):
        group = groups.get(key)
        if group is None:
            group = groups[key] = bytearray(D.n // 8 + 1)
        group[t >> 3] |= 1 << (t & 7)
    return {key: int.from_bytes(group, "little") for key, group in groups.items()}


def induced_copy(P: Digraph, D: Digraph, budget: int,
                 pin: tuple[int, int] | None = None) -> tuple[tuple[int, ...] | None, int, bool]:
    """Find P as an induced subdigraph of D by backtracking, VF2-style.

    Returns (embedding, nodes, complete).  embedding[i] is the vertex of D
    that P's vertex i maps to, with (u, v) an arc of P exactly when
    (embedding[u], embedding[v]) is an arc of D; it is None when no copy
    was found.  nodes counts the images tried, at most budget, and
    complete is False when the budget ran out before the answer was
    settled: the image that would pass it raises `solver._OutOfBudget`,
    which unwinds the recursion and is caught here, never by a caller.

    P's vertices are placed in a fixed order: next is always the one with
    the most arcs to those already placed, ties to the higher degree and
    then to the lower index.  The candidates for the next vertex p are one
    bitset: the unused vertices of D whose out- and in-degrees are at least
    p's (an induced copy keeps every arc at a vertex), ANDed with one row
    per placed vertex q, the in- or out-neighbours of q's image or the
    complement of both, as p relates to q.  A pin (p, t) places p first,
    with t as its only candidate; with P = D, a copy is an automorphism
    mapping p to t.
    """
    k, n = P.n, D.n
    if k > n:
        return None, 0, True
    order: list[int] = []
    adjacent = [out | into for out, into in zip(P.out, P.into)]
    degree = [row.bit_count() for row in adjacent]
    placed = 0
    left = set(range(k))
    while left:
        p = pin[0] if pin and not order else min(
            left, key=lambda v: (-(adjacent[v] & placed).bit_count(), -degree[v], v))
        left.remove(p)
        order.append(p)
        placed |= 1 << p
    # relation[i][j] for j < i: 1 if order[i] -> order[j], -1 if the reverse, 0 if apart
    relation = [[(P.out[p] >> q & 1) - (P.into[p] >> q & 1) for q in order[:i]]
                for i, p in enumerate(order)]
    groups = _degree_groups(D)
    allowed = [sum(row for (o, i), row in groups.items()
                   if o >= P.out[p].bit_count() and i >= P.into[p].bit_count())
               for p in order]
    if pin:
        allowed[0] &= 1 << pin[1]
    out, into = D.out, D.into
    image = [0] * k
    nodes = 0

    def place(i: int, used: int) -> bool:
        nonlocal nodes
        cand = allowed[i] & ~used
        for j, r in enumerate(relation[i]):
            t = image[j]
            cand &= into[t] if r > 0 else out[t] if r < 0 else ~(out[t] | into[t])
        while cand:
            if nodes >= budget:
                raise _OutOfBudget
            nodes += 1
            low = cand & -cand
            cand ^= low
            image[i] = low.bit_length() - 1
            if i + 1 == k or place(i + 1, used | low):
                return True
        return False

    try:
        if k and not place(0, 0):
            return None, nodes, True
    except _OutOfBudget:
        return None, nodes, False
    embedding = [0] * k
    for p, t in zip(order, image):
        embedding[p] = t
    return tuple(embedding), nodes, True


# The dimension-4 isomorphism classes on 5 vertices other than cycle(5),
# as `sweep 5 --dedup` codes them.
_FIVE_VERTEX_DIMENSION_FOUR = (
    "0>1;0>2;1>2;2>3;3>0;4>3",
    "0>1;0>2;1>2;2>3;3>0;3>4",
    "0>1;0>2;1>2;2>3;3>4;4>0",
    "0>1;0>2;1>2;2>3;2>4;3>0;4>3",
)


@lru_cache(maxsize=1)
def _obstructions() -> tuple[tuple[str, Digraph, int], ...]:
    """(name, digraph, dimension) of each certified obstruction, highest
    dimension first, built on first use.

    Each dimension k is certified by an exhausted search at k - 1 and a
    verified witness at k; the tests re-prove every entry that way.
    """
    table = [("path(6)", path(6), 4), ("cycle(5)", cycle(5), 4), ("cycle(6)", cycle(6), 4)]
    for code in _FIVE_VERTEX_DIMENSION_FOUR:
        arcs = [tuple(map(int, arc.split(">"))) for arc in code.split(";")]
        table.append((code, build(5, arcs), 4))
    table.append(("subset_family(4, 1)", subset_family(4, 1), 4))
    table.append(("subset_family(3, 1)", subset_family(3, 1), 3))
    return tuple(table)


def _find_obstruction(D: Digraph, budget: int) -> tuple[Obstruction | None, int]:
    """The first table entry found in D, and the matcher nodes spent.

    The table is ordered highest dimension first, so the entry found
    excludes the most levels, and `_by_obstruction` compares each level
    with its dimension.  budget caps the nodes of the whole scan, and
    running out of it finds nothing."""
    spent = 0
    for name, P, k in _obstructions():
        embedding, nodes, complete = induced_copy(P, D, budget - spent)
        spent += nodes
        if embedding is not None:
            return Obstruction(name, k, embedding), spent
        if not complete:
            break
    return None, spent


def _family_ceiling(D: Digraph) -> tuple[Realizer, list[int]] | None:
    """realize_path or realize_cycle, with D's vertices in the order that
    takes its vectors 0, 1, ..., when D is a directed path or cycle with at
    least one arc, else None.

    With every in- and out-degree at most 1 (distinct tails and distinct
    heads), the walk along out-arcs from a vertex without in-arcs (or from
    vertex 0 when there is none, and so every vertex has exactly one)
    revisits no vertex but its start; D is a path or a cycle exactly when
    that walk meets all n vertices.  The checks read the arc set, not the
    n-bit neighbour rows, so they take O(n) steps.
    """
    n, arcs = D.n, D.arcs
    succ = dict(arcs)
    heads = set(succ.values())
    if not arcs or len(arcs) not in (n - 1, n) or not (len(succ) == len(heads) == len(arcs)):
        return None
    start = v = next((u for u in range(n) if u not in heads), 0)
    order = [start]
    while (v := succ.get(v, start)) != start:
        order.append(v)
    if len(order) != n:
        return None
    family = constructions.realize_cycle if len(arcs) == n else constructions.realize_path
    return family(n), order


class Climb:
    """The digraph and budget of one `dimension` call, with the ceiling
    and the obstruction scan that its deciders share.

    The ceiling is realize_path or realize_cycle when D is a directed path
    or cycle, else 2k <= 2 * nu, the dimension of generic_realizer, for
    the k star forests of D's arcs.  It is built on first read, by
    `_by_ceiling` or by the upper bound of an unknown result, so a climb
    that reads neither, such as a sweep's, packs no forests.  The family
    realizer keeps its own labels; only `_by_ceiling` moves it onto D's.
    """

    def __init__(self, D: Digraph, budget: int):
        self.D = D
        self.budget = budget
        self.scan: tuple[Obstruction | None, int] | None = None

    @cached_property
    def family(self) -> tuple[Realizer, list[int]] | None:
        return _family_ceiling(self.D)

    @cached_property
    def forests(self) -> list[list[tuple[int, int, bool]]]:
        return constructions.star_forests(self.D)

    @property
    def ceiling(self) -> int:
        return self.family[0].d if self.family is not None else 2 * len(self.forests)


def _by_emptiness(climb: Climb, d: int) -> SolveOutcome | None:
    """d = 0: every margin in zero coordinates is 0, so exactly the arcless
    digraphs fit."""
    if d != 0:
        return None
    if climb.D.arcs:
        return SolveOutcome(Verdict.NOT_REALIZABLE, None, 0, "empty")
    return SolveOutcome(Verdict.REALIZABLE, constructions.realize_empty(climb.D), 0, "empty")


def _by_condensed_tournament(climb: Climb, d: int) -> SolveOutcome | None:
    """d = 1: on a line margin(x, y) is the sign of x - y, so equal points
    are homogeneous classes and distinct ones a total order; a digraph
    fits exactly when its condensation is an acyclic tournament.  Level 0
    has settled every arcless digraph, so one that fits here has dimension
    exactly 1."""
    if d != 1:
        return None
    D = climb.D
    cr = condense(D)
    if is_acyclic_tournament(cr.condensed):
        line = constructions.realize_acyclic_tournament(cr.condensed)
        witness = verified(D, constructions.condense_lift(D, cr, line), "condensation shortcut")
        return SolveOutcome(Verdict.REALIZABLE, witness, 0, "condensed_tournament")
    return SolveOutcome(Verdict.NOT_REALIZABLE, None, 0, "condensed_tournament")


def _by_transitivity(climb: Climb, d: int) -> SolveOutcome | None:
    """d <= 2: in at most two coordinates margin(x, y) > 0 means x >= y in
    every coordinate and x != y, a transitive relation, so an intransitive
    digraph does not fit."""
    if d <= 2 and not is_transitive(climb.D):
        return SolveOutcome(Verdict.NOT_REALIZABLE, None, 0, "transitivity")
    return None


def _by_obstruction(climb: Climb, d: int) -> SolveOutcome | None:
    """d < k for an induced copy of a certified dimension-k digraph:
    restricting a realizer to a vertex set S realizes D[S], so D has none
    below k.  The table is scanned once, at the first level that asks, and
    that level reports the matcher's nodes."""
    fresh = climb.scan is None
    if fresh:
        climb.scan = _find_obstruction(climb.D, climb.budget)
    found, nodes = climb.scan
    if found is None or d >= found.dimension:
        return None
    return SolveOutcome(Verdict.NOT_REALIZABLE, None, nodes if fresh else 0, "obstruction", found)


def _by_ceiling(climb: Climb, d: int) -> SolveOutcome | None:
    """d = the ceiling: the climb reaches it only when every level below
    was excluded, and its construction is verified here.  Verifying
    compares all n(n - 1)/2 vertex pairs, so the rule answers only when
    that many fit in the budget, and otherwise leaves the level to the
    search."""
    D = climb.D
    if D.n * (D.n - 1) // 2 > climb.budget or d != climb.ceiling:
        return None
    if climb.family is None:
        witness = constructions.star_forest_realizer(D.n, climb.forests)
    else:
        f, order = climb.family
        witness = Realizer(f.d, {v: f.vectors[t] for t, v in enumerate(order)})
    return SolveOutcome(Verdict.REALIZABLE, verified(D, witness, "ceiling"), 0, "ceiling")


def _by_search(climb: Climb, d: int) -> SolveOutcome:
    """Any d: the complete search."""
    return is_realizable(climb.D, d, climb.budget)


DECIDERS = (_by_emptiness, _by_condensed_tournament, _by_transitivity, _by_obstruction,
            _by_ceiling, _by_search)
SEARCH_ONLY = (_by_search,)
