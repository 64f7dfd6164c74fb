"""Constructive realizers for the digraph families with known dimensions.

Every operation returns a Realizer that verifies against its target
digraph.  The maps here give upper bounds; those of directed paths and
cycles are minimal, which the solver's certified lower bounds confirm.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .digraph import (
    CondensationResult,
    Digraph,
    DigraphError,
    bits,
    condense,
    cycle,
    is_tournament,
)
from .realizer import Realizer, margin, verify


class ConstructionError(ValueError):
    """A construction's precondition does not hold: the digraph is not of the
    required kind, a supplied realizer does not verify against its digraph,
    or the operands do not fit together."""


def realize_empty(D: Digraph) -> Realizer:
    """Dimension-0 realizer of an arcless digraph: every vertex is the
    single point of the 0-dimensional space and all margins are 0."""
    if D.arcs:
        raise ConstructionError(f"digraph has {len(D.arcs)} arcs")
    return Realizer(0, {v: () for v in range(D.n)})


def realize_acyclic_tournament(D: Digraph) -> Realizer:
    """Dimension-1 realizer of a transitive tournament.

    In an acyclic tournament the out-degrees are 0..n-1; sending each
    vertex to out-degree + 1 orders the line exactly like the arcs.
    """
    if not is_tournament(D):
        raise ConstructionError(f"{D.n} vertices need {D.n * (D.n - 1) // 2} arcs")
    degs = [row.bit_count() for row in D.out]
    if sorted(degs) != list(range(D.n)):
        raise ConstructionError("tournament out-degrees are not pairwise distinct")
    return Realizer(1, {v: (degs[v] + 1,) for v in range(D.n)})


# The two coordinates appended for an arc (u, v), as (u's pair, v's pair,
# every other vertex's pair).  The first arc's pair stands alone: u beats
# v in both coordinates and every bystander splits 1-1 against u and v.
# A later arc's pair has u beat v in one coordinate, tied in the other,
# and again splits u and v 1-1 against every bystander.  Bystanders are
# equal to each other in both kinds of pair.
_FIRST_ARC_COLUMNS = ((2, 3), (1, 2), (3, 1))
_LATER_ARC_COLUMNS = ((2, 0), (1, 0), (0, 1))


def add_arc_realizer(D_minus: Digraph, f: Realizer, arc: tuple[int, int]) -> Realizer:
    """Extend a realizer of D_minus to one of D_minus plus one new arc.

    Two coordinates are appended (_LATER_ARC_COLUMNS): the first separates
    u from v (2 vs 1, everyone else 0), the second restores the balance
    against bystanders (0 for u, v; 1 for the rest).  Only the u, v margin
    changes, from 0 to +1.  When D_minus has no arcs the base coordinates
    are dropped and the two fresh coordinates (_FIRST_ARC_COLUMNS) alone
    realize the single-arc digraph.

    The extended Digraph is built to check the arc: a loop, an endpoint
    that is not an `int` in 0..n-1, or the reverse of an arc of D_minus
    raises DigraphError, and an arc D_minus already has raises
    ConstructionError.
    """
    Digraph(D_minus.n, [*D_minus.arcs, arc])
    u, v = arc
    if (u, v) in D_minus.arcs:
        raise ConstructionError(f"({u}, {v}) already an arc of the base")
    if not verify(D_minus, f).valid:
        raise ConstructionError("realizer does not verify against the base digraph")
    if D_minus.arcs:
        d, base, columns = f.d + 2, f.vertex_vectors(D_minus.n), _LATER_ARC_COLUMNS
    else:
        d, base, columns = 2, [()] * D_minus.n, _FIRST_ARC_COLUMNS
    u_pair, v_pair, rest = columns
    vecs = {w: vec + rest for w, vec in enumerate(base)}
    vecs[u] = base[u] + u_pair
    vecs[v] = base[v] + v_pair
    return Realizer(d, vecs)


def union_realizer(parts: list[tuple[Digraph, Realizer]]) -> Realizer:
    """Realizer of the disjoint union of the parts.

    With G = floor((d_max + 1) / 2), one pass over the parts zero-pads the
    vectors of each part's vertices to 2G coordinates and shifts them up
    in coordinates 1..G and down in coordinates G+1..2G, past the extremes
    of the part placed before it.  Constant shifts keep within-part
    margins intact, while any cross-part pair splits exactly G coordinates
    each way, so its margin is 0.  Vertex labels of the result follow the
    input part order, part p's vertices offset by the sizes before it.
    The first part of maximal dimension is placed first and left
    unshifted; any base would do, this one keeps the output bytes those
    of earlier versions.
    """
    parts = list(parts)
    if len(parts) < 2:
        raise ConstructionError(f"need at least 2 parts, got {len(parts)}")
    for D_i, f_i in parts:
        if not verify(D_i, f_i).valid:
            raise ConstructionError("part realizer does not verify against its digraph")

    offsets = list(accumulate((D_i.n for D_i, _ in parts), initial=0))
    first = max(range(len(parts)), key=lambda p: parts[p][1].d)
    gamma = (parts[first][1].d + 1) // 2
    result: dict[int, tuple[int, ...]] = {}
    max_lo = min_hi = 0
    for p in [first] + [p for p in range(len(parts)) if p != first]:
        D_p, f_p = parts[p]
        pad = (0,) * (2 * gamma - f_p.d)
        vecs = [vec + pad for vec in f_p.vertex_vectors(D_p.n)]
        if not vecs:
            continue
        lo = [c for vec in vecs for c in vec[:gamma]]
        hi = [c for vec in vecs for c in vec[gamma:]]
        up = max_lo + 1 - min(lo, default=0) if result else 0
        down = min_hi - 1 - max(hi, default=0) if result else 0
        max_lo = max(lo, default=0) + up
        min_hi = min(hi, default=0) + down
        for v, vec in enumerate(vecs, offsets[p]):
            result[v] = tuple(c + up for c in vec[:gamma]) + tuple(c + down for c in vec[gamma:])
    return Realizer(2 * gamma, result)


def condense_lift(D: Digraph, cr: CondensationResult, f_star: Realizer) -> Realizer:
    """Lift a realizer of the condensed digraph back to D.

    Homogeneous vertices relate to the rest of the digraph identically, so
    assigning every vertex its class representative's vector realizes D.
    """
    if condense(D) != cr:
        raise ConstructionError("condensation data does not match the digraph")
    if not verify(cr.condensed, f_star).valid:
        raise ConstructionError("realizer does not verify against the condensed digraph")
    vecs = f_star.vertex_vectors(cr.condensed.n)
    return Realizer(f_star.d, {v: vecs[cr.class_of[v]] for v in range(D.n)})


# Three coordinates realize the directed path on up to 5 vertices, the
# most that fit in d = 3; the vectors are the exact search's witness.
_PATH_FIVE = ((2, 1, 4), (1, 2, 3), (3, 1, 2), (2, 2, 1), (1, 1, 5))


def realize_path(n: int) -> Realizer:
    """Minimum-dimension realizer of the directed path on n vertices.

    Dimensions: 0 for a single vertex, 1 for one arc, 3 for 3 to 5
    vertices, and 4 beyond.  path(n) is the induced subdigraph of
    cycle(n + 1) on the vertices 0..n-1, and a prefix of a path is an
    induced subpath, so restricting a realizer of either to those
    vertices still verifies.  For 3 to 5 vertices the vectors are the
    leading n rows of _PATH_FIVE; for n >= 6 they are the leading n rows
    of the (n + 1)-cycle matrix, `_cycle_rows(n + 1)`.
    """
    if type(n) is not int or n < 1:
        raise DigraphError(f"realize_path({n!r})")
    if n == 1:
        return Realizer(0, {0: ()})
    if n == 2:
        return Realizer(1, {0: (2,), 1: (1,)})
    if n <= 5:
        return Realizer(3, dict(enumerate(_PATH_FIVE[:n])))
    return Realizer(4, dict(enumerate(_cycle_rows(n + 1)[:n])))


# --- cycle matrices ---------------------------------------------------------


def check_cycle_matrix(n: int, entries) -> None:
    """Raise ConstructionError unless the n x 4 matrix realizes an n-cycle.

    Required: (i) positive integer entries; (ii) per-column distinct
    values; (iii) some column peaks in the last row while a different one
    bottoms out in the first; (iv) each cyclically consecutive row pair
    wins 3-1 downward; (v) every other pair splits 2-2.

    Once the columns are distinct no two rows are equal in any column, so
    a 3-1 win is margin 2 and a 2-2 split is margin 0.  Once (iv) holds
    (so n >= 3), verify against the n-cycle reports exactly the distant
    pairs with a nonzero margin, in (u, v) order.  The first failure is
    raised, consecutive pairs before distant ones.
    """
    if type(n) is not int or n < 1:
        raise ConstructionError(f"row count must be a positive integer, got {n!r}")
    if len(entries) != n or any(len(row) != 4 for row in entries):
        raise ConstructionError(f"expected {n} rows of 4 entries")
    for row in entries:
        for a in row:
            if type(a) is not int or a < 1:
                raise ConstructionError(f"entry {a!r} is not a positive integer")
    for k in range(4):
        col = [row[k] for row in entries]
        if len(set(col)) != n:
            raise ConstructionError(f"column {k + 1} has repeated values")
    max_cols = {k for k in range(4) if max(range(n), key=lambda i: entries[i][k]) == n - 1}
    min_cols = {k for k in range(4) if min(range(n), key=lambda i: entries[i][k]) == 0}
    if not any(j != k for j in max_cols for k in min_cols):
        raise ConstructionError("no disjoint last-row-max / first-row-min columns")
    for i in range(n):
        if margin(entries[i], entries[(i + 1) % n]) != 2:
            raise ConstructionError(f"rows {i + 1}, {(i + 1) % n + 1}: consecutive pair is not 3-1")
    report = verify(cycle(n), Realizer(4, dict(enumerate(entries))))
    if not report.valid:
        first = report.violations[0]
        raise ConstructionError(f"rows {first.u + 1}, {first.v + 1}: distant pair is not 2-2")


@dataclass(frozen=True)
class CycleMatrix:
    """n x 4 matrix of positive integers whose rows realize an n-cycle."""

    n: int
    entries: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        check_cycle_matrix(self.n, self.entries)


def _two_voters(n: int, clusters) -> tuple[list[int], list[int]]:
    """The columns of two voters over the vertices 0..n-1, which the
    clusters partition; a cluster is a pair of local orders of its
    vertices, best first, one per voter.

    The first voter lists the clusters in order and the second in reverse
    order, each cluster in that voter's local order, and the k-th vertex
    listed gets n + 1 - k, so each column is a permutation of 1..n.  Two
    vertices of different clusters are ordered one way by the first voter
    and the other way by the second: margin 0.  Two vertices of one
    cluster are ordered by its local orders: +2 to the one first in both,
    0 when the orders disagree.
    """
    columns = ([0] * n, [0] * n)
    orders = ([v for x, _ in clusters for v in x], [v for _, y in reversed(clusters) for v in y])
    for col, order in zip(columns, orders):
        for v, rank in zip(order, range(n, 0, -1)):
            col[v] = rank
    return columns


def _pairs(start: int, stop: int):
    """Clusters (i, i + 1) for i = start, start - 2, ... down to stop
    exclusive, i first in both local orders."""
    return [([i, i + 1],) * 2 for i in range(start, stop, -2)]


def _cycle_rows(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The rows of the n x 4 cycle matrix for n >= 4; each column is a
    permutation of 1..n.

    The arcs (i, i + 1 mod n) of the cycle are split into two halves,
    each carried by two columns from _two_voters.  The first half holds
    the arcs from even i < n - 1, as clusters (i, i + 1) that both local
    orders rank i first, so i wins both columns and every other pair
    splits 1-1.  The second half holds the rest, the odd i and the wrap
    arc (n - 1, 0), the same way.  For odd n the wrap arc joins the arc
    from n - 2 in the 3-chain (n - 2, n - 1, 0), which also puts n - 2
    over 0; the first half compensates with the linked cluster
    ([n-3, 0, n-2, 1], [0, 1, n-3, n-2]), which carries the arcs (0, 1)
    and (n - 3, n - 2), puts 0 over n - 2 and splits its other pairs,
    and vertex n - 1 stands alone.  Summing the halves gives 3-1 on cycle
    arcs and 2-2 elsewhere.  The clusters are listed so that, for n >= 5,
    each column orders the rows as in earlier versions.
    """
    if n % 2 == 0:
        first = _pairs(n - 2, -1)
        second = _pairs(n - 3, 0) + [([n - 1, 0],) * 2]
    else:
        first = _pairs(n - 5, 1) + [([n - 3, 0, n - 2, 1], [0, 1, n - 3, n - 2]), ([n - 1],) * 2]
        second = _pairs(n - 4, 0) + [([n - 2, n - 1, 0],) * 2]
    return tuple(zip(*_two_voters(n, first), *_two_voters(n, second)))


def cycle_matrix(n: int) -> CycleMatrix:
    """Build the n x 4 cycle matrix `_cycle_rows(n)` (n >= 4).  All five
    matrix conditions are re-checked on construction.
    """
    if type(n) is not int or n < 4:
        raise DigraphError(f"cycle_matrix({n!r}): need n >= 4")
    return CycleMatrix(n, _cycle_rows(n))


def realize_cycle(n: int) -> Realizer:
    """Minimum-dimension realizer of the directed n-cycle: dimension 3 for
    n = 3 and 4, else 4.

    The 3- and 4-cycle vectors are fixed, the latter the exact search's
    witness.  For n >= 5 vertex i takes row i of the cycle matrix:
    consecutive rows win 3-1 (margin +2) and distant rows split 2-2
    (margin 0).  The rows come from `_cycle_rows` directly, without
    `cycle_matrix`'s O(n^2) re-check, so a caller that verifies the
    realizer compares each pair once.
    """
    if type(n) is not int or n < 3:
        raise DigraphError(f"realize_cycle({n!r}): need n >= 3")
    if n == 3:
        return Realizer(3, {0: (1, 2, 3), 1: (3, 1, 2), 2: (2, 3, 1)})
    if n == 4:
        return Realizer(3, {0: (1, 2, 3), 1: (4, 1, 2), 2: (3, 2, 1), 3: (2, 1, 4)})
    return Realizer(4, dict(enumerate(_cycle_rows(n))))


def arc_cover(D: Digraph) -> tuple[list[int], list[int]]:
    """A least set of tail and head choices that covers every arc of D.

    Returns (tails, heads), each ascending: every arc (u, v) has u in
    tails or v in heads, and len(tails) + len(heads) is the least
    possible.  Take the bipartite graph with a tail copy and a head copy
    of each vertex and one edge per arc; a cover is a vertex cover of it,
    so by König's theorem its least size is nu, the size of a maximum
    matching, and nu <= min(n, #arcs).

    The matching grows by one augmenting path per tail (_augment), a
    breadth-first walk with no recursion, so paths as long as n are
    fine.  Then König's step: Z is what alternating walks reach from the
    unmatched tails, tail to head along any arc and head to tail along
    its matching edge.  The tails outside Z and the heads inside Z cover
    every arc: for an arc (u, v) with u in Z, v is reached either from u
    or, when (u, v) is u's matching edge, before u.  Each head in Z is
    matched, or its walk would augment, and its mate lies in Z; each
    tail outside Z is matched and its mate lies outside Z.  So every
    matching edge has exactly one end in the cover and the cover has nu
    vertices, the least, since the nu disjoint matching edges need one
    end each.
    """
    n, out = D.n, D.out
    mate = [-1] * n  # mate[v]: the tail matched to head v
    for s in range(n):
        if out[s]:
            _augment(s, out, mate)
    matched = set(mate)
    queue = [u for u in range(n) if u not in matched]
    reached = 0
    for u in queue:
        fresh = out[u] & ~reached
        reached |= fresh
        queue.extend(mate[v] for v in bits(fresh))
    in_z = set(queue)
    return [u for u in range(n) if u not in in_z], list(bits(reached))


def _augment(s: int, out, mate: list[int]) -> None:
    """Grow the matching by one edge along an alternating path from the
    unmatched tail s, when one exists: breadth first from s, tail to its
    unseen heads and matched head to its mate, then flip the path back."""
    seen = 0
    parent: dict[int, int] = {}  # head -> the tail that reached it
    via: dict[int, int] = {}  # matched tail -> its head on the walk
    queue = [s]
    for u in queue:
        fresh = out[u] & ~seen
        seen |= fresh
        for v in bits(fresh):
            parent[v] = u
            if mate[v] < 0:
                while True:
                    u = parent[v]
                    mate[v] = u
                    if u == s:
                        return
                    v = via[u]
            via[mate[v]] = v
            queue.append(mate[v])


def star_forests(D: Digraph) -> list[list[tuple[int, int, bool]]]:
    """The stars of arc_cover(D), packed first fit into star forests.

    A star is (center, leaves, out), leaves a bitset: an out-star holds
    the arcs from its center to its leaves, an in-star those from its
    leaves to its center.  Tail v takes all of D.out[v] and head v takes
    D.into[v] minus the tails, so every arc lies in exactly one star, and
    the empty stars are dropped.  There are at most nu of them, one per
    vertex of the cover.

    Each round makes one forest of vertex-disjoint stars.  It sorts the
    stars with leaves left by their count, most first, ties to the lower
    star index (the tails first, then the heads, each ascending), and
    takes each star whose center is still free, with those of its
    remaining leaves that are still free, when there is at least one;
    the center and those leaves are then used.  Every vertex is free at
    the start of a round, so its first star is taken whole and retired:
    each forest retires at least one of the at most nu stars, and there
    are k <= nu forests.
    """
    tails, heads = arc_cover(D)
    tail_set = sum(1 << v for v in tails)
    stars = [(v, True) for v in tails] + [(v, False) for v in heads]
    left = [D.out[v] for v in tails] + [D.into[v] & ~tail_set for v in heads]
    live = [i for i, leaves in enumerate(left) if leaves]
    forests = []
    while live:
        live.sort(key=lambda i: (-left[i].bit_count(), i))
        used, forest = 0, []
        for i in live:
            center, out = stars[i]
            take = left[i] & ~used
            if take and not used >> center & 1:
                used |= take | 1 << center
                left[i] ^= take
                forest.append((center, take, out))
        forests.append(forest)
        live = [i for i in live if left[i]]
    return forests


def star_forest_realizer(n: int, forests: list[list[tuple[int, int, bool]]]) -> Realizer:
    """Realizer on n vertices with two voters (coordinates) per star
    forest, whose margin is +2 on each arc of the forests and 0 on every
    other vertex pair (see generic_realizer).

    Per forest, _two_voters takes the clusters in the forest's order,
    with L a star's leaves ascending: ([c, *L], [c, *rev L]) for an
    out-star with center c and ([*L, c], [*rev L, c]) for an in-star,
    then one singleton cluster per vertex of no star, ascending.
    """
    columns = []
    for forest in forests:
        clusters, used = [], 0
        for center, leaves, out in forest:
            L = list(bits(leaves))
            used |= leaves | 1 << center
            clusters.append(([center, *L], [center, *L[::-1]]) if out
                            else ([*L, center], [*L[::-1], center]))
        clusters += [([w],) * 2 for w in bits(((1 << n) - 1) & ~used)]
        columns += _two_voters(n, clusters)
    return Realizer(len(columns), dict(enumerate(zip(*columns) if columns else [()] * n)))


def generic_realizer(D: Digraph) -> Realizer:
    """Realizer of an arbitrary digraph in dimension 2k, where k is the
    number of star_forests(D), so at most 2 * nu <= min(2n, 2 * #arcs),
    nu the size of arc_cover(D).

    Two voters per star forest (star_forest_realizer), in the spirit of
    Stearns ("The voting problem", 1959) and of star arboricity
    (Alon-McDiarmid-Reed, 1992).  Margins add up pair by pair.  In one
    forest's pair each star is a cluster of _two_voters: the center of an
    out-star precedes its leaves in both local orders, +2 on each of its
    arcs, and the leaves of an in-star precede their center in both, +2
    again, while the second order reverses the first on two leaves of one
    star, 0.  Every other vertex pair spans two clusters, 0.  Every arc
    lies in exactly one star of one forest, so summed over the forests
    it gets +2 and every other pair 0: u beats v exactly when (u, v) is
    an arc.  McGarvey's two voters per arc (1953) are the fold of
    add_arc_realizer over the sorted arcs.
    """
    return star_forest_realizer(D.n, star_forests(D))
