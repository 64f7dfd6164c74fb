"""Exact realizability search and dimension computation for small digraphs.

`dimension` climbs d from 0 and hands each level to a tuple of deciders,
proved rules first and the search last (see `dimension`); the rest of this
docstring is about the search.

The search assigns every vertex a full rank vector in {1..n}^d, one vertex
at a time.  Ranks lose no generality: replacing each coordinate's values
by their ranks 1..k among that coordinate's distinct values keeps every
comparison, hence every margin, and k <= n.  After each assignment the
margins against all previously placed vertices are checked exactly, so a
completed assignment is a realizer by construction and an exhausted tree
is a proof of non-realizability.

Vertex order is fail-first and depends on the branch.  The first vertex is
the first in (-degree, v) order.  After a vertex is placed, the next one is
the unassigned u with the fewest candidates per incident arc, the least
|dom(u)| / (1 + deg(u)); ratios are compared exactly by cross-multiplying,
and ties go to the earlier vertex in (-degree, v) order, so node counts
and witnesses are deterministic.  The sizes are taken inside the forward
check below, one bit count per narrowed domain.  One table, indexed by
vertex, holds every constraint between a placed vertex u and an unplaced
one w: need[u][w] is 0 or +-1, the required sign of margin(w, u), or +-2,
that sign with no coordinate shared (the d = 3 rule below).  The relation
row of u's vector is indexed by the same values, so each (placed,
unplaced) pair costs one cached row entry and one AND.

Pruning, all of it completeness-preserving:

* column symmetry - permuting coordinates never changes a margin.  Two
  adjacent columns are still tied while they are equal on every assigned
  vertex, and the next vertex's values must be nondecreasing within each
  block of still-tied columns; once a column pair differs on a placed
  vertex it is free.  This stays complete under any vertex order: if some
  realizer extends the current partial assignment, sorting the next
  vertex's values within each tied block is a column permutation that
  fixes every assigned vertex, so it maps that realizer to one that still
  extends the assignment, meets every domain (domains only encode margins
  and shared coordinates with assigned vertices) and gives the next vertex
  an enumerated vector, whichever vertex is next.  By induction over the
  placements the search reaches a realizer whenever one exists.  The
  still-tied pairs are one bit pattern, and placing vectors[c] keeps those
  that c ties, pattern & ties[c]: the mask gave c x[i] <= x[i+1] on every
  still-tied pair i, so a pair c does not tie is one it orders strictly.
* rank compression - only compressed realizers, whose columns each use
  exactly the values {1..k}, are searched.  In column i let S be the
  values of the placed vertices, M = max S and gaps = M - |S|.  After a
  placement every column must keep gaps <= left, the number of vertices
  still unplaced.  For the next vertex u (left counts the vertices after
  u) the columns start with gaps <= left + 1.  A value x > M makes gaps
  x - |S| - 1, a value in S keeps them and a missing value below M lowers
  them by one.  So with the ceiling t = |S| + 1 + left the allowed values
  are those <= t (all of them when t >= n), unless the column is tight,
  M = t, that is gaps = left + 1: then only the values missing from S
  below M are allowed.  Each placed vertex adds a value to S or repeats
  one, so t = n - (number of repeats): the search carries one ceiling bit
  per column down the tree and lowers it by one per repeat, and one
  cached mask per node applies the rule.  The rule is complete together
  with column symmetry, under the branch-dependent order: rank-compress
  any realizer to start the induction.  A column permutation moves each
  column's value set with it, so it maps a compressed realizer to a
  compressed one, and the column-symmetry step above carries a compressed
  realizer that extends the assignment to one that also gives the next
  vertex an enumerated vector.  Once u takes its vector from that
  realizer, each value below a column's M that the placed vertices miss
  is the value of a different unplaced vertex there, so gaps <= left
  holds and the mask keeps u's vector.  At the last placement left = 0, so every witness is
  compressed.
* forward checking - every unassigned vertex keeps its candidate vectors
  as a bitset (a Python int, bit x for vector x), which is intersected
  with the relation row of each newly placed vertex; an empty candidate
  set prunes immediately.
* first-vertex orbit - let first be the root vertex, order[0], and O the
  vertices w != first that some automorphism of D is shown to map first
  to (`_first_orbit`).  Once first takes vector c, each w in O keeps only
  the vectors whose sorted coordinates are lexicographically >= sorted(c),
  its key.  With every column pair tied the root's candidates are the
  nondecreasing vectors, one per permutation class, in lexicographic
  order, so the vectors of smaller key are the permutations of the root's
  earlier candidates (`_Space.permutations`), and w keeps the rest.
  If f is a realizer and s an automorphism, f o s is a realizer too,
  since s maps arcs to arcs and non-arcs to non-arcs; it is
  rank-compressed when f is, since each column keeps its values, and it
  meets the d = 3 rule, since s maps induced two-paths to induced
  two-paths.  Start from a compressed realizer f and take s mapping
  first to a vertex of least key under f in first's whole orbit; s maps
  each w of O, a vertex of that orbit, into it, so under f o s no w in O
  has a key below first's.  A column permutation keeps every sorted key,
  so sorting first's vector into column order, and each later step of
  the column-symmetry induction, keep the key masks met, and rank
  compression goes through unchanged.  The argument needs each w in O to
  be an image of first, not every image to be in O, so matcher runs cut
  short by their cap may leave w out.  The root's first candidate
  (1, ..., 1) has the least key, so its masks would hold every vector;
  the orbit is only scanned, once per digraph, when the root moves past
  it.
* three-dimensional no-shared-coordinate rule - in R^3, if x -> y -> z is
  an induced two-path then a realizer gives x, y (and y, z) no equal
  coordinate, so need marks those pairs +-2 once, however many two-paths
  hold them, and at d = 3 their row entries keep only the vectors of the
  required sign with no equal coordinate.  need is built once for every
  d: outside d = 3 a row's +-2 entries are its +-1 entries, so there the
  marks cost nothing and prune nothing.
  (The odd-dimension parity fact - incomparable vectors in odd d share an
  odd number of coordinates - is implied by the exact margin masks and
  needs no separate rule here.)

Budgets are node counts, not wall time, so runs are reproducible; running
out of budget is a verdict, never an error.  The node that would pass the
budget raises the private `_OutOfBudget`; `is_realizable` catches it
above the recursion and answers BUDGET_EXCEEDED.  The orbit scan's matcher
(`deciders.induced_copy`) stops the same way but catches its own signal,
so its cap never reads as this search running out.  A level whose space
fails `_space_fits`, being too large to build, is not searched and gets
the same budget-exceeded verdict after 0 nodes.  All entry points are
pure functions and may be called concurrently: the caches of spaces,
masks and per-digraph plans, and the lazy attributes (`digraph.lazy`) of
digraphs and plans, only hold values that depend on their keys or their
instance alone, so a race on one builds or computes it twice, never
differently, and no answer depends on the calls before it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .digraph import Digraph, bits, induced_two_paths, lazy
from .realizer import Realizer, verified

DEFAULT_BUDGET = 10_000_000


class PointError(ValueError):
    """Invalid point input: an empty set, or a point that is not a pair of
    int coordinates."""


class _OutOfBudget(Exception):
    """A bounded search hit its budget; the search that raised it catches it."""


class Verdict(Enum):
    REALIZABLE = "realizable"
    NOT_REALIZABLE = "not_realizable"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class Obstruction:
    """An induced copy of a certified digraph inside the digraph at hand.

    vertices[i] is the vertex that the certified digraph's vertex i maps
    to; `dimension` is the certified digraph's dimension.
    """

    name: str
    dimension: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class SolveOutcome:
    """Decision at one dimension, and the rule that reached it.

    A REALIZABLE outcome carries a witness that `realizer.verified` has
    re-checked against the digraph, except one that is correct by
    construction and skips the check: the d = 0 witness of "empty" (an
    arcless digraph, and every margin in zero coordinates is 0).  reason
    names the decider of `dimension` that settled the level: "empty",
    "condensed_tournament", "transitivity", "obstruction" (with the
    obstruction it found), "ceiling" or "search", whose NOT_REALIZABLE is
    only reported after the pruned but complete tree has been exhausted.
    nodes_explored counts the search's nodes, or the matcher's for an
    obstruction.
    """

    verdict: Verdict
    witness: Realizer | None
    nodes_explored: int
    reason: str = "search"
    obstruction: Obstruction | None = None


@dataclass(frozen=True)
class DimensionResult:
    """Exact dimension, or bounds when the budget ran out.

    When `dimension` is set, lower == upper == dimension.  Otherwise the
    value lies in [lower, upper]; upper is the ceiling, the dimension of
    the cheapest construction: a directed path's or cycle's own realizer,
    else generic_realizer's 2k, two voters for each of the k star forests
    that its arcs are packed into, k <= nu, the size of a maximum matching
    of the arcs (`deciders.Climb`).
    """

    dimension: int | None
    lower: int
    upper: int
    per_d: tuple[tuple[int, SolveOutcome], ...]

    @property
    def known(self) -> bool:
        return self.dimension is not None

    @property
    def witness(self) -> Realizer | None:
        for _, outcome in self.per_d:
            if outcome.verdict is Verdict.REALIZABLE:
                return outcome.witness
        return None


class _Space:
    """All rank vectors in {1..nranks}^d, with relation rows as bitsets.

    A set of vectors is a Python int whose bit x stands for vectors[x], in
    itertools.product order.  eq[i][r] and below[i][r] hold the vectors
    whose coordinate i equals r or lies below r; every other mask is
    combined from them.  A candidate's relation row is built on first use
    and kept in a list indexed by vector: at most one row per vector,
    3 * N bits each for N vectors (5 * N at d = 3, where the +-2 entries
    are ints of their own).  ties[x] has bit i set when coordinates i and
    i + 1 of vectors[x] are equal.

    Per-column sets of values are ints as well, with one field of
    nranks + 1 bits per column: bit i * (nranks + 1) + r stands for value r
    in column i, and bit 0 of every field stays clear.  value_bits[x] holds
    the d values of vectors[x].  The masks that `mask` builds are kept up
    to 4 * N at a time, N bits each, and `permutations` keeps one N-bit set
    for each vector it is asked about.
    """

    def __init__(self, nranks: int, d: int):
        self.nranks = nranks
        self.d = d
        self.vectors = tuple(itertools.product(range(1, nranks + 1), repeat=d))
        self.full = (1 << len(self.vectors)) - 1
        # Coordinate i is constant on runs of nranks**(d-1-i) vectors, and
        # the runs cycle through the ranks; `starts` has one bit per cycle.
        self.eq: list[list[int]] = []
        self.below: list[list[int]] = []
        for i in range(d):
            run = nranks ** (d - 1 - i)
            starts = self.full // ((1 << run * nranks) - 1)
            self.eq.append([0] + [starts * (((1 << run) - 1) << (r - 1) * run)
                                  for r in range(1, nranks + 1)])
            self.below.append([0] + [starts * ((1 << (r - 1) * run) - 1)
                                     for r in range(1, nranks + 1)])
        self.width = width = nranks + 1
        self.fields = [((1 << width) - 1) << i * width for i in range(d)]
        self.value_bits = list(map(sum, itertools.product(
            *([1 << i * width + r for r in range(1, nranks + 1)] for i in range(d)))))
        self.top = sum(1 << i * width + nranks for i in range(d))  # every ceiling at nranks
        self.ties = [sum(1 << i for i in range(d - 1) if x[i] == x[i + 1]) for x in self.vectors]
        # ordered[i]: x[i] <= x[i+1], summed over the disjoint x[i] = r, x[i+1] >= r.
        self.ordered = [sum(self.eq[i][r] & ~self.below[i + 1][r] for r in range(1, nranks + 1))
                        for i in range(d - 1)]
        self._rows: list[tuple[int, ...] | None] = [None] * len(self.vectors)
        self._tight_fields: dict[int, int] = {}
        self._masks: dict[tuple[int, int, int], int] = {}
        self._permutations: dict[int, int] = {}
        # Every column pair tied, and the root's candidates under that.
        self.tied = (1 << max(d - 1, 0)) - 1
        self.roots = self.mask(self.tied, 0, self.top)

    def row(self, c: int) -> tuple[int, ...]:
        """Relation row of vectors[c], indexed by a need value s.

        row[s] for s in (0, 1, -1) is the set of x with
        sign(margin(vectors[x], vectors[c])) == s.  At d = 3, row[2] and
        row[-2] keep only the x of row[1] and row[-1] that share no
        coordinate value with vectors[c]; at any other d they are row[1]
        and row[-1] themselves, the same int objects.
        """
        row = self._rows[c]
        if row is None:
            # levels[k]: the x whose margin over the coordinates seen so
            # far is k - i; each coordinate moves every x down, across or up.
            levels = [self.full]
            shared = 0
            for i, r in enumerate(self.vectors[c]):
                lt, eq = self.below[i][r], self.eq[i][r]
                gt = self.full ^ lt ^ eq
                shared |= eq
                nxt = [0] * (len(levels) + 2)
                for k, level in enumerate(levels):
                    nxt[k] |= level & lt
                    nxt[k + 1] |= level & eq
                    nxt[k + 2] |= level & gt
                levels = nxt
            pos = neg = 0
            for level in levels[self.d + 1 :]:
                pos |= level
            for level in levels[: self.d]:
                neg |= level
            if self.d == 3:
                neq = self.full ^ shared
                row = levels[self.d], pos, pos & neq, neg & neq, neg
            else:
                row = levels[self.d], pos, pos, neg, neg
            self._rows[c] = row
        return row

    def permutations(self, c: int) -> int:
        """Set of the vectors whose coordinates permute those of vectors[c].

        Vector x has index sum((x[i] - 1) * nranks**(d - 1 - i)), so each
        coordinate placed multiplies the index so far by nranks and adds
        x[i] - 1.  The prefixes are one set of (index so far, values still
        to place), so a permutation is built once however many values
        repeat, not once per reordering of equal values.
        """
        perms = self._permutations.get(c)
        if perms is None:
            prefixes = {(0, tuple(sorted(self.vectors[c])))}
            for _ in range(self.d):
                prefixes = {(index * self.nranks + r - 1, left[:i] + left[i + 1 :])
                            for index, left in prefixes for i, r in enumerate(left)}
            perms = self._permutations[c] = sum(1 << index for index, _ in prefixes)
        return perms

    def mask(self, pattern: int, used: int, ceilings: int) -> int:
        """Set of vectors the next vertex may take under both symmetry rules.

        Column symmetry keeps the x with x[i] <= x[i+1] for every bit i of
        pattern, the still-tied pairs; rank compression cuts that down.
        mask(pattern, 0, self.top) is the column-order part alone.  used holds
        the values of each column on the placed vertices, and ceilings one
        bit per column, at its ceiling t.  Column i allows the values up to
        t, except that in a tight column (t itself used) the used values
        are out too.  The key keeps the used values of tight columns only,
        so it names the mask, not the branch that reached it.
        """
        tight = ceilings & used
        fields = self._tight_fields.get(tight)
        if fields is None:
            fields = sum(field for field in self.fields if field & tight)
            self._tight_fields[tight] = fields
        key = (pattern, ceilings, used & fields)
        mask = self._masks.get(key)
        if mask is None:
            if len(self._masks) >= 4 * len(self.vectors):
                self._masks.clear()
            mask = self.full
            for i in bits(pattern):
                mask &= self.ordered[i]
            for i, field in enumerate(self.fields):
                t = (ceilings & field).bit_length() - 1 - i * self.width
                if t < self.nranks:
                    mask &= self.below[i][t + 1]
            for p in bits(used & fields):
                i, r = divmod(p, self.width)
                mask &= ~self.eq[i][r]
            self._masks[key] = mask
        return mask


def _check_count(name: str, value) -> None:
    """Raise ValueError unless value is a nonnegative `int` (not a bool)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def _space_fits(nranks: int, d: int) -> bool:
    """Whether the search may build _Space(nranks, d).

    With N = nranks^d vectors, the space holds 2 * d * (nranks + 1)
    coordinate masks of N bits each, one value set of d * (nranks + 1)
    bits and one tuple of d slots per vector.  The masks and value sets
    both grow as d * (nranks + 1) * N bits, which this caps at 2^26, and
    the tuples as d * N slots, which it caps at 2^23 (64 MB of slots).  The
    d column fields of the value sets are ints of up to d * (nranks + 1)
    bits, about d^2 * (nranks + 1) / 2 bits in all, more than the masks
    only where N < d, at nranks 1; N is counted as at least d to cover
    them.  The largest space admitted, a million vectors at nranks 10 and
    d 6, peaks at about 193 MB on Python 3.11, most of it the per-vector
    tuples and ints; at nranks 2 the tuples stop d at 18 (90 MB), where
    d = 20 would take 334 MB.
    """
    size = d * max(nranks**d, d)
    return size * (nranks + 1) <= 2**26 and size <= 2**23


_space_for = lru_cache(maxsize=32)(_Space)


def _first_orbit(D: Digraph, first: int) -> tuple[int, ...]:
    """Vertices w != first that an automorphism of D is shown to map first to.

    Each w with first's out- and in-degree gets one run of the induced
    subdigraph matcher from D to itself with first pinned to w, capped at
    n^2 matcher nodes; an automorphism keeps every degree, so a w with
    other degrees is no image.  The matcher is set up once, with first
    placed first, and each run only names its image.  A copy of D on all
    its n vertices is an automorphism s, and s, s^2, ... carry first
    around its whole cycle of s, so that cycle joins the orbit at once.  A
    run the cap cuts short leaves w out: the orbit rule needs every vertex
    kept to be an image, not every image kept.
    """
    n, out, into = D.n, D.out, D.into
    degree = out[first].bit_count(), into[first].bit_count()
    images = [w for w in range(n)
              if w != first and (out[w].bit_count(), into[w].bit_count()) == degree]
    if not images:
        return ()
    from .deciders import induced_copies

    find = induced_copies(D, D, first)
    orbit: set[int] = set()
    for w in images:
        if w in orbit:
            continue
        sigma, _, _ = find(n * n, w)
        if sigma is not None:
            while w != first:
                orbit.add(w)
                w = sigma[w]
    return tuple(sorted(orbit))


class _Plan:
    """What the search needs of D at every d, built once per digraph.

    weight[v] is 1 + degree(v), order the vertices in (-degree, v) order
    and need[u][w] the required sign of margin(w, u), +-2 on the arcs of
    induced two-paths (the d = 3 rule).  orbit is the vertex set O of the
    orbit rule, built on first read.
    """

    def __init__(self, D: Digraph):
        n = D.n
        self.D = D
        self.weight = weight = [1 + (out | into).bit_count() for out, into in zip(D.out, D.into)]
        # A stable sort keeps equal weights in vertex order, reversed or not.
        self.order = sorted(range(n), key=weight.__getitem__, reverse=True)
        self.need = need = [[0] * n for _ in range(n)]
        for u, v in D.arcs:
            need[v][u] = 1
            need[u][v] = -1
        for x, y, z in induced_two_paths(D):
            need[y][x] = need[z][y] = 2
            need[x][y] = need[y][z] = -2

    @lazy
    def orbit(self) -> tuple[int, ...]:
        return _first_orbit(self.D, self.order[0])


# Kept for the last digraph, which every level of a climb searches.
_plan = lru_cache(maxsize=1)(_Plan)


def is_realizable(D: Digraph, d: int, budget: int = DEFAULT_BUDGET) -> SolveOutcome:
    """Decide by complete backtracking whether D has a d-dimensional realizer."""
    _check_count("dimension", d)
    _check_count("budget", budget)
    n = D.n
    if n == 0:
        return SolveOutcome(Verdict.REALIZABLE, verified(D, Realizer(d, {}), "search"), 0)
    if not _space_fits(n, d):
        return SolveOutcome(Verdict.BUDGET_EXCEEDED, None, 0)
    space = _space_for(n, d)
    plan = _plan(D)
    weight, order, need = plan.weight, plan.order, plan.need

    above_any = len(space.vectors) + 1  # exceeds every domain size
    value_bits, ties = space.value_bits, space.ties
    rows, build_row, mask = space._rows, space.row, space.mask
    chosen = [0] * n
    nodes = 0

    def descend(u: int, cand: int, rest: list[int], doms: list[int], pattern: int, used: int,
                ceilings: int) -> bool:
        # Place u on each vector of cand in turn; rest holds the other
        # unassigned vertices in tie-break order.
        nonlocal nodes
        need_u = need[u]
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            if nodes >= budget:
                raise _OutOfBudget
            nodes += 1
            chosen[u] = c
            if not rest:
                return True
            row = rows[c] or build_row(c)
            new_doms = doms.copy()
            best, best_size, best_weight = -1, above_any, 1
            for w in rest:
                narrowed = doms[w] & row[need_u[w]]
                if not narrowed:
                    break
                new_doms[w] = narrowed
                size = narrowed.bit_count()
                if size * best_weight < best_size * weight[w]:
                    best, best_size, best_weight = w, size, weight[w]
            else:
                nxt = rest.copy()
                nxt.remove(best)
                # A repeated value r lies below its column's ceiling t, so
                # taking bit r from bit t leaves bits r..t-1 in that field
                # alone; the top one is the lowered ceiling t - 1.
                vb = value_bits[c]
                lowered = ceilings - (used & vb)
                next_pattern, next_used = pattern & ties[c], used | vb
                next_ceilings = lowered & ~(lowered >> 1)
                if descend(best, new_doms[best] & mask(next_pattern, next_used, next_ceilings),
                           nxt, new_doms, next_pattern, next_used, next_ceilings):
                    return True
        return False

    # The root's candidates one at a time, each bounding the orbit's keys;
    # with no orbit, one call per candidate visits the nodes, in the same
    # order, that one call over all of them would.  descend never writes
    # to the doms it is given, so candidates without keys share one list.
    # keys holds the vectors that permute no earlier candidate; the first
    # one, (1, ..., 1), is its own permutation class.
    first, rest = order[0], order[1:]
    pattern, cand = space.tied, space.roots
    unbounded = [space.full] * n
    keys = space.full ^ 1
    try:
        while cand:
            low = cand & -cand
            cand ^= low
            doms = unbounded
            if low != 1 and (orbit := plan.orbit):
                doms = unbounded.copy()
                for w in orbit:
                    doms[w] = keys
                keys ^= space.permutations(low.bit_length() - 1)
            if descend(first, low, rest, doms, pattern, 0, space.top):
                witness = Realizer(d, {v: space.vectors[chosen[v]] for v in range(n)})
                return SolveOutcome(Verdict.REALIZABLE, verified(D, witness, "search"), nodes)
    except _OutOfBudget:
        return SolveOutcome(Verdict.BUDGET_EXCEEDED, None, nodes)
    return SolveOutcome(Verdict.NOT_REALIZABLE, None, nodes)


def dimension(
    D: Digraph,
    max_d: int | None = None,
    budget: int = DEFAULT_BUDGET,
    shortcuts: bool = True,
) -> DimensionResult:
    """Smallest d at which D is realizable, climbed upward from 0.

    Each level goes to the deciders in turn, and the first that answers
    settles it: emptiness (d = 0), the condensed tournament (d = 1),
    transitivity (d <= 2), an induced obstruction, the ceiling and the
    complete search, each proved in its docstring in `deciders`.  With
    shortcuts=False every level is searched.  The first budget-exhausted
    level stops the climb and yields bounds instead of a value, never an
    unproven claim; the upper bound is the ceiling, built only then.

    The climb ends at its first REALIZABLE or BUDGET_EXCEEDED level, or
    after max_d.  It ends by the ceiling level at the latest: every
    decider's NOT_REALIZABLE is proved, and a construction realizes D at
    the ceiling, so no level from there on is excluded.  There the ceiling
    rule or the complete search answers REALIZABLE, or the search runs out
    of nodes or finds that the level's space fails `_space_fits`:
    BUDGET_EXCEEDED.
    """
    # Loaded on first use: outside the search's orbit scan nothing else in
    # the package needs the matcher, the obstruction table or the rules.
    from . import deciders

    if max_d is not None:
        _check_count("max_d", max_d)
    _check_count("budget", budget)
    climb = deciders.Climb(D, budget)
    rules = deciders.DECIDERS if shortcuts else deciders.SEARCH_ONLY
    per_d: list[tuple[int, SolveOutcome]] = []
    for d in itertools.count() if max_d is None else range(max_d + 1):
        for decide in rules:
            outcome = decide(climb, d)
            if outcome is not None:
                break
        per_d.append((d, outcome))
        if outcome.verdict is Verdict.REALIZABLE:
            return DimensionResult(d, d, d, tuple(per_d))
        if outcome.verdict is Verdict.BUDGET_EXCEEDED:
            return DimensionResult(None, d, climb.ceiling, tuple(per_d))
    return DimensionResult(None, max_d + 1, climb.ceiling, tuple(per_d))


def _point(p) -> tuple[int, int]:
    """The point as an (x, y) tuple; floats, strings and booleans raise PointError."""
    try:
        x, y = p
    except (TypeError, ValueError):
        raise PointError(f"point {p!r} is not a pair of coordinates")
    if type(x) is not int or type(y) is not int:
        raise PointError(f"point {p!r} has a non-integer coordinate")
    return x, y


def es_chain_or_antichain(points) -> tuple[str, list[tuple[int, int]]]:
    """Longest chain or largest antichain level of planar points, whichever
    is longer (ties go to the chain).

    Comparability is componentwise: (x1, x2) <= (y1, y2) iff x1 <= y1 and
    x2 <= y2.  After a lexicographic sort every earlier point has x no
    larger, so point i's height is one more than the largest height among
    earlier points with y no larger, and its parent is the lowest-indexed
    of those.  Patience sorting finds both with bisection: tails[h] is the
    least y among the points of height h + 1 so far, a nondecreasing list,
    so a point's height is bisect_right(tails, y) + 1.  Pile h holds the
    points of height h + 1 in arrival order; a point joins it only below
    the pile's last y, so y strictly decreases along a pile.  For a point
    joining pile h the earlier points of height h with y no larger are
    therefore a suffix of pile h - 1, and its parent is the suffix's first
    point, found by one bisect_left on that pile's negated ys.  The whole
    DP takes O(m log m).  The chain ends at the first point of the last
    pile.  The antichain is the first longest pile, a height level, which
    is an antichain because a dominated point always has a smaller height.
    Among m >= k^2 + 1 points one of the two has size >= k + 1.  A point
    that is not a pair of `int` coordinates raises PointError instead of
    being coerced, and so does an empty point set.
    """
    pts = [_point(p) for p in points]
    if not pts:
        raise PointError("no points given")
    pts.sort()
    tails: list[int] = []
    piles: list[list[int]] = []  # piles[h]: indices of the height h + 1 points
    neg_ys: list[list[int]] = []  # neg_ys[h]: -y along piles[h], ascending
    parent = [-1] * len(pts)
    for i, (_, y) in enumerate(pts):
        h = bisect_right(tails, y)
        if h:
            parent[i] = piles[h - 1][bisect_left(neg_ys[h - 1], -y)]
        if h == len(tails):
            tails.append(y)
            piles.append([])
            neg_ys.append([])
        tails[h] = y
        piles[h].append(i)
        neg_ys[h].append(-y)
    chain: list[tuple[int, int]] = []
    k = piles[-1][0]
    while k != -1:
        chain.append(pts[k])
        k = parent[k]
    chain.reverse()
    level = max(piles, key=len)
    if len(chain) >= len(level):
        return "chain", chain
    return "antichain", [pts[i] for i in level]
