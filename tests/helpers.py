"""Independent oracles and generators shared by the test modules.

Everything here recomputes results from first principles (plain loops over
definitions) so that library code is checked against a second route, not
against itself.
"""

import itertools

from majdim import (
    DEFAULT_BUDGET,
    Digraph,
    Realizer,
    SolveOutcome,
    Verdict,
    build,
    induced_two_paths,
    verify,
)
from majdim.digraph import bits
from majdim.solver import _space_fits, _space_for


def pair_counts(x, y):
    """(#coords where x wins, #coords where y wins, #equal coords)."""
    wins = sum(a > b for a, b in zip(x, y))
    losses = sum(b > a for a, b in zip(x, y))
    return wins, losses, len(x) - wins - losses


def naive_margin(x, y):
    wins, losses, _ = pair_counts(x, y)
    return wins - losses


def naive_realizable(D, d):
    """Unpruned enumeration of every rank-vector assignment."""
    vecs = list(itertools.product(range(1, D.n + 1), repeat=d))
    pairs = [(u, v) for u in range(D.n) for v in range(u + 1, D.n)]
    for assignment in itertools.product(vecs, repeat=D.n):
        ok = True
        for u, v in pairs:
            m = naive_margin(assignment[u], assignment[v])
            if (u, v) in D.arcs:
                ok = m > 0
            elif (v, u) in D.arcs:
                ok = m < 0
            else:
                ok = m == 0
            if not ok:
                break
        if ok:
            return True
    return False


def all_labeled_digraphs(n):
    """Every digraph on n vertices: 3 states per unordered pair."""
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product(range(3), repeat=len(pairs)):
        arcs = []
        for (u, v), s in zip(pairs, states):
            if s == 1:
                arcs.append((u, v))
            elif s == 2:
                arcs.append((v, u))
        yield build(n, arcs)


def brute_canonical_code(D):
    """Least "u>v;..." arc code over all n! relabelings of D."""
    return min(
        ";".join(f"{u}>{v}" for u, v in sorted((p[u], p[v]) for u, v in D.arcs))
        for p in itertools.permutations(range(D.n))
    )


def brute_orbit(D, v):
    """Every vertex other than v that some automorphism of D maps v to: a
    vertex permutation carrying every arc to an arc, and so, D being
    finite, its arc set onto itself."""
    return {
        p[v]
        for p in itertools.permutations(range(D.n))
        if all((p[a], p[b]) in D.arcs for a, b in D.arcs)
    } - {v}


def cyclic_tournament(n):
    """For odd n, vertex i beats i + 1, ..., i + (n - 1) / 2 mod n: a
    tournament whose rotations are automorphisms."""
    return Digraph(n, frozenset((i, (i + j) % n) for i in range(n) for j in range(1, (n + 1) // 2)))


def relabeled(D, perm):
    """D with vertex v renamed perm[v]."""
    return build(D.n, [(perm[u], perm[v]) for u, v in D.arcs])


def converse(D):
    """D with every arc reversed."""
    return build(D.n, [(v, u) for u, v in D.arcs])


def converse_class_code(D):
    """The lesser brute canonical code of D and of its converse: equal for
    two digraphs exactly when each is isomorphic to the other or to its
    converse."""
    return min(brute_canonical_code(D), brute_canonical_code(converse(D)))


def naive_is_transitive(D):
    """(x, z) is an arc for every pair of arcs (x, y), (y, z)."""
    return all((x, z) in D.arcs for x, y in D.arcs for y2, z in D.arcs if y2 == y)


def naive_is_acyclic_tournament(D):
    """Every vertex pair adjacent and the arc relation transitive: a strict
    total order."""
    adjacent = all(
        (u, v) in D.arcs or (v, u) in D.arcs for u in range(D.n) for v in range(u + 1, D.n)
    )
    return adjacent and naive_is_transitive(D)


def naive_homogeneous(D, u, v):
    """u and v have the same out-neighbours and the same in-neighbours."""
    return all(
        ((u, w) in D.arcs) == ((v, w) in D.arcs) and ((w, u) in D.arcs) == ((w, v) in D.arcs)
        for w in range(D.n)
    )


def naive_condense(D):
    """(representative, class_of, condensed) from the CondensationResult
    definition: each vertex's least homogeneous vertex, the index of that
    representative among the sorted ones, and the subdigraph they induce."""
    representative = {u: min(v for v in range(D.n) if naive_homogeneous(D, u, v))
                      for u in range(D.n)}
    reps = sorted(set(representative.values()))
    class_of = {v: reps.index(representative[v]) for v in range(D.n)}
    arcs = {(reps.index(u), reps.index(v)) for u, v in D.arcs if u in reps and v in reps}
    return representative, class_of, Digraph(len(reps), frozenset(arcs))


def naive_induced_two_paths(D):
    """Every (x, y, z) with arcs x -> y -> z, x != z and x, z non-adjacent."""
    return {
        (x, y, z)
        for x, y in D.arcs
        for y2, z in D.arcs
        if y2 == y and x != z and (x, z) not in D.arcs and (z, x) not in D.arcs
    }


def random_digraph(rng, n):
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            s = rng.randrange(3)
            if s == 1:
                arcs.append((u, v))
            elif s == 2:
                arcs.append((v, u))
    return Digraph(n, frozenset(arcs))


def naive_matching_number(D):
    """nu: the most arcs of D with no two sharing a tail or a head, by
    Kuhn's augmenting paths over the arc list."""
    heads_of = {u: [] for u in range(D.n)}
    for u, v in sorted(D.arcs):
        heads_of[u].append(v)
    mate = {}  # head -> its tail

    def augment(u, seen):
        for v in heads_of[u]:
            if v not in seen:
                seen.add(v)
                if v not in mate or augment(mate[v], seen):
                    mate[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in range(D.n))


def cycle_matrix_failures(n, entries):
    """Check the five cycle-matrix conditions from their definitions.

    Returns a list of human-readable failures; empty means the matrix is
    good.  Deliberately written independently of the library's checker.
    """
    failures = []
    if len(entries) != n or any(len(r) != 4 for r in entries):
        return [f"shape is not {n} x 4"]
    if any(not isinstance(a, int) or a < 1 for r in entries for a in r):
        failures.append("entries not positive integers")
    for k in range(4):
        col = [r[k] for r in entries]
        if len(set(col)) != n:
            failures.append(f"column {k} repeats a value")
    has_iii = False
    for j in range(4):
        for k in range(4):
            if j == k:
                continue
            col_j = [r[j] for r in entries]
            col_k = [r[k] for r in entries]
            if entries[n - 1][j] == max(col_j) and entries[0][k] == min(col_k):
                has_iii = True
    if not has_iii:
        failures.append("no max-in-last-row / min-in-first-row column pair")
    def wins(i, j):
        return sum(entries[i][k] > entries[j][k] for k in range(4))
    for i in range(n):
        if wins(i, (i + 1) % n) != 3:
            failures.append(f"consecutive rows ({i}, {(i + 1) % n}) not 3 wins")
    for i in range(n):
        for j in range(n):
            if abs(i - j) >= 2 and {i, j} != {0, n - 1} and wins(i, j) != 2:
                failures.append(f"distant rows ({i}, {j}) not 2 wins")
    return failures


def naive_violations(D, vectors):
    """verify's violation tuples from the definition, pair by pair in (u, v) order."""
    found = []
    for u in range(D.n):
        for v in range(u + 1, D.n):
            m = naive_margin(vectors[u], vectors[v])
            if (u, v) in D.arcs:
                expected, ok = "u>v", m > 0
            elif (v, u) in D.arcs:
                expected, ok = "v>u", m < 0
            else:
                expected, ok = "tie", m == 0
            if not ok:
                found.append((u, v, expected, m))
    return found


def naive_majority_arcs(alternatives, voters):
    """Arcs a -> b with more voters ranking a above b than b above a."""
    return {
        (a, b)
        for a in range(alternatives)
        for b in range(alternatives)
        if sum(r[a] > r[b] for r in voters) > sum(r[b] > r[a] for r in voters)
    }


def quadratic_es(points):
    """The O(m^2) longest-chain DP es_chain_or_antichain used to run.

    Same sort, same lowest-index parent among the best predecessors, same
    largest-level rule, so its answer must match the library's exactly.
    """
    pts = sorted((int(x), int(y)) for x, y in points)
    m = len(pts)
    height = [1] * m
    parent = [-1] * m
    for i in range(m):
        for j in range(i):
            if pts[j][0] <= pts[i][0] and pts[j][1] <= pts[i][1] and height[j] + 1 > height[i]:
                height[i] = height[j] + 1
                parent[i] = j
    k = height.index(max(height))
    chain = []
    while k != -1:
        chain.append(pts[k])
        k = parent[k]
    chain.reverse()
    sizes = {h: height.count(h) for h in set(height)}
    level = max(sizes, key=lambda h: (sizes[h], -h))
    if len(chain) >= sizes[level]:
        return "chain", chain
    return "antichain", [p for p, h in zip(pts, height) if h == level]


def static_order_search(D, d, budget=DEFAULT_BUDGET):
    """The exact search with a fixed vertex order, as the solver ran before
    it chose the next vertex fail-first.

    Vertices are placed in descending-degree order (ties by index), with the
    same spaces, column-symmetry masks, forward checking and d = 3
    no-shared-coordinate rule, so its verdicts must match is_realizable's
    while its node counts keep the old search's values.
    """
    n = D.n
    if n == 0:
        return SolveOutcome(Verdict.REALIZABLE, Realizer(d, {}), 0)
    if not _space_fits(n, d):
        return SolveOutcome(Verdict.BUDGET_EXCEEDED, None, 0)
    space = _space_for(n, d)
    degree = [0] * n
    for u, v in D.arcs:
        degree[u] += 1
        degree[v] += 1
    order = sorted(range(n), key=lambda v: (-degree[v], v))
    pos = {v: i for i, v in enumerate(order)}
    # need[new][assigned]: required margin sign, +-2 at d = 3 where the pair
    # is an arc of an induced two-path and so shares no coordinate.
    need = [[0] * n for _ in range(n)]
    for u, v in D.arcs:
        need[pos[u]][pos[v]] = 1
        need[pos[v]][pos[u]] = -1
    if d == 3:
        for x, y, z in induced_two_paths(D):
            for u, v in ((x, y), (y, z)):
                need[pos[u]][pos[v]] = 2
                need[pos[v]][pos[u]] = -2
    chosen = [0] * n
    nodes = 0
    budget_hit = False

    def descend(depth, doms, pattern):
        nonlocal nodes, budget_hit
        for c in bits(doms[depth] & space.mask(pattern, 0, space.top)):
            if nodes >= budget:
                budget_hit = True
                return False
            nodes += 1
            chosen[depth] = c
            if depth + 1 == n:
                return True
            row = space.row(c)
            new_doms = list(doms)
            dead = False
            for j in range(depth + 1, n):
                narrowed = new_doms[j] & row[need[j][depth]]
                if not narrowed:
                    dead = True
                    break
                new_doms[j] = narrowed
            if not dead and descend(depth + 1, new_doms, pattern & space.ties[c]):
                return True
            if budget_hit:
                return False
        return False

    if descend(0, [space.full] * n, (1 << max(d - 1, 0)) - 1):
        witness = Realizer(d, {order[i]: space.vectors[chosen[i]] for i in range(n)})
        assert verify(D, witness).valid
        return SolveOutcome(Verdict.REALIZABLE, witness, nodes)
    if budget_hit:
        return SolveOutcome(Verdict.BUDGET_EXCEEDED, None, nodes)
    return SolveOutcome(Verdict.NOT_REALIZABLE, None, nodes)
