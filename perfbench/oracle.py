"""Answer oracle: checks every job's output without using majdim.

Each check takes the job's captured stdout and returns a list of
problems; an empty list means the answer is right.  Realizers are
re-verified with a plain loop over vertex pairs, never with
`majdim.verify`, and every expected value below is a published or
independently derived fact, not a number the code under test produced.
"""

from __future__ import annotations

import bisect
import json
import math
from collections import Counter

# Weak majority dimensions of directed paths and cycles, as proved in the
# source paper: paths on 1-3 vertices have dimension 0, 1, 3, the jump to
# 4 happens at 6 vertices, and cycles are 3 up to 4 vertices, 4 beyond.
KNOWN_DIMENSIONS = {
    "path": lambda n: (0, 1, 3)[n - 1] if n <= 3 else (3 if n <= 5 else 4),
    "cycle": lambda n: 3 if n <= 4 else 4,
}

# Rows and dimension histograms of the 4-vertex census.  729 = 3^6
# labeled digraphs with a simple underlying graph, 42 isomorphism classes
# (OEIS A001174).  The dimension-1 counts are the ordered partitions of
# the vertices into at least two classes: 75 - 1 labeled (Fubini number)
# and 2^3 - 1 unlabeled (compositions of 4).  The other counts were
# recorded from the exact search.
SWEEPS = {
    "sweep 4": {"rows": 729, "histogram": {0: 1, 1: 74, 2: 144, 3: 510}},
    "sweep 4 --dedup": {"rows": 42, "histogram": {0: 1, 1: 7, 2: 8, 3: 26}},
}


def _json(stdout: str):
    return json.loads(stdout)


def dim_check(known: int):
    """`majdim dim`: the known dimension, reached by refuting every smaller d."""

    def check(stdout: str) -> list[str]:
        out = _json(stdout)
        problems = []
        if out.get("dimension") != known:
            problems.append(f"dimension {out.get('dimension')!r}, expected {known}")
        verdicts = [(row["d"], row["verdict"]) for row in out.get("per_d", [])]
        expected = [(d, "not_realizable") for d in range(known)] + [(known, "realizable")]
        if verdicts != expected:
            problems.append(f"per_d verdicts {verdicts}, expected {expected}")
        return problems

    return check


def dim_nodes(stdout: str) -> list[int]:
    """Search nodes per d as reported by `majdim dim`."""
    return [row["nodes"] for row in _json(stdout)["per_d"]]


def sweep_check(key: str):
    """`majdim sweep`: row count, histogram, distinct codes, summary flags."""
    want = SWEEPS[key]

    def check(stdout: str) -> list[str]:
        lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        if not lines or "summary" not in lines[-1]:
            return ["no summary line"]
        summary, rows = lines[-1]["summary"], lines[:-1]
        problems = []
        if len(rows) != want["rows"] or summary.get("rows") != want["rows"]:
            problems.append(f"{len(rows)} rows (summary {summary.get('rows')}), expected {want['rows']}")
        if len({r["digraph_code"] for r in rows}) != len(rows):
            problems.append("repeated digraph codes")
        histogram = dict(Counter(r["dimension"] for r in rows))
        if histogram != want["histogram"]:
            problems.append(f"histogram {histogram}, expected {want['histogram']}")
        if summary.get("unknown_rows") != 0:
            problems.append(f"unknown_rows {summary.get('unknown_rows')}")
        flags = {k: v for k, v in summary.items() if k.startswith("dim")}
        if len(flags) < 4 or not all(v is True for v in flags.values()):
            problems.append(f"summary flags {flags}")
        return problems

    return check


def valid_check(stdout: str) -> list[str]:
    return [] if _json(stdout) == {"valid": True} else [f"verify said {stdout.strip()[:200]}"]


def _margin(x, y) -> int:
    m = 0
    for a, b in zip(x, y):
        if a > b:
            m += 1
        elif b > a:
            m -= 1
    return m


def _expected_sign(arcs, u: int, v: int) -> int:
    return 1 if (u, v) in arcs else -1 if (v, u) in arcs else 0


def _sign(m: int) -> int:
    return (m > 0) - (m < 0)


class RealizerCheck:
    """Checks for a realizer emitted for a known digraph and what is derived from it.

    `check` must run first: it parses and keeps the vectors that the
    profile and perturbation checks compare against.
    """

    def __init__(self, n: int, arcs):
        self.n = n
        self.arcs = set(arcs)
        self.d = None
        self.vectors = None

    def check(self, stdout: str) -> list[str]:
        out = _json(stdout)
        d, raw = out["d"], out["vectors"]
        if sorted(raw, key=int) != [str(v) for v in range(self.n)]:
            return ["vertex keys are not 0..n-1"]
        vectors = [raw[str(v)] for v in range(self.n)]
        if not all(len(x) == d and all(type(c) is int for c in x) for x in vectors):
            return [f"vectors are not integer {d}-vectors"]
        bad = 0
        for u in range(self.n):
            xu = vectors[u]
            for v in range(u + 1, self.n):
                if _sign(_margin(xu, vectors[v])) != _expected_sign(self.arcs, u, v):
                    bad += 1
        self.d, self.vectors = d, vectors
        return [f"{bad} vertex pairs violate the realizer condition"] if bad else []

    def profile_check(self, stdout: str) -> list[str]:
        """`profile from-realizer`: voter i ranks alternative a by coordinate i of a."""
        if self.vectors is None:
            return ["no verified realizer to compare with"]
        out = _json(stdout)
        voters = [[self.vectors[a][i] for a in range(self.n)] for i in range(self.d)]
        if out != {"alternatives": self.n, "voters": voters}:
            return ["profile is not the realizer read by coordinate"]
        return []

    def swapped_check(self, u: int, v: int):
        """`verify` of the realizer with the vectors of arc (u, v) swapped.

        Only pairs touching u or v change, and the unswapped realizer
        already passed `check`, so the violations are exactly the pairs
        among those whose margin sign is now wrong.
        """

        def check(stdout: str) -> list[str]:
            if self.vectors is None:
                return ["no verified realizer to compare with"]
            vec = list(self.vectors)
            vec[u], vec[v] = vec[v], vec[u]
            want = set()
            for a in (u, v):
                for b in range(self.n):
                    if b == a:
                        continue
                    x, y = min(a, b), max(a, b)
                    m = _margin(vec[x], vec[y])
                    s = _expected_sign(self.arcs, x, y)
                    if _sign(m) != s:
                        label = {1: "u>v", -1: "v>u", 0: "tie"}[s]
                        want.add((x, y, label, m))
            out = _json(stdout)
            got = {(w["u"], w["v"], w["expected"], w["margin"]) for w in out.get("violations", [])}
            if out.get("valid") is not False or got != want or not want:
                return [f"violations {sorted(got)[:5]}..., expected {sorted(want)[:5]}..."]
            return []

        return check


def arcs_check(n: int, arcs):
    """`profile digraph`: the majority digraph is the realized digraph."""
    want = sorted(map(list, arcs))

    def check(stdout: str) -> list[str]:
        out = _json(stdout)
        if out.get("n") != n or sorted(out.get("arcs", [])) != want:
            return ["majority digraph differs from the input digraph"]
        return []

    return check


def _longest_chain(points) -> int:
    """Longest componentwise chain of points with distinct coordinates."""
    tails: list[int] = []
    for _, y in sorted(points):
        i = bisect.bisect_left(tails, y)
        tails[i:i + 1] = [y]
    return len(tails)


def es_check(points):
    """`es`: a true chain or antichain of the claimed size, as large as promised.

    A chain must be a longest one; an antichain is only returned when it
    beats every chain.  Either way Erdős–Szekeres guarantees size k + 1
    once there are k^2 + 1 points.
    """
    pointset = set(points)
    longest = _longest_chain(points)
    k = math.isqrt(len(points) - 1)

    def check(stdout: str) -> list[str]:
        out = _json(stdout)
        witness = [tuple(p) for p in out["witness"]]
        problems = []
        if out["size"] != len(witness) or len(set(witness)) != len(witness):
            problems.append("size does not match the distinct witness points")
        if not set(witness) <= pointset:
            problems.append("witness has points outside the input")
        ws = sorted(witness)
        if out["kind"] == "chain":
            if any(b[1] < a[1] for a, b in zip(ws, ws[1:])):
                problems.append("chain has an incomparable pair")
            if len(witness) != longest:
                problems.append(f"chain of {len(witness)}, longest is {longest}")
        elif out["kind"] == "antichain":
            if any(b[1] >= a[1] for a, b in zip(ws, ws[1:])):
                problems.append("antichain has a comparable pair")
            if len(witness) <= longest:
                problems.append(f"antichain of {len(witness)} not above longest chain {longest}")
        else:
            problems.append(f"unknown kind {out['kind']!r}")
        if len(witness) < k + 1:
            problems.append(f"size {len(witness)} below the Erdős–Szekeres bound {k + 1}")
        return problems

    return check
