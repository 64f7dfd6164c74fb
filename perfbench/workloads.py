"""Job lists and their inputs, generated from the seed.

A job is one call of the majdim command line, `majdim.cli.main(argv)`.
Every input file a job reads is written by `make_jobs` before the first
job runs, except the realizer and profile files that an earlier job of
the same list emits (`Job.save`) and the perturbed realizer built from
one of them (`Job.before`).

Each workload stresses a different module of majdim:

* search    - `dim` on directed paths and cycles of 5-7 vertices: the
              solver's backtracking search and its space build.
* census    - `sweep 4` once plus `sweep 4 --dedup` repeated: per-call
              overhead of `solver.dimension` over many tiny digraphs and
              the brute-force canonicalization inside `cli`.
* construct - `realize`, `verify`, `profile` and `es` on large inputs:
              no search at all, only constructions, verification and
              profiles.

The seed shuffles the arc order inside edge-list files (search), picks
the random digraph, the perturbed arc and the point set (construct), or
orders the jobs (census, whose inputs have no free parameter).  None of
this changes how much work a job does, so runs with different seeds are
comparable.  Search jobs keep one order: the solver caches search spaces
per process, and the order in which they are built moves peak memory.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

SEARCH_SIZES = (5, 6, 7)
CENSUS_DEDUP_REPEATS = 25
GENERIC_VERTICES = 60
GENERIC_ARCS = 420
CYCLE_LENGTH = 600
ES_POINTS = 2500

NAMES = ("search", "census", "construct")


@dataclass
class Job:
    """One CLI call plus what its output must satisfy."""

    tag: str
    argv: list[str]
    expect_rc: int
    check: Callable[[str], list[str]]
    save: str | None = None
    before: Callable[[], None] | None = None


def _write_edge_list(path: str, n: int, arcs, rng: random.Random) -> None:
    lines = [f"{u} {v}" for u, v in arcs]
    rng.shuffle(lines)
    with open(path, "w") as fh:
        fh.write(f"# seeded arc order\n{n}\n" + "\n".join(lines) + "\n")


def path_arcs(n: int) -> set[tuple[int, int]]:
    return {(i, i + 1) for i in range(n - 1)}


def cycle_arcs(n: int) -> set[tuple[int, int]]:
    return {(i, (i + 1) % n) for i in range(n)}


def _search_jobs(rng: random.Random, work: str) -> list[Job]:
    jobs = []
    for family, arcs_of in (("path", path_arcs), ("cycle", cycle_arcs)):
        for n in SEARCH_SIZES:
            tag = f"{family} {n}"
            file = os.path.join(work, f"{family}{n}.txt")
            _write_edge_list(file, n, sorted(arcs_of(n)), rng)
            known = oracle.KNOWN_DIMENSIONS[family](n)
            jobs.append(Job(tag, ["dim", file], 0, oracle.dim_check(known)))
    return jobs


def _census_jobs(rng: random.Random, work: str) -> list[Job]:
    jobs = [Job("sweep 4", ["sweep", "4"], 0, oracle.sweep_check("sweep 4"))]
    jobs += [
        Job("sweep 4 --dedup", ["sweep", "4", "--dedup"], 0,
            oracle.sweep_check("sweep 4 --dedup"))
        for _ in range(CENSUS_DEDUP_REPEATS)
    ]
    rng.shuffle(jobs)
    return jobs


def _random_oriented_graph(rng: random.Random, n: int, m: int) -> set[tuple[int, int]]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return {(u, v) if rng.random() < 0.5 else (v, u) for u, v in rng.sample(pairs, m)}


def _swap_vectors(src: str, dst: str, u: int, v: int) -> None:
    """Copy realizer JSON src to dst with the vectors of u and v swapped.

    For an arc (u, v) this flips the sign of margin(u, v), so dst is
    invalid whenever src was valid.
    """
    with open(src) as fh:
        data = json.load(fh)
    vec = data["vectors"]
    vec[str(u)], vec[str(v)] = vec[str(v)], vec[str(u)]
    with open(dst, "w") as fh:
        json.dump(data, fh)


def _construct_jobs(rng: random.Random, work: str) -> list[Job]:
    def p(name: str) -> str:
        return os.path.join(work, name)

    g_arcs = _random_oriented_graph(rng, GENERIC_VERTICES, GENERIC_ARCS)
    _write_edge_list(p("g.txt"), GENERIC_VERTICES, sorted(g_arcs), rng)
    c_arcs = cycle_arcs(CYCLE_LENGTH)
    _write_edge_list(p("c.txt"), CYCLE_LENGTH, sorted(c_arcs), rng)
    xs = rng.sample(range(10**6), ES_POINTS)
    ys = rng.sample(range(10**6), ES_POINTS)
    points = list(zip(xs, ys))
    with open(p("points.txt"), "w") as fh:
        fh.write("".join(f"{x} {y}\n" for x, y in points))
    swapped = rng.choice(sorted(g_arcs))

    g_realizer = oracle.RealizerCheck(GENERIC_VERTICES, g_arcs)
    c_realizer = oracle.RealizerCheck(CYCLE_LENGTH, c_arcs)
    return [
        Job("realize generic", ["realize", "generic", "-d", p("g.txt")], 0,
            g_realizer.check, save=p("g.json")),
        Job("realize cycle", ["realize", "cycle", str(CYCLE_LENGTH)], 0,
            c_realizer.check, save=p("c.json")),
        Job("verify generic", ["verify", p("g.txt"), p("g.json")], 0, oracle.valid_check),
        Job("verify cycle", ["verify", p("c.txt"), p("c.json")], 0, oracle.valid_check),
        Job("verify perturbed", ["verify", p("g.txt"), p("bad.json")], 1,
            g_realizer.swapped_check(*swapped),
            before=lambda: _swap_vectors(p("g.json"), p("bad.json"), *swapped)),
        Job("profile from-realizer generic", ["profile", "from-realizer", p("g.json")], 0,
            g_realizer.profile_check, save=p("g.profile.json")),
        Job("profile from-realizer cycle", ["profile", "from-realizer", p("c.json")], 0,
            c_realizer.profile_check, save=p("c.profile.json")),
        Job("profile digraph generic", ["profile", "digraph", p("g.profile.json")], 0,
            oracle.arcs_check(GENERIC_VERTICES, g_arcs)),
        Job("profile digraph cycle", ["profile", "digraph", p("c.profile.json")], 0,
            oracle.arcs_check(CYCLE_LENGTH, c_arcs)),
        Job("es", ["es", p("points.txt")], 0, oracle.es_check(points)),
    ]


_MAKERS = {"search": _search_jobs, "census": _census_jobs, "construct": _construct_jobs}


def make_jobs(workload: str, seed: int, work: str) -> list[Job]:
    """Write the workload's inputs into `work` and return its job list."""
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, work)
