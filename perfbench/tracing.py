"""In-memory span recorder for the traced benchmark run.

`install` wraps majdim's public functions from outside the package.
Modules import each other's functions by name (`cli` calls `build` and
`verify`, `solver` calls `verify` and `condense`), so a function is
replaced under every module attribute that holds it, not only where it is
defined.  Each call becomes a span: name, start, end, parent span and the
job it belongs to.  Fine-grained helpers called per vertex pair
(`margin`, `majority_margin`) are left unwrapped, so their time counts as
their caller's self time and the wrappers stay cheap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) -> span name.  Several functions may share a name.
SPANS = {
    ("majdim.cli", "main"): "cli",
    ("majdim.solver", "is_realizable"): "solver.search",
    ("majdim.solver", "dimension"): "solver.dimension",
    ("majdim.solver", "es_chain_or_antichain"): "solver.es",
    ("majdim.digraph", "build"): "digraph.build",
    ("majdim.digraph", "condense"): "digraph.condense",
    ("majdim.digraph", "is_transitive"): "digraph.predicates",
    ("majdim.digraph", "has_induced_two_path"): "digraph.predicates",
    ("majdim.digraph", "is_tournament"): "digraph.predicates",
    ("majdim.digraph", "is_acyclic_tournament"): "digraph.predicates",
    ("majdim.digraph", "from_edge_list"): "digraph.parse",
    ("majdim.realizer", "verify"): "realizer.verify",
    ("majdim.realizer", "realizer_to_json"): "realizer.json",
    ("majdim.realizer", "realizer_from_json"): "realizer.json",
    ("majdim.constructions", "generic_realizer"): "constructions.generic_realizer",
    ("majdim.constructions", "realize_cycle"): "constructions.realize_cycle",
    ("majdim.constructions", "cycle_matrix"): "constructions.cycle_matrix",
    ("majdim.profiles", "realizer_to_profile"): "profiles.realizer_to_profile",
    ("majdim.profiles", "majority_digraph"): "profiles.majority_digraph",
    ("majdim.profiles", "profile_to_json"): "profiles.json",
    ("majdim.profiles", "profile_from_json"): "profiles.json",
}


class Recorder:
    """Spans as [name, start, end, parent index, job index], plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.search_spaces: set[tuple[int, int]] = set()
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = (start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # Counters read from arguments and results at the span boundary.

    def _after_search(self, args, kwargs, outcome) -> None:
        D, d = args[0], args[1] if len(args) > 1 else kwargs["d"]
        self.counts["solver.search.nodes"] += outcome.nodes_explored
        self.counts[f"solver.search.nodes.d{d}"] += outcome.nodes_explored
        self.search_spaces.add((D.n, d))

    def _after_dimension(self, args, kwargs, result) -> None:
        self.counts["solver.shortcut.verdicts"] += sum(
            1 for d, outcome in result.per_d if d <= 1 and outcome.nodes_explored == 0
        )

    def _after_verify(self, args, kwargs, report) -> None:
        D, f = args[0], args[1]
        self.counts["realizer.verify.coord_cmps"] += D.n * (D.n - 1) // 2 * f.d

    def install(self) -> None:
        """Replace every traced function under each name that refers to it."""
        after = {
            "solver.search": self._after_search,
            "solver.dimension": self._after_dimension,
            "realizer.verify": self._after_verify,
        }
        wrappers = {}
        for (module, attr), name in SPANS.items():
            original = getattr(sys.modules[module], attr)
            wrappers[id(original)] = self.wrap(name, original, after.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "majdim" and not modname.startswith("majdim."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)

    def self_times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Self time, total time and call count per span name.

        Self time is a span's duration minus its direct children's; spans
        of one thread nest, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, total_s, calls = defaultdict(float), defaultdict(float), Counter()
        for idx, (name, start, end, parent, job) in enumerate(self.spans):
            self_s[name] += end - start - child_time[idx]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass, keyed by metric name."""
        self_s, total_s, calls = self.self_times()
        c = self.counts
        search_s = total_s["solver.search"]
        verify_s = total_s["realizer.verify"]
        return {
            "solver.search.s": self_s["solver.search"],
            "solver.search.calls": calls["solver.search"],
            "solver.search.nodes": c["solver.search.nodes"],
            "solver.search.nodes.d2": c["solver.search.nodes.d2"],
            "solver.search.nodes.d3": c["solver.search.nodes.d3"],
            "solver.search.nodes.d4": c["solver.search.nodes.d4"],
            "solver.search.nodes_per_s": c["solver.search.nodes"] / search_s if search_s else 0.0,
            "solver.dimension.s": self_s["solver.dimension"],
            "solver.dimension.calls": calls["solver.dimension"],
            "solver.shortcut.verdicts": c["solver.shortcut.verdicts"],
            "solver.es.s": self_s["solver.es"],
            "cli.self_s": self_s["cli"],
            "cli.commands": calls["cli"],
            "digraph.build.s": self_s["digraph.build"],
            "digraph.build.calls": calls["digraph.build"],
            "digraph.condense.s": self_s["digraph.condense"],
            "digraph.condense.calls": calls["digraph.condense"],
            "digraph.predicates.s": self_s["digraph.predicates"],
            "digraph.parse.s": self_s["digraph.parse"],
            "realizer.verify.s": self_s["realizer.verify"],
            "realizer.verify.calls": calls["realizer.verify"],
            "realizer.verify.coord_cmps_per_s":
                c["realizer.verify.coord_cmps"] / verify_s if verify_s else 0.0,
            "realizer.json.s": self_s["realizer.json"],
            "constructions.generic_realizer.s": self_s["constructions.generic_realizer"],
            "constructions.realize_cycle.s": self_s["constructions.realize_cycle"],
            "constructions.cycle_matrix.s": self_s["constructions.cycle_matrix"],
            "profiles.realizer_to_profile.s": self_s["profiles.realizer_to_profile"],
            "profiles.majority_digraph.s": self_s["profiles.majority_digraph"],
            "profiles.json.s": self_s["profiles.json"],
        }
