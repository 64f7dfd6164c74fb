"""Command-line front end.

Commands: gen, verify, realize, dim, condense, sweep, profile, es.
Digraphs travel as edge-list text (first line the vertex count, then one
"u v" arc per line, '#' comments allowed), realizers and profiles as JSON.

Exit codes: 0 success, 1 negative answer on a valid run (invalid realizer,
dimension not pinned down), 2 input error, out of memory or a reader that
closed stdout early (the `majdim` script, `entry`, exits quietly), 3
internal invariant breach: a failed self-check (`realizer.SelfCheckFailed`)
in `dim`, `sweep` or `realize`, or a sweep summary fact that does not hold.

`main` registers only the subparser of the command that argv[0] names
(every command for anything else: no argv, -h, an unknown word), because
building all eight takes about 1 ms, as long as a small `dim` job, and one
about 0.2 ms.  Each parser is built once per process and reused by every
later `main` call, such as the many calls of a test run.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from . import constructions, profiles, solver
from .digraph import (
    FAMILIES,
    Digraph,
    DigraphError,
    build,
    condense,
    disjoint_union,
    from_edge_list,
    generate,
    has_induced_two_path,
    is_acyclic_tournament,
    is_transitive,
    parse_int,
    to_dot,
    to_edge_list,
)
from .realizer import (
    Realizer,
    RealizerError,
    SelfCheckFailed,
    realizer_from_json,
    realizer_to_json,
    verified,
    verify,
)


class ParseError(ValueError):
    """Input file failed to parse."""


def _int(text: str) -> int:
    """argparse type for integer arguments: ASCII decimal digits only."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _nonnegative_int(text: str) -> int:
    """argparse type for --budget and --max-d: a negative value is an input error."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _read(path_str: str) -> str:
    try:
        return Path(path_str).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path_str}: {exc}")


def _load(path_str: str, parse):
    """parse(the file's text): each reader raises only its own input errors,
    which become a ParseError naming the file."""
    try:
        return parse(_read(path_str))
    except (DigraphError, json.JSONDecodeError, RealizerError, profiles.ProfileError) as exc:
        raise ParseError(f"{path_str}: {exc}")


def _load_points(path_str: str) -> list[tuple[int, int]]:
    points = []
    for lineno, raw in enumerate(_read(path_str).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"{path_str}:{lineno}: expected 'x y', got {raw!r}")
        try:
            points.append((parse_int(fields[0]), parse_int(fields[1])))
        except ValueError:
            raise ParseError(f"{path_str}:{lineno}: bad point {raw!r}")
    return points


# --- commands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    D = generate(args.family, *args.params)
    sys.stdout.write(to_dot(D) if args.dot else to_edge_list(D))
    return 0


def _cmd_verify(args) -> int:
    D = _load(args.digraph, from_edge_list)
    f = _load(args.realizer, realizer_from_json)
    report = verify(D, f)
    if report.valid:
        print(json.dumps({"valid": True}))
        return 0
    print(json.dumps({"valid": False, "violations": [w._asdict() for w in report.violations]}))
    return 1


def _emit_realizer(D: Digraph, f: Realizer) -> int:
    print(realizer_to_json(verified(D, f, "construction")))
    return 0


# method: the construction that realizes the digraph `realize method n` generates
_GENERATED = {
    "path": lambda D: constructions.realize_path(D.n),
    "cycle": lambda D: constructions.realize_cycle(D.n),
    "tournament": constructions.realize_acyclic_tournament,
    "empty": constructions.realize_empty,
}


def _cmd_realize(args) -> int:
    method = args.method
    if method in _GENERATED:
        if args.digraph:
            raise ParseError(f"realize {method} takes one parameter n, not --digraph files")
        if len(args.params) != 1:
            raise ParseError(f"realize {method} takes exactly one parameter n")
        D = generate(method, args.params[0])
        return _emit_realizer(D, _GENERATED[method](D))
    if args.params:
        raise ParseError(f"realize {method} takes digraph files, not parameters")
    if not args.digraph:
        raise ParseError(f"realize {method} needs at least one --digraph file")
    if method == "union":
        if len(args.digraph) < 2:
            raise ParseError("realize union needs at least two --digraph files")
        parts = [_load(p, from_edge_list) for p in args.digraph]
        pairs = [(D, constructions.generic_realizer(D)) for D in parts]
        return _emit_realizer(disjoint_union(parts), constructions.union_realizer(pairs))
    if len(args.digraph) != 1:
        raise ParseError(f"realize {method} takes exactly one --digraph file")
    D = _load(args.digraph[0], from_edge_list)
    if method == "generic":
        return _emit_realizer(D, constructions.generic_realizer(D))
    cr = condense(D)
    f_star = constructions.generic_realizer(cr.condensed)
    return _emit_realizer(D, constructions.condense_lift(D, cr, f_star))


def _dimension_payload(result: solver.DimensionResult) -> dict:
    payload: dict = {}
    if result.known:
        payload["dimension"] = result.dimension
    else:
        payload["unknown"] = {"lower": result.lower, "upper": result.upper}
    payload["per_d"] = [_level_payload(d, outcome) for d, outcome in result.per_d]
    return payload


def _level_payload(d: int, outcome: solver.SolveOutcome) -> dict:
    row = {"d": d, "verdict": outcome.verdict.value, "nodes": outcome.nodes_explored,
           "reason": outcome.reason}
    if outcome.obstruction is not None:
        row["obstruction"] = outcome.obstruction.name
        row["vertices"] = list(outcome.obstruction.vertices)
    return row


def _cmd_dim(args) -> int:
    D = _load(args.digraph, from_edge_list)
    result = solver.dimension(D, max_d=args.max_d, budget=args.budget)
    print(json.dumps(_dimension_payload(result)))
    return 0 if result.known else 1


def _cmd_condense(args) -> int:
    D = _load(args.digraph, from_edge_list)
    cr = condense(D)
    if args.dot:
        sys.stdout.write(to_dot(cr.condensed, name="condensed"))
        return 0
    print(json.dumps({
        "classes": cr.condensed.n,
        "representative": cr.representative,
        "class_of": cr.class_of,
        "condensed": {"n": cr.condensed.n, "arcs": cr.condensed.sorted_arcs()},
    }))
    return 0


class SweepRow(NamedTuple):
    """One digraph's entry in a sweep: code, size, dimension, predicates."""

    digraph_code: str
    n: int
    arc_count: int
    dimension: int | None
    lower: int
    upper: int
    transitive: bool
    induced_two_path: bool
    dim1_condensation: bool


def _arc_code(arcs) -> str:
    return ";".join(f"{u}>{v}" for u, v in sorted(arcs))


def _sweep_row(D: Digraph, code: str, budget: int, max_d: int | None) -> SweepRow:
    # Search at every d, so the dim0/dim1 summary flags compare the search
    # with the characterizations that `dimension` would otherwise shortcut to.
    result = solver.dimension(D, max_d=max_d, budget=budget, shortcuts=False)
    cr = condense(D)
    row = SweepRow(
        digraph_code=code,
        n=D.n,
        arc_count=len(D.arcs),
        dimension=result.dimension,
        lower=result.lower,
        upper=result.upper,
        transitive=is_transitive(D),
        induced_two_path=has_induced_two_path(D),
        dim1_condensation=bool(cr.condensed.arcs) and is_acyclic_tournament(cr.condensed),
    )
    if row.dimension is not None:
        if (row.dimension > 2 * min(row.arc_count, row.n)
                or (row.dimension == 0) != (row.arc_count == 0)):
            raise SelfCheckFailed(f"sweep row breaks dimension bounds: {row}")
    return row


def _sweep_rows(n: int, dedup: bool, budget: int, max_d: int | None) -> list[SweepRow]:
    """The SweepRows that `sweep` reports for the digraphs on n vertices.

    One walk over the 3^C states of the C vertex pairs u < v, in
    itertools.product order (0: no arc, 1: u -> v, 2: v -> u).  A state's
    code is its base-3 number with the last pair as the fastest digit, so
    the codes come in walk order, 0 to 3^C - 1.  Each relabeling p has one
    table: entry 3 * j + t is what pair j in state t adds to the code of
    p's image, so an image code is a sum over the arcs.  Above the code
    bits the same entry adds bit n^2 - 1 - (a * n + b) of an arc-order key
    for the image arc (a, b).  The walk handles only the first state of
    each class, in both modes, and the flat list class_of gives all its
    image codes the class's index; a state whose class is known is
    skipped.  So the walk keeps one index per state, one row per class and
    3C entries per relabeling, not the images themselves.

    Every field of a row except `digraph_code` is an isomorphism invariant
    (relabeling the vertices of a realizer realizes the relabeled digraph,
    and the predicates and the condensation commute with relabeling), so
    the rows are read after the walk.  With dedup they are the class table
    itself, each class coded by the least arc code over its relabelings;
    `sweep` caps n at 5, so labels are one digit and the least code is the
    code of the least sorted arc list.  That list has the largest key: all
    images have the same arc count, so where two sorted lists first differ,
    the lesser one holds an arc below every arc of the symmetric
    difference, and that arc is the highest key bit they do not share.
    Without dedup there is one row per state, rows[class_of[code]] under
    the state's own arc code.

    The converse D^T of a new class D (every arc reversed) has D's code
    with digits 1 and 2 swapped, the sum of add[v, u] over D's arcs (u, v),
    and it is looked up before D's images are registered, so a
    self-converse class finds no earlier class.  Every field but the code
    is the same for D and D^T:
    - margin(-x, -y) = margin(y, x), so f realizes D exactly when -f
      realizes D^T, and the two have the same dimension; a settled row has
      lower = upper = dimension.
    - D^T is transitive exactly when D is.
    - x -> y -> z is an induced two-path of D exactly when z -> y -> x is
      one of D^T.
    - Reversal swaps out- and in-neighbourhoods, so D and D^T have the
      same homogeneous classes, the condensation of D^T is the converse of
      D's, and the converse of a nonempty acyclic tournament is one too.
    - n and the arc count do not change.
    So a class whose converse class came first takes that class's row when
    it is settled.  Otherwise it searches, and when its search settles,
    the earlier class's entry takes that row too, keeping its own code;
    when its search runs out as well, it takes the earlier class's row.

    Node counts do depend on the labeling, so under a budget too small to
    finish a level every member reports its class's row: the rows of
    isomorphic digraphs are equal, as dedup assumes, and so are the rows
    of the two classes of a converse pair.  A pair's row is unknown only
    when the searches of both its classes run out.
    """
    pairs = list(itertools.combinations(range(n), 2))
    shift = (3 ** len(pairs)).bit_length()
    low = (1 << shift) - 1  # the code bits of an image
    place = {pair: 3**j for j, pair in enumerate(reversed(pairs))}
    top = shift + n * n - 1  # the key bit of arc (0, 0)
    # add[a, b]: the image arc (a, b)'s digit at its pair's place, plus its key bit
    add = {(a, b): (1 + (a > b)) * place[min(a, b), max(a, b)] + (1 << top - a * n - b)
           for a, b in itertools.permutations(range(n), 2)}
    tables = [[x for u, v in pairs for x in (0, add[p[u], p[v]], add[p[v], p[u]])]
              for p in itertools.permutations(range(n))]

    def arcs_of(states):
        return [(u, v) if s == 1 else (v, u) for (u, v), s in zip(pairs, states) if s]

    class_of = [-1] * 3 ** len(pairs)
    rows: list[SweepRow] = []  # one per class, under its first or least code
    for code, states in enumerate(itertools.product(range(3), repeat=len(pairs))):
        if class_of[code] >= 0:
            continue
        arcs = arcs_of(states)
        mirror = class_of[sum(add[v, u] for u, v in arcs) & low]
        entries = [3 * j + s for j, s in enumerate(states) if s]
        images = [sum(map(table.__getitem__, entries)) for table in tables]
        for image in images:
            class_of[image & low] = len(rows)
        key = max(images) >> shift
        least = [divmod(i, n) for i in range(n * n) if key >> n * n - 1 - i & 1]
        own = _arc_code(least if dedup else arcs)
        if mirror < 0:
            row = _sweep_row(build(n, arcs), own, budget, max_d)
        elif (row := rows[mirror]).dimension is None:
            searched = _sweep_row(build(n, arcs), own, budget, max_d)
            if searched.dimension is not None:
                row = rows[mirror] = SweepRow(row.digraph_code, *searched[1:])
        rows.append(SweepRow(own, *row[1:]))
    if dedup:
        return rows
    return [SweepRow(_arc_code(arcs_of(states)), *rows[k][1:])
            for k, states in zip(class_of, itertools.product(range(3), repeat=len(pairs)))]


def _cmd_sweep(args) -> int:
    n = args.n
    limit, mode = (5, "with") if args.dedup else (4, "without")
    if not (0 <= n <= limit):
        raise ParseError(f"sweep supports 0 <= n <= {limit} {mode} --dedup")
    rows = _sweep_rows(n, args.dedup, args.budget, args.max_d)

    if args.csv:
        print(",".join(SweepRow._fields))
        for r in rows:
            print(",".join("" if v is None else str(v) for v in r))
    else:
        for r in rows:
            print(json.dumps(r._asdict()))

    known = [r for r in rows if r.dimension is not None]
    summary = {
        "rows": len(rows),
        "unknown_rows": len(rows) - len(known),
        "histogram": dict(sorted(Counter(r.dimension for r in known).items())),
        "dim_le2_all_transitive": all(r.transitive for r in known if r.dimension <= 2),
        "dim_le2_no_induced_two_path": all(
            not r.induced_two_path for r in known if r.dimension <= 2
        ),
        "dim1_iff_condensed_acyclic_tournament": all(
            (r.dimension == 1) == r.dim1_condensation for r in known
        ),
        "dim0_iff_empty": all((r.dimension == 0) == (r.arc_count == 0) for r in known),
    }
    print(json.dumps({"summary": summary}), file=sys.stderr if args.csv else sys.stdout)
    checks = [v for k, v in summary.items() if k.startswith("dim")]
    return 0 if all(checks) else 3


def _cmd_profile(args) -> int:
    sub = args.subcommand
    if sub == "from-realizer":
        f = _load(args.file, realizer_from_json)
        print(profiles.profile_to_json(profiles.realizer_to_profile(f)))
        return 0
    R = _load(args.file, profiles.profile_from_json)
    if sub == "margin":
        margins = profiles.majority_margins(R)
        print(json.dumps({"alternatives": R.alternatives, "margins": margins}))
        return 0
    if sub == "digraph":
        D = profiles.majority_digraph(R)
        print(json.dumps({"n": D.n, "arcs": D.sorted_arcs()}))
        return 0
    print(realizer_to_json(profiles.profile_to_realizer(R)))
    return 0


def _cmd_es(args) -> int:
    kind, witness = solver.es_chain_or_antichain(_load_points(args.points))
    print(json.dumps({"kind": kind, "size": len(witness), "witness": [list(p) for p in witness]}))
    return 0


_BOUNDS = [("--max-d", {"type": _nonnegative_int, "default": None}),
           ("--budget", {"type": _nonnegative_int, "default": solver.DEFAULT_BUDGET})]

# name: (handler, help, arguments); an argument is its flags, then add_argument's options.
_COMMANDS = {
    "gen": (_cmd_gen, "emit a named digraph family as an edge list", [
        ("family", {"choices": sorted(FAMILIES)}),
        ("params", {"nargs": "+", "type": _int}),
        ("--dot", {"action": "store_true", "help": "emit DOT instead of an edge list"})]),
    "verify": (_cmd_verify, "check a realizer against a digraph",
               [("digraph", {}), ("realizer", {})]),
    "realize": (_cmd_realize, "construct a realizer (self-verified before emit)", [
        ("method", {"choices": [*_GENERATED, "generic", "union", "condense-lift"]}),
        ("params", {"nargs": "*", "type": _int}),
        ("--digraph", "-d", {"action": "append", "default": [], "metavar": "FILE"})]),
    "dim": (_cmd_dim, "exact weak majority dimension: proved rules, then search",
            [("digraph", {}), *_BOUNDS]),
    "condense": (_cmd_condense, "homogeneous-class condensation", [
        ("digraph", {}),
        ("--dot", {"action": "store_true", "help": "emit the condensed digraph as DOT"})]),
    "sweep": (_cmd_sweep, "dimensions of every labeled digraph on n vertices", [
        ("n", {"type": _int}), *_BOUNDS,
        ("--dedup", {"action": "store_true", "help": "one row per isomorphism class"}),
        ("--csv", {"action": "store_true", "help": "CSV rows instead of JSON lines"})]),
    "profile": (_cmd_profile, "majority margins and realizer correspondence", [
        ("subcommand", {"choices": ["margin", "digraph", "to-realizer", "from-realizer"]}),
        ("file", {})]),
    "es": (_cmd_es, "longest chain or antichain of planar points",
           [("points", {"help": "text file with one 'x y' point per line"})]),
}


@functools.cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The majdim parser with every command, or with the named one alone.

    argparse names the command argument by its metavar in error messages
    when one is set, so only the one-command parser sets it, to keep the
    usage line listing every command.
    """
    parser = argparse.ArgumentParser(
        prog="majdim",
        description="Weak majority dimension toolkit: verify realizers, build them, "
        "compute exact dimensions, condense digraphs, and relate profiles to realizers.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else [command]:
        func, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for *flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DigraphError, RealizerError, constructions.ConstructionError,
            profiles.ProfileError, solver.PointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except SelfCheckFailed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the
        # interpreter's own flush at exit finds no pipe to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
