"""One pass of a workload, in a fresh process: a single closed-loop client.

    python3 perfbench/client.py --workload W --seed N --work DIR --spawned T
        [--trace SPANS_FILE] [--setup-only]
    python3 perfbench/client.py --probe-spaces n,d [n,d ...]

The client imports majdim from ./src, writes the workload's inputs into
DIR and issues the job list one call of `majdim.cli.main` at a time, with
stdout captured.  Only after the last job does it check the answers, so
the oracle's time is not part of `wall_s`.  It prints one JSON object.

`--spawned` is the parent's `time.monotonic()` just before it started
this process; set-up time runs from there to the first job.  With
`--setup-only` the client stops at that point.  With `--trace` it wraps
majdim's public functions first and writes the spans to SPANS_FILE.
`--probe-spaces` times the solver's search-space build: for each (n, d)
the first `is_realizable(empty(n), d)` of a fresh process minus a warm
repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import majdim.cli  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def _call(argv: list[str]) -> tuple[int | None, str, str | None]:
    """Run one CLI job; return exit code, stdout and the error, if it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = majdim.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        return None, out.getvalue(), traceback.format_exc(limit=3)
    return rc, out.getvalue(), None


def _check(job: workloads.Job, rc, stdout: str, error) -> list[str]:
    if error is not None:
        return [f"uncaught exception: {error.strip().splitlines()[-1]}"]
    problems = [] if rc == job.expect_rc else [f"exit code {rc}, expected {job.expect_rc}"]
    try:
        problems += job.check(stdout)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _count_changes(workload: str, records: list[dict], stdout_bytes: int) -> list[str]:
    """Deterministic counts that differ from expected.json: reported, not failed."""
    with open(EXPECTED) as fh:
        expected = json.load(fh).get(workload, {})
    changes = []
    for rec in records:
        want = expected.get("nodes_per_d", {}).get(rec["tag"])
        if want is not None and rec.get("nodes_per_d") != want:
            changes.append(f"{rec['tag']}: nodes per d {rec.get('nodes_per_d')}, recorded {want}")
    if "stdout_bytes" in expected and stdout_bytes != expected["stdout_bytes"]:
        changes.append(f"stdout bytes {stdout_bytes}, recorded {expected['stdout_bytes']}")
    return changes


def run_pass(args) -> dict:
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        recorder.install()
    jobs = workloads.make_jobs(args.workload, args.seed, args.work)
    first = time.monotonic()
    setup_s = first - args.spawned
    if args.setup_only:
        return {"setup_s": setup_s}

    results = []
    for i, job in enumerate(jobs):
        if job.before is not None:
            job.before()
        if recorder is not None:
            recorder.job = i
        t0 = time.perf_counter()
        rc, stdout, error = _call(job.argv)
        latency = time.perf_counter() - t0
        if job.save is not None:
            with open(job.save, "w") as fh:
                fh.write(stdout)
        results.append((job, rc, stdout, error, latency))
    wall_s = time.monotonic() - first
    usage = resource.getrusage(resource.RUSAGE_SELF)

    records = []
    for job, rc, stdout, error, latency in results:
        problems = _check(job, rc, stdout, error)
        rec = {"tag": job.tag, "rc": rc, "latency_s": latency,
               "stdout_bytes": len(stdout.encode()), "problems": problems}
        if job.argv[0] == "dim" and not problems:
            rec["nodes_per_d"] = oracle.dim_nodes(stdout)
        records.append(rec)
    stdout_bytes = sum(r["stdout_bytes"] for r in records)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "stdout_bytes": stdout_bytes,
        "count_changes": _count_changes(args.workload, records, stdout_bytes),
        "jobs": records,
    }
    if recorder is not None:
        recorder.dump(args.trace)
        layers = recorder.layer_metrics()
        layers["cli.stdout_bytes"] = stdout_bytes
        out["layers"] = layers
        out["search_spaces"] = sorted(recorder.search_spaces)
        self_s, _, _ = recorder.self_times()
        out["self_time_share"] = {k: v / wall_s for k, v in sorted(self_s.items())}
    return out


def probe_spaces(pairs: list[str]) -> dict:
    from majdim.digraph import empty
    from majdim.solver import is_realizable

    builds = {}
    for pair in pairs:
        n, d = map(int, pair.split(","))
        t0 = time.perf_counter()
        is_realizable(empty(n), d)
        t1 = time.perf_counter()
        is_realizable(empty(n), d)
        t2 = time.perf_counter()
        builds[pair] = (t1 - t0) - (t2 - t1)
    return {"space_build_s": sum(builds.values()), "per_space": builds}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--work")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe-spaces", nargs="+")
    args = parser.parse_args()
    result = probe_spaces(args.probe_spaces) if args.probe_spaces else run_pass(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
