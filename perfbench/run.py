"""majdim benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload {search,census,construct}
        --seed N --seconds S --trace {0,1}

Run from the root of a majdim checkout; majdim is imported from ./src.

A pass is one fresh process (perfbench/client.py) that runs the
workload's whole job list as a single closed-loop client; passes run one
after another, never two at once.  The run repeats passes while another
average-length pass still fits in S seconds (at least one).  Before each
untraced pass it also starts SETUP_PROBES clients that stop before the
first job, so set-up samples are spread over the whole run.

--trace 0 reports the medians over passes of the end-to-end metrics:
  setup_s      process start until the first job is issued (interpreter,
               `import majdim` with numpy, inputs from the seed); median
               over the set-up probes and the passes
  wall_s       first job issued until the last job answered
  cpu_s        user plus system CPU of the pass process
  peak_rss_mb  peak resident memory of the pass process
--trace 1 alternates untraced and traced passes and reports the median
per-layer metrics of the traced ones (see tracing.py), the search-space
build time from a separate cold probe process, and the tracing overhead,
traced minus untraced wall_s.

Every answer is checked by oracle.py.  The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the exit code
is 1 when any job failed.  Counts that differ from perfbench/expected.json
(search nodes per d, stdout bytes) are printed to stderr, not failed.
A result file with every pass and its provenance goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import NAMES as WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENT = os.path.join(HERE, "client.py")
OUT = ".perfbench"
SETUP_PROBES = 1
PASS_TIMEOUT_S = 150

# One thread per process: numpy's BLAS pool would otherwise start a
# worker per CPU at import, and the benchmark runs no worker threads.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A pass process failed to run; no result can be reported."""


def _spawn(extra: list[str]) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CLIENT, *extra, "--spawned", repr(spawned)],
        capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"client exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"client printed no result: {proc.stdout[-500:]!r}")
    result["process_s"] = time.monotonic() - spawned
    return result


def _pass(args, label: str, traced: bool, setup_only: bool = False) -> dict:
    work = os.path.join(OUT, "work", f"{os.getpid()}-{label}")
    os.makedirs(work)
    extra = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    if setup_only:
        extra.append("--setup-only")
    if traced:
        extra += ["--trace", os.path.join(OUT, "results", f"{_stem(args)}-{label}-spans.json")]
    try:
        return _spawn(extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def _git_commit() -> str | None:
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _run_passes(args) -> list[dict]:
    """Passes while one more pass of the average length so far fits in the budget.

    Traced runs alternate untraced and traced passes and need one of each.
    """
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        label = f"pass{len(passes)}"
        traced = bool(args.trace) and len(passes) % 2 == 1
        probes = [] if args.trace else [
            _pass(args, f"{label}-setup{i}", False, setup_only=True)["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        result = _pass(args, label, traced)
        result["traced"] = traced
        result["setup_probes_s"] = probes
        passes.append(result)
        if args.trace and len(passes) < 2:
            continue
        typical = (time.monotonic() - start) / len(passes)
        if time.monotonic() - start + typical > args.seconds:
            return passes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_units() -> dict[str, str]:
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _trace_metrics(passes: list[dict]) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    units = _layer_units()
    names = [n for n in units if n not in ("trace.overhead_s", "solver.space_build_s")]
    metrics = {n: _metric(statistics.median_low(p["layers"][n] for p in traced), units[n])
               for n in names}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = _metric(overhead, units["trace.overhead_s"])
    spaces = sorted({f"{n},{d}" for p in traced for n, d in p["search_spaces"]})
    probe = _spawn(["--probe-spaces", *spaces]) if spaces else {"space_build_s": 0.0}
    metrics["solver.space_build_s"] = _metric(probe["space_build_s"], units["solver.space_build_s"])
    return metrics, probe


def main() -> int:
    parser = argparse.ArgumentParser(description="majdim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "majdim", "cli.py")):
        print("error: run from the root of a majdim checkout (no src/majdim)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)

    try:
        passes = _run_passes(args)
        report = {"provenance": _provenance(args), "passes": passes}
        if args.trace:
            metrics, report["space_probe"] = _trace_metrics(passes)
        else:
            samples = {
                "setup_s": [s for p in passes for s in (*p["setup_probes_s"], p["setup_s"])],
                **{k: [p[k] for p in passes] for k in ("wall_s", "cpu_s", "peak_rss_mb")},
            }
            metrics = {k: _metric(statistics.median(v), END_TO_END[k]) for k, v in samples.items()}
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for job in p["jobs"]:
            if job["problems"]:
                print(f"FAILED {job['tag']}: {'; '.join(job['problems'])}", file=sys.stderr)
    for change in sorted({c for p in passes for c in p["count_changes"]}):
        print(f"count changed: {change}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report["result"] = result
    with open(os.path.join(OUT, "results", f"{_stem(args)}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
