"""Benchmark of ldpcbounds experiment runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads, metric names and units are listed in BENCHMARK.json at the
root of the repository; NOTES.md says why each was chosen.  One process
at a time does the work, with ``threads=1``, so on a small machine the
numbers measure the program and not the scheduler.

``--trace 0`` measures the end-to-end metrics with tracing off.  It runs
the workload's config at ``--seed`` and then at seeds derived from it, one
fresh process per run, while the next run is expected to end within
``--seconds``; every run is a different input, so ``wall_s`` and
``cpu_s`` are means over the set.  ``setup_s`` is the median over at
least five process starts, ``peak_rss_mb`` the median over the runs.

``--trace 1`` runs the config at ``--seed`` once with tracing off and
once with spans around each layer (see tracing.py), checks that both
write the same bytes, and reports the per-layer metrics of the traced
run together with ``trace.overhead_s``.  Exact counters are kept in
``.perfbench_runs/counters.json`` per workload, seed and digest of the
code; a later traced run of the same code and seed must reproduce them.

At the default seed every output file must match its pinned digest; at
any seed the outputs must pass the checks in workloads.py.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 without that line
means the benchmark could not run at all (for instance, no program).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170.0  # the whole invocation must end within 180 s
MAX_MEASURE_S = 60.0  # so that the longest run set still ends before DEADLINE_S
MIN_SETUPS = 5
RUNS_DIR = ".perfbench_runs"

# Counters that must repeat exactly for the same code, seed and workload.
EXACT_COUNTERS = (
    "tanner.sample_graph_with_attempts.calls",
    "tanner.sample_graph_with_attempts.attempts",
    "tanner.TannerGraph.__init__.calls",
    "tanner.bfs_distances.queries",
    "tanner.bfs_distances.nodes_per_query",
    "bp.decode.calls",
    "oracle.free_dim.mean",
    "oracle.free_dim.max",
    "oracle.capacity_skipped",
    "oracle.infeasible",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _tree_digest(*dirs: str) -> str:
    h = hashlib.sha256()
    for path in sorted(p for d in dirs for p in (ROOT / d).rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **versions,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest("src"),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


class Runner:
    """Starts worker processes, one at a time, within the deadline."""

    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.setups: list[float] = []
        self.versions: dict = {}
        self.runs_dir = ROOT / RUNS_DIR
        self.runs_dir.mkdir(exist_ok=True)

    def spawn(self, seed: int, mode: str, spans: Path | None = None) -> dict:
        out = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=self.runs_dir))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(seed), "--mode", mode, "--out", str(out)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a run")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} run at seed {seed} did not end in time") from None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(report["t_ready"] - started)
        self.versions = report["versions"]
        if mode != "setup":
            digests = report.get("digests")
            if digests is not None and seed == workloads.DEFAULT_SEED:
                report["errors"] += workloads.golden_mismatches(self.workload, digests)
            line = {k: report.get(k) for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                               "digests", "errors")}
            print("run " + json.dumps({"workload": self.workload, "mode": mode,
                                       "seed": seed, "setup_s": self.setups[-1],
                                       **line}), flush=True)
        return report


def end_to_end(runner: Runner, seed: int, seconds: float):
    seconds = min(seconds, MAX_MEASURE_S)
    reports = []
    start = time.monotonic()
    while True:
        reports.append(runner.spawn(workloads.sub_seed(seed, len(reports)), "run"))
        elapsed = time.monotonic() - start
        if elapsed * (len(reports) + 1) / len(reports) > seconds:
            break
    while len(runner.setups) < MIN_SETUPS:
        runner.spawn(seed, "setup")
    failed = sum(1 for r in reports if r["errors"])
    metrics = {
        "wall_s": statistics.fmean(r["wall_s"] for r in reports),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in reports),
        "setup_s": statistics.median(runner.setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    return metrics, len(reports), failed


def _check_counters(workload: str, seed: int, metrics: dict) -> list[str]:
    record_path = ROOT / RUNS_DIR / "counters.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    key = f"{workload} seed={seed} code={_tree_digest('src', 'perfbench')[:16]}"
    counters = {name: metrics[name] for name in EXACT_COUNTERS}
    before = record.setdefault(key, counters)
    if before != counters:
        return [f"{name} was {before.get(name)}, now {value}"
                for name, value in counters.items() if before.get(name) != value]
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, record_path)
    return []


def traced(runner: Runner, seed: int):
    plain = runner.spawn(seed, "run")
    spans = runner.runs_dir / f"spans-{runner.workload}-{seed}.json"
    trace = runner.spawn(seed, "trace", spans=spans)
    if trace.get("digests") != plain.get("digests"):
        trace["errors"].append("traced outputs differ from the untraced run")
    metrics = trace["metrics"]
    metrics["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    if not trace["errors"]:
        trace["errors"] += _check_counters(runner.workload, seed, metrics)
    for report in (plain, trace):
        for error in report["errors"]:
            print(f"error: {error}", file=sys.stderr)
    return metrics, 2, sum(1 for r in (plain, trace) if r["errors"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "ldpcbounds").is_dir():
            raise BenchError("no ldpcbounds sources under src/")
        if args.workload not in workloads.CONFIGS:
            raise BenchError(f"unknown workload {args.workload!r}")
        runner = Runner(args.workload, time.monotonic() + DEADLINE_S)
        if args.trace:
            metrics, attempted, failed = traced(runner, args.seed)
            wanted = bench["per_layer"]
        else:
            metrics, attempted, failed = end_to_end(runner, args.seed, args.seconds)
            wanted = bench["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(runner.versions)))
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})", file=sys.stderr)
    for m in wanted:
        print(f"{m['name']:48s} {metrics[m['name']]:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
