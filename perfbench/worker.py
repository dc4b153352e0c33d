"""One measured process: set up, run one experiment, report one JSON line.

Usage (started by run.py, one process per measurement):

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace --out DIR

``setup`` stops once the config is validated; its report carries the
monotonic clock reading at that point, from which the parent takes the
set-up time (interpreter start, ``import ldpcbounds``, config parsing
and validation).  ``run`` also times one ``experiments.run`` call with
tracing off.  ``trace`` times it with spans around every layer and adds
the per-layer metrics; on ``simulate-awgn`` it then times
``estimate_ber`` three times each at one and two threads, alternating,
with tracing off, and reports the ratio of the medians.

A failure inside ``experiments.run`` is reported in the JSON line; a
failure to set up exits with a nonzero code.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

PROBE_ITERATIONS = 4
PROBE_PAIRS = 3


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _outputs(workload: str, out: Path, manifest: dict) -> tuple[dict, list[str]]:
    digests = workloads.file_digests(out, manifest["outputs"])
    errors = [f"{name}: manifest digest differs from file bytes"
              for name, meta in manifest["outputs"].items()
              if meta["sha256"] != digests[name]]
    errors += workloads.check_outputs(workload, out)
    return digests, errors


def _thread_probe(cfg) -> tuple[dict, list[str]]:
    from ldpcbounds.experiments import build_channel, build_spec
    from ldpcbounds.simulate import estimate_ber
    spec = build_spec(cfg)
    channel, _ = build_channel(cfg, spec)
    seconds, results = {1: [], 2: []}, {}
    for _ in range(PROBE_PAIRS):  # alternate, so drift of the host hits both
        for threads in (1, 2):
            start = time.perf_counter()
            results[threads] = estimate_ber(spec, channel, PROBE_ITERATIONS, cfg.trials,
                                            cfg.seed, threads=threads,
                                            trials_per_block=cfg.trials_per_block)
            seconds[threads].append(time.perf_counter() - start)
    errors = [] if results[1] == results[2] else ["estimate_ber differs at 2 threads"]
    speedup = statistics.median(seconds[1]) / statistics.median(seconds[2])
    return {"simulate.estimate_ber.speedup_threads2": speedup}, errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path, help="trace mode: write spans here")
    args = parser.parse_args()

    from ldpcbounds import experiments
    cfg = experiments.ExperimentConfig.from_dict(
        workloads.config_for(args.workload, args.seed))
    report = experiments.validate(cfg)
    t_ready = time.monotonic()
    if not report.ok:
        raise SystemExit(f"config rejected: {report.errors}")
    result = {"t_ready": t_ready, "versions": _versions()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    errors: list[str] = []
    cpu0, start = _cpu_s(), time.perf_counter()
    try:
        manifest = experiments.run(cfg, args.out)
    except Exception:  # reported as a failed run, not a crashed benchmark
        manifest = None
        errors.append(traceback.format_exc(limit=3))
    wall, cpu = time.perf_counter() - start, _cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()
    result.update(wall_s=wall, cpu_s=cpu,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if manifest is not None:
        result["digests"], check_errors = _outputs(args.workload, args.out, manifest)
        errors += check_errors
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer)
        self_sum = tracing.self_time_sum(tracer)
        if abs(self_sum - wall) > 1e-3 + 1e-3 * wall:
            errors.append(f"layer self times add up to {self_sum:.6f} s, "
                          f"traced wall_s is {wall:.6f} s")
        metrics["simulate.estimate_ber.speedup_threads2"] = 0.0
        if args.workload == "simulate-awgn":
            probe, probe_errors = _thread_probe(cfg)
            metrics.update(probe)
            errors += probe_errors
        result["metrics"] = metrics
        if args.spans is not None:
            args.spans.write_text(json.dumps(
                [{"name": n, "start": s, "end": e, "parent": p}
                 for n, s, e, p in tracer.spans]), encoding="utf-8")
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
