"""Spans around the public functions of each ldpcbounds layer.

``install`` replaces each function listed in ``LAYERS`` with a wrapper
that records one span per call (name, start, end, parent span) and the
layer's counters, in every ldpcbounds module that holds a reference to
the function.  Nothing in the package is edited; ``uninstall`` puts the
originals back.

The tracer keeps one span stack, so it is only valid while the program
runs on a single thread (``threads=1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class LayerStats:
    def __init__(self):
        self.durations: list[float] = []
        self.self_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Span recorder with per-layer totals, self times and counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.systems: list = []  # Gf2System results, for free dimensions
        self._stack: list[list] = []  # [span index, time spent in children]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self.spans[idx] = (name, start, end, parent)
                if self._stack:
                    self._stack[-1][1] += duration
                stats = self.layers[name]
                stats.durations.append(duration)
                stats.self_s += duration - frame[1]
            if after is not None:
                after(self, stats, signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "ldpcbounds" or n.startswith("ldpcbounds.")]
        for module_name, qualname, after in LAYERS:
            owner = importlib.import_module(f"ldpcbounds.{module_name}")
            for part in qualname.split(".")[:-1]:
                owner = getattr(owner, part)
            attr = qualname.split(".")[-1]
            original = getattr(owner, attr)
            wrapped = self.wrap(f"{module_name}.{qualname}", original, after)
            holders = [owner] if inspect.isclass(owner) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()


# -- counters recorded after each call ---------------------------------------


def _peg(tracer, stats, arguments, graph):
    stats.counts["edges"] += graph.n_edges


def _sampler(tracer, stats, arguments, result):
    stats.counts["attempts"] += result[1]


def _bfs(tracer, stats, arguments, result):
    var_dist, chk_dist = result
    stats.counts["nodes"] += np.count_nonzero(var_dist >= 0) + np.count_nonzero(chk_dist >= 0)


def _decode(tracer, stats, arguments, result):
    stats.counts["edge_iters"] += arguments["g"].n_edges * arguments["iterations"]


def _local_system(tracer, stats, arguments, system):
    tracer.systems.append(system)


def _min_weight_mc(tracer, stats, arguments, estimate):
    stats.counts["capacity_skipped"] += estimate.capacity_skipped
    stats.counts["infeasible"] += estimate.infeasible_count


# (module, function, counter hook).  experiments.run is the root span.
LAYERS = [
    ("experiments", "run", None),
    ("tanner", "peg_construct", _peg),
    ("tanner", "sample_graph_with_attempts", _sampler),
    ("tanner", "TannerGraph.__init__", None),
    ("tanner", "bfs_distances", _bfs),
    ("bp", "decode", _decode),
    ("channels", "transmit", None),
    ("simulate", "estimate_ber", None),
    ("irregular", "empirical_tail", None),
    ("oracle", "expected_min_weight_mc", _min_weight_mc),
    ("oracle", "local_system", _local_system),
    ("oracle", "min_weight_root_one", None),
]


def free_dimension(system) -> int | None:
    """Dimension of the solution set with the root pinned to 1.

    None when pinning the root is inconsistent with the parity rows.
    """
    pivots: dict[int, tuple[int, int]] = {}
    rows = [(sum(1 << i for i in row), 0) for row in system.rows]
    rows.append((1 << system.root_local, 1))
    for mask, rhs in rows:
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, rhs)
                break
            pmask, prhs = pivots[top]
            mask ^= pmask
            rhs ^= prhs
        if mask == 0 and rhs:
            return None
    return system.n_variables - len(pivots)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics; 0 for a layer the workload does not reach."""
    L = tracer.layers

    def total(name):
        return float(sum(L[name].durations))

    def calls(name):
        return len(L[name].durations)

    def ratio(num, den):
        return num / den if den else 0.0

    peg = "tanner.peg_construct"
    smp = "tanner.sample_graph_with_attempts"
    bfs = "tanner.bfs_distances"
    dec = "bp.decode"
    attempts = L[smp].counts["attempts"]
    dims = [d for d in (free_dimension(s) for s in tracer.systems) if d is not None]
    m = {
        "experiments.run.s": total("experiments.run"),
        "experiments.run.self_s": L["experiments.run"].self_s,
        f"{peg}.s": total(peg),
        f"{peg}.us_per_edge": 1e6 * ratio(total(peg), L[peg].counts["edges"]),
        f"{smp}.s": total(smp),
        f"{smp}.self_s": L[smp].self_s,
        f"{smp}.calls": calls(smp),
        f"{smp}.attempts": attempts,
        f"{smp}.accept_ratio": ratio(calls(smp), attempts),
        f"{smp}.ms_per_attempt": 1e3 * ratio(total(smp), attempts),
        "tanner.TannerGraph.__init__.s": total("tanner.TannerGraph.__init__"),
        "tanner.TannerGraph.__init__.calls": calls("tanner.TannerGraph.__init__"),
        f"{bfs}.s": total(bfs),
        f"{bfs}.queries": calls(bfs),
        f"{bfs}.us_p50": 1e6 * _pct(L[bfs].durations, 50),
        f"{bfs}.us_p99": 1e6 * _pct(L[bfs].durations, 99),
        f"{bfs}.nodes_per_query": ratio(L[bfs].counts["nodes"], calls(bfs)),
        f"{dec}.s": total(dec),
        f"{dec}.calls": calls(dec),
        f"{dec}.ms_p50": 1e3 * _pct(L[dec].durations, 50),
        f"{dec}.ms_p99": 1e3 * _pct(L[dec].durations, 99),
        f"{dec}.ns_per_edge_iter": 1e9 * ratio(total(dec), L[dec].counts["edge_iters"]),
        "channels.transmit.s": total("channels.transmit"),
        "channels.transmit.us_p50": 1e6 * _pct(L["channels.transmit"].durations, 50),
        "simulate.estimate_ber.s": total("simulate.estimate_ber"),
        "simulate.estimate_ber.self_s": L["simulate.estimate_ber"].self_s,
        "irregular.empirical_tail.s": total("irregular.empirical_tail"),
        "irregular.empirical_tail.self_s": L["irregular.empirical_tail"].self_s,
        "oracle.expected_min_weight_mc.s": total("oracle.expected_min_weight_mc"),
        "oracle.expected_min_weight_mc.self_s": L["oracle.expected_min_weight_mc"].self_s,
        "oracle.local_system.s": total("oracle.local_system"),
        "oracle.local_system.us_p50": 1e6 * _pct(L["oracle.local_system"].durations, 50),
        "oracle.min_weight_root_one.s": total("oracle.min_weight_root_one"),
        "oracle.min_weight_root_one.us_p50":
            1e6 * _pct(L["oracle.min_weight_root_one"].durations, 50),
        "oracle.min_weight_root_one.us_p99":
            1e6 * _pct(L["oracle.min_weight_root_one"].durations, 99),
        "oracle.free_dim.mean": ratio(sum(dims), len(dims)),
        "oracle.free_dim.max": max(dims, default=0),
        "oracle.capacity_skipped": L["oracle.expected_min_weight_mc"].counts["capacity_skipped"],
        "oracle.infeasible": L["oracle.expected_min_weight_mc"].counts["infeasible"],
    }
    return {k: float(v) for k, v in m.items()}


def self_time_sum(tracer: Tracer) -> float:
    return float(sum(stats.self_s for stats in tracer.layers.values()))
