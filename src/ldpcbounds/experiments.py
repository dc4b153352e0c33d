"""Config-driven experiment runs with reproducible CSV/JSON artifacts.

Every run is a pure function of its JSON config: outputs are CSV files
with fixed per-kind headers and 12-significant-digit locale-independent
numbers, plus a manifest recording the config hash and per-file digests.
Regenerating with the same config hash reproduces byte-identical CSV
bodies at any worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from math import log2
from pathlib import Path

import numpy as np

from . import __version__
from ._util import fmt_number
from .alist import load_alist
from .channels import Bec, Biawgn, Bsc, ChannelModel, eb_n0_to_sigma2
from .degrees import DegreeDistribution, EnsembleSpec, node_perspective
from .density_evolution import de_bec, ga_awgn
from .errors import CapacityError, ConfigError
from .irregular import (empirical_tail, irregular_lower_bound,
                        tail_distribution, weight_recursion)
from .oracle import expected_min_weight_mc
from .regular_bounds import (RegularParams, closed_form_lower, gamma_transform,
                             lentmaier_fit_a0, lentmaier_upper,
                             lentmaier_validity_limit, tree_regime_limit,
                             block_regime_limit)
from .simulate import DEFAULT_TRIALS_PER_BLOCK, estimate_ber_curve
from .tanner import TannerGraph, peg_construct
from .degrees import realize_degree_sequences

KINDS = ("bounds", "simulate", "de", "recursion", "tail", "oracle",
         "figure5", "figure6")

CSV_HEADERS = {
    "bounds": "l,regime,w_ub,p_lower,gamma_lower,p_upper_lentmaier,p_lower_relaxed",
    "simulate": "l,ber,std_error,trials,bits",
    "de": "l,message_error,ber",
    "recursion": "t,p_tilde_even,p_tilde_odd,p_2t",
    "tail": "d_prime,tail_recursion,tail_recursion_incl_root",
    "figure6": "d_prime,tail_recursion,tail_empirical,stderr",
    "oracle": "samples,mean,std_error,infeasible,capacity_skipped",
    "oracle_weights": "sample,weight",
    "figure5": "l,gamma_lower,gamma_de,gamma_upper,gamma_sim,sim_stderr",
    "figure5_sim": "l,ber,std_error,trials,bits",
}


@dataclass
class ExperimentConfig:
    """Validated view of one experiment's JSON config."""

    kind: str
    seed: int
    ensemble: dict | None = None
    alist: str | None = None
    channel: dict | None = None
    iterations: list[int] = field(default_factory=list)
    theta1: float = 0.99
    a0: float | None = None
    a0_anchor: int | None = None
    trials: int | None = None
    code: str = "peg"
    d_max: int | None = None
    n_instances: int | None = None
    pairs_per_instance: int | None = None
    n_samples: int | None = None
    threads: int = 1
    trials_per_block: int = DEFAULT_TRIALS_PER_BLOCK
    out_dir: str = "."

    _KEYS = {
        "kind", "seed", "ensemble", "alist", "channel", "iterations", "theta1",
        "a0", "a0_anchor", "trials", "code", "d_max", "n_instances",
        "pairs_per_instance", "n_samples", "threads", "trials_per_block",
        "out_dir",
    }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - cls._KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigError("config requires 'kind'")
        if "seed" not in data:
            raise ConfigError("config requires 'seed' (no unseeded runs)")
        cfg = cls(kind=str(data["kind"]), seed=_integer(data["seed"], "seed"))
        for key in cls._KEYS - {"kind", "seed"}:
            if key in data and data[key] is not None:
                setattr(cfg, key, data[key])
        if not isinstance(cfg.iterations, list):
            raise ConfigError("iterations must be a list of integers")
        cfg.iterations = [_integer(x, "iterations entry") for x in cfg.iterations]
        if cfg.a0_anchor is not None:
            cfg.a0_anchor = _integer(cfg.a0_anchor, "a0_anchor")
        return cfg

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(data)

    def canonical_dict(self) -> dict:
        return {
            "kind": self.kind, "seed": self.seed, "ensemble": self.ensemble,
            "alist": self.alist, "channel": self.channel,
            "iterations": list(self.iterations), "theta1": self.theta1,
            "a0": self.a0, "a0_anchor": self.a0_anchor, "trials": self.trials,
            "code": self.code, "d_max": self.d_max,
            "n_instances": self.n_instances,
            "pairs_per_instance": self.pairs_per_instance,
            "n_samples": self.n_samples,
            "trials_per_block": self.trials_per_block,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _integer(value, name: str) -> int:
    """A JSON integer; bools, floats and strings are config errors."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _parse_dist(raw: dict, perspective_hint: str) -> DegreeDistribution:
    terms = {int(d): float(f) for d, f in raw.items()}
    return DegreeDistribution(perspective_hint, terms)


def build_spec(config: ExperimentConfig) -> EnsembleSpec:
    """EnsembleSpec from the config's ensemble block.

    ``perspective: "edge"`` marks the distributions as edge-perspective
    (lambda/rho); they are converted to the node perspective first.
    """
    ens = config.ensemble
    if not ens:
        raise ConfigError("config requires an 'ensemble' block")
    for key in ("n_vars", "var_dist", "check_dist"):
        if key not in ens:
            raise ConfigError(f"ensemble block missing '{key}'")
    perspective = ens.get("perspective", "node")
    if perspective not in ("node", "edge"):
        raise ConfigError(f"ensemble perspective must be node or edge, got {perspective!r}")
    var_dist = _parse_dist(ens["var_dist"], perspective)
    check_dist = _parse_dist(ens["check_dist"], perspective)
    if perspective == "edge":
        var_dist = node_perspective(var_dist)
        check_dist = node_perspective(check_dist)
    return EnsembleSpec(n_vars=int(ens["n_vars"]), var_dist=var_dist,
                        check_dist=check_dist)


def build_channel(config: ExperimentConfig, spec: EnsembleSpec | None) -> tuple[ChannelModel, dict]:
    """Channel model plus a notes dict echoing any unit conversion."""
    ch = config.channel
    if not ch or "type" not in ch:
        raise ConfigError("config requires a 'channel' block with a 'type'")
    kind = ch["type"]
    notes: dict = {}
    if kind == "bec":
        if "epsilon" not in ch:
            raise ConfigError("channel.epsilon is required for bec")
        return Bec(float(ch["epsilon"])), notes
    if kind == "bsc":
        if "q" not in ch:
            raise ConfigError("channel.q is required for bsc")
        return Bsc(float(ch["q"])), notes
    if kind == "biawgn":
        if "sigma2" in ch:
            return Biawgn(float(ch["sigma2"])), notes
        if "eb_n0_db" in ch:
            if spec is None:
                raise ConfigError("eb_n0_db conversion needs an ensemble for the rate")
            rate = spec.design_rate
            sigma2 = eb_n0_to_sigma2(float(ch["eb_n0_db"]), rate)
            notes["eb_n0_db"] = float(ch["eb_n0_db"])
            notes["design_rate"] = rate
            notes["sigma2"] = sigma2
            return Biawgn(sigma2), notes
        raise ConfigError("biawgn channel needs 'sigma2' or 'eb_n0_db'")
    raise ConfigError(f"unknown channel type {kind!r}")


def _spec_is_regular(spec: EnsembleSpec) -> bool:
    return len(spec.var_dist.support) == 1 and len(spec.check_dist.support) == 1


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    infos: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def lines(self) -> list[str]:
        return ([f"error: {m}" for m in self.errors]
                + [f"warning: {m}" for m in self.warnings]
                + [f"info: {m}" for m in self.infos])


def validate(config: ExperimentConfig) -> ValidationReport:
    """Static checks only; nothing is executed."""
    report = ValidationReport()
    if config.kind not in KINDS:
        report.errors.append(f"unknown kind {config.kind!r}")
        return report
    if config.seed < 0:
        report.errors.append(f"seed must be >= 0, got {config.seed}")
    if any(l < 0 for l in config.iterations):
        report.errors.append(f"iterations must be >= 0, got {config.iterations}")
    if config.kind == "figure5" and config.a0_anchor is not None and config.iterations \
            and not 0 <= config.a0_anchor <= max(config.iterations):
        report.errors.append(
            f"a0_anchor {config.a0_anchor} outside 0..{max(config.iterations)} "
            "(the iteration range)")
    spec = None
    if config.ensemble is not None:
        try:
            spec = build_spec(config)
        except Exception as exc:
            report.errors.append(f"ensemble: {exc}")
    if config.alist is not None and not Path(config.alist).exists():
        report.errors.append(f"alist file not found: {config.alist}")
    if config.kind in ("bounds", "simulate", "de", "figure5") and config.channel is None:
        report.errors.append(f"kind {config.kind} requires a channel")
    if config.channel is not None:
        try:
            build_channel(config, spec)
        except Exception as exc:
            report.errors.append(f"channel: {exc}")
    if config.kind in ("bounds", "simulate", "de", "recursion", "figure5"):
        if not config.iterations:
            report.errors.append(f"kind {config.kind} requires a non-empty iteration range")
    if config.kind in ("bounds", "figure5", "recursion") and spec is not None \
            and not _spec_is_regular(spec) and any(l < 1 for l in config.iterations):
        report.errors.append("irregular bound recursion requires iterations >= 1")
    if config.kind in ("simulate", "figure5") and not config.trials:
        report.errors.append(f"kind {config.kind} requires 'trials'")
    if config.kind in ("tail", "figure6") and config.d_max is None:
        report.errors.append(f"kind {config.kind} requires 'd_max'")
    if config.kind == "figure6":
        if not config.n_instances or not config.pairs_per_instance:
            report.errors.append("figure6 requires n_instances and pairs_per_instance")
    if config.kind == "oracle" and not config.n_samples:
        report.errors.append("oracle requires 'n_samples'")
    if config.kind in ("oracle", "tail", "figure6", "recursion", "bounds") and spec is None \
            and config.ensemble is None:
        report.errors.append(f"kind {config.kind} requires an ensemble")

    if spec is not None and config.iterations:
        j = spec.var_dist.max_degree
        k = spec.check_dist.max_degree
        if _spec_is_regular(spec) and j < 3 and config.kind in ("bounds", "figure5"):
            report.warnings.append(
                "closed-form weight bound requires variable degree >= 3; "
                f"got {j}")
        if j >= 3:
            tree_lim = tree_regime_limit(j, k, spec.n_vars, config.theta1)
            block_lim = block_regime_limit(j, k, spec.n_vars)
            for l in config.iterations:
                if l > block_lim:
                    report.infos.append(
                        f"l={l} is beyond the saturation threshold "
                        f"{block_lim:.3f}; the weight bound degenerates to w=N")
                elif l > tree_lim:
                    report.infos.append(
                        f"l={l} is beyond the tree-regime threshold {tree_lim:.3f}")
    return report


# -- CSV helpers -------------------------------------------------------------


def _write_csv(path: Path, header: str, rows: list[list]) -> None:
    body = header + "\n" + "".join(
        ",".join(fmt_number(cell) if not isinstance(cell, str) else cell
                 for cell in row) + "\n"
        for row in rows
    )
    path.write_text(body, encoding="ascii", newline="")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _safe_gamma(p) -> float | None:
    if p is None or not 0.0 < p < 1.0:
        return None
    return gamma_transform(p)


# -- experiment kinds ---------------------------------------------------------


def _build_code_graph(config: ExperimentConfig, spec: EnsembleSpec | None
                      ) -> TannerGraph | EnsembleSpec:
    if config.alist is not None:
        return load_alist(config.alist)
    if spec is None:
        raise ConfigError("simulation needs an ensemble or an alist")
    if config.code == "ensemble":
        return spec
    if config.code == "peg":
        var_degrees, _ = realize_degree_sequences(spec)
        return peg_construct(spec.n_vars, np.sort(var_degrees), spec.n_checks)
    raise ConfigError(f"unknown code construction {config.code!r}")


def _bounds_rows(config: ExperimentConfig, spec: EnsembleSpec,
                 channel: ChannelModel, notes: dict) -> list[list]:
    regular = _spec_is_regular(spec)
    rows = []
    j = spec.var_dist.max_degree
    if regular and j < 3:
        raise ConfigError("closed-form weight bound requires variable degree >= 3")
    for l in config.iterations:
        if regular:
            point = closed_form_lower(channel, RegularParams(
                j=j, k=spec.check_dist.max_degree, n_vars=spec.n_vars,
                iterations=l, theta1=config.theta1))
        else:
            point = irregular_lower_bound(channel, spec.var_dist, spec.check_dist,
                                          spec.n_vars, l, config.theta1)
        upper = None
        if config.a0 is not None and j >= 3:
            upper = lentmaier_upper(j, l, config.a0)
            notes["upper_bound_label"] = "form-only upper bound (a0 supplied)"
        rows.append([point.iterations, point.regime, point.weight, point.p_lower,
                     point.gamma_lower, upper, point.p_lower_relaxed])
    return rows


def _de_trace(config: ExperimentConfig, spec: EnsembleSpec, channel: ChannelModel):
    l_max = max(config.iterations)
    if isinstance(channel, Bec):
        trace = de_bec(spec.var_dist, spec.check_dist, channel.epsilon, l_max)
        label = "DE (exact, BEC)"
    elif isinstance(channel, Biawgn):
        trace = ga_awgn(spec.var_dist, spec.check_dist, channel.sigma2, l_max)
        label = "DE (Gaussian approx., AWGN)"
    else:
        raise ConfigError("density evolution curves cover BEC and BI-AWGN only")
    return trace, label


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Execute one experiment; returns the manifest dict (also written to disk).

    Raises ConfigError for invalid configs and propagates CapacityError
    from the oracle.
    """
    report = validate(config)
    if not report.ok:
        raise ConfigError("; ".join(report.errors))
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    notes: dict = {}
    files: dict[str, Path] = {}

    spec = build_spec(config) if config.ensemble is not None else None
    channel = None
    if config.channel is not None:
        channel, ch_notes = build_channel(config, spec)
        notes.update(ch_notes)

    kind = config.kind
    if kind == "bounds":
        rows = _bounds_rows(config, spec, channel, notes)
        files["bounds.csv"] = out / "bounds.csv"
        _write_csv(files["bounds.csv"], CSV_HEADERS["bounds"], rows)

    elif kind == "de":
        trace, label = _de_trace(config, spec, channel)
        notes["de_label"] = label
        rows = [[t, trace.message_error[t], trace.ber[t]]
                for t in range(trace.ber.size)]
        files["de.csv"] = out / "de.csv"
        _write_csv(files["de.csv"], CSV_HEADERS["de"], rows)

    elif kind == "simulate":
        code = _build_code_graph(config, spec)
        ests = estimate_ber_curve(code, channel, config.iterations, config.trials,
                                  config.seed, threads=config.threads,
                                  trials_per_block=config.trials_per_block)
        rows = [[l, est.ber, est.std_error, est.n_trials, est.n_bits]
                for l, est in zip(config.iterations, ests)]
        files["simulate.csv"] = out / "simulate.csv"
        _write_csv(files["simulate.csv"], CSV_HEADERS["simulate"], rows)

    elif kind == "recursion":
        l_max = max(config.iterations)
        trace = weight_recursion(spec.var_dist, spec.check_dist, spec.n_vars,
                                 l_max, config.theta1)
        rows = [[t, trace.p_tilde_even[t - 1], trace.p_tilde_odd[t - 1],
                 trace.p_survival[t - 1]]
                for t in range(1, l_max + 1)]
        files["recursion.csv"] = out / "recursion.csv"
        _write_csv(files["recursion.csv"], CSV_HEADERS["recursion"], rows)
        notes["w_ub"] = trace.w_ub
        notes["l1"] = trace.l1
        notes["branch"] = trace.branch

    elif kind == "tail":
        tail = tail_distribution(spec.var_dist, spec.check_dist, spec.n_vars,
                                 config.d_max)
        rows = [[d, tail.survival[d], tail.survival_including_root[d]]
                for d in range(config.d_max + 1)]
        files["tail.csv"] = out / "tail.csv"
        _write_csv(files["tail.csv"], CSV_HEADERS["tail"], rows)
        notes["conventions"] = {
            "tail_recursion": "conditioned on the two nodes being distinct",
            "tail_recursion_incl_root": "unconditioned second draw (may equal the first)",
        }

    elif kind == "figure6":
        tail = tail_distribution(spec.var_dist, spec.check_dist, spec.n_vars,
                                 config.d_max)
        emp = empirical_tail(spec, config.d_max, config.n_instances,
                             config.pairs_per_instance, config.seed)
        rows = [[d, tail.survival[d], emp.survival[d], emp.std_error[d]]
                for d in range(config.d_max + 1)]
        files["figure6.csv"] = out / "figure6.csv"
        _write_csv(files["figure6.csv"], CSV_HEADERS["figure6"], rows)
        notes["n_pairs"] = emp.n_pairs

    elif kind == "oracle":
        l = max(config.iterations) if config.iterations else 1
        est = expected_min_weight_mc(spec, l, config.n_samples, config.seed)
        if est.capacity_skipped == est.n_samples:
            raise CapacityError(
                f"all {est.n_samples} samples exceeded the free-dimension guard; "
                "shrink the iteration count or the block length")
        files["oracle.csv"] = out / "oracle.csv"
        _write_csv(files["oracle.csv"], CSV_HEADERS["oracle"],
                   [[est.n_samples, est.mean, est.std_error,
                     est.infeasible_count, est.capacity_skipped]])
        files["oracle_weights.csv"] = out / "oracle_weights.csv"
        _write_csv(files["oracle_weights.csv"], CSV_HEADERS["oracle_weights"],
                   [[i, int(w)] for i, w in enumerate(est.weights)])
        notes["iterations"] = l

    elif kind == "figure5":
        rows_main, rows_sim = _run_figure5(config, spec, channel, notes)
        files["figure5.csv"] = out / "figure5.csv"
        _write_csv(files["figure5.csv"], CSV_HEADERS["figure5"], rows_main)
        files["figure5_sim.csv"] = out / "figure5_sim.csv"
        _write_csv(files["figure5_sim.csv"], CSV_HEADERS["figure5_sim"], rows_sim)

    else:
        raise ConfigError(f"unknown kind {kind!r}")

    manifest = {
        "config_hash": config.config_hash(),
        "tool_version": __version__,
        "kind": kind,
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": {name: {"sha256": _sha256(path), "bytes": path.stat().st_size}
                    for name, path in files.items()},
        "config": config.canonical_dict(),
        "notes": notes,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def _run_figure5(config: ExperimentConfig, spec: EnsembleSpec,
                 channel: ChannelModel, notes: dict):
    regular = _spec_is_regular(spec)
    j = spec.var_dist.max_degree
    k = spec.check_dist.max_degree
    if j < 3:
        raise ConfigError("gamma-curve bounds require variable max degree >= 3")
    iters = sorted(config.iterations)

    lower = {}
    for l in iters:
        if regular:
            point = closed_form_lower(channel, RegularParams(
                j=j, k=k, n_vars=spec.n_vars, iterations=l, theta1=config.theta1))
        else:
            point = irregular_lower_bound(channel, spec.var_dist, spec.check_dist,
                                          spec.n_vars, l, config.theta1)
        lower[l] = point

    trace, label = _de_trace(config, spec, channel)
    notes["de_label"] = label

    code = _build_code_graph(config, spec)
    sims = dict(zip(iters, estimate_ber_curve(
        code, channel, iters, config.trials, config.seed, threads=config.threads,
        trials_per_block=config.trials_per_block)))

    if config.a0 is not None:
        a0 = config.a0
        notes["upper_bound_label"] = "form-only upper bound (a0 supplied)"
    else:
        anchor = config.a0_anchor if config.a0_anchor is not None else max(iters)
        anchor_p = float(trace.ber[anchor])
        if not 0.0 < anchor_p < 1.0:
            raise ConfigError(
                f"cannot fit a0: density-evolution BER at l={anchor} is {anchor_p}")
        a0 = lentmaier_fit_a0(j, anchor, anchor_p)
        notes["upper_bound_label"] = "form-only upper bound (a0 fitted)"
        notes["a0_anchor"] = anchor
    notes["a0"] = a0
    notes["lentmaier_validity_limit"] = lentmaier_validity_limit(j, k, spec.n_vars)

    rows_main = []
    rows_sim = []
    for l in iters:
        # Log-space form of gamma(2**(-a0 (j-1)**l)); never underflows.
        gamma_upper = log2(a0) + l * log2(j - 1)
        rows_main.append([
            l,
            lower[l].gamma_lower,
            _safe_gamma(float(trace.ber[l])),
            gamma_upper,
            _safe_gamma(sims[l].ber),
            sims[l].std_error,
        ])
        rows_sim.append([l, sims[l].ber, sims[l].std_error, sims[l].n_trials,
                        sims[l].n_bits])
    return rows_main, rows_sim
