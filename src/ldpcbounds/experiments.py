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
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import datetime, timezone
from math import isfinite, log2
from pathlib import Path

from . import __version__
from ._util import fmt_number
from .alist import load_alist
from .channels import Bec, Biawgn, Bsc, ChannelModel, eb_n0_to_sigma2
from .degrees import DegreeDistribution, EnsembleSpec
from .errors import CapacityError, ConfigError, LdpcBoundsError
from .irregular import (BRANCH_BELOW, RecursionTrace, empirical_tail,
                        irregular_lower_bound, tail_distribution, weight_recursion)
from .oracle import expected_min_weight_mc
from .regular_bounds import (REGIME_BLOCK, REGIME_TREE, RegularParams, closed_form_lower,
                             gamma_transform, lentmaier_fit_a0, lentmaier_upper,
                             lentmaier_validity_limit)
from .simulate import DEFAULT_TRIALS_PER_BLOCK, estimate_ber_curve
from .tanner import TannerGraph, peg_construct

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


def _field(json_type, default=None, *, hashed: bool = True, **meta):
    """One top-level config key (see ``_block_errors``), required when it
    has no default; ``hashed`` fields enter the config hash."""
    meta.update(type=json_type, required=default is MISSING, hashed=hashed)
    if json_type is list:
        return field(default_factory=list, metadata=meta)
    return field(default=default, metadata=meta)


def _degree_keys(dist: dict) -> dict:
    """Schema of a degree map: each decimal degree maps to a number."""
    return {d: {"type": float, "required": True}
            for d in dist if isinstance(d, str) and d.isdecimal()}


_ENSEMBLE_KEYS = {
    "n_vars": {"type": int, "required": True},
    "var_dist": {"type": dict, "required": True, "keys": _degree_keys},
    "check_dist": {"type": dict, "required": True, "keys": _degree_keys},
    "perspective": {"type": str, "among": ("node", "edge")},
}
# channel type -> (model, schema of its parameters); the model takes the first one.
_CHANNELS = {
    "bec": (Bec, {"epsilon": {"type": float, "required": True}}),
    "bsc": (Bsc, {"q": {"type": float, "required": True}}),
    "biawgn": (Biawgn, {"sigma2": {"type": float, "required": True, "or": ("eb_n0_db",)},
                        "eb_n0_db": {"type": float}}),
}


def _channel_keys(block: dict) -> dict:
    """Schema of a channel block: its type, then the parameters of that type."""
    family = block.get("type")
    params = _CHANNELS[family][1] if isinstance(family, str) and family in _CHANNELS else {}
    return {"type": {"type": str, "required": True, "among": tuple(_CHANNELS)}, **params}


@dataclass
class ExperimentConfig:
    """Validated view of one experiment's JSON config.

    The fields are the schema: ``from_dict`` checks every level of the
    config, the ``ensemble`` and ``channel`` blocks included, against their
    metadata, and ``canonical_dict`` (hence the config hash) holds every
    hashed field.  A JSON null at any level leaves a key at its default.
    """

    kind: str = _field(str, MISSING)
    seed: int = _field(int, MISSING, ge=0)
    ensemble: dict | None = _field(dict, keys=_ENSEMBLE_KEYS)
    alist: str | None = _field(str)
    channel: dict | None = _field(dict, keys=_channel_keys)
    iterations: list[int] = _field(list, ge=0)
    theta1: float = _field(float, 0.99, gt=0, lt=1)
    a0: float | None = _field(float, gt=0)
    a0_anchor: int | None = _field(int, ge=0)
    trials: int | None = _field(int, ge=1)
    code: str = _field(str, "peg", among=("peg", "ensemble"))
    d_max: int | None = _field(int, ge=0)
    n_instances: int | None = _field(int, ge=1)
    pairs_per_instance: int | None = _field(int, ge=1)
    n_samples: int | None = _field(int, ge=1)
    threads: int = _field(int, 1, hashed=False, ge=1)
    trials_per_block: int = _field(int, DEFAULT_TRIALS_PER_BLOCK, ge=1)
    out_dir: str = _field(str, ".", hashed=False)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        errors = _block_errors(data, _CONFIG_KEYS)
        if errors:
            raise ConfigError("; ".join(errors))
        return cls(**{key: value for key, value in data.items() if value is not None})

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(data)

    def canonical_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata["hashed"]}

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_CONFIG_KEYS = {f.name: f.metadata for f in fields(ExperimentConfig)}
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "a list of integers"}
_RULE_TESTS = {"ge": (">=", lambda v, b: v >= b), "gt": (">", lambda v, b: v > b),
               "lt": ("<", lambda v, b: v < b), "among": ("one of", lambda v, b: v in b)}


def _is(value, json_type: type) -> bool:
    """JSON type test: bools are not numbers, and a list holds integers."""
    if json_type is list:
        return isinstance(value, list) and all(_is(x, int) for x in value)
    if isinstance(value, bool):
        return False
    if json_type is float:
        return isinstance(value, (int, float)) and isfinite(value)
    return isinstance(value, json_type)


def _block_errors(block: dict, schema: dict, where: str = "config") -> list[str]:
    """Errors of one config block and of its nested blocks.

    ``schema`` maps each key to its JSON ``type`` and optionally: whether
    it is ``required`` (with ``or``: exactly one of it and those keys),
    its rules (``ge``, ``gt``, ``lt``, or ``among`` the allowed values; on
    a list, per entry) and the ``keys`` schema of a nested block, or a
    function of the block that returns it.  None counts as absent.
    """
    prefix = "" if where == "config" else f"{where}."
    unknown = sorted(set(block) - set(schema))
    errors = [f"unknown {where} keys: {unknown}"] if unknown else []
    for name, meta in schema.items():
        names = (name, *meta.get("or", ()))
        if meta.get("required") and sum(block.get(n) is not None for n in names) != 1:
            errors.append(f"{where} requires exactly one of {names}" if len(names) > 1
                          else f"{where} requires '{name}'")
        value = block.get(name)
        if value is None:
            continue
        if not _is(value, meta["type"]):
            errors.append(f"{prefix}{name} must be {_TYPE_NAMES[meta['type']]}, "
                          f"got {value!r}")
            continue
        entries = value if meta["type"] is list else [value]
        for rule, (symbol, test) in _RULE_TESTS.items():
            if rule in meta and not all(test(v, meta[rule]) for v in entries):
                errors.append(f"{prefix}{name} must be {symbol} {meta[rule]}, "
                              f"got {value!r}")
        keys = meta.get("keys")
        if keys is not None:
            errors += _block_errors(value, keys(value) if callable(keys) else keys,
                                    prefix + name)
    return errors


def build_spec(config: ExperimentConfig) -> EnsembleSpec:
    """EnsembleSpec from the config's ensemble block, as the schema checked it.

    ``perspective: "edge"`` gives the distributions as edge fractions
    (lambda/rho) instead of node fractions.
    """
    ens = config.ensemble
    edge = ens.get("perspective") == "edge"
    make = DegreeDistribution.from_edge if edge else DegreeDistribution
    var_dist, check_dist = (make({int(d): f for d, f in ens[key].items()})
                            for key in ("var_dist", "check_dist"))
    return EnsembleSpec(ens["n_vars"], var_dist, check_dist)


def build_channel(config: ExperimentConfig, spec: EnsembleSpec | None) -> tuple[ChannelModel, dict]:
    """Channel model plus a notes dict echoing any unit conversion.

    BI-AWGN takes ``sigma2``, or ``eb_n0_db`` converted with the
    ensemble's design rate.
    """
    ch = config.channel
    model, params = _CHANNELS[ch["type"]]
    if ch.get("eb_n0_db") is None:
        return model(float(ch[next(iter(params))])), {}
    if spec is None:
        raise ConfigError("eb_n0_db conversion needs an ensemble for the rate")
    eb_n0_db = float(ch["eb_n0_db"])
    sigma2 = eb_n0_to_sigma2(eb_n0_db, spec.design_rate)
    return Biawgn(sigma2), {"eb_n0_db": eb_n0_db, "design_rate": spec.design_rate,
                            "sigma2": sigma2}


def _spec_is_regular(spec: EnsembleSpec) -> bool:
    return len(spec.var_dist.support) == 1 and len(spec.check_dist.support) == 1


@dataclass
class ValidationReport:
    """Findings of ``validate``, plus what it built, which ``run`` hands to
    the kind's handler: the ensemble, the graph read from the alist file,
    the channel and its notes, and the lower-bound points at
    ``config.iterations`` (kinds ``bounds`` and ``figure5``) or the
    recursion trace (kind ``recursion``)."""

    errors: list[str] = field(default_factory=list)
    infos: list[str] = field(default_factory=list)
    spec: EnsembleSpec | None = None
    graph: TannerGraph | None = None
    channel: ChannelModel | None = None
    notes: dict = field(default_factory=dict)
    points: list = field(default_factory=list)
    trace: RecursionTrace | None = None

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(config: ExperimentConfig) -> ValidationReport:
    """Every check a config must pass for ``run`` to start its kind.

    Rejects an output directory that is, or lies below, an existing file.
    Builds the ensemble, the alist file's graph and the channel and
    evaluates the kind's weight bound, which takes microseconds per
    iteration count and raises the bound's own argument errors; each
    computed bound point outside the tree or below-threshold regime gets
    an info line naming its regime.
    The report keeps the points or the trace, which the handler writes.
    Runs no density evolution, sampling or simulation.
    """
    report = ValidationReport(errors=_block_errors(vars(config), _CONFIG_KEYS))
    if config.kind not in _KINDS:
        report.errors.append(f"unknown kind {config.kind!r}")
    if report.errors:
        return report
    kind = config.kind
    out = Path(config.out_dir)
    if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
        report.errors.append(f"output directory {out} is, or lies below, an existing file")
    for name in _KINDS[kind][1]:
        if getattr(config, name) in (None, []):
            report.errors.append(f"kind {kind} requires '{name}'")
    if kind == "figure5" and config.a0_anchor is not None and config.iterations \
            and config.a0_anchor > max(config.iterations):
        report.errors.append(
            f"a0_anchor {config.a0_anchor} outside 0..{max(config.iterations)} "
            "(the iteration range)")
    if kind == "simulate" and config.ensemble is None and config.alist is None:
        report.errors.append("kind simulate requires 'ensemble' or 'alist'")
    if config.ensemble is not None:
        try:
            report.spec = build_spec(config)
        except (LdpcBoundsError, ValueError) as exc:
            report.errors.append(f"ensemble: {exc}")
    if config.alist is not None and not Path(config.alist).is_file():
        report.errors.append(f"alist file not found: {config.alist}")
    elif config.alist is not None:
        try:
            report.graph = load_alist(config.alist)
        except (LdpcBoundsError, OSError) as exc:
            report.errors.append(f"alist: {exc}")
    if config.channel is not None:
        try:
            report.channel, report.notes = build_channel(config, report.spec)
        except (LdpcBoundsError, ValueError) as exc:
            report.errors.append(f"channel: {exc}")
    spec = report.spec
    if kind in ("de", "figure5") and report.channel is not None \
            and report.channel.de is None:
        report.errors.append("density evolution curves cover BEC and BI-AWGN only")
    if kind == "figure5" and spec is not None and spec.var_dist.max_degree < 3:
        report.errors.append("gamma-curve bounds require variable max degree >= 3")
    if not report.errors and kind in ("bounds", "figure5", "recursion"):
        try:
            if kind == "recursion":
                report.trace = weight_recursion(spec.var_dist, spec.check_dist,
                                                spec.n_vars, max(config.iterations),
                                                config.theta1)
                regimes = [(report.trace.iterations, report.trace.branch)]
            else:
                report.points = _lower_bounds(config, spec, report.channel)
                regimes = [(p.iterations, p.regime) for p in report.points]
        except (LdpcBoundsError, ValueError) as exc:
            report.errors.append(f"weight bound: {exc}")
        else:
            report.infos += [
                f"l={l} is in the {regime} regime"
                + ("; the weight bound degenerates to w=N" if regime == REGIME_BLOCK else "")
                for l, regime in regimes if regime not in (REGIME_TREE, BRANCH_BELOW)]
    return report


# -- CSV helpers -------------------------------------------------------------


def _write_csv(path: Path, header: str, rows: list[list]) -> dict:
    """Write one CSV file; returns its manifest entry (digest and size)."""
    body = (header + "\n" + "".join(
        ",".join(fmt_number(cell) if not isinstance(cell, str) else cell
                 for cell in row) + "\n"
        for row in rows
    )).encode("ascii")
    path.write_bytes(body)
    return {"sha256": hashlib.sha256(body).hexdigest(), "bytes": len(body)}


def _safe_gamma(p) -> float | None:
    if p is None or not 0.0 < p < 1.0:
        return None
    return gamma_transform(p)


# -- experiment kinds ---------------------------------------------------------


def _lower_bounds(config: ExperimentConfig, spec: EnsembleSpec,
                  channel: ChannelModel) -> list:
    """Lower-bound point at each configured l: closed form if regular,
    recursion otherwise."""
    if _spec_is_regular(spec):
        j, k = spec.var_dist.max_degree, spec.check_dist.max_degree
        return [closed_form_lower(channel, RegularParams(
                    j=j, k=k, n_vars=spec.n_vars, iterations=l, theta1=config.theta1))
                for l in config.iterations]
    return [irregular_lower_bound(channel, spec.var_dist, spec.check_dist,
                                  spec.n_vars, l, config.theta1)
            for l in config.iterations]


def _de_trace(config: ExperimentConfig, report: ValidationReport):
    spec, channel = report.spec, report.channel
    report.notes["de_label"] = channel.de_label
    return channel.de(spec.var_dist, spec.check_dist, max(config.iterations))


def _simulated_rows(config: ExperimentConfig, report: ValidationReport,
                    iterations: list[int]) -> list[list]:
    """BER rows from one Monte Carlo sweep over the configured code."""
    spec = report.spec
    if report.graph is not None:
        code = report.graph
    elif config.code == "ensemble":
        code = spec
    else:
        code = peg_construct(spec.n_vars, spec.var_degrees, spec.n_checks)
    ests = estimate_ber_curve(code, report.channel, iterations, config.trials, config.seed,
                              threads=config.threads,
                              trials_per_block=config.trials_per_block)
    return [[l, est.ber, est.std_error, est.n_trials, est.n_bits]
            for l, est in zip(iterations, ests)]


def _bounds(config, report) -> dict:
    j = report.spec.var_dist.max_degree
    upper = config.a0 is not None and j >= 3
    if upper:
        report.notes["upper_bound_label"] = "form-only upper bound (a0 supplied)"
    return {"bounds.csv": [[p.iterations, p.regime, p.weight, p.p_lower, p.gamma_lower,
                            lentmaier_upper(j, p.iterations, config.a0) if upper else None,
                            p.p_lower_relaxed]
                           for p in report.points]}


def _de(config, report) -> dict:
    trace = _de_trace(config, report)
    return {"de.csv": [[t, trace.message_error[t], trace.ber[t]]
                       for t in range(trace.ber.size)]}


def _simulate(config, report) -> dict:
    return {"simulate.csv": _simulated_rows(config, report, config.iterations)}


def _recursion(config, report) -> dict:
    trace = report.trace
    report.notes.update(w_ub=trace.w_ub, l1=trace.l1, branch=trace.branch)
    return {"recursion.csv": [[t, trace.p_tilde_even[t - 1], trace.p_tilde_odd[t - 1],
                               trace.p_survival[t - 1]]
                              for t in range(1, trace.iterations + 1)]}


def _tail(config, report) -> dict:
    spec = report.spec
    tail = tail_distribution(spec.var_dist, spec.check_dist, spec.n_vars,
                             config.d_max)
    report.notes["conventions"] = {
        "tail_recursion": "conditioned on the two nodes being distinct",
        "tail_recursion_incl_root": "unconditioned second draw (may equal the first)",
    }
    return {"tail.csv": [[d, tail.survival[d], tail.survival_including_root[d]]
                         for d in range(config.d_max + 1)]}


def _figure6(config, report) -> dict:
    spec = report.spec
    tail = tail_distribution(spec.var_dist, spec.check_dist, spec.n_vars,
                             config.d_max)
    emp = empirical_tail(spec, config.d_max, config.n_instances,
                         config.pairs_per_instance, config.seed)
    report.notes["n_pairs"] = emp.n_pairs
    return {"figure6.csv": [[d, tail.survival[d], emp.survival[d], emp.std_error[d]]
                            for d in range(config.d_max + 1)]}


def _oracle(config, report) -> dict:
    l = max(config.iterations) if config.iterations else 1
    est = expected_min_weight_mc(report.spec, l, config.n_samples, config.seed)
    if est.capacity_skipped == est.n_samples:
        raise CapacityError(
            f"all {est.n_samples} samples exceeded the free-dimension guard; "
            "shrink the iteration count or the block length")
    report.notes["iterations"] = l
    return {"oracle.csv": [[est.n_samples, est.mean, est.std_error,
                            est.infeasible_count, est.capacity_skipped]],
            "oracle_weights.csv": [[i, int(w)] for i, w in enumerate(est.weights)]}


def _figure5(config, report) -> dict:
    spec, notes = report.spec, report.notes
    j = spec.var_dist.max_degree
    iters = sorted(config.iterations)
    lower = sorted(report.points, key=lambda point: point.iterations)
    trace = _de_trace(config, report)

    # The a0 fit can fail on the computed trace, so it runs before the Monte Carlo.
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
    notes["lentmaier_validity_limit"] = lentmaier_validity_limit(
        j, spec.check_dist.max_degree, spec.n_vars)

    sim_rows = _simulated_rows(config, report, iters)
    # gamma_upper is the log-space form of gamma(2**(-a0 (j-1)**l)); never underflows.
    rows = [[l, point.gamma_lower, _safe_gamma(float(trace.ber[l])),
             log2(a0) + l * log2(j - 1), _safe_gamma(sim[1]), sim[2]]
            for l, point, sim in zip(iters, lower, sim_rows)]
    return {"figure5.csv": rows, "figure5_sim.csv": sim_rows}


# kind -> (handler, fields it requires), in the command line's order.  A
# handler takes (config, report) once validate() has passed, may add to
# report.notes, and returns {file name: rows} for run() to write.
# Every rule on the config itself is in validate(); a handler raises only
# on computed data (the a0 anchor fit, the oracle's capacity guard).
_KINDS = {
    "bounds": (_bounds, ("ensemble", "channel", "iterations")),
    "simulate": (_simulate, ("channel", "iterations", "trials")),
    "de": (_de, ("ensemble", "channel", "iterations")),
    "recursion": (_recursion, ("ensemble", "iterations")),
    "tail": (_tail, ("ensemble", "d_max")),
    "oracle": (_oracle, ("ensemble", "n_samples")),
    "figure5": (_figure5, ("ensemble", "channel", "iterations", "trials")),
    "figure6": (_figure6, ("ensemble", "d_max", "n_instances", "pairs_per_instance")),
}
KINDS = tuple(_KINDS)


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Execute one experiment; returns the manifest dict (also written to disk).

    Raises ConfigError for a config that ``validate`` rejects, ``out_dir``
    (which overrides ``config.out_dir``) included, or whose
    density-evolution BER at the a0 anchor is 0 or 1, and propagates
    CapacityError from the oracle.  The output directory is made only
    after the kind's tables are computed, so a run that raises writes
    nothing.
    """
    if out_dir is not None:
        config = replace(config, out_dir=str(out_dir))
    report = validate(config)
    if not report.ok:
        raise ConfigError("; ".join(report.errors))
    started = datetime.now(timezone.utc).isoformat()
    tables = _KINDS[config.kind][0](config, report)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {name: _write_csv(out / name, CSV_HEADERS[name.removesuffix(".csv")], rows)
               for name, rows in tables.items()}
    manifest = {
        "config_hash": config.config_hash(),
        "tool_version": __version__,
        "kind": config.kind,
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
        "config": config.canonical_dict(),
        "notes": report.notes,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest
