"""Command-line entry point.

Subcommands mirror the experiment kinds plus ``validate``; every run
takes a JSON config and writes CSV artifacts with a manifest.  Exit
codes: 0 success, 2 config error, 3 capacity error (a guarded size limit,
or an array too large to allocate, from ``validate`` or a run).
"""

from __future__ import annotations

import argparse
import sys

from .errors import CapacityError, ConfigError, LdpcBoundsError
from .experiments import _KINDS, KINDS, ExperimentConfig, run, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3

# The kinds whose Monte Carlo sweep runs on a thread pool: those that take trials.
THREADED_KINDS = tuple(kind for kind, (_, required) in _KINDS.items()
                       if "trials" in required)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpcbounds",
        description="Iteration-limited BER bounds for LDPC ensembles: "
                    "bound curves, BP simulation, density evolution, "
                    "distance tails, and minimum-weight oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*KINDS, "validate"):
        p = sub.add_parser(name, help=f"run the {name} experiment" if name in KINDS
                           else "check a config without running it")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
        p.add_argument("--out", default=None, help="output directory")
        if name in THREADED_KINDS:
            p.add_argument("--threads", type=int, default=None,
                           help="worker threads for Monte Carlo sub-tasks")
    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json_file(args.config)
    if args.command != "validate":
        if config.kind != args.command:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand "
                f"{args.command!r}")
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    if getattr(args, "threads", None) is not None:
        config.threads = args.threads
    return config


def _print_report(report) -> int:
    """Print the findings of ``validate``; returns the exit code they give."""
    for message in report.errors:
        print(f"error: {message}", file=sys.stderr)
    for message in report.infos:
        print(f"info: {message}")
    if report.ok:
        print("config ok")
    return EXIT_OK if report.ok else EXIT_CONFIG


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "validate":
            return _print_report(validate(config))
        manifest = run(config)
    except (CapacityError, MemoryError) as exc:  # MemoryError: a size no array can hold
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except LdpcBoundsError as exc:  # ConfigError and every other input error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for name in manifest["outputs"]:
        print(name)
    print(f"config hash {manifest['config_hash']}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
