"""Benchmark workloads: one experiment config each, plus output checks.

Every workload is a config for ``ldpcbounds.experiments.run``.  The
benchmark's seed replaces the config's ``seed``; nothing else changes.
At the default seed the output files must match the pinned SHA-256
digests.  At any seed the outputs must pass the structural checks in
``check_outputs``, which include the columns that do not depend on the
seed (closed-form bounds, density evolution, the tail recursion).

This module imports nothing outside the standard library, so the
benchmark's parent process stays light and the setup time measured in
the worker is the program's own.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

DEFAULT_SEED = 20260810

_REGULAR_34 = {"n_vars": 5400, "var_dist": {"3": 1.0}, "check_dist": {"4": 1.0}}

# Why each workload is here, and which layer it stresses, is recorded in
# BENCHMARK.json and NOTES.md; the configs themselves are the acceptance
# configs of the test suite (figure5, figure6 with fewer instances), an
# AWGN ensemble simulation, and acceptance criterion 5 at 4x the samples.
CONFIGS = {
    "figure5-bec": {
        "kind": "figure5",
        "ensemble": _REGULAR_34,
        "channel": {"type": "bec", "epsilon": 0.6},
        "iterations": [1, 2, 3, 4],
        "trials": 371,
        "code": "peg",
    },
    "figure6-tail": {
        "kind": "figure6",
        "ensemble": {
            "n_vars": 20000, "perspective": "edge",
            "var_dist": {"2": 0.38354, "3": 0.04237, "4": 0.57409},
            "check_dist": {"5": 0.24123, "6": 0.75877},
        },
        "d_max": 14, "n_instances": 6, "pairs_per_instance": 250,
    },
    "simulate-awgn": {
        "kind": "simulate",
        "ensemble": _REGULAR_34,
        "channel": {"type": "biawgn", "sigma2": 0.7},
        "iterations": [2, 4, 6, 8],
        "trials": 200,
        "code": "ensemble",
    },
    "oracle-l1": {
        "kind": "oracle",
        "ensemble": {"n_vars": 900, "var_dist": {"3": 1.0}, "check_dist": {"4": 1.0}},
        "iterations": [1],
        "n_samples": 2000,
    },
}

# Output digests at DEFAULT_SEED.
GOLDEN = {
    "figure5-bec": {
        "figure5.csv":
            "33760ced37d75a695f89d2ed1319905b160e714be72874b60682a02895cb6f56",
        "figure5_sim.csv":
            "d6e0dad0b02aa27ab8252afb66ebb8f3612cd2d1523ee92aa3283c3b86577a8f",
    },
    "figure6-tail": {
        "figure6.csv":
            "95622ed953d1e749e643d95c3e608c9a9957b0c50067d7d13c754689fe2d1a83",
    },
    "simulate-awgn": {
        "simulate.csv":
            "11f6ece2ab147f434917f38080836c6ded0f0d477f7331cb43dc020a866c23c5",
    },
    "oracle-l1": {
        "oracle.csv":
            "1eb45cb4ae1e6fc515ae99d095041ace1323ff4eb78206d66495918217197157",
        "oracle_weights.csv":
            "b0f59fcddf3137650bfd47f22b5c40889a568a813f88f1e7d3e665bd6ba38b81",
    },
}

HEADERS = {
    "figure5.csv": "l,gamma_lower,gamma_de,gamma_upper,gamma_sim,sim_stderr",
    "figure5_sim.csv": "l,ber,std_error,trials,bits",
    "figure6.csv": "d_prime,tail_recursion,tail_empirical,stderr",
    "simulate.csv": "l,ber,std_error,trials,bits",
    "oracle.csv": "samples,mean,std_error,infeasible,capacity_skipped",
    "oracle_weights.csv": "sample,weight",
}

# Leading columns that do not depend on the seed, as written at any seed.
_FIGURE5_BOUNDS = [
    "1,1.55966917262,0.0331224165803,-2.35614008226",
    "2,2.88159726751,0.29330955255,-1.35614008226",
    "3,8.15958201481,0.4832356262,-0.356140082261",
    "4,10.7470212458,0.643859917739,0.643859917739",
]
_FIGURE6_RECURSION = [
    "0,1", "1,1", "2,0.999319281207", "3,0.999319281207",
    "4,0.992253798834", "5,0.992253798834", "6,0.921814010794",
    "7,0.921814010794", "8,0.442770399244", "9,0.442770399244",
    "10,0.00135761589329", "11,0.00135761589329", "12,2.58379967165e-17",
    "13,2.58379967165e-17", "14,5.58753767211e-76",
]


def config_for(workload: str, seed: int) -> dict:
    return {**CONFIGS[workload], "seed": int(seed)}


def sub_seed(seed: int, k: int) -> int:
    """Seed of the k-th run in a measured set; run 0 uses the seed itself."""
    if k == 0:
        return int(seed)
    digest = hashlib.sha256(f"{int(seed)}/{k}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def file_digests(out_dir: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in sorted(names)}


def golden_mismatches(workload: str, digests: dict[str, str]) -> list[str]:
    want = GOLDEN[workload]
    if sorted(digests) != sorted(want):
        return [f"output files {sorted(digests)} != {sorted(want)}"]
    return [f"{name} digest {digests[name][:12]} != pinned {digest[:12]}"
            for name, digest in want.items() if digests[name] != digest]


def _rows(out_dir: Path, name: str, errors: list[str]) -> list[list[str]]:
    lines = (out_dir / name).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != HEADERS[name]:
        errors.append(f"{name}: header {lines[:1]} != {HEADERS[name]!r}")
        return []
    return [line.split(",") for line in lines[1:]]


def _num(cell: str) -> float:
    return float(cell) if cell else float("nan")


def _check_rate_rows(name, rows, iterations, trials, n_vars, errors):
    if [r[0] for r in rows] != [str(l) for l in iterations]:
        errors.append(f"{name}: iterations {[r[0] for r in rows]}")
    for r in rows:
        ber, se = _num(r[1]), _num(r[2])
        if not (0.0 <= ber <= 1.0 and se >= 0.0):
            errors.append(f"{name}: l={r[0]} ber {r[1]} std_error {r[2]}")
        if r[3:] != [str(trials), str(trials * n_vars)]:
            errors.append(f"{name}: l={r[0]} trials/bits {r[3:]}")


def check_outputs(workload: str, out_dir: Path) -> list[str]:
    """Seed-independent checks of one run's CSV outputs; returns errors."""
    cfg = CONFIGS[workload]
    errors: list[str] = []
    if workload == "figure5-bec":
        rows = _rows(out_dir, "figure5.csv", errors)
        if [",".join(r[:4]) for r in rows] != _FIGURE5_BOUNDS:
            errors.append("figure5.csv: bound or DE columns changed")
        sim = _rows(out_dir, "figure5_sim.csv", errors)
        _check_rate_rows("figure5_sim.csv", sim, cfg["iterations"], cfg["trials"],
                         cfg["ensemble"]["n_vars"], errors)
    elif workload == "simulate-awgn":
        rows = _rows(out_dir, "simulate.csv", errors)
        _check_rate_rows("simulate.csv", rows, cfg["iterations"], cfg["trials"],
                         cfg["ensemble"]["n_vars"], errors)
    elif workload == "figure6-tail":
        rows = _rows(out_dir, "figure6.csv", errors)
        if [",".join(r[:2]) for r in rows] != _FIGURE6_RECURSION:
            errors.append("figure6.csv: tail recursion column changed")
        emp = [_num(r[2]) for r in rows]
        if not emp or emp[0] != 1.0 or any(b > a for a, b in zip(emp, emp[1:])) \
                or min(emp) < 0.0 or any(_num(r[3]) <= 0.0 for r in rows):
            errors.append("figure6.csv: empirical tail is not a survival curve")
    elif workload == "oracle-l1":
        summary = _rows(out_dir, "oracle.csv", errors)
        weights = [int(r[1]) for r in _rows(out_dir, "oracle_weights.csv", errors)]
        n = cfg["n_samples"]
        if len(summary) != 1:
            errors.append("oracle.csv: expected one row")
        else:
            samples, mean, _, infeasible, skipped = summary[0]
            if int(samples) != n or len(weights) + int(infeasible) + int(skipped) != n:
                errors.append("oracle.csv: sample counts do not add up")
            # At l=1 the window holds the root, its 3 checks and at most 9
            # other variables, and every parity row needs a second one.
            if any(not 2 <= w <= 10 for w in weights):
                errors.append("oracle_weights.csv: weight outside [2, 10]")
            if weights and mean != format(sum(weights) / len(weights), ".12g"):
                errors.append(f"oracle.csv: mean {mean} != mean of weights")
    return errors
