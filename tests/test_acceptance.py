"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS|FAIL`` line and
asserts afterwards, so a bare ``pytest -s tests/test_acceptance.py``
reads as a checklist.  Tolerances are fixed here, not tuned at runtime.
"""

import hashlib
import math

import numpy as np
import pytest

from ldpcbounds import (Bec, Biawgn, Bsc, DegreeDistribution, EnsembleSpec,
                        RegularParams, chernoff_q_lower,
                        de_bec, expected_min_weight_mc, gamma_transform,
                        local_system, min_weight_root_one, q_function,
                        sample_graph, valid_tree_prob_lower, valid_tree_search,
                        weight_recursion, weight_upper_bound, window)
from ldpcbounds.experiments import ExperimentConfig, run

R3 = DegreeDistribution.regular(3)
R4 = DegreeDistribution.regular(4)

FIGURE5_CONFIG = {
    "kind": "figure5", "seed": 20260810,
    "ensemble": {"n_vars": 5400, "var_dist": {"3": 1.0}, "check_dist": {"4": 1.0}},
    "channel": {"type": "bec", "epsilon": 0.6},
    "iterations": [1, 2, 3, 4],
    "trials": 371,  # 371 * 5400 > 2e6 transmitted bits per iteration count
    "code": "peg",
}

FIGURE6_CONFIG = {
    "kind": "figure6", "seed": 20260810,
    "ensemble": {
        "n_vars": 20000, "perspective": "edge",
        "var_dist": {"2": 0.38354, "3": 0.04237, "4": 0.57409},
        "check_dist": {"5": 0.24123, "6": 0.75877},
    },
    "d_max": 14, "n_instances": 50, "pairs_per_instance": 250,
}


# SHA-256 of the figure5 CSVs at FIGURE5_CONFIG; any speedup of PEG, BP or
# the Monte Carlo harness must leave these bytes unchanged.
FIGURE5_DIGESTS = {
    "figure5.csv": "33760ced37d75a695f89d2ed1319905b160e714be72874b60682a02895cb6f56",
    "figure5_sim.csv": "d6e0dad0b02aa27ab8252afb66ebb8f3612cd2d1523ee92aa3283c3b86577a8f",
}

# SHA-256 of the figure6 CSV at FIGURE6_CONFIG; any speedup of the sampler
# or the pair-distance search must leave these bytes unchanged.
FIGURE6_DIGESTS = {
    "figure6.csv": "f48ed4e55984728c5b1ed09362b5888f5a861bbf05c08c41107990998bcc6219",
}


def report(number, name, violations):
    status = "FAIL" if violations else "PASS"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not violations, f"criterion {number} ({name}): " + "; ".join(violations)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def figure5_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("figure5")
    manifest = run(ExperimentConfig.from_dict(FIGURE5_CONFIG), out)
    return out, manifest


@pytest.fixture(scope="module")
def figure6_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("figure6")
    manifest = run(ExperimentConfig.from_dict(FIGURE6_CONFIG), out)
    return out, manifest


def test_criterion_1_closed_form_spot_table():
    expected = {1: 4.0, 2: 10.0, 3: 388.0, 4: 2332.0, 5: 5400.0}
    violations = []
    for l, want in expected.items():
        got = weight_upper_bound(RegularParams(j=3, k=4, n_vars=5400, iterations=l)).value
        if abs(got - want) > 1e-12 * want:
            violations.append(f"l={l}: got {got}, want {want}")
    report(1, "closed-form weight table", violations)


def test_criterion_2_channel_bound_endpoints():
    cases = [
        (Bec(0.6), 4.0, 0.6 ** 4),
        (Bsc(0.1), 3.0, 0.01),
        (Biawgn(1.0), 1.0, q_function(1.0)),
    ]
    violations = []
    for channel, weight, want in cases:
        got = channel.ber_lower(weight)
        if abs(got - want) > 1e-9:
            violations.append(f"{channel}: got {got}, want {want}")
    if abs(q_function(1.0) - 0.158655) > 1e-6:
        violations.append("Q(1) drifted from 0.158655")
    report(2, "channel bound endpoints", violations)


def test_criterion_3_bound_curve_sandwich(figure5_outputs):
    out, _ = figure5_outputs
    main_rows = read_csv(out / "figure5.csv")
    sim_rows = read_csv(out / "figure5_sim.csv")
    de_trace = de_bec(R3, R4, 0.6, 4)
    violations = []
    for main, sim in zip(main_rows, sim_rows):
        l = int(main["l"])
        lower = Bec(0.6).ber_lower(weight_upper_bound(RegularParams(3, 4, 5400, l)).value)
        if lower > de_trace.ber[l] + 1e-15:
            violations.append(f"l={l}: lower {lower} above DE {de_trace.ber[l]}")
        ber = float(sim["ber"])
        stderr = float(sim["std_error"])
        bits = int(sim["bits"])
        if bits < 2_000_000:
            violations.append(f"l={l}: only {bits} transmitted bits")
        if ber < lower - 3 * stderr:
            violations.append(f"l={l}: sim {ber} below lower {lower} - 3se")
        for column in ("gamma_lower", "gamma_de", "gamma_upper", "gamma_sim"):
            if main[column] == "":
                violations.append(f"l={l}: {column} missing")
    report(3, "bound/DE/simulation sandwich", violations)


def test_figure5_golden_digests(figure5_outputs):
    out, manifest = figure5_outputs
    for name, want in FIGURE5_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name
        assert manifest["outputs"][name]["sha256"] == want, name


def test_figure6_golden_digests(figure6_outputs):
    out, manifest = figure6_outputs
    for name, want in FIGURE6_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name
        assert manifest["outputs"][name]["sha256"] == want, name


def test_criterion_4_tail_distribution_agreement(figure6_outputs):
    out, _ = figure6_outputs
    rows = read_csv(out / "figure6.csv")
    rec = np.array([float(r["tail_recursion"]) for r in rows])
    emp = np.array([float(r["tail_empirical"]) for r in rows])
    d = np.arange(rec.size)
    # Knee of the recursion curve: the point farthest above the chord
    # joining the curve's endpoints.
    chord = rec[0] + (rec[-1] - rec[0]) * d / (rec.size - 1)
    knee = int(np.argmax(rec - chord))
    dev = np.abs(rec - emp)
    for i in range(rec.size):
        marker = " <= knee" if i <= knee else ""
        print(f"  d'={i:2d} recursion={rec[i]:.5f} empirical={emp[i]:.5f} "
              f"|dev|={dev[i]:.5f}{marker}")
    violations = []
    if knee < 4:
        violations.append(f"degenerate knee at {knee}")
    bad = [i for i in range(knee + 1) if dev[i] > 0.02]
    if bad:
        violations.append(f"deviation above 0.02 at d'={bad}")
    report(4, "distance-tail agreement", violations)


def test_criterion_5_valid_tree_probability():
    spec = EnsembleSpec(900, R3, R4)
    est = expected_min_weight_mc(spec, 1, 500, seed=20260810)
    bound = valid_tree_prob_lower(3, 4, 900, 1)
    frac = float((est.weights <= 4).mean())
    se = math.sqrt(max(frac * (1 - frac), 1.0 / est.weights.size) / est.weights.size)
    violations = []
    if est.weights.size < 500:
        violations.append(f"only {est.weights.size} usable samples")
    if abs(bound - 0.6796) > 1e-4:
        violations.append(f"hand value drifted: {bound}")
    if frac < bound - 3 * se:
        violations.append(f"fraction {frac} below bound {bound} - 3se")
    print(f"  fraction(min weight <= 4) = {frac:.4f} vs bound {bound:.4f}")
    report(5, "valid-tree probability Monte Carlo", violations)


def test_criterion_6_oracle_formula_equivalence():
    violations = []
    spec300 = EnsembleSpec(300, R3, R4)
    tree_like_checked = 0
    seed = 0
    while tree_like_checked < 100 and seed < 40:
        g = sample_graph(spec300, seed)
        for v in range(0, 300, 11):
            win = window(g, v, 1)
            if win.tree:
                w = min_weight_root_one(local_system(win))
                if w != 4:
                    violations.append(f"tree-like view gave weight {w}")
                tree_like_checked += 1
        seed += 1
    if tree_like_checked < 100:
        violations.append(f"only {tree_like_checked} tree-like neighborhoods found")

    spec_small = EnsembleSpec(28, R3, R4)
    trees_found = 0
    for s in range(15):
        g = sample_graph(spec_small, s)
        for v in range(0, 28, 2):
            win = window(g, v, 1)
            tree = valid_tree_search(win)
            if tree is None:
                continue
            trees_found += 1
            w = min_weight_root_one(local_system(win))
            if w is None or w > tree.weight:
                violations.append(
                    f"oracle {w} above valid-tree weight {tree.weight}")
    if trees_found < 20:
        violations.append(f"only {trees_found} valid trees found")
    print(f"  tree-like views checked: {tree_like_checked}; "
          f"valid trees compared: {trees_found}")
    report(6, "oracle/formula equivalence", violations)


def test_criterion_7_recursion_regression():
    trace = weight_recursion(R3, R4, 1000, 2, theta1=0.99)
    hand = 1000 * (1 - (1 - 1 / 1000) ** 9)  # independent unrolling collapses to b**9
    violations = []
    if abs(trace.w_ub - hand) > 1e-9:
        violations.append(f"w_ub {trace.w_ub!r} vs hand {hand!r}")
    if abs(trace.w_ub - 8.96) > 5e-3:
        violations.append(f"w_ub {trace.w_ub} far from 8.96")
    report(7, "irregular recursion regression", violations)


def test_criterion_8_inequality_suites():
    violations = []
    grid = np.linspace(0.0, 10.0, 10_000)
    q_vals = np.array([q_function(x) for x in grid])
    env = np.array([chernoff_q_lower(x) for x in grid])
    if not (env <= q_vals + 1e-300).all():
        violations.append("Q envelope violated")

    p_grid = np.linspace(1e-8, 1 - 1e-8, 4000)
    gammas = np.array([gamma_transform(p) for p in p_grid])
    if not (np.diff(gammas) < 0).all():
        violations.append("gamma transform not strictly decreasing")

    for n in (100, 2000, 50_000):
        for l in (1, 2, 5, 9):
            trace = weight_recursion(R3, R4, n, l, 0.99)
            if not ((trace.p_survival >= 0) & (trace.p_survival <= 1)).all():
                violations.append(f"survival outside [0,1] at n={n}, l={l}")
            if not 0 <= trace.w_ub <= n:
                violations.append(f"w_ub outside [0,N] at n={n}, l={l}")

    for j, k in ((3, 4), (3, 6), (4, 6), (5, 8)):
        for base in (1_000, 10_000, 100_000):
            n = (base // k) * k  # keeps n*j divisible by k
            values = [weight_upper_bound(RegularParams(j, k, n, l)).value
                      for l in range(0, 12)]
            if not all(b >= a for a, b in zip(values, values[1:])):
                violations.append(f"weight bound not monotone at ({j},{k},{n})")
            if max(values) > n:
                violations.append(f"weight bound above N at ({j},{k},{n})")
    report(8, "inequality suites", violations)


def test_criterion_9_determinism(figure5_outputs):
    out, manifest = figure5_outputs
    rerun_dir = out.parent / "rerun"
    config = ExperimentConfig.from_dict({**FIGURE5_CONFIG, "threads": 2})
    rerun = run(config, rerun_dir)
    violations = []
    if rerun["config_hash"] != manifest["config_hash"]:
        violations.append("config hash changed across runs")
    for name, meta in manifest["outputs"].items():
        again = rerun["outputs"][name]["sha256"]
        if again != meta["sha256"]:
            violations.append(f"{name} digest changed at 2 threads")
        if (rerun_dir / name).read_bytes() != (out / name).read_bytes():
            violations.append(f"{name} bytes differ")
    report(9, "deterministic artifacts", violations)
