import hashlib

import numpy as np
import pytest

from conftest import erasure_bp_reference
from ldpcbounds import (Bec, Biawgn, Bsc, DegreeDistribution, EnsembleSpec,
                        TannerGraph, decode, estimate_ber, estimate_ber_curve,
                        q_function, sample_graph, transmit)
from ldpcbounds._util import STREAM_GRAPH, STREAM_TRIAL, derived_rng
from ldpcbounds.experiments import ExperimentConfig, run
from ldpcbounds.simulate import BerEstimate

SPEC_60 = EnsembleSpec(60, DegreeDistribution.regular(3), DegreeDistribution.regular(4))

# SHA-256 of simulate.csv for a small (3,4) ensemble decoded by float BP;
# any change to the BP kernels or the harness must leave these bytes unchanged.
FLOAT_BP_DIGESTS = {
    "bsc": ({"type": "bsc", "q": 0.12},
            "5885f5e4e449290180deb54bf38f6765595485f4ea29c40e926029f31512d793"),
    "awgn": ({"type": "biawgn", "sigma2": 1.2},
             "bf48e5ca810fb1e0a0274ae3fd7bcfea3448c2fbc8f78d424cf59d8b77b2cd14"),
}


def reference_estimate(code, channel, iterations, n_trials, seed, trials_per_block):
    """One decode per trial at this iteration count alone: float BP, or on
    the BEC the erasure BP reference with one half error per erased bit."""
    units = np.zeros(n_trials, dtype=np.int64)
    for b, lo in enumerate(range(0, n_trials, trials_per_block)):
        graph = code
        if not isinstance(code, TannerGraph):
            graph = sample_graph(code, derived_rng(seed, STREAM_GRAPH, b))
        for t in range(lo, min(lo + trials_per_block, n_trials)):
            llr = transmit(np.zeros(graph.n_vars, dtype=np.int8), channel,
                           derived_rng(seed, STREAM_TRIAL, t))
            if isinstance(channel, Bec):
                units[t] = erasure_bp_reference(graph, llr == 0, iterations)[-1].sum()
                continue
            marginals = decode(graph, llr, iterations).marginals
            units[t] = 2 * np.count_nonzero(marginals < 0) + np.count_nonzero(marginals == 0)
    per_trial = units / (2.0 * code.n_vars)
    return BerEstimate(
        ber=int(units.sum()) / (2.0 * n_trials * code.n_vars),
        std_error=float(per_trial.std(ddof=1) / np.sqrt(n_trials)),
        n_trials=n_trials, n_bits=n_trials * code.n_vars,
        half_error_units=int(units.sum()))


@pytest.fixture(scope="module")
def small_graph():
    spec = EnsembleSpec(120, DegreeDistribution.regular(3), DegreeDistribution.regular(4))
    return sample_graph(spec, 2)


class TestEstimateBer:
    def test_noiseless_bec(self, small_graph):
        est = estimate_ber(small_graph, Bec(0.0), 2, 10, seed=1)
        assert est.ber == 0.0

    def test_fully_erased_bec_half_error(self, small_graph):
        est = estimate_ber(small_graph, Bec(1.0), 2, 10, seed=1)
        assert est.ber == 0.5
        assert est.std_error == 0.0

    def test_uncoded_awgn_matches_q(self, small_graph):
        sigma2 = 1.0
        est = estimate_ber(small_graph, Biawgn(sigma2), 0, 400, seed=3)
        expect = q_function(1.0 / np.sqrt(sigma2))
        assert abs(est.ber - expect) < 4 * max(est.std_error, 1e-4)

    def test_decoding_helps_on_bec(self, small_graph):
        raw = estimate_ber(small_graph, Bec(0.3), 0, 200, seed=4)
        dec = estimate_ber(small_graph, Bec(0.3), 3, 200, seed=4)
        assert dec.ber < raw.ber

    def test_deterministic_across_thread_counts(self, small_graph):
        a = estimate_ber(small_graph, Bec(0.4), 2, 60, seed=9, threads=1)
        b = estimate_ber(small_graph, Bec(0.4), 2, 60, seed=9, threads=4)
        assert a == b

    def test_ensemble_mode_samples_fresh_graphs(self):
        spec = EnsembleSpec(60, DegreeDistribution.regular(3), DegreeDistribution.regular(4))
        a = estimate_ber(spec, Bec(0.4), 1, 60, seed=5)
        b = estimate_ber(spec, Bec(0.4), 1, 60, seed=5, threads=3)
        assert a == b
        assert 0.0 < a.ber < 0.5

    def test_counts_are_exact(self, small_graph):
        est = estimate_ber(small_graph, Bec(0.5), 1, 50, seed=6)
        assert est.n_bits == 50 * 120
        assert est.ber == est.half_error_units / (2.0 * est.n_bits)

    def test_rejects_zero_trials(self, small_graph):
        with pytest.raises(ValueError):
            estimate_ber(small_graph, Bec(0.1), 1, 0, seed=1)


class TestEstimateBerCurve:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("ensemble", [False, True], ids=["fixed", "ensemble"])
    @pytest.mark.parametrize("channel", [Bec(0.45), Bsc(0.06), Biawgn(0.8)],
                             ids=["bec", "bsc", "awgn"])
    def test_matches_single_iteration_runs(self, small_graph, channel, ensemble, threads):
        code = SPEC_60 if ensemble else small_graph
        iterations = [3, 0, 2, 3]
        curve = estimate_ber_curve(code, channel, iterations, 24, seed=11,
                                   threads=threads, trials_per_block=7)
        single = [estimate_ber(code, channel, l, 24, seed=11, threads=threads,
                               trials_per_block=7) for l in iterations]
        reference = [reference_estimate(code, channel, l, 24, 11, 7) for l in iterations]
        assert curve == single == reference
        assert curve[0].half_error_units > 0

    @pytest.mark.parametrize("trials_per_block", [0, -3])
    def test_rejects_bad_trials_per_block(self, small_graph, trials_per_block):
        with pytest.raises(ValueError, match="trials_per_block"):
            estimate_ber_curve(small_graph, Bsc(0.06), [1], 5, seed=1,
                               trials_per_block=trials_per_block)

    def test_rejects_bad_iterations(self, small_graph):
        with pytest.raises(ValueError):
            estimate_ber_curve(small_graph, Bec(0.3), [2, -1], 5, seed=1)
        with pytest.raises(ValueError):
            estimate_ber_curve(small_graph, Bec(0.3), [], 5, seed=1)


@pytest.mark.parametrize("channel, digest", FLOAT_BP_DIGESTS.values(),
                         ids=FLOAT_BP_DIGESTS.keys())
def test_float_bp_golden_digest(tmp_path, channel, digest):
    config = ExperimentConfig.from_dict({
        "kind": "simulate", "seed": 20261018,
        "ensemble": {"n_vars": 600, "var_dist": {"3": 1.0}, "check_dist": {"4": 1.0}},
        "channel": channel, "iterations": [0, 1, 3, 6], "trials": 40,
        "code": "ensemble"})
    manifest = run(config, tmp_path)
    assert hashlib.sha256((tmp_path / "simulate.csv").read_bytes()).hexdigest() == digest
    assert manifest["outputs"]["simulate.csv"]["sha256"] == digest
