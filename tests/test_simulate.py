import numpy as np
import pytest

from ldpcbounds import (Bec, Biawgn, Bsc, DegreeDistribution, EnsembleSpec,
                        TannerGraph, decode, estimate_ber, estimate_ber_curve,
                        q_function, sample_graph, transmit)
from ldpcbounds._util import STREAM_GRAPH, STREAM_TRIAL, derived_rng
from ldpcbounds.simulate import BerEstimate

SPEC_60 = EnsembleSpec(60, DegreeDistribution.regular(3), DegreeDistribution.regular(4))


def reference_estimate(code, channel, iterations, n_trials, seed, trials_per_block):
    """One float-BP decode per trial at this iteration count alone."""
    units = np.zeros(n_trials, dtype=np.int64)
    for b, lo in enumerate(range(0, n_trials, trials_per_block)):
        graph = code
        if not isinstance(code, TannerGraph):
            graph = sample_graph(code, derived_rng(seed, STREAM_GRAPH, b))
        for t in range(lo, min(lo + trials_per_block, n_trials)):
            llr = transmit(np.zeros(graph.n_vars, dtype=np.int8), channel,
                           derived_rng(seed, STREAM_TRIAL, t))
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

    def test_rejects_bad_iterations(self, small_graph):
        with pytest.raises(ValueError):
            estimate_ber_curve(small_graph, Bec(0.3), [2, -1], 5, seed=1)
        with pytest.raises(ValueError):
            estimate_ber_curve(small_graph, Bec(0.3), [], 5, seed=1)
