"""Monte Carlo bit-error-rate estimation under flooding BP.

All three channel models are output-symmetric and BP commutes with the
corresponding sign changes, so simulations transmit the all-zero
codeword; the channel-symmetry property is exercised directly in the
test suite rather than assumed silently.

BP after l iterations is a prefix of the run to any larger count, so
``estimate_ber_curve`` decodes each trial once, to the largest requested
count, and tallies errors at every requested count on the way.  On the
BEC it counts erasures over a whole trial block (``bec_unresolved``);
on the BSC and BI-AWGN it runs the float decoder trial by trial.

Determinism contract: trial t draws its noise from a generator keyed on
(master seed, trial stream, t) and block b draws its ensemble graph from
(master seed, graph stream, b), so results are bitwise identical for a
fixed seed no matter how many workers execute the blocks, and the same
trial sees the same noise and graph at every iteration count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._util import STREAM_GRAPH, STREAM_TRIAL, at_least, derived_rng
from .bp import bec_unresolved, float_bp
from .channels import Bec, ChannelModel, transmit
from .degrees import EnsembleSpec
from .tanner import TannerGraph, sample_graph

DEFAULT_TRIALS_PER_BLOCK = 25


@dataclass(frozen=True)
class BerEstimate:
    """Monte Carlo BER with its standard error.

    A wrong sign counts as one error and a zero marginal (unresolved
    erasure or exact tie) as half an error, so ``ber`` is exactly
    ``half_error_units / (2 * n_bits)``.
    """

    ber: float
    std_error: float
    n_trials: int
    n_bits: int
    half_error_units: int


def _trial_llr(graph: TannerGraph, channel: ChannelModel, seed: int,
               trial: int) -> np.ndarray:
    rng = derived_rng(seed, STREAM_TRIAL, trial)
    return transmit(np.zeros(graph.n_vars, dtype=np.int8), channel, rng)


def _bec_block_units(graph: TannerGraph, channel: Bec, seed: int, trials: range,
                     levels: list[int]) -> np.ndarray:
    """Half-error units ``(len(levels), len(trials))``: the unresolved bits,
    since BP on the BEC never decides a bit wrong."""
    erased = np.stack([_trial_llr(graph, channel, seed, t) == 0 for t in trials])
    per_level = [unresolved.sum(axis=1)
                 for unresolved in bec_unresolved(graph, erased, levels[-1])]
    return np.stack(per_level)[levels]


def _bp_trial_units(graph: TannerGraph, channel: ChannelModel, seed: int,
                    trial: int, levels: list[int]) -> list[int]:
    """Half-error units of one trial at each of the sorted ``levels``."""
    llr = _trial_llr(graph, channel, seed, trial)
    wanted = set(levels)
    units = []
    for l, marginals in enumerate(float_bp(graph, llr, levels[-1])):
        if l in wanted:
            wrong = int(np.count_nonzero(marginals < 0))
            ties = int(np.count_nonzero(marginals == 0))
            units.append(2 * wrong + ties)
    return units


def _estimate(units: np.ndarray, n_bits_per_trial: int) -> BerEstimate:
    n_trials = units.size
    total_units = int(units.sum())
    n_bits = n_trials * n_bits_per_trial
    per_trial_ber = units / (2.0 * n_bits_per_trial)
    if n_trials > 1:
        std_error = float(per_trial_ber.std(ddof=1) / np.sqrt(n_trials))
    else:
        std_error = 0.0
    return BerEstimate(
        ber=total_units / (2.0 * n_bits),
        std_error=std_error,
        n_trials=n_trials,
        n_bits=n_bits,
        half_error_units=total_units,
    )


def estimate_ber_curve(code, channel: ChannelModel, iterations, n_trials: int,
                       seed: int, *, threads: int = 1,
                       trials_per_block: int = DEFAULT_TRIALS_PER_BLOCK
                       ) -> list[BerEstimate]:
    """Estimate the BER of a fixed code or an ensemble at several iteration counts.

    Every trial is transmitted and decoded once, to ``max(iterations)``;
    entry i of the result is exactly what a separate run at
    ``iterations[i]`` alone would give.

    Parameters
    ----------
    code : TannerGraph or EnsembleSpec
        A fixed graph, or an ensemble spec from which a fresh graph is
        sampled per trial block (ensemble average).
    channel : ChannelModel
        On the BEC the decoder is erasure counting (``bec_unresolved``);
        on the BSC and BI-AWGN it is float BP, ``float_bp``.
    iterations : sequence of int
        Flooding iteration counts, in any order, repeats allowed; 0 is
        the channel decision.  There is no early syndrome stop.  Here and
        in ``n_trials`` and ``trials_per_block`` any integer type works,
        and anything else, such as a float, raises ``TypeError``.
    n_trials : int
        Number of transmitted codewords.
    seed : int
        Master seed; the result is a pure function of (code, channel,
        iterations, n_trials, seed).
    threads : int
        Worker threads over trial blocks; does not affect the result.
    trials_per_block : int
        Trials sharing one sampled graph in ensemble mode.  Part of the
        estimator definition, so it is a parameter rather than a tuning
        knob picked at run time.

    Returns
    -------
    list[BerEstimate]
        One estimate per entry of ``iterations``, in the same order.
    """
    n_trials = at_least(n_trials, "n_trials", 1)
    trials_per_block = at_least(trials_per_block, "trials_per_block", 1)
    iterations = [at_least(l, "iterations") for l in iterations]
    if not iterations:
        raise ValueError("iterations must not be empty")
    if not isinstance(code, (TannerGraph, EnsembleSpec)):
        raise TypeError("code must be a TannerGraph or an EnsembleSpec")

    levels = sorted(set(iterations))
    units = np.zeros((len(levels), n_trials), dtype=np.int64)
    blocks = [(b, range(lo, min(lo + trials_per_block, n_trials)))
              for b, lo in enumerate(range(0, n_trials, trials_per_block))]

    def run_block(block):
        b, trials = block
        graph = code
        if isinstance(code, EnsembleSpec):
            graph = sample_graph(code, derived_rng(seed, STREAM_GRAPH, b))
        if isinstance(channel, Bec):
            units[:, trials.start:trials.stop] = _bec_block_units(
                graph, channel, seed, trials, levels)
        else:
            for t in trials:
                units[:, t] = _bp_trial_units(graph, channel, seed, t, levels)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_block, blocks))
    else:
        for block in blocks:
            run_block(block)

    estimates = {l: _estimate(row, code.n_vars) for l, row in zip(levels, units)}
    return [estimates[l] for l in iterations]


def estimate_ber(code, channel: ChannelModel, iterations: int, n_trials: int,
                 seed: int, *, threads: int = 1,
                 trials_per_block: int = DEFAULT_TRIALS_PER_BLOCK) -> BerEstimate:
    """BER at one iteration count: ``estimate_ber_curve`` with ``[iterations]``."""
    return estimate_ber_curve(code, channel, [iterations], n_trials, seed,
                              threads=threads, trials_per_block=trials_per_block)[0]
