"""Binary-input memoryless channels and their LLR output.

The log-likelihood ratio of a received symbol y is ln p(y|0)/p(y|1).
Erasure-channel outputs are exactly 0 (erased) or +/-inf (known bit).
Float BP (``bp.decode``) takes finite LLRs only and rejects those
infinities; the erasure pattern ``llr == 0`` goes to
``bp.bec_unresolved``, as the Monte Carlo harness does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ._util import as_generator


@dataclass(frozen=True)
class Bec:
    """Binary erasure channel with erasure probability epsilon."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon!r} outside [0, 1]")


@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel with crossover probability q."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 0.5:
            raise ValueError(f"q {self.q!r} outside (0, 0.5)")
        if not np.isfinite(np.log((1.0 - self.q) / self.q)):
            raise ValueError(f"q {self.q!r} too small: its LLR magnitude is not finite")


@dataclass(frozen=True)
class Biawgn:
    """Binary-input AWGN channel (BPSK 0 -> +1, 1 -> -1) with noise variance sigma2."""

    sigma2: float

    def __post_init__(self):
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 {self.sigma2!r} must be positive and finite")
        if not np.isfinite(2.0 / self.sigma2):
            raise ValueError(f"sigma2 {self.sigma2!r} too small: its LLR scale is not finite")


ChannelModel = Union[Bec, Bsc, Biawgn]


def transmit(codeword, channel: ChannelModel, seed) -> np.ndarray:
    """Channel LLRs for one transmitted codeword, deterministic per seed.

    BEC outputs are 0 on erasures and +/-inf otherwise; BSC outputs are
    +/- ln((1-q)/q); AWGN outputs are 2y/sigma2 for y = (1-2s) + noise.
    """
    s = np.asarray(codeword, dtype=np.int8)
    rng = as_generator(seed)
    n = s.size
    if isinstance(channel, Bec):
        erased = rng.random(n) < channel.epsilon
        known = np.where(s == 0, np.inf, -np.inf)
        return np.where(erased, 0.0, known)
    if isinstance(channel, Bsc):
        flips = rng.random(n) < channel.q
        y = s ^ flips
        magnitude = np.log((1.0 - channel.q) / channel.q)
        return magnitude * (1.0 - 2.0 * y)
    if isinstance(channel, Biawgn):
        y = (1.0 - 2.0 * s) + rng.normal(0.0, np.sqrt(channel.sigma2), n)
        return 2.0 * y / channel.sigma2
    raise TypeError(f"unknown channel model {channel!r}")


def eb_n0_to_sigma2(eb_n0_db: float, rate: float) -> float:
    """Noise variance for a given Eb/N0 in dB at a given code rate.

    sigma2 = 1 / (2 * rate * 10**(eb_n0_db / 10)); raises ValueError
    unless that is finite and positive.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate {rate!r} outside (0, 1)")
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (eb_n0_db / 10.0))
    except ArithmeticError:  # 10**(eb_n0_db/10) overflows, or underflows to 0
        sigma2 = 0.0
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"eb_n0_db {eb_n0_db!r} gives no finite positive sigma2 "
                         f"at rate {rate!r}")
    return sigma2
