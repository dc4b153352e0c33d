"""Binary-input memoryless channels: the one home of each family's rules.

``Bec``, ``Bsc`` and ``Biawgn`` each hold every rule that differs
between the families, so no other module picks a family:

- ``llrs(s, rng)``, the LLR law: the log-likelihood ratio
  ln p(y|0)/p(y|1) of the symbols received for the bits ``s``.
  ``transmit`` draws them for one codeword.
- ``ber_lower(w)`` and ``neg_log2_ber_lower(w)``, the BER lower bound
  implied by a minimum local-codeword weight w >= 0, as a probability
  and as its -log2.  The log form stays finite where the probability
  underflows; each is the family's own formula, so the two can differ
  in the last bit.  A negative weight raises ValueError.
- ``de(var_dist, check_dist, iterations)`` and ``de_label``, the
  density-evolution curve at the channel's parameter and how outputs
  label it; both are None on the BSC, which has no curve here.

Erasure-channel outputs are exactly 0 (erased) or +/-inf (known bit).
Float BP (``bp.decode``) takes finite LLRs only and rejects those
infinities; the erasure pattern ``llr == 0`` goes to
``bp.bec_unresolved``, as the Monte Carlo harness does.  scipy is
imported only inside the BI-AWGN bounds and curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, log2, sqrt
from typing import Union

import numpy as np

from .degrees import DegreeDistribution
from .density_evolution import DeTrace, de_bec, ga_awgn, q_function


def _weight(weight: float) -> float:
    """The weight of a channel bound, which must be >= 0."""
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight!r}")
    return weight


@dataclass(frozen=True)
class Bec:
    """Binary erasure channel with erasure probability epsilon."""

    epsilon: float
    de_label = "DE (exact, BEC)"

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon!r} outside [0, 1]")

    def llrs(self, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """0 on erasures, +/-inf on the other bits."""
        erased = rng.random(s.size) < self.epsilon
        known = np.where(s == 0, np.inf, -np.inf)
        return np.where(erased, 0.0, known)

    def ber_lower(self, weight: float) -> float:
        """eps**w."""
        return float(self.epsilon ** _weight(weight))

    def neg_log2_ber_lower(self, weight: float) -> float | None:
        """w * -log2(eps); None where the bound is 0 or 1."""
        if _weight(weight) == 0 or self.epsilon <= 0.0 or self.epsilon >= 1.0:
            return None
        return weight * -log2(self.epsilon)

    def de(self, var_dist: DegreeDistribution, check_dist: DegreeDistribution,
           iterations: int) -> DeTrace:
        """Exact erasure density evolution, ``de_bec``, at this epsilon."""
        return de_bec(var_dist, check_dist, self.epsilon, iterations)


@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel with crossover probability q."""

    q: float
    de = de_label = None

    def __post_init__(self):
        if not 0.0 < self.q < 0.5:
            raise ValueError(f"q {self.q!r} outside (0, 0.5)")
        if not np.isfinite(np.log((1.0 - self.q) / self.q)):
            raise ValueError(f"q {self.q!r} too small: its LLR magnitude is not finite")

    def llrs(self, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """+/- ln((1-q)/q)."""
        flips = rng.random(s.size) < self.q
        y = s ^ flips
        magnitude = np.log((1.0 - self.q) / self.q)
        return magnitude * (1.0 - 2.0 * y)

    def ber_lower(self, weight: float) -> float:
        """q**((w+1)/2)."""
        return float(self.q ** ((_weight(weight) + 1.0) / 2.0))

    def neg_log2_ber_lower(self, weight: float) -> float:
        """(w+1)/2 * -log2(q)."""
        return (_weight(weight) + 1.0) / 2.0 * -log2(self.q)


@dataclass(frozen=True)
class Biawgn:
    """Binary-input AWGN channel (BPSK 0 -> +1, 1 -> -1) with noise variance sigma2."""

    sigma2: float
    de_label = "DE (Gaussian approx., AWGN)"

    def __post_init__(self):
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 {self.sigma2!r} must be positive and finite")
        if not np.isfinite(2.0 / self.sigma2):
            raise ValueError(f"sigma2 {self.sigma2!r} too small: its LLR scale is not finite")

    def llrs(self, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """2y/sigma2 for y = (1-2s) + noise."""
        y = (1.0 - 2.0 * s) + rng.normal(0.0, np.sqrt(self.sigma2), s.size)
        return 2.0 * y / self.sigma2

    def ber_lower(self, weight: float) -> float:
        """Q(sqrt(w/sigma2))."""
        return float(q_function(sqrt(_weight(weight) / self.sigma2)))

    def neg_log2_ber_lower(self, weight: float) -> float:
        """-log2 Q(sqrt(w/sigma2)), through scipy's ``log_ndtr``."""
        if _weight(weight) == 0:
            return 1.0  # Q(0) = 1/2
        from scipy.special import log_ndtr

        return -log_ndtr(-sqrt(weight / self.sigma2)) / log(2.0)

    def de(self, var_dist: DegreeDistribution, check_dist: DegreeDistribution,
           iterations: int) -> DeTrace:
        """Gaussian-approximation density evolution, ``ga_awgn``, at this sigma2."""
        return ga_awgn(var_dist, check_dist, self.sigma2, iterations)


ChannelModel = Union[Bec, Bsc, Biawgn]


def transmit(codeword, channel: ChannelModel, seed) -> np.ndarray:
    """Channel LLRs for one transmitted codeword, deterministic per seed:
    ``channel.llrs`` of its bits on ``np.random.default_rng(seed)``."""
    return channel.llrs(np.asarray(codeword, dtype=np.int8), np.random.default_rng(seed))


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
