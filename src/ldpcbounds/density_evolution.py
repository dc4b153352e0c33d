"""Iteration-indexed ensemble-average error curves.

Two reference curves are provided: exact density evolution on the binary
erasure channel, and the symmetric-Gaussian mean approximation on the
BI-AWGN channel.  The Gaussian curve is an approximation and is labeled
as such wherever it is emitted; it is used only as a comparison curve,
never as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degrees import DegreeDistribution, edge_perspective


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x)."""
    from scipy.special import erfc

    return 0.5 * erfc(x / np.sqrt(2.0))


@dataclass(frozen=True)
class DeTrace:
    """Per-iteration error probabilities, entries for t = 0..l.

    ``message_error`` tracks the edge-level message error (erasure
    probability on the BEC, Gaussian-approximate error on AWGN) and
    ``ber`` the node-level bit error probability.
    """

    message_error: np.ndarray
    ber: np.ndarray


def de_bec(var_dist: DegreeDistribution, check_dist: DegreeDistribution,
           epsilon: float, iterations: int) -> DeTrace:
    """Exact erasure-channel density evolution.

    Edge recursion x_t = eps * lambda(1 - rho(1 - x_{t-1})) with
    x_0 = eps; the bit-level curve is eps * L(1 - rho(1 - x_{t-1})).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon outside [0, 1]")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    lam = edge_perspective(var_dist)
    rho = edge_perspective(check_dist)
    x = np.empty(iterations + 1)
    ber = np.empty(iterations + 1)
    x[0] = epsilon
    ber[0] = epsilon
    for t in range(1, iterations + 1):
        y = 1.0 - rho.evaluate(1.0 - x[t - 1])
        x[t] = epsilon * lam.evaluate(y)
        ber[t] = epsilon * var_dist.evaluate(y)
    return DeTrace(message_error=x, ber=ber)


# -- Gaussian approximation ------------------------------------------------

_PHI_A = -0.4527
_PHI_B = 0.0218
_PHI_C = 0.86
_PHI_CAP = 5.0e5


def _phi_small(s):
    return np.exp(_PHI_A * s ** _PHI_C + _PHI_B)


def _phi_large(s):
    return np.sqrt(np.pi / s) * np.exp(-s / 4.0) * (1.0 - 10.0 / (7.0 * s))


# The two approximation regimes cross near s = 6.2; switching exactly at
# the crossing keeps the stitched function continuous.  The literal is
# ``brentq(lambda s: _phi_small(s) - _phi_large(s), 4.0, 8.0)``, written
# out so that importing the package does not import scipy.
PHI_SPLIT = 6.177975866159115


def phi_approx(s: float) -> float:
    """Mean-to-error transform of the symmetric Gaussian message family.

    Two-regime approximation stitched at its crossing point; phi(0) = 1,
    strictly decreasing, and phi(s) -> 0 as s grows.
    """
    if s <= 0.0:
        return 1.0
    if s < PHI_SPLIT:
        return float(_phi_small(s))
    return float(max(_phi_large(s), 0.0))


def phi_inverse(y: float) -> float:
    """Inverse of phi_approx on (0, 1], capped at a large mean."""
    if y >= 1.0:
        return 0.0
    if y > phi_approx(PHI_SPLIT):
        return float(((_PHI_B - np.log(y)) / -_PHI_A) ** (1.0 / _PHI_C))
    if y <= phi_approx(_PHI_CAP):
        return _PHI_CAP
    from scipy.optimize import brentq

    return float(brentq(lambda s: _phi_large(s) - y, PHI_SPLIT, _PHI_CAP))


def ga_awgn(var_dist: DegreeDistribution, check_dist: DegreeDistribution,
            sigma2: float, iterations: int) -> DeTrace:
    """Gaussian-approximation density evolution on the BI-AWGN channel.

    Tracks the mean of the check-to-variable message family; the bit
    error after t iterations is sum_d L_d Q(sqrt((s + d*m_t)/2)) where
    s = 2/sigma2 is the channel-LLR mean.  Documented approximation, not
    ground truth.
    """
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    lam = edge_perspective(var_dist)
    rho = edge_perspective(check_dist)
    s = 2.0 / sigma2
    message_error = np.empty(iterations + 1)
    ber = np.empty(iterations + 1)
    message_error[0] = q_function(np.sqrt(s / 2.0))
    ber[0] = q_function(np.sqrt(s / 2.0))
    m_c = 0.0
    for t in range(1, iterations + 1):
        x = sum(f * phi_approx(s + (d - 1) * m_c) for d, f in lam.terms.items())
        x = min(max(x, 0.0), 1.0)
        m_c = sum(
            f * phi_inverse(-np.expm1((k - 1) * np.log1p(-x))) if x < 1.0 else 0.0
            for k, f in rho.terms.items()
        )
        message_error[t] = sum(
            f * q_function(np.sqrt((s + (d - 1) * m_c) / 2.0))
            for d, f in lam.terms.items()
        )
        ber[t] = sum(
            f * q_function(np.sqrt((s + d * m_c) / 2.0))
            for d, f in var_dist.terms.items()
        )
    return DeTrace(message_error=message_error, ber=ber)
