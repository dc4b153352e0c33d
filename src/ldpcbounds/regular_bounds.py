"""Closed-form BER lower bounds for regular ensembles.

The machinery ties together: counting formulas for the valid subtree a
low-weight assignment lives on, ceilings on how many distinct nodes a
depth-limited decoding neighborhood can contain, a piecewise upper bound
on the expected minimum weight of the root-constrained local code, the
curve point that pushes that weight through the channel's own BER bound
(``ber_lower`` and ``neg_log2_ber_lower`` on each class in ``channels``),
and the double-log transform used to plot the resulting
double-exponential decay.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import exp, log, log2, pi, sqrt

from ._util import at_least
from .channels import Biawgn, ChannelModel
from .errors import RegimeError

REGIME_TREE = "tree"
REGIME_NEIGHBORHOOD = "neighborhood"
REGIME_BLOCK = "block"

# Coefficient of the exponential lower envelope of Q(x).
CHERNOFF_COEF = exp(1.0 / (pi + 2.0)) / 4.0 * sqrt((pi + 2.0) / pi)


@dataclass(frozen=True)
class RegularParams:
    """Regular ensemble plus a decoding budget.

    j and k are the variable and check degrees; ``iterations`` the
    flooding iteration count; ``theta1`` sets how far the tree regime of
    the weight bound extends (any constant strictly below 1 is valid,
    larger values keep the tight branch longer).
    """

    j: int
    k: int
    n_vars: int
    iterations: int
    theta1: float = 0.99

    def __post_init__(self):
        if operator.index(self.j) < 3:
            raise ValueError("variable degree must be >= 3 for the closed-form bound")
        if operator.index(self.k) < 2:
            raise ValueError("check degree must be >= 2")
        at_least(self.n_vars, "n_vars", 2)
        at_least(self.iterations, "iterations")
        if not 0.0 < self.theta1 < 1.0:
            raise ValueError("theta1 must lie in (0, 1)")
        if (self.n_vars * self.j) % self.k != 0:
            raise ValueError("n_vars * j must be divisible by k")


def valid_tree_counts(j: int, depth: int) -> tuple[int, int]:
    """Node counts of the weight-carrying subtree of a given height.

    The subtree alternates variable levels of full degree j with check
    levels of degree 2.  Returns (variables, checks); both are exact
    integers.
    """
    if j < 3 or operator.index(depth) < 0:
        raise ValueError("need j >= 3 and depth >= 0")
    n_var = (j * (j - 1) ** (depth // 2) - 2) // (j - 2)
    n_chk = (j * (j - 1) ** ((depth + 1) // 2) - j) // (j - 2)
    return n_var, n_chk


def neighborhood_max_counts(j: int, k: int, depth: int) -> tuple[int, int]:
    """Most distinct variable and check nodes a depth-limited view can hold.

    Computed as exact geometric sums over the levels: the variable count
    is 1 + sum_t j(j-1)^(t-1)(k-1)^t and the check count
    sum_t j(j-1)^(t-1)(k-1)^(t-1), truncated at the view depth.
    """
    if j < 2 or k < 2 or operator.index(depth) < 0:
        raise ValueError("need j >= 2, k >= 2, depth >= 0")
    n_var = 1
    for t in range(1, depth // 2 + 1):
        n_var += j * (j - 1) ** (t - 1) * (k - 1) ** t
    n_chk = 0
    for t in range(1, (depth + 1) // 2 + 1):
        n_chk += j * (j - 1) ** (t - 1) * (k - 1) ** (t - 1)
    return n_var, n_chk


@dataclass(frozen=True)
class WeightBound:
    value: float
    regime: str


def tree_regime_limit(j: int, k: int, n_vars: int, theta1: float) -> float:
    """Iteration ceiling of the tree regime: theta1 * log N^2 in base (j-1)^5 (k-1)^3."""
    n_vars = at_least(n_vars, "n_vars", 2)
    return theta1 * 2.0 * log(n_vars) / (5.0 * log(j - 1) + 3.0 * log(k - 1))


def block_regime_limit(j: int, k: int, n_vars: int) -> float:
    """Iteration threshold beyond which the weight bound saturates at N."""
    n_vars = at_least(n_vars, "n_vars", 2)
    return log((1.0 - k / (j * (k - 1))) * n_vars) / log((j - 1) * (k - 1))


def weight_upper_bound(p: RegularParams) -> WeightBound:
    """Piecewise upper bound on the expected minimum local codeword weight.

    Tree regime (small l): the variable count (j(j-1)^l - 2)/(j - 2) of
    the valid tree of height 2l.  Saturated regime (large l): the block
    length N.  In between: the distinct-variable ceiling of the depth-2l
    neighborhood.  The tree condition is tested first; the value is a
    float because the channel bounds take real weights.
    """
    l = p.iterations
    if l <= tree_regime_limit(p.j, p.k, p.n_vars, p.theta1):
        return WeightBound(float(valid_tree_counts(p.j, 2 * l)[0]), REGIME_TREE)
    if l > block_regime_limit(p.j, p.k, p.n_vars):
        return WeightBound(float(p.n_vars), REGIME_BLOCK)
    return WeightBound(float(neighborhood_max_counts(p.j, p.k, 2 * l)[0]),
                       REGIME_NEIGHBORHOOD)


def chernoff_q_lower(x: float) -> float:
    """Exponential lower envelope of the Gaussian tail, valid for x >= 0."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return CHERNOFF_COEF * exp(-x * x)


def gamma_transform(p: float) -> float:
    """Double-log magnitude log2(-log2 p), defined for p in (0, 1).

    Strictly decreasing in p; linearizes curves that decay like
    2**(-a * 2**(b*l)) against the iteration count.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"gamma transform needs p in (0, 1), got {p!r}")
    return log2(-log2(p))


@dataclass(frozen=True)
class BoundPoint:
    """One iteration's worth of a bound curve."""

    iterations: int
    weight: float
    regime: str
    p_lower: float
    gamma_lower: float | None
    p_lower_relaxed: float | None = None


def bound_point_from_weight(channel: ChannelModel, weight: float, regime: str,
                            iterations: int) -> BoundPoint:
    """Assemble a curve point: channel bound, relaxation, and gamma value.

    The channel's own ``ber_lower`` and ``neg_log2_ber_lower`` give the
    bound; they raise ValueError on a negative weight.
    """
    p = channel.ber_lower(weight)
    relaxed = None
    if isinstance(channel, Biawgn):
        relaxed = chernoff_q_lower(sqrt(weight / channel.sigma2))
    # The log-space path keeps gamma finite when p itself underflows.
    neg_log2 = channel.neg_log2_ber_lower(weight)
    gamma = log2(neg_log2) if neg_log2 is not None and neg_log2 > 0.0 else None
    return BoundPoint(iterations=iterations, weight=weight, regime=regime,
                      p_lower=p, gamma_lower=gamma, p_lower_relaxed=relaxed)


def closed_form_lower(channel: ChannelModel, p: RegularParams) -> BoundPoint:
    """Closed-form BER lower bound point for a regular ensemble.

    Composes the piecewise weight bound with the per-channel formula;
    on AWGN the exponential relaxation via the Q-envelope is reported
    alongside the exact Q form.
    """
    wb = weight_upper_bound(p)
    return bound_point_from_weight(channel, wb.value, wb.regime, p.iterations)


def lentmaier_upper(j: int, iterations: int, a0: float) -> float:
    """Reference double-exponential upper-bound form 2**(-a0 * (j-1)**l).

    The constant a0 is existence-only in the underlying analysis; callers
    supply it explicitly or fit it with :func:`lentmaier_fit_a0`.  Outputs
    using it are labeled "form-only upper bound".
    """
    if a0 <= 0:
        raise ValueError("a0 must be positive")
    if j < 3:
        raise ValueError("variable degree must be >= 3")
    try:
        return float(2.0 ** (-(a0 * (j - 1) ** iterations)))
    except OverflowError:  # (j-1)**l is beyond a float; 2**-x is 0.0 from x > 1075 on
        return 0.0


def lentmaier_fit_a0(j: int, anchor_iterations: int, anchor_p: float) -> float:
    """a0 that makes the upper-bound form pass through (l, p) at the anchor."""
    if not 0.0 < anchor_p < 1.0:
        raise ValueError("anchor probability must be in (0, 1)")
    try:
        return -log2(anchor_p) / (j - 1) ** anchor_iterations
    except OverflowError:
        raise RegimeError(f"cannot fit a0: (j-1)**{anchor_iterations} is beyond a float") from None


def lentmaier_validity_limit(j: int, k: int, n_vars: int) -> float:
    """Iteration ceiling log N / log((j-1)(k-1)) of the upper-bound form."""
    n_vars = at_least(n_vars, "n_vars", 2)
    return log(n_vars) / log((j - 1) * (k - 1))


def valid_tree_prob_lower(j: int, k: int, n_vars: int, iterations: int) -> float:
    """Lower bound on the probability that a sampled local code has a
    codeword of the tree-regime weight.

    Only valid while the iteration count stays below the saturation
    threshold and the regular check count N*j/k is an integer; violations
    raise RegimeError.  The value is floored at 0.
    """
    n_vars = at_least(n_vars, "n_vars", 2)
    iterations = at_least(iterations, "iterations")
    if iterations > block_regime_limit(j, k, n_vars):
        raise RegimeError(
            f"iterations {iterations} beyond the validity window "
            f"{block_regime_limit(j, k, n_vars):.4f}"
        )
    if (n_vars * j) % k != 0:
        raise RegimeError("n_vars * j / k must be an integer check count")
    m = n_vars * j // k
    v_next, c_next = valid_tree_counts(j, 2 * iterations + 2)
    n_star, m_star = neighborhood_max_counts(j, k, 2 * iterations)
    chk_bracket = 1.0 - (m_star + c_next) / m
    var_bracket = 1.0 - (n_star + v_next) / n_vars
    if chk_bracket <= 0.0 or var_bracket <= 0.0:
        return 0.0
    return chk_bracket ** c_next * var_bracket ** v_next
