"""Iterative weight bounds and distance-tail recursions for irregular ensembles.

The central recursion tracks conditional survival probabilities of the
distance between two random variable nodes: P_2t is the probability that
the distance exceeds 2t given it exceeds 2t-1, built from cavity-style
intermediate terms that mix the edge-perspective degree laws.  Two
regimes exist: below an iteration threshold the check side acts as a
pass-through (the analysis there effectively fixes degree-2 checks),
above it the full check-degree mixture enters.  The branch is chosen
once from the total iteration count, never per step.

The expected-distinct-neighbor weight bound is N(1 - prod_t P_2t); the
same conditional products give the full distance-tail curve, which a
Monte Carlo estimator over sampled graph pairs cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from ._util import STREAM_TAIL_GRAPH, STREAM_TAIL_PAIRS, at_least, derived_rng
from .channels import ChannelModel
from .degrees import DegreeDistribution, EnsembleSpec
from .errors import InvalidDistributionError
from .regular_bounds import (BoundPoint, RegularParams, bound_point_from_weight,
                             closed_form_lower, tree_regime_limit)
from .tanner import distance, sample_graph

BRANCH_BELOW = "below-threshold"
BRANCH_ABOVE = "above-threshold"


def l1_threshold(var_dist: DegreeDistribution, check_dist: DegreeDistribution,
                 n_vars: int, theta1: float) -> float:
    """Iteration threshold theta1 * log N^2 in base (Jmax-1)^5 (Kmax-1)^3.

    Jmax and Kmax are the largest degrees of the two distributions;
    degenerate supports are rejected.
    """
    j_max = var_dist.max_degree
    k_max = check_dist.max_degree
    if j_max < 2:
        raise InvalidDistributionError("variable max degree must be >= 2")
    if k_max < 3:
        raise InvalidDistributionError("check max degree must be >= 3")
    if theta1 < 0:
        raise ValueError("theta1 must be >= 0")
    return tree_regime_limit(j_max, k_max, n_vars, theta1)


@dataclass(frozen=True)
class RecursionTrace:
    """Unrolled conditional-survival recursion.

    Arrays are indexed by t-1 for t = 1..l: ``p_survival[t-1]`` is P_2t,
    ``p_tilde_odd[t-1]`` its check-side intermediate, ``p_tilde_even[t-1]``
    the variable-side intermediate (undefined at t = 1, stored as NaN).
    """

    iterations: int
    l1: float
    branch: str
    p_tilde_even: np.ndarray
    p_tilde_odd: np.ndarray
    p_survival: np.ndarray
    w_ub: float


def _survival_chain(var_dist: DegreeDistribution, check_dist: DegreeDistribution,
                    n_vars: int, steps: int, below: bool
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unroll the P_2t chain for t = 1..steps in the chosen branch."""
    lam = var_dist.edge_evaluate
    rho = check_dist.edge_evaluate
    base = 1.0 - 1.0 / n_vars
    p_even = np.full(steps, np.nan)
    p_odd = np.empty(steps)
    p_surv = np.empty(steps)
    p_odd[0] = base if below else rho(base)
    p_surv[0] = var_dist.evaluate(p_odd[0])
    for t in range(2, steps + 1):
        p_even[t - 1] = lam(p_odd[t - 2])
        p_odd[t - 1] = p_even[t - 1] if below else rho(p_even[t - 1])
        p_surv[t - 1] = var_dist.evaluate(p_odd[t - 1])
    return p_even, p_odd, p_surv


def weight_recursion(var_dist: DegreeDistribution, check_dist: DegreeDistribution,
                     n_vars: int, iterations: int, theta1: float = 0.99
                     ) -> RecursionTrace:
    """Expected-distinct-neighbor weight bound N(1 - prod P_2t).

    The below/above-threshold branch is selected once from the total
    iteration count.  The survival product is accumulated in log space so
    the bound keeps precision when it approaches N.
    """
    iterations = at_least(iterations, "iterations", 1)
    n_vars = at_least(n_vars, "n_vars", 2)
    if not 0.0 < theta1 < 1.0:
        raise ValueError("theta1 must lie in (0, 1)")
    l1 = l1_threshold(var_dist, check_dist, n_vars, theta1)
    below = iterations <= l1
    branch = BRANCH_BELOW if below else BRANCH_ABOVE
    p_even, p_odd, p_surv = _survival_chain(var_dist, check_dist, n_vars,
                                            iterations, below)
    with np.errstate(divide="ignore"):
        log_prod = float(np.sum(np.log(p_surv)))
    w_ub = float(n_vars * -np.expm1(log_prod))
    return RecursionTrace(
        iterations=iterations, l1=l1, branch=branch,
        p_tilde_even=p_even, p_tilde_odd=p_odd, p_survival=p_surv, w_ub=w_ub,
    )


@dataclass(frozen=True)
class TailDistribution:
    """Survival curve of the distance between two distinct variable nodes.

    ``survival[d]`` approximates P(dist > d | the nodes are distinct),
    so it starts at exactly 1 and only steps down at even distances.
    ``survival_including_root`` folds in the 1 - 1/N chance that an
    unconstrained second draw differs from the first; both variants are
    reported because different consumers want different conventions.
    ``std_error`` is binomial and present only for Monte Carlo output.
    """

    n_vars: int
    survival: np.ndarray
    std_error: np.ndarray | None = None
    n_pairs: int | None = None

    @property
    def survival_including_root(self) -> np.ndarray:
        return self.survival * (1.0 - 1.0 / self.n_vars)


def tail_distribution(var_dist: DegreeDistribution, check_dist: DegreeDistribution,
                      n_vars: int, d_max: int) -> TailDistribution:
    """Distance-tail curve from the conditional-survival recursion.

    Uses the full check-degree mixture (the above-threshold recursion),
    which is the right form for a whole distance distribution.  Odd
    distances are pass-through: variable-to-variable distances in a
    bipartite graph are even.
    """
    n_vars = at_least(n_vars, "n_vars", 2)
    d_max = at_least(d_max, "d_max")
    values = np.ones(d_max + 1)
    if d_max >= 2:
        steps = d_max // 2
        _, _, p_surv = _survival_chain(var_dist, check_dist, n_vars, steps,
                                       below=False)
        running = np.cumprod(p_surv)
        for t in range(1, steps + 1):
            values[2 * t] = running[t - 1]
            if 2 * t + 1 <= d_max:
                values[2 * t + 1] = running[t - 1]
    return TailDistribution(n_vars=n_vars, survival=values)


def empirical_tail(spec: EnsembleSpec, d_max: int, n_instances: int,
                   pairs_per_instance: int, seed: int) -> TailDistribution:
    """Monte Carlo distance-tail over sampled graphs and node pairs.

    Each sample draws a fresh uniformly random ordered pair of distinct
    variable nodes and measures their BFS distance, truncated at d_max;
    standard errors are binomial per distance, with plus-one smoothing
    inside the variance so an empirical proportion of exactly 0 or 1
    still reports a nonzero uncertainty.  Deterministic per seed.
    """
    d_max = at_least(d_max, "d_max")
    n_instances = at_least(n_instances, "n_instances", 1)
    pairs_per_instance = at_least(pairs_per_instance, "pairs_per_instance", 1)
    exceed = np.zeros(d_max + 1, dtype=np.int64)
    n_pairs = n_instances * pairs_per_instance
    for i in range(n_instances):
        g = sample_graph(spec, derived_rng(seed, STREAM_TAIL_GRAPH, i))
        rng = derived_rng(seed, STREAM_TAIL_PAIRS, i)
        for _ in range(pairs_per_instance):
            vi = int(rng.integers(spec.n_vars))
            vj = int(rng.integers(spec.n_vars - 1))
            if vj >= vi:
                vj += 1
            d = distance(g, vi, vj, max_depth=d_max)
            if d == inf:
                exceed += 1
            else:
                exceed[:d] += 1
    survival = exceed / n_pairs
    smoothed = (exceed + 1.0) / (n_pairs + 2.0)
    std_error = np.sqrt(smoothed * (1.0 - smoothed) / n_pairs)
    return TailDistribution(n_vars=spec.n_vars, survival=survival,
                            std_error=std_error, n_pairs=n_pairs)


def irregular_lower_bound(channel: ChannelModel, var_dist: DegreeDistribution,
                          check_dist: DegreeDistribution, n_vars: int,
                          iterations: int, theta1: float = 0.99) -> BoundPoint:
    """Recursion-based BER lower bound point for an irregular ensemble."""
    trace = weight_recursion(var_dist, check_dist, n_vars, iterations, theta1)
    return bound_point_from_weight(channel, trace.w_ub, trace.branch, iterations)


def maxdeg_relaxation(channel: ChannelModel, var_dist: DegreeDistribution,
                      check_dist: DegreeDistribution, n_vars: int,
                      iterations: int, theta1: float = 0.99) -> BoundPoint | None:
    """Regular-ensemble bound at the maximum degrees (Jmax, Kmax).

    The paper's first irregular method, adopting the approach used for
    regular codes: the closed-form weight bound at (Jmax, Kmax), pushed
    through the channel's BER bound.  That the value lower-bounds the
    irregular ensemble's BER is unproven.  Part of the argument holds: a
    depth-2l window whose degrees are at most (Jmax, Kmax) holds no more
    variables than ``neighborhood_max_counts(Jmax, Kmax, 2l)``, which so
    bounds the weight of any root-one local codeword it has, and the
    channel bound decreases in the weight.  The tree regime's threshold
    and weight rest on the regular ensemble's analysis, which is not
    carried over, and N may be nudged up to the next multiple of Kmax.
    Returns None when Jmax < 3, where the closed form does not apply.
    No ordering between this relaxation and the recursion-based bound
    is asserted.  A library function only: no experiment kind writes it.
    """
    j_max = var_dist.max_degree
    k_max = check_dist.max_degree
    if j_max < 3:
        return None
    n = n_vars
    if (n * j_max) % k_max != 0:
        # The closed form reads N through logarithms and as the block-
        # regime weight; nudging up to a socket-consistent size keeps the
        # parameters valid and that weight at least N.
        n = -(-n // k_max) * k_max
    params = RegularParams(j=j_max, k=k_max, n_vars=n, iterations=iterations,
                           theta1=theta1)
    return closed_form_lower(channel, params)
