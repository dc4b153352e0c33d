"""Iteration-limited BER lower bounds for LDPC code ensembles.

The package computes closed-form and recursive lower bounds on the
ensemble-average bit error rate of LDPC codes decoded with a fixed
number of flooding belief-propagation iterations, and validates them at
desk scale against BP Monte Carlo simulation, density evolution, and
brute-force minimum-weight oracles.
"""

__version__ = "0.1.0"

from .channels import Bec, Biawgn, Bsc, ChannelModel, eb_n0_to_sigma2, transmit
from .degrees import DegreeDistribution, EnsembleSpec
from .tanner import (TannerGraph, distance, girth, peg_construct, sample_graph,
                     sample_graph_with_attempts)
from .alist import load_alist, save_alist
from .bp import DecodeResult, bec_unresolved, decode, float_bp
from .simulate import BerEstimate, estimate_ber, estimate_ber_curve
from .density_evolution import DeTrace, de_bec, ga_awgn, phi_approx, phi_inverse, \
    q_function
from .regular_bounds import (BoundPoint, RegularParams, WeightBound,
                             block_regime_limit, chernoff_q_lower,
                             closed_form_lower, gamma_transform, lentmaier_fit_a0,
                             lentmaier_upper, lentmaier_validity_limit,
                             neighborhood_max_counts, tree_regime_limit,
                             valid_tree_counts, valid_tree_prob_lower,
                             weight_upper_bound)
from .irregular import (RecursionTrace, TailDistribution, empirical_tail,
                        irregular_lower_bound, l1_threshold, maxdeg_relaxation,
                        tail_distribution, weight_recursion)
from .oracle import (Gf2System, MinWeightEstimate, ValidTree, Window,
                     expected_min_weight_mc, local_system, min_weight_root_one,
                     valid_tree_search, window, windows)
from .errors import (AlistParseError, CapacityError, ConfigError,
                     ConstructionError, InvalidDistributionError,
                     InvalidSpecError, LdpcBoundsError, RegimeError,
                     SamplingFailureError)
