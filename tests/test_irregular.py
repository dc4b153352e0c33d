import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcbounds import (Bec, DegreeDistribution, EnsembleSpec,
                        InvalidDistributionError, closed_form_lower,
                        RegularParams, empirical_tail, irregular_lower_bound,
                        l1_threshold, maxdeg_relaxation, neighborhood_max_counts,
                        tail_distribution, weight_recursion)
from ldpcbounds.irregular import BRANCH_ABOVE, BRANCH_BELOW

X3 = DegreeDistribution.regular(3)
X4 = DegreeDistribution.regular(4)

# Edge-perspective laws of the rate-1/2 benchmark ensemble.
BENCH_L = DegreeDistribution.from_edge({2: 0.38354, 3: 0.04237, 4: 0.57409})
BENCH_R = DegreeDistribution.from_edge({5: 0.24123, 6: 0.75877})

BG2_L = DegreeDistribution({2: 3 / 7, 3: 4 / 7})
BG2_R = DegreeDistribution({8: 0.5, 10: 0.5})


def degree_dist_strategy():
    return st.dictionaries(st.integers(2, 8), st.integers(1, 9),
                           min_size=1, max_size=4).map(
        lambda w: DegreeDistribution({d: v / sum(w.values()) for d, v in w.items()}))


class TestL1Threshold:
    def test_regular_34(self):
        got = l1_threshold(X3, X4, 5400, 1.0)
        assert got == pytest.approx(2 * math.log(5400) / math.log(864), rel=1e-12)
        assert got == pytest.approx(2.542, abs=2e-3)

    def test_bg2_uses_max_degrees(self):
        got = l1_threshold(BG2_L, BG2_R, 3500, 0.99)
        expect = 0.99 * 2 * math.log(3500) / (5 * math.log(2) + 3 * math.log(9))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_theta_zero(self):
        assert l1_threshold(X3, X4, 5400, 0.0) == 0.0

    def test_degenerate_supports_rejected(self):
        with pytest.raises(InvalidDistributionError):
            l1_threshold(DegreeDistribution.regular(1), X4, 100, 0.9)
        with pytest.raises(InvalidDistributionError):
            l1_threshold(X3, DegreeDistribution.regular(2), 100, 0.9)


class TestWeightRecursion:
    def test_hand_unrolled_fixture(self):
        # L = x^3, N = 1000, l = 2, below-threshold branch: the two survival
        # factors collapse to b^3 * (b^2)^3 = b^9 with b = 1 - 1/N.
        trace = weight_recursion(X3, X4, 1000, 2, theta1=0.99)
        assert trace.branch == BRANCH_BELOW
        b = 1 - 1 / 1000
        assert trace.p_tilde_odd[0] == pytest.approx(b, rel=1e-15)
        assert trace.p_survival[0] == pytest.approx(b ** 3, rel=1e-14)
        assert trace.p_tilde_even[1] == pytest.approx(b ** 2, rel=1e-14)
        assert trace.p_tilde_odd[1] == pytest.approx(b ** 2, rel=1e-14)
        assert trace.p_survival[1] == pytest.approx(b ** 6, rel=1e-14)
        assert trace.w_ub == pytest.approx(1000 * (1 - b ** 9), abs=1e-9)
        assert trace.w_ub == pytest.approx(8.96, abs=5e-3)

    def test_single_iteration_first_order(self):
        trace = weight_recursion(X3, X4, 100_000, 1, theta1=0.99)
        assert trace.w_ub == pytest.approx(3.0, abs=1e-3)
        assert trace.w_ub == pytest.approx(100_000 * (1 - (1 - 1e-5) ** 3), rel=1e-12)

    def test_branch_selection_uses_total_iterations(self):
        # l1 for (x^3, x^4, N=1000, theta=0.99) sits near 2.02.
        assert weight_recursion(X3, X4, 1000, 2, 0.99).branch == BRANCH_BELOW
        assert weight_recursion(X3, X4, 1000, 3, 0.99).branch == BRANCH_ABOVE

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            weight_recursion(X3, X4, 1000, 0, 0.99)

    @settings(max_examples=40, deadline=None)
    @given(degree_dist_strategy(),
           st.dictionaries(st.integers(3, 9), st.integers(1, 9), min_size=1,
                           max_size=3),
        st.integers(10, 10_000), st.integers(1, 40))
    def test_probabilities_stay_in_unit_interval(self, var_dist, chk_weights, n, l):
        check_dist = DegreeDistribution(
            {d: v / sum(chk_weights.values()) for d, v in chk_weights.items()})
        trace = weight_recursion(var_dist, check_dist, n, l, 0.99)
        for arr in (trace.p_tilde_odd, trace.p_survival):
            assert ((arr >= 0) & (arr <= 1)).all()
        even = trace.p_tilde_even[1:]
        assert ((even >= 0) & (even <= 1)).all()
        assert 0.0 <= trace.w_ub <= n

    def test_w_ub_monotone_in_iterations(self):
        for dists in ((X3, X4), (BG2_L, BG2_R), (BENCH_L, BENCH_R)):
            values = [weight_recursion(dists[0], dists[1], 20000, l, 0.99).w_ub
                      for l in range(1, 14)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_regular_cross_check_against_neighborhood_max(self):
        # Above threshold, the expected distinct-variable weight tracks the
        # tree ceiling from below within a factor of two.
        for l in (1, 2, 3):
            trace = weight_recursion(X3, X4, 10_000, max(l, 3), 0.99)
            # force the above-threshold branch by total iterations >= 3
            partial = 10_000 * (1 - np.prod(trace.p_survival[:l]))
            ceiling, _ = neighborhood_max_counts(3, 4, 2 * l)
            assert 0.5 * ceiling <= partial <= 1.0 * ceiling


class TestTailDistribution:
    def test_starts_at_one_and_steps_on_even(self):
        tail = tail_distribution(BENCH_L, BENCH_R, 20000, 9)
        assert tail.survival[0] == 1.0 and tail.survival[1] == 1.0
        for t in range(1, 4):
            assert tail.survival[2 * t + 1] == tail.survival[2 * t]

    def test_matches_survival_product(self):
        trace = weight_recursion(BENCH_L, BENCH_R, 20000, 5, theta1=0.99)
        tail = tail_distribution(BENCH_L, BENCH_R, 20000, 10)
        running = np.cumprod(trace.p_survival)
        for t in range(1, 6):
            assert tail.survival[2 * t] == pytest.approx(running[t - 1], rel=1e-12)

    def test_including_root_variant(self):
        tail = tail_distribution(X3, X4, 1000, 4)
        assert tail.survival_including_root[0] == pytest.approx(1 - 1 / 1000)
        assert (tail.survival_including_root <= tail.survival).all()

    def test_large_n_limit(self):
        tail = tail_distribution(X3, X4, 10 ** 9, 8)
        assert (tail.survival > 1 - 1e-3).all()

    def test_non_increasing(self):
        tail = tail_distribution(BENCH_L, BENCH_R, 20000, 16)
        assert (np.diff(tail.survival) <= 0).all()


class TestEmpiricalTail:
    def test_diameter_two_graph(self):
        # Complete-bipartite instance: every variable meets all three checks,
        # so every distinct pair sits at distance exactly 2.
        spec = EnsembleSpec(4, DegreeDistribution.regular(3),
                            DegreeDistribution({4: 1.0}))
        tail = empirical_tail(spec, 2, 2, 20, seed=3)
        assert tail.survival[0] == 1.0
        assert tail.survival[2] == 0.0

    def test_deterministic(self, spec34_900):
        a = empirical_tail(spec34_900, 6, 2, 30, seed=5)
        b = empirical_tail(spec34_900, 6, 2, 30, seed=5)
        assert np.array_equal(a.survival, b.survival)

    def test_regular_1000_distance_two_mass(self):
        spec = EnsembleSpec(1000, X3, X4)
        tail = empirical_tail(spec, 2, 5, 150, seed=8)
        # Tree ceiling: 9 distinct others within distance 2 of any node.
        expect = 1 - 10 / 1000
        assert abs(tail.survival[2] - expect) <= 3 * tail.std_error[2] + 1e-12

    def test_three_sigma_agreement_with_recursion(self):
        # Benchmark ensemble at N=20000 with a scaled-down pair budget.
        spec = EnsembleSpec(20000, BENCH_L, BENCH_R)
        emp = empirical_tail(spec, 12, 4, 100, seed=13)
        rec = tail_distribution(BENCH_L, BENCH_R, 20000, 12)
        dev = np.abs(emp.survival - rec.survival)
        assert (dev <= 3 * emp.std_error + 1e-9).all()


class TestBoundPoints:
    def test_irregular_composition(self):
        trace = weight_recursion(X3, X4, 1000, 2, 0.99)
        point = irregular_lower_bound(Bec(0.1), X3, X4, 1000, 2, 0.99)
        assert point.p_lower == pytest.approx(0.1 ** trace.w_ub, rel=1e-12)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            irregular_lower_bound(Bec(0.5), X3, X4, 1000, 0, 0.99)

    def test_bg2_bound_sequence_non_increasing(self):
        points = [irregular_lower_bound(Bec(0.1), BG2_L, BG2_R, 3500, l, 0.99)
                  for l in range(1, 7)]
        values = [p.p_lower for p in points]
        assert all(b <= a + 1e-18 for a, b in zip(values, values[1:]))

    def test_maxdeg_relaxation_delegates(self):
        point = maxdeg_relaxation(Bec(0.1), BG2_L, BG2_R, 3500, 2, 0.99)
        direct = closed_form_lower(Bec(0.1), RegularParams(3, 10, 3500, 2, 0.99))
        assert point.p_lower == direct.p_lower

    def test_maxdeg_relaxation_exact_for_regular(self):
        point = maxdeg_relaxation(Bec(0.2), X3, X4, 5400, 2, 0.99)
        direct = closed_form_lower(Bec(0.2), RegularParams(3, 4, 5400, 2, 0.99))
        assert point.p_lower == direct.p_lower

    def test_maxdeg_relaxation_rejects_float_iterations(self):
        with pytest.raises(TypeError):
            maxdeg_relaxation(Bec(0.2), X3, X4, 5400, 1.5, 0.99)

    def test_maxdeg_relaxation_block_weight_not_below_n(self):
        # N = 20000 is no multiple of Kmax = 6: it is nudged up to 20004,
        # never down, so the block-regime weight stays at least N.
        points = [maxdeg_relaxation(Bec(0.45), BENCH_L, BENCH_R, 20000, l, 0.99)
                  for l in range(1, 11)]
        assert [p.regime for p in points] == ["tree"] + ["neighborhood"] * 2 + ["block"] * 7
        for p in points[3:]:
            assert p.weight >= 20000

    def test_maxdeg_not_applicable_below_degree_three(self):
        low = DegreeDistribution({2: 1.0})
        assert maxdeg_relaxation(Bec(0.1), low, X4, 1000, 2, 0.99) is None
