import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcbounds import (Bec, Biawgn, Bsc, DegreeDistribution, EnsembleSpec,
                        RegimeError, RegularParams, block_regime_limit, chernoff_q_lower, closed_form_lower,
                        distance, empirical_tail, estimate_ber, estimate_ber_curve,
                        expected_min_weight_mc, gamma_transform, l1_threshold,
                        lentmaier_fit_a0, lentmaier_upper, lentmaier_validity_limit,
                        neighborhood_max_counts, q_function,
                        sample_graph, tail_distribution, transmit, tree_regime_limit,
                        valid_tree_counts, valid_tree_prob_lower, weight_upper_bound)
from ldpcbounds.regular_bounds import (REGIME_BLOCK, REGIME_NEIGHBORHOOD, REGIME_TREE,
                                       bound_point_from_weight)
from ldpcbounds.tanner import bfs_distances

SPEC_40 = EnsembleSpec(40, DegreeDistribution.regular(3), DegreeDistribution.regular(4))


class TestValidTreeCounts:
    @pytest.mark.parametrize("j,depth,expect", [
        (3, 0, (1, 0)), (3, 1, (1, 3)), (3, 2, (4, 3)), (3, 3, (4, 9)),
        (3, 4, (10, 9)), (4, 2, (5, 4)), (5, 4, (26, 25)),
    ])
    def test_values(self, j, depth, expect):
        assert valid_tree_counts(j, depth) == expect

    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 8), st.integers(0, 12))
    def test_matches_closed_forms(self, j, depth):
        v, c = valid_tree_counts(j, depth)
        assert v == (j * (j - 1) ** (depth // 2) - 2) / (j - 2)
        assert c == (j * (j - 1) ** ((depth + 1) // 2) - j) / (j - 2)


class TestNeighborhoodMaxCounts:
    @pytest.mark.parametrize("j,k,depth,expect", [
        (3, 4, 0, (1, 0)), (3, 4, 1, (1, 3)), (3, 4, 2, (10, 3)),
        (3, 4, 3, (10, 21)), (3, 4, 4, (64, 21)),
    ])
    def test_values(self, j, k, depth, expect):
        assert neighborhood_max_counts(j, k, depth) == expect

    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 6), st.integers(2, 8), st.integers(1, 8))
    def test_matches_closed_forms(self, j, k, depth):
        n_star, m_star = neighborhood_max_counts(j, k, depth)
        denom = (j - 1) * (k - 1) - 1
        half = depth // 2
        assert n_star == (j * (k - 1) ** (half + 1) * (j - 1) ** half - k) / denom
        half_up = (depth + 1) // 2
        assert m_star == (j * ((k - 1) * (j - 1)) ** half_up - j) / denom


class TestWeightUpperBound:
    @pytest.mark.parametrize("l,value,regime", [
        (1, 4.0, REGIME_TREE), (2, 10.0, REGIME_TREE),
        (3, 388.0, REGIME_NEIGHBORHOOD), (4, 2332.0, REGIME_NEIGHBORHOOD),
        (5, 5400.0, REGIME_BLOCK),
    ])
    def test_spot_table_5400(self, l, value, regime):
        wb = weight_upper_bound(RegularParams(j=3, k=4, n_vars=5400, iterations=l))
        assert wb.value == pytest.approx(value, rel=1e-12)
        assert wb.regime == regime

    def test_regime_thresholds_5400(self):
        assert tree_regime_limit(3, 4, 5400, 1.0) == pytest.approx(2.542, abs=2e-3)
        assert block_regime_limit(3, 4, 5400) == pytest.approx(
            math.log(5400 * 5 / 9) / math.log(6), rel=1e-12)

    def test_zero_iterations_is_root_only(self):
        wb = weight_upper_bound(RegularParams(j=3, k=4, n_vars=5400, iterations=0))
        assert wb.value == 1.0 and wb.regime == REGIME_TREE

    def test_requires_j_at_least_three(self):
        with pytest.raises(ValueError):
            RegularParams(j=2, k=4, n_vars=100, iterations=1)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 4, 5]), st.sampled_from([4, 6, 8]),
           st.sampled_from([1000, 10_000, 100_000]))
    def test_monotone_and_capped(self, j, k, n):
        if (n * j) % k != 0:
            n = (n // k) * k
        values = [weight_upper_bound(
            RegularParams(j=j, k=k, n_vars=n, iterations=l)).value
            for l in range(0, 14)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v <= n for v in values)


class TestBerLowerFromWeight:
    def test_bec(self):
        assert Bec(0.6).ber_lower(4) == pytest.approx(0.1296, abs=1e-9)

    def test_bsc(self):
        assert Bsc(0.1).ber_lower(3) == pytest.approx(0.01, abs=1e-9)

    def test_awgn(self):
        assert Biawgn(1.0).ber_lower(1) == pytest.approx(
            0.158655, abs=1e-6)

    def test_strictly_decreasing_in_weight(self):
        grid = np.linspace(0.0, 40.0, 81)
        for ch in (Bec(0.6), Bsc(0.1), Biawgn(1.3)):
            vals = [ch.ber_lower(w) for w in grid]
            assert (np.diff(vals) < 0).all()

    def test_negative_weight_rejected(self):
        # The channel formulas take w >= 0; the curve point checks it once.
        with pytest.raises(ValueError, match="weight"):
            bound_point_from_weight(Bec(0.5), -1.0, REGIME_TREE, 1)


class TestNegLog2BerLower:
    def test_matches_direct_at_moderate_weight(self):
        for ch, w in [(Bec(0.6), 4.0), (Bsc(0.1), 3.0), (Biawgn(1.0), 1.0),
                      (Biawgn(2.14), 10.0)]:
            direct = -math.log2(ch.ber_lower(w))
            assert ch.neg_log2_ber_lower(w) == pytest.approx(direct, rel=1e-9)

    def test_finite_where_probability_underflows(self):
        w = 2332.0
        assert Bec(0.6).ber_lower(w) == 0.0  # double underflow
        val = Bec(0.6).neg_log2_ber_lower(w)
        assert val == pytest.approx(w * -math.log2(0.6), rel=1e-12)
        assert Biawgn(1.0).neg_log2_ber_lower(4000.0) > 1000

    def test_degenerate_cases(self):
        assert Bec(0.0).neg_log2_ber_lower(4.0) is None
        assert Bec(1.0).neg_log2_ber_lower(4.0) is None
        assert Bec(0.5).neg_log2_ber_lower(0.0) is None
        assert Biawgn(1.0).neg_log2_ber_lower(0.0) == 1.0


class TestChernoffQLower:
    def test_constant_at_zero(self):
        val = chernoff_q_lower(0.0)
        assert val == pytest.approx(
            math.exp(1 / (math.pi + 2)) / 4 * math.sqrt((math.pi + 2) / math.pi),
            rel=1e-12)
        assert val == pytest.approx(0.38849, abs=1e-5)
        assert q_function(0.0) == 0.5 >= val

    @pytest.mark.parametrize("x,approx", [(1.0, 0.14292), (3.0, 4.794e-5)])
    def test_spot_values(self, x, approx):
        assert chernoff_q_lower(x) == pytest.approx(approx, rel=1e-3)
        assert q_function(x) >= chernoff_q_lower(x)

    def test_envelope_on_grid(self):
        grid = np.linspace(0.0, 10.0, 10_000)
        q = 0.5 * np.vectorize(math.erfc)(grid / math.sqrt(2))
        env = chernoff_q_lower(0.0) * np.exp(-grid ** 2)
        assert (env <= q + 1e-300).all()

    def test_domain(self):
        with pytest.raises(ValueError):
            chernoff_q_lower(-0.1)


class TestGammaTransform:
    def test_spot_values(self):
        assert gamma_transform(2.0 ** -16) == pytest.approx(4.0, abs=1e-12)
        assert gamma_transform(0.5) == pytest.approx(0.0, abs=1e-12)
        assert gamma_transform(0.1296) == pytest.approx(1.5597, abs=1e-4)

    def test_strictly_decreasing(self):
        grid = np.linspace(1e-9, 1 - 1e-9, 5000)
        vals = [gamma_transform(p) for p in grid]
        assert (np.diff(vals) < 0).all()

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            gamma_transform(p)


class TestClosedFormLower:
    def test_bec_point(self):
        point = closed_form_lower(Bec(0.6), RegularParams(3, 4, 5400, 1))
        assert point.p_lower == pytest.approx(0.1296, abs=1e-12)
        assert point.regime == REGIME_TREE
        assert point.p_lower_relaxed is None

    def test_bsc_point(self):
        point = closed_form_lower(Bsc(0.1), RegularParams(3, 4, 5400, 1))
        assert point.p_lower == pytest.approx(0.1 ** 2.5, rel=1e-12)

    def test_awgn_point_with_relaxation(self):
        sigma2 = 2.143038610475213
        point = closed_form_lower(Biawgn(sigma2), RegularParams(3, 4, 5400, 1))
        assert point.p_lower == pytest.approx(q_function(math.sqrt(4 / sigma2)), rel=1e-12)
        assert point.p_lower == pytest.approx(0.0859, abs=2e-4)
        assert point.p_lower_relaxed == pytest.approx(
            chernoff_q_lower(math.sqrt(4 / sigma2)), rel=1e-12)
        assert point.p_lower_relaxed <= point.p_lower


class TestLentmaier:
    @pytest.mark.parametrize("j,l,a0,expect", [
        (3, 3, 1.0, 2.0 ** -8), (3, 0, 1.0, 0.5), (5, 2, 0.25, 0.0625),
    ])
    def test_values(self, j, l, a0, expect):
        assert lentmaier_upper(j, l, a0) == pytest.approx(expect, rel=1e-12)

    def test_fit_anchors_exactly(self):
        a0 = lentmaier_fit_a0(3, 4, 0.01)
        assert lentmaier_upper(3, 4, a0) == pytest.approx(0.01, rel=1e-12)

    def test_validity_limit(self):
        assert lentmaier_validity_limit(3, 4, 5400) == pytest.approx(
            math.log(5400) / math.log(6), rel=1e-12)


class TestHeadlineSlope:
    """The paper's headline claim: in the tree regime the lower bound has
    the dominant order of Lentmaier's upper bound, so on the double-log
    scale gamma_lower(l+1) - gamma_lower(l) -> log2(j-1), the slope of
    gamma_upper."""

    @pytest.mark.parametrize("j, k", [(3, 4), (3, 6), (4, 8), (5, 10)])
    @pytest.mark.parametrize("channel", [Bec(0.3), Bec(0.6), Bsc(0.01), Bsc(0.1), Biawgn(0.5),
                                         Biawgn(1.5), Biawgn(4.0)], ids=repr)
    def test_slope_approaches_upper_bound_slope(self, j, k, channel):
        # The least power of ten whose tree regime reaches l = 9, so every
        # point is a valid-tree weight, never the neighbourhood ceiling or N.
        n = next(10 ** e for e in range(3, 100) if tree_regime_limit(j, k, 10 ** e, 0.99) >= 9)
        points = [closed_form_lower(channel, RegularParams(j, k, n, l)) for l in range(10)]
        assert [p.regime for p in points] == [REGIME_TREE] * 10
        slope = (gamma_transform(lentmaier_upper(j, 2, 0.1))
                 - gamma_transform(lentmaier_upper(j, 1, 0.1)))
        assert slope == pytest.approx(math.log2(j - 1), rel=1e-12)
        # gaps[l] compares gamma_lower(l+1) - gamma_lower(l) with that slope.
        gaps = [abs(b.gamma_lower - a.gamma_lower - slope) for a, b in zip(points, points[1:])]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(gaps[4:8], gaps[5:]))
        assert gaps[8] < 0.025


class TestValidTreeProbLower:
    def test_value_900(self):
        # (1 - 12/675)^9 (1 - 20/900)^10, evaluated independently.
        expect = (1 - 12 / 675) ** 9 * (1 - 20 / 900) ** 10
        got = valid_tree_prob_lower(3, 4, 900, 1)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.6796, abs=1e-4)

    def test_value_9000(self):
        expect = (1 - 12 / 6750) ** 9 * (1 - 20 / 9000) ** 10
        got = valid_tree_prob_lower(3, 4, 9000, 1)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.9625, abs=1e-4)

    def test_limit_to_one(self):
        assert valid_tree_prob_lower(3, 4, 10 ** 9, 1) > 0.999999

    def test_floor_at_zero(self):
        # N=16, M=12: the check bracket hits 1 - (3+9)/12 = 0 exactly.
        assert valid_tree_prob_lower(3, 4, 16, 1) == 0.0

    def test_regime_violation(self):
        with pytest.raises(RegimeError):
            valid_tree_prob_lower(3, 4, 900, 10)
        with pytest.raises(RegimeError):
            valid_tree_prob_lower(3, 5, 901, 1)


class TestIntegerArguments:
    """Degrees, block lengths, depths and iteration counts are integers: a
    float raises TypeError, as in the harness, the oracle and the BFS."""

    @pytest.mark.parametrize("field", ["j", "k", "n_vars", "iterations"])
    def test_params_reject_floats(self, field):
        # iterations=2.5 used to give a tree point of weight 14.97.
        args = {"j": 3, "k": 4, "n_vars": 5400, "iterations": 2}
        args[field] += 0.5
        with pytest.raises(TypeError):
            RegularParams(**args)

    @pytest.mark.parametrize("count, args", [
        (valid_tree_counts, (3, 4.5)),
        (valid_tree_counts, (3, 4.0)),
        (neighborhood_max_counts, (3, 4, 4.0)),
        (valid_tree_prob_lower, (3, 4, 900, 1.0)),
    ])
    def test_counts_reject_float_depths(self, count, args):
        with pytest.raises(TypeError):
            count(*args)

    def test_numpy_integers_pass(self):
        j, k, n, l = np.int64(3), np.int32(4), np.int64(5400), np.int64(2)
        assert weight_upper_bound(RegularParams(j, k, n, l)) == weight_upper_bound(
            RegularParams(3, 4, 5400, 2))
        assert valid_tree_counts(j, np.int64(4)) == (10, 9)
        assert neighborhood_max_counts(j, k, np.int64(4)) == (64, 21)
        assert valid_tree_prob_lower(j, k, np.int64(900), np.int64(1)) == \
            valid_tree_prob_lower(3, 4, 900, 1)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class TestOneIntegerRule:
    """Counts, depths, iteration counts and seeds of the public entry points
    follow one rule: any integer type works, anything else raises TypeError
    and a value below the minimum raises ValueError."""

    @pytest.mark.parametrize("call, error", [
        (lambda g: sample_graph(SPEC_40, 1.5), TypeError),
        (lambda g: transmit(np.zeros(g.n_vars, np.int8), Bec(0.3), 1.5), TypeError),
        (lambda g: estimate_ber(g, Bec(0.3), 1, 5, 1.5), TypeError),
        (lambda g: expected_min_weight_mc(SPEC_40, 1, 2, 1.5), TypeError),
        (lambda g: empirical_tail(SPEC_40, 4, 1, 2, 1.5), TypeError),
        # Each of these used to return: the root alone, inf for a pair at
        # distance 4, and empty arrays.
        (lambda g: bfs_distances(g, 0, max_depth=-1), ValueError),
        (lambda g: distance(g, 1, 4, max_depth=-2), ValueError),
        (lambda g: empirical_tail(SPEC_40, -1, 1, 2, 7), ValueError),
    ], ids=["sample_graph-seed", "transmit-seed", "estimate_ber-seed",
            "expected_min_weight_mc-seed", "empirical_tail-seed",
            "bfs_distances-max_depth", "distance-max_depth", "empirical_tail-d_max"])
    def test_rejects(self, tree_graph, call, error):
        with pytest.raises(error):
            call(tree_graph)

    @pytest.mark.parametrize("call", [
        lambda n: valid_tree_prob_lower(3, 4, n, 1),
        lambda n: tail_distribution(SPEC_40.var_dist, SPEC_40.check_dist, n, 4).survival.tolist(),
        lambda n: l1_threshold(SPEC_40.var_dist, SPEC_40.check_dist, n, 0.99),
        lambda n: tree_regime_limit(3, 4, n, 0.99),
        lambda n: block_regime_limit(3, 4, n),
        lambda n: lentmaier_validity_limit(3, 4, n),
    ], ids=["valid_tree_prob_lower", "tail_distribution", "l1_threshold",
            "tree_regime_limit", "block_regime_limit", "lentmaier_validity_limit"])
    def test_block_length_is_an_integer(self, call):
        # Each of these used to run on a float N: 900.0 gave N=900's value
        # and 900.5 a value between those of N=900 and N=901.
        for n in (900.0, 900.5):
            with pytest.raises(TypeError, match="n_vars"):
                call(n)
        with pytest.raises(ValueError, match="n_vars"):
            call(1)
        assert call(np.int64(900)) == call(900)

    @pytest.mark.parametrize("threads, error", [(2.5, TypeError), (0, ValueError),
                                                (-3, ValueError)])
    def test_threads_is_a_count(self, tree_graph, threads, error):
        # These all ran serially and returned the threads=1 result.
        with pytest.raises(error, match="threads"):
            estimate_ber_curve(tree_graph, Bec(0.3), [1], 5, 7, threads=threads)

    @pytest.mark.parametrize("cast", [int, np.int64, np.int32, np.uint8],
                             ids=["int", "int64", "int32", "uint8"])
    def test_integer_types_agree(self, cast):
        # The pinned values were computed with plain ints before seeds went
        # through ``np.random.default_rng``.
        seed, n, depth, pairs, l = (cast(x) for x in (3, 2, 4, 5, 1))
        g = sample_graph(SPEC_40, seed)
        assert _digest(*g.edges().T) == "6751784ddb5d4276"
        assert _digest(*bfs_distances(g, 0, max_depth=depth)) == "47211a7c902d7e8e"
        llr = transmit(np.zeros(40, np.int8), Bec(0.3), seed)
        assert _digest(llr) == "d5c648329e278862"
        est = estimate_ber(SPEC_40, Bec(0.4), cast(3), n * cast(5), cast(7),
                           trials_per_block=pairs)
        assert est.half_error_units == 21
        weights = expected_min_weight_mc(SPEC_40, l, n * cast(3), cast(7)).weights
        assert weights.tolist() == [4, 4, 3, 3, 3, 3]
        tail = empirical_tail(SPEC_40, depth, n, pairs, cast(7))
        assert _digest(tail.survival) == "475e42f287519624"
