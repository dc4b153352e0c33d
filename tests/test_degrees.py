import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcbounds import (DegreeDistribution, EnsembleSpec, InvalidDistributionError,
                        InvalidSpecError, edge_perspective, node_perspective,
                        realize_degree_sequences)


def dist(perspective, terms):
    return DegreeDistribution(perspective, terms)


class TestDegreeDistribution:
    def test_regular(self):
        d = DegreeDistribution.regular(3)
        assert d.terms == {3: 1.0}
        assert d.max_degree == 3
        assert d.mean_degree() == 3.0

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(InvalidDistributionError):
            dist("node", {2: 0.5, 3: 0.4})

    def test_degree_must_be_positive_integer(self):
        with pytest.raises(InvalidDistributionError):
            dist("node", {0: 1.0})
        with pytest.raises(InvalidDistributionError):
            dist("node", {2.5: 1.0})

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistributionError):
            dist("node", {})

    def test_evaluate_conventions(self):
        node = dist("node", {2: 0.25, 3: 0.75})
        assert node.evaluate(2.0) == pytest.approx(0.25 * 4 + 0.75 * 8)
        edge = dist("edge", {2: 0.25, 3: 0.75})
        assert edge.evaluate(2.0) == pytest.approx(0.25 * 2 + 0.75 * 4)


class TestEdgePerspective:
    def test_single_degree_fixed_by_normalization(self):
        lam = edge_perspective(DegreeDistribution.regular(3))
        assert lam.perspective == "edge"
        assert lam.terms == {3: 1.0}

    def test_two_term_variable_side(self):
        lam = edge_perspective(dist("node", {2: 0.4286, 3: 0.5714}))
        # d*L_d / sum d'*L_d'
        total = 2 * 0.4286 + 3 * 0.5714
        assert lam.fraction(2) == pytest.approx(2 * 0.4286 / total, abs=1e-12)
        assert lam.fraction(3) == pytest.approx(3 * 0.5714 / total, abs=1e-12)
        assert lam.fraction(2) == pytest.approx(0.33336, abs=5e-5)
        assert lam.fraction(3) == pytest.approx(0.66664, abs=5e-5)

    def test_check_side(self):
        rho = edge_perspective(dist("node", {8: 0.5, 10: 0.5}))
        assert rho.fraction(8) == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert rho.fraction(10) == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_wrong_perspective_rejected(self):
        with pytest.raises(InvalidDistributionError):
            edge_perspective(dist("edge", {3: 1.0}))
        with pytest.raises(InvalidDistributionError):
            node_perspective(dist("node", {3: 1.0}))

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(1, 40), st.integers(1, 1000),
                           min_size=1, max_size=6))
    def test_roundtrip_recovers_input(self, weights):
        total = sum(weights.values())
        terms = {d: w / total for d, w in weights.items()}
        original = dist("node", terms)
        back = node_perspective(edge_perspective(original))
        for d, f in original.terms.items():
            assert back.fraction(d) == pytest.approx(f, abs=1e-10)


class TestEnsembleSpec:
    def test_fields_and_rate(self, spec34_900):
        assert spec34_900.n_checks == 675
        assert spec34_900.design_rate == pytest.approx(0.25)
        # The published two-decimal coefficients round 3/7 and 4/7; the exact
        # fractions balance the sockets exactly.
        spec = EnsembleSpec(3500, dist("node", {2: 3 / 7, 3: 4 / 7}),
                            dist("node", {8: 0.5, 10: 0.5}))
        assert spec.n_checks == 1000
        assert spec.design_rate == pytest.approx(5 / 7)
        with pytest.raises(InvalidSpecError, match="design rate"):
            EnsembleSpec(4, DegreeDistribution.regular(3), DegreeDistribution.regular(3))

    def test_check_degree_two_minimum(self):
        with pytest.raises(InvalidSpecError):
            EnsembleSpec(8, DegreeDistribution.regular(2), dist("node", {1: 1.0}))

    def test_unbalanceable_sockets_rejected(self):
        with pytest.raises(InvalidSpecError):
            EnsembleSpec(5, DegreeDistribution.regular(3), DegreeDistribution.regular(4))

    @pytest.mark.parametrize("n_vars", [900.0, 900.5, "900"])
    def test_non_integer_n_vars_rejected(self, n_vars):
        with pytest.raises(InvalidSpecError, match="integer"):
            EnsembleSpec(n_vars, DegreeDistribution.regular(3), DegreeDistribution.regular(4))

    def test_numpy_integer_n_vars(self, spec34_900):
        spec = EnsembleSpec(np.int64(900), DegreeDistribution.regular(3),
                            DegreeDistribution.regular(4))
        assert spec.n_checks == spec34_900.n_checks


class TestRealizeDegreeSequences:
    def test_regular(self, spec34_900):
        vd, cd = realize_degree_sequences(spec34_900)
        assert (vd == 3).all() and vd.size == 900
        assert (cd == 4).all() and cd.size == 675

    def test_sockets_balance_for_published_rounded_ensemble(self):
        # Edge-perspective laws with five-decimal published coefficients;
        # realization rounds counts and repairs the socket imbalance.
        lam = dist("edge", {2: 0.38354, 3: 0.04237, 4: 0.57409})
        rho = dist("edge", {5: 0.24123, 6: 0.75877})
        spec = EnsembleSpec(20000, node_perspective(lam), node_perspective(rho))
        assert spec.n_checks == 10000
        vd, cd = realize_degree_sequences(spec)
        assert vd.size == 20000 and cd.size == 10000
        assert vd.sum() == cd.sum()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(20, 400))
    def test_counts_sum_and_balance(self, k, n):
        var = dist("node", {2: 0.5, 3: 0.5})
        try:
            spec = EnsembleSpec(n, var, dist("node", {k: 0.5, k + 1: 0.5}))
        except InvalidSpecError:
            return
        vd, cd = realize_degree_sequences(spec)
        assert vd.size == spec.n_vars and cd.size == spec.n_checks
        assert vd.sum() == cd.sum()
        assert set(np.unique(vd)) <= {2, 3}
        assert set(np.unique(cd)) <= {k, k + 1}
