import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcbounds import (DegreeDistribution, EnsembleSpec, InvalidDistributionError,
                        InvalidSpecError, de_bec, ga_awgn, realize_degree_sequences,
                        tail_distribution, weight_recursion)


class TestDegreeDistribution:
    def test_regular(self):
        d = DegreeDistribution.regular(3)
        assert d.terms == {3: 1.0}
        assert d.max_degree == 3
        assert d.mean_degree() == 3.0

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(InvalidDistributionError):
            DegreeDistribution({2: 0.5, 3: 0.4})

    def test_degree_must_be_positive_integer(self):
        with pytest.raises(InvalidDistributionError):
            DegreeDistribution({0: 1.0})
        with pytest.raises(InvalidDistributionError):
            DegreeDistribution({2.5: 1.0})

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistributionError):
            DegreeDistribution({})

    def test_evaluate_conventions(self):
        node = DegreeDistribution({2: 0.25, 3: 0.75})
        assert node.evaluate(2.0) == pytest.approx(0.25 * 4 + 0.75 * 8)


class TestEdgePerspective:
    def test_single_degree_fixed_by_normalization(self):
        assert DegreeDistribution.regular(3).edge_terms == {3: 1.0}

    def test_two_term_variable_side(self):
        lam = DegreeDistribution({2: 0.4286, 3: 0.5714}).edge_terms
        # d*L_d / sum d'*L_d'
        total = 2 * 0.4286 + 3 * 0.5714
        assert lam[2] == pytest.approx(2 * 0.4286 / total, abs=1e-12)
        assert lam[3] == pytest.approx(3 * 0.5714 / total, abs=1e-12)
        assert lam[2] == pytest.approx(0.33336, abs=5e-5)
        assert lam[3] == pytest.approx(0.66664, abs=5e-5)

    def test_check_side(self):
        rho = DegreeDistribution({8: 0.5, 10: 0.5}).edge_terms
        assert rho[8] == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert rho[10] == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_edge_evaluate(self):
        # lambda(x) = sum e_d x**(d-1) over the edge fractions 2/11, 9/11.
        lam = DegreeDistribution({2: 0.25, 3: 0.75})
        assert lam.edge_evaluate(2.0) == pytest.approx(2 / 11 * 2 + 9 / 11 * 4)

    def test_from_edge_checks_its_input(self):
        for terms in ({2: 0.5, 3: 0.4}, {0: 1.0}, {2.5: 1.0}, {}, {3: 1.5}):
            with pytest.raises(InvalidDistributionError):
                DegreeDistribution.from_edge(terms)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(1, 40), st.integers(1, 1000),
                           min_size=1, max_size=6))
    def test_roundtrip_recovers_input(self, weights):
        total = sum(weights.values())
        original = DegreeDistribution({d: w / total for d, w in weights.items()})
        back = DegreeDistribution.from_edge(original.edge_terms)
        assert back.support == original.support
        for d, f in original.terms.items():
            assert back.terms[d] == pytest.approx(f, abs=1e-10)


class TestEnsembleSpec:
    def test_fields_and_rate(self, spec34_900):
        assert spec34_900.n_checks == 675
        assert spec34_900.design_rate == pytest.approx(0.25)
        # The published two-decimal coefficients round 3/7 and 4/7; the exact
        # fractions balance the sockets exactly.
        spec = EnsembleSpec(3500, DegreeDistribution({2: 3 / 7, 3: 4 / 7}),
                            DegreeDistribution({8: 0.5, 10: 0.5}))
        assert spec.n_checks == 1000
        assert spec.design_rate == pytest.approx(5 / 7)
        with pytest.raises(InvalidSpecError, match="design rate"):
            EnsembleSpec(4, DegreeDistribution.regular(3), DegreeDistribution.regular(3))

    def test_check_degree_two_minimum(self):
        with pytest.raises(InvalidSpecError):
            EnsembleSpec(8, DegreeDistribution.regular(2), DegreeDistribution({1: 1.0}))

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
        lam = DegreeDistribution.from_edge({2: 0.38354, 3: 0.04237, 4: 0.57409})
        rho = DegreeDistribution.from_edge({5: 0.24123, 6: 0.75877})
        spec = EnsembleSpec(20000, lam, rho)
        assert spec.n_checks == 10000
        vd, cd = realize_degree_sequences(spec)
        assert vd.size == 20000 and cd.size == 10000
        assert vd.sum() == cd.sum()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(20, 400))
    def test_counts_sum_and_balance(self, k, n):
        var = DegreeDistribution({2: 0.5, 3: 0.5})
        try:
            spec = EnsembleSpec(n, var, DegreeDistribution({k: 0.5, k + 1: 0.5}))
        except InvalidSpecError:
            return
        vd, cd = realize_degree_sequences(spec)
        assert vd.size == spec.n_vars and cd.size == spec.n_checks
        assert vd.sum() == cd.sum()
        assert set(np.unique(vd)) <= {2, 3}
        assert set(np.unique(cd)) <= {k, k + 1}


class TestEdgeViewConsumers:
    # sha256 of the JSON dump below; any float that moves in density
    # evolution, the Gaussian approximation, the weight recursion or the
    # distance tail changes it.
    DIGEST = "4d7e54904d53caca54b8b933df7a7868952b3a6ea9e76a63855ccc0321104c11"

    def test_outputs_pinned(self):
        ensembles = {
            "(3,4)": (DegreeDistribution.regular(3), DegreeDistribution.regular(4)),
            "figure6": (DegreeDistribution.from_edge({2: 0.38354, 3: 0.04237, 4: 0.57409}),
                        DegreeDistribution.from_edge({5: 0.24123, 6: 0.75877})),
            "three-term": (DegreeDistribution({2: 0.3, 3: 0.2, 7: 0.5}),
                           DegreeDistribution({6: 0.4, 9: 0.6})),
        }
        payload = {}
        for name, (v, c) in ensembles.items():
            de = de_bec(v, c, 0.6, 12)
            payload[name] = {
                "de_bec": [de.ber.tolist(), de.message_error.tolist()],
                "ga_awgn": ga_awgn(v, c, 0.9, 12).ber.tolist(),
                "recursion": [[r.w_ub, r.p_survival.tolist()] for r in
                              (weight_recursion(v, c, 20000, l) for l in range(1, 11))],
                "tail": tail_distribution(v, c, 20000, 14).survival.tolist(),
            }
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
