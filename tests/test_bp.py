import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcbounds import (Bec, Biawgn, Bsc, TannerGraph, bec_unresolved,
                        bp_marginals, bp_step, c2v_update, decode, initial_state,
                        transmit, v2c_update)


def star_check(n_inputs):
    """Single check of degree n_inputs over variables 0..n-1."""
    return TannerGraph(n_inputs, 1, [(i, 0) for i in range(n_inputs)])


def star_variable(n_checks):
    """Single variable 0 on n_checks degree-2 checks, one leaf each."""
    edges = []
    for j in range(n_checks):
        edges.append((0, j))
        edges.append((1 + j, j))
    return TannerGraph(1 + n_checks, n_checks, edges)


class TestV2cUpdate:
    def test_extrinsic_sum(self):
        g = star_variable(3)
        llr = np.zeros(4)
        llr[0] = 1.0
        c2v = np.zeros(g.n_edges)
        # Edges are in (check, var) order: [ (0,c0), (1,c0), (0,c1), ... ]
        for e in range(g.n_edges):
            if g.edge_var[e] == 0:
                c2v[e] = {0: 0.5, 1: -0.25, 2: 7.0}[int(g.edge_chk[e])]
        v2c = v2c_update(g, llr, c2v)
        e_to_c2 = next(e for e in range(g.n_edges)
                       if g.edge_var[e] == 0 and g.edge_chk[e] == 2)
        assert v2c[e_to_c2] == pytest.approx(1.0 + 0.5 - 0.25)

    def test_degree_one_variable_passes_channel(self, tree_graph):
        llr = np.arange(10, dtype=float)
        v2c = v2c_update(tree_graph, llr, np.zeros(tree_graph.n_edges))
        for e in range(tree_graph.n_edges):
            v = int(tree_graph.edge_var[e])
            if v != 0:
                assert v2c[e] == llr[v]

    def test_infinite_channel_saturates(self):
        g = star_variable(2)
        llr = np.array([np.inf, 0.0, 0.0])
        c2v = np.full(g.n_edges, -3.0)
        v2c = v2c_update(g, llr, c2v)
        for e in range(g.n_edges):
            if g.edge_var[e] == 0:
                assert v2c[e] == np.inf

    def test_conflicting_certainties_cancel(self):
        g = star_variable(2)
        llr = np.array([0.25, 0.0, 0.0])
        c2v = np.zeros(g.n_edges)
        for e in range(g.n_edges):
            if g.edge_var[e] == 0:
                c2v[e] = np.inf if g.edge_chk[e] == 0 else -np.inf
        marg = bp_marginals(g, llr, c2v)
        assert marg[0] == pytest.approx(0.25)


class TestC2vUpdate:
    def test_tanh_product_rule(self):
        g = star_check(3)
        v2c = np.array([2.0, 2.0, 0.7])
        out = c2v_update(g, v2c)
        expect = 2 * math.atanh(math.tanh(1.0) ** 2)
        assert out[2] == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.325, abs=1e-3)

    def test_zero_annihilates(self):
        g = star_check(3)
        out = c2v_update(g, np.array([0.0, 5.0, -2.0]))
        assert out[1] == 0.0 and out[2] == 0.0
        assert out[0] != 0.0

    def test_all_infinite_saturates(self):
        g = star_check(3)
        out = c2v_update(g, np.array([np.inf, np.inf, np.inf]))
        assert (out == np.inf).all()

    def test_sign_rule(self):
        g = star_check(3)
        out = c2v_update(g, np.array([-2.0, 2.0, 2.0]))
        assert out[0] > 0 and out[1] < 0 and out[2] < 0

    def test_mixed_infinite_and_finite(self):
        g = star_check(3)
        out = c2v_update(g, np.array([np.inf, -3.0, np.inf]))
        # Toward edge 1 both others are certain: output infinite.
        assert out[1] == np.inf
        # Toward the certain edges the finite -3 caps the magnitude.
        assert out[0] == pytest.approx(-3.0, abs=1e-9)
        assert np.isfinite(out[0])


class TestDecode:
    def test_zero_iterations_is_channel_decision(self, tree_graph):
        llr = np.array([1.0, -1.0, 2.0, -0.5, 1, 1, 1, 1, 1, 1], dtype=float)
        res = decode(tree_graph, llr, 0)
        assert res.hard_bits.tolist() == [0, 1, 0, 1, 0, 0, 0, 0, 0, 0]

    def test_noiseless_bec_reproduces_codeword(self, tree_graph, tree_codeword):
        for iterations in (0, 1, 3):
            llr = transmit(tree_codeword, Bec(0.0), 1)
            res = decode(tree_graph, llr, iterations)
            assert np.array_equal(res.hard_bits, tree_codeword)

    def test_single_erasure_resolved_in_one_iteration(self, tree_graph):
        llr = np.full(10, np.inf)
        llr[0] = 0.0
        assert decode(tree_graph, llr, 0).marginals[0] == 0.0
        res = decode(tree_graph, llr, 1)
        assert res.marginals[0] == np.inf
        assert res.hard_bits[0] == 0

    def test_tie_reports_zero_bit(self):
        g = star_check(2)
        res = decode(g, np.zeros(2), 2)
        assert (res.marginals == 0).all()
        assert (res.hard_bits == 0).all()


class TestProperties:
    def test_extrinsic_consistency(self, spec34_900):
        from ldpcbounds import sample_graph
        g = sample_graph(spec34_900, 31)
        rng = np.random.default_rng(5)
        llr = rng.normal(0, 2, g.n_vars)
        state = initial_state(g)
        for _ in range(3):
            state = bp_step(g, llr, state)
        marg = bp_marginals(g, llr, state.c2v)
        fresh_v2c = v2c_update(g, llr, state.c2v)
        for e in range(0, g.n_edges, 97):
            v = int(g.edge_var[e])
            assert marg[v] - state.c2v[e] == pytest.approx(fresh_v2c[e], abs=1e-9)

    def test_bec_erased_set_shrinks(self, spec34_900):
        from ldpcbounds import sample_graph
        g = sample_graph(spec34_900, 32)
        llr = transmit(np.zeros(g.n_vars, dtype=np.int8), Bec(0.55), 11)
        state = initial_state(g)
        prev = None
        for _ in range(6):
            state = bp_step(g, llr, state)
            erased = frozenset(np.flatnonzero(state.v2c == 0).tolist())
            if prev is not None:
                assert erased <= prev
            prev = erased

    @pytest.mark.parametrize("channel", [Bsc(0.08), Biawgn(0.8)])
    def test_channel_symmetry(self, tree_graph, tree_codeword, channel):
        s = tree_codeword
        for seed in range(6):
            llr_s = transmit(s, channel, seed)
            llr_0 = (1.0 - 2.0 * s) * llr_s  # sign-adjusted realization
            res_s = decode(tree_graph, llr_s, 2)
            res_0 = decode(tree_graph, llr_0, 2)
            errors_s = res_s.hard_bits != s
            errors_0 = res_0.hard_bits != 0
            assert np.array_equal(errors_s, errors_0)


@st.composite
def graphs_with_erasures(draw):
    """Small random graph (degree-0 and degree-1 nodes included) and an erasure block."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                         max_size=n * m))
    trials = draw(st.integers(1, 4))
    erased = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                           min_size=trials, max_size=trials))
    return TannerGraph(n, m, sorted(edges)), np.array(erased, dtype=bool)


def assert_matches_decode(g, erased, iterations):
    masks = list(bec_unresolved(g, erased, iterations))
    assert len(masks) == iterations + 1
    for l, unresolved in enumerate(masks):
        for row, mask in zip(erased, unresolved):
            marginals = decode(g, np.where(row, 0.0, np.inf), l).marginals
            assert not (marginals < 0).any()  # BP on the BEC never decides wrong
            assert np.array_equal(mask, marginals == 0), f"l={l}"


class TestBecUnresolved:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_erasures())
    def test_matches_float_decoder(self, case):
        g, erased = case
        assert_matches_decode(g, erased, 5)

    def test_tree_fixture(self, tree_graph):
        erased = np.zeros((3, 10), dtype=bool)
        erased[0, 0] = True                 # resolved by any one check
        erased[1, [0, 1, 4, 7]] = True      # root and one leaf per check
        erased[2, :] = True
        assert_matches_decode(tree_graph, erased, 3)

    @pytest.mark.parametrize("degree", [130, 300])
    def test_high_degree_counts_do_not_wrap(self, degree):
        # One check over every variable plus a degree-1 check on variable 0,
        # so erasure counts reach the degree; 257 erasures wrap a byte to 1.
        g = TannerGraph(degree, 2, [(v, 0) for v in range(degree)] + [(0, 1)])
        erased = np.zeros((4, degree), dtype=bool)
        erased[0, :128] = True
        erased[1, :129] = True
        erased[2, 1:min(degree, 258)] = True
        erased[3, :] = True
        assert_matches_decode(g, erased, 3)

    def test_rejects_bad_input(self, tree_graph):
        with pytest.raises(ValueError):
            next(bec_unresolved(tree_graph, np.zeros((2, 9), dtype=bool), 1))
        with pytest.raises(ValueError):
            next(bec_unresolved(tree_graph, np.zeros((2, 10), dtype=bool), -1))
