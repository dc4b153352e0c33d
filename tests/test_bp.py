import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import erasure_bp_reference
from ldpcbounds import (Bec, Biawgn, Bsc, DegreeDistribution, EnsembleSpec,
                        TannerGraph, bec_unresolved, decode, float_bp,
                        sample_graph, transmit)
from ldpcbounds import bp
from ldpcbounds.bp import LLR_CLAMP


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


def boxplus(messages):
    """The check rule on scalars: 2 atanh of the product of tanh(m/2)."""
    return 2 * math.atanh(math.prod(math.tanh(m / 2) for m in messages))


class TestV2cUpdate:
    def test_extrinsic_sum(self):
        # Leaf 1+j sees, through its degree-2 check, what variable 0 sends
        # there at iteration 2: its LLR plus the messages of its other checks.
        llr = np.array([1.0, 0.5, -0.25, 7.0])
        received = decode(star_variable(3), llr, 2).marginals - llr
        for j in range(3):
            assert received[1 + j] == pytest.approx(
                llr[0] + llr[1:].sum() - llr[1 + j], rel=1e-9)

    def test_degree_one_variable_passes_channel(self, tree_graph):
        # The leaves send their LLRs at every iteration, so the root hears
        # the same check messages from iteration 1 on.
        llr = np.arange(10, dtype=float)
        root = llr[0] + sum(boxplus(llr[3 * j + 1:3 * j + 4]) for j in range(3))
        for l in range(1, 5):
            assert decode(tree_graph, llr, l).marginals[0] == pytest.approx(root, rel=1e-12)


class TestC2vUpdate:
    # At iteration 1 a check star's variables send their own LLRs, so the
    # marginal minus the LLR is what the check sends back.

    def test_tanh_product_rule(self):
        llr = np.array([2.0, 2.0, 0.7])
        out = decode(star_check(3), llr, 1).marginals - llr
        expect = 2 * math.atanh(math.tanh(1.0) ** 2)
        assert out[2] == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.325, abs=1e-3)

    def test_zero_annihilates(self):
        llr = np.array([0.0, 5.0, -2.0])
        out = decode(star_check(3), llr, 1).marginals - llr
        assert out[1] == 0.0 and out[2] == 0.0
        assert out[0] != 0.0

    def test_sign_rule(self):
        llr = np.array([-2.0, 2.0, 2.0])
        out = decode(star_check(3), llr, 1).marginals - llr
        assert out[0] > 0 and out[1] < 0 and out[2] < 0

    def test_weak_input_beside_strong_ones(self):
        # The message to variable 2 is the product of two tanh values within
        # 2e-13 of 1; a log-domain sum that adds then subtracts the weak
        # input's log loses them to cancellation (29.68581112, 2.9e-5 off).
        llr = np.array([30.0, 31.0, 0.25])
        out = decode(star_check(3), llr, 1).marginals - llr
        assert out[2] == 2 * np.arctanh(np.tanh(15.0) * np.tanh(15.5))
        assert out[2] == pytest.approx(29.68667805, abs=1e-8)

    @pytest.mark.parametrize("tiny", [5e-324, -5e-324])
    def test_subnormal_input_counts_as_zero(self, tiny):
        # tanh(5e-324 / 2) is 0, so the input must annihilate like an exact zero
        # rather than put log(0) into the check's sum.  The subnormal vanishes
        # from variable 0's marginal, which is then the check message alone.
        g = star_check(2)
        got = decode(g, [tiny, 3.0], 1).marginals
        assert got[1] == 3.0
        assert got[0] == decode(g, [0.0, 3.0], 1).marginals[0]
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("message", [-7.0, 0.0, 3.0, 1e300])
    def test_degree_one_check_sends_clamp(self, message):
        # The extrinsic product is empty, so the check is certain of 0.
        got = decode(star_check(1), [message], 1).marginals
        assert got.tolist() == [message + LLR_CLAMP]


@pytest.mark.parametrize("y", [19.0, 25.0, 1e3, 1e300, np.finfo(float).max, np.inf])
def test_tanh_is_one_from_19(y):
    # The check kernel takes tanh(|m| / 2) with no clamp before it; that is
    # tanh(min(|m|, 50) / 2) only because tanh is exactly 1.0 from 19 on,
    # in numpy's scalar loop and in its array loop alike.
    assert np.tanh(y) == 1.0
    assert (np.tanh(np.full(67, y)) == 1.0).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="np.longdouble is no wider than float64")
def test_check_update_matches_long_double_product(width, seed):
    # Check columns of degree 2..width, padded with +inf as in chk_cols.
    # Each message is compared with 2 atanh of the product of the other
    # float64 tanh values taken in long double, wherever that is below 49.
    rng = np.random.default_rng(seed)
    degrees = rng.integers(2, width + 1, 40)
    v2c = np.where(np.arange(width)[:, None] < degrees, rng.normal(0.0, 30.0, (width, 40)),
                   np.inf)
    t = np.tanh(v2c / 2.0).astype(np.longdouble)
    want = np.empty_like(t)
    with np.errstate(divide="ignore"):  # a product of 1 gives inf, not compared
        for j in range(width):
            want[j] = 2 * np.arctanh(np.prod(np.delete(t, j, axis=0), axis=0))
    got = np.empty_like(v2c)
    bp._check_update(v2c.copy(), got)
    real = np.isfinite(v2c) & (abs(want) < 49)
    assert real.any()
    err = abs(got[real] - want[real].astype(np.float64)) / abs(want[real])
    assert err.max(initial=0.0) <= 1e-9


class TestDecode:
    def test_zero_iterations_is_channel_decision(self, tree_graph):
        llr = np.array([1.0, -1.0, 2.0, -0.5, 1, 1, 1, 1, 1, 1], dtype=float)
        res = decode(tree_graph, llr, 0)
        assert res.hard_bits.tolist() == [0, 1, 0, 1, 0, 0, 0, 0, 0, 0]

    def test_tie_reports_zero_bit(self):
        g = star_check(2)
        res = decode(g, np.zeros(2), 2)
        assert (res.marginals == 0).all()
        assert (res.hard_bits == 0).all()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_llr(self, tree_graph, bad):
        llr = np.ones(10)
        llr[4] = bad
        with pytest.raises(ValueError, match="finite"):
            decode(tree_graph, llr, 1)

    @pytest.mark.parametrize("n", [9, 11, 0])
    def test_float_bp_rejects_llr_of_wrong_length(self, tree_graph, n):
        with pytest.raises(ValueError, match="llr must have length 10"):
            next(float_bp(tree_graph, np.ones(n), 1))

    @pytest.mark.parametrize("first", [
        lambda g, l: next(float_bp(g, np.ones(g.n_vars), l)).tolist(),
        lambda g, l: next(bec_unresolved(g, np.ones((2, g.n_vars), dtype=bool), l)).tolist(),
        lambda g, l: decode(g, np.ones(g.n_vars), l).marginals.tolist(),
    ], ids=["float_bp", "bec_unresolved", "decode"])
    def test_rejects_non_integer_iterations(self, tree_graph, first):
        # The generators check their count before the l = 0 output, so a
        # float fails at the first next() and not one iteration later.
        for iterations in (1.5, 2.5, 1.0, np.float64(1.0)):
            with pytest.raises(TypeError):
                first(tree_graph, iterations)
        assert first(tree_graph, np.int64(1)) == first(tree_graph, 1)


def deep_tree():
    """A cycle-free chain of five checks over ten variables, depth 5 from
    variable 0 to variable 9."""
    checks = [(0, 1, 2), (1, 3, 4), (3, 5, 6), (5, 7, 8), (7, 9)]
    return TannerGraph(10, 5, [(v, c) for c, vs in enumerate(checks) for v in vs])


def posterior_llrs(g, llr):
    """A-posteriori LLR of every bit, by enumerating the codewords."""
    words = (np.arange(2 ** g.n_vars)[:, None] >> np.arange(g.n_vars)) & 1
    edges = g.edges()
    parity = np.zeros((len(words), g.n_checks), dtype=np.int64)
    np.add.at(parity.T, edges[:, 1], words[:, edges[:, 0]].T)
    code = words[(parity % 2 == 0).all(axis=1)]
    log_weight = -(code @ llr)
    return np.array([np.logaddexp.reduce(log_weight[code[:, v] == 0])
                     - np.logaddexp.reduce(log_weight[code[:, v] == 1])
                     for v in range(g.n_vars)])


@pytest.mark.parametrize("graph, depth", [(None, 2), (deep_tree(), 5)], ids=["fixture", "deep"])
def test_tree_marginals_are_exact_posteriors(tree_graph, graph, depth):
    # On a tree, flooding BP gives the exact a-posteriori LLRs once the
    # iterations reach the depth, and keeps them from then on.
    g = tree_graph if graph is None else graph
    rng = np.random.default_rng(depth)
    for _ in range(200):
        llr = rng.normal(1.0, 2.0, g.n_vars)
        want = posterior_llrs(g, llr)
        for marginals in list(float_bp(g, llr, depth + 2))[depth:]:
            assert marginals == pytest.approx(want, rel=1e-9)


class TestProperties:
    def test_extrinsic_consistency(self, spec34_900):
        # Message passing written out per edge: every message leaves out
        # the edge it is sent on.
        g = sample_graph(spec34_900, 31)
        llr = np.random.default_rng(5).normal(0, 2, g.n_vars).tolist()
        c2v = dict.fromkeys(map(tuple, g.edges().tolist()), 0.0)
        for _ in range(3):
            v2c = {(v, c): llr[v] + sum(c2v[v, d] for d in g.var_neighbors(v) if d != c)
                   for v, c in c2v}
            c2v = {(v, c): boxplus(v2c[u, c] for u in g.check_neighbors(c) if u != v)
                   for v, c in c2v}
        want = [llr[v] + sum(c2v[v, c] for c in g.var_neighbors(v)) for v in range(g.n_vars)]
        assert decode(g, llr, 3).marginals == pytest.approx(want, abs=1e-9)

    def test_bec_erased_set_shrinks(self, spec34_900):
        g = sample_graph(spec34_900, 32)
        erased = np.stack([transmit(np.zeros(g.n_vars, dtype=np.int8), Bec(0.55), t) == 0
                           for t in range(4)])
        masks = list(bec_unresolved(g, erased, 6))
        for prev, mask in zip(masks, masks[1:]):
            assert not (mask & ~prev).any()
        assert (masks[-1].sum(axis=1) < erased.sum(axis=1)).all()

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
def small_graphs(draw):
    """Small random graph; degree-0 and degree-1 nodes included."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                         max_size=n * m))
    return TannerGraph(n, m, sorted(edges))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_finite_llrs_keep_messages_finite(data):
    g = data.draw(small_graphs())
    llr = np.array(data.draw(st.lists(
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
        min_size=g.n_vars, max_size=g.n_vars)))
    for l, marginals in enumerate(float_bp(g, llr, 6)):
        assert np.isfinite(marginals).all(), f"l={l}"


@st.composite
def graphs_with_erasures(draw):
    """Small random graph (degree-0 and degree-1 nodes included) and an erasure block."""
    g = draw(small_graphs())
    n = g.n_vars
    trials = draw(st.integers(1, 4))
    erased = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                           min_size=trials, max_size=trials))
    return g, np.array(erased, dtype=bool)


def assert_matches_reference(g, erased, iterations):
    masks = list(bec_unresolved(g, erased, iterations))
    assert len(masks) == iterations + 1
    reference = [erasure_bp_reference(g, row, iterations) for row in erased]
    for l, unresolved in enumerate(masks):
        for t, mask in enumerate(unresolved):
            assert np.array_equal(mask, reference[t][l]), f"l={l}"


class TestBecUnresolved:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_erasures())
    def test_matches_float_decoder(self, case):
        """The erasure counts equal flooding BP's own rules on erased/known messages."""
        g, erased = case
        assert_matches_reference(g, erased, 5)

    def test_tree_fixture(self, tree_graph):
        erased = np.zeros((3, 10), dtype=bool)
        erased[0, 0] = True                 # resolved by any one check
        erased[1, [0, 1, 4, 7]] = True      # root and one leaf per check
        erased[2, :] = True
        assert_matches_reference(tree_graph, erased, 3)

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
        assert_matches_reference(g, erased, 3)

    def test_rejects_bad_input(self, tree_graph):
        with pytest.raises(ValueError):
            next(bec_unresolved(tree_graph, np.zeros((2, 9), dtype=bool), 1))
        with pytest.raises(ValueError):
            next(bec_unresolved(tree_graph, np.zeros((2, 10), dtype=bool), -1))


# -- the edge-ordered reference --------------------------------------------
# The float kernel written per canonical edge: one message per edge, the
# check rule as a product in edge order, and per-node sums as bincount
# scatters over the edge list.  The check-column layout must give its
# marginals bit for bit.


def _reference_scatter(values, index, size):
    return np.bincount(index, weights=values, minlength=size).astype(np.float64, copy=False)


def reference_marginals(g, llr, c2v):
    return _reference_scatter(c2v, g.edges()[:, 0], g.n_vars) + llr


def reference_c2v(g, v2c):
    """The product rule per canonical edge: edge j of a check of degree d
    gets 2 atanh of t_0...t_{j-1} (from 1.0) times t_{d-1}...t_{j+1} (from
    1.0), t being tanh(m/2), clipped to +/-25 before the doubling."""
    t = np.tanh(v2c / 2.0).tolist()
    product = np.empty(g.n_edges)
    start = 0
    for d in g.check_degrees.tolist():
        for j in range(d):
            left = right = 1.0
            for x in t[start:start + j]:
                left *= x
            for x in reversed(t[start + j + 1:start + d]):
                right *= x
            product[start + j] = left * right
        start += d
    with np.errstate(divide="ignore"):
        return 2.0 * np.clip(np.arctanh(product), -LLR_CLAMP / 2, LLR_CLAMP / 2)


def reference_float_bp(g, llr, iterations):
    c2v = np.zeros(g.n_edges)
    yield reference_marginals(g, llr, c2v)
    for _ in range(iterations):
        c2v = reference_c2v(g, reference_marginals(g, llr, c2v)[g.edges()[:, 0]] - c2v)
        yield reference_marginals(g, llr, c2v)


def assert_same_bits(got, want, label):
    assert got.shape == want.shape, label
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), label


def assert_matches_edge_reference(g, llr, iterations=6):
    pairs = zip(float_bp(g, llr, iterations), reference_float_bp(g, llr, iterations),
                strict=True)
    for l, (got, want) in enumerate(pairs):
        assert_same_bits(got, want, f"marginals, l={l}")


# Subnormals, huge and clamp-crossing values, signed zeros, and ordinary LLRs.
special_floats = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
                     60.0, -60.0, 50.0, 0.0, -0.0]),
)


@st.composite
def check_stars(draw):
    """Up to six checks over variables of degree 0 or 1."""
    n_checks = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(-1, n_checks - 1), min_size=1, max_size=24))
    return TannerGraph(len(owner), n_checks, [(v, c) for v, c in enumerate(owner) if c >= 0])


class TestMatchesEdgeReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_small_graphs(self, data):
        g = data.draw(small_graphs())
        llr = np.array(data.draw(st.lists(special_floats, min_size=g.n_vars,
                                          max_size=g.n_vars)))
        assert_matches_edge_reference(g, llr)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_check_stars(self, data):
        # Every variable has degree <= 1, so at iteration 1 each check reads
        # its edges' own LLRs: arbitrary check inputs, in the float kernel
        # and in reference_c2v alike.
        g = data.draw(check_stars())
        llr = np.array(data.draw(st.lists(special_floats, min_size=g.n_vars,
                                          max_size=g.n_vars)))
        assert_matches_edge_reference(g, llr)

    @pytest.mark.parametrize("degree, n_zero", [(256, 256), (300, 257)])
    def test_high_degree_zero_counts_do_not_wrap(self, degree, n_zero):
        # One check over every variable plus a degree-1 check on variable 0.
        # Zero LLRs give the big check n_zero zero inputs at iteration 1,
        # which a byte count would wrap to 0 or 1.
        g = TannerGraph(degree, 2, [(v, 0) for v in range(degree)] + [(0, 1)])
        llr = np.where(np.arange(degree) % 3 == 0, -0.7, 1.3)
        llr[:n_zero] = 0.0
        assert_matches_edge_reference(g, llr, 3)

    @pytest.mark.parametrize("degree", [16, 40, 300])
    def test_one_check_sums_rows_in_order(self, degree):
        # chk_cols is (degree, 2): the check's column and the sentinel's.
        # Each message multiplies the rows above its own top-down and those
        # below it bottom-up; this pins that multiplication order, which a
        # different order would change in the last bits.  LLRs near
        # log(2 * degree) keep each extrinsic product near 1/e, so an ulp of
        # a check's product is not lost in the marginals.
        g = star_check(degree)
        assert g.chk_cols.shape == (degree, 2)
        llr = math.log(2 * degree) + np.random.default_rng(1).normal(0.0, 1.0, degree)
        assert_matches_edge_reference(g, llr, 2)

    @pytest.mark.parametrize("channel", [Bsc(0.06), Biawgn(0.8)], ids=["bsc", "awgn"])
    def test_irregular_figure6_degrees(self, channel):
        # Variable degrees 2-4 and check degrees 5-6, so both slot tables pad.
        spec = EnsembleSpec(
            600, DegreeDistribution.from_edge({2: 0.38354, 3: 0.04237, 4: 0.57409}),
            DegreeDistribution.from_edge({5: 0.24123, 6: 0.75877}))
        g = sample_graph(spec, 3)
        assert len(set(g.check_degrees.tolist())) == 2
        for trial in range(3):
            llr = transmit(np.zeros(g.n_vars, dtype=np.int8), channel, trial)
            assert_matches_edge_reference(g, llr, 8)
