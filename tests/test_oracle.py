import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldpcbounds
from ldpcbounds import (CapacityError, DegreeDistribution, EnsembleSpec,
                        TannerGraph, distance, expected_min_weight_mc,
                        local_system, min_weight_root_one, sample_graph,
                        valid_tree_counts, valid_tree_prob_lower,
                        valid_tree_search, window, windows)
from ldpcbounds._util import STREAM_ORACLE_GRAPH, STREAM_ORACLE_NODE, derived_rng
from ldpcbounds.oracle import Gf2System, ValidTree, _solve_affine, _verify_solution
from ldpcbounds.tanner import bfs_distances


def brute_force_min_weight(system):
    """Direct enumeration over all assignments, independent of the solver."""
    best = None
    for assignment in range(1 << system.n_variables):
        if not (assignment >> system.root_local) & 1:
            continue
        if all(sum((assignment >> i) & 1 for i in row) % 2 == 0
               for row in system.rows):
            w = bin(assignment).count("1")
            if best is None or w < best:
                best = w
    return best


# -- reference implementations --------------------------------------------
# Plain versions of the oracle's three parts: a dict-indexed window, a
# forward-pass solver with back-substitution, and a tree search over the
# Cartesian product of child choices that finds a shared check one level
# later.  The differential tests require the oracle to return exactly
# what these return.


def reference_local_system(g, v, iterations):
    depth = 2 * iterations
    var_dist, chk_dist = bfs_distances(g, v, max_depth=depth)
    var_ids = np.flatnonzero((var_dist >= 0) & (var_dist <= depth))
    ordered = [int(v)] + [int(u) for u in var_ids if u != v]
    local = {u: i for i, u in enumerate(ordered)}
    rows = []
    checks = []
    chk_ids = np.flatnonzero((chk_dist >= 0) & (chk_dist <= depth - 1))
    for c in chk_ids:
        nbrs = g.check_neighbors(int(c))
        rows.append(tuple(sorted(local[int(u)] for u in nbrs)))
        checks.append(int(c))
    return Gf2System(variables=tuple(ordered), rows=tuple(rows),
                     checks=tuple(checks), root_local=0)


def reference_solve_affine(sys):
    rows = []
    for r in sys.rows:
        mask = 0
        for i in r:
            mask |= 1 << i
        rows.append((mask, 0))
    rows.append((1 << sys.root_local, 1))

    pivots = {}
    for mask, rhs in rows:
        while mask:
            col = (mask & -mask).bit_length() - 1
            if col in pivots:
                pmask, prhs = pivots[col]
                mask ^= pmask
                rhs ^= prhs
            else:
                pivots[col] = (mask, rhs)
                break
        if mask == 0 and rhs == 1:
            return None

    for col in sorted(pivots, reverse=True):
        mask, rhs = pivots[col]
        for col2 in sorted(pivots):
            if col2 != col and (mask >> col2) & 1:
                m2, r2 = pivots[col2]
                mask ^= m2
                rhs ^= r2
        pivots[col] = (mask, rhs)

    particular = 0
    for col, (_, rhs) in pivots.items():
        if rhs:
            particular |= 1 << col
    free_cols = [i for i in range(sys.n_variables) if i not in pivots]
    basis = []
    for f in free_cols:
        vec = 1 << f
        for col, (mask, _) in pivots.items():
            if (mask >> f) & 1:
                vec |= 1 << col
        basis.append(vec)
    return particular, basis


def reference_valid_tree_search(g, v, iterations):
    height = 2 * iterations + 1
    var_dist, chk_dist = bfs_distances(g, v, max_depth=height)

    def down_checks(u, level):
        return [int(c) for c in g.var_neighbors(u) if chk_dist[c] == level + 1]

    def up_checks(u, level):
        return [int(c) for c in g.var_neighbors(u) if chk_dist[c] == level - 1]

    def extend(levels, t):
        vars_here = levels[-1]
        checks = []
        seen = set()
        for u in vars_here:
            for c in down_checks(u, 2 * t):
                if c in seen:
                    return None
                seen.add(c)
                checks.append(c)
        if 2 * t + 1 == height:
            return levels + [tuple(checks)]
        if not checks:
            return None
        candidates = []
        for c in checks:
            options = [
                int(u) for u in g.check_neighbors(c)
                if var_dist[u] == 2 * t + 2 and up_checks(int(u), 2 * t + 2) == [c]
            ]
            if not options:
                return None
            candidates.append(options)

        def assign(idx, chosen):
            if idx == len(checks):
                return extend(levels + [tuple(checks), tuple(chosen)], t + 1)
            for u in candidates[idx]:
                result = assign(idx + 1, chosen + [u])
                if result is not None:
                    return result
            return None

        return assign(0, [])

    result = extend([(int(v),)], 0)
    if result is None:
        return None
    return ValidTree(levels=tuple(result))


@st.composite
def small_graphs(draw):
    """Random sparse graphs, each variable on at most four checks: degree-0
    and degree-1 nodes on both sides, and enough structure for the tree
    search to backtrack past a claim."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 16))
    checks = draw(st.lists(st.sets(st.integers(0, m - 1), max_size=4), min_size=n, max_size=n))
    return TannerGraph(n, m, [(u, c) for u, cs in enumerate(checks) for c in cs])


def assert_matches_reference(g, v, iterations):
    w = window(g, v, iterations)
    system = local_system(w)
    assert system == reference_local_system(g, v, iterations)
    assert _solve_affine(system) == reference_solve_affine(system)
    assert valid_tree_search(w) == reference_valid_tree_search(g, v, iterations)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.data())
    def test_random_small_graphs(self, g, data):
        v = data.draw(st.integers(0, g.n_vars - 1))
        for iterations in range(4):
            assert_matches_reference(g, v, iterations)

    @pytest.mark.parametrize("n_vars", [16, 28, 40, 100])
    def test_sampled_regular_graphs(self, n_vars):
        spec = EnsembleSpec(n_vars, DegreeDistribution.regular(3),
                            DegreeDistribution.regular(4))
        for seed in range(4):
            g = sample_graph(spec, seed)
            for v in range(0, n_vars, max(1, n_vars // 8)):
                for iterations in (1, 2, 3):
                    assert_matches_reference(g, v, iterations)

    def test_sampled_regular_graph_at_900(self, spec34_900):
        g = sample_graph(spec34_900, 53)
        for v in range(0, 900, 75):
            assert_matches_reference(g, v, 2)


class TestLocalSystem:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.data())
    def test_window_is_the_neighborhood(self, g, data):
        v = data.draw(st.integers(0, g.n_vars - 1))
        iterations = data.draw(st.integers(0, 3))
        system = local_system(window(g, v, iterations))
        # Per-pair distances from the bidirectional search: a variable is in
        # the window within 2l, a check within 2l-1, i.e. next to a variable
        # within 2l-2.
        dist = [distance(g, v, u) for u in range(g.n_vars)]
        assert system.variables[0] == v
        assert sorted(system.variables) == [u for u, d in enumerate(dist) if d <= 2 * iterations]
        assert list(system.checks) == [
            c for c in range(g.n_checks)
            if any(dist[u] <= 2 * iterations - 2 for u in g.check_neighbors(c).tolist())]

    def test_depth_zero(self, tree_graph):
        sys0 = local_system(window(tree_graph, 0, 0))
        assert sys0.n_variables == 1
        assert sys0.rows == ()

    def test_tree_fixture(self, tree_graph):
        sys1 = local_system(window(tree_graph, 0, 1))
        assert sys1.n_variables == 10
        assert len(sys1.rows) == 3
        assert sys1.variables[0] == 0

    def test_toy_code_window(self, toy4_graph):
        sys2 = local_system(window(toy4_graph, 0, 2))
        assert sys2.n_variables == 4
        assert len(sys2.rows) == 3  # all checks sit within distance 3

    def test_rows_cover_full_check_neighborhoods(self, spec34_900):
        g = sample_graph(spec34_900, 50)
        system = local_system(window(g, 3, 1))
        for row, c in zip(system.rows, system.checks):
            assert len(row) == g.check_degrees[c]

    @pytest.mark.parametrize("query", [
        lambda spec, l: local_system(window(sample_graph(spec, 0), 0, l)),
        lambda spec, l: valid_tree_search(window(sample_graph(spec, 0), 0, l)),
        lambda spec, l: expected_min_weight_mc(spec, l, 3, 0).weights.tolist(),
        lambda spec, l: [w.var_dist.tolist() for w in windows(spec, l, 3, 0)],
    ], ids=["local_system", "valid_tree_search", "expected_min_weight_mc", "windows"])
    def test_rejects_non_integer_iterations(self, spec34_900, query):
        # A float l must not reach the BFS: l = 1.5 would label the window
        # to depth 4, a variable level, where every window ends on checks.
        for iterations in (1.5, 1.0, np.float64(1.0)):
            with pytest.raises(TypeError):
                query(spec34_900, iterations)
        assert query(spec34_900, np.int64(1)) == query(spec34_900, 1)


class TestMinWeightRootOne:
    def test_isolated_root(self, tree_graph):
        assert min_weight_root_one(local_system(window(tree_graph, 0, 0))) == 1

    def test_forced_pair(self):
        g = TannerGraph(2, 1, [(0, 0), (1, 0)])
        assert min_weight_root_one(local_system(window(g, 0, 1))) == 2

    def test_tree_like_window_weight(self, tree_graph):
        assert min_weight_root_one(local_system(window(tree_graph, 0, 1))) == 4

    def test_matches_brute_force_on_random_small_graphs(self):
        spec = EnsembleSpec(16, DegreeDistribution.regular(3),
                            DegreeDistribution.regular(4))
        for seed in range(6):
            g = sample_graph(spec, seed)
            for v in (0, 5, 11):
                system = local_system(window(g, v, 1))
                assert min_weight_root_one(system) == brute_force_min_weight(system)

    def test_infeasible_root(self):
        # Root's only check has degree 1: parity forces the root to 0.
        g = TannerGraph(1, 1, [(0, 0)])
        assert min_weight_root_one(local_system(window(g, 0, 1))) is None

    def test_capacity_guard(self, spec34_900):
        # An l=3 window of a (3,4) N=900 graph has free dimension 190 or more.
        g = sample_graph(spec34_900, 51)
        with pytest.raises(CapacityError):
            min_weight_root_one(local_system(window(g, 0, 3)))


class TestVerifySolution:
    # One row x0 + x1 = 0 with the root x0: only 0b11 solves it with the root set.
    SYSTEM = Gf2System((0, 1), ((0, 1),), (0,))

    @pytest.mark.parametrize("vec, message", [(0b01, "parity row"), (0b10, "root")])
    def test_rejects_a_non_solution(self, vec, message):
        with pytest.raises(AssertionError, match=message):
            _verify_solution(self.SYSTEM, vec)

    def test_raises_under_optimize(self):
        # ``python -O`` strips assert statements; the check must not be one.
        code = ("from ldpcbounds.oracle import Gf2System, _verify_solution\n"
                "_verify_solution(Gf2System((0, 1), ((0, 1),), (0,)), 0b01)\n")
        path = [str(Path(ldpcbounds.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, path))}
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert "AssertionError: enumerated solution violates a parity row" in result.stderr


class TestValidTreeSearch:
    def test_tree_like_regular_window(self, tree_graph):
        tree = valid_tree_search(window(tree_graph, 0, 1))
        assert tree is not None
        expect, _ = valid_tree_counts(3, 2)
        assert tree.weight == expect == 4

    def test_degree_one_check_blocks_search(self):
        g = TannerGraph(2, 2, [(0, 0), (1, 0), (0, 1)])
        assert valid_tree_search(window(g, 0, 1)) is None

    def test_found_tree_bounds_the_oracle(self):
        spec = EnsembleSpec(28, DegreeDistribution.regular(3),
                            DegreeDistribution.regular(4))
        found = 0
        for seed in range(12):
            g = sample_graph(spec, seed)
            for v in range(0, 28, 3):
                win = window(g, v, 1)
                tree = valid_tree_search(win)
                if tree is None:
                    continue
                found += 1
                w = min_weight_root_one(local_system(win))
                assert w is not None and w <= tree.weight
        assert found >= 20

    def test_regular_tree_weight_formula(self, spec34_900):
        g = sample_graph(spec34_900, 52)
        hits = 0
        for v in range(40):
            tree = valid_tree_search(window(g, v, 2))
            if tree is not None:
                hits += 1
                assert tree.weight == valid_tree_counts(3, 4)[0] == 10
        assert hits > 0


class TestExpectedMinWeightMc:
    def test_depth_zero_mean_is_one(self, spec34_900):
        est = expected_min_weight_mc(spec34_900, 0, 40, seed=1)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_reproducible(self):
        spec = EnsembleSpec(32, DegreeDistribution.regular(3),
                            DegreeDistribution.regular(4))
        a = expected_min_weight_mc(spec, 1, 60, seed=5)
        b = expected_min_weight_mc(spec, 1, 60, seed=5)
        assert np.array_equal(a.weights, b.weights)
        assert a.mean == b.mean

    @pytest.mark.parametrize("var_dist, check_dist, n_vars", [
        ({2: 1.0}, {3: 1.0}, 120),
        ({2: 0.8, 3: 0.2}, {3: 0.7, 4: 0.3}, 120),
    ])
    @pytest.mark.parametrize("iterations", [1, 2])
    def test_sample_i_uses_streams_at_index_i(self, var_dist, check_dist, n_vars, iterations):
        # Sample i is the graph of (seed, STREAM_ORACLE_GRAPH, i) with the
        # root of (seed, STREAM_ORACLE_NODE, i), whatever the sampler does
        # inside, and its window labels that graph from that root to depth
        # 2l+1; infeasible and capacity-skipped samples leave no weight.
        spec = EnsembleSpec(n_vars, DegreeDistribution(var_dist),
                            DegreeDistribution(check_dist))
        seed, n_samples = 8, 40
        stream = list(windows(spec, iterations, n_samples, seed))
        assert len(stream) == n_samples
        weights, infeasible, skipped = [], 0, 0
        for i, win in enumerate(stream):
            g = sample_graph(spec, derived_rng(seed, STREAM_ORACLE_GRAPH, i))
            v = int(derived_rng(seed, STREAM_ORACLE_NODE, i).integers(spec.n_vars))
            assert (win.root, win.iterations) == (v, iterations)
            assert win.graph.edges().tolist() == g.edges().tolist()
            labels = bfs_distances(g, v, max_depth=2 * iterations + 1)
            assert [d.tolist() for d in (win.var_dist, win.chk_dist)] == [d.tolist() for d in labels]
            try:
                w = min_weight_root_one(reference_local_system(g, v, iterations))
            except CapacityError:
                skipped += 1
                continue
            if w is None:
                infeasible += 1
            else:
                weights.append(w)
        est = expected_min_weight_mc(spec, iterations, n_samples, seed)
        assert est.weights.tolist() == weights
        assert (est.infeasible_count, est.capacity_skipped) == (infeasible, skipped)
        assert len(weights) > 0

    def test_lemma_comparison_at_900(self, spec34_900):
        est = expected_min_weight_mc(spec34_900, 1, 120, seed=6)
        assert est.capacity_skipped == 0
        bound = valid_tree_prob_lower(3, 4, 900, 1)
        frac = float((est.weights <= 4).mean())
        se = np.sqrt(max(frac * (1 - frac), 0.25 / est.weights.size) / est.weights.size)
        assert frac >= bound - 3 * se
        assert est.mean <= 4.0 + 3 * est.std_error


class TestTreeLikeNeighborhoodEquivalence:
    def test_minimum_weight_is_four_on_tree_like_views(self):
        spec = EnsembleSpec(300, DegreeDistribution.regular(3),
                            DegreeDistribution.regular(4))
        checked = 0
        for seed in range(8):
            g = sample_graph(spec, seed)
            for v in range(0, 300, 17):
                w = window(g, v, 1)
                if w.tree:
                    assert min_weight_root_one(local_system(w)) == 4
                    checked += 1
        assert checked >= 50
