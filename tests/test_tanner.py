import copy
import hashlib
import math
import pickle
import sys
import tracemalloc
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldpcbounds import (ConstructionError, DegreeDistribution, EnsembleSpec,
                        InvalidSpecError, SamplingFailureError, TannerGraph,
                        distance, girth, load_alist, peg_construct, save_alist,
                        sample_graph, sample_graph_with_attempts, window)
from ldpcbounds.tanner import _bfs_levels, bfs_distances


def reference_distance(g, vi, vj):
    """Plain deque BFS, independent of the vectorized implementation."""
    if vi == vj:
        return 0
    seen_v = {vi}
    seen_c = set()
    queue = deque([("v", vi, 0)])
    while queue:
        side, u, d = queue.popleft()
        if side == "v":
            for c in g.var_neighbors(u):
                if int(c) not in seen_c:
                    seen_c.add(int(c))
                    queue.append(("c", int(c), d + 1))
        else:
            for w in g.check_neighbors(u):
                if int(w) == vj:
                    return d + 1
                if int(w) not in seen_v:
                    seen_v.add(int(w))
                    queue.append(("v", int(w), d + 1))
    return math.inf


def reference_bfs(g, root, max_depth=None):
    """Level-by-level list BFS over the neighbor accessors, stopping at ``max_depth``."""
    var_dist = [-1] * g.n_vars
    chk_dist = [-1] * g.n_checks
    var_dist[root] = 0
    frontier = [root]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        if depth % 2:
            dist, nbrs = chk_dist, g.var_neighbors
        else:
            dist, nbrs = var_dist, g.check_neighbors
        nxt = []
        for u in frontier:
            for w in nbrs(u):
                if dist[w] < 0:
                    dist[w] = depth
                    nxt.append(int(w))
        frontier = nxt
    return var_dist, chk_dist


def reference_sample(var_degrees, check_degrees, seed, max_attempts):
    """Rejection sampler that finds parallel edges by sorting the (var, check) keys."""
    n, m = len(var_degrees), len(check_degrees)
    var_sockets = np.repeat(np.arange(n, dtype=np.int64), var_degrees)
    chk_sockets = np.repeat(np.arange(m, dtype=np.int64), check_degrees)
    n_edges = var_sockets.size
    rng = np.random.default_rng(seed)
    for attempt in range(1, max_attempts + 1):
        matched = chk_sockets[rng.permutation(n_edges)]
        key = var_sockets * m + matched
        key.sort()
        if n_edges == 0 or not np.any(np.diff(key) == 0):
            return TannerGraph(n, m, np.column_stack([key // m, key % m])), attempt
    raise SamplingFailureError("no simple configuration", attempts=max_attempts)


class DegreeSpec:
    """Stand-in ensemble for `sample_from_degrees`: the fields of an
    `EnsembleSpec` that the sampler reads, on given degree sequences."""

    def __init__(self, var_degrees, check_degrees):
        self.var_degrees = np.array(var_degrees, dtype=np.int64)
        self.check_degrees = np.array(check_degrees, dtype=np.int64)
        self.n_vars, self.n_checks = self.var_degrees.size, self.check_degrees.size


def sample_from_degrees(var_degrees, check_degrees, seed, max_attempts):
    """`sample_graph_with_attempts` on given degree sequences."""
    return sample_graph_with_attempts(DegreeSpec(var_degrees, check_degrees), seed,
                                      max_attempts)


def reference_peg(n_vars, var_degrees, n_checks):
    """Edge list of the PEG rule in `peg_construct`'s docstring, by plain BFS."""
    if any(d < 0 or d > n_checks for d in var_degrees):
        raise ConstructionError("degree out of range")
    total = sum(var_degrees)
    cap = -(-total // n_checks) if total else 1
    var_nbrs = [[] for _ in range(n_vars)]
    chk_nbrs = [[] for _ in range(n_checks)]

    def check_dist(v):
        dist = {}
        seen = {v}
        queue = deque([(v, 0)])
        while queue:
            u, d = queue.popleft()
            for c in var_nbrs[u]:
                if c not in dist:
                    dist[c] = d + 1
                    for w in chk_nbrs[c]:
                        if w not in seen:
                            seen.add(w)
                            queue.append((w, d + 2))
        return dist

    for v in sorted(range(n_vars), key=lambda u: (var_degrees[u], u)):
        for _ in range(var_degrees[v]):
            if not var_nbrs[v]:
                c = min(range(n_checks), key=lambda c: (len(chk_nbrs[c]), c))
            else:
                dist = check_dist(v)
                candidates = [c for c in range(n_checks) if dist.get(c) != 1]
                open_ = [c for c in candidates if len(chk_nbrs[c]) < cap]
                c = min(open_ or candidates,
                        key=lambda c: (-dist.get(c, math.inf), len(chk_nbrs[c]), c))
            var_nbrs[v].append(c)
            chk_nbrs[c].append(v)
    return sorted((c, v) for v in range(n_vars) for c in var_nbrs[v])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                         max_size=n * m))
    return TannerGraph(n, m, sorted(edges))


@st.composite
def degree_sequences(draw):
    """(var_degrees, check_degrees) with equal sums; degree 0 and 1 included."""
    pool = draw(st.sampled_from([[0, 1, 2, 3], [1, 2], [2, 3, 12], [0, 3, 4, 5]]))
    var = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    total = sum(var)
    m = draw(st.integers(1, 16))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=m - 1, max_size=m - 1)))
    return var, np.diff([0, *cuts, total]).tolist()


@st.composite
def peg_inputs(draw):
    """(n_checks, var_degrees); degrees above n_checks exercise the error path."""
    m = draw(st.integers(1, 25))
    top = draw(st.integers(0, 6))
    return m, draw(st.lists(st.integers(0, top), min_size=1, max_size=40))


@st.composite
def large_peg_inputs(draw):
    """(n_checks, var_degrees) at a scale where most searches stop early and
    the component shortcut fires many times; irregular pools, degree 0 too."""
    m = draw(st.integers(20, 80))
    pool = draw(st.sampled_from([[0, 2, 3, 5], [2, 3, 5], [0, 1, 2, 3, 4], [2, 3]]))
    return m, draw(st.lists(st.sampled_from(pool), min_size=50, max_size=200))


def assert_matches_reference_peg(m, degrees):
    n = len(degrees)
    try:
        want = reference_peg(n, degrees, m)
    except ConstructionError:
        with pytest.raises(ConstructionError):
            peg_construct(n, degrees, m)
        return
    got = peg_construct(n, degrees, m)
    assert [(int(v), int(c)) for v, c in got.edges()] == [(v, c) for c, v in want]


def hand_built_graphs():
    return [
        TannerGraph(2, 1, [(0, 0), (1, 0)]),
        TannerGraph(4, 2, [(0, 0), (1, 0), (2, 1), (3, 1)]),
        TannerGraph(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)]),
        TannerGraph(3, 2, [(0, 0), (1, 1)]),
        TannerGraph(10, 3, [(0, j) for j in range(3)]
                    + [(3 * j + i, j) for j in range(3) for i in (1, 2, 3)]),
        TannerGraph(4, 3, [(0, 0), (1, 0), (3, 0), (1, 1), (2, 1), (0, 2), (2, 2), (3, 2)]),
        sample_graph(EnsembleSpec(24, DegreeDistribution.regular(3),
                                  DegreeDistribution.regular(4)), 0),
        sample_graph(EnsembleSpec(40, DegreeDistribution({2: 0.5, 3: 0.5}),
                                  DegreeDistribution({4: 0.6, 5: 0.4})), 1),
    ]


class TestTannerGraph:
    def test_parallel_edges_rejected(self):
        with pytest.raises(InvalidSpecError):
            TannerGraph(2, 1, [(0, 0), (0, 0)])

    def test_edges_argument_unchanged(self):
        """The sort keys are built in place, but never in the caller's array."""
        edges = np.array([[0, 1], [2, 0], [1, 1], [0, 0], [2, 1]], dtype=np.int64)
        before = edges.copy()
        g = TannerGraph(3, 2, edges)
        assert edges.flags.writeable and np.array_equal(edges, before)
        assert g.edges().tolist() == [[0, 0], [2, 0], [0, 1], [1, 1], [2, 1]]

    def test_table_build_keeps_one_key_array(self, figure6_spec):
        """Building a figure6-size graph holds the finished arrays, one int64
        sort key per edge, and temporaries smaller than a second key array
        (the bool masks of the parallel-edge check and the padding)."""
        edges = sample_graph(figure6_spec, 1).edges()
        tracemalloc.start()
        try:
            g = TannerGraph(figure6_spec.n_vars, figure6_spec.n_checks, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        finished = sum(a.nbytes for a in (g.var_degrees, g.check_degrees, g.var_adj, g.chk_adj))
        key_bytes = 8 * g.n_edges
        assert peak < finished + 2 * key_bytes

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidSpecError):
            TannerGraph(2, 1, [(2, 0)])

    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(InvalidSpecError, match="integers"):
            TannerGraph(3, 2, [(0.5, 1)])
        narrow = TannerGraph(3, 2, np.array([[0, 1], [2, 0]], dtype=np.int32))
        assert narrow == TannerGraph(3, 2, [(0, 1), (2, 0)])

    @pytest.mark.parametrize("n_vars, n_checks", [(3.0, 2), (3, 2.0), ("3", 2)])
    def test_non_integer_node_count_rejected(self, n_vars, n_checks):
        with pytest.raises(InvalidSpecError, match="integers"):
            TannerGraph(n_vars, n_checks, [(0, 0), (2, 1)])

    def test_numpy_integer_node_counts(self):
        g = TannerGraph(np.int32(3), np.uint8(2), [(0, 0), (2, 1)])
        assert g == TannerGraph(3, 2, [(0, 0), (2, 1)])
        assert type(g.n_vars) is int and type(g.n_checks) is int

    def test_degrees_and_neighbors(self, tree_graph):
        assert tree_graph.n_edges == 12
        assert tree_graph.var_degrees[0] == 3
        assert (tree_graph.check_degrees == 4).all()
        assert sorted(tree_graph.check_neighbors(1)) == [0, 4, 5, 6]
        assert sorted(tree_graph.var_neighbors(0)) == [0, 1, 2]

    @pytest.mark.parametrize("accessor, index", [("var_neighbors", -1), ("var_neighbors", 10),
                                                 ("check_neighbors", -1), ("check_neighbors", 3)])
    def test_neighbors_reject_index_out_of_range(self, tree_graph, accessor, index):
        with pytest.raises(IndexError):
            getattr(tree_graph, accessor)(index)

    def test_edge_count_matches_degree_sums(self, tree_graph):
        assert tree_graph.var_degrees.sum() == tree_graph.n_edges
        assert tree_graph.check_degrees.sum() == tree_graph.n_edges

    def test_equality_is_edge_set_equality(self):
        a = TannerGraph(3, 2, [(0, 0), (1, 1), (2, 0)])
        b = TannerGraph(3, 2, [(2, 0), (0, 0), (1, 1)])
        assert a == b

    def test_other_types_hash_and_repr(self):
        g = TannerGraph(3, 2, [(0, 0), (1, 1), (2, 0)])
        assert g.__eq__((0, 0)) is NotImplemented and g != "graph"
        assert hash(g) == hash(TannerGraph(3, 2, [(2, 0), (1, 1), (0, 0)]))
        assert repr(g) == "TannerGraph(n_vars=3, n_checks=2, n_edges=3)"

    @pytest.mark.parametrize("call, error, message", [
        (lambda: TannerGraph(0, 1, []), InvalidSpecError,
         "graph needs at least one node per side"),
        (lambda: TannerGraph(2, 1, [0, 1]), InvalidSpecError,
         "edges must be (var, check) pairs"),
        (lambda: peg_construct(3, [2, 2], 2), ConstructionError,
         "var_degrees must list one degree per variable"),
        (lambda: peg_construct(3, [1, 1, 1], 0), ConstructionError,
         "need at least one check node"),
    ], ids=["no-variables", "one-dimensional-edges", "peg-degree-count", "peg-no-checks"])
    def test_rejects_malformed_input(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("name", ["var_adj", "chk_adj", "var_degrees",
                                      "check_degrees"])
    @pytest.mark.parametrize("built", ["constructed", "peg", "alist", "sampled"])
    def test_tables_are_read_only(self, built, name, tmp_path):
        # A sampled graph shares its degree arrays with its spec and the
        # other samples of its ensemble; every graph must behave the same.
        spec = EnsembleSpec(60, DegreeDistribution.regular(3), DegreeDistribution.regular(4))
        g = sample_graph(spec, 1)
        if built == "constructed":
            g = TannerGraph(g.n_vars, g.n_checks, g.edges())
        elif built == "peg":
            g = peg_construct(spec.n_vars, spec.var_degrees, spec.n_checks)
        elif built == "alist":
            save_alist(g, tmp_path / "g.alist")
            g = load_alist(tmp_path / "g.alist")
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 1

    @pytest.mark.parametrize("copy_graph", [
        copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g)),
    ], ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("built", ["constructed", "sampled"])
    def test_copies_stay_read_only(self, built, copy_graph):
        # A copy of the tables would be writable, and a write through it
        # would change what check_neighbors reads.
        spec = EnsembleSpec(60, DegreeDistribution.regular(3), DegreeDistribution.regular(4))
        g = sample_graph(spec, 1)
        if built == "constructed":
            g = TannerGraph(g.n_vars, g.n_checks, g.edges())
        h = copy_graph(g)
        assert h == g
        assert np.array_equal(h.var_adj, g.var_adj)
        for name in ["var_adj", "chk_adj", "var_degrees", "check_degrees"]:
            with pytest.raises(ValueError, match="read-only"):
                getattr(h, name)[0] = 2
        assert h.check_neighbors(0).tolist() == g.check_neighbors(0).tolist()

    @pytest.mark.parametrize("name", ["n_vars", "n_checks", "n_edges", "var_adj", "chk_adj",
                                      "var_degrees", "check_degrees"])
    def test_fields_cannot_be_rebound(self, tree_graph, name):
        # A rebound n_vars would no longer match the sentinel of chk_adj.
        with pytest.raises(AttributeError, match="read-only"):
            setattr(tree_graph, name, 2)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_array_input_matches_pair_list(self, g, rnd):
        pairs = [tuple(map(int, e)) for e in g.edges()]
        rnd.shuffle(pairs)
        h = TannerGraph(g.n_vars, g.n_checks, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        assert h == TannerGraph(g.n_vars, g.n_checks, pairs) == g
        for v in range(g.n_vars):
            assert h.var_neighbors(v).tolist() == sorted(c for u, c in pairs if u == v)
        for c in range(g.n_checks):
            assert h.check_neighbors(c).tolist() == sorted(u for u, d in pairs if d == c)

    @pytest.mark.parametrize("index", range(len(hand_built_graphs()) + 2))
    def test_var_slots_locate_each_edge(self, index):
        # Slot i of variable u holds u in chk_cols, in the column of u's
        # i-th check; each padding slot is n_checks, in the sentinel column.
        figure6 = EnsembleSpec(2000, DegreeDistribution.from_edge({2: 0.38354, 3: 0.04237,
                                                                   4: 0.57409}),
                               DegreeDistribution.from_edge({5: 0.24123, 6: 0.75877}))
        g = (hand_built_graphs() + [peg_construct(120, [3] * 120, 90),
                                    sample_graph(figure6, 2)])[index]
        slots, flat = g.var_slots, g.chk_cols.reshape(-1)
        assert slots.shape == (g.var_adj.shape[1], g.n_vars)
        for u in range(g.n_vars):
            deg = g.var_degrees[u]
            assert (flat[slots[:deg, u]] == u).all()
            assert (slots[:deg, u] % (g.n_checks + 1) == g.var_adj[u, :deg]).all()
            assert (slots[deg:, u] == g.n_checks).all()


class TestSampling:
    def test_degree_bookkeeping(self):
        spec = EnsembleSpec(8, DegreeDistribution.regular(3), DegreeDistribution.regular(4))
        g = sample_graph(spec, 5)
        assert g.n_vars == 8 and g.n_checks == 6 and g.n_edges == 24
        assert (g.var_degrees == 3).all()
        assert (g.check_degrees == 4).all()

    def test_samples_share_the_spec_degrees(self):
        spec = EnsembleSpec(8, DegreeDistribution.regular(3), DegreeDistribution.regular(4))
        for seed in (5, 6):
            g = sample_graph(spec, seed)
            assert g.var_degrees is spec.var_degrees
            assert g.check_degrees is spec.check_degrees

    def test_deterministic_per_seed(self, spec34_900):
        assert sample_graph(spec34_900, 123) == sample_graph(spec34_900, 123)
        assert sample_graph(spec34_900, 123) != sample_graph(spec34_900, 124)

    def test_rejection_statistics(self, spec34_900):
        attempts = [sample_graph_with_attempts(spec34_900, s)[1] for s in range(200)]
        first_try = sum(1 for a in attempts if a == 1)
        # Simple-on-first-matching happens with probability around
        # exp(-(j-1)(k-1)/2) ~ 5%, so some successes must show up.
        assert first_try > 0
        assert np.mean(attempts) < 200

    def test_sampled_degrees_stay_in_support(self):
        var = DegreeDistribution({2: 0.5, 3: 0.5})
        chk = DegreeDistribution({4: 0.6, 5: 0.4})
        spec = EnsembleSpec(120, var, chk)
        g = sample_graph(spec, 9)
        assert set(np.unique(g.var_degrees)) <= {2, 3}
        assert set(np.unique(g.check_degrees)) <= {4, 5}
        assert g.var_degrees.sum() == g.check_degrees.sum() == g.n_edges

    @settings(max_examples=200, deadline=None)
    @given(degree_sequences(), st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_matches_sort_based_sampler(self, degrees, seed, max_attempts):
        var, chk = degrees
        try:
            want = reference_sample(var, chk, seed, max_attempts)
        except SamplingFailureError as exc:
            want = exc.attempts
        try:
            got = sample_from_degrees(var, chk, seed, max_attempts)
        except SamplingFailureError as exc:
            got = exc.attempts
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(degree_sequences(), st.integers(0, 2**32 - 1))
    @example(([1, 1, 1], [2, 1]), 0)
    @example(([0, 0], [0]), 0)
    def test_sampled_tables_match_constructor(self, degrees, seed):
        # The sampler builds its graphs without TannerGraph's checks; every
        # table must still be the constructor's, dtype included.
        var, chk = degrees
        try:
            g, _ = sample_from_degrees(var, chk, seed, 40)
        except SamplingFailureError:
            return
        want = TannerGraph(g.n_vars, g.n_checks, g.edges())
        assert (g.n_vars, g.n_checks, g.n_edges) == (want.n_vars, want.n_checks, want.n_edges)
        for name in ("var_adj", "chk_adj", "var_degrees", "check_degrees"):
            got, expected = getattr(g, name), getattr(want, name)
            assert got.dtype == expected.dtype, name
            assert got.shape == expected.shape, name
            assert np.array_equal(got, expected), name

    def test_threads_share_one_spec(self):
        # The threads share the spec's read-only degree arrays; every graph
        # must still be the reference sampler's.
        spec = EnsembleSpec(301, DegreeDistribution({2: 0.5, 3: 0.3, 5: 0.2}),
                            DegreeDistribution({4: 0.5, 6: 0.5}))
        var, chk = spec.var_degrees, spec.check_degrees
        want = [reference_sample(var, chk, seed, 10_000)[0] for seed in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                got = list(pool.map(lambda seed: sample_graph(spec, seed), range(24),
                                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert all(np.array_equal(g.var_adj, w.var_adj) for g, w in zip(got, want))

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_attempt_budget_below_one_rejected(self, spec34_900, max_attempts):
        with pytest.raises(ValueError, match="max_attempts"):
            sample_graph_with_attempts(spec34_900, 1, max_attempts)

    @pytest.mark.parametrize("max_attempts", [40.0, 2.5, "40"])
    def test_non_integer_attempt_budget_rejected(self, spec34_900, max_attempts):
        with pytest.raises(TypeError):
            sample_graph(spec34_900, 1, max_attempts)

    def test_numpy_integer_attempt_budget(self, spec34_900):
        assert (sample_graph_with_attempts(spec34_900, 3, np.int32(10_000))
                == sample_graph_with_attempts(spec34_900, 3))

    @pytest.mark.parametrize("var_dist, check_dist, n_vars", [
        ({3: 1.0}, {4: 1.0}, 900),
        ({2: 0.7, 3: 0.25, 12: 0.05}, {3: 0.5, 4: 0.5}, 280),
        ({2: 0.6, 3: 0.1, 4: 0.3}, {5: 0.4, 6: 0.6}, 2000),
    ])
    def test_ensembles_match_sort_based_sampler(self, var_dist, check_dist, n_vars):
        spec = EnsembleSpec(n_vars, DegreeDistribution(var_dist),
                            DegreeDistribution(check_dist))
        var, chk = spec.var_degrees, spec.check_degrees
        for seed in range(3):
            got_graph, got_attempts = sample_graph_with_attempts(spec, seed)
            want_graph, want_attempts = reference_sample(var, chk, seed, 10_000)
            assert got_attempts == want_attempts
            assert got_graph == want_graph


class TestDistances:
    def test_same_node(self, tree_graph):
        assert distance(tree_graph, 0, 0) == 0

    def test_path_graph(self):
        g = TannerGraph(2, 1, [(0, 0), (1, 0)])
        assert distance(g, 0, 1) == 2

    def test_disconnected_pair(self):
        g = TannerGraph(4, 2, [(0, 0), (1, 0), (2, 1), (3, 1)])
        assert distance(g, 0, 2) == math.inf

    def test_variable_distances_even_or_unreached(self, spec34_900):
        g = sample_graph(spec34_900, 3)
        d, _ = bfs_distances(g, 17)
        reached = d[d >= 0]
        assert (reached % 2 == 0).all()

    def test_matches_reference_bfs(self):
        spec = EnsembleSpec(24, DegreeDistribution.regular(3), DegreeDistribution.regular(4))
        for seed in range(3):
            g = sample_graph(spec, seed)
            for vi in range(0, 24, 5):
                for vj in range(24):
                    assert distance(g, vi, vj) == reference_distance(g, vi, vj)

    @pytest.mark.parametrize("index", range(len(hand_built_graphs())))
    def test_bfs_matches_reference_on_hand_built_graphs(self, index):
        g = hand_built_graphs()[index]
        for root in range(g.n_vars):
            for max_depth in (None, 0, 1, 2, 3, 5):
                got = bfs_distances(g, root, max_depth=max_depth)
                want = reference_bfs(g, root, max_depth=max_depth)
                assert [d.tolist() for d in got] == list(want)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.data())
    def test_bfs_matches_reference_on_random_graphs(self, g, data):
        root = data.draw(st.integers(0, g.n_vars - 1))
        max_depth = data.draw(st.one_of(st.none(), st.integers(0, 8)))
        got = bfs_distances(g, root, max_depth=max_depth)
        want = reference_bfs(g, root, max_depth=max_depth)
        assert [d.tolist() for d in got] == list(want)

    def test_kernel_makes_its_own_reset_labels(self, tree_graph):
        # Before any level runs: -1 everywhere but the root and the
        # sentinel slots, which read 0.  A second call shares no array.
        n, m = tree_graph.n_vars, tree_graph.n_checks
        var_dist, chk_dist, levels = _bfs_levels(tree_graph, 1)
        assert var_dist.tolist() == [-1, 0] + [-1] * (n - 2) + [0]
        assert chk_dist.tolist() == [-1] * m + [0]
        for _ in levels:
            pass
        other = _bfs_levels(tree_graph, 1)
        assert not np.shares_memory(other[0], var_dist)
        assert not np.shares_memory(other[1], chk_dist)
        assert [var_dist[:-1].tolist(), chk_dist[:-1].tolist()] == \
            list(reference_bfs(tree_graph, 1))

    def test_bfs_rejects_root_out_of_range(self, tree_graph):
        for root in (-1, tree_graph.n_vars):
            with pytest.raises(IndexError):
                bfs_distances(tree_graph, root)

    @pytest.mark.parametrize("query", [
        lambda g, u: [d.tolist() for d in bfs_distances(g, u, 2)],
        lambda g, u: distance(g, u, 3),
        lambda g, u: distance(g, 3, u),
        lambda g, u: window(g, u, 1).var_dist.tolist(),
        lambda g, u: g.var_neighbors(u).tolist(),
        lambda g, u: g.check_neighbors(u).tolist(),
    ], ids=["bfs_distances", "distance-first", "distance-second", "window", "var_neighbors",
            "check_neighbors"])
    def test_rejects_non_integer_variable(self, tree_graph, query):
        for u in (2.5, 0.5, np.float64(2.0)):
            with pytest.raises(TypeError):
                query(tree_graph, u)
        assert query(tree_graph, np.int32(2)) == query(tree_graph, 2)

    @pytest.mark.parametrize("query", [
        lambda g, d: [dist.tolist() for dist in bfs_distances(g, 0, d)],
        lambda g, d: distance(g, 0, 3, d),
        lambda g, d: window(g, 0, d).var_dist.tolist(),
    ], ids=["bfs_distances", "distance", "window"])
    def test_rejects_non_integer_depth(self, spec34_900, query):
        # Depths count whole levels: a depth of 1.5 would search to depth 2.
        g = sample_graph(spec34_900, 0)
        for depth in (1.5, 2.0, np.float64(2.0)):
            with pytest.raises(TypeError):
                query(g, depth)
        assert query(g, np.int64(2)) == query(g, 2)

    def test_rejects_other_variables_out_of_range(self, tree_graph):
        for u in (-1, tree_graph.n_vars):
            with pytest.raises(IndexError, match=f"variable index {u} out of range"):
                distance(tree_graph, 0, u)
            with pytest.raises(IndexError, match=f"variable index {u} out of range"):
                distance(tree_graph, u, 0)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.data())
    def test_distance_matches_reference(self, g, data):
        vi = data.draw(st.integers(-1, g.n_vars))
        vj = data.draw(st.one_of(st.just(vi), st.integers(-1, g.n_vars)))
        max_depth = data.draw(st.one_of(st.none(), st.integers(0, 8)))
        if not (0 <= vi < g.n_vars and 0 <= vj < g.n_vars):
            with pytest.raises(IndexError, match="out of range"):
                distance(g, vi, vj, max_depth)
            return
        want = reference_distance(g, vi, vj)
        if max_depth is not None and want > max_depth:
            want = math.inf
        assert distance(g, vi, vj, max_depth) == want

    @pytest.mark.parametrize("index", range(len(hand_built_graphs())))
    def test_distance_matches_reference_on_hand_built_graphs(self, index):
        g = hand_built_graphs()[index]
        for vi in range(g.n_vars):
            for vj in range(g.n_vars):
                want = reference_distance(g, vi, vj)
                for max_depth in (None, *range(9)):
                    cut = want if max_depth is None or want <= max_depth else math.inf
                    assert distance(g, vi, vj, max_depth) == cut


class TestNeighborhood:
    """The depth-2l neighbourhood of a root, as ``oracle.window`` labels it."""

    def test_depth_zero(self, tree_graph):
        w = window(tree_graph, 0, 0)
        assert np.count_nonzero(w.var_dist >= 0) == 1 and w.checks.size == 0
        assert w.tree

    def test_tree_like_two_levels(self, tree_graph):
        w = window(tree_graph, 0, 1)
        assert [np.count_nonzero(w.var_dist == 0), w.checks.size,
                np.count_nonzero(w.var_dist == 2)] == [1, 3, 9]
        assert w.tree

    def test_toy_code_depth_four_covers_every_variable(self, toy4_graph):
        assert sorted(toy4_graph.var_neighbors(0)) == [0, 2]
        w = window(toy4_graph, 0, 2)
        assert np.flatnonzero(w.var_dist >= 0).tolist() == [0, 1, 2, 3]

    def test_levels_partition_by_distance(self, spec34_900):
        g = sample_graph(spec34_900, 21)
        w = window(g, 5, 2)
        for u in np.flatnonzero(w.var_dist >= 0).tolist():
            assert distance(g, 5, u) == w.var_dist[u]

    def test_node_set_matches_per_pair_distances(self):
        spec = EnsembleSpec(48, DegreeDistribution.regular(3), DegreeDistribution.regular(4))
        for seed in range(3):
            g = sample_graph(spec, seed)
            for v in range(0, 48, 7):
                for l in (0, 1, 2):
                    got = set(np.flatnonzero(window(g, v, l).var_dist >= 0).tolist())
                    want = {u for u in range(48)
                            if reference_distance(g, v, u) <= 2 * l}
                    assert got == want

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.data())
    def test_induced_edges_match_per_check_scan(self, g, data):
        # The tree test counts no edges; here they are counted one by one:
        # the edges with both ends within distance 2l, per check.
        v = data.draw(st.integers(0, g.n_vars - 1))
        for l in range(4):
            var_dist, chk_dist = reference_bfs(g, v, max_depth=2 * l)
            checks = [c for c in range(g.n_checks) if chk_dist[c] >= 0]
            edges = [(int(u), c) for c in checks
                     for u in g.check_neighbors(c) if var_dist[u] >= 0]
            nodes = sum(d >= 0 for d in var_dist) + len(checks)
            w = window(g, v, l)
            assert w.checks.tolist() == checks
            assert w.tree == (len(edges) == nodes - 1)

    def test_cycle_detection(self):
        # 4-cycle: two checks sharing two variables.
        g = TannerGraph(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert not window(g, 0, 1).tree
        assert window(g, 0, 0).tree

    def test_rejects_root_out_of_range(self, tree_graph):
        for root in (-1, tree_graph.n_vars):
            with pytest.raises(IndexError, match="out of range"):
                window(tree_graph, root, 1)


class TestGirth:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_matches_networkx(self, g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        h.add_nodes_from(range(g.n_vars + g.n_checks))
        h.add_edges_from((int(v), g.n_vars + int(c)) for v, c in g.edges())
        want = nx.girth(h)
        assert girth(g) == want


class TestPeg:
    def test_degree_one_gives_perfect_matching(self):
        g = peg_construct(4, [1, 1, 1, 1], 4)
        assert g.edges().tolist() == [[0, 0], [1, 1], [2, 2], [3, 3]]
        assert girth(g) == math.inf

    def test_biregular_output(self):
        g = peg_construct(504, [3] * 504, 378)
        assert (g.var_degrees == 3).all()
        assert (g.check_degrees == 4).all()

    def test_deterministic(self):
        assert peg_construct(60, [3] * 60, 45) == peg_construct(60, [3] * 60, 45)

    @settings(max_examples=200, deadline=None)
    @given(peg_inputs())
    @example((4, [2, 1, 1, 2, 2, 4]))  # the last variable meets the waived ceiling
    # Some search has full checks beyond the last open one, so it must stop
    # at the ring that reaches the last open check, counting the
    # variable's own open checks among those reached.
    @example((10, [2] * 8 + [3] * 6))
    # A push step finds no new check: the search ends in a component
    # before any ring is as large as the checks not reached yet.
    @example((9, [4, 1, 1, 2, 2, 2, 2, 1, 3]))
    def test_matches_reference_peg(self, inputs):
        assert_matches_reference_peg(*inputs)

    @settings(max_examples=25, deadline=None)
    @given(large_peg_inputs())
    # The shortcut picks outside the variable's component 11 times, the last
    # after 10 merges.
    @example((12, [0] * 3 + [2] * 8 + [3] * 8 + [5] * 4))
    # The degree-12 variables meet every check, so the ceiling is waived.
    @example((12, [2] * 21 + [3] * 14 + [12] * 24))
    # A variable adjacent to every check, and one degree too many for that.
    @example((5, [2] * 6 + [5]))
    @example((5, [2] * 6 + [6]))
    def test_matches_reference_peg_at_scale(self, inputs):
        assert_matches_reference_peg(*inputs)

    def test_infeasible_degree_rejected(self):
        with pytest.raises(ConstructionError):
            peg_construct(2, [3, 3], 2)

    def test_non_integer_degree_rejected(self):
        with pytest.raises(ConstructionError, match="integers"):
            peg_construct(3, [1.5, 1, 1], 2)
        narrow = peg_construct(3, np.array([2, 1, 1], dtype=np.int32), 2)
        assert narrow == peg_construct(3, [2, 1, 1], 2)

    @pytest.mark.parametrize("n_vars, n_checks", [(3, 2.5), (3.0, 2), (3, None)])
    def test_non_integer_node_count_rejected(self, n_vars, n_checks):
        with pytest.raises(ConstructionError, match="integers"):
            peg_construct(n_vars, [1, 1, 1], n_checks)

    def test_numpy_integer_node_counts(self):
        assert peg_construct(np.int64(3), [1, 1, 1], np.int16(2)) == peg_construct(3, [1, 1, 1], 2)

    def test_girth_beats_configuration_model(self):
        g_peg = peg_construct(504, [3] * 504, 378)
        peg_girth = girth(g_peg)
        spec = EnsembleSpec(504, DegreeDistribution.regular(3), DegreeDistribution.regular(4))
        wins = sum(peg_girth >= girth(sample_graph(spec, s)) for s in range(10))
        assert wins >= 9

    @pytest.mark.parametrize("n_vars, var_degrees, n_checks, digest", [
        (5400, [3] * 5400, 4050,
         "5e31832bec4d7a06feeeaed99a0191ff7f77626cb160dd5a9d53fc18d348688e"),
        (504, [3] * 504, 378,
         "3eaf654b21dfbdc4c8aeb0f24ad1bf9071dcd98b6a904458f0b51bb46603f076"),
        (300, [2] * 100 + [3] * 100 + [5] * 100, 200,
         "e12287d6bd5bb8ea19fe3aaf7ade07ec76064a4db7067bffd2202df065580778"),
        # The figure6 variable degrees realized at N=500 (250 checks).
        (500, [2] * 275 + [3] * 20 + [4] * 205, 250,
         "1c9b8abf90fcf228c56387c95130fea3d0a1be8efc060c86b8fcc4a1e9db14da"),
        # The degree-12 variables meet every check, so one check ends at 32,
        # above the ceiling of 31.
        (59, [2] * 21 + [3] * 14 + [12] * 24, 12,
         "c92ef5d86c5e808ff37f364b436e243707446cc0c4e351ac21e0a7fcc6267f0b"),
    ])
    def test_golden_edges(self, n_vars, var_degrees, n_checks, digest):
        g = peg_construct(n_vars, var_degrees, n_checks)
        assert hashlib.sha256(g.edges().tobytes()).hexdigest() == digest
