"""Tanner graphs: construction, sampling, and distance queries.

Graphs are immutable after construction.  They keep the canonical edge
list (``edge_var``, ``edge_chk``), which numbers the edges, and one
adjacency layout, two sentinel-padded tables: row u of ``var_adj`` lists
the checks of variable u in ascending order padded with the id
``n_checks``, and row c of ``chk_adj`` lists the variables of check c
padded with ``n_vars``.  Each table has one more all-sentinel row.
Neighbor lists are the first degree-many entries of a row.  Breadth-first
search runs in two level-synchronous loops over these tables, and each
label array or mask keeps one extra slot for the sentinel, which is
always marked as seen.

The decoders in `bp` run on the same tables transposed, the check-column
layout: ``chk_cols`` row j holds the j-th variable of every check, so a
per-check reduction is a loop over a few contiguous rows.  ``var_slots``
locates each variable's edges in a ``chk_cols``-shaped array.  These
tables are built on first use and cached, since most graphs, such as the
oracle's thousands of small samples, never reach a decoder.

`_bfs_levels` serves the queries on a finished graph (`bfs_distances`,
`distance`, `neighborhood` and `girth`).  Its levels alternate between the
two tables, and one level is a gather, a seen-filter and a sort-free
scatter-and-mark dedupe, all sized by the level, not by the graph.  These
queries label few nodes of a large graph; a pair distance stops where its
two searches meet.

The ring search of `peg_construct` has its own loop, over two bool masks
of one slot per check, stepping through a check-to-check table.  A PEG
search labels nearly every check: at N=5400 the (3,4) code takes 6,751
searches of 9.6 levels on average, and each labels about 4,048 of the
4,050 checks.  There, clearing a dense mask and reading the next ring
back with ``nonzero``, already in ascending order, takes fewer numpy calls
per level than the dedupe: on a 2-core host the construction ran 1.58x
faster for that code and 1.37x for the `figure6` degrees at N=3000
(medians of 10 alternating runs).  One dense loop for every search was
tried and rejected: it slowed the `figure6-tail` benchmark (median 1.39
to 1.56 s, 5 pairs), whose distance queries label few nodes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import inf

import numpy as np

from ._util import as_generator, node_count
from .degrees import EnsembleSpec, realize_degree_sequences
from .errors import ConstructionError, InvalidSpecError, SamplingFailureError

DEFAULT_MAX_ATTEMPTS = 10_000


class TannerGraph:
    """Simple bipartite graph between variable and check nodes.

    Parameters
    ----------
    n_vars, n_checks : int
        Node counts on each side.
    edges : (E, 2) int array or iterable of (var, check) pairs
        Edge set; parallel edges are rejected.

    Notes
    -----
    Edges get canonical ids by sorting on (check, variable), so two graphs
    with the same edge set are identical objects for all purposes here.
    """

    def __init__(self, n_vars: int, n_checks: int, edges):
        n_vars = node_count(n_vars, InvalidSpecError)
        n_checks = node_count(n_checks, InvalidSpecError)
        if n_vars < 1 or n_checks < 1:
            raise InvalidSpecError("graph needs at least one node per side")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges)
        if pairs.size and not np.issubdtype(pairs.dtype, np.integer):
            raise InvalidSpecError("edge endpoints must be integers")
        pairs = pairs.astype(np.int64, copy=False)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidSpecError("edges must be (var, check) pairs")
        if pairs.size and (
            pairs.min() < 0 or pairs[:, 0].max() >= n_vars or pairs[:, 1].max() >= n_checks
        ):
            raise InvalidSpecError("edge endpoint out of range")
        key = np.sort(pairs[:, 1] * n_vars + pairs[:, 0])
        if key.size and np.any(np.diff(key) == 0):
            raise InvalidSpecError("parallel edges are not allowed")

        self.n_vars = n_vars
        self.n_checks = n_checks
        self.edge_chk, self.edge_var = np.divmod(key, n_vars)
        self.n_edges = int(key.size)

        # Canonical order lists each check's variables in ascending order;
        # sorting the unique (var, check) keys lists each variable's checks.
        self._var_deg = np.bincount(self.edge_var, minlength=n_vars)
        self._chk_deg = np.bincount(self.edge_chk, minlength=n_checks)
        by_var = np.sort(self.edge_var * n_checks + self.edge_chk) % n_checks
        self.var_adj = _pad_rows(self._var_deg, by_var, n_checks)
        self.chk_adj = _pad_rows(self._chk_deg, self.edge_var, n_vars)

    # -- basic accessors -------------------------------------------------

    @property
    def var_degrees(self) -> np.ndarray:
        return self._var_deg.copy()

    @property
    def check_degrees(self) -> np.ndarray:
        return self._chk_deg.copy()

    def var_neighbors(self, v: int) -> np.ndarray:
        """Check nodes adjacent to variable v, in ascending order."""
        if not 0 <= v < self.n_vars:  # row n_vars and row -1 are the sentinel row
            raise IndexError(f"variable index {v} out of range")
        return self.var_adj[v, :self._var_deg[v]]

    def check_neighbors(self, c: int) -> np.ndarray:
        """Variable nodes adjacent to check c, in ascending order."""
        if not 0 <= c < self.n_checks:
            raise IndexError(f"check index {c} out of range")
        return self.chk_adj[c, :self._chk_deg[c]]

    def edges(self) -> np.ndarray:
        """Canonical (var, check) edge array, shape (E, 2)."""
        return np.column_stack([self.edge_var, self.edge_chk])

    # -- the check-column layout (built on first use) ---------------------

    @cached_property
    def chk_cols(self) -> np.ndarray:
        """``chk_adj`` transposed: row j holds the j-th variable of every
        check, padded with ``n_vars``; the last column is the sentinel check."""
        return _read_only(self.chk_adj.T)

    @cached_property
    def var_cols(self) -> np.ndarray:
        """``var_adj`` transposed: row i holds the i-th check of every
        variable, padded with ``n_checks``; the last column is the sentinel."""
        return _read_only(self.var_adj.T)

    @cached_property
    def var_slots(self) -> np.ndarray:
        """Row i, column u: the flat slot of the edge from variable u to its
        i-th check in ascending order, in a ``chk_cols``-shaped array.
        Padding points at slot ``n_checks``, row 0 of the sentinel column."""
        # Canonical edge e sits in column edge_chk[e], at its position
        # within that check's edges.
        starts = np.cumsum(self._chk_deg) - self._chk_deg
        position = np.arange(self.n_edges) - starts[self.edge_chk]
        flat = position * (self.n_checks + 1) + self.edge_chk
        by_var = np.argsort(self.edge_var * self.n_checks + self.edge_chk)
        slots = _pad_rows(self._var_deg, flat[by_var], self.n_checks)
        return _read_only(slots[:-1].T)

    def __eq__(self, other):
        if not isinstance(other, TannerGraph):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.n_checks == other.n_checks
            and np.array_equal(self.edge_var, other.edge_var)
            and np.array_equal(self.edge_chk, other.edge_chk)
        )

    def __hash__(self):
        return hash((self.n_vars, self.n_checks, self.n_edges))

    def __repr__(self):
        return (
            f"TannerGraph(n_vars={self.n_vars}, n_checks={self.n_checks}, "
            f"n_edges={self.n_edges})"
        )


def _read_only(table: np.ndarray) -> np.ndarray:
    """A C-contiguous, read-only copy of ``table``, for the cached tables."""
    table = np.array(table, order="C")
    table.flags.writeable = False
    return table


def _pad_rows(deg: np.ndarray, data: np.ndarray, sentinel: int) -> np.ndarray:
    """Rows of ``deg`` entries each, taken in turn from ``data``, as a table
    padded with ``sentinel``, plus one all-sentinel row."""
    width = max(int(deg.max(initial=0)), 1)
    table = np.full((deg.size + 1, width), sentinel, dtype=np.int64)
    table[:-1][np.arange(width) < deg[:, None]] = data
    return table


# -- the BFS kernel --------------------------------------------------------


def _bfs_levels(g: TannerGraph, root: int, var_dist: np.ndarray, chk_dist: np.ndarray,
                max_depth: int | None = None):
    """Level-synchronous BFS over the bipartite graph from variable ``root``.

    Level d holds checks for odd d and variables for even d: it is
    gathered from level d-1 through ``g.var_adj`` or ``g.chk_adj`` and its
    depths go into ``chk_dist`` or ``var_dist``.  Each label array holds
    one slot per node plus a last slot for the sentinel (see the module
    docstring).  The call itself resets both: -1 for every node, the
    sentinel marked as seen and the root at 0; each node reached later
    gets its depth written in place.

    Returns a generator of ``(depth, nodes, merged)`` for depths
    1..max_depth: the nodes first reached at that depth in no particular
    order, and whether some node among them has two or more neighbors on
    the previous level.  It stops early at an empty level; the caller may
    stop sooner by leaving its loop.
    """
    for dist in (var_dist, chk_dist):
        dist.fill(-1)
        dist[-1] = 0
    var_dist[root] = 0
    return _bfs_steps(((g.var_adj, chk_dist), (g.chk_adj, var_dist)),
                      np.array([root], dtype=np.int64), max_depth)


def _bfs_steps(steps, frontier, max_depth):
    depth = 0
    while max_depth is None or depth < max_depth:
        adj, dist = steps[depth % 2]
        depth += 1
        # take/compress: the same gathers as fancy and boolean indexing,
        # with less per-call overhead on the many small levels.
        reached = adj.take(frontier, axis=0).ravel()
        reached = reached.compress(dist.take(reached) < 0)
        k = reached.size
        if k == 0:
            return
        # Scatter-and-mark dedupe in O(k): the unlabeled slots hold the
        # positions, and exactly one occurrence of each node reads back its
        # own position, whichever write won.
        slot = np.arange(k)
        dist[reached] = slot
        frontier = reached.compress(dist.take(reached) == slot)
        dist[frontier] = depth
        yield depth, frontier, frontier.size < k


def _var_index(g: TannerGraph, u) -> int:
    """``u`` as a variable index of ``g``: any integer type, in range."""
    index = operator.index(u)
    if not 0 <= index < g.n_vars:
        raise IndexError(f"variable index {u} out of range")
    return index


def bfs_distances(g: TannerGraph, root: int, max_depth: int | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Graph distances from a root variable node, level-synchronous.

    Returns ``(var_dist, chk_dist)`` int arrays with -1 for nodes not
    reached within ``max_depth``, an integer or None for no limit.
    """
    root = _var_index(g, root)
    max_depth = None if max_depth is None else operator.index(max_depth)
    var_dist = np.empty(g.n_vars + 1, dtype=np.int64)
    chk_dist = np.empty(g.n_checks + 1, dtype=np.int64)
    for _ in _bfs_levels(g, root, var_dist, chk_dist, max_depth):
        pass
    return var_dist[:-1], chk_dist[:-1]


def distance(g: TannerGraph, vi: int, vj: int, max_depth: int | None = None):
    """Shortest-path length between two variable nodes.

    Always an even integer (bipartite parity) or ``math.inf`` when the
    nodes are disconnected or farther than ``max_depth``.

    Bidirectional search: one BFS from each end, advancing by one level
    the side whose last ring is smaller, and looking each new ring up in
    the other side's labels.  While no node carries both labels, the
    distance exceeds the sum of the two depths.  So when a new ring meets
    the other side, the new depth sum is the distance (a path of that
    length runs through the meeting node), and a search whose depth sum
    reaches ``max_depth`` without a meeting can stop.
    """
    vi, vj = _var_index(g, vi), _var_index(g, vj)
    max_depth = None if max_depth is None else operator.index(max_depth)
    if vi == vj:
        return 0
    labels, levels = [], []
    for root in (vi, vj):
        var_dist = np.empty(g.n_vars + 1, dtype=np.int64)
        chk_dist = np.empty(g.n_checks + 1, dtype=np.int64)
        labels.append((var_dist, chk_dist))
        levels.append(_bfs_levels(g, root, var_dist, chk_dist))
    depth, width = [0, 0], [1, 1]
    while max_depth is None or depth[0] + depth[1] < max_depth:
        side = 0 if width[0] <= width[1] else 1
        step = next(levels[side], None)
        if step is None:
            return inf  # this side's component is exhausted
        depth[side], ring, _ = step
        width[side] = ring.size
        if labels[1 - side][depth[side] % 2].take(ring).max() >= 0:
            return depth[0] + depth[1]
    return inf


# -- neighborhood views --------------------------------------------------


@dataclass(frozen=True)
class NeighborhoodView:
    """Depth-limited BFS neighborhood of a variable node.

    ``levels[d]`` holds the sorted node ids at graph distance exactly d:
    variable ids on even levels, check ids on odd levels.  ``edges`` is
    the (var, check) list induced by the included node set.
    """

    root: int
    depth: int
    levels: tuple[np.ndarray, ...]
    edges: np.ndarray
    tree_like: bool

    @property
    def n_variables(self) -> int:
        return sum(lvl.size for lvl in self.levels[0::2])

    @property
    def n_check_nodes(self) -> int:
        return sum(lvl.size for lvl in self.levels[1::2])

    def variables(self) -> np.ndarray:
        return np.concatenate(list(self.levels[0::2]))

    def check_nodes(self) -> np.ndarray:
        return np.concatenate(list(self.levels[1::2]) or [np.empty(0, np.int64)])


def neighborhood(g: TannerGraph, v: int, k: int) -> NeighborhoodView:
    """Nodes within distance k of v, organized by BFS level.

    Nodes at distance exactly k are included.  The view is tree-like iff
    the induced edge count equals the induced node count minus one.
    """
    v = _var_index(g, v)
    if operator.index(k) < 0:
        raise ValueError("depth must be >= 0")
    var_dist, chk_dist = bfs_distances(g, v, max_depth=k)
    levels = []
    for d in range(k + 1):
        if d % 2 == 0:
            levels.append(np.flatnonzero(var_dist == d).astype(np.int64))
        else:
            levels.append(np.flatnonzero(chk_dist == d).astype(np.int64))
    keep = (var_dist[g.edge_var] >= 0) & (chk_dist[g.edge_chk] >= 0)
    edges = np.column_stack([g.edge_var[keep], g.edge_chk[keep]])
    n_nodes = sum(lvl.size for lvl in levels)
    tree_like = edges.shape[0] == n_nodes - 1
    return NeighborhoodView(root=v, depth=k, levels=tuple(levels), edges=edges,
                            tree_like=tree_like)


# -- configuration-model sampling ----------------------------------------


def sample_graph_with_attempts(spec: EnsembleSpec, seed,
                               max_attempts: int = DEFAULT_MAX_ATTEMPTS
                               ) -> tuple[TannerGraph, int]:
    """Uniform simple configuration plus the number of matchings drawn.

    Each attempt draws a fresh uniform socket matching; matchings with
    parallel edges are rejected wholesale, which keeps the accepted graph
    uniform over simple configurations.

    A parallel edge joins two sockets of one variable, and those sit
    fewer than the largest variable degree apart in the sorted socket
    list, so each attempt compares the matched checks at those offsets
    only, in O(E * max degree) and without a sort.
    """
    var_degrees, check_degrees = realize_degree_sequences(spec)
    n, m = spec.n_vars, spec.n_checks
    var_sockets = np.repeat(np.arange(n, dtype=np.int64), var_degrees)
    chk_sockets = np.repeat(np.arange(m, dtype=np.int64), check_degrees)
    n_edges = var_sockets.size
    same_var = [var_sockets[:-k] == var_sockets[k:]
                for k in range(1, int(var_degrees.max(initial=0)))]
    rng = as_generator(seed)
    for attempt in range(1, max_attempts + 1):
        # Shuffling a copy makes the same swaps as permuting an arange, so
        # this is ``chk_sockets[rng.permutation(n_edges)]`` without the gather.
        matched = chk_sockets.copy()
        rng.shuffle(matched)
        if not any(((matched[:-k] == matched[k:]) & same).any()
                   for k, same in enumerate(same_var, 1)):
            return TannerGraph(n, m, np.column_stack([var_sockets, matched])), attempt
    raise SamplingFailureError(
        f"no simple configuration found in {max_attempts} attempts", attempts=max_attempts
    )


def sample_graph(spec: EnsembleSpec, seed,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> TannerGraph:
    """Uniformly random simple graph from the ensemble, deterministic per seed."""
    graph, _ = sample_graph_with_attempts(spec, seed, max_attempts)
    return graph


# -- progressive edge growth ----------------------------------------------


def peg_construct(n_vars: int, var_degrees, n_checks: int) -> TannerGraph:
    """Greedy progressive-edge-growth construction.

    Variables are processed in ascending (target degree, index) order.
    The first edge of a variable goes to the check with the lowest
    current degree; every later edge goes to a check at maximal distance
    from the variable in the partial graph (unreached checks count as
    infinitely far).  Ties break on lowest current degree, then lowest
    index, so the construction is fully deterministic.

    Candidates are restricted to checks below the balanced ceiling
    ceil(E/M), which concentrates the check degrees (a regular variable
    side with E divisible by M yields an exactly biregular graph); when
    every non-adjacent check is full the ceiling is waived rather than
    failing the construction.

    The search from a variable runs over checks only: it starts from the
    variable's checks (graph depth 1) and steps from each check ring to
    the next through a check-to-check table, one ring per two graph
    levels.  Each step marks the rows of the ring in a bool mask over
    the checks, keeps the checks not reached before, and reads the next
    ring from the mask, so every ring, and every candidate list made from
    it, is in ascending order and the tie-break is the first least degree
    (``argmin``).  The search stops early at the first check ring, at
    depth 3 or more, that brings the count of reached checks below the
    ceiling up to the count of all such checks: that ring is the farthest
    one holding a candidate, so the pick is the same as after a full
    search.  When every check below the ceiling is adjacent to the
    variable, the search runs to the end and the pick is made among the
    checks of its last ring, which are then the farthest ones: the proof
    in the code shows that no check is left unreached there.

    When the variable's connected component holds fewer checks below the
    ceiling than the whole graph, no search is run.  The full search
    could never reach every such check, so it would run to the end of the
    component and pick among the unreached ones; those are exactly the
    checks below the ceiling outside the component, so the pick is made
    among them directly.
    """
    n_vars = node_count(n_vars, ConstructionError)
    n_checks = node_count(n_checks, ConstructionError)
    degrees = np.asarray(var_degrees)
    if degrees.shape != (n_vars,):
        raise ConstructionError("var_degrees must list one degree per variable")
    if degrees.size and not np.issubdtype(degrees.dtype, np.integer):
        raise ConstructionError("variable degrees must be integers")
    degrees = degrees.astype(np.int64)
    if n_checks < 1:
        raise ConstructionError("need at least one check node")
    if degrees.size and (degrees.min() < 0 or degrees.max() > n_checks):
        raise ConstructionError(
            "a variable degree exceeds the number of checks (simple graph impossible)"
        )

    max_var_deg = int(degrees.max()) if degrees.size else 0
    var_adj = np.empty((n_vars, max_var_deg), dtype=np.int64)
    cap = int(np.ceil(degrees.sum() / n_checks)) if degrees.sum() else 1
    chk_deg = np.zeros(n_checks, dtype=np.int64)
    is_open = np.ones(n_checks, dtype=bool)  # below the ceiling
    n_open = n_checks
    # Sentinel-padded check-to-check table for the ring search: row c lists,
    # once per shared variable, each check that shares a variable with c.
    # A check of degree at most cap needs at most cap * (max_var_deg - 1)
    # slots, so the table grows only where the ceiling is waived; one
    # doubling always makes room for the at most max_var_deg - 1 entries
    # an edge adds to a row.
    cc_adj = np.full((n_checks + 1, max(cap * (max_var_deg - 1), 1)), n_checks,
                     dtype=np.int64)
    cc_fill = np.zeros(n_checks, dtype=np.int64)
    # Connected components of the partial graph: a label per check and
    # the number of open checks under each label.
    comp = np.arange(n_checks, dtype=np.int64)
    comp_open = np.ones(n_checks, dtype=np.int64)
    # Ring-search masks over the checks plus the sentinel slot: the checks
    # not reached yet, and the next ring.
    unseen = np.empty(n_checks + 1, dtype=bool)
    mark = np.empty(n_checks + 1, dtype=bool)

    def pick(candidates: np.ndarray) -> int:
        # Candidates come in ascending order, so the first least degree
        # is the lowest index among the least degrees.
        return int(candidates[chk_deg.take(candidates).argmin()])

    def far_check(own: np.ndarray) -> int:
        root = comp[own[0]]
        if comp_open[root] < n_open:
            return pick(np.flatnonzero(is_open & (comp != root)))
        unseen.fill(True)
        unseen[own] = False
        unseen[n_checks] = False
        reached_open = np.count_nonzero(is_open.take(own))
        ring = own
        while True:
            mark.fill(False)
            mark[cc_adj.take(ring, axis=0)] = True
            np.logical_and(mark, unseen, out=mark)
            next_ring = mark.nonzero()[0]
            if not next_ring.size:
                break
            ring = next_ring
            np.logical_xor(unseen, mark, out=unseen)
            ring_open = np.count_nonzero(is_open.take(ring))
            reached_open += ring_open
            if ring_open and reached_open == n_open:
                return pick(ring.compress(is_open.take(ring)))
        # The search ran to the end of a component that holds every open
        # check (the shortcut above sees to that), so every open check is
        # one of the variable's own: waive the ceiling and pick among the
        # farthest checks, the last ring.  Unreached checks would count as
        # farther still, but the search reaches every check that is not
        # the variable's own.  Proof: some own check o is open, or the
        # checks would hold n_checks * cap >= E edges with one still to
        # place.  A check x that is not the variable's own is full; let u
        # be the earlier variable whose edge raised x to cap.  Then o had
        # at most cap - 2 edges, as the variable's own edge into o came
        # later, and x had cap - 1.  So that edge was no first edge, which
        # goes to a least-degree check, and no waived-ceiling edge, which
        # comes only when every open check, x too, is u's own.  A shortcut
        # pick is a least-degree open check outside u's component, so o
        # was inside it; a search runs only when u's component holds every
        # open check.  Either way x joined o's component, and components
        # only merge.  The variable has fewer checks than its degree, at
        # most n_checks, so the last ring is not its own checks.
        # No input is known where the last ring holds a different pick
        # than all the checks that are not the variable's own; searches
        # over small and dense-tailed degree lists found every such check
        # one ring away, so no test tells the two rules apart.
        return pick(ring)

    order = np.lexsort((np.arange(n_vars), degrees))
    for v in order:
        for k in range(int(degrees[v])):  # k edges of v so far
            if k == 0:
                c = int(np.argmin(chk_deg))
            else:
                own = var_adj[v, :k]
                c = far_check(own)
                old, new = comp[c], comp[own[0]]
                if old != new:
                    comp[comp == old] = new
                    comp_open[new] += comp_open[old]
                width = cc_adj.shape[1]
                if cc_fill[c] + k > width or cc_fill.take(own).max() == width:
                    cc_adj = np.hstack([cc_adj, np.full_like(cc_adj, n_checks)])
                cc_adj[own, cc_fill[own]] = c
                cc_fill[own] += 1
                cc_adj[c, cc_fill[c]:cc_fill[c] + k] = own
                cc_fill[c] += k
            var_adj[v, k] = c
            chk_deg[c] += 1
            if chk_deg[c] == cap:
                is_open[c] = False
                n_open -= 1
                comp_open[comp[c]] -= 1

    edges = np.column_stack([np.repeat(np.arange(n_vars), degrees),
                             var_adj[np.arange(max_var_deg) < degrees[:, None]]])
    return TannerGraph(n_vars, n_checks, edges)


def girth(g: TannerGraph, cutoff: int | None = None) -> float:
    """Length of the shortest cycle, or ``math.inf`` for a forest.

    Runs one BFS per variable node.  A node at depth d with two or more
    neighbors at depth d-1 closes a walk of length 2d through the root,
    which contains a cycle of at most that length; the first such depth
    over a root on a shortest cycle gives the girth exactly.  ``cutoff``
    stops early once a cycle of at most that length has been found, so
    the result is <= cutoff iff the girth is.  Intended for desk-scale
    graphs.
    """
    var_dist = np.empty(g.n_vars + 1, dtype=np.int64)
    chk_dist = np.empty(g.n_checks + 1, dtype=np.int64)
    best = inf
    for root in range(g.n_vars):
        # Only depths with 2 * depth < best can improve on best.
        max_depth = None if best == inf else best // 2 - 1
        for depth, _, merged in _bfs_levels(g, root, var_dist, chk_dist, max_depth):
            if merged:
                best = 2 * depth
                break
        if best == 4:
            break  # bipartite minimum; nothing shorter exists
        if cutoff is not None and best <= cutoff:
            break
    return best
