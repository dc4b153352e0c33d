"""Tanner graphs: construction, sampling, and distance queries.

Graphs are immutable after construction.  A graph is its adjacency in
one layout, two sentinel-padded tables: row u of ``var_adj`` lists the
checks of variable u in ascending order padded with the id ``n_checks``,
and row c of ``chk_adj`` lists the variables of check c padded with
``n_vars``.  Each table has one more all-sentinel row.  Neighbor lists
are the first degree-many entries of a row.  The tables, the degree
arrays and the derived tables below are read-only; the graph keeps no
edge list, and `TannerGraph.edges` derives the canonical one from
``chk_adj``.  Breadth-first search runs in two level-synchronous loops
over these tables, and each label array or mask keeps one extra slot
for the sentinel, which is always marked as seen.

`sample_graph_with_attempts` draws configuration-model matchings until
one is simple.  An ensemble is realized once, into its spec's read-only
degree arrays, and every sample shares exactly these two arrays: each
sample's ``var_degrees`` is its spec's ``var_degrees``, and likewise for
the checks.  The variable and check sockets are built per call from
them.  An accepted matching is turned into tables by two sorts and the
step that the constructor also ends with, without the constructor's
checks, which such a matching passes by construction.  On a 2-core Xeon
host this cut the set-up and build of one (3,4) sample at N=900 from 130
to 50 us, next to about 500 us of shuffling.

The decoders in `bp` run on the same tables transposed, the check-column
layout: row j of ``chk_adj.T`` holds the j-th variable of every check, so
a per-check reduction is a loop over a few rows.  The erasure decoder
walks the transposed views as they are.  Float BP keeps a contiguous
copy, ``chk_cols``, and ``var_slots``, which locates each variable's
edges in a ``chk_cols``-shaped array; both are built on first use and
cached, since most graphs, such as the oracle's thousands of small
samples, never reach a float decoder.

`_bfs_levels` serves the queries on a finished graph (`bfs_distances`,
`distance` and `girth`).  Its levels alternate between the
two tables, and one level is a gather, a seen-filter and a sort-free
scatter-and-mark dedupe, all sized by the level, not by the graph.  These
queries label few nodes of a large graph; a pair distance stops where its
two searches meet.

The ring search of `peg_construct` has its own loop, over two bool masks
of one slot per check, stepping through a check-to-check table.  A PEG
search labels nearly every check: at N=5400 the (3,4) code takes 6,751
searches of 9.6 levels on average, and each labels about 4,048 of the
4,050 checks.  So it runs each search to the end, without counting the
checks below the degree ceiling per level, and it steps the small early
rings by pushing from the ring (clearing nothing between levels) and the
large late ones by pulling into the checks not reached yet, the
direction-optimizing breadth-first search of Beamer, Asanovic and
Patterson (SC 2012).  On a 2-core host this made the construction of that
code 1.35x faster (medians of 10 alternating runs, 1.75 to 1.30 s) than
one push loop that stopped at the ring reaching the last check below the
ceiling, with the same edges.  The
dense masks themselves beat the dedupe of `_bfs_levels` here, as the
next ring comes back from ``nonzero`` already in ascending order; one
dense loop for every search was tried and rejected: it slowed the
`figure6-tail` benchmark (median 1.39 to 1.56 s, 5 pairs), whose distance
queries label few nodes.
"""

from __future__ import annotations

import operator
from functools import cached_property
from math import inf

import numpy as np

from ._util import at_least, node_count
from .degrees import EnsembleSpec
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
        edge_chk, edge_var = np.divmod(key, n_vars)
        # Sorting the unique (var, check) keys lists each variable's checks.
        by_var = np.sort(edge_var * n_checks + edge_chk) % n_checks
        self._set_tables(n_vars, n_checks, edge_var, by_var,
                         np.bincount(edge_var, minlength=n_vars),
                         np.bincount(edge_chk, minlength=n_checks))

    def _set_tables(self, n_vars: int, n_checks: int, by_chk: np.ndarray,
                    by_var: np.ndarray, var_deg: np.ndarray, chk_deg: np.ndarray):
        """Set every field from a valid, simple edge set: each check's
        variables check by check (the variables of the canonical edge list),
        each variable's checks variable by variable, both in ascending
        order, and the degrees.  Every field is read-only, and so is every
        array; the samples of an ensemble share its degrees."""
        var_adj = _pad_rows(var_deg, by_var, n_checks)
        chk_adj = _pad_rows(chk_deg, by_chk, n_vars)
        for table in (var_deg, chk_deg, var_adj, chk_adj):
            table.flags.writeable = False
        vars(self).update(n_vars=n_vars, n_checks=n_checks, n_edges=int(by_chk.size),
                          var_degrees=var_deg, check_degrees=chk_deg,
                          var_adj=var_adj, chk_adj=chk_adj)

    def __setattr__(self, name, value):
        raise AttributeError(f"TannerGraph is read-only: cannot set {name!r}")

    def __reduce__(self):
        # Copies and pickles rebuild the graph from its edges, so their
        # tables are read-only too; a copy of the tables would be writable.
        return type(self), (self.n_vars, self.n_checks, self.edges())

    # -- basic accessors -------------------------------------------------

    def var_neighbors(self, v: int) -> np.ndarray:
        """Check nodes adjacent to variable v, in ascending order."""
        if not 0 <= v < self.n_vars:  # row n_vars and row -1 are the sentinel row
            raise IndexError(f"variable index {v} out of range")
        return self.var_adj[v, :self.var_degrees[v]]

    def check_neighbors(self, c: int) -> np.ndarray:
        """Variable nodes adjacent to check c, in ascending order."""
        if not 0 <= c < self.n_checks:
            raise IndexError(f"check index {c} out of range")
        return self.chk_adj[c, :self.check_degrees[c]]

    def edges(self) -> np.ndarray:
        """Canonical (var, check) edge array, shape (E, 2), sorted on
        (check, variable): the entries of ``chk_adj`` row by row."""
        table = self.chk_adj[:-1]
        return np.column_stack([table[table < self.n_vars],
                                np.repeat(np.arange(self.n_checks), self.check_degrees)])

    # -- the check-column layout (built on first use) ---------------------

    @cached_property
    def chk_cols(self) -> np.ndarray:
        """``chk_adj`` transposed: row j holds the j-th variable of every
        check, padded with ``n_vars``; the last column is the sentinel check."""
        return _read_only(self.chk_adj.T)

    @cached_property
    def var_slots(self) -> np.ndarray:
        """Row i, column u: the flat slot of the edge from variable u to its
        i-th check in ascending order, in a ``chk_cols``-shaped array.
        Padding points at slot ``n_checks``, row 0 of the sentinel column."""
        # Canonical edge e sits in column edge_chk[e], at its position
        # within that check's edges.
        edge_var, edge_chk = self.edges().T
        starts = np.cumsum(self.check_degrees) - self.check_degrees
        position = np.arange(self.n_edges) - starts[edge_chk]
        flat = position * (self.n_checks + 1) + edge_chk
        by_var = np.argsort(edge_var * self.n_checks + edge_chk)
        slots = _pad_rows(self.var_degrees, flat[by_var], self.n_checks)
        return _read_only(slots[:-1].T)

    def __eq__(self, other):
        if not isinstance(other, TannerGraph):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.n_checks == other.n_checks
            and np.array_equal(self.chk_adj, other.chk_adj)
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
    if data.size == deg.size * width:  # every row is full, as in a regular graph
        table[:-1] = data.reshape(deg.size, width)
    else:
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
    max_depth = None if max_depth is None else at_least(max_depth, "max_depth")
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
    max_depth = None if max_depth is None else at_least(max_depth, "max_depth")
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


# -- configuration-model sampling ----------------------------------------


def _from_matching(spec: EnsembleSpec, var_sockets: np.ndarray, chk_sockets: np.ndarray,
                   matched: np.ndarray) -> TannerGraph:
    """The graph of a simple matching of ``spec``'s sorted sockets: socket
    i joins ``var_sockets[i]`` to ``matched[i]``."""
    n, m = spec.n_vars, spec.n_checks
    # Canonical order sorts on (check, variable), so its checks are the
    # sorted check sockets, and each key minus its check's part is the
    # variable.  Sorting on (variable, check) lists each variable's checks.
    by_chk = matched * n
    by_chk += var_sockets
    by_chk.sort()
    by_chk -= chk_sockets * n
    var_part = var_sockets * m
    by_var = var_part + matched
    by_var.sort()
    by_var -= var_part
    g = TannerGraph.__new__(TannerGraph)
    g._set_tables(n, m, by_chk, by_var, spec.var_degrees, spec.check_degrees)
    return g


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
    only, in O(E * max degree) and without a sort, into one reused
    buffer.  The sockets are built from the spec's degrees per call, and
    the accepted graph is built from its matching (see the module
    docstring).
    """
    max_attempts = at_least(max_attempts, "max_attempts", 1)
    var_deg = spec.var_degrees
    var_sockets = np.repeat(np.arange(spec.n_vars, dtype=np.int64), var_deg)
    chk_sockets = np.repeat(np.arange(spec.n_checks, dtype=np.int64), spec.check_degrees)
    same_var = [var_sockets[:-k] == var_sockets[k:]
                for k in range(1, int(var_deg.max(initial=0)))]
    rng = np.random.default_rng(seed)
    matched = np.empty_like(chk_sockets)
    clash = np.empty(matched.size, dtype=bool)
    for attempt in range(1, max_attempts + 1):
        # Shuffling a copy makes the same swaps as permuting an arange, so
        # this is ``chk_sockets[rng.permutation(matched.size)]`` without the
        # gather.
        np.copyto(matched, chk_sockets)
        rng.shuffle(matched)
        for k, same in enumerate(same_var, 1):
            hit = np.equal(matched[:-k], matched[k:], out=clash[:-k])
            hit &= same
            if np.count_nonzero(hit):
                break
        else:
            return _from_matching(spec, var_sockets, chk_sockets, matched), attempt
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
    levels, to the end of the variable's component.  While a ring is
    smaller than the set of checks not reached yet, a step pushes: it
    marks the table rows of the ring in a bool mask over the checks and
    keeps the checks not reached before.  From then on a step pulls: it
    keeps each check not reached yet whose table row meets a reached
    check, which can only be one of the last ring.  Both read the next
    ring in ascending check order, so every candidate list is ascending
    and the tie-break is the first least degree (``argmin``).  The pick
    is made among the checks below the ceiling in the last ring that
    holds one: that ring is the farthest one holding a candidate.  When
    every check below the ceiling is adjacent to the variable, no ring
    holds one and the pick is made among the checks of the last ring,
    which are then the farthest ones: the proof in the code shows that no
    check is left unreached there.

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
    # an edge adds to a row.  The width is a multiple of 8, so a row of a
    # bool mask gathered through the table reads as whole uint64 words.
    cc_adj = np.full((n_checks + 1, -(-max(cap * (max_var_deg - 1), 1) // 8) * 8),
                     n_checks, dtype=np.int64)
    cc_fill = [0] * n_checks
    # Connected components of the partial graph: a label per check and
    # the number of open checks under each label.
    comp = np.arange(n_checks, dtype=np.int64)
    comp_open = np.ones(n_checks, dtype=np.int64)
    # Ring-search masks over the checks plus the sentinel slot: the checks
    # not reached yet, and the last ring (all False between searches).
    unseen = np.empty(n_checks + 1, dtype=bool)
    mark = np.zeros(n_checks + 1, dtype=bool)
    # Buffers for the rows a step gathers, so that the steps reuse one
    # block of memory: a fresh array per step left the heap 0.6 MB larger
    # after the N=5400 construction.  Every index is in range, and
    # mode="clip" lets take write straight into them.
    rows = np.empty_like(cc_adj)
    gathered = np.empty(cc_adj.shape, dtype=bool)
    hits = np.empty(n_checks + 1, dtype=bool)

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
        rings = [own]
        ring = own
        left = n_checks - own.size  # checks not reached yet
        while ring.size < left:
            # Push.  mark holds the last ring, whose checks are reached,
            # so the AND clears it along with the other reached checks.
            mark[cc_adj.take(ring, axis=0, out=rows[:ring.size], mode="clip")] = True
            np.logical_and(mark, unseen, out=mark)
            ring = mark.nonzero()[0]
            if not ring.size:
                break
            np.logical_xor(unseen, mark, out=unseen)
            rings.append(ring)
            left -= ring.size
        else:
            # Pull.  mark now holds the reached checks; an unreached check
            # next to one of them is next to the last ring.
            np.logical_not(unseen, out=mark)
            mark[n_checks] = False
            rest = unseen.nonzero()[0]
            while rest.size:
                k = rest.size
                cc_adj.take(rest, axis=0, out=rows[:k], mode="clip")
                words = mark.take(rows[:k], out=gathered[:k], mode="clip").view(np.uint64)
                hit = words.any(axis=1, out=hits[:k])
                ring = rest.compress(hit)
                if not ring.size:
                    break
                mark[ring] = True
                rings.append(ring)
                rest = rest.compress(np.logical_not(hit, out=hit))
            mark.fill(False)
        # The farthest ring holding an open check.
        for ring in reversed(rings[1:]):
            ring_open = ring.compress(is_open.take(ring))
            if ring_open.size:
                return pick(ring_open)
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
        return pick(rings[-1])

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
                own = own.tolist()
                width = cc_adj.shape[1]
                if cc_fill[c] + k > width or max(cc_fill[o] for o in own) == width:
                    cc_adj = np.hstack([cc_adj, np.full_like(cc_adj, n_checks)])
                    rows = np.empty_like(cc_adj)
                    gathered = np.empty(cc_adj.shape, dtype=bool)
                for o in own:
                    cc_adj[o, cc_fill[o]] = c
                    cc_fill[o] += 1
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


def girth(g: TannerGraph) -> float:
    """Length of the shortest cycle, or ``math.inf`` for a forest.

    Runs one BFS per variable node.  A node at depth d with two or more
    neighbors at depth d-1 closes a walk of length 2d through the root,
    which contains a cycle of at most that length; the first such depth
    over a root on a shortest cycle gives the girth exactly.  Intended
    for desk-scale graphs.
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
    return best
