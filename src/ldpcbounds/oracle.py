"""Ground-truth minimum-weight computation on small decoding neighborhoods.

Every per-root query runs on one `Window`: a graph, a root variable, the
iteration count l and the BFS labels of the root's neighborhood to depth
2l+1, computed once by `window`.  `windows` yields the oracle's Monte
Carlo stream of them, sample i drawn on ``(seed, STREAM_ORACLE_GRAPH, i)``
for the graph and ``(seed, STREAM_ORACLE_NODE, i)`` for the root.

The depth-2l neighborhood of the root induces a local GF(2)
system: one binary variable per distinct variable node within distance
2l of the root, one parity row per check node within distance 2l-1 over
that check's full neighbor set.  Repeated occurrences of a variable in
the unrolled message-passing tree are identified, i.e. they share one
GF(2) variable.  The oracle enumerates the affine solution set with the
root pinned to 1 and returns the minimum Hamming weight, guarded by a
free-dimension cap.  One Gauss-Jordan pass gives the particular solution
and the null-space basis.

A complementary backtracking search looks for the structured subtree
whose all-ones assignment is a valid local codeword: every internal
variable keeps all its neighbors, every internal check has exactly one
parent and one child, and leaf checks hang off exactly one tree node.
The search chooses one child per check and claims the child's checks on
the next level when it chooses it (forward checking), so a choice that
would give a check two parents is skipped at once, not found a level
later; the claims are released on backtrack.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._util import STREAM_ORACLE_GRAPH, STREAM_ORACLE_NODE, at_least, derived_rng
from .degrees import EnsembleSpec
from .errors import CapacityError
from .tanner import TannerGraph, bfs_distances, sample_graph

# Largest free dimension the Gray-code walk takes on (2**28 solutions).
MAX_FREE_DIM = 28


@dataclass(frozen=True)
class Gf2System:
    """Local parity system around a root variable.

    ``variables`` lists distinct graph variable ids (root first);
    ``rows`` holds parity constraints as tuples of local indices;
    ``checks`` records which graph check produced each row.
    """

    variables: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    checks: tuple[int, ...]
    root_local: int = 0

    @property
    def n_variables(self) -> int:
        return len(self.variables)


@dataclass(frozen=True, eq=False)
class Window:
    """The depth-2l neighborhood of ``root`` in ``graph``, l = ``iterations``.

    ``var_dist`` and ``chk_dist`` are the BFS labels to depth 2l+1, -1
    beyond: the valid-tree search reads that last check level, the local
    system and the tree test only the nodes within 2l.
    """

    graph: TannerGraph
    root: int
    iterations: int
    var_dist: np.ndarray
    chk_dist: np.ndarray

    @property
    def checks(self) -> np.ndarray:
        """The window's checks, ascending: those within distance 2l-1."""
        return np.flatnonzero((self.chk_dist >= 0) & (self.chk_dist < 2 * self.iterations))

    @property
    def tree(self) -> bool:
        """Whether the window is a tree.  Each of its checks keeps all its
        edges inside it, and every edge has a check end, so its edge count
        is the checks' degree sum; a connected graph is a tree iff that is
        its node count minus 1."""
        checks = self.checks
        nodes = np.count_nonzero(self.var_dist >= 0) + checks.size
        return int(self.graph.check_degrees.take(checks).sum()) == nodes - 1


def window(g: TannerGraph, v: int, iterations: int) -> Window:
    """The window of root v for l = ``iterations``, from one BFS."""
    iterations = at_least(iterations, "iterations")
    var_dist, chk_dist = bfs_distances(g, v, max_depth=2 * iterations + 1)
    return Window(g, operator.index(v), iterations, var_dist, chk_dist)


def windows(spec: EnsembleSpec, iterations: int, n: int, seed: int) -> Iterator[Window]:
    """The oracle's window stream: n windows, each on a fresh graph and a
    uniform root (see the module docstring)."""
    iterations = at_least(iterations, "iterations")
    n = at_least(n, "n")
    return (window(sample_graph(spec, derived_rng(seed, STREAM_ORACLE_GRAPH, i)),
                   derived_rng(seed, STREAM_ORACLE_NODE, i).integers(spec.n_vars), iterations)
            for i in range(n))


def local_system(w: Window) -> Gf2System:
    """GF(2) system induced by the depth-2l neighborhood of the root.

    Variables are the distinct variable nodes within distance 2l; rows
    come from checks within distance 2l-1, each over its full neighbor
    set (bipartite parity keeps those neighbors inside the window).
    Variables sit at even depths, so every labelled variable is within 2l.
    """
    g = w.graph
    variables = np.concatenate(([w.root], np.flatnonzero(w.var_dist > 0)))  # root first
    # Local index per graph variable; the sentinel slot of ``chk_adj``
    # maps past every local index, so it sorts last in each row.
    local = np.full(g.n_vars + 1, g.n_vars, dtype=np.int64)
    local[variables] = np.arange(variables.size)
    checks = w.checks
    table = np.sort(local.take(g.chk_adj.take(checks, axis=0)), axis=1).tolist()
    rows = tuple(tuple(row[:d]) for row, d in zip(table, g.check_degrees.take(checks).tolist()))
    return Gf2System(variables=tuple(variables.tolist()), rows=rows,
                     checks=tuple(checks.tolist()), root_local=0)


def _solve_affine(sys: Gf2System) -> tuple[int, list[int]] | None:
    """Particular solution and null-space basis of the root=1 system.

    Solutions are bitmask ints over local variable indices.  Returns
    None when pinning the root to 1 is inconsistent.

    One Gauss-Jordan pass: each row, the parity rows and then the root
    row, is reduced against the kept pivot rows, pivoted at its lowest
    set bit, and that column is cleared from the kept rows.  Each kept
    row's lowest bit stays its pivot, so the pivots are the lowest bits
    of the row space and the kept rows are its unique reduced echelon
    form: each carries only free columns besides its own pivot.
    """
    pivots: dict[int, tuple[int, int]] = {}
    rows = [(sum(1 << i for i in r), 0) for r in sys.rows]
    for mask, rhs in rows + [(1 << sys.root_local, 1)]:
        for col, (pmask, prhs) in pivots.items():
            if mask >> col & 1:
                mask ^= pmask
                rhs ^= prhs
        if not mask:
            if rhs:
                return None
            continue
        col = (mask & -mask).bit_length() - 1
        for c, (pmask, prhs) in pivots.items():
            if pmask >> col & 1:
                pivots[c] = (pmask ^ mask, prhs ^ rhs)
        pivots[col] = (mask, rhs)
    particular = sum(1 << col for col, (_, rhs) in pivots.items() if rhs)
    basis = [sum(1 << col for col, (mask, _) in pivots.items() if mask >> f & 1) | 1 << f
             for f in range(sys.n_variables) if f not in pivots]
    return particular, basis


def min_weight_root_one(sys: Gf2System) -> int | None:
    """Minimum Hamming weight over local solutions with the root set to 1.

    Returns None when no such solution exists.  The affine solution set
    is walked in Gray-code order so each step flips one basis vector;
    a CapacityError is raised when the free dimension exceeds
    ``MAX_FREE_DIM`` (callers must shrink the window or the graph).
    """
    solved = _solve_affine(sys)
    if solved is None:
        return None
    particular, basis = solved
    if len(basis) > MAX_FREE_DIM:
        raise CapacityError(
            f"free dimension {len(basis)} exceeds guard {MAX_FREE_DIM}"
        )
    best_vec = particular
    best = particular.bit_count()
    current = particular
    for step in range(1, 1 << len(basis)):
        flip = (step & -step).bit_length() - 1
        current ^= basis[flip]
        w = current.bit_count()
        if w < best:
            best = w
            best_vec = current
    _verify_solution(sys, best_vec)
    return best


def _verify_solution(sys: Gf2System, vec: int) -> None:
    assert (vec >> sys.root_local) & 1 == 1
    for row in sys.rows:
        parity = 0
        for i in row:
            parity ^= (vec >> i) & 1
        assert parity == 0, "enumerated solution violates a parity row"


# -- structured low-weight subtree ----------------------------------------


@dataclass(frozen=True)
class ValidTree:
    """Height-(2l+1) subtree whose all-ones assignment is a local codeword.

    ``levels[d]`` lists node ids at distance d from the root: variables
    on even levels, checks on odd levels.  The weight is the variable
    count, which the parity argument makes the codeword weight.
    """

    levels: tuple[tuple[int, ...], ...]

    @property
    def weight(self) -> int:
        return sum(len(lvl) for lvl in self.levels[0::2])


def valid_tree_search(w: Window) -> ValidTree | None:
    """Backtracking search for a weight-carrying subtree rooted at the root.

    Level by level: each chosen variable pulls in all its checks one
    level down, and checks below the leaf level each pick exactly one
    child variable whose only upward neighbor is that check.  A level
    fails at once when it has no checks or some check has no candidate
    child.  Children are chosen check by check, in neighbor order, and a
    chosen child claims its own down-checks: a candidate whose
    down-checks are already claimed would give a check two parents, so
    it is skipped, and the claims are released on backtrack.  Returns
    the first subtree of full height in that order, or None when none
    exists.
    """
    g = w.graph
    height = 2 * w.iterations + 1
    var_dist, chk_dist = w.var_dist.tolist(), w.chk_dist.tolist()

    # A node's lists depend only on the node and the labels, so each is
    # built once per search, however often backtracking re-enters its level.
    @cache
    def below(u: int) -> list[int]:
        """The checks one level below variable u."""
        return [c for c in g.var_neighbors(u).tolist() if chk_dist[c] == var_dist[u] + 1]

    @cache
    def children(c: int) -> list[int]:
        """The variables one level below check c whose only upward neighbor is c."""
        depth = chk_dist[c] + 1
        return [u for u in g.check_neighbors(c).tolist() if var_dist[u] == depth
                and [b for b in g.var_neighbors(u).tolist() if chk_dist[b] == depth - 1] == [c]]

    def grow(levels: list[tuple[int, ...]], checks: list[int]) -> list[tuple[int, ...]] | None:
        levels = levels + [tuple(checks)]
        if len(levels) > height:
            return levels
        if not checks:
            return None  # the subtree must reach full height
        options = [children(c) for c in checks]
        if not all(options):
            return None
        chosen: list[tuple[int, list[int]]] = []
        claimed: set[int] = set()

        def choose(i: int) -> list[tuple[int, ...]] | None:
            if i == len(options):
                return grow(levels + [tuple(u for u, _ in chosen)],
                            [c for _, checks_below in chosen for c in checks_below])
            for u in options[i]:
                checks_below = below(u)
                if claimed.isdisjoint(checks_below):
                    claimed.update(checks_below)
                    chosen.append((u, checks_below))
                    found = choose(i + 1)
                    if found is not None:
                        return found
                    chosen.pop()
                    claimed.difference_update(checks_below)
            return None

        return choose(0)

    result = grow([(w.root,)], below(w.root))
    return None if result is None else ValidTree(levels=tuple(result))


# -- ensemble Monte Carlo ---------------------------------------------------


@dataclass(frozen=True)
class MinWeightEstimate:
    """Ensemble average of the root-constrained minimum weight.

    ``weights`` holds the per-sample minima actually computed;
    infeasible root=1 systems and capacity-skipped samples are counted,
    never silently dropped.
    """

    mean: float
    std_error: float
    n_samples: int
    infeasible_count: int
    capacity_skipped: int
    weights: np.ndarray


def expected_min_weight_mc(spec: EnsembleSpec, iterations: int, n_samples: int,
                           seed: int) -> MinWeightEstimate:
    """Two-stage Monte Carlo over `windows`: fresh graph per sample, then a uniform root."""
    n_samples = at_least(n_samples, "n_samples", 1)
    weights = []
    infeasible = 0
    skipped = 0
    for w in windows(spec, iterations, n_samples, seed):
        try:
            weight = min_weight_root_one(local_system(w))
        except CapacityError:
            skipped += 1
            continue
        if weight is None:
            infeasible += 1
        else:
            weights.append(weight)
    arr = np.asarray(weights, dtype=np.float64)
    mean = float(arr.mean()) if arr.size else float("nan")
    std_error = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return MinWeightEstimate(mean=mean, std_error=std_error, n_samples=n_samples,
                             infeasible_count=infeasible, capacity_skipped=skipped,
                             weights=arr)
