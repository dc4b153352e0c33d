"""Ground-truth minimum-weight computation on small decoding neighborhoods.

A depth-limited neighborhood of a variable node induces a local GF(2)
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


def local_system(g: TannerGraph, v: int, iterations: int) -> Gf2System:
    """GF(2) system induced by the depth-2l neighborhood of v.

    Variables are the distinct variable nodes within distance 2l; rows
    come from checks within distance 2l-1, each over its full neighbor
    set (bipartite parity keeps those neighbors inside the window).  A
    BFS cut at depth 2l labels exactly these nodes: checks sit at odd
    depths, so every labelled check is within 2l-1.
    """
    iterations = at_least(iterations, "iterations")
    var_dist, chk_dist = bfs_distances(g, v, max_depth=2 * iterations)
    variables = np.concatenate(([v], np.flatnonzero(var_dist > 0)))  # root first
    # Local index per graph variable; the sentinel slot of ``chk_adj``
    # maps past every local index, so it sorts last in each row.
    local = np.full(g.n_vars + 1, g.n_vars, dtype=np.int64)
    local[variables] = np.arange(variables.size)
    checks = np.flatnonzero(chk_dist >= 0)
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

    @property
    def height(self) -> int:
        return len(self.levels) - 1


def valid_tree_search(g: TannerGraph, v: int, iterations: int) -> ValidTree | None:
    """Backtracking search for a weight-carrying subtree rooted at v.

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
    iterations = at_least(iterations, "iterations")
    height = 2 * iterations + 1
    var_dist, chk_dist = (d.tolist() for d in bfs_distances(g, v, max_depth=height))

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

    result = grow([(int(v),)], below(int(v)))
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
    """Two-stage Monte Carlo: fresh graph per sample, then a uniform root."""
    iterations = at_least(iterations, "iterations")
    n_samples = at_least(n_samples, "n_samples", 1)
    weights = []
    infeasible = 0
    skipped = 0
    for i in range(n_samples):
        g = sample_graph(spec, derived_rng(seed, STREAM_ORACLE_GRAPH, i))
        v = int(derived_rng(seed, STREAM_ORACLE_NODE, i).integers(spec.n_vars))
        system = local_system(g, v, iterations)
        try:
            w = min_weight_root_one(system)
        except CapacityError:
            skipped += 1
            continue
        if w is None:
            infeasible += 1
        else:
            weights.append(w)
    arr = np.asarray(weights, dtype=np.float64)
    mean = float(arr.mean()) if arr.size else float("nan")
    std_error = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return MinWeightEstimate(mean=mean, std_error=std_error, n_samples=n_samples,
                             infeasible_count=infeasible, capacity_skipped=skipped,
                             weights=arr)
