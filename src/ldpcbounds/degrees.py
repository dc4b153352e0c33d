"""Degree distributions and ensemble specifications.

A degree distribution is a finite polynomial over node degrees, carried
either from the node perspective (fraction of nodes with each degree) or
from the edge perspective (fraction of edges attached to nodes of each
degree).  An ensemble specification fixes the number of variable nodes
together with node-perspective distributions for both sides of the
bipartite graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._util import node_count
from .errors import InvalidDistributionError, InvalidSpecError

NODE = "node"
EDGE = "edge"

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DegreeDistribution:
    """Finite degree distribution from the node or edge perspective.

    Parameters
    ----------
    perspective : str
        Either ``"node"`` or ``"edge"``.
    terms : mapping of int to float
        Degree -> fraction.  Fractions must lie in (0, 1] and sum to 1
        within 1e-12; degrees must be integers >= 1.

    Notes
    -----
    As a polynomial, a node-perspective distribution evaluates as
    ``sum_d f_d x**d`` while an edge-perspective one evaluates as
    ``sum_d f_d x**(d-1)``, matching the usual generating-function
    conventions for the two perspectives.
    """

    perspective: str
    terms: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.perspective not in (NODE, EDGE):
            raise InvalidDistributionError(
                f"perspective must be {NODE!r} or {EDGE!r}, got {self.perspective!r}"
            )
        if not self.terms:
            raise InvalidDistributionError("degree distribution has no terms")
        clean: dict[int, float] = {}
        for degree, fraction in self.terms.items():
            d = int(degree)
            if d != degree or d < 1:
                raise InvalidDistributionError(f"degree {degree!r} is not an integer >= 1")
            f = float(fraction)
            if not 0.0 < f <= 1.0:
                raise InvalidDistributionError(
                    f"fraction {fraction!r} for degree {d} is outside (0, 1]"
                )
            if d in clean:
                raise InvalidDistributionError(f"degree {d} appears twice")
            clean[d] = f
        total = sum(clean.values())
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidDistributionError(
                f"fractions sum to {total!r}, expected 1 within {_SUM_TOL}"
            )
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __hash__(self):
        # The terms are stored sorted, so their items are a canonical key;
        # this also makes an EnsembleSpec hashable.
        return hash((self.perspective, tuple(self.terms.items())))

    @classmethod
    def regular(cls, degree: int, perspective: str = NODE) -> "DegreeDistribution":
        """Single-degree distribution x**degree (node) or x**(degree-1) (edge)."""
        return cls(perspective, {degree: 1.0})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.terms)

    @property
    def max_degree(self) -> int:
        return max(self.terms)

    @property
    def min_degree(self) -> int:
        return min(self.terms)

    def fraction(self, degree: int) -> float:
        return self.terms.get(int(degree), 0.0)

    def mean_degree(self) -> float:
        """Average node degree.  Node perspective: sum d*f_d; edge: 1/sum(f_d/d)."""
        if self.perspective == NODE:
            return sum(d * f for d, f in self.terms.items())
        return 1.0 / sum(f / d for d, f in self.terms.items())

    def evaluate(self, x: float) -> float:
        """Polynomial value: sum f_d x**d (node) or sum f_d x**(d-1) (edge)."""
        shift = 0 if self.perspective == NODE else 1
        return float(sum(f * x ** (d - shift) for d, f in self.terms.items()))


def edge_perspective(dist: DegreeDistribution) -> DegreeDistribution:
    """Convert a node-perspective distribution to the edge perspective.

    The edge-perspective fraction for degree d is ``d*f_d / sum_d' d'*f_d'``.
    """
    if dist.perspective != NODE:
        raise InvalidDistributionError("edge_perspective expects a node-perspective input")
    total = sum(d * f for d, f in dist.terms.items())
    return DegreeDistribution(EDGE, {d: d * f / total for d, f in dist.terms.items()})


def node_perspective(dist: DegreeDistribution) -> DegreeDistribution:
    """Convert an edge-perspective distribution back to the node perspective.

    The node-perspective fraction for degree d is ``(f_d/d) / sum_d' (f_d'/d')``.
    """
    if dist.perspective != EDGE:
        raise InvalidDistributionError("node_perspective expects an edge-perspective input")
    total = sum(f / d for d, f in dist.terms.items())
    return DegreeDistribution(NODE, {d: (f / d) / total for d, f in dist.terms.items()})


def _require_node_dists(var_dist: DegreeDistribution, check_dist: DegreeDistribution):
    if var_dist.perspective != NODE or check_dist.perspective != NODE:
        raise InvalidSpecError("ensemble distributions must be node-perspective")
    if check_dist.min_degree < 2:
        raise InvalidSpecError("check-node degrees must be >= 2")


def _largest_remainder_counts(total: int, dist: DegreeDistribution) -> dict[int, int]:
    """Round total*f_d to integer per-degree counts that sum to total exactly."""
    targets = {d: total * f for d, f in dist.terms.items()}
    counts = {d: int(np.floor(t)) for d, t in targets.items()}
    residue = total - sum(counts.values())
    # Distribute leftovers by descending fractional part, low degree first on ties.
    order = sorted(targets, key=lambda d: (-(targets[d] - counts[d]), d))
    for d in order[:residue]:
        counts[d] += 1
    return counts


def _repair_sockets(counts: dict[int, int], delta: int) -> int:
    """Shift nodes between degree buckets to absorb ``delta`` sockets.

    Moves always involve the largest-degree bucket when possible and
    never change the total node count.  Returns the part of ``delta``
    that could not be absorbed exactly.
    """
    support = sorted(counts)
    if len(support) < 2:
        return delta
    big = support[-1]
    while delta != 0:
        best = None
        for d in support:
            for d2 in support:
                gain = d2 - d
                if gain == 0 or counts[d] == 0:
                    continue
                if gain * delta <= 0 or abs(gain) > abs(delta):
                    continue
                # Prefer moves that touch the largest-degree bucket, then
                # the largest absorbable step.
                key = (d2 == big or d == big, abs(gain))
                if best is None or key > best[0]:
                    best = (key, d, d2)
        if best is None:
            return delta
        _, d, d2 = best
        counts[d] -= 1
        counts[d2] += 1
        delta -= d2 - d
    return 0


@dataclass(frozen=True)
class EnsembleSpec:
    """Random bipartite ensemble: N variable nodes plus both degree laws.

    The check count is the rounded socket-balance value; degree sequences
    are realized by largest-remainder rounding with a bucket-shift repair
    so that variable and check sockets match exactly.  Construction fails
    when no balanced realization exists.
    """

    n_vars: int
    var_dist: DegreeDistribution
    check_dist: DegreeDistribution

    def __post_init__(self):
        if node_count(self.n_vars, InvalidSpecError) < 2:
            raise InvalidSpecError("n_vars must be >= 2")
        _require_node_dists(self.var_dist, self.check_dist)
        m = self.n_checks
        if not 0 < m < self.n_vars:
            raise InvalidSpecError(f"check count {m} leaves design rate outside (0, 1)")
        # Fails loudly now rather than at first sampling call.
        realize_degree_sequences(self)

    @property
    def n_checks(self) -> int:
        implied = self.n_vars * self.var_dist.mean_degree() / self.check_dist.mean_degree()
        return int(round(implied))

    @property
    def design_rate(self) -> float:
        return 1.0 - self.n_checks / self.n_vars


def realize_degree_sequences(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Integer degree sequences for one ensemble instance.

    Returns ``(var_degrees, check_degrees)`` with lengths N and M.  Node
    degrees are assigned in ascending-degree order, which is immaterial to
    the ensemble because the socket matching permutes everything anyway.
    """
    var_counts = _largest_remainder_counts(spec.n_vars, spec.var_dist)
    chk_counts = _largest_remainder_counts(spec.n_checks, spec.check_dist)
    var_sockets = sum(d * c for d, c in var_counts.items())
    chk_sockets = sum(d * c for d, c in chk_counts.items())
    delta = var_sockets - chk_sockets
    delta = _repair_sockets(chk_counts, delta)
    if delta != 0:
        delta = -_repair_sockets(var_counts, -delta)
    if delta != 0:
        raise InvalidSpecError(
            f"cannot balance sockets for N={spec.n_vars}: {delta} sockets left over"
        )
    var_degrees = np.repeat(
        np.fromiter(var_counts.keys(), dtype=np.int64),
        np.fromiter(var_counts.values(), dtype=np.int64),
    )
    check_degrees = np.repeat(
        np.fromiter(chk_counts.keys(), dtype=np.int64),
        np.fromiter(chk_counts.values(), dtype=np.int64),
    )
    return var_degrees, check_degrees
