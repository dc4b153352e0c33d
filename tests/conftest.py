import numpy as np
import pytest

from ldpcbounds import DegreeDistribution, EnsembleSpec, TannerGraph


@pytest.fixture(scope="session")
def spec34_900():
    return EnsembleSpec(900, DegreeDistribution.regular(3), DegreeDistribution.regular(4))


@pytest.fixture(scope="session")
def tree_graph():
    """Cycle-free fixture: root variable 0 on three degree-4 checks, nine leaves.

    Variable 0 has degree 3; check j is adjacent to {0, 3j+1, 3j+2, 3j+3}.
    """
    edges = [(0, j) for j in range(3)] + [(3 * j + i, j) for j in range(3) for i in (1, 2, 3)]
    return TannerGraph(10, 3, edges)


@pytest.fixture(scope="session")
def tree_codeword():
    """A nonzero codeword of the tree fixture: root plus one leaf per check."""
    s = np.zeros(10, dtype=np.int8)
    s[[0, 1, 4, 7]] = 1
    return s


@pytest.fixture(scope="session")
def toy4_graph():
    """Length-4 toy code: v0 on checks {0, 2}; all four variables within depth 4."""
    return TannerGraph(4, 3, [(0, 0), (1, 0), (3, 0), (1, 1), (2, 1), (0, 2), (2, 2), (3, 2)])


def erasure_bp_reference(g, erased, iterations):
    """Erased-marginal masks of flooding BP on the BEC after 0..``iterations``.

    Plain Python over per-edge messages, each either erased or known, with
    the extrinsic rules and no peeling shortcut: a variable-to-check
    message is known iff the channel bit or another incoming check message
    is known, and a check-to-variable message is known iff every other
    incoming variable message is known.  ``erased`` is one trial's bool
    vector; returns ``iterations + 1`` bool arrays.
    """
    edges = [tuple(e) for e in g.edges().tolist()]
    var_edges = [[] for _ in range(g.n_vars)]
    chk_edges = [[] for _ in range(g.n_checks)]
    for e, (v, c) in enumerate(edges):
        var_edges[v].append(e)
        chk_edges[c].append(e)
    c2v_known = [False] * len(edges)
    masks = []
    for l in range(iterations + 1):
        if l > 0:
            v2c_known = [not erased[v] or any(c2v_known[f] for f in var_edges[v] if f != e)
                         for e, (v, _) in enumerate(edges)]
            c2v_known = [all(v2c_known[f] for f in chk_edges[c] if f != e)
                         for e, (_, c) in enumerate(edges)]
        masks.append(np.array([bool(erased[v]) and not any(c2v_known[e] for e in var_edges[v])
                               for v in range(g.n_vars)], dtype=bool))
    return masks
