"""Flooding belief propagation on Tanner graphs.

One iteration recomputes every variable-to-check message from the
previous check-to-variable messages, then every check-to-variable
message from those fresh variable-to-check messages.  Marginals after l
iterations combine the channel LLR with the iteration-l check messages.

``float_bp`` runs the float tanh rule (Kschischang, Frey & Loeliger,
IEEE Trans. IT 47(2), 2001) and is the decoder for the BSC and BI-AWGN;
``decode`` and the Monte Carlo harness both take its marginals.  It
takes finite LLRs only.  Check messages are capped at +/-50, so every
message and marginal stays finite; a check with no other input sends
+50, as any other certain check does.

Messages live in the check-column layout of ``TannerGraph.chk_cols``: a
``(w, n_checks + 1)`` array whose slot (j, c) holds the j-th edge of
check c, w being the largest check degree.  A per-check sum is then one
``reduce`` over axis 0, and the result broadcasts back over the rows.
Padding slots, and the sentinel column, read the marginal +inf
of the sentinel variable, so their variable-to-check message is +inf:
tanh gives 1, log gives 0, and the slot counts as neither zero nor
negative.  A marginal gathers its check messages through
``TannerGraph.var_slots``; its padding reads the sentinel column, which
is held at 0.

Summation order is part of the output.  Each check adds its logs row by
row, in edge order, starting from 0.0; each variable adds its check
messages in ascending check order, starting from 0.0, and then the
channel LLR.  This is the order of a ``bincount`` over the canonical
edge list, so the float results are those of the edge-ordered kernel
that this layout replaced, bit for bit.  numpy's axis-0 ``add.reduce``
keeps that row order only while the other axis has length 2 or more;
``chk_cols`` always has the sentinel column besides a real one.

An iteration is a fixed list of whole-array passes: one gather of
variable-to-check messages, one subtraction, the check update (whose
passes, and why each is exact, ``_check_update`` lists) and one gather
and one sum for the marginals.  ``float_bp`` gathers into one v2c buffer
and writes the check update into one c2v buffer, both reused for every
iteration; each marginal array it yields is new.

On the erasure channel every message is either erased or certainly
right, so the same flooding schedule reduces to erasure counting
(Luby et al., IEEE Trans. IT 47(2), 2001): ``bec_unresolved`` runs it on
a block of trials at once with small integer counts instead of floats.
The BEC's LLR law (``channels.Bec.llrs``) gives 0 or +/-inf, and those
LLRs go only there, as the erasure pattern ``llr == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import at_least
from .tanner import TannerGraph

LLR_CLAMP = 50.0
_TIMES_TWO = np.array([2.0, -2.0])  # indexed by a message's sign flip


# -- the kernel, in the check-column layout ---------------------------------


def _marginals(g: TannerGraph, llr: np.ndarray, c2v: np.ndarray) -> np.ndarray:
    """Posterior LLRs from check-column messages, plus the sentinel's +inf:
    one gather of every variable's check messages, one sum over its rows."""
    marginals = np.empty(g.n_vars + 1)
    # A reduce over axis 0 adds row by row while there are two or more
    # columns.  One column means n_vars == 1: every check then has degree
    # 1 and sends +50, and any order of those sums gives the same bits.
    total = np.add.reduce(c2v.reshape(-1).take(g.var_slots), axis=0, initial=0.0,
                          out=marginals[:-1])
    total += llr
    marginals[-1] = np.inf
    return marginals


def _check_update(v2c: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the check-to-variable messages for the
    check-column messages ``v2c``: the extrinsic tanh-half product rule.
    ``v2c`` is spent as scratch space.

    Any zero extrinsic input forces a zero output; every other case is
    2*atanh of the product of tanh(|m|/2), capped at the clamp.  An input
    counts as zero when tanh(|m|/2) is, which also catches the smallest
    subnormals.

    The passes, and why each gives the bits of the plain rule:

    - tanh(|m| * 0.5) in place, without the clamp before it: tanh(y) is
      exactly 1.0 for every y >= 19, so min(|m|, 50) / 2 and |m| / 2 give
      the same tanh.  Multiplying by 0.5 is dividing by 2.
    - The zero mask, the 1.0 put in for log and the final zeroing are
      made only when some tanh is 0.
    - log, then per-check sums: ``add.reduce`` over axis 0 from 0.0 adds
      the rows in edge order, as the plain loop does; ``logical_xor``
      gives the parity of negative inputs.
    - The extrinsic sum, exp, the cap at 1 and arctanh, in ``out``.
    - min(a, 25) times +2 or -2, the factor taken by the sign flip from a
      two-entry table: 2 * min(a, 25) is min(2a, 50), and a * -2 is
      -(2a), bit for bit and -0.0 included.  A masked negation would
      give the same bits, but a masked ufunc runs its inner loop once per
      run of True values in the mask.
    """
    negative = v2c < 0.0
    t = np.abs(v2c, out=v2c)
    t *= 0.5
    np.tanh(t, out=t)
    any_zero = t.min() == 0.0
    if any_zero:
        zero = t == 0.0
        np.copyto(t, 1.0, where=zero)
    log_t = np.log(t, out=t)
    log_sum = np.add.reduce(log_t, axis=0, initial=0.0)
    flip = np.logical_xor(np.logical_xor.reduce(negative, axis=0), negative, out=negative)

    np.subtract(log_sum, log_t, out=out)  # the extrinsic log sums
    np.exp(out, out=out)
    np.minimum(out, 1.0, out=out)
    with np.errstate(divide="ignore"):  # arctanh(1) is inf before the cap
        np.arctanh(out, out=out)
    np.minimum(out, LLR_CLAMP / 2, out=out)
    out *= _TIMES_TWO.take(flip, out=v2c, mode="clip")
    if any_zero:
        np.copyto(out, 0.0, where=zero.sum(axis=0) > zero)


def float_bp(g: TannerGraph, llr, iterations: int):
    """Yield the float BP marginals after 0, 1, ..., ``iterations``.

    Each yielded array is new and is not written again.  ``llr`` must
    be finite (``ValueError`` otherwise); erasure-channel outputs go to
    ``bec_unresolved``.
    """
    iterations = at_least(iterations, "iterations")
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (g.n_vars,):
        raise ValueError(f"llr must have length {g.n_vars}")
    require_finite(llr)
    c2v = np.zeros(g.chk_cols.shape)
    v2c = np.empty(g.chk_cols.shape)
    marginals = _marginals(g, llr, c2v)
    yield marginals[:-1]
    for _ in range(iterations):
        # Every index is in range; "clip" lets take write to out unbuffered.
        marginals.take(g.chk_cols, out=v2c, mode="clip")
        v2c -= c2v
        _check_update(v2c, c2v)
        c2v[0, -1] = 0.0  # the slot that the marginals' padding reads
        marginals = _marginals(g, llr, c2v)
        yield marginals[:-1]


@dataclass
class DecodeResult:
    hard_bits: np.ndarray
    marginals: np.ndarray


def require_finite(llr: np.ndarray) -> None:
    """Raise ``ValueError`` unless every LLR is finite, as float BP needs."""
    if not np.isfinite(llr).all():
        raise ValueError("llr must be finite; decode erasures with bec_unresolved")


def decode(g: TannerGraph, llr, iterations: int) -> DecodeResult:
    """Hard decisions and marginals after a fixed number of iterations.

    The iteration count is fixed; there is no early syndrome stop.  Zero
    marginals (exact ties) decide to bit 0; error accounting for those
    ties lives with the Monte Carlo harness.  Non-finite LLRs raise
    ``ValueError``; erasure-channel outputs go to ``bec_unresolved``.
    """
    for marginals in float_bp(g, llr, iterations):
        pass
    hard = (marginals < 0).astype(np.uint8)
    return DecodeResult(hard_bits=hard, marginals=marginals)


def bec_unresolved(g: TannerGraph, erased, iterations: int):
    """Yield the bits flooding BP leaves erased after 0, 1, ..., ``iterations``.

    ``erased`` is a ``(trials, n_vars)`` bool block of channel erasures,
    one row per trial.  Each yielded ``(trials, n_vars)`` bool mask marks
    the bits whose marginal is still erased after that many iterations
    of flooding erasure BP; every other bit is decoded correctly.

    On the BEC a message is either erased or certainly right.  A
    check-to-variable message is known iff every other input of the
    check is known, and a variable-to-check message is erased iff the
    channel bit and every other incoming check message are erased.  The
    one case where a variable-to-check message differs from "is the
    variable resolved" is a variable resolved only through check c; but
    then every other neighbour of c was already resolved, so nothing new
    can flow out of c.  Flooding BP therefore resolves, per iteration,
    exactly the unresolved variables that sit on a check with a single
    unresolved neighbour.  The kernel counts unresolved neighbours per
    check over the rows of the transposed sentinel-padded tables
    ``chk_adj.T`` and ``var_adj.T``, in the smallest unsigned dtype that
    holds the largest check degree, so any alist degree is safe.
    """
    iterations = at_least(iterations, "iterations")
    erased = np.asarray(erased, dtype=bool)
    if erased.ndim != 2 or erased.shape[1] != g.n_vars:
        raise ValueError(f"erased must have shape (trials, {g.n_vars})")
    n_trials = erased.shape[0]
    count = np.min_scalar_type(int(g.check_degrees.max(initial=0)))

    # One row per node; the padded sentinel rows stay 0.
    unresolved = np.zeros((g.n_vars + 1, n_trials), dtype=bool)
    unresolved[:-1] = erased.T
    yield erased
    for _ in range(iterations):
        per_check = np.zeros((g.n_checks + 1, n_trials), dtype=count)
        for col in g.chk_adj.T:
            per_check += unresolved[col]
        single = per_check == 1
        peeled = np.zeros_like(unresolved)
        for col in g.var_adj.T:
            peeled |= single[col]
        unresolved = unresolved & ~peeled
        yield unresolved[:-1].T
