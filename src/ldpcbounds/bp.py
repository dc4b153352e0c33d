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
check c, w being the largest check degree.  A per-check product is then
a loop over a few rows, each pass as wide as the number of checks.
Padding slots, and the sentinel column, read the marginal +inf
of the sentinel variable, so their variable-to-check message is +inf and
their tanh is exactly 1.0, which leaves every product it enters as it
was.  A marginal gathers its check messages through
``TannerGraph.var_slots``; its padding reads the sentinel column, which
is held at 0.

Multiplication and summation order are part of the output.  Each check
message to edge j multiplies the tanh values of the edges before j, in
edge order from 1.0, by those of the edges after j, from the last edge
back, also from 1.0.  Each variable adds its check messages in ascending
check order, starting from 0.0, and then the channel LLR: the order of a
``bincount`` over the canonical edge list.  So the float results are
those of an edge-ordered kernel with these orders, bit for bit.  numpy's
axis-0 ``add.reduce`` keeps that row order only while the other axis has
length 2 or more; ``var_slots`` has a column per variable, and over a
single variable every check message is the same +50.

An iteration is a fixed list of whole-array passes: one gather of
variable-to-check messages, one subtraction, the check update (whose
passes, and why each is exact or safe, ``_check_update`` lists) and one gather
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
    check-column messages ``v2c``: the extrinsic tanh-half product rule,
    2 * atanh of the product of the other inputs' tanh(m/2), capped at the
    clamp.  ``v2c`` is spent as scratch space.

    The passes, and why each is exact or safe:

    - tanh(m * 0.5) in place, sign kept, with no clamp before it: tanh(y)
      is exactly +/-1.0 for every |y| >= 19, so min(|m|, 50) / 2 and m / 2
      give the same tanh.  Multiplying by 0.5 is dividing by 2.
    - Row j of ``out`` gets the product of rows 0..j-1, multiplied top-down
      from the empty product 1.0; then a running product of the rows below
      it, multiplied bottom-up, multiplies into it.  A zero input (an exact
      zero, or a subnormal whose tanh(m/2) is 0) zeroes every product it
      enters, so zeros need no mask.  Padding rows hold tanh(+inf) = 1.0,
      and multiplying by 1.0 is exact, so a padded check gets the bits of
      one over its real edges only; a check with no other input gets 1.0.
    - arctanh in place.  Every factor has |t| <= 1, so |product| <= 1 needs
      no cap, and arctanh(+/-1) is +/-inf before the clip.
    - Clip to +/-25, then double: 2 * clip(a, -25, 25) is the sign of a
      times min(2|a|, 50), bit for bit, since doubling is exact.
    """
    t = np.multiply(v2c, 0.5, out=v2c)
    np.tanh(t, out=t)
    out[0] = 1.0
    for j in range(1, len(t)):
        np.multiply(out[j - 1], t[j - 1], out=out[j])
    below = t[-1].copy()
    for j in range(len(t) - 2, -1, -1):
        out[j] *= below
        below *= t[j]
    with np.errstate(divide="ignore"):  # arctanh(+/-1) is +/-inf before the clip
        np.arctanh(out, out=out)
    np.clip(out, -LLR_CLAMP / 2, LLR_CLAMP / 2, out=out)
    out *= 2.0


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
