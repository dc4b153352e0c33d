"""Flooding belief propagation on Tanner graphs.

One iteration recomputes every variable-to-check message from the
previous check-to-variable messages, then every check-to-variable
message from those fresh variable-to-check messages.  Marginals after l
iterations combine the channel LLR with the iteration-l check messages.

``decode`` runs the float tanh rule and is the decoder for the BSC and
BI-AWGN.  It takes finite LLRs only.  Check messages are capped at
+/-50, so every message and marginal stays finite; a check with no
other input sends +50, as any other certain check does.

On the erasure channel every message is either erased or certainly
right, so the same flooding schedule reduces to erasure counting
(Luby et al., IEEE Trans. IT 47(2), 2001): ``bec_unresolved`` runs it on
a block of trials at once with small integer counts instead of floats.
The BEC's infinite LLRs go only there, as the erasure pattern
``llr == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tanner import TannerGraph

LLR_CLAMP = 50.0


def _scatter(values: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    # bincount returns int64 zeros for an empty index, even with weights.
    return np.bincount(index, weights=values, minlength=size).astype(np.float64, copy=False)


def bp_marginals(g: TannerGraph, llr: np.ndarray, c2v: np.ndarray) -> np.ndarray:
    """Posterior LLR per variable: channel LLR plus all incoming check messages."""
    return _scatter(c2v, g.edge_var, g.n_vars) + llr


def v2c_update(g: TannerGraph, llr: np.ndarray, c2v: np.ndarray) -> np.ndarray:
    """Variable-to-check messages: channel LLR plus extrinsic check messages."""
    return bp_marginals(g, llr, c2v)[g.edge_var] - c2v


def c2v_update(g: TannerGraph, v2c: np.ndarray) -> np.ndarray:
    """Check-to-variable messages: extrinsic tanh-half product rule.

    Any zero extrinsic input forces a zero output; every other case is
    2*atanh of the product of tanh(|m|/2), capped at the clamp.  An input
    counts as zero when tanh(|m|/2) is, which also catches the smallest
    subnormals.
    """
    ec = g.edge_chk
    negative = v2c < 0.0
    t = np.tanh(np.minimum(np.abs(v2c), LLR_CLAMP) / 2.0)
    zero = t == 0.0
    log_t = np.log(np.where(zero, 1.0, t))

    zero_per_chk = _scatter(zero.astype(np.float64), ec, g.n_checks)
    neg_per_chk = _scatter(negative.astype(np.float64), ec, g.n_checks)
    log_per_chk = _scatter(log_t, ec, g.n_checks)

    e_zero = zero_per_chk[ec] - zero
    e_neg = (neg_per_chk[ec] - negative).astype(np.int64)
    e_log = log_per_chk[ec] - log_t

    sign = np.where(e_neg % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore"):  # arctanh(1) is inf before the cap
        product = np.minimum(np.exp(e_log), 1.0)
        magnitude = np.minimum(2.0 * np.arctanh(product), LLR_CLAMP)
    out = sign * magnitude
    out[e_zero > 0] = 0.0
    return out


def bp_step(g: TannerGraph, llr: np.ndarray, c2v: np.ndarray) -> np.ndarray:
    """Run one full flooding iteration; returns the new check-to-variable messages."""
    return c2v_update(g, v2c_update(g, llr, c2v))


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
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (g.n_vars,):
        raise ValueError(f"llr must have length {g.n_vars}")
    require_finite(llr)
    c2v = np.zeros(g.n_edges)
    for _ in range(iterations):
        c2v = bp_step(g, llr, c2v)
    marginals = bp_marginals(g, llr, c2v)
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
    check over the sentinel-padded ``chk_adj``/``var_adj`` tables, in
    the smallest unsigned dtype that holds the largest check degree, so
    any alist degree is safe.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    erased = np.asarray(erased, dtype=bool)
    if erased.ndim != 2 or erased.shape[1] != g.n_vars:
        raise ValueError(f"erased must have shape (trials, {g.n_vars})")
    n_trials = erased.shape[0]
    count = np.min_scalar_type(int(g.check_degrees.max(initial=0)))
    # One row per table column; the padded sentinel rows stay 0.
    chk_cols = np.ascontiguousarray(g.chk_adj.T)
    var_cols = np.ascontiguousarray(g.var_adj.T)

    unresolved = np.zeros((g.n_vars + 1, n_trials), dtype=bool)
    unresolved[:-1] = erased.T
    yield erased
    for _ in range(iterations):
        per_check = np.zeros((g.n_checks + 1, n_trials), dtype=count)
        for col in chk_cols:
            per_check += unresolved[col]
        single = per_check == 1
        peeled = np.zeros_like(unresolved)
        for col in var_cols:
            peeled |= single[col]
        unresolved = unresolved & ~peeled
        yield unresolved[:-1].T
