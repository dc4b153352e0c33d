"""Flooding belief propagation on Tanner graphs.

One iteration recomputes every variable-to-check message from the
previous check-to-variable messages, then every check-to-variable
message from those fresh variable-to-check messages.  Marginals after l
iterations combine the channel LLR with the iteration-l check messages.

``decode`` runs the float tanh rule on any LLR vector and is the
reference path.  Infinite LLRs (erasure-channel certainties) are handled
symbolically: sums cancel opposite infinities in pairs, and the
tanh-product rule only emits an infinite message when every extrinsic
input is infinite.  Finite messages are clamped to +/-50 going into
tanh/atanh so nothing overflows while erasure decoding stays exact.

On the erasure channel every message is either erased or certainly
right, so the same flooding schedule reduces to erasure counting
(Luby et al., IEEE Trans. IT 47(2), 2001): ``bec_unresolved`` runs it on
a block of trials at once with small integer counts instead of floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tanner import TannerGraph

LLR_CLAMP = 50.0


def _scatter(values: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    # bincount returns int64 zeros for an empty index, even with weights.
    return np.bincount(index, weights=values, minlength=size).astype(np.float64, copy=False)


def v2c_update(g: TannerGraph, llr: np.ndarray, c2v: np.ndarray) -> np.ndarray:
    """Variable-to-check messages: channel LLR plus extrinsic check messages.

    Opposite infinities cancel pairwise; any surplus of one sign makes
    the outgoing message infinite with that sign.
    """
    ev = g.edge_var
    pos = c2v == np.inf
    neg = c2v == -np.inf
    finite = np.isfinite(c2v)
    fin_per_var = _scatter(np.where(finite, c2v, 0.0), ev, g.n_vars)
    pos_per_var = _scatter(pos.astype(np.float64), ev, g.n_vars)
    neg_per_var = _scatter(neg.astype(np.float64), ev, g.n_vars)
    fin_per_var += np.where(np.isfinite(llr), llr, 0.0)
    pos_per_var += llr == np.inf
    neg_per_var += llr == -np.inf

    e_fin = fin_per_var[ev] - np.where(finite, c2v, 0.0)
    net_inf = (pos_per_var[ev] - pos) - (neg_per_var[ev] - neg)
    return np.where(net_inf > 0, np.inf, np.where(net_inf < 0, -np.inf, e_fin))


def c2v_update(g: TannerGraph, v2c: np.ndarray) -> np.ndarray:
    """Check-to-variable messages: extrinsic tanh-half product rule.

    Any zero extrinsic input forces a zero output; an all-infinite
    extrinsic set yields an infinite output with the product sign; every
    other case is 2*atanh of the product of tanh(|m|/2), capped at the
    finite clamp.
    """
    ec = g.edge_chk
    zero = v2c == 0.0
    negative = v2c < 0.0
    infinite = np.isinf(v2c)
    mag = np.clip(np.abs(v2c), 0.0, LLR_CLAMP)
    with np.errstate(divide="ignore"):
        log_t = np.log(np.tanh(mag / 2.0))
    log_t = np.where(zero, 0.0, log_t)

    zero_per_chk = _scatter(zero.astype(np.float64), ec, g.n_checks)
    neg_per_chk = _scatter(negative.astype(np.float64), ec, g.n_checks)
    fin_per_chk = _scatter((~infinite).astype(np.float64), ec, g.n_checks)
    log_per_chk = _scatter(log_t, ec, g.n_checks)

    e_zero = zero_per_chk[ec] - zero
    e_neg = (neg_per_chk[ec] - negative).astype(np.int64)
    e_fin = fin_per_chk[ec] - (~infinite)
    e_log = log_per_chk[ec] - log_t

    sign = np.where(e_neg % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", over="ignore"):
        product = np.minimum(np.exp(e_log), 1.0)
        magnitude = np.minimum(2.0 * np.arctanh(product), LLR_CLAMP)
    out = sign * magnitude
    out[e_fin == 0] = (sign * np.inf)[e_fin == 0]
    out[e_zero > 0] = 0.0
    return out


def bp_marginals(g: TannerGraph, llr: np.ndarray, c2v: np.ndarray) -> np.ndarray:
    """Posterior LLR per variable: channel LLR plus all incoming check messages."""
    ev = g.edge_var
    pos = c2v == np.inf
    neg = c2v == -np.inf
    finite = np.isfinite(c2v)
    fin = _scatter(np.where(finite, c2v, 0.0), ev, g.n_vars)
    fin += np.where(np.isfinite(llr), llr, 0.0)
    net = _scatter(pos.astype(np.float64), ev, g.n_vars) + (llr == np.inf)
    net -= _scatter(neg.astype(np.float64), ev, g.n_vars) + (llr == -np.inf)
    return np.where(net > 0, np.inf, np.where(net < 0, -np.inf, fin))


@dataclass
class BpState:
    """Per-edge message arrays after ``iteration`` full flooding iterations."""

    v2c: np.ndarray
    c2v: np.ndarray
    iteration: int


def initial_state(g: TannerGraph) -> BpState:
    return BpState(
        v2c=np.zeros(g.n_edges), c2v=np.zeros(g.n_edges), iteration=0
    )


def bp_step(g: TannerGraph, llr: np.ndarray, state: BpState) -> BpState:
    """Run one full flooding iteration."""
    v2c = v2c_update(g, llr, state.c2v)
    c2v = c2v_update(g, v2c)
    return BpState(v2c=v2c, c2v=c2v, iteration=state.iteration + 1)


@dataclass
class DecodeResult:
    hard_bits: np.ndarray
    marginals: np.ndarray


def decode(g: TannerGraph, llr, iterations: int) -> DecodeResult:
    """Hard decisions and marginals after a fixed number of iterations.

    The iteration count is fixed; there is no early syndrome stop.  Zero
    marginals (unresolved erasures) decide to bit 0; error accounting
    for those ties lives with the Monte Carlo harness.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (g.n_vars,):
        raise ValueError(f"llr must have length {g.n_vars}")
    state = initial_state(g)
    for _ in range(iterations):
        state = bp_step(g, llr, state)
    marginals = bp_marginals(g, llr, state.c2v)
    hard = (marginals < 0).astype(np.uint8)
    return DecodeResult(hard_bits=hard, marginals=marginals)


def bec_unresolved(g: TannerGraph, erased, iterations: int):
    """Yield the bits flooding BP leaves erased after 0, 1, ..., ``iterations``.

    ``erased`` is a ``(trials, n_vars)`` bool block of channel erasures,
    one row per trial.  Each yielded ``(trials, n_vars)`` bool mask marks
    the bits whose marginal is still zero, bit for bit the same as
    ``decode(g, llr, l).marginals == 0`` for ``llr`` 0 on erasures and
    +/-inf elsewhere; every other bit is decoded correctly.

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
