"""Hot numeric kernels, vectorized with numpy: the skip-gram epoch and
DBSCAN labelling."""

from __future__ import annotations

import functools
import math

import numpy as np

# perfbench records this flag in its environment report and in its model
# cache key; every kernel here is numpy.
USING_NUMBA = False

# Pairs planned at a time and xorshift32 states made per jump-table lookup:
# both bound the memory the plan takes, whatever the epoch's length.
_PLAN_BLOCK = 256
_JUMP_STEPS = 256
_BITS = np.arange(32)


@functools.lru_cache(maxsize=None)
def _jump_table():
    """Row i, column b: the xorshift32 state i + 1 steps on from 1 << b."""
    table = np.empty((_JUMP_STEPS, 32), np.uint32)
    v = np.uint32(1) << _BITS.astype(np.uint32)
    for i in range(_JUMP_STEPS):
        v ^= v << np.uint32(13)
        v ^= v >> np.uint32(17)
        v ^= v << np.uint32(5)
        table[i] = v
    table.flags.writeable = False  # one table shared by every call
    return table


def _xorshift_states(state, count):
    """The next count states of the xorshift32 stream from a 32-bit state,
    and the last one.  A step is linear over GF(2)^32, so the state i + 1
    steps on is the XOR of the jump table's row i over the bits set in
    state."""
    table = _jump_table()
    out = np.empty(count, np.int64)
    for a in range(0, count, _JUMP_STEPS):
        run = np.bitwise_xor.reduce(
            table[:min(_JUMP_STEPS, count - a), (state >> _BITS) & 1 == 1], axis=1)
        out[a:a + run.size] = run
        state = int(run[-1])
    return out, state


def _plan_block(pairs, comp_idx, comp_off, neg_starts, neg_slots, n_neg, state, n_in):
    """Everything a block of pairs needs that does not depend on the weights.

    A draw picks slot draw % neg_slots of the unigram table whose word k
    owns the slots from neg_starts[k] up to the next word's start; the
    word is the last one that starts at or before the slot, so words that
    own no slot are never picked.

    Returns (idx, ends, ks, distinct, state): per pair, in one flat array,
    the rows of the stacked weight matrix it touches (its composition
    rows, then o and the negatives that are not o, offset by n_in), the
    end of each pair's run in idx, its composition row count, and whether
    no row repeats within the pair.
    """
    n = pairs.shape[0]
    draws, state = _xorshift_states(state, n * n_neg)
    lo = comp_off[pairs[:, 0]]
    ks = comp_off[pairs[:, 0] + 1] - lo
    span = np.arange(int(ks.max()))  # composition rows padded to the longest; keep drops the padding
    full = np.concatenate((
        comp_idx[np.minimum(lo[:, None] + span, len(comp_idx) - 1)],
        pairs[:, 1:] + n_in,
        np.searchsorted(neg_starts, draws.reshape(n, n_neg) % neg_slots, "right")
        + (n_in - 1)), axis=1)
    targets = full[:, span.size:]
    keep = np.concatenate((span < ks[:, None], targets != targets[:, :1]), axis=1)
    keep[:, span.size] = True  # o itself
    idx = full[keep]  # row-major: each pair's rows, then its targets in draw order
    ends = np.cumsum(keep.sum(axis=1))
    # dropped slots get distinct negative fillers, so only kept rows can repeat
    full = np.where(keep, full, -1 - np.arange(full.shape[1]))
    full.sort(axis=1)
    distinct = (full[:, 1:] != full[:, :-1]).all(axis=1)
    return idx, ends, ks, distinct, state


def sgns_epoch(pairs, comp_idx, comp_off, w, n_in, neg_starts, neg_slots, n_neg, lr,
               state):
    """One epoch of skip-gram negative sampling, sequential over pairs.

    w holds the input rows w_in (its first n_in rows: words, then subword
    buckets) and below them the output rows w_out (one per word), and is
    updated in place.  The input representation of a center word c is
    the mean h of its composition rows (word row + subword bucket rows)
    in w_in.  Its targets are the context word o (label 1) and the n_neg
    draws of an xorshift32 stream that are not o (label 0).  A draw picks
    slot draw % neg_slots of the unigram table that neg_starts, each
    word's first slot in ascending order, describes (see _plan_block).
    Each pair takes g = lr * (label - sigmoid(clip(target rows @ h)))
    and adds g * h to the target rows and (g @ target rows) / len(rows) to
    the composition rows, both from the rows as they were before the
    pair.  Returns the stream's state.

    The draws, targets and rows do not depend on the weights, so they are
    planned _PLAN_BLOCK pairs at a time.  Each pair then gathers its rows
    of w in one take, updates them and writes them back in one
    assignment.  A pair whose rows repeat (a negative drawn twice, or two
    n-grams in one bucket) would keep only one of its updates to a
    repeated row in that write-back, so it adds them with np.add.at,
    which applies them one after the other.  The weights come out
    bit-identical to adding pair by pair with np.add.at.
    """
    take, matmul, add_at, array = w.take, np.matmul, np.add.at, np.array
    add_reduce, outer, exp = np.add.reduce, np.multiply.outer, math.exp
    for b in range(0, pairs.shape[0], _PLAN_BLOCK):
        idx, ends, ks, distinct, state = _plan_block(
            pairs[b:b + _PLAN_BLOCK], comp_idx, comp_off, neg_starts, neg_slots, n_neg,
            state, n_in)
        a = 0
        for end, k, ok in zip(ends.tolist(), ks.tolist(), distinct.tolist()):
            ix = idx[a:end]
            a = end
            block = take(ix, axis=0)
            rows = block[:k]
            snapshot = block[k:]
            h = add_reduce(rows, axis=0)
            h /= k  # as rows.mean(axis=0) computes it
            g = []
            label = 1.0
            for x in matmul(snapshot, h).tolist():
                x = 30.0 if x > 30.0 else -30.0 if x < -30.0 else x
                g.append(lr * (label - 1.0 / (1.0 + exp(-x))))
                label = 0.0
            g = array(g)
            grad = matmul(g, snapshot)
            grad /= k
            if ok:
                snapshot += outer(g, h)
                rows += grad
                w[ix] = block
            else:  # the block becomes the updates
                rows[...] = grad
                outer(g, h, out=snapshot)
                add_at(w, ix, block)
    return state


def dbscan_labels(X, eps, min_pts):
    """Density clustering over Euclidean distance; noise = -1.

    Cluster ids follow scan order of the first core point; a border
    point joins the earliest-formed cluster owning a core neighbor.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.size == 0:
        return np.zeros(0, np.int64)
    eps2 = float(eps) * float(eps)
    n = X.shape[0]
    xx = (X * X).sum(axis=1)
    d2 = xx[:, None] + xx[None, :] - 2.0 * (X @ X.T)
    adj = d2 <= eps2
    core = adj.sum(axis=1) >= int(min_pts)
    labels = np.full(n, -1, np.int64)
    core_idx = np.flatnonzero(core)
    if core_idx.size == 0:
        return labels
    sub = adj[np.ix_(core_idx, core_idx)]
    ids = np.full(core_idx.size, -1, np.int64)
    cluster = 0
    for seed in range(core_idx.size):  # core_idx is ascending, so first-seen order
        if ids[seed] >= 0:
            continue
        frontier = np.zeros(core_idx.size, bool)
        frontier[seed] = True
        ids[seed] = cluster
        while frontier.any():  # one BFS level over the core graph per step
            frontier = sub[frontier].any(axis=0) & (ids < 0)
            ids[frontier] = cluster
        cluster += 1
    labels[core_idx] = ids
    border_idx = np.flatnonzero(~core)
    if border_idx.size:
        near = adj[np.ix_(border_idx, core_idx)]
        for r, i in enumerate(border_idx):
            hits = np.flatnonzero(near[r])
            if hits.size:
                labels[i] = ids[hits].min()
    return labels
