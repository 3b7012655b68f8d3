"""Hot numeric kernels, vectorized with numpy: the skip-gram epoch and
DBSCAN labelling."""

from __future__ import annotations

import math

import numpy as np

# perfbench records this flag in its environment report and in its model
# cache key; every kernel here is numpy.
USING_NUMBA = False

_M32 = 0xFFFFFFFF


def sgns_epoch(pairs, comp_idx, comp_off, w_in, w_out, neg_table, n_neg, lr, state):
    """One epoch of skip-gram negative sampling, sequential over pairs.

    The input representation of a center token is the mean of its
    composition rows (word row + subword bucket rows) in w_in.  Target
    rows are snapshotted per pair, so duplicate negatives see the same
    rows.  Negatives come from an xorshift32 stream; returns its state.
    """
    tlen = len(neg_table)
    for i in range(pairs.shape[0]):
        c = pairs[i, 0]
        o = pairs[i, 1]
        rows = comp_idx[comp_off[c]:comp_off[c + 1]]
        h = w_in[rows].mean(axis=0)
        targets = [o]
        for _ in range(n_neg):
            state = state ^ ((state << 13) & _M32)
            state = state ^ (state >> 17)
            state = state ^ ((state << 5) & _M32)
            t = int(neg_table[state % tlen])
            if t == o:
                continue
            targets.append(t)
        tarr = np.asarray(targets, dtype=np.int64)
        labels = np.zeros(len(targets))
        labels[0] = 1.0
        snapshot = w_out[tarr]
        dots = np.clip(snapshot @ h, -30.0, 30.0)
        sig = np.array([1.0 / (1.0 + math.exp(-x)) for x in dots])
        g = lr * (labels - sig)
        grad = g @ snapshot
        np.add.at(w_out, tarr, g[:, None] * h)
        np.add.at(w_in, rows, grad / len(rows))
    return state


def dbscan_labels(X, eps, min_pts):
    """Density clustering over Euclidean distance; noise = -1.

    Cluster ids follow scan order of the first core point; a border
    point joins the earliest-formed cluster owning a core neighbor.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    X = np.ascontiguousarray(X, dtype=np.float64)
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
    _, comp = connected_components(csr_matrix(sub), directed=False)
    remap = {}
    ids = np.empty(core_idx.size, np.int64)
    for posn, c in enumerate(comp):  # core_idx is ascending, so first-seen order
        if c not in remap:
            remap[c] = len(remap)
        ids[posn] = remap[c]
    labels[core_idx] = ids
    border_idx = np.flatnonzero(~core)
    if border_idx.size:
        near = adj[np.ix_(border_idx, core_idx)]
        for r, i in enumerate(border_idx):
            hits = np.flatnonzero(near[r])
            if hits.size:
                labels[i] = ids[hits].min()
    return labels
