from __future__ import annotations

import math

import numpy as np

from provstp import _kernels
from test_anomaly import oracle_dbscan


def sgns_epoch_loop(pairs, comp_idx, comp_off, w_in, w_out, neg_table, n_neg, lr, state):
    """Scalar-loop reference for _kernels.sgns_epoch: the same update
    order and sampling sequence, written one float at a time."""
    d = w_in.shape[1]
    tlen = neg_table.shape[0]
    h = np.empty(d)
    grad = np.empty(d)
    rows_buf = np.empty((n_neg + 1, d))
    targets = np.empty(n_neg + 1, np.int64)
    labels = np.empty(n_neg + 1)
    for i in range(pairs.shape[0]):
        c = pairs[i, 0]
        o = pairs[i, 1]
        lo = comp_off[c]
        hi = comp_off[c + 1]
        k = hi - lo
        for j in range(d):
            h[j] = 0.0
        for r in range(lo, hi):
            row = comp_idx[r]
            for j in range(d):
                h[j] += w_in[row, j]
        inv = 1.0 / k
        for j in range(d):
            h[j] *= inv
        targets[0] = o
        labels[0] = 1.0
        m = 1
        for _ in range(n_neg):
            state = state ^ ((state << 13) & 0xFFFFFFFF)
            state = state ^ (state >> 17)
            state = state ^ ((state << 5) & 0xFFFFFFFF)
            t = neg_table[state % tlen]
            if t == o:
                continue
            targets[m] = t
            labels[m] = 0.0
            m += 1
        for s in range(m):
            t = targets[s]
            for j in range(d):
                rows_buf[s, j] = w_out[t, j]
        for j in range(d):
            grad[j] = 0.0
        for s in range(m):
            dot = 0.0
            for j in range(d):
                dot += h[j] * rows_buf[s, j]
            if dot > 30.0:
                dot = 30.0
            elif dot < -30.0:
                dot = -30.0
            g = lr * (labels[s] - 1.0 / (1.0 + math.exp(-dot)))
            for j in range(d):
                grad[j] += g * rows_buf[s, j]
            t = targets[s]
            for j in range(d):
                w_out[t, j] += g * h[j]
        gscale = 1.0 / k
        for r in range(lo, hi):
            row = comp_idx[r]
            for j in range(d):
                w_in[row, j] += grad[j] * gscale
    return state


def _sgns_inputs(seed=3, n_pairs=400, nv=6, d=8):
    rs = np.random.RandomState(seed)
    pairs = rs.randint(0, nv, size=(n_pairs, 2)).astype(np.int64)
    # every token composed of its word row plus one shared bucket row
    comp_off = np.arange(0, 2 * nv + 1, 2, dtype=np.int64)
    comp_idx = np.empty(2 * nv, np.int64)
    for i in range(nv):
        comp_idx[2 * i] = i
        comp_idx[2 * i + 1] = nv + (i % 3)
    w_in = (rs.rand(nv + 3, d) - 0.5) / d
    w_out = np.zeros((nv, d))
    neg_table = rs.randint(0, nv, size=4096).astype(np.int64)
    return pairs, comp_idx, comp_off, w_in, w_out, neg_table


def _run(fn, seed=3):
    pairs, comp_idx, comp_off, w_in, w_out, neg_table = _sgns_inputs(seed)
    state = fn(pairs, comp_idx, comp_off, w_in, w_out, neg_table, 5, 0.05, 12345)
    return state, w_in, w_out


def test_sgns_numpy_matches_loop_reference():
    s1, in1, out1 = _run(sgns_epoch_loop)
    s2, in2, out2 = _run(_kernels.sgns_epoch)
    assert s1 == s2  # identical sampling sequence
    np.testing.assert_allclose(in1, in2, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(out1, out2, rtol=1e-9, atol=1e-12)


def _blob_data(seed=0):
    rs = np.random.RandomState(seed)
    a = rs.randn(20, 4) * 0.05
    b = rs.randn(25, 4) * 0.05 + 10.0
    noise = rs.randn(5, 4) * 0.05 + 100.0 * np.arange(1, 6)[:, None]
    return np.vstack([a, b, noise])


def test_dbscan_numpy_matches_loop_reference():
    for seed in range(3):
        X = _blob_data(seed)
        labels = _kernels.dbscan_labels(X, 0.5, 3)
        assert labels.tolist() == oracle_dbscan(X, 0.5, 3)


def test_dbscan_labels_dispatch():
    X = _blob_data(2)
    labels = _kernels.dbscan_labels(X, 0.5, 3)
    assert labels.shape == (50,)
    assert set(labels) == {0, 1, -1}
