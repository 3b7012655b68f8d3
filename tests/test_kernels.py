from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from provstp import _kernels, embed
from test_anomaly import oracle_dbscan
from test_embed import SMALL, negative_table

_M32 = 0xFFFFFFFF


def sgns_epoch_pairwise(pairs, comp_idx, comp_off, w_in, w_out, neg_table, n_neg, lr, state):
    """Pair-by-pair numpy reference for _kernels.sgns_epoch: each pair
    draws its negatives, snapshots its target rows and adds its updates
    with np.add.at.  The kernel must match it bit for bit."""
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


def sgns_epoch_stacked(pairs, comp_idx, comp_off, w_in, w_out, neg_table, n_neg, lr, state):
    """_kernels.sgns_epoch called with the references' arguments.  The
    table is a negative_table, so each word's first slot is where a
    binary search for the word lands in it."""
    n_in = w_in.shape[0]
    w = np.concatenate((w_in, w_out))
    starts = np.searchsorted(neg_table, np.arange(w_out.shape[0]))
    state = _kernels.sgns_epoch(pairs, comp_idx, comp_off, w, n_in, starts, len(neg_table),
                                n_neg, lr, state)
    w_in[...] = w[:n_in]
    w_out[...] = w[n_in:]
    return state


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


def _random_table(rs, nv, size):
    """The negative table of random word probabilities."""
    probs = rs.rand(nv)
    return negative_table(probs / probs.sum(), size)


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
    return pairs, comp_idx, comp_off, w_in, w_out, _random_table(rs, nv, 4096)


def _run(fn, seed=3):
    pairs, comp_idx, comp_off, w_in, w_out, neg_table = _sgns_inputs(seed)
    state = fn(pairs, comp_idx, comp_off, w_in, w_out, neg_table, 5, 0.05, 12345)
    return state, w_in, w_out


def test_sgns_numpy_matches_loop_reference():
    s1, in1, out1 = _run(sgns_epoch_loop)
    s2, in2, out2 = _run(sgns_epoch_stacked)
    assert s1 == s2  # identical sampling sequence
    np.testing.assert_allclose(in1, in2, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(out1, out2, rtol=1e-9, atol=1e-12)


def _colliding_inputs(seed, n_pairs, nv=7, d=16, table=64):
    """Tokens of one to four composition rows drawn from a few buckets,
    so that some repeat a row (two n-grams in one bucket), and a small
    negative table over few words, so that negatives repeat and hit o.
    A table of fewer slots than words leaves the last words none."""
    rs = np.random.RandomState(seed)
    n_buckets = 3
    comps = [[i] + list(nv + rs.randint(0, n_buckets, size=rs.randint(0, 4)))
             for i in range(nv)]
    comp_off = np.concatenate(([0], np.cumsum([len(c) for c in comps]))).astype(np.int64)
    comp_idx = np.array([r for c in comps for r in c], np.int64)
    pairs = rs.randint(0, nv, size=(n_pairs, 2)).astype(np.int64)
    w_in = (rs.rand(nv + n_buckets, d) - 0.5) / d
    w_out = (rs.rand(nv, d) - 0.5) * 4.0  # large enough that some dots clip at +-30
    return pairs, comp_idx, comp_off, w_in, w_out, _random_table(rs, nv, table)


def _check_against_pairwise(args, seed, n_neg):
    ref = [a.copy() for a in args]
    lr, state = 0.05, 2463534242 + seed
    s_ref = sgns_epoch_pairwise(*ref, n_neg, lr, state)
    s_new = sgns_epoch_stacked(*args, n_neg, lr, state)
    assert s_new == s_ref
    assert np.array_equal(args[3], ref[3])
    assert np.array_equal(args[4], ref[4])


@pytest.mark.parametrize("seed,n_pairs,n_neg", [
    (0, 300, 5),    # repeated negatives, negatives equal to o, repeated composition rows
    (1, 300, 0),    # no negatives: o alone
    (2, 1, 5),      # a single pair
    (3, 0, 5),      # no pairs
    (4, 2 * _kernels._PLAN_BLOCK + 37, 5),  # plan blocks and jump-table runs end mid-epoch
    (5, 600, 9),
])
def test_sgns_epoch_bit_identical_to_pairwise(seed, n_pairs, n_neg):
    _check_against_pairwise(_colliding_inputs(seed, n_pairs), seed, n_neg)


def test_sgns_epoch_never_draws_words_without_slots():
    args = _colliding_inputs(6, 300, table=4)
    assert sorted(set(args[-1].tolist())) == [0, 1, 2, 3]  # of 7 words
    _check_against_pairwise(args, 6, 5)


def test_train_embedding_matches_the_pairwise_reference(monkeypatch):
    """Training with the kernel, which finds each negative's word among
    the word starts, gives the weights that the pairwise reference gives
    reading the whole negative table."""
    corpus = [embed.sentenceize(s) for s in (
        "/usr/bin/python3 -m http.server 8080", "cat /etc/passwd /etc/shadow",
        "curl -X POST http://10.0.0.1/upload", "sshd -D", "/var/log/auth.log")] * 20
    want = embed.train_embedding(corpus, SMALL)
    counts = Counter(t for s in corpus for t in embed.filter_gibberish(s))
    freq = np.array([counts[t] for t in sorted(counts)], dtype=np.float64) ** 0.75
    table = negative_table(freq / freq.sum())

    def reference(pairs, comp_idx, comp_off, w, n_in, neg_starts, neg_slots, n_neg, lr, state):
        assert neg_slots == len(table)
        return sgns_epoch_pairwise(pairs, comp_idx, comp_off, w[:n_in], w[n_in:], table,
                                   n_neg, lr, state)

    monkeypatch.setattr(_kernels, "sgns_epoch", reference)
    got = embed.train_embedding(corpus, SMALL)
    assert got.words.keys() == want.words.keys() and got.buckets.keys() == want.buckets.keys()
    for rows, ref in ((got.words, want.words), (got.buckets, want.buckets)):
        for k, v in rows.items():
            assert np.array_equal(v, ref[k]), k


def test_colliding_inputs_reach_every_case():
    """The inputs above repeat composition rows, repeat negatives and
    draw o as a negative, so both update paths of the kernel run."""
    pairs, comp_idx, comp_off, w_in, w_out, neg_table = _colliding_inputs(0, 300)
    word_starts = np.searchsorted(neg_table, np.arange(w_out.shape[0]))
    idx, ends, ks, distinct, _ = _kernels._plan_block(
        pairs, comp_idx, comp_off, word_starts, len(neg_table), 5, 2463534242, w_in.shape[0])
    assert distinct.any() and not distinct.all()
    starts = np.concatenate(([0], ends[:-1]))
    rows_repeat = targets_repeat = o_drawn = False
    for a, end, k in zip(starts.tolist(), ends.tolist(), ks.tolist()):
        rows, targets = idx[a:a + k].tolist(), idx[a + k:end].tolist()
        rows_repeat |= len(set(rows)) < k
        targets_repeat |= len(set(targets)) < len(targets)
        o_drawn |= len(targets) < 6
    assert rows_repeat and targets_repeat and o_drawn


@pytest.mark.parametrize("state,count", [
    (1, 0), (12345, 1), (2463534242, 3 * _kernels._JUMP_STEPS + 5), (_M32, _kernels._JUMP_STEPS)])
def test_xorshift_states_match_the_scalar_stream(state, count):
    want = []
    s = state
    for _ in range(count):
        s = s ^ ((s << 13) & _M32)
        s = s ^ (s >> 17)
        s = s ^ ((s << 5) & _M32)
        want.append(s)
    got, last = _kernels._xorshift_states(state, count)
    assert got.tolist() == want
    assert last == s


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


def test_train_bundle_does_not_import_scipy_sparse(tmp_path):
    """DBSCAN labels its core components with numpy alone, so training
    never pays for importing scipy.sparse."""
    code = (
        "import sys\n"
        "from provstp import _kernels, cli\n"
        "from provstp.evalgen import GenConfig, write_scenario\n"
        "calls = []\n"
        "real = _kernels.dbscan_labels\n"
        "_kernels.dbscan_labels = lambda *a: calls.append(len(a[0])) or real(*a)\n"
        "events, _ = write_scenario('benign-only', 7, sys.argv[1], GenConfig(duration=60.0))\n"
        "cli.train_bundle(cli._batches(events, 10.0), 'events.jsonl')\n"
        "assert calls, 'DBSCAN never ran'\n"
        "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse was imported'\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
