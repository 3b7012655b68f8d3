from __future__ import annotations

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provstp import embed
from provstp._kernels import dbscan_labels
from provstp.anomaly import (
    AnomalyThreshold,
    ModelBundle,
    VaeConfig,
    VaeModel,
    _init_params,
    anomaly_score,
    build_stability_table,
    calibrate_threshold,
    process_vectors,
    reconstruction_errors,
    score_processes,
    train_vae,
    vae_loss_and_grads,
    window_process_features,
)
from provstp.embed import (EmbedConfig, EmbeddingModel, IdfTable, _fnv1a, _ngrams,
                           embed_sentence, process_vector, sentenceize, train_embedding)
from provstp.model import FileAttrs, IpAttrs, ProcessAttrs, build_window_graph
from streams import event


def oracle_dbscan(X, eps, min_pts):
    """Quadratic union-find DBSCAN, written independently of the kernels."""
    n = len(X)
    pts = [list(map(float, row)) for row in X]
    eps2 = eps * eps

    def d2(i, j):
        return sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))

    nbrs = [[j for j in range(n) if d2(i, j) <= eps2] for i in range(n)]
    core = [len(nbrs[i]) >= min_pts for i in range(n)]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        if core[i]:
            for j in nbrs[i]:
                if core[j]:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
    labels = [-1] * n
    cluster_of_root = {}
    for i in range(n):
        if core[i]:
            r = find(i)
            if r not in cluster_of_root:
                cluster_of_root[r] = len(cluster_of_root)
            labels[i] = cluster_of_root[r]
    for i in range(n):
        if not core[i]:
            owning = [labels[j] for j in nbrs[i] if core[j]]
            if owning:
                labels[i] = min(owning)
    return labels


def _normalize(labels):
    remap = {}
    out = []
    for v in labels:
        v = int(v)
        if v == -1:
            out.append(-1)
            continue
        if v not in remap:
            remap[v] = len(remap)
        out.append(remap[v])
    return out


def test_vae_gradients_match_finite_differences():
    rs = np.random.RandomState(5)
    params = _init_params(4, 2, 1, rs)
    x = rs.randn(3, 4)
    eps = rs.randn(3, 1)
    _, grads = vae_loss_and_grads(params, x, eps, 1.0)
    h = 1e-5
    for k in params:
        fd = np.zeros_like(params[k])
        it = np.nditer(params[k], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[k][idx]
            params[k][idx] = orig + h
            lp, _ = vae_loss_and_grads(params, x, eps, 1.0)
            params[k][idx] = orig - h
            lm, _ = vae_loss_and_grads(params, x, eps, 1.0)
            params[k][idx] = orig
            fd[idx] = (lp - lm) / (2 * h)
        rel = np.abs(grads[k] - fd) / np.maximum(1e-4, np.abs(grads[k]) + np.abs(fd))
        assert rel.max() < 1e-4, k


def test_train_vae_deterministic(tmp_path):
    rs = np.random.RandomState(0)
    data = rs.randn(40, 8)
    cfg = VaeConfig(hidden=6, latent=2, epochs=5, seed=21)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    train_vae(data, cfg).save(str(a))
    train_vae(data, cfg).save(str(b))
    assert a.read_bytes() == b.read_bytes()


def test_train_vae_reduces_error_on_repeated_vector():
    rs = np.random.RandomState(3)
    v = rs.randn(16)
    data = np.tile(v, (200, 1))
    before = train_vae(data, VaeConfig(hidden=8, latent=3, epochs=0, seed=4))
    after = train_vae(data, VaeConfig(hidden=8, latent=3, epochs=50, seed=4))
    assert reconstruction_errors(after, [v])[0] < reconstruction_errors(before, [v])[0]


def test_train_vae_loss_strictly_decreases_early():
    rs = np.random.RandomState(1)
    data = np.vstack([rs.randn(100, 16) * 0.5 + 2.0, rs.randn(100, 16) * 0.5 - 2.0])
    m = train_vae(data, VaeConfig(hidden=8, latent=3, epochs=10, seed=3))
    for i in range(9):
        assert m.epoch_losses[i + 1] < m.epoch_losses[i]


def test_train_vae_needs_two_vectors():
    with pytest.raises(ValueError):
        train_vae(np.ones((1, 4)), VaeConfig(epochs=1))


def test_reconstruction_error_formula():
    cfg = VaeConfig(hidden=2, latent=1)
    zeros = {k: np.zeros_like(v) for k, v in _init_params(2, 2, 1, np.random.RandomState(0)).items()}
    m = VaeModel(2, cfg, zeros)  # all-zero params reconstruct to the zero vector
    errors = reconstruction_errors(m, [[1.0, 0.0], [0.0, 0.0]])
    assert errors.tolist() == pytest.approx([0.5, 0.0])


def test_held_out_benign_reconstructs_better_than_random():
    rs = np.random.RandomState(2)
    train = np.vstack([rs.randn(150, 16) * 0.4 + 1.5, rs.randn(150, 16) * 0.4 - 1.5])
    m = train_vae(train, VaeConfig(hidden=16, latent=4, epochs=40, seed=9))
    held = np.vstack([rs.randn(25, 16) * 0.4 + 1.5, rs.randn(25, 16) * 0.4 - 1.5])
    rnd = rs.randn(50, 16)
    rnd = rnd / np.linalg.norm(rnd, axis=1, keepdims=True) * np.linalg.norm(held, axis=1, keepdims=True)
    assert reconstruction_errors(m, held).mean() < reconstruction_errors(m, rnd).mean()


def test_dbscan_two_blobs():
    rs = np.random.RandomState(7)
    a = rs.randn(12, 3) * 0.05
    b = rs.randn(12, 3) * 0.05 + 100.0
    labels = dbscan_labels(np.vstack([a, b]), eps=1.0, min_pts=3)
    assert set(labels.tolist()) == {0, 1}
    assert len(set(labels[:12].tolist())) == 1 and len(set(labels[12:].tolist())) == 1


def test_dbscan_all_noise():
    pts = np.array([[0.0], [10.0], [20.0], [30.0]])
    labels = dbscan_labels(pts, eps=1.0, min_pts=2)
    assert all(v == -1 for v in labels)


def test_dbscan_no_points():
    for pts in ([], np.zeros((0, 3))):
        labels = dbscan_labels(pts, eps=1.0, min_pts=2)
        assert labels.dtype == np.int64 and labels.shape == (0,)


@pytest.mark.parametrize("seed", range(12))
def test_dbscan_matches_bruteforce_oracle(seed):
    rs = np.random.RandomState(seed)
    n = rs.randint(20, 80)
    centers = rs.randn(rs.randint(1, 5), 3) * 4.0
    pts = np.vstack([c + rs.randn(n // len(centers) + 1, 3) * rs.uniform(0.2, 1.0)
                     for c in centers])[:n]
    eps = rs.uniform(0.4, 1.5)
    min_pts = rs.randint(2, 6)
    ours = _normalize(dbscan_labels(pts, eps, min_pts))
    ref = _normalize(oracle_dbscan(pts, eps, min_pts))
    assert ours == ref


def test_stability_identical_vectors():
    vecs = [np.zeros(4)] * 10
    table = build_stability_table({"nginx": vecs})
    assert table.get("nginx") == 1


def test_stability_scattered_vectors():
    vecs = [np.full(4, 100.0 * i) for i in range(5)]
    table = build_stability_table({"chaotic": vecs}, eps=0.5, min_pts=3)
    assert table.get("chaotic") == 5


def test_stability_unseen_name_defaults_to_one():
    table = build_stability_table({})
    assert table.get("whoami") == 1


def test_stability_round_trip(tmp_path):
    table = build_stability_table({"a": [np.zeros(2)] * 5, "b": [np.array([i * 50.0, 0]) for i in range(4)]})
    p = str(tmp_path / "stab.json")
    table.save(p)
    loaded = type(table).load(p)
    assert loaded.sv == table.sv and loaded.eps == table.eps


def test_anomaly_score_examples():
    assert anomaly_score(1.0, 1) == pytest.approx(0.0, abs=1e-9)
    assert anomaly_score(math.e, 1) == pytest.approx(1.0, abs=1e-9)
    assert anomaly_score(0.5, 5) == pytest.approx(math.log(0.1), abs=1e-9)


def test_anomaly_score_monotone():
    assert anomaly_score(2.0, 1) > anomaly_score(1.0, 1)
    assert anomaly_score(1.0, 2) < anomaly_score(1.0, 1)
    assert math.isfinite(anomaly_score(0.0, 1))


def test_calibrate_threshold_nearest_rank():
    assert calibrate_threshold(list(range(1, 11))).tau == 9
    assert calibrate_threshold([5.0] * 7).tau == 5.0
    assert calibrate_threshold(list(range(1, 21))).tau == 18
    assert calibrate_threshold([3.0, 1.0]).tau == 3.0  # rank ceil(1.8) = 2


def test_calibrate_threshold_empty_errors():
    with pytest.raises(ValueError):
        calibrate_threshold([])


# Feature pools for the scoring memos: texts that repeat, texts whose
# kept tokens repeat under a fresh hex suffix or a change of case, fresh
# ports, and texts that are all gibberish or have no tokens at all.
_CMDLINES = ["/usr/bin/python3 app.py --port 8080", "/USR/BIN/Python3 APP.py --port 8080",
             "sshd: root@pts/0", "deadbeef99 0123456789", "--- / ---", ""]
_PATHS = st.one_of(
    st.sampled_from(["/etc/passwd", "/ETC/passwd", "/var/log/syslog", "/tmp/abc123def456", "/",
                     "/deadbeef99"]),
    st.integers(0, (1 << 24) - 1).map(lambda n: "/var/lib/telemetry/batch-%06x.json" % n))
_IPS = st.one_of(
    st.sampled_from([("10.0.0.5", 40000, "10.0.0.9", 443), ("10.0.0.7", 5353, "224.0.0.251", 5353)]),
    st.integers(1024, 65535).map(lambda port: ("10.0.0.5", port, "10.0.0.9", 443)))
_PROCESS = st.tuples(st.integers(1, 4), st.sampled_from(_CMDLINES),
                     st.lists(_PATHS, max_size=3), st.lists(_IPS, max_size=2))
_WINDOWS = st.lists(st.lists(_PROCESS, min_size=1, max_size=4), min_size=1, max_size=5)


def _window_events(procs):
    events = []
    for pid, cmdline, paths, ips in procs:
        p = ProcessAttrs(pid=pid, tid=pid, uid=0, name="p%d" % pid, cmdline=cmdline)
        events.append(event("fork", "process", p, "process", p))
        events += [event("read", "file", FileAttrs(path=path), "process", p) for path in paths]
        events += [event("sendto", "process", p, "ip", IpAttrs(*quad)) for quad in ips]
    return events


_PARTS = []


def _bundle_parts():
    """Small trained embedding, IDF table, VAE and stability table; each
    test wraps them in a bundle of its own, whose memos start empty."""
    if not _PARTS:
        corpus = [sentenceize(t) for t in _CMDLINES + ["/etc/passwd /var/log/syslog",
                                                      "/var/lib/telemetry/batch.json"]]
        emb = train_embedding([s for s in corpus if s], EmbedConfig(dimension=8, epochs=2))
        idf = IdfTable(p=10, counts={"/etc/passwd": 6, "/var/log/syslog": 2,
                                     "10.0.0.5:40000:10.0.0.9:443": 3})
        rows = [embed_sentence(emb, s) + i for i, s in enumerate(corpus)]
        vae = train_vae(rows, VaeConfig(hidden=4, latent=2, epochs=2))
        _PARTS.extend([emb, idf, vae, build_stability_table({"p1": rows[:3], "p2": rows})])
    return _PARTS


def _fresh_bundle():
    emb, idf, vae, stability = _bundle_parts()
    return ModelBundle(EmbeddingModel(emb.config, emb.words, emb.buckets), idf, vae,
                       stability, AnomalyThreshold(tau=0.0))


def _memos(bundle):
    """Every dict the bundle's embedding holds but its trained rows, and the
    bundle's row memo: each memo scoring keeps, those added later included."""
    return [v for k, v in vars(bundle.embedding).items()
            if isinstance(v, dict) and k not in ("words", "buckets")] + [bundle.rows]


class _PlainTokens:
    """A token vector as the mean of its word and bucket vectors, with no memo."""

    def __init__(self, m):
        self.m, self.dimension = m, m.dimension

    def token_vector(self, token):
        m = self.m
        parts = [m.words[token]] if token in m.words else []
        parts += [m.buckets[b] for b in (_fnv1a(g) % m.config.buckets for g in _ngrams(token))
                  if b in m.buckets]
        return np.mean(parts, axis=0) if parts else np.zeros(m.dimension)


def _reference_rows(feats, bundle):
    plain, idf = _PlainTokens(bundle.embedding), bundle.idf

    def vec(raw):  # embed_sentence filters the gibberish out
        return embed_sentence(plain, sentenceize(raw))

    return np.array([process_vector(vec(cmdline), [(vec(p), idf.weight(p)) for p in paths],
                                    [(vec(q), idf.weight(q)) for q in quads])
                     for _, _, cmdline, paths, quads in feats])


@settings(max_examples=120, deadline=None)
@given(_WINDOWS, st.integers(2, 4), st.randoms(use_true_random=False))
# the same kept tokens under two IDF weights
@example([[(1, _CMDLINES[0], ["/etc/passwd"], [])], [(2, _CMDLINES[1], ["/ETC/passwd"], [])]],
         4, random.Random(0))
def test_memoized_scoring_is_bit_exact(windows, limit, rnd):
    windows = windows + windows  # every window comes back
    rnd.shuffle(windows)
    bundle = _fresh_bundle()
    with mock.patch.object(embed, "MEMO_LIMIT", limit):
        for procs in windows:
            g = build_window_graph(_window_events(procs))
            feats = window_process_features(g)
            want = _reference_rows(feats, bundle)
            got = process_vectors(feats, bundle.embedding, bundle.idf, bundle.rows)
            assert got.tobytes() == want.tobytes()
            errors = reconstruction_errors(bundle.vae, want)
            assert score_processes(g, bundle) == {
                nid: anomaly_score(float(re), bundle.stability.get(name))
                for (nid, name, _, _, _), re in zip(feats, errors)}
            assert all(len(memo) <= limit for memo in _memos(bundle))


def test_every_memo_is_empty_after_load(tmp_path):
    bundle = _fresh_bundle()
    g = build_window_graph(_window_events([(1, _CMDLINES[0], ["/etc/passwd"],
                                            [("10.0.0.5", 40000, "10.0.0.9", 443)])]))
    score_processes(g, bundle)
    assert all(_memos(bundle))
    bundle.save(str(tmp_path))
    assert not any(_memos(ModelBundle.load(str(tmp_path))))


def test_scoring_memory_stops_growing_on_fresh_paths_and_ports(monkeypatch):
    """Thousands of windows of paths and ports never seen before: every
    memo fills and is cleared many times over, and the memory that scoring
    holds stops growing once they have."""
    monkeypatch.setattr(embed, "MEMO_LIMIT", 200)
    bundle = _fresh_bundle()
    held = []
    tracemalloc.start()
    try:
        for w in range(3000):
            procs = [(pid, _CMDLINES[pid], ["/var/lib/telemetry/batch-%06x.json" % (w * 4 + pid)],
                      [("10.0.0.5", 1024 + (w * 4 + pid) % 60000, "10.0.0.9", 443)])
                     for pid in (1, 2)]
            score_processes(build_window_graph(_window_events(procs)), bundle)
            if w % 100 == 99:
                held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert all(len(memo) <= 200 for memo in _memos(bundle))
    # the first 1 000 windows fill each memo to its limit more than once
    assert max(held[10:]) <= max(held[:10]) + 64 * 1024, held
