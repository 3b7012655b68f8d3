from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provstp.embed import (
    NEG_TABLE_SIZE,
    EmbedConfig,
    EmbeddingModel,
    IdfTable,
    _fnv1a,
    _mean_vector,
    _ngrams,
    embed_sentence,
    filter_gibberish,
    idf_weight,
    negative_starts,
    process_vector,
    sentenceize,
    train_embedding,
)

SMALL = EmbedConfig(dimension=16, epochs=3, seed=11)


def test_sentenceize_path():
    assert sentenceize("/etc/tmp/log.txt") == ["etc", "tmp", "log", "txt"]


def test_sentenceize_ip_quadruple():
    s = sentenceize("<126.7.8.7, 80, 162.0.0.1, 8080>")
    assert s == ["126", "7", "8", "7", "80", "162", "0", "0", "1", "8080"]


def test_sentenceize_empty_and_case():
    assert sentenceize("") == []
    assert sentenceize("CurL -X POST") == ["curl", "x", "post"]


@given(st.text(max_size=60))
def test_sentenceize_idempotent_under_rejoin(raw):
    once = sentenceize(raw)
    assert sentenceize(" ".join(once)) == once


def test_filter_gibberish_hash_token():
    assert filter_gibberish(["var", "spool", "8b7dc29d0e"]) == ["var", "spool"]


def test_filter_gibberish_keeps_short_numbers():
    toks = ["date", "d", "4857", "second", "ago", "s"]
    assert filter_gibberish(toks) == toks


def test_filter_gibberish_hex_with_digits():
    assert filter_gibberish(["deadbeef99"]) == []
    # pure alpha hex of length >= 6 is a word, keep it
    assert filter_gibberish(["deadbeef"]) == ["deadbeef"]


def test_filter_gibberish_digit_fraction():
    assert filter_gibberish(["a1b2c3d4x9"]) == []  # 5 digits of 10, len >= 8
    assert filter_gibberish(["abcdefg1"]) == ["abcdefg1"]  # 1 digit of 8


def test_idf_weight_examples():
    assert idf_weight(100, 100) == pytest.approx(0.0)
    assert idf_weight(100, 1) == pytest.approx(math.log(100))
    assert idf_weight(8, 2) == pytest.approx(math.log(4))


def test_idf_weight_unseen_feature_maximal():
    assert idf_weight(50, 0) == pytest.approx(math.log(50))


@given(st.integers(1, 10000), st.integers(1, 10000))
def test_idf_weight_monotone_nonnegative(p, pf):
    pf = min(p, pf)
    w = idf_weight(p, pf)
    assert w >= 0.0
    if pf + 1 <= p:
        assert idf_weight(p, pf + 1) <= w


def _toy_model():
    corpus = [["alpha", "beta", "alpha", "beta", "alpha"]] * 50 \
        + [["gamma", "delta", "gamma", "delta", "gamma"]] * 50
    return train_embedding(corpus, SMALL)


def test_train_embedding_deterministic(tmp_path):
    m1 = _toy_model()
    m2 = _toy_model()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    m1.save(str(p1))
    m2.save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_train_embedding_cooccurrence():
    m = _toy_model()
    def cos(a, b):
        va, vb = m.token_vector(a), m.token_vector(b)
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
    assert cos("alpha", "beta") > cos("alpha", "gamma")
    assert cos("gamma", "delta") > cos("gamma", "beta")


def test_train_embedding_empty_corpus_errors():
    with pytest.raises(ValueError):
        train_embedding([], SMALL)
    with pytest.raises(ValueError):
        train_embedding([["deadbeef99"]], SMALL)  # fully filtered


def test_oov_token_still_embeds_finite():
    m = _toy_model()
    v = m.token_vector("alphaness")  # shares subword grams with alpha
    assert np.all(np.isfinite(v))
    assert np.linalg.norm(v) > 0


def _memos(m):
    """Every dict a model holds but its trained rows: its memos, those
    added later included."""
    return [v for k, v in vars(m).items() if isinstance(v, dict) and k not in ("words", "buckets")]


def test_token_vector_memo_returns_direct_values(monkeypatch):
    from provstp import embed

    monkeypatch.setattr(embed, "MEMO_LIMIT", 2)
    m = _toy_model()
    for t in ("alpha", "beta", "alphaness", "alpha", "zzz", "beta", "beta"):
        v = m.token_vector(t)
        assert np.array_equal(v, m._token_vector(t))
        assert not v.flags.writeable
        assert len(m._token_memo) <= 2
    texts = ("/alpha/beta", "gamma delta", "/alpha/beta", "x.zzz", "beta", "gamma delta",
             "/tmp/Beta-9f3a2c1d.log", "/tmp/beta-77aa0e12.log")
    for t in texts:
        assert np.array_equal(m.embed_text(t), embed_sentence(m, sentenceize(t)))
        assert all(len(memo) <= 2 for memo in _memos(m))


def test_cached_text_and_sentence_vectors_are_read_only():
    m = _toy_model()
    v = m.embed_text("/alpha/beta")
    with pytest.raises(ValueError):
        v[0] = 1.0
    with pytest.raises(ValueError):
        v += 1.0
    # a text with the same kept tokens shares the sentence vector
    assert m.embed_text("/ALPHA/beta-deadbeef99") is v
    for vec in [m.embed_text("")] + list(m._sentence_memo.values()):
        assert not vec.flags.writeable
    assert np.array_equal(m.embed_text("/alpha/beta"), embed_sentence(m, ["alpha", "beta"]))


def test_embed_sentence_empty_is_zero():
    m = _toy_model()
    assert np.array_equal(embed_sentence(m, []), np.zeros(m.dimension))


def test_embed_sentence_single_token_identity():
    m = _toy_model()
    assert np.array_equal(embed_sentence(m, ["alpha"]), m.token_vector("alpha"))


def test_embed_sentence_permutation_invariant():
    m = _toy_model()
    a = embed_sentence(m, ["alpha", "beta", "gamma"])
    b = embed_sentence(m, ["gamma", "alpha", "beta"])
    assert np.allclose(a, b)


def test_model_round_trip(tmp_path):
    m = _toy_model()
    path = str(tmp_path / "emb.json")
    m.save(path)
    m2 = EmbeddingModel.load(path)
    for t in ("alpha", "beta", "gamma", "delta", "unseen"):
        assert np.array_equal(m.token_vector(t), m2.token_vector(t))
    assert np.array_equal(m.embed_text("/alpha/beta"), m2.embed_text("/alpha/beta"))


def _save_by_streaming_scalars(m, path):
    """The earlier writer: numpy scalars streamed through json.dump."""
    doc = {
        "dimension": m.dimension,
        "seed": m.config.seed,
        "config": {"epochs": m.config.epochs, "lr": m.config.lr, "window": m.config.window,
                   "negatives": m.config.negatives, "buckets": m.config.buckets},
        "words": {t: list(v) for t, v in m.words.items()},
        "subword_buckets": {str(i): list(v) for i, v in m.buckets.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def test_save_writes_the_bytes_of_the_scalar_writer(tmp_path):
    m = _toy_model()
    rng = np.random.default_rng(5)
    # extremes of float formatting: tiny, huge, negative zero, integral
    m.words["extremes"] = np.array([1e-310, -0.0, 3.0, 1.7976931348623157e308, -2.5e-7]
                                   + list(rng.normal(size=SMALL.dimension - 5)))
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    m.save(str(new))
    _save_by_streaming_scalars(m, str(old))
    assert new.read_bytes() == old.read_bytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_embedding_builds_no_negative_table():
    _toy_model()  # caches made on first use stay out of the peak
    # 8 * NEG_TABLE_SIZE bytes is what a negative table of int64 slots takes
    assert _traced_peak(_toy_model) < 8 * NEG_TABLE_SIZE // 16


def test_save_holds_no_whole_document(tmp_path):
    rng = np.random.default_rng(3)
    cfg = EmbedConfig(dimension=64)
    m = EmbeddingModel(cfg, {"w%d" % i: rng.normal(size=64) for i in range(50)},
                       {int(b): rng.normal(size=64)
                        for b in rng.choice(cfg.buckets, 2000, replace=False)})
    path = str(tmp_path / "emb.json")
    m.save(path)
    row = len(json.dumps(m.words["w0"].tolist()))
    # a few rows, and sorting the 2 050 keys: their list and each bucket's
    # decimal string; the whole document is 2 050 rows
    assert _traced_peak(m.save, path) < 8 * row + 100 * (len(m.words) + len(m.buckets))


def test_idf_table_round_trip(tmp_path):
    t = IdfTable(p=12, counts={"/tmp/a": 3, "1.2.3.4:5:6.7.8.9:10": 1})
    path = str(tmp_path / "idf.json")
    t.save(path)
    t2 = IdfTable.load(path)
    assert t2.p == 12 and t2.counts == t.counts
    assert t2.weight("/tmp/a") == pytest.approx(math.log(4))
    assert t2.weight("never-seen") == pytest.approx(math.log(12))


def test_process_vector_no_features():
    cmd = np.array([1.0, 2.0])
    assert np.array_equal(process_vector(cmd, [], []), cmd)


def test_process_vector_zero_weight_file():
    cmd = np.array([1.0, 2.0])
    f = np.array([5.0, 5.0])
    assert np.array_equal(process_vector(cmd, [(f, 0.0)], []), np.zeros(2))


def test_process_vector_weighted_sum():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    pv = process_vector(e2, [(e1, 2.0), (e1, 4.0)], [])
    assert np.allclose(pv, 3.0 * e2 + 6.0 * e1)


def _rows(k, d, seed, low, span):
    """k rows of d floats whose magnitudes run from 2**low up to 2**(low + span):
    subnormals at low = -1074, past 1e300 at low + span = 997; with a few
    zeros of either sign."""
    rng = np.random.RandomState(seed)
    x = np.ldexp(rng.standard_normal((k, d)), rng.randint(low, low + span + 1, (k, d)))
    x[rng.rand(k, d) < 0.05] = 0.0
    x[rng.rand(k, d) < 0.05] = -0.0
    return x


_ROW_SHAPES = st.tuples(st.integers(0, 64), st.sampled_from([1, 2, 3, 8, 64]),
                        st.integers(0, 2 ** 32 - 1), st.integers(-1074, 900),
                        st.integers(0, 100))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _loop_process_vector(cmd_vec, file_items, ip_items):
    """The weighted sum one term at a time: the oracle for process_vector."""
    weights = [w for _, w in file_items] + [w for _, w in ip_items]
    w_c = (sum(weights) / len(weights)) if weights else 1.0
    v = w_c * cmd_vec
    for vec, w in file_items:
        v = v + w * vec
    for vec, w in ip_items:
        v = v + w * vec
    return v


class _RowModel:
    """Token vectors given row by row, with no memo."""

    def __init__(self, rows):
        self.dimension = rows.shape[1]
        self.rows = {"t%d" % i: row for i, row in enumerate(rows)}

    def token_vector(self, token):
        return self.rows[token]


@settings(max_examples=200, deadline=None)
@given(_ROW_SHAPES)
def test_mean_vector_is_np_mean_bit_for_bit(shape):
    k, d, seed, low, span = shape
    rows = _rows(k, d, seed, low, span)
    m = _RowModel(rows)
    toks = ["t%d" % i for i in range(k)]
    want = np.mean([m.token_vector(t) for t in toks], axis=0) if k else np.zeros(d)
    assert _same_bits(_mean_vector(m, toks), want)


@settings(max_examples=200, deadline=None)
@given(_ROW_SHAPES, st.text("abcdefgh", max_size=23), st.booleans())
def test_token_vector_is_np_mean_bit_for_bit(shape, token, has_word):
    k, d, seed, low, span = shape
    cfg = EmbedConfig(dimension=d, buckets=1 << 18)
    ids = sorted({_fnv1a(g) % cfg.buckets for g in _ngrams(token)})
    rows = _rows(len(ids) + 1, d, seed, low, span)
    words = {token: rows[-1]} if has_word else {}
    buckets = {b: rows[i] for i, b in enumerate(ids[:k])}  # only some grams have a bucket
    m = EmbeddingModel(cfg, words, buckets)
    parts = ([words[token]] if has_word else []) + [
        buckets[b] for b in (_fnv1a(g) % cfg.buckets for g in _ngrams(token)) if b in buckets]
    want = np.mean(parts, axis=0) if parts else np.zeros(d)
    assert _same_bits(m._token_vector(token), want)


@settings(max_examples=300, deadline=None)
@given(_ROW_SHAPES, st.integers(0, 64), st.integers(-1074, 1000))
def test_process_vector_is_the_sequential_sum_bit_for_bit(shape, n_files, w_exp):
    k, d, seed, low, span = shape
    rows = _rows(k + 1, d, seed, low, span)
    weights = np.abs(_rows(1, k, seed ^ 1, min(w_exp, 976), 24)[0]).tolist()
    items = list(zip(rows[1:], weights))
    file_items, ip_items = items[:n_files], items[n_files:]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan must match too
        got = process_vector(rows[0], file_items, ip_items)
        want = _loop_process_vector(rows[0], file_items, ip_items)
    assert _same_bits(got, want)


def negative_table(probs, size=NEG_TABLE_SIZE):
    """The unigram table that negative_starts describes, one word per slot:
    the oracle for drawing negatives from word starts."""
    starts = negative_starts(probs, size)
    return np.repeat(np.arange(len(starts)), np.diff(np.append(starts, size)))


def _negative_table_loop(probs, size):
    """Slot-by-slot reference for negative_table."""
    table = np.zeros(size, np.int64)
    wi = 0
    cum = probs[0]
    for a in range(size):
        table[a] = wi
        if (a + 1) / size > cum and wi < len(probs) - 1:
            wi += 1
            cum += probs[wi]
    return table


@pytest.mark.parametrize("case", range(12))
def test_negative_table_matches_loop(case):
    rs = np.random.RandomState(case)
    counts = [
        [1.0],                      # one word
        [999.0, 1.0],               # dominant first token
        [1e6, 1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1e9],       # dominant last token
        [1.0] * 7,
        rs.randint(1, 50, size=3),
        rs.randint(1, 50, size=10),
        rs.randint(1, 50, size=100),
        rs.randint(1, 50, size=1000),
        rs.randint(1, 50, size=5000),
        rs.randint(1, 3, size=300),
        rs.randint(1, 3, size=20000),  # more words than the small table has slots
    ][case]
    freq = np.asarray(counts, dtype=np.float64) ** 0.75
    probs = freq / freq.sum()
    sizes = (1 << 20, 32) if case in (0, 1, 8) else (1 << 12, 32)
    for size in sizes:
        starts = negative_starts(probs, size)
        assert starts.dtype == np.int64 and starts.shape == probs.shape
        table = negative_table(probs, size)
        assert np.array_equal(table, _negative_table_loop(probs, size))
    with pytest.raises(ValueError):
        negative_starts(probs, 48)
