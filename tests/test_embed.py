from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from provstp.embed import (
    EmbedConfig,
    EmbeddingModel,
    IdfTable,
    embed_sentence,
    filter_gibberish,
    idf_weight,
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


def test_token_vector_memo_returns_direct_values(monkeypatch):
    from provstp import embed

    monkeypatch.setattr(embed, "TOKEN_MEMO_LIMIT", 2)
    m = _toy_model()
    for t in ("alpha", "beta", "alphaness", "alpha", "zzz", "beta", "beta"):
        v = m.token_vector(t)
        assert np.array_equal(v, m._token_vector(t))
        assert not v.flags.writeable
        assert len(m._token_memo) <= 2


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
    pv = process_vector("n1", cmd, [], [])
    assert np.array_equal(pv.v, cmd)


def test_process_vector_zero_weight_file():
    cmd = np.array([1.0, 2.0])
    f = np.array([5.0, 5.0])
    pv = process_vector("n1", cmd, [(f, 0.0)], [])
    assert np.array_equal(pv.v, np.zeros(2))


def test_process_vector_weighted_sum():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    pv = process_vector("n1", e2, [(e1, 2.0), (e1, 4.0)], [])
    assert np.allclose(pv.v, 3.0 * e2 + 6.0 * e1)
