"""Feature-to-vector pipeline for process scoring.

Command lines, file paths, and socket 4-tuples become bags of tokens,
hash-like tokens are dropped, and a skip-gram model with hashed subword
buckets turns each string into a d-vector.  Per-process vectors combine
the command-line vector with IDF-weighted vectors of touched files/IPs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import _kernels

Sentence = List[str]

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
_HEX_RE = re.compile(r"[0-9a-f]+\Z")

NEG_TABLE_SIZE = 1 << 20
# Token vectors memoised per model before the memo is cleared; at
# d = 64 an entry is under 1 KB.
TOKEN_MEMO_LIMIT = 1 << 14


@dataclass
class EmbedConfig:
    dimension: int = 64
    epochs: int = 5
    lr: float = 0.05
    window: int = 5
    negatives: int = 5
    buckets: int = 1 << 18
    seed: int = 7


def sentenceize(raw: str) -> Sentence:
    """Split on non-alphanumerics and lowercase: '/etc/tmp/log.txt' -> [etc, tmp, log, txt]."""
    return [t.lower() for t in _TOKEN_RE.findall(raw)]


def _is_gibberish(token: str) -> bool:
    n = len(token)
    if n >= 6 and _HEX_RE.match(token) and any(c.isdigit() for c in token):
        return True
    if n >= 8 and sum(c.isdigit() for c in token) * 2 >= n:
        return True
    return False


def filter_gibberish(tokens: Sentence) -> Sentence:
    """Drop hash-like tokens: long hex strings and long digit-heavy strings."""
    return [t for t in tokens if not _is_gibberish(t)]


def _fnv1a(s: str) -> int:
    h = 0x811C9DC5
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x01000193) & 0xFFFFFFFF
    return h


def _ngrams(token: str) -> List[str]:
    grams = []
    for n in (3, 4, 5):
        for i in range(len(token) - n + 1):
            grams.append(token[i:i + n])
    return grams


class EmbeddingModel:
    """Skip-gram word vectors plus hashed 3-5 char-gram subword buckets.

    A token's vector is the mean of its word vector and its subword
    bucket vectors; unknown tokens fall back to whatever buckets exist,
    so out-of-vocabulary strings still embed.
    """

    def __init__(self, config: EmbedConfig, words: Dict[str, np.ndarray],
                 buckets: Dict[int, np.ndarray]):
        self.config = config
        self.dimension = config.dimension
        self.words = words
        self.buckets = buckets
        self._text_cache: Dict[str, np.ndarray] = {}
        self._token_memo: Dict[str, np.ndarray] = {}

    def token_vector(self, token: str) -> np.ndarray:
        """Memoized _token_vector; the result is read-only because it is shared."""
        v = self._token_memo.get(token)
        if v is None:
            if len(self._token_memo) >= TOKEN_MEMO_LIMIT:
                self._token_memo.clear()
            v = self._token_vector(token)
            v.flags.writeable = False
            self._token_memo[token] = v
        return v

    def _token_vector(self, token: str) -> np.ndarray:
        parts = []
        w = self.words.get(token)
        if w is not None:
            parts.append(w)
        for g in _ngrams(token):
            b = self.buckets.get(_fnv1a(g) % self.config.buckets)
            if b is not None:
                parts.append(b)
        if not parts:
            return np.zeros(self.dimension)
        return np.mean(parts, axis=0)

    def embed_text(self, raw: str) -> np.ndarray:
        """Memoized sentenceize + embed for repeated feature strings."""
        v = self._text_cache.get(raw)
        if v is None:
            v = embed_sentence(self, sentenceize(raw))
            self._text_cache[raw] = v
        return v

    def save(self, path: str):
        doc = {
            "dimension": self.dimension,
            "seed": self.config.seed,
            "config": {
                "epochs": self.config.epochs,
                "lr": self.config.lr,
                "window": self.config.window,
                "negatives": self.config.negatives,
                "buckets": self.config.buckets,
            },
            "words": {t: list(v) for t, v in self.words.items()},
            "subword_buckets": {str(i): list(v) for i, v in self.buckets.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "EmbeddingModel":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        cfg = EmbedConfig(dimension=doc["dimension"], seed=doc["seed"], **doc["config"])
        words = {t: np.asarray(v) for t, v in doc["words"].items()}
        buckets = {int(i): np.asarray(v) for i, v in doc["subword_buckets"].items()}
        return cls(cfg, words, buckets)


def train_embedding(corpus: Sequence[Sentence], config: EmbedConfig = None) -> EmbeddingModel:
    """Train skip-gram with negative sampling; deterministic given seed."""
    cfg = config or EmbedConfig()
    sents = [filter_gibberish(s) for s in corpus]
    sents = [s for s in sents if s]
    if not sents:
        raise ValueError("empty corpus: nothing to train on")
    counts: Dict[str, int] = {}
    for s in sents:
        for t in s:
            counts[t] = counts.get(t, 0) + 1
    vocab = sorted(counts)
    tok_idx = {t: i for i, t in enumerate(vocab)}
    nv = len(vocab)

    # dense rows: words first, then buckets in first-seen order over the vocab
    bucket_dense: Dict[int, int] = {}
    comp_lists: List[List[int]] = []
    for t in vocab:
        comp = [tok_idx[t]]
        for g in _ngrams(t):
            b = _fnv1a(g) % cfg.buckets
            if b not in bucket_dense:
                bucket_dense[b] = len(bucket_dense)
            comp.append(nv + bucket_dense[b])
        comp_lists.append(comp)
    comp_off = np.zeros(nv + 1, np.int64)
    for i, comp in enumerate(comp_lists):
        comp_off[i + 1] = comp_off[i] + len(comp)
    comp_idx = np.empty(comp_off[-1], np.int64)
    ptr = 0
    for comp in comp_lists:
        comp_idx[ptr:ptr + len(comp)] = comp
        ptr += len(comp)

    pair_list: List[Tuple[int, int]] = []
    for s in sents:
        ids = [tok_idx[t] for t in s]
        for c in range(len(ids)):
            lo = max(0, c - cfg.window)
            hi = min(len(ids), c + cfg.window + 1)
            for o in range(lo, hi):
                if o != c:
                    pair_list.append((ids[c], ids[o]))

    freq = np.array([counts[t] for t in vocab], dtype=np.float64) ** 0.75
    probs = freq / freq.sum()
    neg_table = np.zeros(NEG_TABLE_SIZE, np.int64)
    wi = 0
    cum = probs[0]
    for a in range(NEG_TABLE_SIZE):
        neg_table[a] = wi
        if (a + 1) / NEG_TABLE_SIZE > cum and wi < nv - 1:
            wi += 1
            cum += probs[wi]

    rs = np.random.RandomState(cfg.seed)
    w_in = (rs.rand(nv + len(bucket_dense), cfg.dimension) - 0.5) / cfg.dimension
    w_out = np.zeros((nv, cfg.dimension))
    state = ((cfg.seed * 2654435761) + 1) & 0xFFFFFFFF
    if state == 0:
        state = 1
    if pair_list:
        pairs = np.asarray(pair_list, dtype=np.int64)
        for _ in range(cfg.epochs):
            order = rs.permutation(len(pairs))
            state = _kernels.sgns_epoch(
                pairs[order], comp_idx, comp_off, w_in, w_out,
                neg_table, cfg.negatives, cfg.lr, state)

    words = {t: w_in[i].copy() for t, i in tok_idx.items()}
    buckets = {b: w_in[nv + di].copy() for b, di in bucket_dense.items()}
    return EmbeddingModel(cfg, words, buckets)


def embed_sentence(m: EmbeddingModel, s: Sentence) -> np.ndarray:
    """Mean of token vectors after gibberish filtering; empty -> zero vector."""
    toks = filter_gibberish(s)
    if not toks:
        return np.zeros(m.dimension)
    return np.mean([m.token_vector(t) for t in toks], axis=0)


def idf_weight(p: int, p_f: int) -> float:
    """ln(P / P_f); an unseen feature (P_f = 0) gets maximal weight ln(P)."""
    if p_f <= 0:
        p_f = 1
    if p < 1:
        p = 1
    return math.log(p / p_f)


@dataclass
class IdfTable:
    p: int
    counts: Dict[str, int] = field(default_factory=dict)

    def weight(self, key: str) -> float:
        return idf_weight(self.p, self.counts.get(key, 0))

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"P": self.p, "counts": self.counts}, fh, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "IdfTable":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(p=doc["P"], counts=doc["counts"])


@dataclass
class ProcessVector:
    node: str
    v: np.ndarray


def process_vector(proc: str, cmd_vec: np.ndarray,
                   file_items: Sequence[Tuple[np.ndarray, float]],
                   ip_items: Sequence[Tuple[np.ndarray, float]]) -> ProcessVector:
    """V_p = w_c * V_c + sum(w_f * V_f) + sum(w_n * V_n).

    w_c is the mean of all file and IP weights; with no touched files or
    IPs the command line stands alone with weight 1.
    """
    weights = [w for _, w in file_items] + [w for _, w in ip_items]
    w_c = (sum(weights) / len(weights)) if weights else 1.0
    v = w_c * cmd_vec
    for vec, w in file_items:
        v = v + w * vec
    for vec, w in ip_items:
        v = v + w * vec
    return ProcessVector(proc, v)
