"""Feature-to-vector pipeline for process scoring.

Command lines, file paths, and socket 4-tuples become bags of tokens,
hash-like tokens are dropped, and a skip-gram model with hashed subword
buckets turns each string into a d-vector.  Per-process vectors combine
the command-line vector with IDF-weighted vectors of touched files/IPs.

A model memoizes what a stream repeats in three memos: token to vector,
kept-token tuple to vector, and raw text to vector, the last filled from
the second on a miss.  Each memo stores the plain function's own output,
and a text's vector is a function of its kept tokens alone, as
`embed_sentence` filters before it averages, so a hit is exact by
construction.  Each memo holds at most MEMO_LIMIT entries.  A miss
computes each mean and weighted sum as one numpy reduction, with the
bits of `np.mean` and of adding the terms one by one.
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
# Entries each memo holds before it is cleared; at d = 64 an entry is
# under 1 KB.
MEMO_LIMIT = 1 << 14


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


def _memo_put(memo: dict, key, value):
    if len(memo) >= MEMO_LIMIT:
        memo.clear()
    memo[key] = value


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
        self._sentence_memo: Dict[Tuple[str, ...], np.ndarray] = {}  # by kept tokens
        self._token_memo: Dict[str, np.ndarray] = {}

    def token_vector(self, token: str) -> np.ndarray:
        """Memoized _token_vector; the result is read-only because it is shared."""
        v = self._token_memo.get(token)
        if v is None:
            v = self._token_vector(token)
            v.flags.writeable = False
            _memo_put(self._token_memo, token, v)
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
        return np.add.reduce(parts, axis=0) / len(parts)

    def embed_text(self, raw: str) -> np.ndarray:
        """embed_sentence(self, sentenceize(raw)), memoized by raw text and
        by kept tokens; read-only, because it is shared."""
        v = self._text_cache.get(raw)
        if v is None:
            key = tuple(filter_gibberish(sentenceize(raw)))
            v = self._sentence_memo.get(key)
            if v is None:
                v = _mean_vector(self, key)
                v.flags.writeable = False
                _memo_put(self._sentence_memo, key, v)
            _memo_put(self._text_cache, raw, v)
        return v

    def save(self, path: str):
        """Write json.dumps(doc, sort_keys=True) of the model's document one
        row at a time, so that neither the document nor its string is ever
        whole in memory.  The header's keys sort before "subword_buckets",
        which sorts before "words"; bucket keys sort as strings."""
        head = json.dumps({
            "dimension": self.dimension,
            "seed": self.config.seed,
            "config": {
                "epochs": self.config.epochs,
                "lr": self.config.lr,
                "window": self.config.window,
                "negatives": self.config.negatives,
                "buckets": self.config.buckets,
            },
        }, sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head[:-1])
            for name, rows, keys in (
                    ("subword_buckets", self.buckets, sorted(self.buckets, key=str)),
                    ("words", self.words, sorted(self.words))):
                fh.write(", %s: {" % json.dumps(name))
                sep = ""
                for k in keys:
                    fh.write("%s%s: %s" % (sep, json.dumps(str(k)), json.dumps(rows[k].tolist())))
                    sep = ", "
                fh.write("}")
            fh.write("}")

    @classmethod
    def load(cls, path: str) -> "EmbeddingModel":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        cfg = EmbedConfig(dimension=doc["dimension"], seed=doc["seed"], **doc["config"])
        words = {t: np.asarray(v) for t, v in doc["words"].items()}
        buckets = {int(i): np.asarray(v) for i, v in doc["subword_buckets"].items()}
        return cls(cfg, words, buckets)


def negative_starts(probs: np.ndarray, size: int = NEG_TABLE_SIZE) -> np.ndarray:
    """First slot of each word in the unigram table for negative sampling.

    The table has size slots: slot a holds the current word, which moves
    on by one word after each slot a where (a + 1) / size exceeds the
    running sum of probabilities up to that word.  A word owns the slots
    from its start to the next word's; words past the last slot own none
    and start at size.  The table itself is never built: slot a's word is
    the last word whose start is at or before a.

    size must be a power of two, so that (a + 1) / size and cum * size
    are exact and the slot counts below need no array of slot bounds.
    """
    if size < 1 or size & (size - 1):
        raise ValueError("negative table size %d is not a power of two" % size)
    nv = len(probs)
    cum = np.cumsum(probs)  # sequential sums, as the slot-by-slot fill adds them
    # word k + 1 starts the slot after the last slot a with
    # (a + 1) / size <= cum[k], but at least one slot after word k starts
    passed = np.minimum(np.floor(cum[:-1] * size), size).astype(np.int64) + 1
    ks = np.arange(nv)
    lag = np.maximum.accumulate(np.concatenate(([0], passed - ks[1:])))
    return np.minimum(lag + ks, size)


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
    starts = negative_starts(probs)

    rs = np.random.RandomState(cfg.seed)
    n_in = nv + len(bucket_dense)
    w = np.zeros((n_in + nv, cfg.dimension))  # input rows, then output rows
    w[:n_in] = (rs.rand(n_in, cfg.dimension) - 0.5) / cfg.dimension
    state = ((cfg.seed * 2654435761) + 1) & 0xFFFFFFFF
    if state == 0:
        state = 1
    if pair_list:
        pairs = np.asarray(pair_list, dtype=np.int64)
        for _ in range(cfg.epochs):
            order = rs.permutation(len(pairs))
            state = _kernels.sgns_epoch(
                pairs[order], comp_idx, comp_off, w, n_in,
                starts, NEG_TABLE_SIZE, cfg.negatives, cfg.lr, state)

    words = {t: w[i].copy() for t, i in tok_idx.items()}
    buckets = {b: w[nv + di].copy() for b, di in bucket_dense.items()}
    return EmbeddingModel(cfg, words, buckets)


def embed_sentence(m: EmbeddingModel, s: Sentence) -> np.ndarray:
    """Mean of token vectors after gibberish filtering; empty -> zero vector."""
    return _mean_vector(m, filter_gibberish(s))


def _mean_vector(m: EmbeddingModel, toks: Sequence[str]) -> np.ndarray:
    """np.mean of the token vectors, bit for bit: np.mean is this very
    reduction and division, behind a slower wrapper."""
    if not toks:
        return np.zeros(m.dimension)
    return np.add.reduce([m.token_vector(t) for t in toks], axis=0) / len(toks)


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


def process_vector(cmd_vec: np.ndarray,
                   file_items: Sequence[Tuple[np.ndarray, float]],
                   ip_items: Sequence[Tuple[np.ndarray, float]]) -> np.ndarray:
    """V_p = w_c * V_c + sum(w_f * V_f) + sum(w_n * V_n).

    w_c is the mean of all file and IP weights; with no touched files or
    IPs the command line stands alone with weight 1.  The terms are added
    in that order, one after another, as `v = v + w * vec` would.
    """
    items = list(file_items) + list(ip_items)
    weights = [w for _, w in items]
    w_c = (sum(weights) / len(weights)) if weights else 1.0
    terms = np.array([w_c] + weights)[:, None] * np.array([cmd_vec] + [v for v, _ in items])
    if terms.shape[1] == 1:  # numpy would add a lone column pairwise
        return np.add.accumulate(terms)[-1]
    # Along axis 0 of a C-ordered array numpy adds whole rows in order,
    # onto its start value: -0.0 + x is x, where 0.0 + -0.0 is 0.0.
    return np.add.reduce(terms, axis=0, initial=-0.0)
