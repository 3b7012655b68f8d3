"""Process anomaly scoring: VAE reconstruction error over process vectors,
stability scores from density clustering, and threshold calibration.

AS(p) = ln(RE(p) / SV(name)).  RE is the per-dimension reconstruction
MSE through the encoder-mean path; SV counts how many distinct behavior
clusters a process name produced historically, so erratic-but-benign
processes are discounted.

Scoring keeps four memos, each bounded by `embed.MEMO_LIMIT` and empty
when a bundle loads: the embedding's three (see `embed`) and the
bundle's `rows`, from the raw `(cmdline, paths, quads)` to
`process_vector`'s output.  A row is a function of those texts' vectors
and IDF weights alone, so a hit is exact by construction.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .embed import EmbeddingModel, IdfTable, _memo_put, process_vector
from .model import FILE, IP, PROCESS

LOG_GUARD = 1e-12


@dataclass
class VaeConfig:
    hidden: int = 32
    latent: int = 8
    epochs: int = 50
    lr: float = 1e-3
    batch_size: int = 64
    kl_weight: float = 1.0
    seed: int = 13


_PARAM_NAMES = ("w1", "b1", "wmu", "bmu", "wlv", "blv", "w2", "b2", "w3", "b3")


def _init_params(d: int, h: int, z: int, rs: np.random.RandomState) -> Dict[str, np.ndarray]:
    def xavier(fan_out, fan_in):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        return rs.uniform(-lim, lim, size=(fan_out, fan_in))

    return {
        "w1": xavier(h, d), "b1": np.zeros(h),
        "wmu": xavier(z, h), "bmu": np.zeros(z),
        "wlv": xavier(z, h), "blv": np.zeros(z),
        "w2": xavier(h, z), "b2": np.zeros(h),
        "w3": xavier(d, h), "b3": np.zeros(d),
    }


def vae_loss_and_grads(params: Dict[str, np.ndarray], x: np.ndarray, eps: np.ndarray,
                       kl_weight: float = 1.0):
    """Batch loss and analytic gradients for the reparameterized VAE.

    Loss = mean over the batch of per-dim reconstruction MSE plus
    kl_weight * KL(q(z|x) || N(0, I)).  eps is the injected noise so the
    same draw can be replayed for finite-difference checks.
    """
    b, d = x.shape
    h1 = np.tanh(x @ params["w1"].T + params["b1"])
    mu = h1 @ params["wmu"].T + params["bmu"]
    lv = h1 @ params["wlv"].T + params["blv"]
    s = np.exp(0.5 * lv)
    zz = mu + s * eps
    h2 = np.tanh(zz @ params["w2"].T + params["b2"])
    xh = h2 @ params["w3"].T + params["b3"]

    recon = np.mean(np.sum((x - xh) ** 2, axis=1) / d)
    kl = np.mean(-0.5 * np.sum(1.0 + lv - mu ** 2 - np.exp(lv), axis=1))
    loss = recon + kl_weight * kl

    dxh = (2.0 / (d * b)) * (xh - x)
    dh2 = (dxh @ params["w3"]) * (1.0 - h2 ** 2)
    dz = dh2 @ params["w2"]
    dmu = dz + (kl_weight / b) * mu
    dlv = dz * eps * 0.5 * s + (kl_weight / (2.0 * b)) * (np.exp(lv) - 1.0)
    dh1 = (dmu @ params["wmu"] + dlv @ params["wlv"]) * (1.0 - h1 ** 2)
    grads = {
        "w3": dxh.T @ h2, "b3": dxh.sum(axis=0),
        "w2": dh2.T @ zz, "b2": dh2.sum(axis=0),
        "wmu": dmu.T @ h1, "bmu": dmu.sum(axis=0),
        "wlv": dlv.T @ h1, "blv": dlv.sum(axis=0),
        "w1": dh1.T @ x, "b1": dh1.sum(axis=0),
    }
    return loss, grads


class VaeModel:
    """Mirrored encoder/decoder with tanh hidden layers and linear outputs."""

    def __init__(self, input_dim: int, config: VaeConfig, params: Dict[str, np.ndarray]):
        self.input_dim = input_dim
        self.config = config
        self.params = params
        self.epoch_losses: List[float] = []

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        """Deterministic inference: decode from the encoder mean, no sampling."""
        p = self.params
        h1 = np.tanh(x @ p["w1"].T + p["b1"])
        mu = h1 @ p["wmu"].T + p["bmu"]
        h2 = np.tanh(mu @ p["w2"].T + p["b2"])
        return h2 @ p["w3"].T + p["b3"]

    def save(self, path: str):
        doc = {
            "input_dim": self.input_dim,
            "config": dataclasses.asdict(self.config),
            "params": {k: self.params[k].tolist() for k in _PARAM_NAMES},
            "epoch_losses": self.epoch_losses,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "VaeModel":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        m = cls(doc["input_dim"], VaeConfig(**doc["config"]),
                {k: np.asarray(v) for k, v in doc["params"].items()})
        m.epoch_losses = doc.get("epoch_losses", [])
        return m


def train_vae(vectors: Sequence[np.ndarray], config: VaeConfig = None) -> VaeModel:
    """Mini-batch SGD with the reparameterization trick; deterministic given seed."""
    cfg = config or VaeConfig()
    x_all = np.asarray(vectors, dtype=np.float64)
    if x_all.ndim != 2 or x_all.shape[0] < 2:
        raise ValueError("need at least 2 training vectors")
    n, d = x_all.shape
    rs = np.random.RandomState(cfg.seed)
    params = _init_params(d, cfg.hidden, cfg.latent, rs)
    model = VaeModel(d, cfg, params)
    for _ in range(cfg.epochs):
        order = rs.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = x_all[order[lo:lo + cfg.batch_size]]
            eps = rs.randn(batch.shape[0], cfg.latent)
            loss, grads = vae_loss_and_grads(params, batch, eps, cfg.kl_weight)
            for k, gv in grads.items():
                params[k] -= cfg.lr * gv
            total += loss * batch.shape[0]
        model.epoch_losses.append(total / n)
    return model


def reconstruction_errors(m: VaeModel, x: np.ndarray) -> np.ndarray:
    """Per row of x, the per-dimension MSE against its deterministic reconstruction."""
    x = np.asarray(x, dtype=np.float64)
    xh = m.reconstruct(x)
    return np.mean((x - xh) ** 2, axis=1)


@dataclass
class StabilityTable:
    sv: Dict[str, int] = field(default_factory=dict)
    eps: float = 0.5
    min_pts: int = 3

    def get(self, name: str) -> int:
        return self.sv.get(name, 1)

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"eps": self.eps, "min_pts": self.min_pts, "sv": self.sv},
                      fh, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "StabilityTable":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(sv=doc["sv"], eps=doc["eps"], min_pts=doc["min_pts"])


def build_stability_table(history: Dict[str, List[np.ndarray]],
                          eps: float = 0.5, min_pts: int = 3) -> StabilityTable:
    """SV(name) = max(1, clusters + noise points) over the name's vectors."""
    table = StabilityTable(eps=eps, min_pts=min_pts)
    for name in sorted(history):
        labels = _kernels.dbscan_labels(np.asarray(history[name]), eps, min_pts)
        n_noise = int(np.sum(labels == -1))
        n_clusters = len(set(labels.tolist()) - {-1})
        table.sv[name] = max(1, n_clusters + n_noise)
    return table


def anomaly_score(re: float, sv: int) -> float:
    """AS = ln((RE + guard) / SV)."""
    return math.log((re + LOG_GUARD) / sv)


@dataclass
class AnomalyThreshold:
    tau: float
    calibrated_on: str = ""
    count: int = 0

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"tau": self.tau, "calibrated_on": self.calibrated_on,
                       "count": self.count}, fh, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "AnomalyThreshold":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(tau=doc["tau"], calibrated_on=doc["calibrated_on"], count=doc["count"])


def calibrate_threshold(historical_as: Sequence[float], source: str = "") -> AnomalyThreshold:
    """tau = nearest-rank 90th percentile (value at rank ceil(0.9 N), ascending).

    The rank is computed in exact integer arithmetic so N=10 gives rank
    9, not the float artifact ceil(9.000000000000002) = 10.
    """
    if len(historical_as) == 0:
        raise ValueError("cannot calibrate a threshold on no data")
    ordered = sorted(historical_as)
    n = len(ordered)
    rank = (9 * n + 9) // 10
    return AnomalyThreshold(tau=float(ordered[rank - 1]), calibrated_on=source,
                            count=n)


class ModelBundle:
    """Everything the detector needs at inference time."""

    # constructor argument -> (file name, artifact class)
    ARTIFACTS = {
        "embedding": ("embedding.json", EmbeddingModel),
        "idf": ("idf.json", IdfTable),
        "vae": ("vae.json", VaeModel),
        "stability": ("stability.json", StabilityTable),
        "threshold": ("threshold.json", AnomalyThreshold),
    }

    def __init__(self, embedding: EmbeddingModel, idf: IdfTable, vae: VaeModel,
                 stability: StabilityTable, threshold: AnomalyThreshold):
        self.embedding = embedding
        self.idf = idf
        self.vae = vae
        self.stability = stability
        self.threshold = threshold
        self.rows: Dict[tuple, np.ndarray] = {}  # process_vectors' row memo

    def save(self, model_dir: str):
        os.makedirs(model_dir, exist_ok=True)
        for key, (name, _) in self.ARTIFACTS.items():
            getattr(self, key).save(os.path.join(model_dir, name))

    @classmethod
    def load(cls, model_dir: str) -> "ModelBundle":
        return cls(**{key: kind.load(os.path.join(model_dir, name))
                      for key, (name, kind) in cls.ARTIFACTS.items()})


def window_process_features(g) -> List[Tuple[str, str, str, List[str], List[str]]]:
    """Per process in g: (node, name, cmdline, distinct file paths, distinct ip keys)."""
    out = []
    for nid, rec in g.nodes.items():
        if rec.kind != PROCESS:
            continue
        paths: List[str] = []
        quads: List[str] = []
        for nb in g.undirected[nid]:
            nrec = g.nodes[nb]
            if nrec.kind == FILE:
                paths.append(nrec.attrs.path)
            elif nrec.kind == IP:
                a = nrec.attrs
                quads.append("%s:%d:%s:%d" % (a.src_ip, a.src_port, a.dst_ip, a.dst_port))
        paths.sort()
        quads.sort()
        out.append((nid, rec.attrs.name, rec.attrs.cmdline, paths, quads))
    return out


def process_vectors(feats, emb: EmbeddingModel, idf: IdfTable,
                    rows: Optional[Dict[tuple, np.ndarray]] = None) -> np.ndarray:
    """One process vector per window_process_features entry, as an (n, d)
    array.  `rows` is the row memo of this emb and idf (see the module
    docstring); without it the rows are memoized for this call only."""
    if rows is None:
        rows = {}
    out = np.empty((len(feats), emb.dimension))
    for i, (_, _, cmdline, paths, quads) in enumerate(feats):
        key = (cmdline, tuple(paths), tuple(quads))
        v = rows.get(key)
        if v is None:
            v = process_vector(emb.embed_text(cmdline),
                               [(emb.embed_text(p), idf.weight(p)) for p in paths],
                               [(emb.embed_text(q), idf.weight(q)) for q in quads])
            v.flags.writeable = False
            _memo_put(rows, key, v)
        out[i] = v
    return out


def score_processes(g, bundle: ModelBundle) -> Dict[str, float]:
    """AS for every process node of the window graph.

    Files and IPs are never scored; their anomaly contribution is folded
    into the accessing process via the IDF weights.
    """
    feats = window_process_features(g)
    if not feats:
        return {}
    res = reconstruction_errors(bundle.vae, process_vectors(
        feats, bundle.embedding, bundle.idf, bundle.rows))
    return {
        nid: anomaly_score(float(re), bundle.stability.get(name))
        for (nid, name, _, _, _), re in zip(feats, res)
    }
