"""Span tracer for one benchmark pass.

The provstp modules import each other's functions with `from x import y`,
so a function is looked up in the caller's module namespace, not where it
is defined.  `install` therefore replaces each traced function in every
namespace its callers read it from, for example
`provstp.detect.build_window_graph` and `provstp.cli.build_window_graph`.
Methods are replaced on their class.

Each call becomes one span (name, start, end, parent); a generator gets a
span per `next()`, so parsing one line or sealing one window is one span.
Spans live in flat arrays until the pass ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional

ROOT = "trace.unattributed"


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: Dict[str, int] = {}   # completed calls, or items yielded
        self.counts: Dict[str, int] = {}  # counters filled by result hooks
        self._stack: List[int] = []

    def _name(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self.calls[span] = 0
        return self._ids[span]

    def open(self, span: str) -> int:
        i = len(self.start)
        self.name_id.append(self._name(span))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _iterate(self, span: str, it):
        while True:
            i = self.open(span)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(i)
            self.calls[span] += 1
            yield item

    def wrap(self, owner, attr: str, span: str, generator: bool = False,
             hook: Optional[Callable[[Dict[str, int], tuple, object], None]] = None):
        """Replace owner.attr with a traced version of itself."""
        fn = getattr(owner, attr)
        self._name(span)
        if generator:
            def traced(*args, **kwargs):
                return self._iterate(span, fn(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                i = self.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(i)
                self.calls[span] += 1
                if hook is not None:
                    hook(self.counts, args, result)
                return result
        setattr(owner, attr, traced)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name, over every span recorded."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        out = {name: 0.0 for name in self.names}
        for i, nid in enumerate(self.name_id):
            out[self.names[nid]] += own[i]
        return out


def _add(counts: Dict[str, int], key: str, value: int):
    counts[key] = counts.get(key, 0) + value


def _graph_hook(counts, args, g):
    _add(counts, "model.nodes", len(g.nodes))
    _add(counts, "model.edges", len(g.edges))
    _add(counts, "model.illegal_pairs", g.rejected)


def _score_hook(counts, args, scores):
    _add(counts, "anomaly.processes", len(scores))


def _dbscan_hook(counts, args, labels):
    _add(counts, "kernels.dbscan_points", len(labels))


def install(tracer: Tracer):
    """Trace every layer of the detection and training pipelines."""
    import provstp._kernels as kernels
    import provstp.anomaly as anomaly
    import provstp.cache as cache
    import provstp.cli as cli
    import provstp.detect as detect
    import provstp.embed as embed

    w = tracer.wrap
    w(cli, "read_events", "ingest.parse", generator=True)
    w(cli, "window_stream", "ingest.window", generator=True)
    for mod in (detect, cli):
        w(mod, "build_window_graph", "model.graph_build", hook=_graph_hook)
    for mod in (anomaly, detect):
        w(mod, "score_processes", "anomaly.score", hook=_score_hook)
    for mod in (anomaly, cli):
        w(mod, "window_process_features", "anomaly.features")
    w(cli, "train_vae", "anomaly.vae_train")
    w(cli, "build_stability_table", "anomaly.stability")
    w(anomaly.ModelBundle, "save", "anomaly.bundle_save")
    w(embed.EmbeddingModel, "embed_text", "embed.embed_text")
    w(cli, "train_embedding", "embed.train")
    w(kernels, "sgns_epoch", "kernels.sgns_epoch")
    w(kernels, "dbscan_labels", "kernels.dbscan", hook=_dbscan_hook)
    w(detect, "isg_hopset", "stp.subgraph")
    for mod in (detect, cache):
        w(mod, "merge_hopsets", "stp.merge")
    w(detect, "insert_or_merge", "cache.insert")
    w(detect, "evict", "cache.evict")
    w(detect, "lookup", "cache.lookup")
    w(cache.EvictionStore, "store", "cache.store")
    w(cache.EvictionStore, "load", "cache.load")
    w(cache.EvictionStore, "remove", "cache.remove")
    w(cli, "process_window", "detect.window_self")
    w(detect, "grubbs_outliers", "detect.grubbs")
    w(cli, "emit_alert", "detect.emit")
    w(cli, "train_bundle", "cli.train_self")
