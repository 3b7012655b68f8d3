"""Per-window detection: hopset construction, cache maintenance, and
iterated max-outlier testing over hopset anomaly scores.

Alerts are compact connected subgraphs (the flagged hopsets) with entity
attributes resolved, written as JSON plus DOT for quick triage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Set

from scipy.special import stdtrit

from .anomaly import ModelBundle, score_processes
from .cache import CacheState, evict, insert_or_merge, lookup
from .ingest import WindowBatch
from .model import FILE, IP, PROCESS, WindowGraph, build_window_graph
from .stp import (Hopset, IsgParams, MemberRec, bfs, fanout, hopset_score,
                  importance, isg_hopset, merge_hopsets, steiner_forest)

DEFAULT_GRUBBS_ALPHA = 0.05
MIN_GRUBBS_POPULATION = 3


@lru_cache(maxsize=4096)
def grubbs_critical(n: int, alpha_g: float) -> float:
    """One-sided max-outlier critical value at significance alpha_g."""
    if n < 3:
        raise ValueError("the test needs at least 3 samples, got %d" % n)
    tq = float(stdtrit(n - 2, 1.0 - alpha_g / n))  # Student-t quantile
    return ((n - 1) / math.sqrt(n)) * math.sqrt(tq * tq / (n - 2 + tq * tq))


def grubbs_outliers(values: List[float], alpha_g: float = DEFAULT_GRUBBS_ALPHA) -> List[int]:
    """Iteratively flag the sample maximum while it exceeds the critical
    value; returns original indices in removal order."""
    vals = [float(v) for v in values]
    idx = list(range(len(vals)))
    flagged: List[int] = []
    while len(vals) >= 3:
        mean = statistics.fmean(vals)
        std = statistics.stdev(vals)
        if std <= 0.0:
            break
        i = max(range(len(vals)), key=lambda j: vals[j])
        g = (vals[i] - mean) / std
        if g > grubbs_critical(len(vals), alpha_g):
            flagged.append(idx[i])
            del vals[i]
            del idx[i]
        else:
            break
    return flagged


def _grubbs_statistic(values: List[float], value: float) -> float:
    if len(values) < 2:
        return 0.0
    std = statistics.stdev(values)
    if std <= 0.0:
        return 0.0
    return (value - statistics.fmean(values)) / std


@dataclass
class Alert:
    id: str
    window_index: int
    terminals: List[str]
    members: Dict[str, dict]
    edges: List[List[str]]
    has: float
    grubbs_statistic: float

    def to_doc(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "Alert":
        return cls(**{f.name: doc[f.name] for f in dataclasses.fields(cls)})


@dataclass
class DetectorState:
    """Mutable cross-window state.

    `algorithm` picks the per-window subgraph builder: "isg" (default)
    or one of the offline Steiner baselines ("greedy", "kou", "mehlhorn").
    `scorer`, when set, replaces the model-based process scoring with a
    callable WindowGraph -> (scores, tau); `bundle` may then be None.
    """

    cache: CacheState
    bundle: Optional[ModelBundle]
    params: IsgParams = field(default_factory=IsgParams)
    alpha_g: float = DEFAULT_GRUBBS_ALPHA
    algorithm: str = "isg"
    scorer: Optional[object] = None
    emitted: Set[str] = field(default_factory=set)
    counters: Dict[str, int] = field(default_factory=dict)


def steiner_window_hopsets(terminals: List[str], g: WindowGraph,
                           scores: Dict[str, float], p: IsgParams,
                           window_index: int, algorithm: str) -> List[Hopset]:
    """Baseline subgraph construction: a Steiner tree per terminal
    component instead of bounded neighborhoods, for run/bench ablation."""
    out: List[Hopset] = []
    for terms, edges in steiner_forest(g.undirected, terminals, algorithm):
        adj: Dict[str, Set[str]] = {t: set() for t in terms}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        hops = bfs(adj, terms)[0]
        members = {}
        for n in sorted(adj):
            as_n = scores.get(n, 0.0)
            members[n] = MemberRec(as_score=as_n, hops=hops[n],
                                   iv=importance(as_n, fanout(n, g), hops[n], p))
        hs = Hopset(terminals=set(terms), members=members, edges=edges,
                    last_window=window_index)
        hs.has = hopset_score(hs)
        out.append(hs)
    return out


def _entity_doc(rec) -> dict:
    doc = {"kind": rec.kind}
    doc.update(dataclasses.asdict(rec.attrs))
    return doc


def _decorate_hopset(h: Hopset, g: WindowGraph):
    for n in h.members:
        rec = g.nodes.get(n)
        if rec is not None:
            h.attrs[n] = _entity_doc(rec)
    for e in h.edges:
        op = g.first_op.get(e)
        if op is not None:
            h.edge_ops.setdefault(e, op)


def _alert_signature(h: Hopset) -> str:
    return hashlib.md5(",".join(sorted(h.members)).encode("utf-8")).hexdigest()


def _build_alert(h: Hopset, hid: str, window_index: int, g_stat: float) -> Alert:
    members = {}
    for n, rec in sorted(h.members.items()):
        members[n] = {
            "as": rec.as_score,
            "hops": rec.hops,
            "iv": rec.iv,
            "attrs": h.attrs.get(n, {}),
        }
    edges = []
    for u, v in sorted(h.edges):
        edges.append([u, v, h.edge_ops.get((u, v), "")])
    return Alert(
        id="%06d-%s" % (window_index, hid[:12]),
        window_index=window_index,
        terminals=sorted(h.terminals),
        members=members,
        edges=edges,
        has=h.has,
        grubbs_statistic=g_stat,
    )


def process_window(batch: WindowBatch, st: DetectorState) -> List[Alert]:
    """Run one detection pass over a sealed window of events."""
    g = build_window_graph(batch.events, batch.window_index)
    st.counters["illegal_pairs"] = st.counters.get("illegal_pairs", 0) + g.rejected
    if st.scorer is not None:
        scores, tau = st.scorer(g)
    else:
        scores = score_processes(g, st.bundle)
        tau = st.bundle.threshold.tau
    terminals = sorted(n for n, s in scores.items() if s > tau)
    st.counters["terminals"] = st.counters.get("terminals", 0) + len(terminals)

    if st.algorithm == "isg":
        hopsets = [isg_hopset(t, g, scores, st.params, batch.window_index)
                   for t in terminals]
    else:
        hopsets = steiner_window_hopsets(terminals, g, scores, st.params,
                                         batch.window_index, st.algorithm)
    merged = merge_hopsets(hopsets, st.params.theta)
    for h in merged:
        _decorate_hopset(h, g)
        for n in sorted(h.members):
            if lookup(st.cache, n)[1] == "restored":
                st.counters["restored"] = st.counters.get("restored", 0) + 1

    insert_or_merge(st.cache, merged, batch.window_index)
    evicted = evict(st.cache)
    st.counters["evicted"] = st.counters.get("evicted", 0) + len(evicted)

    alerts: List[Alert] = []
    resident = sorted(st.cache.entries.items())
    if len(resident) >= MIN_GRUBBS_POPULATION:
        values = [h.has for _, h in resident]
        for i in grubbs_outliers(values, st.alpha_g):
            hid, h = resident[i]
            h.age = 0
            sig = _alert_signature(h)
            if sig in st.emitted:
                continue
            st.emitted.add(sig)
            g_stat = _grubbs_statistic(values, values[i])
            alerts.append(_build_alert(h, hid, batch.window_index, g_stat))
    st.counters["alerts"] = st.counters.get("alerts", 0) + len(alerts)
    return alerts


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_label(nid: str, info: dict) -> str:
    attrs = info.get("attrs", {})
    kind = attrs.get("kind", "?")
    if kind == PROCESS:
        detail = attrs.get("name") or attrs.get("cmdline", "")
    elif kind == FILE:
        detail = attrs.get("path", "")
    elif kind == IP:
        detail = "%s:%s" % (attrs.get("dst_ip", "?"), attrs.get("dst_port", "?"))
    else:
        detail = nid[:8]
    return "%s\\n%s" % (kind, _dot_escape(str(detail))[:60])


def alert_to_dot(a: Alert) -> str:
    lines = ['graph "alert-%s" {' % a.id,
             "  node [fontname=\"monospace\"];"]
    term = set(a.terminals)
    for nid in sorted(a.members):
        info = a.members[nid]
        shape = "doublecircle" if nid in term else "box"
        style = ', style=filled, fillcolor="#ffcccc"' if nid in term else ""
        lines.append('  "%s" [label="%s", shape=%s%s];'
                     % (nid, _node_label(nid, info), shape, style))
    for u, v, op in a.edges:
        label = ' [label="%s"]' % _dot_escape(op) if op else ""
        lines.append('  "%s" -- "%s"%s;' % (u, v, label))
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_alert(a: Alert, out_dir: str) -> List[str]:
    """Write alert-<id>.json and alert-<id>.dot; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "alert-%s.json" % a.id)
    dot_path = os.path.join(out_dir, "alert-%s.dot" % a.id)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(a.to_doc(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(dot_path, "w", encoding="utf-8") as fh:
        fh.write(alert_to_dot(a))
    return [json_path, dot_path]
