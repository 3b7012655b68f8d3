"""Per-window detection: hopset construction, cache maintenance, and
iterated max-outlier testing over hopset anomaly scores.

Every hopset leaves its builder (`stp.isg_hopset` or a baseline's
`stp.steiner_window_hopsets`) complete, each edge with its op and each
member with its entity attributes.  An alert is a flagged hopset: its
`cache.hopset_to_doc` document plus the alert's id, window index and
Grubbs statistic, written as JSON plus DOT for quick triage.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Set

from . import grubbs_table
from .anomaly import ModelBundle, score_processes
from .cache import CacheState, evict, hopset_to_doc, insert_or_merge, lookup
from .ingest import WindowBatch
from .model import FILE, IP, PROCESS, build_window_graph
from .stp import Hopset, IsgParams, isg_hopset, merge_hopsets, steiner_window_hopsets

DEFAULT_GRUBBS_ALPHA = 0.05
MIN_GRUBBS_POPULATION = 3


@lru_cache(maxsize=4096)
def grubbs_critical(n: int, alpha_g: float) -> float:
    """One-sided max-outlier critical value at significance alpha_g.

    At alpha 0.05 and n <= 1 024 it comes from `grubbs_table`; any other
    value imports scipy for its Student-t quantile."""
    if n < 3:
        raise ValueError("the test needs at least 3 samples, got %d" % n)
    if alpha_g == grubbs_table.ALPHA and n <= grubbs_table.N_MAX:
        return grubbs_table.critical(n)
    return grubbs_table.formula(n, alpha_g)


def _sample_stdev(values: List[float]) -> float:
    """`statistics.stdev(values)`, bit for bit, for two or more values.

    Both are the correctly rounded square root of the exact sample
    variance. Here that variance is (n*Sxx - Sx**2) / (n*(n-1)) in
    integers over the values' common power-of-two denominator, and the
    root is rounded to odd with `math.isqrt` before the one rounding to
    float, as `statistics` does. A non-finite value takes the stdlib path.
    """
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except (OverflowError, ValueError):
        return statistics.stdev(values)
    scale = max(d for _, d in ratios)
    xs = [p * (scale // d) for p, d in ratios]
    n = len(xs)
    sx = sum(xs)
    num = n * sum(x * x for x in xs) - sx * sx
    den = n * (n - 1) * scale * scale
    # Scale num/den by 4**-q to about 2*53+3 bits, as statistics does, so
    # its integer root keeps enough bits past a double's 53 for rounding to
    # odd and then to float to round the exact root correctly.
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num  # round to odd
    return float(root << q) if q >= 0 else root / (1 << -q)


def grubbs_outliers(values: List[float], alpha_g: float = DEFAULT_GRUBBS_ALPHA) -> List[int]:
    """Iteratively flag the sample maximum while it exceeds the critical
    value; returns original indices in removal order."""
    vals = [float(v) for v in values]
    idx = list(range(len(vals)))
    flagged: List[int] = []
    while len(vals) >= 3:
        mean = statistics.fmean(vals)
        std = _sample_stdev(vals)
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


def _alert_signature(h: Hopset) -> str:
    return hashlib.md5(",".join(sorted(h.members)).encode("utf-8")).hexdigest()


def process_window(batch: WindowBatch, st: DetectorState) -> List[dict]:
    """Run one detection pass over a sealed window of events; returns the
    documents of the alerts it fires."""
    g = build_window_graph(batch.events)
    st.counters["illegal_pairs"] = st.counters.get("illegal_pairs", 0) + g.rejected
    if st.scorer is not None:
        scores, tau = st.scorer(g)
    else:
        scores = score_processes(g, st.bundle)
        tau = st.bundle.threshold.tau
    terminals = sorted(n for n, s in scores.items() if s > tau)
    st.counters["terminals"] = st.counters.get("terminals", 0) + len(terminals)

    if st.algorithm == "isg":
        hopsets = [isg_hopset(t, g, scores, st.params) for t in terminals]
    else:
        hopsets = steiner_window_hopsets(terminals, g, scores, st.params, st.algorithm)
    merged = merge_hopsets(hopsets, st.params.theta)
    for h in merged:
        for n in sorted(h.members):
            if lookup(st.cache, n)[1] == "restored":
                st.counters["restored"] = st.counters.get("restored", 0) + 1

    insert_or_merge(st.cache, merged, st.params.theta)
    evicted = evict(st.cache)
    st.counters["evicted"] = st.counters.get("evicted", 0) + len(evicted)

    alerts: List[dict] = []
    resident = sorted(st.cache.entries.items())
    if len(resident) >= MIN_GRUBBS_POPULATION:
        values = [h.has for _, h in resident]
        flagged = grubbs_outliers(values, st.alpha_g)
        if flagged:  # so three or more values, spread above 0
            mean, std = statistics.fmean(values), _sample_stdev(values)
        for i in flagged:
            hid, h = resident[i]
            h.age = 0
            sig = _alert_signature(h)
            if sig in st.emitted:
                continue
            st.emitted.add(sig)
            alerts.append(dict(hopset_to_doc(h),
                               id="%06d-%s" % (batch.window_index, hid[:12]),
                               window_index=batch.window_index,
                               grubbs_statistic=(values[i] - mean) / std))
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


def alert_to_dot(a: dict) -> str:
    lines = ['graph "alert-%s" {' % a["id"],
             "  node [fontname=\"monospace\"];"]
    term = set(a["terminals"])
    for nid, info in sorted(a["members"].items()):
        shape = "doublecircle" if nid in term else "box"
        style = ', style=filled, fillcolor="#ffcccc"' if nid in term else ""
        lines.append('  "%s" [label="%s", shape=%s%s];'
                     % (nid, _node_label(nid, info), shape, style))
    for u, v, op in a["edges"]:
        label = ' [label="%s"]' % _dot_escape(op) if op else ""
        lines.append('  "%s" -- "%s"%s;' % (u, v, label))
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_alert(a: dict, out_dir: str) -> List[str]:
    """Write alert-<id>.json and alert-<id>.dot; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "alert-%s.json" % a["id"])
    dot_path = os.path.join(out_dir, "alert-%s.dot" % a["id"])
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(a, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(dot_path, "w", encoding="utf-8") as fh:
        fh.write(alert_to_dot(a))
    return [json_path, dot_path]
