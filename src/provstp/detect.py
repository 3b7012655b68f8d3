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

from .anomaly import ModelBundle, score_processes
from .cache import CacheState, evict, hopset_to_doc, insert_or_merge, lookup
from .ingest import WindowBatch
from .model import FILE, IP, PROCESS, build_window_graph
from .stp import Hopset, IsgParams, isg_hopset, merge_hopsets, steiner_window_hopsets

DEFAULT_GRUBBS_ALPHA = 0.05
MIN_GRUBBS_POPULATION = 3


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)) for a >= 1/2.

    The asymptotic series at a + k >= 20, stepped down by
    Gamma(a + 1) = a Gamma(a), keeps an absolute error near 1e-16. A
    difference of two `math.lgamma` values loses about 1e-14 at a = 26."""
    shift = 0.0
    while a < 20.0:
        shift += math.log1p(0.5 / a)
        a += 1.0
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - shift - (
        1 / 8 - (1 / 192 - (1 / 640 - (17 / 14336 - 31 / 18432 * r) * r) * r) * r) / a


def _beta_cf(a: float, x: float, y: float) -> float:
    """I_x(a, 1/2) * a B(a, 1/2) / (x**a sqrt(y)), where y = 1 - x.

    The incomplete-beta continued fraction 1/(1 + d1/(1 + d2/(1 + ...)))
    by the modified Lentz method. Each odd level 1 + d_(2m+1) * z, with
    d_(2m+1) = -x q near -1 and z near 1, is formed as y + x (1 - q) plus
    a small term, so x near 1 (many degrees of freedom) cancels nothing.
    """
    u_odd = y + 0.5 * x / (a + 1.0)  # 1 + d1, Lentz's 1/D
    c_odd = 1.0                       # Lentz's C
    h = 1.0 / u_odd
    for m in range(1, 200):  # 25 steps at most over n >= 3 and 0 < alpha < 1 (measured)
        d_even = -m * (m - 0.5) * x / ((a + 2 * m - 1) * (a + 2 * m))
        u_even = 1.0 + d_even / u_odd
        c_even = 1.0 + d_even / c_odd
        den = (a + 2 * m) * (a + 2 * m + 1)
        base = y + x * (2 * a * m + 0.5 * a + 3 * m * m + 1.5 * m) / den  # 1 + d_odd
        xq = x * (a + m) * (a + 0.5 + m) / den                               # -d_odd
        u_odd = base + xq * d_even / (u_odd * u_even)
        c_odd = base + xq * d_even / (c_odd * c_even)
        delta = c_even * c_odd / (u_even * u_odd)
        h *= delta
        if abs(delta - 1.0) < 4e-16:
            break
    return h


@lru_cache(maxsize=4096)
def grubbs_critical(n: int, alpha_g: float) -> float:
    """One-sided max-outlier critical value at significance alpha_g,
    G = ((n-1)/sqrt(n)) * sqrt(t**2 / (nu + t**2)), where t is the
    Student-t quantile with nu = n-2 degrees of freedom and upper tail
    alpha_g/n.

    Newton steps on s = log t solve log P(T > t) = log(alpha_g/n), with
    P(T > t) = I_x(nu/2, 1/2) / 2 and x = nu/(nu + t**2). Against s the
    log tail is concave and has slope -nu/cf, so the steps need no
    bracket, and no step forms 1 - alpha_g/n or t**2. Within 7 ulps of
    the exact value at 3 <= n <= 5 000 and alpha 0.1 to 0.001 (measured);
    at tiny alpha it tends to the bound (n-1)/sqrt(n).
    """
    if n < 3 or not 0.0 < alpha_g < 1.0:
        raise ValueError("the test needs at least 3 samples and 0 < alpha < 1, "
                         "got n=%d, alpha=%r" % (n, alpha_g))
    nu = n - 2
    a = 0.5 * nu
    log_nu = math.log(nu)
    log_p = math.log(alpha_g) - math.log(n)
    log_front = _log_gamma_ratio(a) - log_nu - 0.5 * math.log(math.pi)
    s = math.log(-statistics.NormalDist().inv_cdf(max(alpha_g / n, 1e-300)))
    for _ in range(20):  # 5 steps at most over n >= 3 and 0 < alpha < 1 (measured)
        w = 2.0 * s - log_nu  # log(t**2 / nu) = log((1 - x) / x)
        log_x = -(w + math.log1p(math.exp(-w)) if w > 0.0 else math.log1p(math.exp(w)))
        cf = _beta_cf(a, math.exp(log_x), math.exp(log_x + w))
        log_tail = a * log_x + 0.5 * (log_x + w) + math.log(cf) + log_front
        step = (log_tail - log_p) * cf / nu
        s += step
        if abs(step) < 1e-9:  # quadratic convergence: the error is now ~1e-18
            break
    return (n - 1) / math.sqrt(n) / math.sqrt(1.0 + math.exp(log_nu - 2.0 * s))


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
    return "%s\\n%s" % (kind, _dot_escape(str(detail)[:60]))


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
        fh.write(json.dumps(a, sort_keys=True, indent=2) + "\n")
    with open(dot_path, "w", encoding="utf-8") as fh:
        fh.write(alert_to_dot(a))
    return [json_path, dot_path]
