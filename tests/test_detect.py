import json
import math
import re

import numpy as np
import pytest

from provstp import detect
from provstp.cache import CacheState, EvictionStore
from provstp.detect import (
    Alert,
    DetectorState,
    alert_to_dot,
    emit_alert,
    grubbs_critical,
    grubbs_outliers,
    process_window,
)
from provstp.ingest import RawEvent, WindowBatch
from provstp.model import FILE, IP, PROCESS, FileAttrs, IpAttrs, ProcessAttrs
from provstp.stp import IsgParams


# published one-sided critical values at alpha 0.05
PUBLISHED_G = {3: 1.15, 10: 2.18, 20: 2.557, 50: 2.956}


def test_grubbs_critical_matches_tables():
    for n, expected in PUBLISHED_G.items():
        assert grubbs_critical(n, 0.05) == pytest.approx(expected, abs=0.02)


def test_grubbs_critical_monotone_in_n():
    prev = 0.0
    for n in range(3, 101):
        g = grubbs_critical(n, 0.05)
        assert g > prev
        prev = g


def test_grubbs_critical_equals_student_t_ppf_formula():
    from scipy.stats import t

    for alpha in (0.05, 0.01, 0.1, 0.001):
        for n in list(range(3, 400)) + [997, 1000, 2500, 5000]:
            tq = t.ppf(1.0 - alpha / n, n - 2)
            ref = ((n - 1) / math.sqrt(n)) * math.sqrt(tq * tq / (n - 2 + tq * tq))
            assert grubbs_critical(n, alpha) == ref, (n, alpha)


def test_grubbs_critical_rejects_small_n():
    for n in (0, 1, 2):
        with pytest.raises(ValueError):
            grubbs_critical(n, 0.05)


def test_grubbs_outliers_examples():
    assert grubbs_outliers([5.0, 5.0, 5.0, 5.0]) == []
    assert grubbs_outliers([1.0] * 9 + [100.0]) == [9]
    assert grubbs_outliers([1.0, 100.0]) == []
    assert grubbs_outliers([]) == []


def test_grubbs_outliers_iterates():
    vals = [1.0] * 18 + [50.0, 80.0]
    flagged = grubbs_outliers(vals)
    assert flagged == [19, 18]


def test_grubbs_false_flag_rate():
    rng = np.random.RandomState(2024)
    hits = sum(1 for _ in range(300) if grubbs_outliers(list(rng.randn(50)), 0.05))
    assert hits / 300 <= 0.09


def proc(pid, name, cmdline=None):
    return ProcessAttrs(pid=pid, tid=pid, uid=1000, name=name,
                        cmdline=cmdline or name, host="h1")


def ev(ts, src, op, dst, src_kind=PROCESS, dst_kind=FILE):
    return RawEvent(ts=ts, host="h1", op=op, src_kind=src_kind, src=src,
                    dst_kind=dst_kind, dst=dst)


def window(idx, events):
    return WindowBatch(window_index=idx, events=events)


class StubThreshold:
    def __init__(self, tau):
        self.tau = tau


class StubBundle:
    def __init__(self, tau):
        self.threshold = StubThreshold(tau)


def make_state(tmp_path, tau=1.0, capacity=10_000, theta=10, alpha_g=0.05):
    store = EvictionStore(str(tmp_path / "store"))
    cache = CacheState(store=store, capacity=capacity, theta=theta)
    return DetectorState(cache=cache, bundle=StubBundle(tau),
                         params=IsgParams(theta=theta), alpha_g=alpha_g)


def patch_scores(monkeypatch, by_name):
    """Score each process by its name; absent names get 0."""
    def fake_scores(g, bundle):
        out = {}
        for nid, rec in g.nodes.items():
            if rec.kind == PROCESS:
                out[nid] = by_name.get(rec.attrs.name, 0.0)
        return out
    monkeypatch.setattr(detect, "score_processes", fake_scores)


def benign_window(idx, name, pid, path):
    return window(idx, [ev(idx * 10_000 + 1, proc(pid, name), "read",
                           FileAttrs(path=path, host="h1"))])


def test_window_with_no_terminals(tmp_path, monkeypatch):
    st = make_state(tmp_path, tau=1.0)
    patch_scores(monkeypatch, {})
    alerts = process_window(benign_window(0, "sh", 10, "/etc/motd"), st)
    assert alerts == []
    assert st.cache.entries == {}


def test_resident_entries_age_without_terminals(tmp_path, monkeypatch):
    st = make_state(tmp_path, tau=1.0)
    patch_scores(monkeypatch, {"bad": 5.0})
    process_window(benign_window(0, "bad", 10, "/tmp/drop"), st)
    assert len(st.cache.entries) == 1
    patch_scores(monkeypatch, {})
    process_window(benign_window(1, "sh", 11, "/etc/motd"), st)
    entry = next(iter(st.cache.entries.values()))
    assert entry.age == 1


def test_single_resident_no_alert(tmp_path, monkeypatch):
    st = make_state(tmp_path, tau=1.0)
    patch_scores(monkeypatch, {"bad": 50.0})
    alerts = process_window(benign_window(0, "bad", 10, "/tmp/drop"), st)
    assert alerts == []


def test_outlier_hopset_alerts_once(tmp_path, monkeypatch):
    st = make_state(tmp_path, tau=0.5)
    patch_scores(monkeypatch, {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0,
                               "e": 1.0, "f": 1.0, "g": 1.0, "h": 1.0,
                               "evil": 40.0})
    for i, name in enumerate(["a", "b", "c", "d", "e", "f", "g", "h"]):
        process_window(benign_window(i, name, 100 + i, "/var/%s" % name), st)
    alerts = process_window(benign_window(8, "evil", 666, "/tmp/implant"), st)
    assert len(alerts) == 1
    a = alerts[0]
    assert a.window_index == 8
    assert a.grubbs_statistic > grubbs_critical(9, 0.05)
    assert any(info["attrs"].get("name") == "evil" for info in a.members.values())
    # flagged entry stays resident with age zero
    flagged = [h for h in st.cache.entries.values() if h.has == a.has]
    assert flagged and flagged[0].age == 0
    # unchanged campaign does not re-alert
    again = process_window(benign_window(9, "x", 900, "/var/x"), st)
    assert again == []


def test_grown_campaign_realerts(tmp_path, monkeypatch):
    st = make_state(tmp_path, tau=0.5)
    benign = [chr(97 + i) for i in range(8)]
    names = {n: 1.0 for n in benign}
    names["evil"] = 40.0
    patch_scores(monkeypatch, names)
    for i, name in enumerate(benign):
        process_window(benign_window(i, name, 100 + i, "/var/%s" % name), st)
    first = process_window(benign_window(8, "evil", 666, "/tmp/implant"), st)
    assert len(first) == 1
    # the same campaign touches a new file: members change, alert re-issued
    second = process_window(benign_window(9, "evil", 666, "/tmp/stage2"), st)
    assert len(second) == 1
    assert set(second[0].members) > set(first[0].members)


def test_restored_hopset_links_stages(tmp_path, monkeypatch):
    st = make_state(tmp_path, tau=0.5, capacity=3)
    patch_scores(monkeypatch, {"evil": 2.0})
    process_window(benign_window(0, "evil", 666, "/tmp/stage1"), st)
    assert len(st.cache.entries) == 1
    patch_scores(monkeypatch, {"other": 50.0})
    # a higher-energy 3-member hopset arrives; capacity 3 pushes the idle
    # low-energy campaign out to the store
    process_window(window(1, [
        ev(10_001, proc(70, "other"), "write", FileAttrs(path="/o1", host="h1")),
        ev(10_002, proc(70, "other"), "write", FileAttrs(path="/o2", host="h1")),
    ]), st)
    assert st.counters.get("evicted", 0) == 1
    assert len(st.cache.store.node_index) == 2
    # the evicted campaign returns when its process shows up again
    patch_scores(monkeypatch, {"evil": 100.0, "other": 0.0})
    process_window(benign_window(5, "evil", 666, "/tmp/stage2"), st)
    assert st.counters.get("restored", 0) == 1
    merged = [h for h in st.cache.entries.values()
              if any(a.get("path") == "/tmp/stage1" for a in h.attrs.values())]
    assert merged
    paths = {a.get("path") for a in merged[0].attrs.values() if "path" in a}
    assert {"/tmp/stage1", "/tmp/stage2"} <= paths
    assert len(merged[0].members) == 3


def sample_alert():
    return Alert(
        id="000003-abcdef012345",
        window_index=3,
        terminals=["p1"],
        members={
            "p1": {"as": 2.5, "hops": 0, "iv": 250.0,
                   "attrs": {"kind": "process", "name": "sh", "cmdline": "sh -c x"}},
            "f1": {"as": 0.0, "hops": 1, "iv": 1.0,
                   "attrs": {"kind": "file", "path": "/tmp/x \"quoted\""}},
            "n1": {"as": 0.0, "hops": 1, "iv": 0.5,
                   "attrs": {"kind": "ip", "dst_ip": "10.0.0.9", "dst_port": 443}},
        },
        edges=[["f1", "p1", "write"], ["n1", "p1", "sendto"]],
        has=2.5,
        grubbs_statistic=3.1,
    )


def test_alert_doc_round_trip():
    a = sample_alert()
    doc = json.loads(json.dumps(a.to_doc(), sort_keys=True))
    assert Alert.from_doc(doc) == a


_NODE_RE = re.compile(r'^  "[^"]+" \[label="(?:[^"\\]|\\.)*", shape=\w+'
                      r'(?:, style=filled, fillcolor="#ffcccc")?\];$')
_EDGE_RE = re.compile(r'^  "[^"]+" -- "[^"]+"(?: \[label="(?:[^"\\]|\\.)*"\])?;$')


def check_dot_grammar(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith('graph "alert-') and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if line.startswith("  node "):
            continue
        if _NODE_RE.match(line):
            nodes += 1
        elif _EDGE_RE.match(line):
            edges += 1
        else:
            raise AssertionError("unparseable DOT statement: %r" % line)
    return nodes, edges


def test_alert_dot_statements():
    a = sample_alert()
    dot = alert_to_dot(a)
    nodes, edges = check_dot_grammar(dot)
    assert nodes == 3
    assert edges == 2
    assert "doublecircle" in dot
    assert 'label="write"' in dot


def test_emit_alert_files(tmp_path):
    a = sample_alert()
    paths = emit_alert(a, str(tmp_path / "out"))
    assert len(paths) == 2
    with open(paths[0], "r", encoding="utf-8") as fh:
        assert Alert.from_doc(json.load(fh)) == a
    with open(paths[1], "r", encoding="utf-8") as fh:
        check_dot_grammar(fh.read())


def test_alert_subgraph_is_connected(tmp_path, monkeypatch):
    st = make_state(tmp_path, tau=0.5, theta=6)
    patch_scores(monkeypatch, {"a": 1.0, "b": 1.0, "c": 1.0, "evil": 30.0})
    for i, name in enumerate(["a", "b", "c"]):
        process_window(benign_window(i, name, 100 + i, "/var/%s" % name), st)
    events = [
        ev(30_001, proc(666, "evil"), "write", FileAttrs(path="/tmp/a", host="h1")),
        ev(30_002, proc(666, "evil"), "sendto",
           IpAttrs(src_ip="10.0.0.1", src_port=9, dst_ip="8.8.8.8", dst_port=53),
           dst_kind=IP),
        ev(30_003, proc(666, "evil"), "fork", proc(667, "child"), dst_kind=PROCESS),
    ]
    alerts = process_window(window(3, events), st)
    assert len(alerts) == 1
    a = alerts[0]
    assert len(a.members) <= st.params.theta * len(a.terminals)
    adj = {n: set() for n in a.members}
    for u, v, _ in a.edges:
        adj[u].add(v)
        adj[v].add(u)
    start = a.terminals[0]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == set(a.members)
    for u, v, op in a.edges:
        assert op != ""
