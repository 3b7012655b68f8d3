import hashlib
import json
import math
import re
import statistics
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provstp import detect
from provstp.cache import CacheState, EvictionStore, hopset_to_doc, insert_or_merge
from provstp.detect import (
    DetectorState,
    alert_to_dot,
    emit_alert,
    grubbs_critical,
    grubbs_outliers,
    process_window,
)
from provstp.ingest import WindowBatch
from provstp.model import (FILE, IP, PROCESS, FileAttrs, IpAttrs, ProcessAttrs,
                           build_window_graph, entity_uuid)
from provstp.stp import (STEINER, Hopset, IsgParams, MemberRec, isg_hopset,
                         steiner_window_hopsets)
from streams import event


# published one-sided critical values at alpha 0.05
PUBLISHED_G = {3: 1.15, 10: 2.18, 20: 2.557, 50: 2.956}


def test_grubbs_critical_matches_tables():
    for n, expected in PUBLISHED_G.items():
        assert grubbs_critical(n, 0.05) == pytest.approx(expected, abs=0.02)


GRUBBS_ALPHAS = (0.1, 0.05, 0.01, 0.001)


def test_grubbs_critical_monotone_in_n():
    for alpha in GRUBBS_ALPHAS:
        prev = 0.0
        for n in range(3, 5001):
            g = grubbs_critical(n, alpha)
            assert prev < g < (n - 1) / math.sqrt(n), (n, alpha)
            prev = g


def _decimal_atan(w):
    """atan(w) for w >= 0 in the current decimal context: halve the angle
    until w <= 0.1, then sum the Taylor series."""
    halvings = 0
    while w > Decimal("0.1"):
        w /= 1 + (1 + w * w).sqrt()
        halvings += 1
    total = term = w
    j = 1
    while True:
        j += 2
        term *= -w * w
        if total + term / j == total:
            return total * 2 ** halvings
        total += term / j


def _decimal_t_tail(t, nu):
    """P(T > t) for Student's t with integer nu >= 1 degrees of freedom:
    the finite series in theta = atan(t / sqrt(nu)) of Abramowitz and
    Stegun 26.7.3 (odd nu) and 26.7.4 (even nu)."""
    cos2 = nu / (nu + t * t)
    sin = t / (nu + t * t).sqrt()
    total = term = Decimal(1)
    if nu % 2 == 0:
        for k in range(1, nu // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            total += term
        return (1 - sin * total) / 2
    for k in range(1, (nu - 1) // 2):
        term *= cos2 * (2 * k) / (2 * k + 1)
        total += term
    theta = _decimal_atan(t / Decimal(nu).sqrt())
    series = sin * cos2.sqrt() * total if nu > 1 else 0
    return (1 - (theta + series) / (2 * _decimal_atan(Decimal(1)))) / 2


def exact_grubbs_critical(n, alpha, near):
    """The critical value to about 45 digits, for the exact alpha/n.

    Secant steps on log P(T > t) against log t, a nearly straight line,
    start at the t that the float `near` implies; the root is unique, so
    the start only saves steps."""
    with localcontext() as ctx:
        ctx.prec = 50
        nu = n - 2
        log_p = (Decimal(alpha) / n).ln()
        bound = Decimal(n - 1) / Decimal(n).sqrt()
        g = Decimal(near)
        u1 = (g * Decimal(nu).sqrt() / (bound * bound - g * g).sqrt()).ln()
        u0 = u1 - Decimal("1e-6")
        f0, f1 = (_decimal_t_tail(u.exp(), nu).ln() - log_p for u in (u0, u1))
        for _ in range(30):
            u0, u1 = u1, u1 - f1 * (u1 - u0) / (f1 - f0)
            if abs(u1 - u0) < Decimal("1e-40"):
                t = u1.exp()
                return bound * t / (nu + t * t).sqrt()
            f0, f1 = f1, _decimal_t_tail(u1.exp(), nu).ln() - log_p
    raise AssertionError("no convergence at n=%d, alpha=%r" % (n, alpha))


def test_grubbs_critical_within_16_ulps_of_exact():
    for alpha in GRUBBS_ALPHAS:
        for n in list(range(3, 201)) + list(range(249, 5001, 48)) + [5000]:
            got = grubbs_critical(n, alpha)
            exact = exact_grubbs_critical(n, alpha, got)
            ulps = float(abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact))))
            assert ulps <= 16, (n, alpha, ulps)


@pytest.mark.parametrize("alpha", [1e-300, 1e-17, 0.999999])
@pytest.mark.parametrize("n", [3, 4, 10, 10**6])
def test_grubbs_critical_finite_at_any_alpha(n, alpha):
    assert 0.0 < grubbs_critical(n, alpha) <= (n - 1) / math.sqrt(n)


def test_grubbs_critical_rejects_small_n():
    for n in (0, 1, 2):
        with pytest.raises(ValueError):
            grubbs_critical(n, 0.05)


def test_grubbs_critical_rejects_alpha_outside_0_1():
    for alpha in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            grubbs_critical(10, alpha)


def test_grubbs_outliers_examples():
    assert grubbs_outliers([5.0, 5.0, 5.0, 5.0]) == []
    assert grubbs_outliers([1.0] * 9 + [100.0]) == [9]
    assert grubbs_outliers([0.0] * 9 + [1.0], 1e-17) == [9]  # a finite critical value
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


# floats from subnormals to 1e300, and lists that repeat some of their values
GRUBBS_FLOATS = st.one_of(st.floats(min_value=-1e300, max_value=1e300),
                          st.floats(min_value=-1e-300, max_value=1e-300))


@st.composite
def stdev_samples(draw):
    xs = draw(st.lists(GRUBBS_FLOATS, min_size=1, max_size=60))
    xs += draw(st.lists(st.sampled_from(xs), min_size=max(0, 2 - len(xs)),
                        max_size=60 - len(xs)))
    return draw(st.permutations(xs))


@given(stdev_samples())
@example([4.0, 4.0])
@example([5e-324, 5e-324, 5e-324])
@example([5e-324, -5e-324, 0.0])
@example([1e300, -1e300, 1e300, 1e-300])
@example([1.0] * 9 + [100.0])
def test_sample_stdev_is_statistics_stdev_bit_for_bit(xs):
    assert 2 <= len(xs) <= 60
    assert detect._sample_stdev(xs).hex() == statistics.stdev(xs).hex()


def test_sample_stdev_non_finite_takes_the_stdlib_path():
    def outcome(stdev, xs):
        try:
            return repr(stdev(xs))
        except Exception as exc:
            return type(exc)

    for bad in (math.inf, -math.inf, math.nan):
        xs = [1.0, bad, 2.0]
        assert outcome(detect._sample_stdev, xs) == outcome(statistics.stdev, xs)


def proc(pid, name, cmdline=None):
    return ProcessAttrs(pid=pid, tid=pid, uid=1000, name=name,
                        cmdline=cmdline or name, host="h1")


def ev(ts, src, op, dst, src_kind=PROCESS, dst_kind=FILE):
    return event(op, src_kind, src, dst_kind, dst, ts)


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
    cache = CacheState(store=store, capacity=capacity)
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
    assert a["window_index"] == 8
    assert a["grubbs_statistic"] > grubbs_critical(9, 0.05)
    assert any(info["attrs"].get("name") == "evil" for info in a["members"].values())
    # flagged entry stays resident with age zero
    flagged = [h for h in st.cache.entries.values() if h.has == a["has"]]
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
    assert set(second[0]["members"]) > set(first[0]["members"])


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
    stored = [n for n, hid in st.cache.node_index.items() if hid not in st.cache.entries]
    assert len(stored) == 2
    # the evicted campaign returns when its process shows up again
    patch_scores(monkeypatch, {"evil": 100.0, "other": 0.0})
    process_window(benign_window(5, "evil", 666, "/tmp/stage2"), st)
    assert st.counters.get("restored", 0) == 1
    merged = [h for h in st.cache.entries.values()
              if any(r.attrs.get("path") == "/tmp/stage1" for r in h.members.values())]
    assert merged
    paths = {r.attrs["path"] for r in merged[0].members.values() if "path" in r.attrs}
    assert {"/tmp/stage1", "/tmp/stage2"} <= paths
    assert len(merged[0].members) == 3


def test_builders_return_complete_hopsets():
    """isg and every baseline hand back each edge with the op of its first
    event in the window and each member with its entity document."""
    sh, cat, curl = proc(10, "sh"), proc(11, "cat"), proc(12, "curl", "curl -o /tmp/x")
    passwd = FileAttrs(path="/etc/passwd", host="h1")
    drop = FileAttrs(path="/tmp/x", host="h1")
    sock = IpAttrs(src_ip="10.0.0.5", src_port=40000, dst_ip="10.0.0.9", dst_port=443)
    g = build_window_graph([
        ev(1, sh, "fork", cat, dst_kind=PROCESS),
        ev(2, cat, "read", passwd),
        ev(3, passwd, "write", cat, src_kind=FILE, dst_kind=PROCESS),  # same pair, later op
        ev(4, sh, "fork", curl, dst_kind=PROCESS),
        ev(5, curl, "recvfrom", sock, dst_kind=IP),
        ev(6, curl, "write", drop),
        ev(7, cat, "read", drop),
    ])
    scores = {n: float(i) for i, n in enumerate(sorted(g.nodes))}
    terminals = sorted(n for n, rec in g.nodes.items() if rec.kind == PROCESS)
    p = IsgParams(theta=4)
    built = {"isg": [isg_hopset(t, g, scores, p) for t in terminals]}
    for algo in STEINER:
        built[algo] = steiner_window_hopsets(terminals, g, scores, p, algo)
    for algo, hs in built.items():
        assert hs and all(h.edges for h in hs), algo
        for h in hs:
            assert h.edges == {e: g.first_op[e] for e in h.edges}, algo
            assert all(rec.attrs == g.nodes[n].doc() for n, rec in h.members.items()), algo
    cat_id = entity_uuid(PROCESS, cat)
    pair = tuple(sorted((cat_id, entity_uuid(FILE, passwd))))
    assert all(h.edges[pair] == "read" for h in built["isg"] if pair in h.edges)
    assert any(pair in h.edges for h in built["isg"])
    assert g.nodes[cat_id].doc() == {"kind": PROCESS, "pid": 11, "tid": 11, "uid": 1000,
                                     "name": "cat", "cmdline": "cat", "host": "h1"}


def sample_alert():
    h = Hopset({"p1"}, {
        "p1": MemberRec(2.5, 0, 250.0, {"kind": "process", "name": "sh", "cmdline": "sh -c x"}),
        "f1": MemberRec(0.0, 1, 1.0, {"kind": "file", "path": "/tmp/x \"quoted\""}),
        "n1": MemberRec(0.0, 1, 0.5, {"kind": "ip", "dst_ip": "10.0.0.9", "dst_port": 443}),
    }, {("f1", "p1"): "write", ("n1", "p1"): "sendto"}, has=2.5)
    return dict(hopset_to_doc(h), id="000003-abcdef012345", window_index=3,
                grubbs_statistic=3.1)


def test_alert_doc_round_trip():
    a = sample_alert()
    assert json.loads(json.dumps(a, sort_keys=True)) == a


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


_LABEL_RE = re.compile(r'\[label="((?:[^"\\]|\\.)*)"')


@settings(max_examples=150, deadline=None)
@given(st.text('a"\\é', min_size=55, max_size=70), st.integers(0, 3))
@example('a' * 59 + '"', 1)
@example('a' * 59 + '\\' + 'b', 1)
def test_dot_labels_cut_before_escaping(detail, kind_at):
    """A quote or backslash at character 60 of a label still leaves every
    statement of the .dot file well formed."""
    attrs = [{"kind": "process", "name": detail, "cmdline": "x"},
             {"kind": "process", "name": "", "cmdline": detail},
             {"kind": "file", "path": detail},
             {"kind": "ip", "dst_ip": detail, "dst_port": 1}][kind_at]
    shown = (detail + ":1" if kind_at == 3 else detail)[:60]
    h = Hopset({"p1"}, {"p1": MemberRec(1.0, 0, 1.0, attrs)}, {}, has=1.0)
    a = dict(hopset_to_doc(h), id="000001-abcdef012345", window_index=1, grubbs_statistic=2.0)
    dot = alert_to_dot(a)
    assert check_dot_grammar(dot) == (1, 0)
    label = _LABEL_RE.search(dot).group(1)
    assert re.sub(r"\\(.)", r"\1", label) == attrs["kind"] + "n" + shown


def test_emit_alert_files(tmp_path):
    a = sample_alert()
    paths = emit_alert(a, str(tmp_path / "out"))
    assert len(paths) == 2
    with open(paths[0], "r", encoding="utf-8") as fh:
        assert json.load(fh) == a
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
    assert len(a["members"]) <= st.params.theta * len(a["terminals"])
    adj = {n: set() for n in a["members"]}
    for u, v, _ in a["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    start = a["terminals"][0]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == set(a["members"])
    for u, v, op in a["edges"]:
        assert op != ""


# sha256 of the alert files written below, recorded with the alert builder
# that predates `hopset_to_doc` writing alerts: any change to the alert
# format, key order, float or non-ASCII escaping shows here
PINNED_ALERT_SHA256 = {
    "alert-000007-ec6ef230f182.json":
        "fd3f97245b8ba52ab6647174f7230ff6d8c788f0f1ead89c6e24beb6f4807afa",
    "alert-000007-ec6ef230f182.dot":
        "27c3608aae6f64203de2b138386c529fbefbcc213bc74ecff9f2538c67ba5846",
}


def test_alert_file_bytes_are_pinned(tmp_path, monkeypatch):
    """A hopset with a member without attrs, an edge without an op, a
    non-ASCII path and a score of 0.1 + 0.2, alerted on beside five
    zero-score residents, gives these exact alert files."""
    h = Hopset({"p1"}, {
        "p1": MemberRec(0.1 + 0.2, 0, 30.1, {
            "kind": "process", "pid": 4242, "tid": 4242, "uid": 0, "name": "sh",
            "cmdline": 'sh -c "x"', "host": "h1"}),
        "f1": MemberRec(0.0, 1, 0.9, {"kind": "file", "path": "/tmp/café/naïve ☃.txt",
                                      "host": "h1"}),
        "u1": MemberRec(0.0, 2, 0.81),
    }, {("f1", "p1"): "write", ("f1", "u1"): ""}, has=0.1 + 0.2)
    quiet = [Hopset({"q%d" % i}, {"q%d" % i: MemberRec(0.0, 0, 0.0)}, {}) for i in range(5)]
    st = make_state(tmp_path)
    insert_or_merge(st.cache, [h] + quiet, st.params.theta)
    patch_scores(monkeypatch, {})
    alerts = process_window(window(7, []), st)
    assert len(alerts) == 1
    digests = {}
    for path in emit_alert(alerts[0], str(tmp_path / "out")):
        with open(path, "rb") as fh:
            digests[path.rsplit("/", 1)[1]] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == PINNED_ALERT_SHA256
