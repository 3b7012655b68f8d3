from __future__ import annotations

import dataclasses
import json
import string
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from provstp.ingest import RawEvent, parse_event
from provstp.model import (
    ALL_OPS,
    FILE,
    IP,
    PROCESS,
    Edge,
    Entity,
    FileAttrs,
    IpAttrs,
    NodeRec,
    ProcessAttrs,
    WindowGraph,
    build_window_graph,
    entity_uuid,
    legal_op,
)
from streams import event


def _proc(pid, cmdline, tid=None, name="p", uid=0):
    return ProcessAttrs(pid=pid, tid=pid if tid is None else tid, uid=uid, name=name, cmdline=cmdline)


def test_uuid_empty_path_matches_reference_md5():
    assert entity_uuid("file", FileAttrs(path="")) == "d41d8cd98f00b204e9800998ecf8427e"


def test_uuid_ip_quadruple_matches_reference_md5():
    attrs = IpAttrs(src_ip="126.7.8.7", src_port=80, dst_ip="162.0.0.1", dst_port=8080)
    assert entity_uuid("ip", attrs) == "cce0d3e21f0c2f472254b04d5aecf56e"


def test_uuid_process_concatenation_matches_reference_md5():
    # md5("11x") computed with hashlib directly
    assert entity_uuid("process", _proc(1, "x", tid=1)) == "c9e4c140019d45281557c6f83e971a66"
    assert entity_uuid("process", _proc(1, "x", tid=1)) == entity_uuid("process", _proc(1, "x", tid=1))


def test_uuid_format_and_determinism():
    nid = entity_uuid("process", _proc(42, "/bin/cat /etc/hosts"))
    assert len(nid) == 32 and all(c in string.hexdigits.lower() for c in nid)


def test_uuid_tid_changes_identity():
    a = entity_uuid("process", _proc(2, "sh", tid=2))
    b = entity_uuid("process", _proc(2, "sh", tid=3))
    assert a != b


@given(st.text(max_size=40), st.integers(min_value=0, max_value=1 << 22))
def test_uuid_process_deterministic_property(cmdline, pid):
    a = entity_uuid("process", _proc(pid, cmdline))
    b = entity_uuid("process", _proc(pid, cmdline))
    assert a == b and len(a) == 32


def test_legal_op_table():
    assert legal_op("read", "file", "process")
    assert legal_op("write", "process", "file")
    assert legal_op("fork", "process", "process")
    assert legal_op("sendto", "process", "ip")
    assert legal_op("recvfrom", "ip", "process")
    assert not legal_op("fork", "process", "file")
    assert not legal_op("read", "process", "ip")
    assert not legal_op("readdir", "process", "file")


def test_all_ops_cover_table_rows():
    assert ALL_OPS == {
        "read", "write", "create", "chmod", "rename",
        "fork", "clone", "execve", "pipe",
        "sendto", "recvfrom", "recvmsg", "sendmsg",
    }


def test_empty_graph():
    g = build_window_graph([])
    assert len(g.nodes) == 0 and sum(g.edges.values()) == 0


def test_single_fork_event():
    ev = event("fork", "process", _proc(1, "init"), "process", _proc(2, "sh"))
    g = build_window_graph([ev])
    assert len(g.nodes) == 2
    assert sum(g.edges.values()) == 1
    undirected_pairs = {frozenset((u, v)) for u, nbrs in g.undirected.items() for v in nbrs}
    assert len(undirected_pairs) == 1


def test_opposite_directed_edges_collapse_in_undirected_view():
    p = _proc(1, "worker")
    f = FileAttrs(path="/tmp/x")
    e1 = event("write", "process", p, "file", f)
    e2 = event("read", "file", f, "process", p)
    g = build_window_graph([e1, e2])
    assert sum(g.edges.values()) == 2
    pid = entity_uuid("process", p)
    fid = entity_uuid("file", f)
    assert g.undirected[pid] == {fid}
    assert g.undirected[fid] == {pid}


def test_illegal_op_rejected_and_counted():
    bad = event("fork", "process", _proc(1, "a"), "file", FileAttrs(path="/x"))
    ok = event("write", "process", _proc(1, "a"), "file", FileAttrs(path="/x"))
    g = build_window_graph([bad, ok])
    assert g.rejected == 1
    assert sum(g.edges.values()) == 1


def test_degree_sums_match_directed_edge_count():
    p1, p2 = _proc(1, "a"), _proc(2, "b")
    f = FileAttrs(path="/var/log/syslog")
    events = [
        event("fork", "process", p1, "process", p2),
        event("write", "process", p2, "file", f),
        event("write", "process", p2, "file", f),
        event("read", "file", f, "process", p1),
    ]
    g = build_window_graph(events)
    assert sum(r.in_degree for r in g.nodes.values()) == sum(g.edges.values()) == 4
    assert sum(r.out_degree for r in g.nodes.values()) == 4


def test_parallel_edges_kept_directed_but_single_undirected():
    p = _proc(9, "logger")
    f = FileAttrs(path="/var/log/app")
    events = [event("write", "process", p, "file", f, ts=i) for i in range(5)]
    g = build_window_graph(events)
    assert sum(g.edges.values()) == 5
    assert g.undirected[entity_uuid("process", p)] == {entity_uuid("file", f)}


def test_round_trip_from_jsonl_line():
    line = (
        '{"ts":0,"host":"h1","op":"fork",'
        '"src":{"kind":"process","pid":1,"tid":1,"uid":0,"name":"init","cmdline":"init"},'
        '"dst":{"kind":"process","pid":2,"tid":2,"uid":0,"name":"sh","cmdline":"sh"}}'
    )
    ev = parse_event(line, 1)
    g = build_window_graph([ev])
    # md5("22sh")
    assert entity_uuid("process", ev.edge.dst.attrs) == "c118f5d49c6b9f7a29345b361eba1e87"
    assert len(g.nodes) == 2


_PROCS = [_proc(1, "init"), _proc(2, "sh -c x", tid=3), _proc(2, "sh -c y"), _proc(4, ""),
          dataclasses.replace(_proc(1, "init"), host="h2")]  # the NodeId of _PROCS[0]
_FILES = [FileAttrs(path="/etc/passwd"), FileAttrs(path="/tmp/a")]
_IPS = [IpAttrs(src_ip="10.0.0.1", src_port=5000, dst_ip="10.0.0.2", dst_port=80)]
_ENTITIES = ([("process", a) for a in _PROCS] + [("file", a) for a in _FILES]
             + [("ip", a) for a in _IPS])

_event_rows = st.lists(
    st.tuples(st.sampled_from(sorted(ALL_OPS)),
              st.integers(0, len(_ENTITIES) - 1), st.integers(0, len(_ENTITIES) - 1)),
    max_size=40)


def _entity_doc(kind, attrs):
    doc = dataclasses.asdict(attrs)
    doc.pop("host", None)
    doc["kind"] = kind
    return doc


def _graph_state(g):
    """What a window graph holds: its nodes in order with their kinds, attrs
    objects and degrees, its undirected view, first ops and rejected count,
    and its events per (op, src, dst) NodeIds."""
    nodes = [(nid, r.kind, id(r.attrs), r.in_degree, r.out_degree)
             for nid, r in g.nodes.items()]
    per_edge = Counter()
    for e, count in g.edges.items():
        per_edge[e.op, e.src.id, e.dst.id] += count
    return nodes, g.undirected, g.first_op, g.rejected, per_edge


def _reference_state(events):
    """_graph_state of the graph that folding the events one at a time, in
    order, gives."""
    nodes, undirected, first_op, rejected, per_edge = {}, {}, {}, 0, Counter()
    for ev in events:
        e = ev.edge
        (src_kind, src_attrs, src), (dst_kind, dst_attrs, dst) = e.src, e.dst
        if not legal_op(e.op, src_kind, dst_kind):
            rejected += 1
            continue
        per_edge[e.op, src, dst] += 1
        for nid, kind, attrs in ((src, src_kind, src_attrs), (dst, dst_kind, dst_attrs)):
            if nid not in nodes:
                nodes[nid] = [nid, kind, id(attrs), 0, 0]
                undirected[nid] = set()
        nodes[src][4] += 1
        nodes[dst][3] += 1
        if dst not in undirected[src]:
            undirected[src].add(dst)
            undirected[dst].add(src)
            first_op[(src, dst) if src < dst else (dst, src)] = e.op
    return [tuple(n) for n in nodes.values()], undirected, first_op, rejected, per_edge


@settings(max_examples=150, deadline=None)
@given(_event_rows)
def test_edge_fold_matches_a_per_event_fold(rows):
    entities = [Entity(kind, attrs, entity_uuid(kind, attrs)) for kind, attrs in _ENTITIES]
    interned = {}  # one Edge per (op, src, dst), as memo hits share them
    shared = [RawEvent(ts, interned.setdefault((op, s, d), Edge(op, entities[s], entities[d])))
              for ts, (op, s, d) in enumerate(rows)]
    fresh = [RawEvent(ts, Edge(op, entities[s], entities[d]))
             for ts, (op, s, d) in enumerate(rows)]
    want = _reference_state(fresh)
    g = build_window_graph(shared)
    assert _graph_state(g) == want
    assert _graph_state(build_window_graph(fresh)) == want
    legal = [(op, s, d) for op, s, d in rows if legal_op(op, _ENTITIES[s][0], _ENTITIES[d][0])]
    assert sum(g.edges.values()) == len(legal) == len(rows) - g.rejected
    assert len(g.edges) == len(set(legal))  # one entry per distinct legal Edge


@settings(max_examples=80, deadline=None)
@given(_event_rows)
def test_interned_parse_builds_same_graph_as_plain_events(rows):
    lines = [json.dumps({"ts": ts, "op": op, "host": "h1",
                         "src": _entity_doc(*_ENTITIES[s]), "dst": _entity_doc(*_ENTITIES[d])})
             for ts, (op, s, d) in enumerate(rows)]
    table = {}
    parsed = [parse_event(line, n, table) for n, line in enumerate(lines, start=1)]
    assert all(e.src.id == entity_uuid(e.src.kind, e.src.attrs)
               and e.dst.id == entity_uuid(e.dst.kind, e.dst.attrs)
               for e in (ev.edge for ev in parsed))
    plain = [event(ev.edge.op, ev.edge.src.kind, ev.edge.src.attrs, ev.edge.dst.kind,
                   ev.edge.dst.attrs, ev.ts) for ev in parsed]
    assert _graph_state(build_window_graph(parsed)) == _graph_state(build_window_graph(plain))


@settings(max_examples=80, deadline=None)
@given(_event_rows)
def test_first_op_is_first_event_on_each_pair(rows):
    events = [event(op, *_ENTITIES[s], *_ENTITIES[d], ts=ts)
              for ts, (op, s, d) in enumerate(rows)]
    g = build_window_graph(events)
    ref = {}
    for ev in events:  # the op of each pair's first legal event
        op, (src_kind, _, src), (dst_kind, _, dst) = ev.edge.op, ev.edge.src, ev.edge.dst
        if legal_op(op, src_kind, dst_kind):
            ref.setdefault((src, dst) if src < dst else (dst, src), op)
    assert g.first_op == ref
    assert {tuple(sorted((u, v))) for u, nbrs in g.undirected.items() for v in nbrs} == set(ref)


def test_edge_decides_legality_and_sorted_pair_once():
    kinds = {PROCESS: _PROCS[1], FILE: _FILES[0], IP: _IPS[0]}
    ents = {k: Entity(k, a, entity_uuid(k, a)) for k, a in kinds.items()}
    for op in sorted(ALL_OPS) + ["readdir"]:  # readdir is no op at all
        for k1 in kinds:
            for k2 in kinds:
                e = Edge(op, ents[k1], ents[k2])
                assert e.legal == legal_op(op, k1, k2)
                assert e.pair == tuple(sorted((ents[k1].id, ents[k2].id)))


def _oracle_fold(events):
    """The window graph fold before Edges carried their legality: it asks
    legal_op and sorts each pair for every distinct Edge."""
    g = WindowGraph()
    nodes, undirected = g.nodes, g.undirected
    for edge, count in Counter(ev.edge for ev in events).items():
        (src_kind, _, src), (dst_kind, _, dst) = edge.src, edge.dst
        if not legal_op(edge.op, src_kind, dst_kind):
            g.rejected += count
            continue
        g.edges[edge] = count
        for kind, attrs, nid in (edge.src, edge.dst):
            if nid not in nodes:
                nodes[nid] = NodeRec(kind, attrs)
                undirected[nid] = set()
        nodes[src].out_degree += count
        nodes[dst].in_degree += count
        adj = undirected[src]
        if dst not in adj:
            adj.add(dst)
            undirected[dst].add(src)
            g.first_op[(src, dst) if src < dst else (dst, src)] = edge.op
    return g


@settings(max_examples=150, deadline=None)
@given(_event_rows, st.lists(st.booleans(), max_size=40))
def test_window_graph_equals_the_oracle_fold(rows, share):
    """Streams that mix memo-shared Edges with fresh ones, as a reader
    gives them, fold as the oracle folds them."""
    entities = [Entity(kind, attrs, entity_uuid(kind, attrs)) for kind, attrs in _ENTITIES]
    interned = {}
    events = []
    for ts, ((op, s, d), shared) in enumerate(zip(rows, share + [True] * len(rows))):
        edge = Edge(op, entities[s], entities[d])
        if shared:
            edge = interned.setdefault((op, s, d), edge)
        events.append(RawEvent(ts, edge))
    g, want = build_window_graph(events), _oracle_fold(events)
    assert list(g.nodes) == list(want.nodes)
    assert all(g.nodes[n] == want.nodes[n] and g.nodes[n].attrs is want.nodes[n].attrs
               for n in g.nodes)
    assert g.undirected == want.undirected
    assert list(g.first_op.items()) == list(want.first_op.items())
    assert list(g.edges.items()) == list(want.edges.items())
    assert g.rejected == want.rejected
