from __future__ import annotations

import dataclasses
import json
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from provstp.ingest import parse_event
from provstp.model import (
    ALL_OPS,
    FileAttrs,
    IpAttrs,
    ProcessAttrs,
    build_window_graph,
    entity_uuid,
    legal_op,
)


def _proc(pid, cmdline, tid=None, name="p", uid=0):
    return ProcessAttrs(pid=pid, tid=pid if tid is None else tid, uid=uid, name=name, cmdline=cmdline)


def _event(op, src_kind, src, dst_kind, dst, ts=0):
    from provstp.ingest import RawEvent

    return RawEvent(ts=ts, host="h1", op=op, src_kind=src_kind, src=src, dst_kind=dst_kind, dst=dst)


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
    assert len(g.nodes) == 0 and len(g.edges) == 0


def test_single_fork_event():
    ev = _event("fork", "process", _proc(1, "init"), "process", _proc(2, "sh"))
    g = build_window_graph([ev])
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    undirected_pairs = {frozenset((u, v)) for u, nbrs in g.undirected.items() for v in nbrs}
    assert len(undirected_pairs) == 1


def test_opposite_directed_edges_collapse_in_undirected_view():
    p = _proc(1, "worker")
    f = FileAttrs(path="/tmp/x")
    e1 = _event("write", "process", p, "file", f)
    e2 = _event("read", "file", f, "process", p)
    g = build_window_graph([e1, e2])
    assert len(g.edges) == 2
    pid = entity_uuid("process", p)
    fid = entity_uuid("file", f)
    assert g.undirected[pid] == {fid}
    assert g.undirected[fid] == {pid}


def test_illegal_op_rejected_and_counted():
    bad = _event("fork", "process", _proc(1, "a"), "file", FileAttrs(path="/x"))
    ok = _event("write", "process", _proc(1, "a"), "file", FileAttrs(path="/x"))
    g = build_window_graph([bad, ok])
    assert g.rejected == 1
    assert len(g.edges) == 1


def test_degree_sums_match_directed_edge_count():
    p1, p2 = _proc(1, "a"), _proc(2, "b")
    f = FileAttrs(path="/var/log/syslog")
    events = [
        _event("fork", "process", p1, "process", p2),
        _event("write", "process", p2, "file", f),
        _event("write", "process", p2, "file", f),
        _event("read", "file", f, "process", p1),
    ]
    g = build_window_graph(events)
    assert sum(r.in_degree for r in g.nodes.values()) == len(g.edges) == 4
    assert sum(r.out_degree for r in g.nodes.values()) == 4


def test_parallel_edges_kept_directed_but_single_undirected():
    p = _proc(9, "logger")
    f = FileAttrs(path="/var/log/app")
    events = [_event("write", "process", p, "file", f, ts=i) for i in range(5)]
    g = build_window_graph(events)
    assert len(g.edges) == 5
    assert g.undirected[entity_uuid("process", p)] == {entity_uuid("file", f)}


def test_round_trip_from_jsonl_line():
    line = (
        '{"ts":0,"host":"h1","op":"fork",'
        '"src":{"kind":"process","pid":1,"tid":1,"uid":0,"name":"init","cmdline":"init"},'
        '"dst":{"kind":"process","pid":2,"tid":2,"uid":0,"name":"sh","cmdline":"sh"}}'
    )
    ev = parse_event(line, 1)
    g = build_window_graph([ev])
    assert entity_uuid("process", ev.dst) == "c118f5d49c6b9f7a29345b361eba1e87"  # md5("22sh")
    assert len(g.nodes) == 2


_PROCS = [_proc(1, "init"), _proc(2, "sh -c x", tid=3), _proc(2, "sh -c y"), _proc(4, "")]
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
    nodes = {nid: (r.kind, r.attrs, r.in_degree, r.out_degree) for nid, r in g.nodes.items()}
    edges = [(e.src, e.dst, e.op, e.ts) for e in g.edges]
    return nodes, edges, g.undirected, g.first_op, g.rejected


@settings(max_examples=80, deadline=None)
@given(_event_rows)
def test_interned_parse_builds_same_graph_as_plain_events(rows):
    lines = [json.dumps({"ts": ts, "op": op, "host": "h1",
                         "src": _entity_doc(*_ENTITIES[s]), "dst": _entity_doc(*_ENTITIES[d])})
             for ts, (op, s, d) in enumerate(rows)]
    table = {}
    parsed = [parse_event(line, n, table) for n, line in enumerate(lines, start=1)]
    plain = [dataclasses.replace(ev, src_id="", dst_id="") for ev in parsed]
    assert all(ev.src_id and ev.dst_id for ev in parsed)
    assert _graph_state(build_window_graph(parsed)) == _graph_state(build_window_graph(plain))


@settings(max_examples=80, deadline=None)
@given(_event_rows)
def test_first_op_is_first_event_on_each_pair(rows):
    events = [_event(op, *_ENTITIES[s], *_ENTITIES[d], ts=ts)
              for ts, (op, s, d) in enumerate(rows)]
    g = build_window_graph(events)
    ref = {}
    for e in g.edges:
        ref.setdefault((e.src, e.dst) if e.src < e.dst else (e.dst, e.src), e.op)
    assert g.first_op == ref
    assert {tuple(sorted((u, v))) for u, nbrs in g.undirected.items() for v in nbrs} == set(ref)
