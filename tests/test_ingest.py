from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provstp.ingest import (
    ParseError,
    RejectedEvent,
    parse_event,
    read_events,
    window_stream,
)


def _line(ts, op="write", pid=1, path="/tmp/a", host="h1"):
    return json.dumps({
        "ts": ts,
        "host": host,
        "op": op,
        "src": {"kind": "process", "pid": pid, "uid": 0, "name": "p", "cmdline": "p --run"},
        "dst": {"kind": "file", "path": path},
    })


def _events(ts_list):
    return [parse_event(_line(ts)) for ts in ts_list]


def test_parse_event_full_schema():
    line = (
        '{"ts":0,"host":"h1","op":"fork",'
        '"src":{"kind":"process","pid":1,"tid":1,"uid":0,"name":"init","cmdline":"init"},'
        '"dst":{"kind":"process","pid":2,"tid":2,"uid":0,"name":"sh","cmdline":"sh"}}'
    )
    ev = parse_event(line, 1)
    assert ev.op == "fork" and ev.ts == 0 and ev.host == "h1"
    assert ev.src.pid == 1 and ev.dst.name == "sh"


def test_parse_event_tid_defaults_to_pid():
    ev = parse_event(_line(5, pid=77))
    assert ev.src.tid == 77


def test_parse_event_missing_field_errors_with_line_number():
    with pytest.raises(ParseError) as exc:
        parse_event("{}", 12)
    assert exc.value.lineno == 12


def test_parse_event_bad_json():
    with pytest.raises(ParseError):
        parse_event("{not json", 3)


def test_parse_event_unknown_op_rejected():
    with pytest.raises(RejectedEvent):
        parse_event(_line(0, op="readdir"), 1)


def test_parse_event_ignores_extra_fields():
    obj = json.loads(_line(1))
    obj["extra"] = {"anything": True}
    ev = parse_event(json.dumps(obj))
    assert ev.ts == 1


def test_parse_event_port_range_checked():
    line = json.dumps({
        "ts": 0, "host": "h", "op": "sendto",
        "src": {"kind": "process", "pid": 1, "uid": 0, "name": "p", "cmdline": "p"},
        "dst": {"kind": "ip", "src_ip": "1.2.3.4", "src_port": 70000, "dst_ip": "5.6.7.8", "dst_port": 80},
    })
    with pytest.raises(ParseError):
        parse_event(line)


def test_window_boundary_is_half_open():
    batches = list(window_stream(_events([0, 9999, 10000]), 10.0))
    assert [b.window_index for b in batches] == [0, 1]
    assert [e.ts for e in batches[0].events] == [0, 9999]
    assert [e.ts for e in batches[1].events] == [10000]


def test_single_event_stream():
    batches = list(window_stream(_events([123]), 10.0))
    assert len(batches) == 1 and len(batches[0].events) == 1


def test_late_beyond_one_window_dropped_and_counted():
    counters = {}
    batches = list(window_stream(_events([0, 25000, 3000]), 10.0, counters))
    assert [b.window_index for b in batches] == [0, 2]
    assert counters["dropped_late"] == 1


def test_late_within_one_window_lands_in_own_batch():
    batches = list(window_stream(_events([0, 11000, 9000]), 10.0))
    assert [b.window_index for b in batches] == [0, 1]
    assert [e.ts for e in batches[0].events] == [0, 9000]


def test_empty_windows_skipped_and_indexes_increase():
    batches = list(window_stream(_events([0, 50000, 50001, 90000]), 10.0))
    assert [b.window_index for b in batches] == [0, 5, 9]


def test_all_events_accounted_for():
    ts_list = [0, 4, 9999, 10000, 10001, 25000, 2, 30000]
    counters = {}
    batches = list(window_stream(_events(ts_list), 10.0, counters))
    emitted = sum(len(b.events) for b in batches)
    assert emitted + counters.get("dropped_late", 0) == len(ts_list)


def test_batches_sorted_by_ts_within_window():
    batches = list(window_stream(_events([0, 11000, 5000, 3000]), 10.0))
    assert [e.ts for e in batches[0].events] == [0, 3000, 5000]


def test_read_events_skips_rejected_ops(tmp_path):
    p = tmp_path / "ev.jsonl"
    p.write_text(_line(0) + "\n" + _line(1, op="readdir") + "\n" + _line(2) + "\n")
    counters = {}
    evs = list(read_events(str(p), counters))
    assert len(evs) == 2
    assert counters["rejected_ops"] == 1


def test_read_events_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "ev.jsonl"
    p.write_text(_line(0) + "\n" + "{bad\n")
    with pytest.raises(ParseError) as exc:
        list(read_events(str(p)))
    assert exc.value.lineno == 2


def test_window_seconds_must_be_positive():
    with pytest.raises(ValueError):
        list(window_stream(_events([0]), 0))


@pytest.mark.parametrize("where,key,value", [
    (None, "ts", "abc"),
    ("src", "pid", "x"),
    (None, "src", "oops"),
    ("src", "cmdline", 5),
    ("dst", "path", ["a"]),
    (None, "host", ["h"]),
], ids=["ts-abc", "pid-x", "src-str", "cmdline-int", "path-list", "host-list"])
def test_parse_event_malformed_value_raises_parse_error(where, key, value):
    obj = json.loads(_line(0))
    (obj[where] if where else obj)[key] = value
    with pytest.raises(ParseError) as exc:
        parse_event(json.dumps(obj), 7)
    assert exc.value.lineno == 7


def test_parse_event_sets_node_ids():
    from provstp.model import entity_uuid

    ev = parse_event(_line(0))
    assert ev.src_id == entity_uuid(ev.src_kind, ev.src)
    assert ev.dst_id == entity_uuid(ev.dst_kind, ev.dst)


def test_read_events_interns_repeated_entities(tmp_path):
    p = tmp_path / "ev.jsonl"
    p.write_text(_line(0) + "\n" + _line(1) + "\n" + _line(2, path="/tmp/b") + "\n")
    a, b, c = read_events(str(p))
    assert a.src is b.src and a.dst is b.dst and a.src is c.src
    assert c.dst is not a.dst and c.dst_id != a.dst_id


_ENTITIES = [
    {"kind": "process", "pid": 1, "uid": 0, "name": "init", "cmdline": "init"},
    {"kind": "process", "pid": 2, "tid": 3, "uid": 0, "name": "sh", "cmdline": "sh -c x"},
    {"kind": "process", "pid": "2", "tid": 3.0, "uid": 0, "name": "sh", "cmdline": "sh -c x"},
    {"kind": "file", "path": "/etc/passwd"},
    {"kind": "file", "path": "/tmp/a"},
    {"kind": "ip", "src_ip": "10.0.0.1", "src_port": 5000, "dst_ip": "10.0.0.2",
     "dst_port": 80},
]

_stream_lines = st.lists(
    st.tuples(st.integers(0, 60_000),
              st.sampled_from(["read", "write", "fork", "sendto", "readdir"]),
              st.sampled_from(["h1", "h2"]),
              st.integers(0, len(_ENTITIES) - 1), st.integers(0, len(_ENTITIES) - 1)),
    max_size=60)


def _jsonl(rows):
    return "".join(json.dumps({"ts": ts, "op": op, "host": host, "src": _ENTITIES[s],
                               "dst": _ENTITIES[d]}) + "\n"
                   for ts, op, host, s, d in rows)


@settings(max_examples=60, deadline=None)
@given(rows=_stream_lines, window_seconds=st.sampled_from([1.0, 5.0, 10.0]))
def test_read_and_window_account_for_every_line(tmp_path_factory, rows, window_seconds):
    p = tmp_path_factory.mktemp("acct") / "ev.jsonl"
    p.write_text(_jsonl(rows))
    counters = {}
    batches = list(window_stream(read_events(str(p), counters), window_seconds, counters))
    windowed = sum(len(b.events) for b in batches)
    assert len(rows) == windowed + counters.get("dropped_late", 0) \
        + counters.get("rejected_ops", 0)
    assert counters.get("rejected_ops", 0) == sum(1 for r in rows if r[1] == "readdir")


def test_stream_beyond_intern_bound_parses_identically(tmp_path, monkeypatch):
    from provstp import ingest

    monkeypatch.setattr(ingest, "INTERN_LIMIT", 4)
    lines = [_line(i, pid=i % 7, path="/tmp/f%d" % (i % 11)) for i in range(200)]
    p = tmp_path / "ev.jsonl"
    p.write_text("\n".join(lines) + "\n")
    got = list(read_events(str(p)))
    want = [parse_event(line, n) for n, line in enumerate(lines, start=1)]
    assert got == want


def _decode_outcome(decode, line):
    try:
        return "ok", decode(line)
    except json.JSONDecodeError as exc:
        return "error", "line 1: invalid JSON: %s" % exc
    except ParseError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("line", [
    '{"a": 1}\n', '{"a": 1}', ' {"a": 1}\n', '{"a": 1}  \n', '{"a": 1}\r\n',
    '{"a": 1} {"b": 2}\n', '\ufeff{"a": 1}\n', '{"a": \n', '', '\n', '[1, 2]\n',
    'nul\n', '{"a": Infinity}\n', '{"a": 1}\x0b\n', '"s"\n',
])
def test_line_decode_matches_json_loads(line):
    from provstp import ingest

    assert _decode_outcome(lambda s: ingest._loads(s, 1), line) == \
        _decode_outcome(json.loads, line)


@given(st.text(alphabet='{}[]":,0123 \n\r\tabnul\\', max_size=30))
def test_line_decode_matches_json_loads_on_any_text(line):
    from provstp import ingest

    assert _decode_outcome(lambda s: ingest._loads(s, 1), line) == \
        _decode_outcome(json.loads, line)
