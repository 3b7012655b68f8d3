from __future__ import annotations

import errno
import io
import json
import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provstp.ingest import (
    ParseError,
    RejectedEvent,
    parse_event,
    read_events,
    window_stream,
)
from streams import event_views


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
    assert ev.edge.op == "fork" and ev.ts == 0 and ev.edge.src.attrs.host == "h1"
    assert ev.edge.src.attrs.pid == 1 and ev.edge.dst.attrs.name == "sh"


def test_parse_event_tid_defaults_to_pid():
    ev = parse_event(_line(5, pid=77))
    assert ev.edge.src.attrs.tid == 77


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


# A first event, then timestamps on and next to the edges of 10 s windows
# counted from it, repeated, in any order: some up to one window before the
# first (window -1), some earlier still, and some late.
_edge_offsets = st.sampled_from([-20_001, -20_000, -10_001, -10_000, -9_999, -1, 0, 1, 9_999,
                                 10_000, 19_999, 20_000, 40_000])
_stream_ts = st.tuples(
    st.integers(20_001, 60_000),
    st.lists(st.one_of(_edge_offsets, st.integers(-40_000, 100_000)), max_size=59),
).map(lambda t: [t[0]] + [max(0, t[0] + off) for off in t[1]])


@settings(max_examples=200, deadline=None)
@given(ts_list=_stream_ts)
@example(ts_list=[40_000, 0, 35_000, 60_000, 10_000, 60_000, 40_000])  # window -1 and three drops
@example(ts_list=[40_000, 45_000, 41_000, 45_000, 52_000, 45_000, 41_000])  # equal ts, one late
def test_window_stream_accounts_for_every_event(ts_list):
    events = _events(ts_list)
    counters = {}
    batches = list(window_stream(events, 10.0, counters))
    windowed = [id(e) for b in batches for e in b.events]
    # each event once: windowed (never twice) or dropped late
    assert len(set(windowed)) == len(windowed)
    assert set(windowed) <= {id(e) for e in events}
    assert len(windowed) + counters.get("dropped_late", 0) == len(events)
    indexes = [b.window_index for b in batches]
    assert all(a < b for a, b in zip(indexes, indexes[1:]))
    # An event lands in its own window unless it is more than one window
    # behind the newest so far.  The first event opens window 0, so window
    # -1 takes events up to one window before it while window 0 is the
    # newest, and any event earlier than that is dropped.
    start, newest, fate = ts_list[0], 0, {}
    for e in events:
        idx = (e.ts - start) // 10_000
        fate[id(e)] = idx if idx >= newest - 1 else None
        newest = max(newest, idx)
        if e.ts < start - 10_000:
            assert fate[id(e)] is None
    assert {i: b.window_index for b in batches for i in map(id, b.events)} == \
        {i: w for i, w in fate.items() if w is not None}
    # A batch holds its window's events in arrival order, stably sorted by ts.
    for b in batches:
        arrived = [e for e in events if fate[id(e)] == b.window_index]
        assert list(map(id, b.events)) == list(map(id, sorted(arrived, key=lambda e: e.ts)))


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
    # windows are whole milliseconds: one that rounds to 0 ms is no window
    for seconds in (0, -1.0, 1e-9, 0.0005, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="at least 1 ms"):
            list(window_stream(_events([0]), seconds))
    assert len(list(window_stream(_events([0, 1, 2]), 0.0006))) == 3  # 1 ms each


_IP = {"kind": "ip", "src_ip": "10.0.0.1", "src_port": 5000, "dst_ip": "10.0.0.2",
       "dst_port": 80}
_MALFORMED = pytest.mark.parametrize("where,key,value", [
    (None, "ts", "abc"),
    ("src", "pid", "x"),
    (None, "src", "oops"),
    ("src", "cmdline", 5),
    ("dst", "path", ["a"]),
    (None, "host", ["h"]),
    (None, "ts", 1 << 63),
    (None, "ts", True),
    ("src", "pid", False),
    (None, "dst", dict(_IP, src_port=True)),
    ("src", "cmdline", "x\ud800y"),  # JSON-escaped lone surrogates
    ("src", "name", "p\udcff"),
    ("dst", "path", "/tmp/\udfff"),
    (None, "host", "h\ud800"),
    (None, "dst", dict(_IP, dst_ip="10.0.0.\ud800")),
], ids=["ts-abc", "pid-x", "src-str", "cmdline-int", "path-list", "host-list", "ts-int64",
        "ts-true", "pid-false", "port-true", "cmdline-surrogate", "name-surrogate",
        "path-surrogate", "host-surrogate", "ip-surrogate"])


def _malformed_line(where, key, value):
    obj = json.loads(_line(0))
    (obj[where] if where else obj)[key] = value
    return json.dumps(obj)


@_MALFORMED
def test_parse_event_malformed_value_raises_parse_error(where, key, value):
    with pytest.raises(ParseError) as exc:
        parse_event(_malformed_line(where, key, value), 7)
    assert exc.value.lineno == 7


@pytest.mark.parametrize("where,key,value,message", [
    (None, "ts", True, "field 'ts' is not an integer: True"),
    (None, "dst", dict(_IP, src_port=True), "field 'src_port' is not an integer: True"),
    ("src", "name", "p\udcff", "field 'name' holds a lone surrogate: 'p\\udcff'"),
    (None, "host", "h\ud800", "field 'host' holds a lone surrogate: 'h\\ud800'"),
    (None, "dst", dict(_IP, dst_ip="\ud800"), "field 'dst_ip' holds a lone surrogate: "),
], ids=["ts-true", "port-true", "name-surrogate", "host-surrogate", "ip-surrogate"])
def test_booleans_and_lone_surrogates_name_their_field(where, key, value, message):
    with pytest.raises(ParseError) as exc:
        parse_event(_malformed_line(where, key, value), 7)
    assert str(exc.value).startswith("line 7: " + message)


@pytest.mark.parametrize("where,key", [(None, "ts"), ("src", "pid")])
def test_parse_event_number_past_the_digit_limit_is_a_parse_error(where, key):
    line = _malformed_line(where, key, "DIGITS").replace('"DIGITS"', "9" * 5001)
    with pytest.raises(ParseError) as exc:
        parse_event(line, 7)
    assert exc.value.lineno == 7 and str(exc.value).startswith("line 7: invalid JSON: ")


DEPTH = 200_000


@pytest.mark.parametrize("line", [
    "[" * DEPTH + "]" * DEPTH,
    " " + "[" * DEPTH + "]" * DEPTH + "\n",  # not at column 0: json.loads decodes it
    _line(0).replace('"/tmp/a"', '{"a": ' * DEPTH + "1" + "}" * DEPTH),
], ids=["array", "indented", "in-a-field"])
def test_parse_event_deeply_nested_line_is_a_parse_error(line):
    with pytest.raises(ParseError) as exc:
        parse_event(line, 7)
    assert exc.value.lineno == 7
    assert str(exc.value) == "line 7: invalid JSON: nested too deeply"


def test_parse_event_sets_node_ids():
    from provstp.model import entity_uuid

    edge = parse_event(_line(0)).edge
    assert edge.src.id == entity_uuid(edge.src.kind, edge.src.attrs)
    assert edge.dst.id == entity_uuid(edge.dst.kind, edge.dst.attrs)


def test_read_events_interns_repeated_entities(tmp_path):
    p = tmp_path / "ev.jsonl"
    p.write_text(_line(0) + "\n" + _line(1) + "\n" + _line(2, path="/tmp/b") + "\n")
    a, b, c = (ev.edge for ev in read_events(str(p)))
    assert a.src is b.src and a.dst is b.dst and a.src is c.src
    assert c.dst is not a.dst and c.dst.id != a.dst.id


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
    """Lines with ts last, as audit writers that sort their keys put it, so
    that lines which repeat but for their ts are decoded from the memo."""
    return "".join(json.dumps({"op": op, "host": host, "src": _ENTITIES[s],
                               "dst": _ENTITIES[d], "ts": ts}) + "\n"
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
    assert event_views(got) == event_views(want)


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


def _read_until_error(path):
    """The events read_events yields before it raises, and what it raises."""
    got = []
    with pytest.raises(ParseError) as exc:
        for ev in read_events(path):
            got.append(ev)
    return got, exc.value


def _parse_lines(lines):
    table = {}
    return [parse_event(line, n, table) for n, line in enumerate(lines, start=1)]


def test_read_events_invalid_utf8_line_is_a_parse_error(tmp_path):
    p = tmp_path / "ev.jsonl"
    p.write_bytes((_line(0) + "\n").encode() + b'{"ts": 1, "host": "\\xff\xfe"}\n'
                  + (_line(2) + "\n").encode())
    got, err = _read_until_error(str(p))
    assert event_views(got) == event_views(_parse_lines([_line(0)]))
    assert err.lineno == 2
    assert str(err).startswith("line 2: not UTF-8: ")


def _text_read_size(tmp_path):
    """Characters a text-mode file reads at a time, from an ASCII file."""
    p = tmp_path / "probe.txt"
    p.write_text("")
    with open(p, encoding="utf-8") as fh:
        assert fh._CHUNK_SIZE % 256 == 0
        return fh._CHUNK_SIZE


def _fixed_width(line, width=256):
    """line with a padding field that makes it exactly width bytes, newline included."""
    obj = json.loads(line)
    obj["pad"] = ""
    obj["pad"] = "x" * (width - 1 - len(json.dumps(obj)))
    text = json.dumps(obj) + "\n"
    assert len(text.encode()) == width
    return text


@_MALFORMED
def test_parse_error_past_a_chunk_boundary_follows_every_earlier_event(tmp_path, where, key,
                                                                      value):
    # Lines of 256 characters fill the text reader's reads exactly, so the
    # bad line is the second line of its second read.
    per_read = _text_read_size(tmp_path) // 256
    good = [_fixed_width(_line(i, pid=i % 5, path="/tmp/f%d" % (i % 9)))
            for i in range(per_read + 1)]
    bad = _malformed_line(where, key, value)
    p = tmp_path / "ev.jsonl"
    p.write_text("".join(good) + bad + "\n" + _line(0) + "\n")
    got, err = _read_until_error(str(p))
    assert event_views(got) == event_views(_parse_lines(good))
    bad_lineno = per_read + 2
    with pytest.raises(ParseError) as want:
        parse_event(bad, bad_lineno)
    assert (str(err), err.lineno) == (str(want.value), bad_lineno)


def test_line_endings_and_numbers_follow_text_mode(tmp_path):
    # A "\r\n" split between two of the text reader's reads, lone "\r" ends,
    # blank lines, and a malformed line whose number and message count them
    # all as text mode does.
    read_size = _text_read_size(tmp_path)
    head = _line(0) + "\r\n"
    filler = _fixed_width(_line(1), read_size - len(head))[:-1] + "\r"
    body = ("\n" + _line(2) + "\r" + _line(3) + "\r\r\n \n" + _line(4) + "\r\n"
            + '{"ts": \r\n' + _line(5))
    p = tmp_path / "ev.jsonl"
    p.write_bytes((head + filler + body).encode())
    assert len(head + filler) == read_size
    with open(p, "r", encoding="utf-8") as fh:
        text_lines = list(fh)
    assert len(text_lines) == 9 and text_lines[1].endswith("x\"}\n")
    got, err = _read_until_error(str(p))
    table = {}
    assert event_views(got) == event_views(parse_event(text_lines[n - 1], n, table)
                                           for n in (1, 2, 3, 4, 7))
    with pytest.raises(ParseError) as want:
        parse_event(text_lines[7], 8)
    assert (str(err), err.lineno) == (str(want.value), 8)


def _big_stream(tmp_path, n=3 * 8192):
    p = tmp_path / "ev.jsonl"
    p.write_text("".join(_line(i, pid=i % 13) + "\n" for i in range(n)))
    return str(p)


def test_read_events_starts_no_process(tmp_path, child_pids):
    before = child_pids()
    gen = read_events(_big_stream(tmp_path))
    assert next(gen).ts == 0
    assert child_pids() == before
    assert sum(1 for _ in gen) == 3 * 8192 - 1
    assert child_pids() == before


def _descriptors_on(path):
    """This process's descriptors open on path."""
    target, fds = os.path.realpath(path), []
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink("/proc/self/fd/" + fd) == target:
                fds.append(fd)
        except OSError:  # the descriptor listdir itself used
            pass
    return sorted(fds)


@pytest.mark.parametrize("how", ["close", RuntimeError, KeyboardInterrupt],
                         ids=["close", "RuntimeError", "KeyboardInterrupt"])
def test_ending_read_events_early_closes_its_input(tmp_path, monkeypatch, how):
    stream = _big_stream(tmp_path)
    stdin = open(stream, "r", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)

    def consume(path):
        for ev in read_events(path):
            if ev.ts == 100:
                raise how("stop")

    try:
        for path in (stream, "-"):
            held = _descriptors_on(stream)  # stdin's
            if how == "close":
                gen = read_events(path)
                assert next(gen).ts == 0
                assert len(_descriptors_on(stream)) == len(held) + (path != "-")
                gen.close()
            else:
                with pytest.raises(how):
                    consume(path)
            assert _descriptors_on(stream) == held
            assert not stdin.closed
    finally:
        stdin.close()


def test_input_path_can_name_an_inherited_descriptor(child_pids):
    import os

    before = child_pids()
    r, w = os.pipe()
    os.write(w, (_line(0) + "\n" + _line(1) + "\n").encode())
    os.close(w)
    try:
        # as bash passes `--input <(zcat log.gz)`
        assert [ev.ts for ev in read_events("/dev/fd/%d" % r)] == [0, 1]
    finally:
        os.close(r)
    assert child_pids() == before


def test_stdin_lines_arrive_before_eof(monkeypatch):
    import itertools
    import os
    import signal

    def timeout(signum, frame):
        raise TimeoutError("lines written to stdin did not arrive")

    r, w = os.pipe()
    os.write(w, (_line(0) + "\n" + _line(1) + "\n").encode())
    stdin = open(r, "r", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    gen = read_events("-")
    try:
        # The writer stays open, so a read for more would wait.
        assert [ev.ts for ev in itertools.islice(gen, 2)] == [0, 1]
    finally:
        gen.close()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        os.close(w)
        stdin.close()


def _read_outcome(path):
    """What read_events does on path: the events it yields, its
    rejected-op count and the exception it raises."""
    counters, got = {}, []
    try:
        for ev in read_events(path, counters):
            got.append(ev)
    except Exception as exc:
        return got, counters.get("rejected_ops", 0), exc
    return got, counters.get("rejected_ops", 0), None


def _identity_pattern(events):
    """For each event, the index of the first event holding the same
    src and dst Entity objects."""
    first = {}
    return [(first.setdefault(id(e.edge.src), i), first.setdefault(id(e.edge.dst), i))
            for i, e in enumerate(events)]


def _parse_outcome(lines):
    """The same for parse_event over lines with one shared table."""
    table, got, rejected = {}, [], 0
    for n, line in enumerate(lines, start=1):
        try:
            got.append(parse_event(line, n, table))
        except RejectedEvent:
            rejected += 1
        except ParseError as exc:
            return got, rejected, exc
    return got, rejected, None


_BAD_LINES = [_malformed_line(*args) for args in _MALFORMED.args[1]] + [
    "{bad",
    "[1, 2]",
    _line(0, path=""),
    json.dumps({"ts": 0, "host": "h1", "op": "sendto", "src": _ENTITIES[0],
                "dst": dict(_ENTITIES[5], dst_port=70000)}),
]


@settings(max_examples=60, deadline=None)
@given(rows=_stream_lines,
       bad=st.none() | st.tuples(st.integers(0, 60), st.sampled_from(_BAD_LINES)))
@example(rows=[(i, "write", "h1", 0, 3) for i in range(8)], bad=(4, "{bad"))
def test_read_events_matches_in_process_parsing(tmp_path_factory, rows, bad):
    lines = _jsonl(rows).splitlines()
    if bad is not None:
        lines.insert(min(bad[0], len(lines)), bad[1])
    p = tmp_path_factory.mktemp("pair") / "ev.jsonl"
    p.write_text("".join(line + "\n" for line in lines))
    got, rejected, exc = _read_outcome(str(p))
    want, want_rejected, want_exc = _parse_outcome(lines)
    assert event_views(got) == event_views(want)
    assert _identity_pattern(got) == _identity_pattern(want)  # one entity, one object
    assert rejected == want_rejected
    if want_exc is None:
        assert exc is None
    else:
        assert type(exc) is ParseError
        assert (str(exc), exc.lineno) == (str(want_exc), want_exc.lineno)


class _FailingInput(io.RawIOBase):
    """data, a few bytes a read, and then a read that fails at fail_at."""

    def __init__(self, data, fail_at):
        self.data, self.pos, self.fail_at = data, 0, fail_at

    def readable(self):
        return True

    def readinto(self, buf):
        if self.pos >= self.fail_at:
            raise OSError(errno.EIO, "Input/output error")
        n = min(len(buf), 100, self.fail_at - self.pos)
        buf[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n


@settings(max_examples=40, deadline=None)
@given(at=st.integers(0, 11), fault=st.sampled_from(["oserror", "decode-crash"]))
def test_decoder_faults_arrive_in_stream_order(tmp_path_factory, at, fault):
    # A read that fails inside line at + 1, or a crash while decoding that
    # line, comes after every event of the lines before it.
    from provstp import ingest

    lines = [_line(i, pid=i % 3) + "\n" for i in range(12)]
    data = "".join(lines).encode()
    p = tmp_path_factory.mktemp("fault") / "ev.jsonl"
    p.write_bytes(data)

    def faulty_open(path, encoding, errors):
        return io.TextIOWrapper(io.BufferedReader(
            _FailingInput(data, len("".join(lines[:at])) + 10)), encoding=encoding, errors=errors)

    def faulty_parse(line, lineno, table):
        if lineno == at + 1:
            raise RuntimeError("decoding line %d failed" % lineno)
        return parse_event(line, lineno, table)

    with pytest.MonkeyPatch.context() as mp:
        if fault == "oserror":
            mp.setattr(ingest, "open", faulty_open, raising=False)
        else:
            mp.setattr(ingest, "parse_event", faulty_parse)
        got, _, exc = _read_outcome(str(p))
    assert event_views(got) == event_views(_parse_lines(lines[:at]))
    if fault == "oserror":
        assert type(exc) is OSError and exc.errno == errno.EIO
    else:
        assert type(exc) is RuntimeError and str(exc) == "decoding line %d failed" % (at + 1)


def test_a_line_repeated_but_for_its_ts_is_parsed_once(tmp_path, monkeypatch):
    from provstp import ingest

    parsed = []

    def parse(line, lineno, table):
        parsed.append(lineno)
        return parse_event(line, lineno, table)

    monkeypatch.setattr(ingest, "parse_event", parse)
    p = tmp_path / "ev.jsonl"
    p.write_text(_jsonl([(ts, "write", "h1", 0, 3 + ts % 2) for ts in range(50)]))
    events = list(read_events(str(p)))
    assert [ev.ts for ev in events] == list(range(50))
    assert parsed == [1, 2]
    # the lines of one prefix share its Edge, and with it its Entities
    assert all(ev.edge is events[ev.ts % 2].edge for ev in events)
    assert events[0].edge is not events[1].edge
    assert events[0].edge.src is events[1].edge.src


# Memo property.  A template fixes every field of a line but its ts; lines
# drawn from a few templates repeat all but their ts, as audit lines do,
# and lay it out in several ways.  A last line, which may be malformed,
# can reuse a template too.
_BAD_ENTITIES = [{"kind": "file", "path": ""},  # fails as it enters a table
                 dict(_ENTITIES[5], dst_port=70000),
                 dict(_ENTITIES[0], cmdline="x\ud800y")]  # a JSON-escaped lone surrogate
_LAYOUTS = {
    "last": '{%(body)s, "ts": %(ts)s}',
    "trailing": '{%(body)s, "ts": %(ts)s} \t ',
    "spaced": '{%(body)s, "ts": %(ts)s }',
    "tight": '{%(tight)s,"ts":%(ts)s}',
    "first": '{"ts": %(ts)s, %(body)s}',
    "duplicate": '{"ts": 1, %(body)s, "ts": %(ts)s}',
    "duplicate-after": '{%(body)s, "ts": %(ts)s, "ts": 2}',
    "escaped-key": '{%(body)s, "ts": 3, "x\\"ts": %(ts)s}',
    "blank": '   ',
}
_BAD_LAYOUTS = dict(_LAYOUTS, **{"vertical-tab": '{%(body)s, "ts": %(ts)s}\x0b'})
_TS = st.one_of(st.integers(0, 30).map(str),
                st.sampled_from(["-0", "1.5", "2.0", "1e3", '"42"', str((1 << 63) - 1)]))
_BAD_TS = _TS | st.sampled_from(["-1", "007", "null", str(1 << 63), str(-(1 << 63))])
_OPS = st.sampled_from(["read", "write", "fork", "sendto", "readdir", 5])
_ENTITY = st.sampled_from(range(len(_ENTITIES))).map(_ENTITIES.__getitem__)
_BAD_ENTITY = _ENTITY | st.sampled_from(_BAD_ENTITIES)
# op, host, whether the members go in reverse order, src and dst
_TEMPLATE = st.tuples(_OPS, st.sampled_from(["h1", "h2"]), st.booleans(), _ENTITY, _ENTITY)
_BAD_TEMPLATE = st.tuples(_OPS, st.sampled_from(["h1", "h\udcff"]),  # "\udcff" writes 0xff
                          st.booleans(), _BAD_ENTITY, _BAD_ENTITY)


def _memo_line(template, layout, ts):
    op, host, reverse, src, dst = template
    members = [("op", op), ("host", host), ("src", src), ("dst", dst)]
    obj = dict(reversed(members) if reverse else members)
    text = _BAD_LAYOUTS[layout] % {
        "body": json.dumps(obj, ensure_ascii=False)[1:-1],
        "tight": json.dumps(obj, ensure_ascii=False, separators=(",", ":"))[1:-1],
        "ts": ts}
    # "\ud800" goes out as JSON's escape, "\udcff" as the byte 0xff
    return text.replace("\ud800", "\\ud800").encode("utf-8", "surrogateescape")


def _memo_outcome(path, warm):
    """What read_events does on path with INTERN_LIMIT = 4, with its memo
    or with one that never hits, and the sizes of the intern table each
    parse_event call met."""
    from provstp import ingest

    sizes = []

    def parse(line, lineno, table):
        sizes.append(len(table))
        return parse_event(line, lineno, table)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "INTERN_LIMIT", 4)
        mp.setattr(ingest, "parse_event", parse)
        if not warm:
            mp.setattr(ingest, "_TS_TAIL", re.compile(r"(?!)"))
        return _read_outcome(path), sizes


_P, _F = _ENTITIES[0], _ENTITIES[3]  # a process and a file


@settings(max_examples=150, deadline=None)
@given(templates=st.lists(_TEMPLATE, min_size=1, max_size=4),
       picks=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(sorted(_LAYOUTS)), _TS),
                      max_size=40),
       last=st.none() | st.tuples(st.integers(0, 3) | _BAD_TEMPLATE,
                                  st.sampled_from(sorted(_BAD_LAYOUTS)), _BAD_TS))
@example(templates=[("write", "h1", False, _P, _F), ("read", "h2", False, _P, _F)],
         picks=[(0, "last", "1"), (1, "last", "2"), (1, "trailing", "3")],
         last=None)  # the table fills and clears on line 2
@example(templates=[("write", "h1", False, _P, _F)],
         picks=[(0, "escaped-key", "9"), (0, "escaped-key", "8")], last=None)
@example(templates=[("write", "h1", False, _P, _F)], picks=[(0, "last", "1")],
         last=(0, "vertical-tab", "2"))
@example(templates=[("write", "h1", False, _P, _F)], picks=[(0, "last", "1")],
         last=(("write", "h1", False, _BAD_ENTITIES[2], _F), "last", "2"))
@example(templates=[("write", "h1", False, _P, _F)], picks=[(0, "last", "1")],
         last=(0, "last", "-1"))
@example(templates=[("write", "h1", False, _P, _F)], picks=[(0, "last", "1")],
         last=(0, "last", "007"))
@example(templates=[("write", "h1", False, _P, _F)], picks=[(0, "last", "1")],
         last=(0, "trailing", str(1 << 63)))
def test_memo_hits_decode_as_a_cold_parse(tmp_path_factory, templates, picks, last):
    lines = [_memo_line(templates[t % len(templates)], layout, ts) for t, layout, ts in picks]
    if last is not None:
        t, layout, ts = last
        lines.append(_memo_line(templates[t % len(templates)] if isinstance(t, int) else t,
                                layout, ts))
    p = tmp_path_factory.mktemp("memo") / "ev.jsonl"
    p.write_bytes(b"".join(line + b"\n" for line in lines))
    (got, rejected, exc), sizes = _memo_outcome(str(p), warm=True)
    (want, want_rejected, want_exc), cold_sizes = _memo_outcome(str(p), warm=False)
    assert event_views(got) == event_views(want)
    assert _identity_pattern(got) == _identity_pattern(want)
    assert rejected == want_rejected
    assert (type(exc), str(exc), getattr(exc, "lineno", None)) == \
        (type(want_exc), str(want_exc), getattr(want_exc, "lineno", None))
    assert all(n < 4 for n in sizes + cold_sizes)  # the table stays bounded
