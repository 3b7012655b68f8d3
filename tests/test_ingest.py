from __future__ import annotations

import contextlib
import errno
import io
import itertools
import json
import os
import signal

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
    assert ev.op == "fork" and ev.ts == 0 and ev.src.attrs.host == "h1"
    assert ev.src.attrs.pid == 1 and ev.dst.attrs.name == "sh"


def test_parse_event_tid_defaults_to_pid():
    ev = parse_event(_line(5, pid=77))
    assert ev.src.attrs.tid == 77


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


_MALFORMED = pytest.mark.parametrize("where,key,value", [
    (None, "ts", "abc"),
    ("src", "pid", "x"),
    (None, "src", "oops"),
    ("src", "cmdline", 5),
    ("dst", "path", ["a"]),
    (None, "host", ["h"]),
    (None, "ts", 1 << 63),
], ids=["ts-abc", "pid-x", "src-str", "cmdline-int", "path-list", "host-list", "ts-int64"])


def _malformed_line(where, key, value):
    obj = json.loads(_line(0))
    (obj[where] if where else obj)[key] = value
    return json.dumps(obj)


@_MALFORMED
def test_parse_event_malformed_value_raises_parse_error(where, key, value):
    with pytest.raises(ParseError) as exc:
        parse_event(_malformed_line(where, key, value), 7)
    assert exc.value.lineno == 7


def test_parse_event_sets_node_ids():
    from provstp.model import entity_uuid

    ev = parse_event(_line(0))
    assert ev.src.id == entity_uuid(ev.src.kind, ev.src.attrs)
    assert ev.dst.id == entity_uuid(ev.dst.kind, ev.dst.attrs)


def test_read_events_interns_repeated_entities(tmp_path):
    p = tmp_path / "ev.jsonl"
    p.write_text(_line(0) + "\n" + _line(1) + "\n" + _line(2, path="/tmp/b") + "\n")
    a, b, c = read_events(str(p))
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
    assert got == _parse_lines([_line(0)])
    assert err.lineno == 2
    assert str(err).startswith("line 2: not UTF-8: ")


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
    from provstp import ingest

    # Lines of 256 bytes fill the worker's reads exactly, so its first
    # chunk is lines 1..CHUNK_LINES and the bad line is the second line
    # of the second chunk.
    assert ingest._READ_BYTES % 256 == 0
    good = [_fixed_width(_line(i, pid=i % 5, path="/tmp/f%d" % (i % 9)))
            for i in range(ingest.CHUNK_LINES + 1)]
    bad = _malformed_line(where, key, value)
    p = tmp_path / "ev.jsonl"
    p.write_text("".join(good) + bad + "\n" + _line(0) + "\n")
    got, err = _read_until_error(str(p))
    assert got == _parse_lines(good)
    bad_lineno = ingest.CHUNK_LINES + 2
    with pytest.raises(ParseError) as want:
        parse_event(bad, bad_lineno)
    assert (str(err), err.lineno) == (str(want.value), bad_lineno)


def test_reader_intern_table_stays_bounded(tmp_path, monkeypatch):
    from provstp import ingest

    monkeypatch.setattr(ingest, "INTERN_LIMIT", 4)
    lines = [_line(i, pid=i % 7, path="/tmp/f%d" % (i % 11), host="h%d" % (i % 3))
             for i in range(300)]
    want = _parse_lines(lines)
    table, got = {}, []
    for start in range(0, len(lines), 64):
        chunk = ingest.decode_chunk([(s + "\n").encode() for s in lines[start:start + 64]],
                                    start + 1)
        assert chunk.error is None
        for ev in ingest._chunk_events(chunk, table):
            assert len(table) <= 4
            got.append(ev)
    assert got == want
    p = tmp_path / "ev.jsonl"
    p.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(ingest, "CHUNK_LINES", 16)
    assert list(read_events(str(p))) == want


def test_line_endings_and_numbers_follow_text_mode(tmp_path):
    from provstp import ingest

    # A "\r\n" split between two reads, lone "\r" ends, blank lines, and a
    # malformed line whose number and message count them all as text mode does.
    head = _line(0) + "\r\n"
    filler = _fixed_width(_line(1), ingest._READ_BYTES - len(head))[:-1] + "\r"
    body = ("\n" + _line(2) + "\r" + _line(3) + "\r\r\n \n" + _line(4) + "\r\n"
            + '{"ts": \r\n' + _line(5))
    p = tmp_path / "ev.jsonl"
    p.write_bytes((head + filler + body).encode())
    assert len(head + filler) == ingest._READ_BYTES
    with open(p, "r", encoding="utf-8") as fh:
        text_lines = list(fh)
    assert len(text_lines) == 9 and text_lines[1].endswith("x\"}\n")
    got, err = _read_until_error(str(p))
    table = {}
    assert got == [parse_event(text_lines[n - 1], n, table) for n in (1, 2, 3, 4, 7)]
    with pytest.raises(ParseError) as want:
        parse_event(text_lines[7], 8)
    assert (str(err), err.lineno) == (str(want.value), 8)


def _big_stream(tmp_path, n=3 * 8192):
    p = tmp_path / "ev.jsonl"
    p.write_text("".join(_line(i, pid=i % 13) + "\n" for i in range(n)))
    return str(p)


def test_closing_read_events_early_reaps_the_worker(tmp_path, child_pids):
    before = child_pids()
    gen = read_events(_big_stream(tmp_path))
    assert next(gen).ts == 0
    _decoders(child_pids, before)
    gen.close()
    assert child_pids() == before


def _decoders(child_pids, before):
    """The pids of the decoders of the one read_events running: two
    children of this process, which have none of their own."""
    pids = child_pids() - before
    assert len(pids) == 2 and not any(child_pids(pid) for pid in pids)
    return pids


def _a_and_b(pids, stream):
    """Decoders A and B: A is the one that holds the input."""
    (a,) = [pid for pid in pids if os.path.realpath(stream) in _fd_targets(pid)]
    (b,) = pids - {a}
    return a, b


def _fd_targets(pid):
    fd_dir = "/proc/%d/fd" % pid
    return sorted(os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir))


def _fifo_input(tmp_path, monkeypatch, n):
    """A FIFO holding events 0..n-1 that stays open for writing, and its
    writer, with CHUNK_LINES = 16.  Once the reader has taken the events
    of every whole batch, both decoders wait: A for input and B for A."""
    from provstp import ingest

    monkeypatch.setattr(ingest, "CHUNK_LINES", 16)
    stream = str(tmp_path / "ev.fifo")
    os.mkfifo(stream)
    writer = os.open(stream, os.O_RDWR)  # does not wait for a reader
    os.write(writer, "".join(_line(i) + "\n" for i in range(n)).encode())
    return stream, writer


def test_worker_keeps_only_its_pipe_and_input(tmp_path, monkeypatch, child_pids):
    stream, writer = _fifo_input(tmp_path, monkeypatch, 33)
    r, w = os.pipe()  # a descriptor the caller holds, which the decoders must not
    callers_pipe = os.readlink("/proc/self/fd/%d" % r)
    before = child_pids()
    gen = read_events(stream)
    with _deadline(20):
        try:
            # B's first event: both decoders have sent a chunk, so both are set up
            assert [ev.ts for ev in itertools.islice(gen, 17)][-1] == 16
            a, b = _a_and_b(_decoders(child_pids, before), stream)
            a_fds, b_fds = _fd_targets(a), _fd_targets(b)
        finally:
            gen.close()
            for fd in (writer, r, w):
                os.close(fd)
    # A: the input file, the write end of its pipe to the reader and the
    # write end of its pipe to B; B: the read end of that pipe and the
    # write end of its own pipe to the reader.  Nothing else.
    assert len(a_fds) == 3 and len(b_fds) == 2, (a_fds, b_fds)
    assert a_fds[0] == os.path.realpath(stream)
    pipes = a_fds[1:] + b_fds
    assert all(t.startswith("pipe:") and t != callers_pipe for t in pipes)
    assert len(set(a_fds[1:]) & set(b_fds)) == 1  # the one pipe from A to B
    assert len(set(pipes)) == 3


@pytest.mark.parametrize("taken,victim", [(16, "a"), (16, "b"), (32, "a")])
def test_a_killed_decoder_ends_the_stream_with_oserror(tmp_path, monkeypatch, child_pids,
                                                     taken, victim):
    # Once `taken` events are read, the next slot is B's (16) or A's (32).
    # Killed, A ends the stream through its own pipe or through B, which
    # then reads the end of A's pipe to it; B ends it through its own.
    stream, writer = _fifo_input(tmp_path, monkeypatch, taken)
    before = child_pids()
    gen = read_events(stream)
    with _deadline(20):
        try:
            assert [ev.ts for ev in itertools.islice(gen, taken)][-1] == taken - 1
            a, b = _a_and_b(_decoders(child_pids, before), stream)
            os.kill(a if victim == "a" else b, signal.SIGKILL)
            with pytest.raises(OSError, match="ended before its input did"):
                next(gen)
        finally:
            gen.close()
            os.close(writer)


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


@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
def test_exception_in_the_consumer_reaps_the_worker(tmp_path, child_pids, exc_type):
    before = child_pids()
    stream = _big_stream(tmp_path)

    def consume():
        for ev in read_events(stream):
            if ev.ts == 100:
                _decoders(child_pids, before)
                raise exc_type("stop")

    with pytest.raises(exc_type):
        consume()
    assert child_pids() == before


def test_stdin_lines_arrive_before_eof_and_close_kills_a_waiting_worker(monkeypatch,
                                                                        child_pids):
    import itertools
    import os
    import signal

    def timeout(signum, frame):
        raise TimeoutError("lines written to stdin did not arrive")

    before = child_pids()
    r, w = os.pipe()
    os.write(w, (_line(0) + "\n" + _line(1) + "\n").encode())
    stdin = open(r, "r", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    gen = read_events("-")
    try:
        # The writer stays open, so the worker waits for more input.
        assert [ev.ts for ev in itertools.islice(gen, 2)] == [0, 1]
    finally:
        gen.close()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        os.close(w)
        stdin.close()
    assert child_pids() == before



def _read_outcome(path, chunk_lines):
    """What read_events does on path with CHUNK_LINES = chunk_lines: the
    events it yields, its rejected-op count and the exception it raises."""
    from provstp import ingest

    counters, got = {}, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "CHUNK_LINES", chunk_lines)
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
    return [(first.setdefault(id(e.src), i), first.setdefault(id(e.dst), i))
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
@given(rows=_stream_lines, chunk_lines=st.integers(1, 4),
       bad=st.none() | st.tuples(st.integers(0, 60), st.sampled_from(_BAD_LINES)))
@example(rows=[(i, "write", "h1", 0, 3) for i in range(8)], chunk_lines=2, bad=(4, "{bad"))
@example(rows=[(i, "write", "h1", 0, 3) for i in range(8)], chunk_lines=2, bad=(6, "{bad"))
def test_read_events_matches_in_process_parsing(tmp_path_factory, rows, chunk_lines, bad):
    # With chunks of a few lines, chunks alternate between the two
    # decoders many times; the bad line lands in a chunk of either one.
    lines = _jsonl(rows).splitlines()
    if bad is not None:
        lines.insert(min(bad[0], len(lines)), bad[1])
    p = tmp_path_factory.mktemp("pair") / "ev.jsonl"
    p.write_text("".join(line + "\n" for line in lines))
    got, rejected, exc = _read_outcome(str(p), chunk_lines)
    want, want_rejected, want_exc = _parse_outcome(lines)
    assert got == want
    assert _identity_pattern(got) == _identity_pattern(want)  # one entity, one object
    assert rejected == want_rejected
    if want_exc is None:
        assert exc is None
    else:
        assert type(exc) is ParseError
        assert (str(exc), exc.lineno) == (str(want_exc), want_exc.lineno)


@settings(max_examples=40, deadline=None)
@given(at=st.integers(0, 5), chunk_lines=st.integers(1, 3),
       fault=st.sampled_from(["oserror", "read-crash", "decode-crash"]))
def test_decoder_faults_arrive_in_stream_order(tmp_path_factory, at, chunk_lines, fault):
    # Fault at batch `at`: a read error or a crash while reading (in A), or
    # a crash while decoding (in A or B, by the batch's parity).
    from provstp import ingest

    lines = [_line(i, pid=i % 3) for i in range(12)]
    at %= -(-len(lines) // chunk_lines)  # a batch there is
    p = tmp_path_factory.mktemp("fault") / "ev.jsonl"
    p.write_text("".join(line + "\n" for line in lines))
    line_batches, decode_chunk = ingest._line_batches, ingest.decode_chunk

    def faulty_batches(fh):
        for i, batch in enumerate(line_batches(fh)):
            if i == at and fault == "oserror":
                yield OSError(5, "Input/output error")
                return
            if i == at and fault == "read-crash":
                raise RuntimeError("reading batch %d failed" % i)
            yield batch

    def faulty_decode(batch, lineno=1):
        if lineno == at * chunk_lines + 1:
            raise RuntimeError("decoding line %d failed" % lineno)
        return decode_chunk(batch, lineno)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_line_batches", faulty_batches)
        mp.setattr(ingest, "decode_chunk", faulty_decode)
        got, _, exc = _read_outcome(str(p), chunk_lines)
    assert got == _parse_lines(lines[:at * chunk_lines])
    if fault == "oserror":
        assert type(exc) is OSError and exc.errno == 5
    else:
        assert type(exc) is RuntimeError and str(exc).startswith("decoder process failed:")
        assert ("reading batch %d" % at if fault == "read-crash"
                else "decoding line %d" % (at * chunk_lines + 1)) in str(exc)


@pytest.mark.parametrize("how", ["close", "consumer-raises", "parse-error-a",
                                 "parse-error-b"])
def test_both_decoders_are_reaped(tmp_path, child_pids, how):
    from provstp import ingest

    lines = [_line(i, pid=i % 13) for i in range(3 * 8192)]
    if how.startswith("parse-error"):
        # in the third chunk (A's) or the fourth (B's)
        lines[(2 if how.endswith("a") else 3) * ingest.CHUNK_LINES + 5] = "{bad"
    p = tmp_path / "ev.jsonl"
    p.write_text("".join(line + "\n" for line in lines))
    before = child_pids()
    gen = read_events(str(p))
    assert next(gen).ts == 0
    pids = _decoders(child_pids, before)
    with _deadline(20):
        if how == "close":
            gen.close()
        else:
            with pytest.raises((RuntimeError, ParseError)):
                for ev in gen:
                    if how == "consumer-raises" and ev.ts == 5000:
                        raise RuntimeError("stop")
            del gen  # dropped without close(), as by a consumer that raised
    assert child_pids() == before
    assert not any(os.path.exists("/proc/%d" % pid) for pid in pids)


@pytest.mark.parametrize("call,fails", [("pipe", 2), ("pipe", 3), ("fork", 1), ("fork", 2)])
def test_a_failed_pipe_or_fork_leaves_nothing_behind(monkeypatch, child_pids, call, fails):
    # No process starts: a fork that succeeds returns a pid no process can
    # have, and read_events must then kill and reap it.
    fake_pid = 1 << 30
    counts = {"pipe": 0, "fork": 0}
    killed, reaped = [], []

    def faulty(name, real):
        def attempt():
            counts[name] += 1
            if name == call and counts[name] == fails:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()
        return attempt

    def waitpid(pid, options):
        reaped.append(pid)
        return pid, 0

    fds = sorted(os.listdir("/proc/self/fd"))
    before = child_pids()
    monkeypatch.setattr(os, "pipe", faulty("pipe", os.pipe))
    monkeypatch.setattr(os, "fork", faulty("fork", lambda: fake_pid))
    monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append((pid, sig)))
    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(OSError) as err:
        next(read_events("events.jsonl"))
    monkeypatch.undo()
    assert err.value.errno == errno.EAGAIN
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert child_pids() == before
    forked = counts["fork"] - (call == "fork")
    assert killed == [(fake_pid, signal.SIGKILL)] * forked and reaped == [fake_pid] * forked


def test_a_cut_off_message_reads_as_a_dead_decoder():
    from provstp import ingest

    out = io.BytesIO()
    ingest._send(out, ("end",))
    whole = out.getvalue()
    assert ingest._receive(io.BytesIO(whole)) == ("end",)
    assert ingest._receive(io.BytesIO(whole[:-1])) is None  # header and a cut-off body
    assert ingest._receive(io.BytesIO(whole[:5])) is None  # a cut-off header


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError if the block takes longer than seconds."""
    def timeout(signum, frame):
        raise TimeoutError("still running after %d s" % seconds)

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_decoding_does_not_need_larger_pipes(tmp_path, monkeypatch):
    import fcntl

    calls = []

    def refuse(fd, cmd, arg=0):
        calls.append(cmd)
        raise OSError(1, "Operation not permitted")

    monkeypatch.setattr(fcntl, "fcntl", refuse)
    lines = [_line(i, pid=i % 13, path="/tmp/f%d" % (i % 17)) for i in range(3 * 8192)]
    p = tmp_path / "ev.jsonl"
    p.write_text("".join(line + "\n" for line in lines))
    assert list(read_events(str(p))) == _parse_lines(lines)
    assert calls and set(calls) == {fcntl.F_SETPIPE_SZ}
