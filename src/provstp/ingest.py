"""JSONL audit-event parsing and event-time windowing.

`read_events` decodes the stream in a worker process that it forks for
the purpose, so that JSON decoding, most of the cost of ingest, runs on a
second core while the caller builds and scores windows.  The worker reads
the input as bytes (stdin only ever in the worker), splits it into lines
as text mode would, and hands batches of lines to `decode_chunk`, which
validates, interns and rejects exactly as `parse_event` does.  It never
builds an attrs object, a RawEvent or a numpy array, and it closes every
descriptor it inherited but its pipe and its input's.

Wire format: one message per chunk over an `os.pipe`, an 8-byte length
and a `marshal`led tuple.  A chunk holds about CHUNK_LINES lines as
integer columns, `ts` (int64) and op code, host index, src id and dst id
(int32), plus the chunk's distinct hosts, the intern keys of the entities
it names first (in id order) and its rejected-op count.  A chunk that
stops at a malformed line carries that line's ParseError, which the
reader raises once it has yielded every event before it.  The last
message says how the input ended: its end, an OSError, or a crash.

The reader builds an attrs object and NodeId once per new entity and
yields the same RawEvents that in-process parsing gives.  Pickling those
objects, or WindowBatches, would cost more than parsing them; the columns
cost the reader about half a microsecond per event.  The worker costs
what in-process parsing did, so a pass spends a little more CPU time than
before, across two cores, and ends sooner: on 80 000 events (2 cores,
Python 3.11), 0.56-0.80 s in the worker and 0.39-0.50 s in the reader,
against 0.90-1.24 s for parsing and detection in one process.
"""

from __future__ import annotations

import json
import marshal
import os
import signal
import sys
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .model import ALL_OPS, FILE, IP, PROCESS, FileAttrs, IpAttrs, ProcessAttrs, entity_uuid

DEFAULT_WINDOW_SECONDS = 10.0


class ParseError(ValueError):
    """Malformed line: bad JSON, missing field, or out-of-range value."""

    def __init__(self, message: str, lineno: int = 0):
        super().__init__(message)
        self.lineno = lineno


class RejectedEvent(ValueError):
    """Structurally valid event whose op is not a recognized operation."""


@dataclass(slots=True)
class RawEvent:
    ts: int  # epoch milliseconds
    host: str
    op: str
    src_kind: str
    src: object
    dst_kind: str
    dst: object
    src_id: str  # NodeId of src, fixed when the entity is interned
    dst_id: str


@dataclass(slots=True)
class WindowBatch:
    window_index: int
    events: List[RawEvent]


# Entities held in one stream's intern table before it is cleared, which
# bounds the table to some 20 MB.
INTERN_LIMIT = 1 << 15

# Lines the worker decodes into one chunk when the input is ahead of it;
# it sends a shorter chunk when a read finds no more input waiting.
CHUNK_LINES = 8192
_READ_BYTES = 1 << 16

OPS = tuple(sorted(ALL_OPS))  # op code -> op
_OP_CODES = {op: code for code, op in enumerate(OPS)}
_TS_LIMIT = 1 << 63  # ts travels as int64

Entity = Tuple[str, object, str]  # (kind, attrs, NodeId)

# Field names and types of an entity's intern key, which leads with its
# kind and the host of the event (ip entities ignore the host).
_KEY_FIELDS = {
    PROCESS: (("kind", str), ("host", str), ("pid", int), ("tid", int), ("uid", int),
              ("name", str), ("cmdline", str)),
    FILE: (("kind", str), ("host", str), ("path", str)),
    IP: (("kind", str), ("src_ip", str), ("src_port", int), ("dst_ip", str),
         ("dst_port", int)),
}

_scan_json = json.JSONDecoder().scan_once


def _loads(line: str, lineno: int):
    """json.loads(line), minus its wrapper's cost on a line that holds one
    value and ends at its newline; every other line goes through json.loads,
    so the result or the error is the same."""
    try:
        obj, end = _scan_json(line, 0)
        if end == len(line) or line[end:] == "\n":
            return obj
    except (StopIteration, ValueError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError("line %d: invalid JSON: %s" % (lineno, exc), lineno) from None


def _as_int(value, name: str, lineno: int) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError("line %d: field %r is not an integer: %r" % (lineno, name, value),
                         lineno) from None


def _fields(obj, lineno: int) -> Tuple[int, str, str, object, object]:
    """(ts, op, host, src, dst) of a decoded line, validated.  Raises
    ParseError for malformed input and RejectedEvent for an op outside
    the recognized set."""
    if type(obj) is not dict:
        raise ParseError("line %d: event is not an object" % lineno, lineno)
    try:
        op = obj["op"]
        ts = obj["ts"]
        host = obj["host"]
        src_obj = obj["src"]
        dst_obj = obj["dst"]
    except KeyError as exc:
        raise ParseError("line %d: missing field %s" % (lineno, exc), lineno) from None
    if type(ts) is not int:
        ts = _as_int(ts, "ts", lineno)
    if type(op) is not str or op not in ALL_OPS:
        raise RejectedEvent("line %d: unrecognized op %r" % (lineno, op))
    if ts < 0:
        raise ParseError("line %d: negative ts" % lineno, lineno)
    if ts >= _TS_LIMIT:
        raise ParseError("line %d: ts out of range" % lineno, lineno)
    if type(host) is not str:
        raise ParseError("line %d: field 'host' is not a string: %r" % (lineno, host), lineno)
    return ts, op, host, src_obj, dst_obj


def _normalised(key: tuple, lineno: int) -> tuple:
    out = []
    for value, (name, want) in zip(key, _KEY_FIELDS[key[0]]):
        if type(value) is not want:
            if want is not int:
                raise ParseError("line %d: field %r is not a string: %r"
                                 % (lineno, name, value), lineno)
            value = _as_int(value, name, lineno)
        out.append(value)
    return tuple(out)


def _key(obj, host: str, lineno: int) -> tuple:
    """The intern key of the entity that obj names, validated and
    type-normalised."""
    if type(obj) is not dict:
        raise ParseError("line %d: entity is not an object: %r" % (lineno, obj), lineno)
    kind = obj.get("kind")
    try:
        if kind == PROCESS:
            pid, uid, name, cmdline = obj["pid"], obj["uid"], obj["name"], obj["cmdline"]
            tid = obj.get("tid")
            if tid is None:
                tid = pid
            key = (PROCESS, host, pid, tid, uid, name, cmdline)
            typed = (type(pid) is int and type(tid) is int and type(uid) is int
                     and type(name) is str and type(cmdline) is str)
        elif kind == FILE:
            path = obj["path"]
            key = (FILE, host, path)
            typed = type(path) is str
        elif kind == IP:
            src_ip, src_port = obj["src_ip"], obj["src_port"]
            dst_ip, dst_port = obj["dst_ip"], obj["dst_port"]
            key = (IP, src_ip, src_port, dst_ip, dst_port)
            typed = (type(src_ip) is str and type(src_port) is int
                     and type(dst_ip) is str and type(dst_port) is int)
        else:
            raise ParseError("line %d: unknown entity kind %r" % (lineno, kind), lineno)
    except KeyError as exc:
        raise ParseError("line %d: missing field %s" % (lineno, exc), lineno) from None
    return key if typed else _normalised(key, lineno)


def _check_new(key: tuple, lineno: int):
    """Check the values of a key about to enter an intern table."""
    kind = key[0]
    if kind == FILE:
        if not key[2]:
            raise ParseError("line %d: empty file path" % lineno, lineno)
    elif kind == IP:
        for port in (key[2], key[4]):
            if not 0 <= port <= 65535:
                raise ParseError("line %d: port %d out of range" % (lineno, port), lineno)


def _build(key: tuple) -> Entity:
    """The entity of a checked intern key: its kind, attrs and NodeId."""
    kind = key[0]
    if kind == PROCESS:
        _, host, pid, tid, uid, name, cmdline = key
        attrs = ProcessAttrs(pid=pid, tid=tid, uid=uid, name=name, cmdline=cmdline, host=host)
    elif kind == FILE:
        attrs = FileAttrs(path=key[2], host=key[1])
    else:
        attrs = IpAttrs(src_ip=key[1], src_port=key[2], dst_ip=key[3], dst_port=key[4])
    return kind, attrs, entity_uuid(kind, attrs)


def _entity(obj, host: str, lineno: int, table: Dict[tuple, Entity]) -> Entity:
    """The interned entity that obj names.  A new entity's values are
    checked once, when it enters the table."""
    key = _key(obj, host, lineno)
    ent = table.get(key)
    if ent is None:
        _check_new(key, lineno)
        if len(table) >= INTERN_LIMIT:
            table.clear()
        ent = table[key] = _build(key)
    return ent


def parse_event(line: str, lineno: int = 0,
                table: Optional[Dict[tuple, Entity]] = None) -> RawEvent:
    """Parse one JSONL line into a RawEvent with its endpoint NodeIds set.

    `table` interns entities across the lines of one stream, so events
    that name the same entity share its attrs object and NodeId; without
    it the entities are built afresh.  Raises ParseError for malformed
    input and RejectedEvent for an op outside the recognized set.  Extra
    fields are ignored.
    """
    ts, op, host, src_obj, dst_obj = _fields(_loads(line, lineno), lineno)
    if table is None:
        table = {}
    src_kind, src, src_id = _entity(src_obj, host, lineno, table)
    dst_kind, dst, dst_id = _entity(dst_obj, host, lineno, table)
    return RawEvent(ts, host, op, src_kind, src, dst_kind, dst, src_id, dst_id)


@dataclass(slots=True)
class Chunk:
    """Decoded lines as integer columns, one row per accepted event.

    `src` and `dst` hold intern ids.  A row that names an entity for the
    first time holds ~id instead (a negative number), and `keys` lists
    those entities' intern keys in id order.  Ids restart from 0 when the
    decoder clears its table at INTERN_LIMIT, so a new id 0 is the
    reader's signal to clear its own.  `op` indexes OPS and `host`
    indexes `hosts`.  `error` is the ParseError of the malformed line
    that ended the chunk, if one did.
    """

    ts: array
    op: array
    host: array
    src: array
    dst: array
    hosts: List[str]
    keys: List[tuple]
    rejected: int
    error: Optional[ParseError]


def _intern(key: tuple, lineno: int, table: Dict[tuple, int], keys: List[tuple]) -> int:
    """Enter a new key into the decoder's table; returns ~id."""
    _check_new(key, lineno)
    if len(table) >= INTERN_LIMIT:
        table.clear()
    i = table[key] = len(table)
    keys.append(key)
    return ~i


def decode_chunk(lines: Sequence[bytes], table: Dict[tuple, int], lineno: int = 1) -> Chunk:
    """Decode raw JSONL lines, the first of which is line `lineno`, into a Chunk.

    Validation, interning, rejected ops and ParseError messages are those
    of parse_event; a line that is not UTF-8 is malformed too.  `table`
    maps the intern key of each entity in the stream to its id and
    carries over from chunk to chunk.  Decoding stops at the first
    malformed line.
    """
    ts_col, op_col, host_col, src_col, dst_col = (
        array("q"), array("i"), array("i"), array("i"), array("i"))
    hosts: Dict[str, int] = {}
    keys: List[tuple] = []
    rejected = 0
    error = None
    put_ts, put_op, put_host, put_src, put_dst = (
        ts_col.append, op_col.append, host_col.append, src_col.append, dst_col.append)
    codes = _OP_CODES
    try:
        for lineno, raw in enumerate(lines, lineno):
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                raise ParseError("line %d: not UTF-8: %s" % (lineno, exc), lineno) from None
            if not line or line.isspace():
                continue
            try:
                ts, op, host, src_obj, dst_obj = _fields(_loads(line, lineno), lineno)
            except RejectedEvent:
                rejected += 1
                continue
            key = _key(src_obj, host, lineno)
            src = table.get(key)
            if src is None:
                src = _intern(key, lineno, table, keys)
            key = _key(dst_obj, host, lineno)
            dst = table.get(key)
            if dst is None:
                dst = _intern(key, lineno, table, keys)
            h = hosts.get(host)
            if h is None:
                h = hosts[host] = len(hosts)
            put_ts(ts)
            put_op(codes[op])
            put_host(h)
            put_src(src)
            put_dst(dst)
    except ParseError as exc:
        error = exc
    return Chunk(ts_col, op_col, host_col, src_col, dst_col, list(hosts), keys, rejected,
                 error)


def _chunk_events(chunk: Chunk, ents: List[Entity]) -> Iterator[RawEvent]:
    """The RawEvents of a chunk.  `ents` is the reader's side of the
    intern table, entities by id, kept from chunk to chunk."""
    new = map(_build, chunk.keys)
    hosts = chunk.hosts
    for ts, op, h, s, d in zip(chunk.ts, chunk.op, chunk.host, chunk.src, chunk.dst):
        if s < 0:
            s = ~s
            if not s:
                ents.clear()
            ents.append(next(new))
        src_kind, src, src_id = ents[s]
        if d < 0:
            d = ~d
            if not d:
                ents.clear()
            ents.append(next(new))
        dst_kind, dst, dst_id = ents[d]
        yield RawEvent(ts, hosts[h], OPS[op], src_kind, src, dst_kind, dst, src_id, dst_id)


def _line_batches(fh) -> Iterator[Union[List[bytes], OSError]]:
    """The raw lines of the binary input `fh` in batches to decode:
    CHUNK_LINES or more while the input is ahead, fewer when a read finds
    it caught up.

    Lines end at "\\n", "\\r\\n" or "\\r", each read as "\\n", as in text
    mode.  An OSError from reading comes last, after the complete lines
    read before it.
    """
    lines: List[bytes] = []
    tail = b""
    try:
        while True:
            block = fh.read1(_READ_BYTES)
            data = tail + block
            if b"\r" in data:
                # Keep a final "\r" back while more may come: its "\n"
                # can be the first byte of the next block.
                cut = len(data) - (bool(block) and data.endswith(b"\r"))
                data = data[:cut].replace(b"\r\n", b"\n").replace(b"\r", b"\n") + data[cut:]
            got = data.splitlines(True)
            tail = got.pop() if got and block and not got[-1].endswith(b"\n") else b""
            lines += got
            if not block:
                if lines:
                    yield lines
                return
            if len(lines) >= CHUNK_LINES or len(block) < _READ_BYTES:
                yield lines
                lines = []
    except OSError as exc:
        if lines:
            yield lines
        yield exc


def _send(out, msg: tuple):
    body = marshal.dumps(msg)
    out.write(len(body).to_bytes(8, "little"))
    out.write(body)
    out.flush()


def _receive(pipe) -> Optional[tuple]:
    """The next message, or None at end of file."""
    head = pipe.read(8)
    body = pipe.read(int.from_bytes(head, "little")) if len(head) == 8 else b""
    return marshal.loads(body) if body else None


def _decode_to(path: str, out):
    """Open the input, close every other inherited descriptor, decode the
    input into chunk messages on `out`, then say how it ended."""
    table: Dict[tuple, int] = {}
    lineno = 1
    try:
        fh = sys.stdin.buffer if path == "-" else open(path, "rb")
    except OSError as exc:
        batches = [exc]
    else:
        _close_inherited(out, fh)
        batches = _line_batches(fh)
    for lines in batches:
        if isinstance(lines, OSError):
            _send(out, ("oserror", lines.args, lines.filename))
            return
        c = decode_chunk(lines, table, lineno)
        error = None if c.error is None else (str(c.error), c.error.lineno)
        _send(out, ("chunk", c.ts.tobytes(), c.op.tobytes(), c.host.tobytes(),
                    c.src.tobytes(), c.dst.tobytes(), c.hosts, c.keys, c.rejected, error))
        if error is not None:
            return
        lineno += len(lines)
    _send(out, ("end",))


def _close_inherited(out, fh):
    """Close every descriptor the decoder inherited but those of its pipe
    `out` and its input `fh` (an in-memory input has none).  The input is
    open first, so a path such as /dev/fd/N still names a live descriptor."""
    keep = [out.fileno()]
    try:
        keep.append(fh.fileno())
    except (OSError, ValueError):  # io.UnsupportedOperation
        pass
    keep.sort()
    for low, high in zip([-1] + keep, keep + [os.sysconf("SC_OPEN_MAX")]):
        if low + 1 < high:  # closerange(0, 0) closes every descriptor on Python 3.11
            os.closerange(low + 1, high)


def _worker(path: str, fd: int):
    """Body of the forked decoder.  It never returns and never runs the
    parent's exit handlers: it leaves through os._exit, so Ctrl-C or a
    reader that went away (EPIPE) ends it without a traceback."""
    code = 1
    try:
        with open(fd, "wb") as out:
            try:
                _decode_to(path, out)
                code = 0
            except Exception:
                import traceback

                _send(out, ("crash", traceback.format_exc()))
    finally:
        os._exit(code)


def read_events(path: str, counters: Optional[Dict[str, int]] = None) -> Iterator[RawEvent]:
    """Yield RawEvents from a JSONL file ('-' for stdin).

    A worker process forked on the first next() decodes the input (see
    the module docstring).  Entities are interned per stream, as in
    parse_event.  Lines with an unrecognized op are skipped and counted
    under 'rejected_ops'; a malformed line raises ParseError once every
    event before it has been yielded.  However the generator ends, the
    worker is killed if still running and reaped.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        _worker(path, w)
    try:
        os.close(w)
        ents: List[Entity] = []
        with open(r, "rb") as pipe:
            while True:
                msg = _receive(pipe)
                if msg is None:
                    raise OSError("decoder process %d ended before its input did" % pid)
                tag = msg[0]
                if tag == "end":
                    return
                if tag == "oserror":
                    exc = OSError(*msg[1])
                    exc.filename = msg[2]
                    raise exc
                if tag == "crash":
                    raise RuntimeError("decoder process failed:\n" + msg[1])
                _, ts, op, host, src, dst, hosts, keys, rejected, error = msg
                if rejected and counters is not None:
                    counters["rejected_ops"] = counters.get("rejected_ops", 0) + rejected
                yield from _chunk_events(Chunk(array("q", ts), array("i", op), array("i", host),
                                               array("i", src), array("i", dst), hosts, keys,
                                               rejected, None), ents)
                if error is not None:
                    raise ParseError(*error)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def window_stream(
    events: Iterable[RawEvent],
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    counters: Optional[Dict[str, int]] = None,
) -> Iterator[WindowBatch]:
    """Batch a ts-ordered event stream into half-open [k*delta, (k+1)*delta) windows.

    Window indexes are relative to the first event's timestamp.  Events
    up to one window late still land in their own batch, so a window is
    sealed only once events two windows ahead show up; events later than
    that are dropped and counted under 'dropped_late'.  Empty windows
    are skipped.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    delta_ms = int(round(window_seconds * 1000.0))
    start_ts: Optional[int] = None
    cur_index = 0
    prev_buf: List[RawEvent] = []  # window cur_index - 1, still open for late events
    cur_buf: List[RawEvent] = []

    def seal(index: int, buf: List[RawEvent]) -> WindowBatch:
        buf.sort(key=lambda e: e.ts)
        return WindowBatch(index, buf)

    for ev in events:
        if start_ts is None:
            start_ts = ev.ts
        idx = (ev.ts - start_ts) // delta_ms
        if idx == cur_index:
            cur_buf.append(ev)
        elif idx == cur_index - 1:
            prev_buf.append(ev)
        elif idx < cur_index - 1:
            if counters is not None:
                counters["dropped_late"] = counters.get("dropped_late", 0) + 1
        elif idx == cur_index + 1:
            if prev_buf:
                yield seal(cur_index - 1, prev_buf)
            prev_buf, cur_buf = cur_buf, [ev]
            cur_index = idx
        else:  # jumped two or more windows ahead
            if prev_buf:
                yield seal(cur_index - 1, prev_buf)
            if cur_buf:
                yield seal(cur_index, cur_buf)
            prev_buf, cur_buf = [], [ev]
            cur_index = idx
    if prev_buf:
        yield seal(cur_index - 1, prev_buf)
    if cur_buf:
        yield seal(cur_index, cur_buf)
