"""JSONL audit-event parsing and event-time windowing.

`read_events` decodes the stream in two decoder processes, so that JSON
decoding, most of the cost of ingest, runs beside the caller, which
builds and scores windows.  On a 2-core machine the three share the two
cores.

The reader forks both decoders, so it alone kills and reaps them.
Decoder A is the only process that reads the input (stdin only ever
there).  It reads it as bytes, splits it into lines as text mode would,
and cuts the lines into batches of CHUNK_LINES (fewer when a read finds
the input caught up).  It decodes the even batches itself and forwards
the odd ones, with their first line number, to decoder B over a pipe
between the two.  Both hand batches to `decode_chunk`, which validates,
interns and rejects exactly as `parse_event` does.  Neither builds an
attrs object, a RawEvent or a numpy array, and each closes every
inherited descriptor but its own pipes (and, in A, the input's).  The
reader takes chunk i from decoder i mod 2.  Each pipe is grown to 1 MB
where the kernel allows, so that a decoder with work to do seldom waits
for its reader.

Wire format: one message per chunk over an `os.pipe`, an 8-byte length
and a `marshal`led tuple.  A chunk holds integer columns, `ts` (int64)
and op code, src id and dst id (int32), plus the intern keys of every
entity it names (in order of their chunk-local ids) and its rejected-op
count.  A chunk that stops at a malformed line carries that line's
ParseError, which the reader raises once it has yielded every event
before it.  The message after the last chunk, in the next slot, says how
the input ended: its end, an OSError, or a crash.

The reader maps each chunk's keys through its own intern table, bounded
by INTERN_LIMIT, and builds each entity's Entity (kind, attrs object and
NodeId) once.  It yields events that hold the interned Entities, the
same RawEvents that in-process parsing gives.  Pickling those objects,
or WindowBatches, would cost more than parsing them; the columns cost
the reader about half a microsecond per event, and mapping the keys 6 ms
a pass (about 90 keys a chunk, 1 650 distinct ones).
"""

from __future__ import annotations

import fcntl
import itertools
import json
import marshal
import os
import signal
import sys
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .model import (ALL_OPS, FILE, IP, PROCESS, Entity, FileAttrs, IpAttrs, ProcessAttrs,
                    entity_uuid)

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
    """One event between two interned Entities.  Its host lives on in the
    attrs of its process and file endpoints."""

    ts: int  # epoch milliseconds
    op: str
    src: Entity
    dst: Entity


@dataclass(slots=True)
class WindowBatch:
    window_index: int
    events: List[RawEvent]


# Entities held in one stream's intern table before it is cleared, which
# bounds the table to some 20 MB.
INTERN_LIMIT = 1 << 15

# Lines a decoder decodes into one chunk when the input is ahead of it; a
# shorter chunk goes out when a read finds no more input waiting.
CHUNK_LINES = 2048
_READ_BYTES = 1 << 16
# Capacity asked for each decoder pipe.  A batch A forwards to B is some
# 500 KB and a decoded chunk some 50 KB (on 200-byte lines), so with the
# default 64 KB a decoder would wait for its reader at every message.
_PIPE_BYTES = 1 << 20

OPS = tuple(sorted(ALL_OPS))  # op code -> op
_OP_CODES = {op: code for code, op in enumerate(OPS)}
_TS_LIMIT = 1 << 63  # ts travels as int64

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
    return Entity(kind, attrs, entity_uuid(kind, attrs))


def _intern(key: tuple, table: Dict[tuple, Entity]) -> Entity:
    """Enter the entity of a checked key into an intern table, which is
    cleared first if it holds INTERN_LIMIT entities."""
    if len(table) >= INTERN_LIMIT:
        table.clear()
    ent = table[key] = _build(key)
    return ent


def _entity(obj, host: str, lineno: int, table: Dict[tuple, Entity]) -> Entity:
    """The interned entity that obj names.  A new entity's values are
    checked once, when it enters the table."""
    key = _key(obj, host, lineno)
    ent = table.get(key)
    if ent is None:
        _check_new(key, lineno)
        ent = _intern(key, table)
    return ent


def parse_event(line: str, lineno: int = 0,
                table: Optional[Dict[tuple, Entity]] = None) -> RawEvent:
    """Parse one JSONL line into a RawEvent with its endpoint Entities.

    `table` interns entities across the lines of one stream, so events
    that name the same entity share its Entity object; without
    it the entities are built afresh.  Raises ParseError for malformed
    input and RejectedEvent for an op outside the recognized set.  Extra
    fields are ignored.
    """
    ts, op, host, src_obj, dst_obj = _fields(_loads(line, lineno), lineno)
    if table is None:
        table = {}
    return RawEvent(ts, op, _entity(src_obj, host, lineno, table),
                    _entity(dst_obj, host, lineno, table))


@dataclass(slots=True)
class Chunk:
    """Decoded lines as integer columns, one row per accepted event.

    `src` and `dst` hold chunk-local entity ids, and `keys` lists the
    intern key of every entity the chunk names, in id order.  `op`
    indexes OPS.  `error` is the ParseError of the malformed line that
    ended the chunk, if one did.
    """

    ts: array
    op: array
    src: array
    dst: array
    keys: List[tuple]
    rejected: int
    error: Optional[ParseError]


def _chunk_id(key: tuple, lineno: int, table: Dict[tuple, int], keys: List[tuple]) -> int:
    """Check a key new to a chunk and enter it into the chunk's table;
    returns its chunk-local id."""
    _check_new(key, lineno)
    i = table[key] = len(keys)
    keys.append(key)
    return i


def decode_chunk(lines: Sequence[bytes], lineno: int = 1) -> Chunk:
    """Decode raw JSONL lines, the first of which is line `lineno`, into a Chunk.

    Validation, rejected ops and ParseError messages are those of
    parse_event; a line that is not UTF-8 is malformed too.  Entities are
    interned in a table of the chunk's own, and a key is checked when it
    enters that table: the check depends on the key alone, so it fails on
    the same line as in a table that spans the stream.  Decoding stops at
    the first malformed line.
    """
    ts_col, op_col, src_col, dst_col = array("q"), array("i"), array("i"), array("i")
    table: Dict[tuple, int] = {}
    keys: List[tuple] = []
    rejected = 0
    error = None
    put_ts, put_op, put_src, put_dst = (c.append for c in (ts_col, op_col, src_col, dst_col))
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
                src = _chunk_id(key, lineno, table, keys)
            key = _key(dst_obj, host, lineno)
            dst = table.get(key)
            if dst is None:
                dst = _chunk_id(key, lineno, table, keys)
            put_ts(ts)
            put_op(codes[op])
            put_src(src)
            put_dst(dst)
    except ParseError as exc:
        error = exc
    return Chunk(ts_col, op_col, src_col, dst_col, keys, rejected, error)


def _chunk_events(chunk: Chunk, table: Dict[tuple, Entity]) -> Iterator[RawEvent]:
    """The RawEvents of a chunk.  `table` is the reader's intern table,
    kept from chunk to chunk, through which the chunk's keys are mapped."""
    ents = [table.get(key) or _intern(key, table) for key in chunk.keys]
    for ts, op, s, d in zip(chunk.ts, chunk.op, chunk.src, chunk.dst):
        yield RawEvent(ts, OPS[op], ents[s], ents[d])


def _line_batches(fh) -> Iterator[Union[List[bytes], OSError]]:
    """The raw lines of the binary input `fh` in batches to decode:
    CHUNK_LINES at a time while the input is ahead, the rest when a read
    finds it caught up.

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
            while len(lines) >= CHUNK_LINES:
                yield lines[:CHUNK_LINES]
                del lines[:CHUNK_LINES]
            if lines and len(block) < _READ_BYTES:
                yield lines
                lines = []
            if not block:
                return
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
    """The next message, or None at end of file or where the input ends
    inside a message, as when its writer died while sending it."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    body = pipe.read(size) if len(head) == 8 else b""
    return marshal.loads(body) if body and len(body) == size else None


def _decode_onto(out, lines: List[bytes], lineno: int) -> bool:
    """Decode lines into one chunk message on `out`; True if a malformed
    line ended the chunk."""
    c = decode_chunk(lines, lineno)
    error = None if c.error is None else (str(c.error), c.error.lineno)
    _send(out, ("chunk", c.ts.tobytes(), c.op.tobytes(), c.src.tobytes(), c.dst.tobytes(),
                c.keys, c.rejected, error))
    return error is not None


def _grow_pipe(fd: int):
    """Ask for a pipe of _PIPE_BYTES, so that a decoder with work to do
    seldom waits for its reader; a pipe keeps its size if that fails."""
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except OSError:
        pass


def _close_inherited(*keep):
    """Close every descriptor this process inherited but those of `keep`:
    descriptors, and file objects that may have none (an in-memory input)."""
    fds = []
    for f in keep:
        try:
            fds.append(f if isinstance(f, int) else f.fileno())
        except (OSError, ValueError):  # io.UnsupportedOperation
            pass
    fds.sort()
    for low, high in zip([-1] + fds, fds + [os.sysconf("SC_OPEN_MAX")]):
        if low + 1 < high:  # closerange(0, 0) closes every descriptor on Python 3.11
            os.closerange(low + 1, high)


def _split_to(path: str, out, to_b):
    """Decoder A's work: read the input, decode the even batches onto
    `out` and forward the odd ones to decoder B over `to_b`.  The message
    that says how the input ended takes the next slot, on `out` or
    through B.  The input is open before the other inherited descriptors
    are closed, so a path such as /dev/fd/N still names a live one."""
    slot, lineno = 0, 1
    try:
        try:
            fh = sys.stdin.buffer if path == "-" else open(path, "rb")
        except OSError as exc:
            _close_inherited(out, to_b)
            batches: Iterable = [exc]
        else:
            _close_inherited(out, to_b, fh)
            batches = _line_batches(fh)
        for lines in batches:
            if isinstance(lines, OSError):
                last = ("oserror", lines.args, lines.filename)
                break
            if slot & 1:
                _send(to_b, ("lines", lineno, lines))
            elif _decode_onto(out, lines, lineno):
                return
            slot += 1
            lineno += len(lines)
        else:
            last = ("end",)
    except Exception:
        import traceback

        last = ("crash", traceback.format_exc())
    _send((out, to_b)[slot & 1], last)


def _decode_from(src, out):
    """Decoder B's work: decode the batches A forwards, and relay the
    message that ends the input when it falls in B's slot."""
    try:
        while True:
            msg = _receive(src)
            if msg is None:  # A stopped at a malformed line, or died
                return
            if msg[0] != "lines":
                _send(out, msg)
                return
            if _decode_onto(out, msg[2], msg[1]):
                return
    except Exception:
        import traceback

        _send(out, ("crash", traceback.format_exc()))


def _decoder(body: Callable[..., None], *args) -> int:
    """Fork a decoder process that runs body(*args); returns its pid.  The
    decoder never returns or runs the parent's exit handlers: it leaves
    through os._exit, so Ctrl-C or a reader that went away (EPIPE) ends it
    without a traceback."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            body(*args)
            code = 0
        finally:
            os._exit(code)
    return pid


def _decoder_a(path: str, out_fd: int, to_b_fd: int):
    with open(out_fd, "wb") as out, open(to_b_fd, "wb") as to_b:
        _split_to(path, out, to_b)


def _decoder_b(src_fd: int, out_fd: int):
    _close_inherited(src_fd, out_fd)
    with open(out_fd, "wb") as out, open(src_fd, "rb") as src:
        _decode_from(src, out)


def read_events(path: str, counters: Optional[Dict[str, int]] = None) -> Iterator[RawEvent]:
    """Yield RawEvents from a JSONL file ('-' for stdin).

    Two decoder processes, forked on the first next(), decode the input
    (see the module docstring).  Entities are interned per stream, as in
    parse_event.  Lines with an unrecognized op are skipped and counted
    under 'rejected_ops'; a malformed line raises ParseError once every
    event before it has been yielded.  However the generator ends, and
    also when making a pipe or forking fails, every pipe descriptor it
    made is closed and every decoder it forked is killed and reaped.
    """
    ends: List[int] = []  # pipe descriptors this process holds
    pids: List[int] = []
    try:
        for _ in range(3):
            ends += os.pipe()
        ra, wa, rb, wb, r_ab, w_ab = ends  # A to the reader, B to the reader, A to B
        for fd in (wa, wb, w_ab):
            _grow_pipe(fd)
        pids.append(_decoder(_decoder_b, r_ab, wb))
        pids.append(_decoder(_decoder_a, path, wa, w_ab))
        for fd in (wa, wb, r_ab, w_ab):
            ends.remove(fd)
            os.close(fd)
        table: Dict[tuple, Entity] = {}
        with open(ra, "rb", closefd=False) as a, open(rb, "rb", closefd=False) as b:
            for pipe in itertools.cycle((a, b)):
                msg = _receive(pipe)
                if msg is None:
                    raise OSError("a decoder process ended before its input did")
                tag = msg[0]
                if tag == "end":
                    return
                if tag == "oserror":
                    exc = OSError(*msg[1])
                    exc.filename = msg[2]
                    raise exc
                if tag == "crash":
                    raise RuntimeError("decoder process failed:\n" + msg[1])
                _, ts, op, src, dst, keys, rejected, error = msg
                if rejected and counters is not None:
                    counters["rejected_ops"] = counters.get("rejected_ops", 0) + rejected
                yield from _chunk_events(Chunk(array("q", ts), array("i", op), array("i", src),
                                               array("i", dst), keys, rejected, None), table)
                if error is not None:
                    raise ParseError(*error)
    finally:
        for fd in ends:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
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

    The first event opens window 0, so an event up to one window earlier
    than the first is one window late: it lands in window -1, as long as
    no event of window 1 or later has come.  An event earlier still is
    always more than one window late, and is dropped.
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
