"""JSONL audit-event parsing and event-time windowing.

`read_events` reads UTF-8 text in the caller's process, with universal
newlines, into events, `RawEvent(ts, edge)`; a line holding a byte that
is not UTF-8 is a ParseError.  Most audit lines repeat an earlier line
in all but their `ts`, so the reader keeps a memo from a line's text
before its last `"ts": `, its prefix, to the `model.Edge` decoding the
line gave, or "rejected op".  A line whose prefix is in the memo is
decoded by reading its `ts` alone, and its event holds that very Edge.

The memo cannot change a result.  A prefix is a key only when the rest
of the line is a JSON integer of at most 18 ASCII digits, a `}` and
JSON's own whitespace, and the prefix does not end in a backslash, which
would put the quote of `"ts"` inside a key string.  On a line that
decodes cleanly, that final `}` then closes the top-level object, so
`ts` is its last member, and JSON keeps the last of duplicate keys: the
prefix fixes every field but `ts`.  Such a `ts` is never negative or out
of range, and the rest of the line is ASCII, so a hit is never an error;
a hit on a rejected op counts it as a parse would.  A miss goes through
`parse_event`, and only a line that decoded cleanly or was rejected
enters the memo; an error never does.  The memo's Edges hold Entities of
the stream's intern table, and both are cleared when the table fills,
so a hit yields the very Entity objects a parse of the line would.
"""

from __future__ import annotations

import io
import json
import re
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .model import (ALL_OPS, FILE, IP, PROCESS, Edge, Entity, FileAttrs, IpAttrs,
                    ProcessAttrs, entity_uuid)

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
    """One event, an Edge at ts.  Its host lives on in the attrs of its
    process and file endpoints.  A class, not a `(ts, edge)` tuple: CPython
    takes 2-tuples from a free list the collector does not count, and with
    them young collections move out of the reader into window graph builds."""

    ts: int  # epoch milliseconds
    edge: Edge


@dataclass(slots=True)
class WindowBatch:
    window_index: int
    events: List[RawEvent]


# Entities held in one stream's intern table before it is cleared, which
# bounds the table to some 20 MB; its memo holds as many prefixes at most.
INTERN_LIMIT = 1 << 15

_TS_LIMIT = 1 << 63  # a ts must fit an int64
# The end of a line whose prefix is a memo key: its last `"ts": `, a ts
# that JSON reads as an int in [0, 10**18), below _TS_LIMIT, the `}` and
# only JSON's whitespace.  Python's \s would also take \f and \v, which
# json.loads rejects, and \d digits that are not ASCII, which int() reads.
_TS_KEY = '"ts": '
_TS_TAIL = re.compile(r'"ts": (0|[1-9][0-9]{0,17})\}[ \t\r\n]*\Z')
_REJECTED = ("rejected op",)  # memo value of a line whose op is rejected
# JSON's \ud800 escape makes a string that no UTF-8 encoder takes; NodeIds
# and alert files need one that it does.
_SURROGATE = re.compile(r"[\ud800-\udfff]")

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
    so the result or the error is the same.  A line nested past the
    interpreter's recursion limit is a ParseError too."""
    try:
        try:
            obj, end = _scan_json(line, 0)
            if end == len(line) or line[end:] == "\n":
                return obj
        except (StopIteration, ValueError):
            pass
        return json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ParseError("line %d: invalid JSON: %s" % (lineno, exc), lineno) from None
    except RecursionError:
        raise ParseError("line %d: invalid JSON: nested too deeply" % lineno, lineno) from None


def _as_int(value, name: str, lineno: int) -> int:
    if type(value) is not bool:  # JSON's true and false are not integers
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParseError("line %d: field %r is not an integer: %r" % (lineno, name, value), lineno)


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


def _new_entity(key: tuple, lineno: int) -> Entity:
    """The entity of an intern key about to enter a table, its kind, attrs
    and NodeId, once its values are checked."""
    kind = key[0]
    if kind == PROCESS:
        _, host, pid, tid, uid, name, cmdline = key
        text = host + name + cmdline
        attrs = ProcessAttrs(pid=pid, tid=tid, uid=uid, name=name, cmdline=cmdline, host=host)
    elif kind == FILE:
        if not key[2]:
            raise ParseError("line %d: empty file path" % lineno, lineno)
        text = key[1] + key[2]
        attrs = FileAttrs(path=key[2], host=key[1])
    else:
        for port in (key[2], key[4]):
            if not 0 <= port <= 65535:
                raise ParseError("line %d: port %d out of range" % (lineno, port), lineno)
        text = key[1] + key[3]
        attrs = IpAttrs(src_ip=key[1], src_port=key[2], dst_ip=key[3], dst_port=key[4])
    if not text.isascii() and _SURROGATE.search(text):
        i = next(i for i, v in enumerate(key) if type(v) is str and _SURROGATE.search(v))
        raise ParseError("line %d: field %r holds a lone surrogate: %r"
                         % (lineno, _KEY_FIELDS[kind][i][0], key[i]), lineno)
    return Entity(kind, attrs, entity_uuid(kind, attrs))


def _entity(obj, host: str, lineno: int, table: Dict[tuple, Entity]) -> Entity:
    """The interned entity that obj names.  A new entity's values are
    checked once, when it enters the table."""
    key = _key(obj, host, lineno)
    ent = table.get(key)
    if ent is None:
        ent = table[key] = _new_entity(key, lineno)
    return ent


def parse_event(line: str, lineno: int = 0,
                table: Optional[Dict[tuple, Entity]] = None) -> RawEvent:
    """Parse one JSONL line into a RawEvent with a new Edge between its Entities.

    `table` interns entities across the lines of one stream, so events
    that name the same entity share its Entity object; without it the
    entities are built afresh.  The caller bounds the table.  Raises
    ParseError for malformed input and RejectedEvent for an op outside
    the recognized set.  Extra fields are ignored.
    """
    ts, op, host, src_obj, dst_obj = _fields(_loads(line, lineno), lineno)
    if table is None:
        table = {}
    return RawEvent(ts, Edge(op, _entity(src_obj, host, lineno, table),
                             _entity(dst_obj, host, lineno, table)))


def read_events(path: str, counters: Optional[Dict[str, int]] = None) -> Iterator[RawEvent]:
    """Yield RawEvents from a JSONL file ('-' for stdin), read as UTF-8
    text with universal newlines.

    Entities are interned per stream, as in parse_event, and a line that
    repeats an earlier one in all but its `ts` is decoded from the memo.
    Lines with an unrecognized op are skipped and counted under
    'rejected_ops', and blank or whitespace-only lines under
    'blank_lines'; a malformed line, one with a byte that is not UTF-8
    included, raises ParseError, and a failed read its OSError, once
    every event before it has been yielded.  However the generator ends,
    it closes the file it opened; stdin stays open.
    """
    table: Dict[tuple, Entity] = {}
    memo: Dict[str, object] = {}  # prefix -> Edge or _REJECTED
    match, memo_get = _TS_TAIL.match, memo.get
    stdin = path == "-"
    fh = (io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="surrogateescape")
          if stdin else open(path, encoding="utf-8", errors="surrogateescape"))
    try:
        for lineno, line in enumerate(fh, 1):
            at = line.rfind(_TS_KEY)
            tail = match(line, at) if at > 0 and line[at - 1] != "\\" else None
            prefix = line[:at] if tail else None
            got = memo_get(prefix)
            if got is not None:
                ts = int(tail[1])
            else:
                if line.isspace():  # never a memo key
                    if counters is not None:
                        counters["blank_lines"] = counters.get("blank_lines", 0) + 1
                    continue
                if not line.isascii():  # an undecodable byte came in as a lone surrogate
                    try:
                        line.encode(errors="surrogateescape").decode()
                    except UnicodeDecodeError as exc:
                        raise ParseError("line %d: not UTF-8: %s" % (lineno, exc),
                                         lineno) from None
                try:
                    ev = parse_event(line, lineno, table)
                    ts, got = ev.ts, ev.edge
                except RejectedEvent:
                    got = _REJECTED
                # The table grows only on a line that names an entity new
                # to it, which no memo entry holds, so it clears on the
                # same lines warm or cold; the line that fills it stays
                # out of the emptied memo, as its entities are gone.
                if len(table) >= INTERN_LIMIT:
                    table.clear()
                    memo.clear()
                elif prefix is not None:
                    if len(memo) >= INTERN_LIMIT:
                        memo.clear()
                    memo[prefix] = got
            if got is not _REJECTED:
                yield RawEvent(ts, got)
            elif counters is not None:
                counters["rejected_ops"] = counters.get("rejected_ops", 0) + 1
    finally:
        fh.detach() if stdin else fh.close()


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
    # a window rounds to whole milliseconds; NaN fails the comparison too
    if not 0.5 < window_seconds * 1000.0 < float("inf"):
        raise ValueError("window_seconds must be at least 1 ms, got %r" % (window_seconds,))
    delta_ms = int(round(window_seconds * 1000.0))
    start_ts: Optional[int] = None
    cur_index = 0
    prev_buf: List[RawEvent] = []  # window cur_index - 1, still open for late events
    cur_buf: List[RawEvent] = []
    by_ts = attrgetter("ts")
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
        else:  # a forward jump seals window cur_index - 1, and window
            # cur_index too when the jump is two or more windows
            if prev_buf:
                prev_buf.sort(key=by_ts)
                yield WindowBatch(cur_index - 1, prev_buf)
            prev_buf = cur_buf
            if idx > cur_index + 1:  # cur_buf holds the event that opened it
                cur_buf.sort(key=by_ts)
                yield WindowBatch(cur_index, cur_buf)
                prev_buf = []
            cur_buf, cur_index = [ev], idx
    for index, buf in ((cur_index - 1, prev_buf), (cur_index, cur_buf)):
        if buf:
            buf.sort(key=by_ts)
            yield WindowBatch(index, buf)
