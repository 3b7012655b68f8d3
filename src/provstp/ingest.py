"""JSONL audit-event parsing and event-time windowing."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
    src_id: str = ""  # NodeId of src; empty means compute it from src
    dst_id: str = ""


@dataclass(slots=True)
class WindowBatch:
    window_index: int
    events: List[RawEvent]


# Entities held in one stream's intern table before it is cleared, which
# bounds the table to some 20 MB.
INTERN_LIMIT = 1 << 15

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


def _new_entity(key: tuple, lineno: int) -> Entity:
    kind = key[0]
    if kind == PROCESS:
        _, host, pid, tid, uid, name, cmdline = key
        attrs = ProcessAttrs(pid=pid, tid=tid, uid=uid, name=name, cmdline=cmdline, host=host)
    elif kind == FILE:
        if not key[2]:
            raise ParseError("line %d: empty file path" % lineno, lineno)
        attrs = FileAttrs(path=key[2], host=key[1])
    else:
        for port in (key[2], key[4]):
            if not 0 <= port <= 65535:
                raise ParseError("line %d: port %d out of range" % (lineno, port), lineno)
        attrs = IpAttrs(src_ip=key[1], src_port=key[2], dst_ip=key[3], dst_port=key[4])
    return kind, attrs, entity_uuid(kind, attrs)


def _entity(obj, host: str, lineno: int, table: Dict[tuple, Entity]) -> Entity:
    """The interned entity that obj names.  Its key is validated and
    type-normalised before the lookup; a new entity's values are checked
    once, when it enters the table."""
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
    if not typed:
        key = _normalised(key, lineno)
    ent = table.get(key)
    if ent is None:
        if len(table) >= INTERN_LIMIT:
            table.clear()
        ent = table[key] = _new_entity(key, lineno)
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
    obj = _loads(line, lineno)
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
    if type(host) is not str:
        raise ParseError("line %d: field 'host' is not a string: %r" % (lineno, host), lineno)
    if table is None:
        table = {}
    src_kind, src, src_id = _entity(src_obj, host, lineno, table)
    dst_kind, dst, dst_id = _entity(dst_obj, host, lineno, table)
    return RawEvent(ts, host, op, src_kind, src, dst_kind, dst, src_id, dst_id)


def read_events(path: str, counters: Optional[Dict[str, int]] = None) -> Iterator[RawEvent]:
    """Yield RawEvents from a JSONL file ('-' for stdin).

    Entities are interned per stream (see parse_event).  Lines with an
    unrecognized op are skipped and counted under 'rejected_ops';
    malformed lines raise ParseError.
    """
    table: Dict[tuple, Entity] = {}
    fh = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    try:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield parse_event(line, lineno, table)
            except RejectedEvent:
                if counters is not None:
                    counters["rejected_ops"] = counters.get("rejected_ops", 0) + 1
    finally:
        if fh is not sys.stdin:
            fh.close()


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
