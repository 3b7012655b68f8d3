"""Shared synthetic stream and event builders for the tests."""

import json

from provstp.ingest import RawEvent
from provstp.model import entity_uuid


def event(op, src_kind, src, dst_kind, dst, ts=0):
    """A RawEvent on host h1 with its NodeIds set, as the parser sets them."""
    return RawEvent(ts=ts, host="h1", op=op, src_kind=src_kind, src=src, dst_kind=dst_kind,
                    dst=dst, src_id=entity_uuid(src_kind, src), dst_id=entity_uuid(dst_kind, dst))


def write_chain_stream(path, windows, procs, private_files=2, window_ms=10_000):
    """Write a JSONL stream whose per-window graph is one large bounded-degree
    component: `procs` worker processes linked in a chain through handoff
    files, each also reading a few private files.

    Events per window = procs * (private_files + 2) - 1.  The shape keeps
    per-terminal bounded searches cheap while full-graph algorithms must
    touch every node, which is what the throughput ablation measures.
    """
    total = 0
    with open(path, "w", encoding="utf-8") as fh:
        for w in range(windows):
            events = []
            for i in range(procs):
                proc = {"kind": "process", "pid": 1000 + i, "uid": 33,
                        "name": "worker-%d" % i,
                        "cmdline": "worker-%d --slot %d --run %d" % (i, i, w)}
                if i > 0:
                    events.append({"op": "read", "src": proc, "dst": {
                        "kind": "file", "path": "/var/spool/chain/%d/h-%d" % (w, i - 1)}})
                events.append({"op": "write", "src": proc, "dst": {
                    "kind": "file", "path": "/var/spool/chain/%d/h-%d" % (w, i)}})
                for j in range(private_files):
                    events.append({"op": "read", "src": proc, "dst": {
                        "kind": "file", "path": "/var/spool/work/%d/p-%d-%d" % (w, i, j)}})
            step = window_ms // len(events)
            for k, ev in enumerate(events):
                ev.update(ts=w * window_ms + k * step, host="host0")
                fh.write(json.dumps(ev, sort_keys=True) + "\n")
            total += len(events)
    return total
