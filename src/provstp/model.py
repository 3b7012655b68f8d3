"""Graph model and node identity for audit-event provenance windows.

Nodes are processes, files, and socket 4-tuples.  Each entity gets a
deterministic md5 uuid so the same real-world object maps to the same
node across windows and across runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

PROCESS = "process"
FILE = "file"
IP = "ip"

FILE_OPS = ("read", "write", "create", "chmod", "rename")
PROCESS_OPS = ("fork", "clone", "execve", "pipe")
IP_OPS = ("sendto", "recvfrom", "recvmsg", "sendmsg")
ALL_OPS = frozenset(FILE_OPS + PROCESS_OPS + IP_OPS)

# (op, src kind, dst kind) for every legal event; direction does not matter
_LEGAL = frozenset(
    [(op, k1, k2) for op in FILE_OPS for k1, k2 in ((FILE, PROCESS), (PROCESS, FILE))]
    + [(op, PROCESS, PROCESS) for op in PROCESS_OPS]
    + [(op, k1, k2) for op in IP_OPS for k1, k2 in ((IP, PROCESS), (PROCESS, IP))])


@dataclass(slots=True)
class ProcessAttrs:
    pid: int
    tid: int  # falls back to pid when the source omits it
    uid: int
    name: str
    cmdline: str
    host: str = ""


@dataclass(slots=True)
class FileAttrs:
    path: str
    host: str = ""


@dataclass(slots=True)
class IpAttrs:
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int


@dataclass(slots=True)
class Edge:
    src: str  # NodeId digest
    dst: str
    op: str
    ts: int  # epoch milliseconds


def legal_op(op: str, src_kind: str, dst_kind: str) -> bool:
    """True when op is defined for this endpoint kind pair (either direction)."""
    return (op, src_kind, dst_kind) in _LEGAL


def entity_uuid(kind: str, attrs) -> str:
    """Deterministic 32-char hex NodeId for an entity.

    Process identity is pid + tid + cmdline concatenated without
    separators, so a reused pid with a different command line is a new
    node.  Host is deliberately not part of the digest; cross-host
    activity links through ip nodes instead.
    """
    if kind == PROCESS:
        text = str(attrs.pid) + str(attrs.tid) + attrs.cmdline
    elif kind == FILE:
        text = attrs.path
    elif kind == IP:
        text = "%s:%d:%s:%d" % (attrs.src_ip, attrs.src_port, attrs.dst_ip, attrs.dst_port)
    else:
        raise ValueError("unknown entity kind: %r" % (kind,))
    return hashlib.md5(text.encode("utf-8")).hexdigest()


@dataclass(slots=True)
class NodeRec:
    kind: str
    attrs: object
    in_degree: int = 0
    out_degree: int = 0


class WindowGraph:
    """One window of the event stream plus its undirected unit-weight view.

    The undirected adjacency collapses every (u, v) pair to a single edge
    of weight 1, and first_op keeps the op of the first event on each
    pair, keyed by the pair in sorted order.  The directed edge list is
    read only by tests and by perfbench's traced `model.edges` count.
    Built single-threaded, then treated as read-only.
    """

    def __init__(self, window_index: int = 0):
        self.window_index = window_index
        self.nodes: Dict[str, NodeRec] = {}
        self.edges: List[Edge] = []
        self.undirected: Dict[str, Set[str]] = {}
        self.first_op: Dict[Tuple[str, str], str] = {}
        self.rejected = 0  # events whose op was illegal for the endpoint kinds

    def _node(self, nid: str, kind: str, attrs) -> NodeRec:
        rec = self.nodes.get(nid)
        if rec is None:
            rec = self.nodes[nid] = NodeRec(kind, attrs)
            self.undirected[nid] = set()
        return rec

    def add_event(self, ev) -> bool:
        """Add one event, whose endpoints are the nodes ev.src_id and ev.dst_id."""
        if not legal_op(ev.op, ev.src_kind, ev.dst_kind):
            self.rejected += 1
            return False
        src, dst = ev.src_id, ev.dst_id
        self._node(src, ev.src_kind, ev.src).out_degree += 1
        self._node(dst, ev.dst_kind, ev.dst).in_degree += 1
        self.edges.append(Edge(src, dst, ev.op, ev.ts))
        adj = self.undirected[src]
        if dst not in adj:
            adj.add(dst)
            self.undirected[dst].add(src)
            self.first_op[(src, dst) if src < dst else (dst, src)] = ev.op
        return True


def build_window_graph(events: Iterable, window_index: int = 0) -> WindowGraph:
    """Fold one window's events into a WindowGraph.

    Events whose op is illegal for their endpoint kinds are dropped and
    counted in graph.rejected; everything else merges by NodeId.
    """
    g = WindowGraph(window_index)
    for ev in events:
        g.add_event(ev)
    return g
