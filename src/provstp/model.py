"""Graph model and node identity for audit-event provenance windows.

Nodes are processes, files, and socket 4-tuples.  Each entity gets a
deterministic md5 uuid so the same real-world object maps to the same
node across windows and across runs.  An event is a `ts` and an `Edge`,
an op between two interned Entities; a window graph folds each distinct
Edge once, weighted by its events.  An Edge's legality and sorted NodeId
pair depend on its op and endpoints alone, so the reader decides them
once per distinct line, when it builds the Edge, for every window.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from collections import Counter
from operator import attrgetter
from typing import Dict, Iterable, NamedTuple, Set, Tuple

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


class Entity(NamedTuple):
    """An interned event endpoint: its kind, attrs object and NodeId."""

    kind: str
    attrs: object
    id: str


class Edge:
    """An op from Entity src to dst, hashed by identity: counting its events
    runs no Python.  Its legality and sorted NodeId pair are set once, here."""

    __slots__ = ("op", "src", "dst", "legal", "pair")

    def __init__(self, op: str, src: Entity, dst: Entity):
        self.op, self.src, self.dst = op, src, dst
        self.legal = legal_op(op, src.kind, dst.kind)
        self.pair = (src.id, dst.id) if src.id < dst.id else (dst.id, src.id)


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

    def doc(self) -> dict:
        """The kind and attrs fields of this node, as a hopset member's
        attrs.  Attrs are slotted dataclasses of str and int fields, so the
        values need no deep copy."""
        doc = {"kind": self.kind}
        for name in self.attrs.__slots__:
            doc[name] = getattr(self.attrs, name)
        return doc


class WindowGraph:
    """One window of the event stream plus its undirected unit-weight view.

    The undirected adjacency collapses every (u, v) pair to a single edge
    of weight 1, and first_op keeps the op of the first event on each
    pair, keyed by the pair in sorted order.  A hopset built on the window
    takes each edge's op from first_op and each member's attrs from
    NodeRec.doc().  `edges`, each legal Edge's event count, is read only
    by tests and by perfbench's traced `model.edges` count.  Built
    single-threaded, then treated as read-only.
    """

    def __init__(self):
        self.nodes: Dict[str, NodeRec] = {}
        self.edges: Dict[Edge, int] = {}
        self.undirected: Dict[str, Set[str]] = {}
        self.first_op: Dict[Tuple[str, str], str] = {}
        self.rejected = 0  # events whose op was illegal for the endpoint kinds


def build_window_graph(events: Iterable) -> WindowGraph:
    """Fold one window's events into a WindowGraph.

    Events whose op is illegal for their endpoint kinds are dropped and
    counted in graph.rejected; everything else merges by NodeId.  Folding
    each distinct Edge once, in the order of its first event, gives what
    folding every event in order would.
    """
    g = WindowGraph()
    nodes, undirected = g.nodes, g.undirected
    for edge, count in Counter(map(attrgetter("edge"), events)).items():
        if not edge.legal:
            g.rejected += count
            continue
        g.edges[edge] = count
        src, dst = edge.src, edge.dst
        src_rec = nodes.get(src.id)
        if src_rec is None:
            src_rec = nodes[src.id] = NodeRec(src.kind, src.attrs)
            undirected[src.id] = set()
        dst_rec = nodes.get(dst.id)
        if dst_rec is None:
            dst_rec = nodes[dst.id] = NodeRec(dst.kind, dst.attrs)
            undirected[dst.id] = set()
        src_rec.out_degree += count
        dst_rec.in_degree += count
        adj = undirected[src.id]
        if dst.id not in adj:
            adj.add(dst.id)
            undirected[dst.id].add(src.id)
            g.first_op[edge.pair] = edge.op
    return g
