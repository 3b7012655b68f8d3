"""Windowed hopset cache with energy decay and a file-backed eviction store.

Resident hopsets age by one per window; energy epsilon^age * has decides
who gets evicted to disk when the member budget is exceeded.  Evicted
hopsets come back through lookup() so long-running campaigns can be
stitched together across large time gaps.

`hopset_to_doc` is the one JSON form of a hopset: each member's record,
attrs included, and each edge's op.  A store record is that document plus
the hopset's age; an alert (see `detect`) is it plus the alert's id,
window index and Grubbs statistic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .stp import Hopset, MemberRec, hopset_id, merge_hopsets

DEFAULT_CAPACITY = 10_000
DEFAULT_EPSILON = 0.8


def energy(h: Hopset, epsilon: float) -> float:
    return (epsilon ** h.age) * h.has


def hopset_to_doc(h: Hopset) -> dict:
    """{terminals, members: {n: {as, hops, iv, attrs}}, edges: [[u, v, op]],
    has}, sorted, with "" for an unknown op."""
    return {
        "terminals": sorted(h.terminals),
        "members": {n: {"as": rec.as_score, "hops": rec.hops, "iv": rec.iv,
                        "attrs": rec.attrs}
                    for n, rec in sorted(h.members.items())},
        "edges": [[u, v, op] for (u, v), op in sorted(h.edges.items())],
        "has": h.has,
    }


def hopset_from_doc(doc: dict) -> Hopset:
    """The hopset of a store record: `hopset_to_doc` plus age; other keys
    are ignored."""
    return Hopset(
        terminals=set(doc["terminals"]),
        members={n: MemberRec(rec["as"], rec["hops"], rec["iv"], rec["attrs"])
                 for n, rec in doc["members"].items()},
        edges={(u, v): op for u, v, op in doc["edges"]},
        has=doc["has"],
        age=doc["age"],
    )


class EvictionStore:
    """Directory of hopset JSON records, one per stored hopset.  A record
    is compact ASCII JSON from the C encoder, its keys in the order
    `hopset_to_doc` builds them, so its bytes are still a function of the
    hopset; records in the older indented, key-sorted form load as well.
    A record is written to a temporary file and renamed into hopsets/, so
    a crash never leaves a torn one."""

    def __init__(self, root: str):
        self.root = root
        self.hopset_dir = os.path.join(root, "hopsets")
        self.tmp_path = os.path.join(root, "record.tmp")
        os.makedirs(self.hopset_dir, exist_ok=True)

    def _record_path(self, hid: str) -> str:
        return os.path.join(self.hopset_dir, hid + ".json")

    def ids(self) -> List[str]:
        return sorted(name[:-5] for name in os.listdir(self.hopset_dir)
                      if name.endswith(".json"))

    def store(self, h: Hopset) -> str:
        hid = hopset_id(h)
        doc = dict(hopset_to_doc(h), age=h.age)
        with open(self.tmp_path, "wb") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")).encode("ascii"))
        os.replace(self.tmp_path, self._record_path(hid))
        return hid

    def load(self, hid: str) -> Hopset:
        path = self._record_path(hid)
        try:
            with open(path, "rb") as fh:
                return hopset_from_doc(json.loads(fh.read()))
        except (ValueError, KeyError, TypeError) as exc:
            raise IOError("corrupted store record %s: %s" % (path, exc)) from exc

    def remove(self, hid: str):
        try:
            os.remove(self._record_path(hid))
        except FileNotFoundError:
            pass


@dataclass
class CacheState:
    """Resident hopsets plus one index from each node to the id of the
    hopset that holds it, resident or stored."""

    store: EvictionStore
    capacity: int = DEFAULT_CAPACITY
    epsilon: float = DEFAULT_EPSILON
    entries: Dict[str, Hopset] = field(default_factory=dict)
    node_index: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for hid in self.store.ids():
            for n in self.store.load(hid).members:
                self.node_index[n] = hid

    def member_total(self) -> int:
        return sum(len(h.members) for h in self.entries.values())


def _drop_entry(c: CacheState, hid: str) -> Hopset:
    h = c.entries.pop(hid)
    for n in h.members:
        if c.node_index.get(n) == hid:
            del c.node_index[n]
    return h


def _add_entry(c: CacheState, h: Hopset) -> None:
    hid = hopset_id(h)
    c.entries[hid] = h
    for n in h.members:
        c.node_index[n] = hid


def insert_or_merge(c: CacheState, hs: List[Hopset], theta: int) -> CacheState:
    """Fold the window's hopsets into the cache.

    Every resident ages by one.  Incoming hopsets that share a member
    with residents are then merged with them (theta cap included), and
    each hopset the window merged or passed through is reset to age 0.
    """
    for h in c.entries.values():
        h.age += 1
    for h in hs:
        partners = sorted({hid for hid in map(c.node_index.get, h.members)
                           if hid in c.entries})
        # every partner shares a member with h, so the merge yields one hopset
        merged = merge_hopsets([h] + [_drop_entry(c, pid) for pid in partners], theta)[0]
        merged.age = 0
        _add_entry(c, merged)
    return c


def evict(c: CacheState) -> List[str]:
    """Push minimum-energy entries to the store until the member budget
    holds; their nodes stay indexed under the stored ids.  Energies do
    not change during an evict, so the residents are ranked once."""
    total = c.member_total()
    if total <= c.capacity:
        return []
    evicted = []
    for victim in sorted(c.entries, key=lambda hid: (energy(c.entries[hid], c.epsilon), hid)):
        if total <= c.capacity:
            break
        h = c.entries.pop(victim)
        total -= len(h.members)
        c.store.store(h)
        evicted.append(victim)
    return evicted


def lookup(c: CacheState, n: str) -> Tuple[Optional[Hopset], str]:
    """Find the hopset owning node n: resident, restored from disk, or absent.

    A hit on the eviction store moves the hopset back into the cache with
    age 0 and deletes the on-disk record.
    """
    hid = c.node_index.get(n)
    if hid is None:
        return None, "absent"
    if hid in c.entries:
        return c.entries[hid], "resident"
    h = c.store.load(hid)
    h.age = 0
    c.store.remove(hid)
    _add_entry(c, h)
    return h, "restored"
