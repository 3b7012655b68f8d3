import copy
import hashlib
import json
import os
import random
import shutil
import tempfile
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import provstp.cache as cache_mod
from provstp.cache import (
    CacheState,
    EvictionStore,
    energy,
    evict,
    hopset_to_doc,
    insert_or_merge,
    lookup,
)
from provstp.stp import Hopset, MemberRec, hopset_id, hopset_score, merge_hopsets

THETA = 10


def make_hopset(term, leaf_scores, attrs=None, ops=None):
    attrs = attrs or {}
    members = {term: MemberRec(1.0, 0, 100.0, attrs.get(term, {}))}
    edges = {}
    for leaf, sc in leaf_scores.items():
        members[leaf] = MemberRec(sc, 1, 10.0 + sc, attrs.get(leaf, {}))
        e = (term, leaf) if term < leaf else (leaf, term)
        edges[e] = (ops or {}).get(leaf, "read")
    h = Hopset({term}, members, edges)
    h.has = hopset_score(h)
    return h


def fresh_cache(tmp_path, capacity=100):
    store = EvictionStore(str(tmp_path / "store"))
    return CacheState(store=store, capacity=capacity)


def audit(c):
    """The index maps exactly the members of the resident and stored
    hopsets, each node to the one hopset that holds it."""
    expect = {}
    stored = [(hid, c.store.load(hid)) for hid in c.store.ids()]
    assert not set(c.entries) & {hid for hid, _ in stored}
    for hid, h in list(c.entries.items()) + stored:
        for n in h.members:
            assert n not in expect, "node owned by two hopsets"
            expect[n] = hid
    assert c.node_index == expect


def same_content(a, b):
    return (a.terminals == b.terminals and a.members == b.members
            and a.edges == b.edges and a.has == b.has)


def test_energy_examples():
    h = Hopset({"t"}, {}, {}, has=10.0, age=0)
    assert energy(h, 0.8) == 10.0
    h.age = 2
    assert energy(h, 0.8) == pytest.approx(6.4)
    h.has = 0.0
    for age in (0, 1, 5):
        h.age = age
        assert energy(h, 0.8) == 0.0


def test_doc_round_trip_bit_exact(tmp_path):
    store = EvictionStore(str(tmp_path / "store"))
    for attrs, ops, extra in [
        ({"t0": {"kind": "Process", "name": "sh"}}, {"f1": "write"}, {}),
        # t0 and f2 without attrs, the edge to f2 without an op
        ({"f1": {"kind": "File", "path": "/tmp/café"}}, {"f2": ""}, {}),
        # a record written before records lost last_window: the key is ignored
        ({"f2": {"kind": "File", "path": "/etc/x"}}, {}, {"last_window": 17}),
    ]:
        h = make_hopset("t0", {"f1": 0.1 + 0.2, "f2": -1.75}, attrs=attrs, ops=ops)
        h.age = 3
        hid = store.store(h)
        if extra:
            with open(os.path.join(store.hopset_dir, hid + ".json"), "w", encoding="utf-8") as fh:
                json.dump(dict(hopset_to_doc(h), age=h.age, **extra), fh)
        back = store.load(hid)
        assert same_content(h, back)
        assert back.age == 3
        assert back.members["f1"].as_score == 0.1 + 0.2


def test_insert_into_empty_cache(tmp_path):
    c = fresh_cache(tmp_path)
    h = make_hopset("t0", {"f1": 0.5})
    insert_or_merge(c, [h], THETA)
    assert len(c.entries) == 1
    entry = next(iter(c.entries.values()))
    assert entry.age == 0
    audit(c)


def test_untouched_entries_age(tmp_path):
    c = fresh_cache(tmp_path)
    insert_or_merge(c, [make_hopset("t0", {"f1": 0.5})], THETA)
    for _ in range(3):
        insert_or_merge(c, [], THETA)
    entry = next(iter(c.entries.values()))
    assert entry.age == 3


def test_incoming_merges_with_resident(tmp_path):
    c = fresh_cache(tmp_path)
    insert_or_merge(c, [make_hopset("t0", {"shared": 0.5, "f1": 0.25})], THETA)
    insert_or_merge(c, [make_hopset("t1", {"shared": 0.5, "g1": 0.25})], THETA)
    assert len(c.entries) == 1
    entry = next(iter(c.entries.values()))
    assert entry.terminals == {"t0", "t1"}
    assert entry.age == 0
    assert set(entry.members) == {"t0", "t1", "shared", "f1", "g1"}
    assert entry.has == pytest.approx(1.0 + 1.0 + 0.5 + 0.25 + 0.25)
    audit(c)

    # an incoming hopset that bridges two residents merges with both into one entry
    c = fresh_cache(tmp_path / "bridge")
    insert_or_merge(c, [make_hopset("t0", {"a": 0.5}), make_hopset("t1", {"b": 0.5}),
                        make_hopset("t2", {"c": 0.5})], THETA)
    insert_or_merge(c, [make_hopset("t3", {"a": 0.25, "b": 0.25})], THETA)
    merged = c.entries[c.node_index["t3"]]
    assert merged.terminals == {"t0", "t1", "t3"}
    assert merged.age == 0
    assert merged.has == pytest.approx(1.0 * 3 + 0.5 + 0.5)
    third = c.entries[c.node_index["t2"]]
    assert len(c.entries) == 2 and third.age == 1
    audit(c)


def test_disjoint_incoming_ages_resident(tmp_path):
    c = fresh_cache(tmp_path)
    insert_or_merge(c, [make_hopset("t0", {"f1": 0.5})], THETA)
    insert_or_merge(c, [make_hopset("t1", {"g1": 0.5})], THETA)
    ages = sorted(h.age for h in c.entries.values())
    assert ages == [0, 1]
    audit(c)


def test_evict_under_capacity_noop(tmp_path):
    c = fresh_cache(tmp_path, capacity=100)
    insert_or_merge(c, [make_hopset("t0", {"f1": 0.5})], THETA)
    assert evict(c) == []
    assert len(c.entries) == 1


def test_evict_lowest_energy(tmp_path):
    c = fresh_cache(tmp_path, capacity=10)
    low = make_hopset("t0", {"f%d" % i: 0.8 for i in range(5)})   # has = 5
    high = make_hopset("t1", {"g%d" % i: 1.6 for i in range(5)})  # has = 9
    assert low.has == pytest.approx(5.0)
    assert high.has == pytest.approx(9.0)
    insert_or_merge(c, [low, high], THETA)
    assert c.member_total() == 12
    gone = evict(c)
    assert gone == [hopset_id(low)]
    assert list(c.entries) == [hopset_id(high)]
    assert c.member_total() == 6
    audit(c)
    assert os.path.exists(os.path.join(c.store.hopset_dir, gone[0] + ".json"))


def test_evict_then_lookup_restores_equal(tmp_path):
    c = fresh_cache(tmp_path, capacity=0)
    h = make_hopset("t0", {"f1": 0.1 + 0.2, "f2": 1.5},
                    attrs={"f1": {"kind": "File", "path": "/tmp/x"}},
                    ops={"f2": "write"})
    original = copy.deepcopy(h)
    insert_or_merge(c, [h], THETA)
    insert_or_merge(c, [], THETA)
    assert evict(c) == [hopset_id(h)]
    assert c.store.load(hopset_id(h)).age == 1
    assert c.entries == {}
    got, where = lookup(c, "f1")
    assert where == "restored"
    assert same_content(got, original)
    assert got.age == 0
    # back in the cache, gone from the store
    assert lookup(c, "f2") == (got, "resident")
    assert c.node_index["f1"] in c.entries and c.store.ids() == []
    assert not os.path.exists(os.path.join(c.store.hopset_dir, hopset_id(h) + ".json"))
    audit(c)


# A record is compact ASCII JSON in hopset_to_doc's key order, age last.
PINNED_RECORD = (
    b'{"terminals":["t0"],"members":{'
    b'"f1":{"as":0.30000000000000004,"hops":1,"iv":10.3,'
    b'"attrs":{"kind":"File","path":"/tmp/caf\\u00e9"}},'
    b'"f2":{"as":1e-310,"hops":1,"iv":10.0,"attrs":{}},'
    b'"t0":{"as":1.0,"hops":0,"iv":100.0,"attrs":{}}},'
    b'"edges":[["f1","t0","read"],["f2","t0","read"]],"has":1.3,"age":0}')


def test_store_record_bytes_and_removing_a_missing_record(tmp_path):
    store = EvictionStore(str(tmp_path / "store"))
    h = make_hopset("t0", {"f1": 0.1 + 0.2, "f2": 1e-310},
                    attrs={"f1": {"kind": "File", "path": "/tmp/café"}})
    hid = store.store(h)
    with open(os.path.join(store.hopset_dir, hid + ".json"), "rb") as fh:
        assert fh.read() == PINNED_RECORD
    store.remove(hid)
    store.remove(hid)  # already gone: nothing to do
    assert store.ids() == []


def test_indented_sorted_record_reopens_and_restores(tmp_path):
    """Stores once wrote each record with indent=2 and sorted keys; such a
    store still opens, indexes its nodes and restores its hopsets."""
    h = make_hopset("t0", {"f1": 0.1 + 0.2, "f2": 1e-310},
                    attrs={"f1": {"kind": "File", "path": "/tmp/café"}}, ops={"f2": ""})
    h.age = 4
    original = copy.deepcopy(h)
    hid = hopset_id(h)
    hopsets = tmp_path / "store" / "hopsets"
    hopsets.mkdir(parents=True)
    with open(hopsets / (hid + ".json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(hopset_to_doc(h), age=h.age), sort_keys=True, indent=2))
    c = fresh_cache(tmp_path)
    assert c.node_index == {"t0": hid, "f1": hid, "f2": hid}
    assert c.store.load(hid).age == 4
    got, where = lookup(c, "f2")
    assert where == "restored" and same_content(got, original)
    assert c.store.ids() == []
    audit(c)


def test_lookup_absent(tmp_path):
    c = fresh_cache(tmp_path)
    assert lookup(c, "nobody") == (None, "absent")


OLD_SHAPE_RECORD = {  # attrs beside the members, ops keyed "u|v"
    "terminals": ["t0"], "has": 1.5, "age": 1, "last_window": 0,
    "members": {"t0": {"as": 1.0, "hops": 0, "iv": 100.0},
                "f1": {"as": 0.5, "hops": 1, "iv": 10.5}},
    "edges": [["f1", "t0"]], "attrs": {}, "edge_ops": {"f1|t0": "read"},
}
PAIR_EDGES_RECORD = dict(OLD_SHAPE_RECORD, members={
    n: dict(rec, attrs={}) for n, rec in OLD_SHAPE_RECORD["members"].items()})


def test_lookup_corrupted_record(tmp_path):
    c = fresh_cache(tmp_path, capacity=0)
    h = make_hopset("t0", {"f1": 0.5})
    insert_or_merge(c, [h], THETA)
    hid = evict(c)[0]
    path = os.path.join(c.store.hopset_dir, hid + ".json")
    for text in ["{not json", json.dumps(OLD_SHAPE_RECORD), json.dumps(PAIR_EDGES_RECORD)]:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(IOError, match=hid):
            lookup(c, "f1")


def test_torn_record_raises_ioerror_on_reopen(tmp_path):
    c = fresh_cache(tmp_path, capacity=0)
    insert_or_merge(c, [make_hopset("t0", {"f1": 0.5})], THETA)
    hid = evict(c)[0]
    path = os.path.join(c.store.hopset_dir, hid + ".json")
    with open(path, "r+", encoding="utf-8") as fh:
        fh.truncate(len(fh.read()) // 2)
    with pytest.raises(IOError, match="corrupted store record .*%s" % hid):
        fresh_cache(tmp_path)


def test_eviction_follows_energy_order(tmp_path):
    rng = random.Random(31)
    c = fresh_cache(tmp_path, capacity=0)
    hs = []
    for i in range(12):
        h = make_hopset("t%02d" % i, {"n%02d" % i: rng.uniform(0.1, 5.0)})
        h.age = rng.randrange(0, 4)
        hs.append(h)
    for h in hs:
        c.entries[hopset_id(h)] = h
        for n in h.members:
            c.node_index[n] = hopset_id(h)
    expected = [hopset_id(h) for h in
                sorted(hs, key=lambda h: (energy(h, c.epsilon), hopset_id(h)))]
    assert evict(c) == expected
    assert c.entries == {}


def evict_reference(c):
    """The evict loop this cache ran before it ranked residents once:
    member total and minimum energy recomputed for each victim."""
    evicted = []
    while c.member_total() > c.capacity and c.entries:
        victim = min(c.entries, key=lambda hid: (energy(c.entries[hid], c.epsilon), hid))
        c.store.store(c.entries.pop(victim))
        evicted.append(victim)
    return evicted


def _random_cache(root, rng):
    c = CacheState(store=EvictionStore(str(root)), capacity=rng.randrange(0, 30),
                   epsilon=rng.choice([0.5, 0.8, 1.0]))
    for i in range(rng.randrange(0, 15)):
        # few distinct scores and ages, so that energies tie
        h = make_hopset("t%02d" % i, {"n%02d-%d" % (i, j): rng.choice([0.5, 1.0, 2.5])
                                      for j in range(rng.randrange(0, 5))})
        h.age = rng.randrange(0, 3)
        c.entries[hopset_id(h)] = h
        for n in h.members:
            c.node_index[n] = hopset_id(h)
    return c


def test_evict_matches_reference_loop(tmp_path):
    evicting = 0
    for case in range(80):
        c = _random_cache(tmp_path / ("new%d" % case), random.Random(case))
        ref = _random_cache(tmp_path / ("ref%d" % case), random.Random(case))
        gone = evict(c)
        assert gone == evict_reference(ref)
        assert list(c.entries) == list(ref.entries)
        assert c.store.ids() == ref.store.ids()
        assert c.member_total() <= c.capacity
        evicting += len(gone) > 1
    assert evicting >= 20


def test_evict_ranks_residents_once(tmp_path, monkeypatch):
    calls = []

    def counting_energy(h, epsilon):
        calls.append(1)
        return energy(h, epsilon)

    c = fresh_cache(tmp_path, capacity=40)
    for i in range(50):
        h = make_hopset("t%02d" % i, {"n%02d" % i: 0.1 + 0.05 * i})
        c.entries[hopset_id(h)] = h
        for n in h.members:
            c.node_index[n] = hopset_id(h)
    monkeypatch.setattr(cache_mod, "energy", counting_energy)
    assert len(evict(c)) == 30  # 100 members down to 40
    assert len(calls) <= 50


def test_store_index_persists(tmp_path):
    c = fresh_cache(tmp_path, capacity=0)
    h = make_hopset("t0", {"f1": 0.5})
    insert_or_merge(c, [h], THETA)
    hid = evict(c)[0]
    assert os.listdir(c.store.hopset_dir) == [hid + ".json"]
    # a later store cut short before its rename leaves only the temp file
    with open(c.store.tmp_path, "w", encoding="utf-8") as fh:
        fh.write('{"terminals": ["t1"], "mem')
    again = fresh_cache(tmp_path)
    assert again.node_index == {"t0": hid, "f1": hid}
    assert again.entries == {}
    got, where = lookup(again, "t0")
    assert where == "restored" and same_content(got, h)
    assert os.listdir(again.store.hopset_dir) == []
    audit(again)


def test_node_index_audit_under_random_ops(tmp_path):
    rng = random.Random(7)
    c = fresh_cache(tmp_path, capacity=8)
    all_nodes = []
    for w in range(25):
        batch = []
        for _ in range(rng.randrange(0, 3)):
            term = "t%03d" % rng.randrange(40)
            leaves = {"n%03d" % rng.randrange(60): rng.uniform(0.1, 2.0)
                      for _ in range(rng.randrange(1, 4))}
            h = make_hopset(term, leaves)
            batch.append(h)
            all_nodes.extend(h.members)
        # window-level disjointness: merge any overlapping incoming first
        batch = merge_hopsets(batch, THETA)
        for h in batch:
            for n in list(h.members):
                got, _ = lookup(c, n)
        insert_or_merge(c, batch, THETA)
        evict(c)
        audit(c)
        assert c.member_total() <= c.capacity
        for n in rng.sample(all_nodes, min(3, len(all_nodes))):
            got, where = lookup(c, n)
            if where == "absent":
                assert got is None
            else:
                assert n in got.members
        evict(c)
        audit(c)


def test_ten_thousand_round_trips_stay_linear(tmp_path):
    n = 10_000
    c = fresh_cache(tmp_path, capacity=0)
    hs = [make_hopset("t%05d" % i, {"t%05d-f%d" % (i, j): 0.5 for j in range(9)})
          for i in range(n)]
    started = time.perf_counter()
    for h in hs:
        insert_or_merge(c, [h], THETA)
        assert evict(c) == [hopset_id(h)]
    assert len(c.store.ids()) == n and len(c.node_index) == 10 * n
    for i, h in enumerate(hs):
        got, where = lookup(c, "t%05d-f4" % i)
        assert where == "restored" and got.members == h.members
    elapsed = time.perf_counter() - started
    assert c.store.ids() == [] and len(c.entries) == n
    assert elapsed < 60.0, "%d round trips took %.1f s" % (n, elapsed)


def _ref_id(terminals):
    return hashlib.md5(",".join(sorted(terminals)).encode("utf-8")).hexdigest()


class CacheMachine(RuleBasedStateMachine):
    """Drives the cache in the order process_window uses (look up every
    member, insert, evict), plus raw lookups and crash-and-reopen, against
    a reference of plain dicts: each hopset's terminals and members, and
    whether it is resident."""

    CAPACITY = 8
    THETA = 100  # no pruning, so a merged hopset is the union of its group

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="cache-machine-")
        self.cache = self._open()
        self.groups = {}  # hid -> (terminals, members)
        self.resident = set()

    def _open(self):
        return CacheState(store=EvictionStore(self.root), capacity=self.CAPACITY)

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def _owner(self, n):
        return next((hid for hid, (_, ms) in self.groups.items() if n in ms), None)

    @rule(specs=st.lists(st.tuples(st.integers(0, 7),
                                   st.sets(st.integers(0, 19), min_size=1, max_size=3)),
                         max_size=3))
    def window_pass(self, specs):
        incoming = [make_hopset("t%d" % t, {"n%02d" % i: 0.25 + i / 8 for i in leaves})
                    for t, leaves in specs]
        batch = merge_hopsets(incoming, self.THETA)
        for h in batch:
            for n in sorted(h.members):
                lookup(self.cache, n)
        insert_or_merge(self.cache, batch, self.THETA)
        evicted = evict(self.cache)

        # reference: each incoming hopset absorbs every group it touches
        for h in incoming:
            terms, members = set(h.terminals), set(h.members)
            while True:
                hit = [hid for hid, (_, ms) in self.groups.items() if ms & members]
                if not hit:
                    break
                for hid in hit:
                    ts, ms = self.groups.pop(hid)
                    self.resident.discard(hid)
                    terms |= ts
                    members |= ms
            hid = _ref_id(terms)
            self.groups[hid] = (terms, members)
            self.resident.add(hid)
        for hid in evicted:
            assert hid in self.resident
            self.resident.discard(hid)
        assert self.cache.member_total() <= self.CAPACITY

    @rule(i=st.integers(0, 27))
    def raw_lookup(self, i):
        n = "t%d" % i if i < 8 else "n%02d" % (i - 8)
        got, where = lookup(self.cache, n)
        hid = self._owner(n)
        if hid is None:
            assert (got, where) == (None, "absent")
            return
        assert where == ("resident" if hid in self.resident else "restored")
        assert (got.terminals, set(got.members)) == self.groups[hid]
        self.resident.add(hid)

    @rule(torn=st.booleans())
    def crash_and_reopen(self, torn):
        if torn:  # a store cut short before its rename
            with open(self.cache.store.tmp_path, "w", encoding="utf-8") as fh:
                fh.write('{"terminals": ["t9"], "mem')
        self.cache = self._open()
        for hid in self.resident:
            del self.groups[hid]
        self.resident = set()

    @invariant()
    def index_matches_reference(self):
        c = self.cache
        audit(c)
        assert set(c.entries) == self.resident
        assert set(c.store.ids()) == set(self.groups) - self.resident
        for hid, h in c.entries.items():
            assert (h.terminals, set(h.members)) == self.groups[hid]


CacheMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=25,
                                          deadline=None)
TestCacheMachine = CacheMachine.TestCase
