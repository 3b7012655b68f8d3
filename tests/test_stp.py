import math
import random
from collections import defaultdict

import pytest

from provstp import stp
from provstp.stp import (
    Hopset,
    IsgParams,
    MemberRec,
    fanout,
    greedy_online_stp,
    hopset_id,
    hopset_score,
    importance,
    isg_hopset,
    kou_steiner,
    mehlhorn_steiner,
    merge_hopsets,
    optimal_steiner_bruteforce,
    steiner_forest,
)


class FakeRec:
    def __init__(self, ind=0, outd=0):
        self.in_degree = ind
        self.out_degree = outd


class FakeGraph:
    def __init__(self, pairs, recs=None):
        und = defaultdict(set)
        for u, v in pairs:
            und[u].add(v)
            und[v].add(u)
        self.undirected = dict(und)
        recs = recs or {}
        self.nodes = {n: recs.get(n, FakeRec()) for n in self.undirected}


def random_adjacency(rng, n):
    names = ["n%02d" % i for i in range(n)]
    adj = {a: set() for a in names}
    order = names[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        adj[a].add(b)
        adj[b].add(a)
    for _ in range(rng.randrange(0, n)):
        a, b = rng.sample(names, 2)
        adj[a].add(b)
        adj[b].add(a)
    return adj


def is_tree_spanning(edges, terminals):
    if not edges:
        return len(set(terminals)) <= 1
    nodes = {n for e in edges for n in e}
    return (set(terminals) <= nodes and len(edges) == len(nodes) - 1
            and is_connected(nodes, edges))


def is_connected(members, edges):
    if len(members) <= 1:
        return True
    adj = {n: set() for n in members}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == set(members)


def test_fanout_values():
    g = FakeGraph([("a", "b")], recs={
        "a": FakeRec(0, 10), "b": FakeRec(5, 0),
    })
    assert fanout("a", g) == 10.0
    assert fanout("b", g) == 0.0
    g2 = FakeGraph([("a", "b")], recs={"a": FakeRec(2, 3)})
    assert fanout("a", g2) == 1.0


def test_importance_values():
    p = IsgParams()
    assert importance(2.0, 4.0, 0, p) == 204.0
    assert importance(2.0, 4.0, 2, p) == pytest.approx(165.24)
    for i in range(5):
        assert importance(0.0, 0.0, i, p) == 0.0


def test_isg_star_tie_break():
    leaves = ["leaf%02d" % i for i in range(15)]
    g = FakeGraph([("t", l) for l in leaves])
    h = isg_hopset("t", g, {}, IsgParams(theta=10))
    assert sorted(h.members) == sorted(["t"] + leaves[:9])
    assert len(h.edges) == 9
    assert h.terminals == {"t"}
    assert h.members["t"].hops == 0


def test_isg_chain_depth():
    g = FakeGraph([("t", "a"), ("a", "b")])
    h = isg_hopset("t", g, {"b": 5.0}, IsgParams(theta=3))
    assert set(h.members) == {"t", "a", "b"}
    assert h.members["a"].hops == 1
    assert h.members["b"].hops == 2
    assert h.edges == {("a", "t"), ("a", "b")}
    assert h.has == pytest.approx(5.0)


def test_isg_theta_one():
    g = FakeGraph([("t", "a"), ("a", "b")])
    h = isg_hopset("t", g, {}, IsgParams(theta=1))
    assert set(h.members) == {"t"}
    assert h.edges == set()


def test_isg_prefers_high_importance():
    # terminal with two branches: the high-AS branch is explored first
    g = FakeGraph([("t", "lo"), ("t", "hi"), ("hi", "deep")])
    scores = {"hi": 3.0, "deep": 3.0, "lo": 0.0}
    h = isg_hopset("t", g, scores, IsgParams(theta=3))
    assert set(h.members) == {"t", "hi", "deep"}


def test_isg_deterministic_and_bounded():
    rng = random.Random(5)
    for trial in range(30):
        adj = random_adjacency(rng, rng.randrange(4, 13))
        pairs = [(u, v) for u in adj for v in adj[u] if u < v]
        recs = {}
        for u, v in pairs:
            recs.setdefault(u, FakeRec()).out_degree += 1
            recs.setdefault(v, FakeRec()).in_degree += 1
        g = FakeGraph(pairs, recs)
        scores = {n: rng.uniform(-1.0, 3.0) for n in adj}
        t = rng.choice(sorted(adj))
        theta = rng.randrange(1, 8)
        h1 = isg_hopset(t, g, scores, IsgParams(theta=theta))
        h2 = isg_hopset(t, g, scores, IsgParams(theta=theta))
        assert set(h1.members) == set(h2.members)
        assert h1.edges == h2.edges
        assert len(h1.members) <= theta
        assert t in h1.members
        assert len(h1.edges) == len(h1.members) - 1
        assert is_connected(h1.members, h1.edges)


def test_hopset_score_examples():
    h = Hopset({"t"}, {
        "t": MemberRec(1.0, 0, 1.0),
        "a": MemberRec(2.0, 1, 1.0),
        "b": MemberRec(3.0, 1, 1.0),
    }, set())
    assert hopset_score(h) == 6.0
    h.members["c"] = MemberRec(-1.0, 1, 1.0)
    assert hopset_score(h) == 5.0
    assert hopset_score(Hopset(set(), {}, set())) == 0.0


def test_hopset_id_is_terminal_digest():
    h1 = Hopset({"b", "a"}, {}, set())
    h2 = Hopset({"a", "b"}, {}, set())
    assert hopset_id(h1) == hopset_id(h2)
    assert len(hopset_id(h1)) == 32
    assert hopset_id(h1) != hopset_id(Hopset({"a"}, {}, set()))


def _leaf_hopset(term, members, ivs, extra_edges=()):
    recs = {term: MemberRec(1.0, 0, 1000.0)}
    edges = set(extra_edges)
    for m in members:
        recs[m] = MemberRec(0.5, 1, ivs[m])
        edges.add((term, m) if term < m else (m, term))
    h = Hopset({term}, recs, edges)
    h.has = hopset_score(h)
    return h


def test_merge_disjoint_unchanged():
    a = _leaf_hopset("a", ["a1"], {"a1": 5.0})
    b = _leaf_hopset("b", ["b1"], {"b1": 5.0})
    out = merge_hopsets([a, b], theta=10)
    assert out == [a, b]


def test_merge_shared_node_unions():
    ivs = {"s": 9.0, "a1": 5.0, "b1": 4.0}
    a = _leaf_hopset("ta", ["s", "a1"], ivs)
    b = _leaf_hopset("tb", ["s", "b1"], ivs)
    out = merge_hopsets([a, b], theta=10)
    assert len(out) == 1
    m = out[0]
    assert m.terminals == {"ta", "tb"}
    assert set(m.members) == {"ta", "tb", "s", "a1", "b1"}
    # shared node counted once: 2 terminals at 1.0 plus 3 leaves at 0.5
    assert m.has == pytest.approx(3.5)
    assert is_connected(m.members, m.edges)


def test_merge_keeps_max_iv_record():
    a = Hopset({"ta"}, {
        "ta": MemberRec(1.0, 0, 100.0),
        "s": MemberRec(0.5, 1, 7.0),
    }, {("s", "ta")})
    b = Hopset({"tb"}, {
        "tb": MemberRec(1.0, 0, 100.0),
        "s": MemberRec(0.5, 2, 11.0),
    }, {("s", "tb")})
    out = merge_hopsets([a, b], theta=10)
    assert out[0].members["s"].iv == 11.0
    assert out[0].members["s"].hops == 2


def test_merge_prunes_lowest_iv_nonterminals():
    rng = random.Random(99)
    a_members = ["s"] + ["a%02d" % i for i in range(11)]
    b_members = ["s"] + ["b%02d" % i for i in range(11)]
    pool = sorted(set(a_members + b_members))
    ivs = {name: float(v) for name, v in zip(pool, rng.sample(range(100, 400), len(pool)))}
    ivs["s"] = 999.0
    a = _leaf_hopset("t1", a_members, ivs, extra_edges=[("t1", "t2")])
    b = _leaf_hopset("t2", b_members, ivs)
    assert len(set(a.members) | set(b.members)) == 25
    out = merge_hopsets([a, b], theta=10)
    assert len(out) == 1
    m = out[0]
    assert len(m.members) == 20
    nonterm = [n for n in pool]
    victims = set(sorted(nonterm, key=lambda n: ivs[n])[:5])
    dropped = (set(a.members) | set(b.members)) - set(m.members)
    assert dropped == victims
    assert m.has == pytest.approx(sum(r.as_score for r in m.members.values()))
    assert is_connected(m.members, m.edges)


def test_merge_chain_of_three_collapses():
    ivs = {"x": 5.0, "y": 5.0, "q1": 3.0, "q2": 3.0}
    a = _leaf_hopset("t1", ["x", "q1"], ivs)
    b = _leaf_hopset("t2", ["x", "y"], ivs)
    c = _leaf_hopset("t3", ["y", "q2"], ivs)
    out = merge_hopsets([a, b, c], theta=10)
    assert len(out) == 1
    assert out[0].terminals == {"t1", "t2", "t3"}


def test_greedy_examples():
    tri = {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}
    assert greedy_online_stp(tri, ["a"]) == set()
    path = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
    assert greedy_online_stp(path, ["a", "c"]) == {("a", "b"), ("b", "c")}
    assert len(greedy_online_stp(tri, ["a", "b", "c"])) == 2
    with pytest.raises(ValueError):
        greedy_online_stp(tri, ["a", "zz"])


def test_greedy_skips_unreachable_priors():
    g = {"a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"}}
    s = greedy_online_stp(g, ["a", "c", "b"])
    # c cannot reach a; b connects back to a
    assert s == {("a", "b")}


def test_kou_two_terminals_is_shortest_path():
    p4 = {"a": {"b"}, "b": {"a", "c"}, "c": {"b", "d"}, "d": {"c"}}
    assert kou_steiner(p4, ["a", "d"]) == {("a", "b"), ("b", "c"), ("c", "d")}


def test_kou_tree_all_terminals():
    tree = {"r": {"x", "y"}, "x": {"r", "z"}, "y": {"r"}, "z": {"x"}}
    assert kou_steiner(tree, list(tree)) == {("r", "x"), ("r", "y"), ("x", "z")}


def test_kou_unreachable_raises():
    g = {"a": {"b"}, "b": {"a"}, "c": set()}
    with pytest.raises(ValueError):
        kou_steiner(g, ["a", "c"])


def test_mehlhorn_two_terminals_is_shortest_path():
    p4 = {"a": {"b"}, "b": {"a", "c"}, "c": {"b", "d"}, "d": {"c"}}
    assert mehlhorn_steiner(p4, ["a", "d"]) == {("a", "b"), ("b", "c"), ("c", "d")}


def test_mehlhorn_unreachable_raises():
    g = {"a": {"b"}, "b": {"a"}, "c": set()}
    with pytest.raises(ValueError):
        mehlhorn_steiner(g, ["a", "c"])


def test_bruteforce_examples():
    p4 = {"a": {"b"}, "b": {"a", "c"}, "c": {"b", "d"}, "d": {"c"}}
    assert optimal_steiner_bruteforce(p4, ["a", "b"]) == {("a", "b")}
    star = {"s": {"l1", "l2", "l3"}, "l1": {"s"}, "l2": {"s"}, "l3": {"s"}}
    assert optimal_steiner_bruteforce(star, ["l1", "l2", "l3"]) == {
        ("l1", "s"), ("l2", "s"), ("l3", "s")}


def test_bruteforce_guards():
    big = {"n%02d" % i: set() for i in range(13)}
    with pytest.raises(ValueError):
        optimal_steiner_bruteforce(big, ["n00"])
    g = {"a": {"b"}, "b": {"a"}, "c": set()}
    with pytest.raises(ValueError):
        optimal_steiner_bruteforce(g, ["a", "c"])


def test_approximation_ratios_on_random_graphs():
    for seed in range(120):
        rng = random.Random(seed)
        adj = random_adjacency(rng, rng.randrange(5, 13))
        k = rng.randrange(2, 5)
        terms = rng.sample(sorted(adj), k)
        opt = len(optimal_steiner_bruteforce(adj, terms))
        kou = kou_steiner(adj, terms)
        meh = mehlhorn_steiner(adj, terms)
        assert is_tree_spanning(kou, terms)
        assert is_tree_spanning(meh, terms)
        assert opt <= len(kou) <= 2 * opt
        assert opt <= len(meh) <= 2 * opt
        gre = greedy_online_stp(adj, terms)
        assert len(gre) <= 2 * max(1.0, math.log2(k)) * opt


def test_edge_bound_and_competitive_ratio():
    # window-level invariant: sum of hopset edges <= |T| * theta,
    # and the merged union stays within 2*theta*log2(k) of optimal
    for seed in range(40):
        rng = random.Random(1000 + seed)
        adj = random_adjacency(rng, rng.randrange(6, 13))
        pairs = [(u, v) for u in adj for v in adj[u] if u < v]
        recs = {}
        for u, v in pairs:
            recs.setdefault(u, FakeRec()).out_degree += 1
            recs.setdefault(v, FakeRec()).in_degree += 1
        g = FakeGraph(pairs, recs)
        scores = {n: rng.uniform(0.0, 3.0) for n in adj}
        k = rng.randrange(2, 5)
        terms = rng.sample(sorted(adj), k)
        theta = rng.randrange(2, 7)
        p = IsgParams(theta=theta)
        hs = [isg_hopset(t, g, scores, p) for t in terms]
        assert sum(len(h.edges) for h in hs) <= len(terms) * theta
        merged = merge_hopsets(hs, theta)
        assert sum(len(h.edges) for h in merged) <= len(terms) * theta
        for h in merged:
            assert h.terminals <= set(h.members)
            assert is_connected(h.members, h.edges)
        opt = len(optimal_steiner_bruteforce(adj, terms))
        multi = sum(len(h.edges) for h in merged if len(h.terminals) >= 2)
        assert multi <= 2 * theta * max(1.0, math.log2(k)) * max(opt, 0)


def test_steiner_forest_per_component():
    g = {"a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"}, "e": set()}
    out = steiner_forest(g, ["e", "d", "c", "b", "a"], "kou")
    assert out == [(["a", "b"], {("a", "b")}), (["c", "d"], {("c", "d")}), (["e"], set())]
    out2 = steiner_forest(g, ["a", "e"], "greedy")
    assert out2 == [(["a"], set()), (["e"], set())]
