"""Steiner-tree machinery over window graphs.

Each suspicious process (terminal) gets a hopset: the theta-bounded,
importance-guided neighborhood that approximates its Steiner component
online.  The baselines (online greedy, Kou, Mehlhorn, listed in STEINER)
take a plain undirected adjacency, node -> set of neighbours, such as
`WindowGraph.undirected`; `steiner_window_hopsets` runs one per terminal
component of a window.  Both window builders, `isg_hopset` and
`steiner_window_hopsets`, pick the members and edges and leave the hopset
itself to `window_hopset`, which reads the window graph for every
member's attrs and every edge's op.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

Pair = Tuple[str, str]


@dataclass
class IsgParams:
    alpha: float = 0.9
    beta: float = 100.0
    gamma: float = 1.0
    theta: int = 10


@dataclass(slots=True)
class MemberRec:
    as_score: float
    hops: int
    iv: float
    attrs: dict = field(default_factory=dict)  # the member's NodeRec.doc()


@dataclass
class Hopset:
    terminals: Set[str]
    members: Dict[str, MemberRec]
    edges: Dict[Pair, str]  # edge -> its first op in the window that built it
    has: float = 0.0
    age: int = 0


def hopset_id(h: Hopset) -> str:
    return hashlib.md5(",".join(sorted(h.terminals)).encode("utf-8")).hexdigest()


def _pair(u: str, v: str) -> Pair:
    return (u, v) if u < v else (v, u)


def fanout(n: str, g) -> float:
    rec = g.nodes[n]
    return rec.out_degree / (rec.in_degree + 1)


def importance(as_n: float, fan: float, hops: int, p: IsgParams) -> float:
    return (p.alpha ** hops) * (p.beta * as_n + p.gamma * fan)


def hopset_score(h: Hopset) -> float:
    return sum(rec.as_score for rec in h.members.values())


def window_hopset(terminals: Iterable[str], g, scores: Dict[str, float], p: IsgParams,
                  hops: Dict[str, int], edges: Iterable[Pair]) -> Hopset:
    """The hopset of window graph g over these terminals: a member per
    entry of hops (node -> hops from a terminal, in member order) with
    its score, IV and attrs, and each edge with its first op in g."""
    members = {}
    for n, k in hops.items():
        as_n = scores.get(n, 0.0)
        members[n] = MemberRec(as_n, k, importance(as_n, fanout(n, g), k, p), g.nodes[n].doc())
    h = Hopset(set(terminals), members, {e: g.first_op[e] for e in edges})
    h.has = hopset_score(h)
    return h


def isg_hopset(t: str, g, scores: Dict[str, float], p: IsgParams) -> Hopset:
    """Best-first neighborhood expansion around terminal t.

    The frontier is a max-IV priority queue (hops frozen at enqueue
    time, ties broken by ascending digest); expansion stops once theta
    nodes are discovered, the terminal included.
    """
    adj = g.undirected
    hops = {t: 0}
    edges: List[Pair] = []
    heap: List[Tuple[float, str, str, int]] = []
    seen = {t}
    for nb in adj[t]:
        iv = importance(scores.get(nb, 0.0), fanout(nb, g), 1, p)
        heapq.heappush(heap, (-iv, nb, t, 1))
        seen.add(nb)
    while heap and len(hops) < p.theta:
        _, node, par, k = heapq.heappop(heap)
        hops[node] = k
        edges.append(_pair(node, par))
        for nb in adj[node]:
            if nb not in seen:
                seen.add(nb)
                iv = importance(scores.get(nb, 0.0), fanout(nb, g), k + 1, p)
                heapq.heappush(heap, (-iv, nb, node, k + 1))
    return window_hopset((t,), g, scores, p, hops, edges)


class _DisjointSets:
    """Union-find over hashable items, with path halving."""

    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, a):
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a, b) -> bool:
        """Join the sets of a and b; False when they already were one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def bfs(adj: Dict[str, Set[str]], sources: Iterable[str]):
    """Multi-source BFS that visits neighbours in sorted order.

    Returns (dist, parent): hops from the nearest source and the BFS
    parent (None at a source).  Sources are seeded in the order given,
    and both dicts list nodes in discovery order.
    """
    dist: Dict[str, int] = {}
    parent: Dict[str, Optional[str]] = {}
    queue = deque()
    for s in sources:
        if s not in dist:
            dist[s] = 0
            parent[s] = None
            queue.append(s)
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if v not in dist:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def _prune_to_bound(h: Hopset, bound: int):
    """Drop lowest-IV non-terminal leaves of the traversal forest until
    the member bound holds; every kept member retains its traversal edge."""
    adj: Dict[str, Set[str]] = {m: set() for m in h.members}
    for u, v in h.edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    parent = bfs(adj, [t for t in sorted(h.terminals) if t in adj])[1]
    # unreachable members cannot stay connected to a terminal; drop them first
    kept = {n for n in h.members if n in parent}
    kids: Dict[str, Set[str]] = {n: set() for n in kept}
    for v in kept:
        pv = parent[v]
        if pv is not None:
            kids[pv].add(v)
    heap = [(h.members[n].iv, n) for n in kept
            if n not in h.terminals and not kids[n]]
    heapq.heapify(heap)
    while len(kept) > bound and heap:
        _, n = heapq.heappop(heap)
        if n not in kept or kids[n]:
            continue
        kept.discard(n)
        pv = parent[n]
        if pv is not None:
            kids[pv].discard(n)
            if not kids[pv] and pv not in h.terminals:
                heapq.heappush(heap, (h.members[pv].iv, pv))
    # a kept node's parent is kept, so its traversal edge survives here
    h.members = {n: rec for n, rec in h.members.items() if n in kept}
    h.edges = {e: op for e, op in h.edges.items() if e[0] in kept and e[1] in kept}


def _union_group(group: List[Hopset], theta: int) -> Hopset:
    terminals: Set[str] = set()
    members: Dict[str, MemberRec] = {}
    edges: Dict[Pair, str] = {}
    for h in group:
        terminals |= h.terminals
        for e, op in h.edges.items():
            edges.setdefault(e, op)
        for n, rec in h.members.items():
            cur = members.get(n)
            if cur is None:
                members[n] = rec
            elif (rec.iv, rec.as_score, -rec.hops) > (cur.iv, cur.as_score, -cur.hops):
                # the better record, with the first attrs seen for n
                members[n] = MemberRec(rec.as_score, rec.hops, rec.iv, cur.attrs)
    merged = Hopset(terminals, members, edges)
    if len(merged.members) > theta * len(merged.terminals):
        _prune_to_bound(merged, theta * len(merged.terminals))
    merged.has = hopset_score(merged)
    return merged


def merge_hopsets(hs: List[Hopset], theta: int) -> List[Hopset]:
    """Union hopsets that share members, then enforce the theta cap.

    Disjoint hopsets pass through as built; connectivity after pruning
    is preserved by keeping each surviving member's traversal edge.
    """
    sets = _DisjointSets(range(len(hs)))
    owner: Dict[str, int] = {}
    for i, h in enumerate(hs):
        for n in h.members:
            if n in owner:
                sets.union(i, owner[n])
            else:
                owner[n] = i
    groups: Dict[int, List[Hopset]] = {}
    for i, h in enumerate(hs):
        groups.setdefault(sets.find(i), []).append(h)
    return [group[0] if len(group) == 1 else _union_group(group, theta)
            for group in groups.values()]


def _walk_up(par: Dict[str, Optional[str]], node: str) -> List[Pair]:
    path = []
    while par[node] is not None:
        path.append(_pair(node, par[node]))
        node = par[node]
    return path


def greedy_online_stp(adj: Dict[str, Set[str]], terminal_stream: Iterable[str]) -> Set[Pair]:
    """Online greedy: connect each arriving terminal to the nearest prior
    terminal by a shortest path; the first terminal adds nothing."""
    solution: Set[Pair] = set()
    prior: List[str] = []
    for t in terminal_stream:
        if t not in adj:
            raise ValueError("terminal %r not in graph" % (t,))
        if prior:
            dist, par = bfs(adj, [t])
            best = None
            for pt in prior:
                if pt in dist and (best is None or (dist[pt], pt) < (dist[best], best)):
                    best = pt
            if best is not None:
                solution |= set(_walk_up(par, best))
        prior.append(t)
    return solution


def _kruskal(nodes: Iterable[str], edges: List[Tuple[float, str, str]]) -> List[Tuple[str, str]]:
    sets = _DisjointSets(nodes)
    return [(u, v) for _, u, v in sorted(edges) if sets.union(u, v)]


def _prune_nonterminal_leaves(edges: Set[Pair], terminals: Set[str]) -> Set[Pair]:
    edges = set(edges)
    while True:
        degree: Dict[str, int] = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        prunable = {n for n, dg in degree.items() if dg == 1 and n not in terminals}
        if not prunable:
            return edges
        edges = {e for e in edges if e[0] not in prunable and e[1] not in prunable}


def _spanning_tree_of_subgraph(nodes: Set[str], adj: Dict[str, Set[str]]) -> Set[Pair]:
    sub_edges = [(1.0, u, v) for u in sorted(nodes) for v in sorted(adj[u])
                 if v in nodes and u < v]
    return set(_kruskal(nodes, sub_edges))


def kou_steiner(adj: Dict[str, Set[str]], terminals: Sequence[str]) -> Set[Pair]:
    """Metric closure over terminals -> MST -> expand paths -> re-span -> prune."""
    terms = sorted(set(terminals))
    if len(terms) < 2:
        return set()
    trees = {t: bfs(adj, [t]) for t in terms}
    closure = []
    for i, u in enumerate(terms):
        dist_u = trees[u][0]
        for v in terms[i + 1:]:
            if v not in dist_u:
                raise ValueError("terminals %r and %r are not connected" % (u, v))
            closure.append((float(dist_u[v]), u, v))
    mst = _kruskal(terms, closure)
    nodes: Set[str] = set(terms)
    for u, v in mst:
        u, v = _pair(u, v)
        path = _walk_up(trees[u][1], v)
        for a, b in path:
            nodes.add(a)
            nodes.add(b)
    tree = _spanning_tree_of_subgraph(nodes, adj)
    return _prune_nonterminal_leaves(tree, set(terms))


def mehlhorn_steiner(adj: Dict[str, Set[str]], terminals: Sequence[str]) -> Set[Pair]:
    """Voronoi-partition 2-approximation: one multi-source BFS, then the
    terminal distance graph's MST, expanded and pruned like Kou."""
    terms = sorted(set(terminals))
    if len(terms) < 2:
        return set()
    for t in terms:
        if t not in adj:
            raise ValueError("terminal %r not in graph" % (t,))
    dist, par = bfs(adj, terms)
    source: Dict[str, str] = {}
    for v, pv in par.items():  # discovery order: parents come first
        source[v] = v if pv is None else source[pv]
    best: Dict[Pair, Tuple[int, str, str]] = {}
    for u in sorted(adj):
        if u not in source:
            continue
        for v in sorted(adj[u]):
            if u >= v or v not in source or source[u] == source[v]:
                continue
            key = _pair(source[u], source[v])
            cand = (dist[u] + 1 + dist[v], u, v)
            if key not in best or cand < best[key]:
                best[key] = cand
    mst = _kruskal(terms, [(float(w), a, b) for (a, b), (w, _, _) in best.items()])
    if len(mst) < len(terms) - 1:
        raise ValueError("terminals are not mutually reachable")
    nodes: Set[str] = set(terms)
    for key in mst:
        _, u, v = best[key]
        for e in _walk_up(par, u) + _walk_up(par, v):
            nodes.update(e)
        nodes.update((u, v))
    tree = _spanning_tree_of_subgraph(nodes, adj)
    return _prune_nonterminal_leaves(tree, set(terms))


STEINER = {"greedy": greedy_online_stp, "kou": kou_steiner, "mehlhorn": mehlhorn_steiner}


def steiner_forest(adj: Dict[str, Set[str]], terminals: Sequence[str],
                   algorithm: str) -> List[Tuple[List[str], Set[Pair]]]:
    """Run a STEINER baseline per connected component of the terminals.

    Returns (sorted component terminals, tree edges) per component,
    ordered by smallest terminal; a lone terminal has no edges.
    Terminals outside adj are ignored.
    """
    build = STEINER[algorithm]
    terms = sorted(set(t for t in terminals if t in adj))
    pending = set(terms)
    out: List[Tuple[List[str], Set[Pair]]] = []
    for t in terms:
        if t not in pending:
            continue
        comp = sorted(pending.intersection(bfs(adj, [t])[0]))
        pending.difference_update(comp)
        out.append((comp, build(adj, comp) if len(comp) >= 2 else set()))
    return out


def steiner_window_hopsets(terminals: List[str], g, scores: Dict[str, float],
                           p: IsgParams, algorithm: str) -> List[Hopset]:
    """Baseline subgraph construction: a Steiner tree per terminal
    component instead of bounded neighborhoods, for run/bench ablation."""
    out: List[Hopset] = []
    for terms, edges in steiner_forest(g.undirected, terminals, algorithm):
        adj: Dict[str, Set[str]] = {t: set() for t in terms}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        hops = bfs(adj, terms)[0]
        out.append(window_hopset(terms, g, scores, p, {n: hops[n] for n in sorted(adj)}, edges))
    return out
