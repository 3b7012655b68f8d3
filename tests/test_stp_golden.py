"""Golden digests of the Steiner machinery's exact outputs.

On 50 seeded graphs, the edge sets of the greedy, Kou and Mehlhorn
forests and of the baseline window hopsets, and the members and edges
kept by merge_hopsets and _prune_to_bound, are hashed per algorithm.
Every graph holds grids, so terminals are joined by several shortest
paths: a change to the union-find or BFS code that takes another of two
equal paths changes a digest.
"""

import hashlib
import json
import random

import pytest

from provstp.detect import steiner_window_hopsets
from provstp.stp import IsgParams, _prune_to_bound, isg_hopset, merge_hopsets, steiner_forest
from test_stp import FakeGraph

N_GRAPHS = 50

GOLDEN = {
    "greedy": "90b53d3035d56f3e3ecbc25574625e5a7495e44b455f7dd5826b040d3a06bca4",
    "kou": "ac734463913cfba1a1cfa394ce7fdffac659fa2a10f1ff33c3d34b77b2806724",
    "mehlhorn": "a89398f19f14cae2fb2f2c1fea468c783bbc663e3940023f93badd50d4a359b2",
    "window_hopsets": "d7f1c7a851f15fc509bfe7e8af3cb7fee6c2a3a04159c6c9f599ca3594680e9a",
    "merge": "d6f23bc2e9513ae4047a1e2ebbeba109c2a631fa924bab3a33751b36226d5ebb",
    "prune": "9674c6bb734f93bedc0f4f902767a2b10364df4b6862558592ec71ee955055fd",
}


def _graph(rng, seed):
    """One to three grids of hex-named nodes with random chords."""
    pairs, names = [], []
    for blob in range(rng.randrange(1, 4)):
        w, h = rng.randrange(2, 6), rng.randrange(2, 6)
        ids = [hashlib.md5(("%d-%d-%d" % (seed, blob, i)).encode()).hexdigest()
               for i in range(w * h)]
        pairs += [(ids[i], ids[i + 1]) for i in range(w * h) if (i + 1) % w]
        pairs += [(ids[i], ids[i + w]) for i in range(w * h - w)]
        pairs += [tuple(rng.sample(ids, 2)) for _ in range(rng.randrange(0, w * h // 2 + 1))]
        names += ids
    return FakeGraph(pairs), names


def _doc(h):
    return [sorted(h.terminals), sorted((n, r.hops) for n, r in h.members.items()),
            sorted(h.edges)]


def _case(seed):
    """Outputs per algorithm, how many hopsets merge and prune cut down,
    and the baseline window hopsets themselves."""
    rng = random.Random(seed)
    g, names = _graph(rng, seed)
    terms = sorted(rng.sample(names, rng.randrange(2, min(8, len(names)) + 1)))
    stream = rng.sample(terms, len(terms))
    scores = {n: round(rng.uniform(-2.0, 3.0), 3) for n in names}
    p = IsgParams(theta=rng.randrange(2, 7))
    out = {}
    for algo in ("greedy", "kou", "mehlhorn"):
        forest = steiner_forest(g.undirected, stream if algo == "greedy" else terms, algo)
        out[algo] = sorted(set().union(*(edges for _, edges in forest)))
    window_hs = [steiner_window_hopsets(terms, g, scores, p, 3, algo)
                 for algo in ("greedy", "kou", "mehlhorn")]
    out["window_hopsets"] = [[_doc(h) for h in hs] for hs in window_hs]
    # two windows' hopsets per terminal: a merged group keeps one terminal
    # but up to three times theta members, so it must be pruned
    hs = []
    for t in stream:
        hs.append(isg_hopset(t, g, scores, IsgParams(theta=p.theta * 2)))
        shifted = {n: s + rng.uniform(-0.5, 0.5) for n, s in scores.items()}
        hs.append(isg_hopset(t, g, shifted, p))
    inputs = [(h.terminals, set(h.members)) for h in hs]
    merged = merge_hopsets(hs, p.theta)
    out["merge"] = [_doc(h) for h in merged]
    cut = sum(len(set().union(*(ms for ts, ms in inputs if ts <= m.terminals))) > len(m.members)
              for m in merged)
    out["prune"] = []
    for t in terms:
        h = isg_hopset(t, g, scores, IsgParams(theta=3 * p.theta))
        before = len(h.members)
        _prune_to_bound(h, p.theta)
        cut += before > len(h.members)
        out["prune"].append(_doc(h))
    return out, cut, window_hs


@pytest.fixture(scope="module")
def cases():
    return [_case(seed) for seed in range(N_GRAPHS)]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stp_outputs_match_golden_digest(cases, key):
    digest = hashlib.sha256()
    for out, _, _ in cases:
        digest.update(json.dumps(out[key], sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == GOLDEN[key]


def test_golden_cases_exercise_pruning(cases):
    assert sum(cut > 0 for _, cut, _ in cases) >= N_GRAPHS // 2


def test_window_hopsets_sum_has_in_sorted_member_order(cases):
    # a float sum in set order would follow PYTHONHASHSEED
    for _, _, window_hs in cases:
        for h in (h for hs in window_hs for h in hs):
            assert list(h.members) == sorted(h.members)
            assert h.has == sum(h.members[n].as_score for n in sorted(h.members))
