"""Acceptance checks, one test per shipping criterion.

Run `pytest -sv tests/test_acceptance.py` to see one PASS/FAIL report
line per criterion (plain `pytest -v` shows the same verdicts as test
outcomes).  The suite trains its own models and generates every stream
it measures, so it runs from a clean checkout.
"""

import glob
import json
import math
import os
import random
import tempfile
import time

import numpy as np
import pytest

from provstp.anomaly import (ModelBundle, VaeConfig, dbscan, train_vae,
                             vae_loss_and_grads, _init_params)
from provstp.cache import CacheState, EvictionStore, _add_entry, energy, evict
from provstp.cli import main
from provstp.detect import DetectorState, grubbs_critical, grubbs_outliers, process_window
from provstp.evalgen import GenConfig, entity_id, evaluate, file_entity, write_scenario
from provstp.ingest import read_events, window_stream
from provstp.stp import (
    Hopset,
    IsgParams,
    MemberRec,
    greedy_online_stp,
    isg_hopset,
    kou_steiner,
    mehlhorn_steiner,
    merge_hopsets,
    optimal_steiner_bruteforce,
)
from streams import write_chain_stream
from test_anomaly import _normalize, oracle_dbscan

ATTACK_SEEDS = (41, 42, 43)
PUBLISHED_G = {3: 1.15, 10: 2.18, 20: 2.557, 50: 2.956}


def report(num, ok, detail):
    print("CRITERION %02d %s: %s" % (num, "PASS" if ok else "FAIL", detail))


class Rec:
    def __init__(self, ind, outd):
        self.in_degree = ind
        self.out_degree = outd


class Graph:
    def __init__(self, adj, recs):
        self.undirected = adj
        self.nodes = recs


def random_instance(rng):
    """Random connected graph with <= 12 nodes, 2-4 terminals, random scores."""
    n = rng.randrange(4, 13)
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
    recs = {a: Rec(rng.randrange(0, 4), rng.randrange(0, 4)) for a in names}
    terms = rng.sample(names, rng.randrange(2, 5))
    scores = {a: rng.uniform(0.0, 5.0) for a in names}
    return Graph(adj, recs), terms, scores


_INSTANCES = []


def stp_instances():
    if not _INSTANCES:
        rng = random.Random(1001)
        for _ in range(500):
            g, terms, scores = random_instance(rng)
            opt = len(optimal_steiner_bruteforce(g.undirected, terms))
            _INSTANCES.append((g, terms, scores, opt))
    return _INSTANCES


@pytest.fixture(scope="module")
def work_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def model_dir(work_root):
    write_scenario("benign-only", 7, str(work_root / "train"),
                   GenConfig(duration=600.0))
    target = work_root / "models"
    rc = main(["train", "--input", str(work_root / "train" / "events.jsonl"),
               "--model-dir", str(target)])
    assert rc == 0
    return target


def run_and_eval(events, truth_path, out_dir, store_dir, model, extra=()):
    rc = main(["run", "--input", str(events), "--model-dir", str(model),
               "--out", str(out_dir), "--store-dir", str(store_dir)] + list(extra))
    assert rc == 0
    alerts = []
    for path in sorted(glob.glob(os.path.join(str(out_dir), "alert-*.json"))):
        with open(path, encoding="utf-8") as fh:
            alerts.append(json.load(fh))
    with open(truth_path, encoding="utf-8") as fh:
        truth = json.load(fh)
    return alerts, evaluate(alerts, truth)


def test_criterion_01_offline_steiner_bounds():
    started = time.perf_counter()
    p = IsgParams()
    approx_violations = 0
    edge_violations = 0
    for g, terms, scores, opt in stp_instances():
        if len(kou_steiner(g.undirected, terms)) > 2 * opt:
            approx_violations += 1
        if len(mehlhorn_steiner(g.undirected, terms)) > 2 * opt:
            approx_violations += 1
        hopsets = [isg_hopset(t, g, scores, p) for t in sorted(terms)]
        merged = merge_hopsets(hopsets, p.theta)
        if sum(len(h.edges) for h in merged) > len(set(terms)) * p.theta:
            edge_violations += 1
    elapsed = time.perf_counter() - started
    ok = approx_violations == 0 and edge_violations == 0 and elapsed < 120.0
    report(1, ok, "500 graphs: %d approx violations (2x OPT), %d hopset edge-bound "
           "violations, %.1fs" % (approx_violations, edge_violations, elapsed))
    assert ok


def test_criterion_02_online_competitive_ratio():
    violations = 0
    for g, terms, _, opt in stp_instances():
        cost = len(greedy_online_stp(g.undirected, terms))
        k = len(set(terms))
        if cost > 2.0 * max(1.0, math.log2(k)) * opt:
            violations += 1
    ok = violations == 0
    report(2, ok, "streamed greedy within 2*max(1,log2 k)*OPT on 500 instances: "
           "%d violations" % violations)
    assert ok


def test_criterion_03_grubbs_critical_and_false_flags():
    max_err = max(abs(grubbs_critical(n, 0.05) - v) for n, v in PUBLISHED_G.items())
    rs = np.random.RandomState(7)
    flagged = sum(1 for _ in range(1000) if grubbs_outliers(list(rs.randn(20)), 0.05))
    rate = flagged / 1000.0
    ok = max_err <= 0.02 and rate <= 0.08
    report(3, ok, "critical-value max error %.4f (tol 0.02), false-flag rate "
           "%.3f (tol 0.08)" % (max_err, rate))
    assert ok


def test_criterion_04_vae_numerics():
    rs = np.random.RandomState(5)
    params = _init_params(4, 2, 1, rs)
    x = rs.randn(3, 4)
    eps = rs.randn(3, 1)
    _, grads = vae_loss_and_grads(params, x, eps, 1.0)
    h = 1e-5
    worst = 0.0
    for key in params:
        fd = np.zeros_like(params[key])
        it = np.nditer(params[key], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[key][idx]
            params[key][idx] = orig + h
            lp, _ = vae_loss_and_grads(params, x, eps, 1.0)
            params[key][idx] = orig - h
            lm, _ = vae_loss_and_grads(params, x, eps, 1.0)
            params[key][idx] = orig
            fd[idx] = (lp - lm) / (2 * h)
        rel = np.abs(grads[key] - fd) / np.maximum(1e-4, np.abs(grads[key]) + np.abs(fd))
        worst = max(worst, float(rel.max()))

    rs = np.random.RandomState(1)
    data = np.vstack([rs.randn(100, 16) * 0.5 + 2.0, rs.randn(100, 16) * 0.5 - 2.0])
    m = train_vae(data, VaeConfig(hidden=8, latent=3, epochs=10, seed=3))
    decreasing = all(m.epoch_losses[i + 1] < m.epoch_losses[i] for i in range(9))
    ok = worst < 1e-4 and decreasing
    report(4, ok, "gradient max relative error %.2e (tol 1e-4), loss strictly "
           "decreasing over 10 epochs: %s" % (worst, decreasing))
    assert ok


def test_criterion_05_dbscan_matches_bruteforce():
    rng = random.Random(505)
    rs = np.random.RandomState(505)
    mismatches = 0
    for _ in range(100):
        n = rng.randrange(20, 201)
        d = rng.randrange(2, 6)
        k = rng.randrange(1, 5)
        centers = rs.randn(k, d) * 4.0
        X = np.vstack([centers[rs.randint(k)] + rs.randn(d) * 0.5 for _ in range(n)])
        eps = rng.uniform(0.5, 1.5)
        min_pts = rng.randrange(3, 6)
        if _normalize(dbscan(X, eps, min_pts)) != \
                _normalize(oracle_dbscan(X, eps, min_pts)):
            mismatches += 1
    ok = mismatches == 0
    report(5, ok, "100 random point sets (<=200 points): %d label mismatches "
           "vs quadratic brute force" % mismatches)
    assert ok


def test_criterion_06_scenario_detection_quality(work_root, model_dir):
    plans = [
        ("apt-webshell", GenConfig(duration=300.0)),
        ("apt-sql-hijack", GenConfig(duration=300.0)),
        ("apt-long-gap", GenConfig(duration=800.0, attack_start=5, gap=55)),
    ]
    lines = []
    ok = True
    for scenario, cfg in plans:
        for seed in ATTACK_SEEDS:
            tag = "%s-%d" % (scenario, seed)
            started = time.perf_counter()
            data = work_root / ("c6-" + tag)
            events, truth = write_scenario(scenario, seed, str(data), cfg)
            _, metrics = run_and_eval(events, truth, data / "out",
                                      data / "store", model_dir)
            elapsed = time.perf_counter() - started
            good = (metrics["graph_recall"] == 1.0
                    and metrics["node_recall"] >= 0.9
                    and metrics["node_precision"] >= 0.1
                    and elapsed < 300.0)
            ok = ok and good
            lines.append("%s gr=%.2f nr=%.2f np=%.2f %.0fs" % (
                tag, metrics["graph_recall"], metrics["node_recall"],
                metrics["node_precision"], elapsed))

    data = work_root / "c6-benign"
    events, truth = write_scenario("benign-only", 99, str(data),
                                   GenConfig(duration=10200.0))
    alerts, _ = run_and_eval(events, truth, data / "out", data / "store", model_dir)
    windows = 10200.0 / 10.0
    benign_ok = len(alerts) / (windows / 1000.0) <= 1.0
    ok = ok and benign_ok
    lines.append("benign %d alerts over %d windows" % (len(alerts), int(windows)))
    report(6, ok, "; ".join(lines))
    assert ok


def test_criterion_07_long_gap_linkage_under_eviction(work_root, model_dir):
    host = "host0"
    stage_a_only = {entity_id(file_entity("/etc/cron.d/.hidden"), host),
                    entity_id(file_entity("/var/log/.cron.swp"), host)}
    stage_b_only = {entity_id(file_entity("/etc/gshadow"), host),
                    entity_id(file_entity("/tmp/.sx2.tgz"), host)}
    bundle = ModelBundle.load(str(model_dir))
    ok = True
    lines = []
    for seed in ATTACK_SEEDS:
        data = work_root / ("c7-%d" % seed)
        events, _ = write_scenario(
            "apt-long-gap", seed, str(data),
            GenConfig(duration=800.0, attack_start=5, gap=55))
        cache = CacheState(store=EvictionStore(str(data / "store")), capacity=40)
        st = DetectorState(cache=cache, bundle=bundle)
        spanning = 0
        for batch in window_stream(read_events(events)):
            for alert in process_window(batch, st):
                members = set(alert.members)
                if members & stage_a_only and members & stage_b_only:
                    spanning += 1
        evicted = st.counters.get("evicted", 0)
        restored = st.counters.get("restored", 0)
        good = evicted >= 1 and restored >= 1 and spanning >= 1
        ok = ok and good
        lines.append("seed %d: evicted=%d restored=%d spanning_alerts=%d" % (
            seed, evicted, restored, spanning))
    report(7, ok, "; ".join(lines))
    assert ok


def random_hopset(rng, tag, n_members):
    members = {}
    for i in range(n_members):
        members["%s-n%d" % (tag, i)] = MemberRec(
            as_score=rng.uniform(0.0, 8.0), hops=rng.randrange(0, 10),
            iv=rng.uniform(0.0, 500.0))
    ids = sorted(members)
    edges = {(a, b) for a, b in zip(ids, ids[1:])}
    return Hopset(terminals={ids[0]}, members=members, edges=edges,
                  has=sum(m.as_score for m in members.values()),
                  age=rng.randrange(0, 6), last_window=rng.randrange(0, 100),
                  attrs={n: {"kind": "file", "path": "/x/" + n} for n in ids},
                  edge_ops={e: "read" for e in edges})


def test_criterion_08_cache_roundtrip_and_eviction_order():
    rng = random.Random(808)
    store = EvictionStore(tempfile.mkdtemp(prefix="acc-store-"))
    mismatches = 0
    for i in range(1000):
        h = random_hopset(rng, "t%d" % i, rng.randrange(1, 8))
        if store.load(store.store(h)) != h:
            mismatches += 1

    order_bad = 0
    for trial in range(100):
        c = CacheState(store=EvictionStore(tempfile.mkdtemp(prefix="acc-ev-")),
                       capacity=0, epsilon=0.8)
        for j in range(rng.randrange(4, 12)):
            _add_entry(c, random_hopset(rng, "w%d-%d" % (trial, j),
                                        rng.randrange(1, 5)))
        total = c.member_total()
        c.capacity = total - rng.randrange(1, total)
        pool = dict(c.entries)
        expected = []
        left = total
        while left > c.capacity and pool:
            victim = min(pool, key=lambda hid: (energy(pool[hid], c.epsilon), hid))
            left -= len(pool[victim].members)
            expected.append(victim)
            del pool[victim]
        if evict(c) != expected:
            order_bad += 1
    ok = mismatches == 0 and order_bad == 0
    report(8, ok, "1000 store round-trips: %d mismatches; eviction order vs "
           "energy order: %d/100 trials off" % (mismatches, order_bad))
    assert ok


def test_criterion_09_throughput_and_stp_ablation(work_root, model_dir, capsys):
    data = work_root / "c9-million"
    events, _ = write_scenario("benign-only", 11, str(data),
                               GenConfig(duration=2500.0, rate=400.0))
    rc = main(["run", "--input", events, "--model-dir", str(model_dir),
               "--out", str(data / "out"), "--store-dir", str(data / "store")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    eps = summary["eps"]
    sustained = summary["events"] >= 1_000_000 and eps >= 20_000

    stream = work_root / "c9-wide.jsonl"
    n = write_chain_stream(str(stream), windows=17, procs=2000, private_files=1)
    assert n >= 100_000
    seconds = {}
    for algo in ("isg", "kou", "mehlhorn"):
        rc = main(["bench", "--input", str(stream), "--stp", algo,
                   "--cache-capacity", "1000000", "--repeat", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        seconds[algo] = doc["seconds"]
    kou_ratio = seconds["kou"] / seconds["isg"]
    mehl_ratio = seconds["mehlhorn"] / seconds["isg"]
    ablation = kou_ratio >= 3.0 and mehl_ratio >= 1.5
    ok = sustained and ablation
    with capsys.disabled():
        report(9, ok, "1M-event run at %.0f events/s (floor 20000); ablation on "
               "%d events: isg %.1fx faster than kou (floor 3.0), %.1fx faster "
               "than mehlhorn (floor 1.5)" % (eps, n, kou_ratio, mehl_ratio))
    os.remove(events)
    assert ok


def test_criterion_10_deterministic_alert_output(work_root, model_dir):
    data = work_root / "c10"
    events, truth = write_scenario("apt-webshell", 41, str(data),
                                   GenConfig(duration=300.0))
    manifests = []
    for sub in ("r1", "r2"):
        out = data / sub / "out"
        rc = main(["run", "--input", events, "--model-dir", str(model_dir),
                   "--out", str(out), "--store-dir", str(data / sub / "store")])
        assert rc == 0
        manifest = {}
        for path in sorted(glob.glob(str(out / "alert-*.json"))):
            with open(path, "rb") as fh:
                manifest[os.path.basename(path)] = fh.read()
        manifests.append(manifest)
    ok = manifests[0] == manifests[1] and len(manifests[0]) >= 1
    report(10, ok, "two identical runs produced %d alert files, byte-identical: "
           "%s" % (len(manifests[0]), manifests[0] == manifests[1]))
    assert ok
