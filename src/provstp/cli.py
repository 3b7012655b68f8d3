"""Command surface: train, run, gen, eval, bench under one binary.

Configuration precedence is flags > --config JSON file > built-in
defaults.  Every machine-readable output is JSON on stdout; diagnostics
go to stderr; nonzero exit on fatal errors.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Tuple, get_args,
                    get_type_hints)

import numpy as np

from .anomaly import (ModelBundle, VaeConfig, anomaly_score,
                      build_stability_table, calibrate_threshold,
                      process_vectors, reconstruction_errors, train_vae,
                      window_process_features)
from .cache import DEFAULT_CAPACITY, DEFAULT_EPSILON, CacheState, EvictionStore
from .detect import (DEFAULT_GRUBBS_ALPHA, DetectorState, emit_alert,
                     process_window)
from .embed import IdfTable, sentenceize, train_embedding
from .evalgen import SCENARIOS, GenConfig, evaluate, write_scenario
from .ingest import (DEFAULT_WINDOW_SECONDS, ParseError, WindowBatch,
                     read_events, window_stream)
from .model import PROCESS, WindowGraph, build_window_graph
from .stp import STEINER, IsgParams, fanout

STP_CHOICES = ("isg",) + tuple(STEINER)


@dataclass
class RunConfig:
    """Pipeline knobs shared across subcommands."""

    window_seconds: float = DEFAULT_WINDOW_SECONDS
    cache_capacity: int = DEFAULT_CAPACITY
    epsilon: float = DEFAULT_EPSILON
    alpha: float = 0.9
    beta: float = 100.0
    gamma: float = 1.0
    theta: int = 10
    grubbs_alpha: float = DEFAULT_GRUBBS_ALPHA
    model_dir: Optional[str] = None
    store_dir: Optional[str] = None
    stp: str = "isg"

    def isg_params(self) -> IsgParams:
        return IsgParams(alpha=self.alpha, beta=self.beta,
                         gamma=self.gamma, theta=self.theta)


CONFIG_FLAGS = {
    "window-seconds": dict(type=float, help="window length in seconds (default 10)"),
    "cache-capacity": dict(type=int, help="cache budget in member nodes (default 10000)"),
    "epsilon": dict(type=float, help="energy decay per window of age (default 0.8)"),
    "alpha": dict(type=float, help="per-hop importance decay (default 0.9)"),
    "beta": dict(type=float, help="anomaly weight in importance (default 100)"),
    "gamma": dict(type=float, help="fanout weight in importance (default 1)"),
    "theta": dict(type=int, help="hopset size bound (default 10)"),
    "grubbs-alpha": dict(type=float, help="outlier-test significance (default 0.05)"),
    "model-dir": dict(help="directory with trained model artifacts"),
    "store-dir": dict(help="directory for evicted-hopset spill (default: temp)"),
    "stp": dict(choices=STP_CHOICES, help="per-window subgraph algorithm (default isg)"),
}


def _add_config_flags(sub: argparse.ArgumentParser, names: Iterable[str] = CONFIG_FLAGS):
    """Register --config and the named pipeline flags; the config file
    accepts every RunConfig key whichever flags a subcommand reads."""
    grp = sub.add_argument_group("pipeline configuration")
    grp.add_argument("--config", default=argparse.SUPPRESS,
                     help="JSON file with configuration keys (flags win)")
    for name in names:
        grp.add_argument("--" + name, default=argparse.SUPPRESS, **CONFIG_FLAGS[name])


def _accepts(hint, value) -> bool:
    """Whether a config-file value fits a RunConfig field of type hint: an
    int fits a float field, a bool fits no int field, and None only an
    Optional one."""
    allowed = get_args(hint) or (hint,)
    return type(value) in allowed or (type(value) is int and float in allowed)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    known = get_type_hints(RunConfig)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit("cannot read configuration %s: %s" % (config_path, exc))
        if not isinstance(doc, dict):
            raise SystemExit("configuration %s is not a JSON object" % config_path)
        for key, value in doc.items():
            name = key.replace("-", "_")
            if name not in known:
                raise SystemExit("unknown configuration key %r in %s" % (key, config_path))
            if not _accepts(known[name], value):
                raise SystemExit("configuration key %r in %s has a value of the wrong type: %r"
                                 % (key, config_path, value))
            if name == "stp" and value not in STP_CHOICES:
                raise SystemExit("configuration key %r in %s is not one of %s: %r"
                                 % (key, config_path, ", ".join(STP_CHOICES), value))
            setattr(cfg, name, value)
    for name in known:
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    # windows are whole milliseconds; NaN fails every comparison
    inf = float("inf")
    for name, ok, rule in [
            ("window_seconds", 0.5 < cfg.window_seconds * 1000.0 < inf, "round to at least 1 ms"),
            ("epsilon", 0.0 < cfg.epsilon <= 1.0, "lie in (0, 1]"),
            ("alpha", 0.0 < cfg.alpha <= 1.0, "lie in (0, 1]"),
            ("beta", 0.0 <= cfg.beta < inf, "be finite and 0 or more"),
            ("gamma", 0.0 <= cfg.gamma < inf, "be finite and 0 or more"),
            ("theta", cfg.theta >= 1, "be at least 1"),
            ("cache_capacity", cfg.cache_capacity >= 0, "be 0 or more"),
            ("grubbs_alpha", 0.0 < cfg.grubbs_alpha < 1.0, "lie strictly between 0 and 1")]:
        if not ok:
            raise SystemExit("%s must %s, got %r" % (name, rule, getattr(cfg, name)))
    return cfg


def _batches(path: str, window_seconds: float,
             counters: Optional[Dict[str, int]] = None) -> Iterator[WindowBatch]:
    return window_stream(read_events(path, counters), window_seconds, counters)


def train_bundle(batches: Iterable[WindowBatch], source: str,
                 vae_epochs: Optional[int] = None) -> Tuple[ModelBundle, dict]:
    """Fit all five model artifacts from benign window batches."""
    if vae_epochs is not None and vae_epochs < 0:
        raise ValueError("epochs must be 0 or more, got %d" % vae_epochs)
    observations = []
    n_windows = 0
    for batch in batches:
        g = build_window_graph(batch.events)
        observations.extend(window_process_features(g))
        n_windows += 1
    if not observations:
        raise ValueError("no process observations in the training input")

    texts = set()
    for _, _, cmdline, paths, quads in observations:
        texts.add(cmdline)
        texts.update(paths)
        texts.update(quads)
    corpus = [s for s in (sentenceize(t) for t in sorted(texts)) if s]
    embedding = train_embedding(corpus)

    counts: Dict[str, int] = {}
    for _, _, _, paths, quads in observations:
        for key in set(paths) | set(quads):
            counts[key] = counts.get(key, 0) + 1
    idf = IdfTable(p=len(observations), counts=counts)

    vectors = process_vectors(observations, embedding, idf)
    names = [name for _, name, _, _, _ in observations]
    history: Dict[str, List[np.ndarray]] = defaultdict(list)
    for name, vec in zip(names, vectors):
        history[name].append(vec)

    vae_cfg = VaeConfig(epochs=vae_epochs) if vae_epochs is not None else None
    vae = train_vae(vectors, vae_cfg)
    stability = build_stability_table(dict(history))
    errors = reconstruction_errors(vae, vectors)
    as_values = [anomaly_score(float(r), stability.get(name))
                 for name, r in zip(names, errors)]
    threshold = calibrate_threshold(as_values, source)
    bundle = ModelBundle(embedding, idf, vae, stability, threshold)
    info = {"observations": len(observations), "windows": n_windows,
            "tau": threshold.tau}
    return bundle, info


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if not cfg.model_dir:
        print("train needs --model-dir for the model artifacts", file=sys.stderr)
        return 2
    try:
        batches = _batches(args.input, cfg.window_seconds)
        bundle, info = train_bundle(batches, os.path.basename(args.input),
                                    vae_epochs=args.epochs)
        bundle.save(cfg.model_dir)
    except (OSError, ParseError, ValueError) as exc:
        print("train failed: %s" % exc, file=sys.stderr)
        return 2
    info["model_dir"] = cfg.model_dir
    print(json.dumps(info, sort_keys=True))
    return 0


def _surrogate_scorer(g: WindowGraph) -> Tuple[Dict[str, float], float]:
    """Model-free stand-in for benchmarking without trained artifacts:
    the top few percent of processes by fanout become terminals."""
    procs = [n for n, rec in g.nodes.items() if rec.kind == PROCESS]
    scores = {n: 0.0 for n in procs}
    top = sorted(procs, key=lambda n: (-fanout(n, g), n))[:max(3, len(procs) // 20)]
    for n in top:
        scores[n] = 1.0
    return scores, 0.5


def _fresh_state(cfg: RunConfig, bundle: Optional[ModelBundle],
                 store_dir: str, scorer=None) -> DetectorState:
    cache = CacheState(store=EvictionStore(store_dir),
                       capacity=cfg.cache_capacity,
                       epsilon=cfg.epsilon)
    return DetectorState(cache=cache, bundle=bundle, params=cfg.isg_params(),
                         alpha_g=cfg.grubbs_alpha, algorithm=cfg.stp,
                         scorer=scorer)


def _load_bundle(model_dir: str) -> Optional[ModelBundle]:
    """The bundle in model_dir, or None after one line on stderr."""
    try:
        return ModelBundle.load(model_dir)
    except (OSError, ValueError, KeyError) as exc:
        print("cannot load models from %s: %s" % (model_dir, exc), file=sys.stderr)
        return None


def cmd_run(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if not cfg.model_dir:
        print("run needs --model-dir with trained artifacts", file=sys.stderr)
        return 2
    bundle = _load_bundle(cfg.model_dir)
    if bundle is None:
        return 2

    store_dir = cfg.store_dir or tempfile.mkdtemp(prefix="provstp-store-")
    counters: Dict[str, int] = {}
    n_events = 0
    n_windows = 0
    try:
        state = _fresh_state(cfg, bundle, store_dir)
        os.makedirs(args.out, exist_ok=True)
        started = time.perf_counter()
        cpu_started = time.process_time()
        for batch in _batches(args.input, cfg.window_seconds, counters):
            n_events += len(batch.events)
            n_windows += 1
            for alert in process_window(batch, state):
                emit_alert(alert, args.out)
    except (OSError, ParseError) as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if not cfg.store_dir:
            shutil.rmtree(store_dir, ignore_errors=True)
    seconds = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started

    summary = {
        "events": n_events,
        "windows": n_windows,
        "alerts": state.counters.get("alerts", 0),
        "terminals": state.counters.get("terminals", 0),
        "evicted": state.counters.get("evicted", 0),
        "restored": state.counters.get("restored", 0),
        "rejected": counters.get("rejected_ops", 0),
        "dropped_late": counters.get("dropped_late", 0),
        "blank_lines": counters.get("blank_lines", 0),
        "illegal_pairs": state.counters.get("illegal_pairs", 0),
        "seconds": round(seconds, 6),
        "cpu_s": round(cpu_s, 6),
        "eps": round(n_events / seconds, 2) if seconds > 0 else None,
        "out": args.out,
        "algorithm": cfg.stp,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    gen_cfg = GenConfig(duration=args.duration, rate=args.rate, hosts=args.hosts,
                        window_seconds=cfg.window_seconds,
                        attack_start=args.attack_start,
                        stage_step=args.stage_step, gap=args.gap)
    try:
        events_path, truth_path = write_scenario(args.scenario, args.seed,
                                                 args.out_dir, gen_cfg)
    except ValueError as exc:
        print("gen failed: %s" % exc, file=sys.stderr)
        return 2
    with open(events_path, "r", encoding="utf-8") as fh:
        count = sum(1 for _ in fh)
    print(json.dumps({"events": events_path, "truth": truth_path,
                      "count": count}, sort_keys=True))
    return 0


def _is_string_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        with open(args.truth, "r", encoding="utf-8") as fh:
            truth = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print("cannot read truth file: %s" % exc, file=sys.stderr)
        return 2
    if not (isinstance(truth, dict) and isinstance(truth.get("nodes"), dict)
            and isinstance(truth.get("campaigns"), list)
            and all(_is_string_list(c) for c in truth["campaigns"])):
        print("cannot read truth file: %s: not an object with a \"nodes\" object and a "
              "\"campaigns\" list of string lists" % args.truth, file=sys.stderr)
        return 2
    if not os.path.isdir(args.alerts):
        print("eval failed: no alert directory %s" % args.alerts, file=sys.stderr)
        return 2
    alerts = []
    for path in sorted(glob.glob(os.path.join(args.alerts, "alert-*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                alert = json.load(fh)
            if not (isinstance(alert, dict) and (isinstance(alert.get("members"), dict)
                                                 or _is_string_list(alert.get("members")))):
                raise ValueError("not an object with a \"members\" object or string list")
            alerts.append(alert)
        except (OSError, ValueError) as exc:
            print("eval failed: %s: %s" % (path, exc), file=sys.stderr)
            return 2
    print(json.dumps(evaluate(alerts, truth), sort_keys=True))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    counters: Dict[str, int] = {}
    try:
        batches = list(_batches(args.input, cfg.window_seconds, counters))
    except (OSError, ParseError) as exc:
        print("bench failed: %s" % exc, file=sys.stderr)
        return 2
    n_events = sum(len(b.events) for b in batches)
    if not n_events:
        print("bench input has no events", file=sys.stderr)
        return 2

    bundle = None
    scorer = _surrogate_scorer
    if cfg.model_dir:
        bundle = _load_bundle(cfg.model_dir)
        if bundle is None:
            return 2
        scorer = None

    best = best_cpu = float("inf")
    alerts = 0
    for _ in range(max(1, args.repeat)):
        store_dir = tempfile.mkdtemp(prefix="provstp-bench-")
        state = _fresh_state(cfg, bundle, store_dir, scorer=scorer)
        started, cpu_started = time.perf_counter(), time.process_time()
        alerts = 0
        for batch in batches:
            alerts += len(process_window(batch, state))
        seconds = time.perf_counter() - started
        cpu_seconds = time.process_time() - cpu_started
        shutil.rmtree(store_dir, ignore_errors=True)
        best, best_cpu = min(best, seconds), min(best_cpu, cpu_seconds)
    print(json.dumps({
        "algorithm": cfg.stp,
        "events": n_events,
        "seconds": round(best, 6),
        "cpu_seconds": round(best_cpu, 6),
        "eps": round(n_events / best, 2),
        "windows": len(batches),
        "alerts": alerts,
    }, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provstp",
        description="Streaming campaign detector over system-audit event graphs.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="fit model artifacts on a benign stream")
    p_train.add_argument("--input", required=True, help="events.jsonl ('-' for stdin)")
    p_train.add_argument("--epochs", type=int, default=None,
                         help="reconstruction-model training epochs")
    _add_config_flags(p_train, ("window-seconds", "model-dir"))
    p_train.set_defaults(func=cmd_train)

    p_run = subs.add_parser("run", help="stream events through the detector")
    p_run.add_argument("--input", required=True, help="events.jsonl ('-' for stdin)")
    p_run.add_argument("--out", required=True, help="directory for alert JSON/DOT files")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_gen = subs.add_parser("gen", help="generate a labeled synthetic scenario")
    p_gen.add_argument("--scenario", required=True, choices=SCENARIOS)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--duration", type=float, default=60.0,
                       help="seconds of traffic to generate")
    p_gen.add_argument("--rate", type=float, default=40.0,
                       help="events per second per host")
    p_gen.add_argument("--hosts", type=int, default=1)
    p_gen.add_argument("--attack-start", type=int, default=12,
                       help="window index of the first attack stage")
    p_gen.add_argument("--stage-step", type=int, default=2,
                       help="windows between attack stages")
    p_gen.add_argument("--gap", type=int, default=55,
                       help="window gap for the long-gap scenario")
    _add_config_flags(p_gen, ("window-seconds",))
    p_gen.set_defaults(func=cmd_gen)

    p_eval = subs.add_parser("eval", help="score an alert directory against truth")
    p_eval.add_argument("--alerts", required=True, help="directory of alert-*.json")
    p_eval.add_argument("--truth", required=True, help="truth.json from gen")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = subs.add_parser("bench", help="time detection over a prepared stream")
    p_bench.add_argument("--input", required=True, help="events.jsonl")
    p_bench.add_argument("--repeat", type=int, default=1,
                         help="timing repetitions; the best is reported")
    _add_config_flags(p_bench, [n for n in CONFIG_FLAGS if n != "store-dir"])
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
