"""One benchmark step in a fresh interpreter: prepare inputs, run the
measured passes, or only set up.  Started by run.py with PYTHONPATH
pointing at the checkout's src/; prints one JSON object as its last line.

    python3 perfbench/child.py '<json spec>'

A pass is what one `provstp run` or `provstp train` invocation does after
its imports, driven through the same calls those commands make.  Each
pass runs in a process forked from one that has only imported the program
and loaded its models, so every pass starts with cold module caches and
an empty embedding text cache.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import time
import traceback

from spans import ROOT, Tracer, install

WINDOW_SECONDS = 10.0
TRAIN_SEED = 7       # benign capture that longgap's models are trained on
TRAIN_DURATION = 600.0
# The train workload fits half that capture, so a run holds twice the passes.
TRAIN_WORKLOAD_DURATION = 300.0
LONGGAP_DURATION = 2000.0   # 200 windows of 10 s


def _count_lines(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def prepare(spec: dict) -> dict:
    """Write the workload's input from its seed (and train models if needed)."""
    import provstp.cli as cli
    from provstp.evalgen import GenConfig, write_scenario

    work, workload, seed = spec["work"], spec["workload"], spec["seed"]
    out = {}
    if workload == "longgap":
        # Models depend only on the sources and the environment they are
        # trained in, so runs of one checkout in one environment share them.
        with open(__file__, "rb") as fh:
            key = hashlib.sha256(fh.read() + json.dumps(
                [spec["src_sha256"], environment()], sort_keys=True).encode("utf-8"))
        out["model_dir"] = os.path.join(spec["scratch"], "models-" + key.hexdigest()[:16])
        if not os.path.isdir(out["model_dir"]):
            train_events, _ = write_scenario("benign-only", TRAIN_SEED,
                                             os.path.join(work, "train"),
                                             GenConfig(duration=TRAIN_DURATION))
            bundle, _ = cli.train_bundle(cli._batches(train_events, WINDOW_SECONDS),
                                         os.path.basename(train_events))
            bundle.save(os.path.join(work, "models"))
            try:
                os.replace(os.path.join(work, "models"), out["model_dir"])
            except OSError:
                # A concurrent run stored the same models first.
                if not os.path.isdir(out["model_dir"]):
                    raise
        out["input"], out["truth"] = write_scenario(
            "apt-long-gap", seed, os.path.join(work, "input"),
            GenConfig(duration=LONGGAP_DURATION, attack_start=5, gap=55))
    else:
        out["input"], _ = write_scenario("benign-only", seed,
                                         os.path.join(work, "input"),
                                         GenConfig(duration=TRAIN_WORKLOAD_DURATION))
    out["lines"] = _count_lines(out["input"])
    return out


def _tree_digest(root: str) -> str:
    """sha256 over every file's relative path and bytes under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def _peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM)."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _timed_batches(batches, acc: dict):
    """Yield window batches, recording per window how long the producer took
    to deliver it (`prod`: parsing and windowing) and how long the consumer
    spent on it (`cons`: from the yield until it asks for the next window)."""
    it = iter(batches)
    while True:
        asked = time.perf_counter()
        batch = next(it, None)
        if batch is None:
            return
        got = time.perf_counter()
        acc["prod"].append(got - asked)
        acc["events"] += len(batch.events)
        yield batch
        acc["cons"].append(time.perf_counter() - got)


def run_pass(cli, spec: dict, bundle, tracer) -> dict:
    """Replay the input through the detector as `provstp run` does."""
    cfg = cli.RunConfig(cache_capacity=spec["capacity"])
    store_dir = os.path.join(spec["pass_dir"], "store")
    out_dir = os.path.join(spec["pass_dir"], "alerts")
    state = cli._fresh_state(cfg, bundle, store_dir)
    counters: dict = {}
    acc = {"events": 0, "prod": [], "cons": []}
    root = tracer.open(ROOT) if tracer else None
    started = time.perf_counter()
    for batch in _timed_batches(cli._batches(spec["input"], cfg.window_seconds,
                                             counters), acc):
        for alert in cli.process_window(batch, state):
            cli.emit_alert(alert, out_dir)
    wall = time.perf_counter() - started
    if tracer:
        tracer.close(root)

    os.makedirs(out_dir, exist_ok=True)
    sc = state.counters
    res = {
        "wall_s": wall, **acc,
        "counters": counters, "alert_digest": _tree_digest(out_dir),
        "state": {
            "anomaly.terminals": sc.get("terminals", 0),
            "cache.evicted": sc.get("evicted", 0),
            "cache.restored": sc.get("restored", 0),
            "detect.alerts": sc.get("alerts", 0),
            "embed.text_cache_entries": len(getattr(bundle.embedding, "_text_cache", ())),
            "detect.emitted_signatures": len(state.emitted),
            "cache.store_records": _store_records(store_dir),
            "cache.store_bytes": _tree_bytes(store_dir),
            "cache.resident_members": state.cache.member_total(),
        },
    }
    from provstp.evalgen import evaluate

    alerts = []
    for path in sorted(glob.glob(os.path.join(out_dir, "alert-*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            alerts.append(json.load(fh))
    with open(spec["truth"], "r", encoding="utf-8") as fh:
        res["eval"] = evaluate(alerts, json.load(fh))
    return res


def _store_records(store_dir: str) -> int:
    records = os.path.join(store_dir, "hopsets")
    return len(os.listdir(records)) if os.path.isdir(records) else 0


def train_pass(cli, spec: dict, tracer) -> dict:
    """Fit and save the five model artifacts as `provstp train` does."""
    model_dir = os.path.join(spec["pass_dir"], "models")
    counters: dict = {}
    acc = {"events": 0, "prod": [], "cons": []}
    root = tracer.open(ROOT) if tracer else None
    started = time.perf_counter()
    bundle, info = cli.train_bundle(
        _timed_batches(cli._batches(spec["input"], WINDOW_SECONDS, counters), acc),
        os.path.basename(spec["input"]))
    bundle.save(model_dir)
    wall = time.perf_counter() - started
    if tracer:
        tracer.close(root)
    return {
        "wall_s": wall, **acc,
        "counters": counters, "tau": info["tau"],
        "model_digest": _tree_digest(model_dir),
        "state": {"embed.text_cache_entries":
                  len(getattr(bundle.embedding, "_text_cache", ()))},
    }


def _ref_loop_ms() -> float:
    """Fastest of five runs of a fixed pure-Python loop: how fast this CPU
    was just before the pass, since other load on the host moves it."""
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        best = min(best, time.perf_counter() - started)
    return 1000.0 * best


def environment() -> dict:
    """Versions and kernel path that a measurement depends on."""
    import numpy
    import scipy
    import provstp._kernels as kernels

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "using_numba": bool(kernels.USING_NUMBA)}


def set_up(spec: dict):
    """Import the program and load its models, timing both."""
    started = time.perf_counter()
    import provstp.cli as cli
    import_s = time.perf_counter() - started
    bundle, load_s = None, 0.0
    if spec.get("model_dir"):
        started = time.perf_counter()
        bundle = cli.ModelBundle.load(spec["model_dir"])
        load_s = time.perf_counter() - started
    res = {"import_s": import_s, "bundle_load_s": load_s,
           "src": os.path.dirname(cli.__file__), "env": environment()}
    return cli, bundle, res


def one_pass(cli, bundle, spec: dict) -> dict:
    res = {"ref_loop_ms": _ref_loop_ms()}
    tracer = None
    if spec["traced"]:
        tracer = Tracer()
        install(tracer)
    if spec["workload"] == "train":
        res.update(train_pass(cli, spec, tracer))
    else:
        res.update(run_pass(cli, spec, bundle, tracer))
    res["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        res["self_s"] = tracer.self_times()
        res["calls"] = tracer.calls
        res["counts"] = tracer.counts
    return res


def forked_pass(cli, bundle, spec: dict) -> dict:
    """Run one pass in a process forked from this one.

    This process has imported the program and loaded the models but run
    nothing, so every pass starts from the same cold state, as a fresh
    `provstp run` would after its imports, without paying for them again.
    Forking is safe here: the only other threads are numpy's idle BLAS
    workers, and no call is in flight when the fork happens.
    """
    result_path = spec["pass_dir"] + ".json"
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            res = one_pass(cli, bundle, spec)
            with open(result_path, "w", encoding="utf-8") as fh:
                json.dump(res, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        return {"error": "pass in %s ended with wait status %d" % (spec["pass_dir"], status)}
    with open(result_path, "r", encoding="utf-8") as fh:
        res = json.load(fh)
    os.remove(result_path)
    return res


def serve(spec: dict) -> dict:
    """Set up once, then run forked passes: at least spec["min_passes"],
    and no more than fit in spec["seconds"].  With spec["trace"], every
    second pass is traced."""
    cli, bundle, res = set_up(spec)
    if spec["mode"] == "setup":
        return res
    res["passes"] = []
    deadline = time.monotonic() + spec["seconds"]
    while True:
        k = len(res["passes"])
        pass_dir = os.path.join(spec["work"], "pass-%d" % k)
        started = time.monotonic()
        res["passes"].append(forked_pass(cli, bundle, dict(
            spec, pass_dir=pass_dir, traced=spec["trace"] and k % 2 == 1)))
        shutil.rmtree(pass_dir, ignore_errors=True)
        # Stop once another pass as long as this one would end past the deadline.
        if k + 1 >= spec["min_passes"] and 2 * time.monotonic() - started > deadline:
            return res


def main(argv) -> int:
    spec = json.loads(argv[1])
    res = prepare(spec) if spec["mode"] == "prepare" else serve(spec)
    print(json.dumps(res, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
