"""Run every workload once untraced and once traced, and print a table.

    python3 perfbench/report.py [--seconds 45] [--held-out]

For each workload this prints every end-to-end metric with its unit,
whether the correctness gates held, and the layers that took the most
self time in the traced run, as a share of the traced pass's wall time.
`pass_s` on the train workload is the wall time of `train_bundle` plus
`ModelBundle.save`, that is, the train time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOADS  # noqa: E402

TOP_LAYERS = 6


def bench(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (workload, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    return json.loads(lines[0]), json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--held-out", action="store_true",
                    help="use each workload's held-out seed instead of its dev seed")
    args = ap.parse_args(argv)
    env_shown = False
    for workload, spec in WORKLOADS.items():
        seed = spec["held_out" if args.held_out else "dev"]
        info, plain = bench(workload, seed, args.seconds, 0)
        _, traced = bench(workload, seed, args.seconds, 1)
        if not env_shown:
            print("env %s" % json.dumps(info["env"], sort_keys=True))
            env_shown = True
        ok = plain["correct"] and traced["correct"]
        print("\n%s  seed %d  correct=%s  passes %d+%d" % (
            workload, seed, ok, plain["attempted"], traced["attempted"]))
        for name, m in plain["metrics"].items():
            print("  %-22s %14.4f %s" % (name, m["value"], m["unit"]))
        layer = traced["metrics"]
        wall = layer["trace.wall_s"]["value"]
        times = sorted(((m["value"], name) for name, m in layer.items()
                        if m["unit"] == "s" and not name.startswith("trace.")
                        and name not in ("cli.import_s", "cli.bundle_load_s")),
                       reverse=True)
        print("  traced pass %.3f s, tracing overhead %.1f %%, unattributed %.3f s"
              % (wall, layer["trace.overhead_pct"]["value"],
                 layer["trace.unattributed_s"]["value"]))
        for value, name in times[:TOP_LAYERS]:
            print("    %-26s %9.3f s  %5.1f %%" % (name, value, 100.0 * value / wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
