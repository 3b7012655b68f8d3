"""The program surface the benchmark reads, checked by running it.

perfbench drives `provstp run` and `provstp train` through the `cli` and
`detect` names it wraps, counts one `read_events` yield per event, and
reads `len(batch.events)`, `len(g.edges)` and `g.rejected`.  A traced run
of one short pass per workload checks every gate on that surface; it
writes only under the checkout's `.perfbench/`.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload,seed", [("train", 7), ("longgap", 42)])
def test_traced_benchmark_run_passes_every_gate(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr[-2000:]
