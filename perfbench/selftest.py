#!/usr/bin/env python3
"""Self-test of the benchmark at a small size (about a minute after the build).

    python3 perfbench/selftest.py

For every workload it checks that:
  - two runs with the same seed print identical sim_* values, and every run
    passes its correctness checks;
  - the untraced run prints exactly BENCHMARK.json's end-to-end metrics and
    the traced run exactly its per-layer metrics, with the declared units;
  - the traced run's critical-path stage sums match every fsync's latency.
It also checks that another seed changes the simulated results of the
seeded workloads. Exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "0.1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {workload}: checks failed\n{proc.stderr[-3000:]}")
    return result["metrics"]


def expect_metrics(workload, metrics, declared):
    got = {name: m["unit"] for name, m in metrics.items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        sys.exit(f"FAIL {workload}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                 f"units {[n for n in got if n in want and got[n] != want[n]]}")


def sim_values(metrics):
    return {name: m["value"] for name, m in metrics.items() if name.startswith("sim_")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        first = run(name, 1, 0)
        expect_metrics(name, first, spec["end_to_end"])
        if sim_values(run(name, 1, 0)) != sim_values(first):
            sys.exit(f"FAIL {name}: the same seed gave different sim_* values")
        if sim_values(run(name, 2, 0)) == sim_values(first):
            sys.exit(f"FAIL {name}: seed 2 gave the same sim_* values as seed 1")
        layers = run(name, 1, 1)
        expect_metrics(name, layers, spec["per_layer"])
        if layers["cp.fsync.stage_sum_mismatches"]["value"] != 0:
            sys.exit(f"FAIL {name}: critical-path stage sums differ from fsync latencies")
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
