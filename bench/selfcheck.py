"""Check that the traced run sees every layer.

    python3 bench/selfcheck.py [--seed N]

Runs the traced pass of every workload in ``BENCHMARK.json`` and fails
unless each per-layer metric is nonzero on at least one workload.  The
traced run itself already fails when a wrapped function keeps a binding
that bypasses its wrapper; this adds the end-to-end view, so that a metric
fed by a missed binding cannot silently read 0.  Run it after changing the
benchmark or the library's public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seen: dict = {m["name"]: [] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
        argv += ["--seed", str(args.seed), "--seconds", "1", "--trace", "1"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode:
            print(f"{workload}: traced run failed\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{workload}: traced run returned wrong outputs", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            if metric["value"]:
                seen[name].append(workload)
    missing = sorted(name for name, where in seen.items() if not where)
    for name, where in seen.items():
        print(f"{name:36s} {', '.join(where) or 'ZERO EVERYWHERE'}")
    if missing:
        print(f"per-layer metrics zero on every workload: {missing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
