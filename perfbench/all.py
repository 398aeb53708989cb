"""Run every workload once and print all of its metrics.

    python3 perfbench/all.py --seed N [--trace 0|1]

Each workload runs through run.py, in the order of BENCHMARK.json, with the
same seed and for the run_seconds it names.  The tables run.py prints (every
end-to-end metric by name and unit, failed_ratio included; with --trace 1
every per-layer metric too) are passed through.  The exit code is 1 if any
workload failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if lines else proc.stderr, flush=True)
        if proc.returncode != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
