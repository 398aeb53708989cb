"""catmat benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
package in src/.  The run

1. writes the workload's matrix files from --seed (corpus.py) under
   .perfbench_work/NAME/, with the output each command must produce
   (recorded in perfbench/expected/ by record.py);
2. runs the command list through catmat.cli.main in a fresh interpreter
   (workload.py) for S seconds and checks every output;
3. times `import catmat.cli` in SETUP_SAMPLES fresh interpreters before that
   and as many after it (setup_s is the median of all of them);
   every end-to-end time is scaled to the reference host speed
   (hostspeed.py);
4. prints a table of every metric, then one JSON line with the end-to-end
   metrics (--trace 0) or the per-layer ones (--trace 1).

The exit code is 0 when every output was correct, 1 when any was not, and 2
when the run could not start (no src/catmat in the working directory).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402

# The self-test faults and the workload each is injected into.
FAULT_WORKLOADS = {"cert": "certify-dense", "verdict": "decide-batch"}
SETUP_SAMPLES = 8  # before and again after the measured interpreter
WORK = ".perfbench_work"
# Times the import between two host-speed readings, in seconds at the
# reference speed; argv[1] is this directory, for hostspeed.
IMPORT_PROBE = (
    "import sys, time; sys.path.append(sys.argv[1]); import hostspeed; "
    "hostspeed.kernel(); k = hostspeed.kernel_ms(5); t = time.perf_counter(); import catmat.cli; "
    "t = time.perf_counter() - t; k = (k + hostspeed.kernel_ms(5)) / 2; "
    "print(t * hostspeed.REF_MS / k)"
)


def benchmark_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def attach_expectations(plan: dict, fault: str | None) -> None:
    """Give every file of the plan the output recorded for it."""
    workload = plan["workload"]
    if workload == "oracle-search":
        return
    with open(os.path.join(HERE, "expected", workload + ".json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    for cmd in plan["commands"]:
        for f in cmd.get("files", [cmd.get("file")]):
            f["expect"] = recorded[f["key"]]
    if fault == "verdict":
        # Only the batch's copy of the first file is recorded wrongly; its
        # --explain and report commands keep the true verdict.
        files = plan["commands"][0]["files"]
        line = "ABSENT (recorded wrongly)" if files[0]["expect"]["line"] == "EXISTS" else "EXISTS"
        files[0] = dict(files[0], expect=dict(files[0]["expect"], line=line))
    plan["fault"] = fault


def run_child(argv: list[str], env: dict, timeout: float) -> str:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def src_lines(src: str) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(src, "catmat", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="catmat benchmark: one measured run of one workload")
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-tests")
    parser.add_argument("--fault", choices=FAULT_WORKLOADS,
                        help="inject a known fault to show the correctness gate fires (self-tests)")
    args = parser.parse_args(argv)
    if args.fault and args.workload != FAULT_WORKLOADS[args.fault]:
        parser.error(f"--fault {args.fault} applies only to --workload {FAULT_WORKLOADS[args.fault]}")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "catmat", "cli.py")):
        print(f"error: no catmat package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = benchmark_spec()
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = corpus.write_plan(args.workload, args.seed, work, args.quick)
    attach_expectations(plan, args.fault)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    probe = [sys.executable, "-c", IMPORT_PROBE, HERE]
    run_child(probe, env, 60)  # compiles the bytecode the samples then load
    samples = 2 if args.quick else SETUP_SAMPLES
    setup = [float(run_child(probe, env, 60)) for _ in range(samples)]
    child = [sys.executable, os.path.join(HERE, "workload.py"), plan_path,
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    result = json.loads(run_child(child, env, 170))
    setup += [float(run_child(probe, env, 60)) for _ in range(samples)]
    for path in glob.glob(os.path.join(work, "*.json")) + [os.path.join(work, "matrices")]:
        if os.path.basename(path) != "trace.json":
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)

    calib = result["calib_ms"]
    info = {
        "reps": result["reps"],
        "commands": result["commands"],
        "src_lines": src_lines(src),
        "host.calib_ms": statistics.median(calib),
        "failed_ratio": result["failed"] / result["attempted"],
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace} reps={info['reps']} src_lines={info['src_lines']} "
          f"commands={info['commands']} host.calib_ms start/end="
          f"{statistics.median(calib[:5]):.3f}/{statistics.median(calib[5:]):.3f} "
          f"measured wall_s={result['raw_wall_s']:.6f}")
    if args.trace:
        # The replays run inside the same repetitions, so the end-to-end
        # figures of a traced run are not reported.
        values = dict(result["per_layer"], **info)
        wanted = spec["per_layer"]
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup), **info)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name in [m["name"] for m in wanted] + ["failed_ratio"]:
        print(f"{name:34s} {values[name]:18.6f} {units.get(name, 'ratio')}")
    for message in result["messages"]:
        print("FAIL " + message)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
