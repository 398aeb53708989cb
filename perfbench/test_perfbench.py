"""Self-tests of the benchmark, on tiny inputs (--quick).

    python3 -m pytest -q perfbench

Every workload runs in both modes and reports exactly the metrics that
BENCHMARK.json names; the correctness gate fires on a corrupted certificate
and on a wrongly recorded verdict; and the benchmark refuses to run where
there is no program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import corpus  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_clean(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "5", "--trace", trace, "--quick")
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace == "1" and workload.startswith("certify"):
        assert result["metrics"]["verifier.failed"]["value"] == 0
        assert result["metrics"]["verifier.triples"]["value"] == sum(
            corpus.m3_total(M) for _, M in getattr(corpus, workload.replace("-", "_") + "_items")(True)
        )


@pytest.mark.parametrize("workload, fault", [("certify-dense", "cert"), ("decide-batch", "verdict")])
def test_gate_fires(workload, fault):
    code, lines = bench("--workload", workload, "--seed", "5", "--quick", "--fault", fault)
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert any(line.startswith("FAIL ") for line in lines)
    ratio = next(line for line in lines if line.startswith("failed_ratio"))
    assert float(ratio.split()[1]) > 0


def test_fault_refused_on_other_workload():
    code, lines = bench("--workload", "oracle-search", "--seed", "5", "--quick", "--fault", "verdict")
    assert code == 2 and not lines


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "certify-dense", "--seed", "1", "--trace", "0", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed, where):
        plan = corpus.write_plan("decide-batch", seed, str(tmp_path / where), quick=True)
        return [(os.path.basename(f["path"]), f["matrix"]) for f in plan["commands"][0]["files"]]

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "a") != inputs(4, "c")
