"""Smoke test of the benchmark itself (not part of the repository's tests/).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once at tiny sizes, with and without tracing, and checks
that each declared metric is reported with its unit and that no task failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_no_task_fails(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert f"{workload}  {m['name']} = " in proc.stdout
    assert f"{workload}  error_rate = 0 " in proc.stdout


def test_design_maps_every_layer_metric():
    design = json.loads((HERE / "design.json").read_text())
    mapped = [name for group in design["layer_metrics"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for group in design["layer_metrics"]:
        for pair in group["moves"] + group["steady"]:
            metric, workload = pair.split(" @ ")
            assert metric in end_to_end and workload in WORKLOADS
    assert set(design["workloads"]) == set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
