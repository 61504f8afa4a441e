"""Smoke tests of the benchmark itself: every workload at tiny sizes, in
both modes.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LAYERS = json.load(open(os.path.join(ROOT, "perfbench", "layers.json")))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_declared_metrics_and_checks_every_output(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
             "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    checked = re.search(r"(\d+) of (\d+) outputs checked", p.stderr)
    assert checked and checked.group(1) == checked.group(2) != "0", p.stderr[-3000:]
    assert result["failed"] == 0, p.stderr[-3000:]
    assert result["correct"] is True


def test_layer_map_names_only_declared_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    mapped = [n for layer in LAYERS["layers"] for n in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(LAYERS["end_to_end"]) == e2e
    for layer in LAYERS["layers"]:
        assert set(layer["measured_on"]) <= workloads
        for metric, workload in layer["moves"] + layer["no_change"]:
            assert metric in e2e and workload in workloads


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout.strip() == ""
