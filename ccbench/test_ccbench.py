"""The benchmark's own tests: reduced-size runs of every workload.

    python3 -m pytest ccbench

Each test starts ``run.py --small`` as a benchmark run does and checks the shape
of its result line against ``BENCHMARK.json``; a fixed seed must give the
same input digest and the same count metrics on every run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# contour_fuzz is not in BENCHMARK.json (see README.md) but stays runnable
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["contour_fuzz"]
# per-layer metrics derived from clocks; every other one must repeat exactly
TIMED = {"pipeline.pool_busy_frac", "trace.overhead_frac"}


def _run(workload, trace, seed=3, root=ROOT):
    cmd = [sys.executable, str(root / "ccbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_shape(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = _result(_run(workload, 0))
    _check_shape(result, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["inputs_repeat"] is True
    assert detail["threads"]["pool_workers"] <= detail["threads"]["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_inputs_repeat_for_a_seed(workload):
    d1, r1 = _result(_run(workload, 1))
    d2, r2 = _result(_run(workload, 1))
    _check_shape(r1, BENCH["per_layer"])
    assert d1["input_digest"] == d2["input_digest"]
    for m in BENCH["per_layer"]:
        if m["unit"] == "s" or m["name"].endswith(".self_frac") or m["name"] in TIMED:
            continue
        assert r1["metrics"][m["name"]]["value"] == r2["metrics"][m["name"]]["value"], m["name"]


def test_other_seed_gives_other_inputs(tmp_path):
    digests = []
    for seed in (3, 4):
        cmd = [sys.executable, str(ROOT / "ccbench" / "inputs.py"), "--workload", "contour_fuzz"]
        cmd += ["--seed", str(seed), "--out", str(tmp_path / str(seed)), "--small"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout.strip().splitlines()[-1])["digests"])
    assert digests[0] != digests[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "ccbench", tmp_path / "ccbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("arch_cohort", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
