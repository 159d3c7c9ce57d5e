"""Smoke test for the benchmark itself, at tiny size.

Every workload must emit every metric BENCHMARK.json names, with its unit
and the attempted/failed counts; ``--seed`` must change the generated clips
and nothing else may; and without the sources the benchmark must fail
without a result. Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(run_py: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=run_py.parent.parent)


def _result(workload: str, seed: int, trace: int) -> dict:
    proc = _run(BENCH / "run.py", workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(workload, trace):
    result = _result(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_train_loss_repeats_across_processes():
    first = _result("train", 5, 0)["metrics"]["train_loss"]["value"]
    assert _result("train", 5, 0)["metrics"]["train_loss"]["value"] == first


def test_seed_changes_the_clips():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    spec = workloads.tiny(workloads.SPECS["decode"])

    def frames(seed):
        inputs = workloads.make_inputs(spec, seed)
        return [c.frames for c in inputs.split.train + inputs.split.dev + inputs.eval_clips]

    again = frames(1)
    assert all(np.array_equal(a, b) for a, b in zip(frames(1), again))
    assert not any(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(frames(2), again))


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path / "bench" / "run.py", "train", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
