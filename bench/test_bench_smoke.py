"""Smoke test of the benchmark: every workload runs end to end with a tiny
epoch budget and reports what BENCHMARK.json declares. No timing assertions."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_EPOCHS = {"train-readme": "3,10,10", "train-64ch": "1,2,2", "decode-readme": "3,10,10"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--epochs", TINY_EPOCHS[workload]],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def assert_declared(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_end_to_end_metric(workload):
    metrics = result_of(run_bench(ROOT, workload, 0))["metrics"]
    assert_declared(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_layer_metric():
    metrics = result_of(run_bench(ROOT, "decode-readme", 1))["metrics"]
    assert_declared(metrics, SPEC["per_layer"])
    assert metrics["params.adam_step_calls"]["value"] == metrics["training.steps"]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "decode-readme", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_scaling():
    probe = speed.SpeedProbe()
    # probes of twice the reference time at 0.0, 0.5, 1.0 and 10.0 s
    probe._starts = [0.0, 0.5, 1.0, 10.0]
    probe._seconds = [2 * speed.REFERENCE_S] * 4
    late = 10.0 - speed.WINDOW_S - 0.2  # ends just within reach of the 10 s probe
    scaled = probe.scaled([0.4, 0.6, late], [0.2, 0.1, 0.3])
    # the first interval holds the 0.5 s probe; a machine at half speed halves them all
    expected = [(0.2 - 2 * speed.REFERENCE_S) / 2, 0.1 / 2, 0.3 / 2]
    assert np.allclose(scaled, expected)
    with pytest.raises(RuntimeError):
        probe.scaled([5.0], [0.1])
