"""Smoke test of the benchmark itself: every workload at toy size, oracles on.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(cwd, *args):
    cmd = [sys.executable, *BENCH["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_toy_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program_sources(tmp_path):
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "--workload", BENCH["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_traced_run_names_a_layer_function_it_cannot_find(tmp_path):
    """A renamed layer function is a named failed operation, not a metric that reads 0."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    trainer = tmp_path / "src" / "xmodal" / "trainer.py"
    text = trainer.read_text(encoding="utf-8")
    assert "_validation_loss" in text
    trainer.write_text(text.replace("_validation_loss", "_renamed_validation_loss"),
                       encoding="utf-8")
    proc = run_bench(tmp_path, "--workload", "train_hard", "--seed", "5", "--seconds", "0",
                     "--trace", "1", "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 2
    assert "trainer.validation_ms" not in result["metrics"]
    assert "trace.function[xmodal.trainer._validation_loss]: not found" in proc.stderr
    assert "trace.metric[trainer.validation_ms]: no samples" in proc.stderr
