"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

Run from the repository root (the file name keeps it out of the main
suite's collection, because it starts many interpreters):

    python3 -m pytest -q perfbench/tests/smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
                  "--smoke")
    result = _result(proc)
    _check_metrics(result, BENCH["end_to_end"])
    assert "error_rate" in proc.stdout
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_traced_run_prints_every_per_layer_metric():
    result = _result(_bench("--workload", "decode", "--seed", "3", "--seconds", "0",
                            "--trace", "1", "--smoke"))
    _check_metrics(result, BENCH["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    self_times = sum(values[m["name"]] for m in BENCH["per_layer"]
                     if m["unit"] == "s" and not m["name"].startswith("trace."))
    assert self_times == pytest.approx(values["trace.wall_s"], rel=0.05)
    for name in ("eeg.load_recording_csv.rows", "forest.train.nodes", "voice.synthesize.samples"):
        assert values[name] > 0, name


def test_benchmark_json_lists_what_the_code_prints():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        list(run.tracing.PER_LAYER_METRICS)
    assert {w["name"] for w in BENCH["workloads"]} == set(run.wl.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "decode", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("n, percentile, beyond", [(5, 100, 0), (11, 9, 10), (20, 50, 10),
                                                   (40, 75, 10), (100, 90, 10)])
def test_tail_percentile_leaves_ten_samples_beyond(n, percentile, beyond):
    values = [float(i) for i in range(n)]
    p, value, got_beyond = run.tail_percentile(values)
    assert (p, got_beyond) == (percentile, beyond)
    assert sum(v > value for v in values) == beyond
