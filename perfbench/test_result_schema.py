"""Schema test for the benchmark's result: no timing gates.

Run from the repository root:

    python3 -m pytest -q perfbench/test_result_schema.py

It runs the short rollout workload in both modes, as the benchmark is run,
and checks the last stdout line and the --out file against BENCHMARK.json.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"git_rev", "src_digest", "nproc", "python", "numpy", "blas",
            "threads"}


def test_benchmark_declaration():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        ["explore", "rollout", "drrn"]
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "default seed" in workload["why"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["better"] in ("higher", "lower")
    names = [m["name"] for m in BENCHMARK["end_to_end"] +
             BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))


def _run(tmp_path, trace):
    out = tmp_path / f"result{trace}.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollout",
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), \
        json.loads(out.read_text())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_and_file(tmp_path, trace, section):
    result, saved = _run(tmp_path, trace)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {k: saved[k] for k in RESULT_KEYS} == result
    assert ENV_KEYS <= set(saved["env"])
    assert set(saved["env"]["threads"].values()) == {"1"}


def test_refuses_to_run_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in (ROOT / "perfbench").glob("*.*"):
        (bench_dir / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
