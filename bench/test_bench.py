"""Smoke test of the benchmark: every workload at its smoke size, untraced
and traced, through the same command line the benchmark is run with.

    python3 -m pytest -q bench/test_bench.py
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_and_record(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def test_benchmark_json_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record = result_and_record(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert record["digest_agrees"]
    assert set(record["env"]) >= {"git_revision", "python", "numpy", "blas", "nproc",
                                  "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_consistent_spans(workload):
    result, record = result_and_record(run_bench(workload, 1))
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["lp.solves"] > 0 and metrics["lp.pivots"] > 0
    assert metrics["robust_game.tables"] > 0 and metrics["coop.stability_lps"] > 0
    if workload == "stress-serial":
        assert metrics["stress.excess_calls"] > 0
        assert metrics["distributions.sample_extremal_calls"] == 4
        assert metrics["stress.degenerate_samples"] == record["results"][0]["degenerate_samples"]

    with open(ROOT / record["spans_file"], newline="", encoding="utf-8") as fh:
        spans = list(csv.DictReader(fh))
    start = {s["id"]: float(s["start_s"]) for s in spans}
    end = {s["id"]: float(s["end_s"]) for s in spans}
    root_of = {}
    for s in spans:  # parents precede their children
        root_of[s["id"]] = s["id"] if s["parent"] == "-1" else root_of[s["parent"]]
        if s["parent"] != "-1":
            assert start[s["parent"]] <= start[s["id"]] <= end[s["id"]] <= end[s["parent"]]
    self_sum = {}
    for s in spans:
        self_sum[root_of[s["id"]]] = self_sum.get(root_of[s["id"]], 0.0) + float(s["self_s"])
    roots = [s for s in spans if s["parent"] == "-1"]
    assert {s["name"] for s in roots} == {"bench.setup", "bench.op"}
    for s in roots:
        duration = end[s["id"]] - start[s["id"]]
        assert abs(self_sum[s["id"]] - duration) <= 0.01 * duration


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("stress-serial", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".bench_out").exists()
