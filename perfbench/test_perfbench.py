"""Tests of the benchmark itself: python3 -m pytest perfbench

The smoke runs simulate two steps per workload, so the whole file takes
well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_lines(stdout):
    return [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_metric_on_every_workload(trace):
    proc = bench("--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = result_lines(proc.stdout)
    assert len(results) == len(workloads.WORKLOADS)
    kind = "per_layer" if trace == "1" else "end_to_end"
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in DECLARED[kind]}
    assert json.loads(proc.stdout.splitlines()[-1]) == results[-1]


def test_traced_smoke_counts_what_each_workload_must_do():
    proc = bench("--smoke", "--trace", "1")
    by_name = dict(zip(workloads.WORKLOADS, result_lines(proc.stdout)))
    value = {name: {m: v["value"] for m, v in r["metrics"].items()}
             for name, r in by_name.items()}
    assert value["reference"]["driver.snapshots"] >= 1
    assert value["fine_pore"]["driver.output_bytes"] == 0
    assert value["fine_mesh_mild"]["ice.frozen_elements"] == 0
    assert value["reference"]["ice.frozen_elements"] > 0
    for v in value.values():
        assert v["transport_solver.solves"] > 0
        assert v["linalg.solves"] == v["transport_solver.solves"] \
            + v["mechanics.solves"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "reference", "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not result_lines(proc.stdout)


def test_mild_climate_is_seeded_and_above_freezing():
    assert workloads.mild_climate(3, 24) == workloads.mild_climate(3, 24)
    assert workloads.mild_climate(3, 24) != workloads.mild_climate(4, 24)
    for seed in range(200):
        assert min(row[1] for row in workloads.mild_climate(seed, 24)) > 0.0


def test_baseline_tolerance_passes_numerics_and_fails_physics():
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    tolerance = baseline["tolerance"]
    ref = baseline["reference"]
    nudged = dict(ref, peak_corner_pp=ref["peak_corner_pp"] * (1 + 1e-3),
                  final_theta=[t + 0.01 for t in ref["final_theta"]])
    assert run.baseline_deviation(nudged, ref, tolerance)[0] <= 1.0
    # spec01 -> spec02 shifts the peak corner pressure by more than 10 %
    pressure_only = {"peak_corner_pp": tolerance["peak_corner_pp"]}
    assert run.baseline_deviation(baseline["fine_pore"], ref,
                                  pressure_only)[0] > 1.0


def test_self_time_excludes_children_and_missing_layers_are_named():
    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 1

    tracer = spans.Tracer()
    tracer.wrap(Layer, "outer", "mechanics.solve")
    tracer.wrap(Layer, "inner", "mechanics.solve_sparse")
    Layer().outer()
    Layer().outer()
    metrics, missing = spans.layer_metrics(tracer, writes_output=False)
    assert metrics["mechanics.solves"] == 2
    assert metrics["mechanics.assembly_s"] == pytest.approx(
        metrics["mechanics.solve_s"] - metrics["mechanics.linear_solve_s"])
    assert "transport_solver.solve_s" in missing
    assert "transport_solver.solve_s" not in metrics
    assert "driver.output_s" not in missing
