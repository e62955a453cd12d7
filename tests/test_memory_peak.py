"""scripts/memory_peak.py on the benchmark's two-step smoke inputs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "memory_peak.py"


def load_script():
    spec = importlib.util.spec_from_file_location("memory_peak", SCRIPT)
    memory_peak = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(memory_peak)
    return memory_peak


@pytest.mark.parametrize("workload", ["reference", "fine_mesh_mild"])
def test_smoke_run_reports_both_peaks(workload):
    # a process of its own, so that ru_maxrss is the run's and not the
    # test session's
    proc = subprocess.run([sys.executable, str(SCRIPT), "--workload",
                           workload, "--seed", "3", "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["workload"], out["seed"], out["steps"]) == (workload, 3, 2)
    # numpy and scipy alone take more than 20 MB resident
    assert out["ru_maxrss_mb"] > 20.0
    assert 0.0 < out["tracemalloc_final_mb"] < out["tracemalloc_peak_mb"] \
        < out["ru_maxrss_mb"]
    # the library code is file-backed, the heap anonymous; neither share
    # exceeds the peak of the whole process
    for key in ("pss_file_mb", "pss_anon_mb"):
        assert 0.0 < out[key] < out["ru_maxrss_mb"]


def test_proportional_sizes_without_smaps_rollup(monkeypatch):
    memory_peak = load_script()

    def unreadable(*args, **kwargs):
        raise FileNotFoundError("/proc/self/smaps_rollup")

    monkeypatch.setattr(memory_peak, "open", unreadable, raising=False)
    assert memory_peak.proportional_sizes() == {"pss_file_mb": None,
                                                "pss_anon_mb": None}


def test_unknown_workload_fails():
    memory_peak = load_script()
    with pytest.raises(ValueError, match="unknown workload"):
        memory_peak.peaks("no_such", 7, smoke=True)
