"""The frost-onset window of the bundled winter: hours 240 onward, as the
benchmark's ``reference`` workload builds it (perfbench/workloads.py)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from frostsim import driver

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)


def run_window(tmp_path, steps, sections=()):
    climate = tmp_path / "climate.csv"
    workloads.winter_window(ROOT, steps, climate)
    config = {"climate": {"file": str(climate)}, "time": {"steps": steps}}
    for name, values in sections:
        config.setdefault(name, {}).update(values)
    summary = driver.run(config)
    for name, values in sections:
        assert summary.config[name].items() >= values.items()
    return summary


def test_frost_onset_step(tmp_path):
    # the surface freezes in step 4; plain Picard on the chord capacity
    # took 44 iterations there, the Newton term for its storage 18
    summary = run_window(tmp_path, 6)
    assert summary.halvings.sum() == 0
    assert summary.picard_iterations[3] <= 25


def test_fine_mesh_cold_start(tmp_path):
    # at h = 0.015 the forward-Euler predictor of step 1 extrapolates the
    # initial transient to a centroid at -54 degC, below the property
    # fits; the step then starts from its start state and runs
    summary = run_window(tmp_path, 6, [("mesh", {"h": 0.015})])
    assert summary.picard_iterations.shape == (6,)
    assert np.all(summary.picard_iterations > 0)


# h = 0.015 halves a few substeps on the way (4 at the last count); its
# halvings are recorded, not bounded
@pytest.mark.parametrize("name, values, halvings_bounded", [
    ("numerics", {"lumped_capacity": True}, True),
    ("time", {"gamma": 1.0}, True),
    ("numerics", {"relax": 0.7}, True),
    ("mesh", {"h": 0.015}, False),
    ("ice", {"psd_file": "spec02", "n": 0.13}, True),
], ids=["lumped", "gamma1", "relax0.7", "h0.015", "spec02"])
def test_stress_window_stays_physical(tmp_path, name, values,
                                      halvings_bounded):
    summary = run_window(tmp_path, workloads.WINDOW_STEPS, [(name, values)])
    assert summary.halvings.shape == (workloads.WINDOW_STEPS,)
    if halvings_bounded:
        assert summary.halvings.sum() == 0
    phi = np.concatenate([rec.phi for rec in summary.records]
                         + [summary.transport.phi])
    assert phi.min() >= 0.0 and phi.max() <= 1.0
    assert summary.pore_pressure_history.min() >= 0.0
    assert np.all(np.diff(summary.damage_history, axis=0) >= 0.0)
    assert np.all(np.diff(summary.kappa_history, axis=0) >= 0.0)
