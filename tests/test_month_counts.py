"""scripts/month_counts.py on a short run."""

import hashlib
import importlib.util
import json
import resource
import sys
from pathlib import Path

from frostsim import driver, transport_solver
from frostsim.transport_solver import TransportProblem

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "month_counts.py"
spec = importlib.util.spec_from_file_location("month_counts", SCRIPT)
month_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(month_counts)

CONFIG = {"mesh": {"h": 0.2}, "time": {"steps": 3}}


def test_counts_transport_solves(monkeypatch):
    calls = []
    solve = transport_solver.solve_sparse

    def counting(A, b):
        calls.append(1)
        return solve(A, b)

    monkeypatch.setattr(transport_solver, "solve_sparse", counting)
    step = TransportProblem.step
    counts = month_counts.counts(CONFIG)
    # the wrappers are taken off again
    assert transport_solver.solve_sparse is counting
    assert TransportProblem.step is step

    assert counts["transport_solves"] == len(calls)
    # every Picard update solves at least once
    assert counts["transport_solves"] >= counts["picard"] > 0
    summary = driver.run(CONFIG)
    assert counts["picard"] == summary.picard_iterations.sum()
    assert counts["factorisations"] == summary.factorisations.sum()
    assert counts["mechanics_factorisations"] \
        == summary.mechanics_factorisations.sum()
    # every step solves the mechanics at least once
    assert counts["damage_iterations"] == summary.damage_iterations.sum() \
        >= max(counts["mechanics_factorisations"], 3)
    assert counts["halvings"] == 0
    assert counts["failed_substeps"] == []


def test_config_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "spec02.json"
    path.write_text(json.dumps({"mesh": {"h": 0.2}, "time": {"steps": 2},
                                "ice": {"psd_file": "spec02", "n": 0.13}}))
    monkeypatch.setattr(sys, "argv", ["month_counts.py", str(path)])
    month_counts.main()
    counts = json.loads(capsys.readouterr().out)
    summary = driver.run(path)
    assert summary.config["ice"]["psd_file"] == "spec02"
    probe = tmp_path / "probes.csv"
    driver.write_probe_csv(summary.records, probe)
    assert counts["sha256"] == hashlib.sha256(probe.read_bytes()).hexdigest()
    assert counts["picard"] == summary.picard_iterations.sum()
    assert counts["fallbacks"] == []
    # the process peak after the run, in MB
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0.0 < counts["peak_rss_mb"] <= round(peak, 2)


def test_fallbacks_name_their_steps(monkeypatch):
    iterate = transport_solver.nonlinear_iterate
    calls = []

    def second_falls_back(*args, **kwargs):
        result = iterate(*args, **kwargs)
        calls.append(1)
        result.fallback = len(calls) == 2
        return result

    monkeypatch.setattr(transport_solver, "nonlinear_iterate",
                        second_falls_back)
    assert month_counts.counts(CONFIG)["fallbacks"] == [2]
    assert transport_solver.nonlinear_iterate is second_falls_back
