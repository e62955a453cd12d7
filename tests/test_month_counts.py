"""scripts/month_counts.py on a short run."""

import importlib.util
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
    assert counts["halvings"] == 0
    assert counts["failed_substeps"] == []
