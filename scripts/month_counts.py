"""Counts and wall time of the full 744 h reference month.

Runs ``frostsim.driver.run(CONFIG)``, the bundled winter with the default
config or with the config file CONFIG, in this process with the BLAS and
OpenMP thread counts pinned to 1, and prints one JSON object:

- ``picard`` and ``picard_max``: the sum and the largest entry of
  ``RunSummary.picard_iterations``, and ``worst_step``: the 1-based
  number of the first step with that largest entry;
- ``steps_ge20`` and ``steps_ge30``: the numbers of steps with 20 or more
  and with 30 or more Picard iterations;
- ``halvings`` and ``factorisations``: the sums of ``RunSummary.halvings``
  and of ``RunSummary.factorisations``, the transport factorisations
  of the substeps that succeeded;
- ``mechanics_factorisations`` and ``damage_iterations``: the sums of
  ``RunSummary.mechanics_factorisations``, the factorisations of the
  reduced mechanics stiffness, and of ``RunSummary.damage_iterations``,
  the damage iterations of the mechanics solves;
- ``transport_solves``: the calls of ``transport_solver.solve_sparse``,
  counted by wrapping that module attribute, as the traced benchmark
  does; failed substeps included;
- ``wall_s``: wall seconds of the ``driver.run`` call;
- ``sha256``: the SHA-256 of the probe CSV of the run's records;
- ``failed_substeps``: for each substep that failed and was halved, its
  step, start hour, length, message and residual history;
- ``fallbacks``: the 1-based numbers of the steps with a substep that
  succeeded after the Picard safeguard dropped its Newton term, found
  from ``NonlinearResult.fallback`` by wrapping
  ``transport_solver.nonlinear_iterate``;
- ``peak_rss_mb``, printed by ``main`` alone: ``ru_maxrss``, the peak
  resident memory of the process after its one run (MB = 2**20 bytes).

Run from the repository root, for instance on the spec02 month:

    python3 scripts/month_counts.py
    echo '{"ice": {"psd_file": "spec02", "n": 0.13}}' > spec02.json
    python3 scripts/month_counts.py spec02.json
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from frostsim import driver, transport_solver
from frostsim.errors import StepFailureError
from frostsim.transport_solver import TransportProblem


def counts(config: dict | str | Path) -> dict:
    """The object ``main`` prints, for ``driver.run(config)``."""
    failed = []
    solves = []
    dropped = []
    fallbacks = []
    step = TransportProblem.step
    solve = transport_solver.solve_sparse
    iterate = transport_solver.nonlinear_iterate

    def recording_step(self, state, dt, **options):
        dropped.clear()
        try:
            out = step(self, state, dt, **options)
        except StepFailureError as err:
            failed.append((state.t, dt, str(err), err.residuals))
            raise
        if dropped:
            fallbacks.append(state.t)
        return out

    def counting_solve(A, b):
        solves.append(1)
        return solve(A, b)

    def recording_iterate(*args, **kwargs):
        result = iterate(*args, **kwargs)
        if result.fallback:
            dropped.append(1)
        return result

    TransportProblem.step = recording_step
    transport_solver.solve_sparse = counting_solve
    transport_solver.nonlinear_iterate = recording_iterate
    try:
        start = time.perf_counter()
        summary = driver.run(config)
        wall = time.perf_counter() - start
    finally:
        TransportProblem.step = step
        transport_solver.solve_sparse = solve
        transport_solver.nonlinear_iterate = iterate

    with tempfile.TemporaryDirectory() as tmp:
        probe = Path(tmp) / "probes.csv"
        driver.write_probe_csv(summary.records, probe)
        sha = hashlib.sha256(probe.read_bytes()).hexdigest()
    picard = summary.picard_iterations
    dt_step = summary.config["time"]["dt_s"]
    return {
        "picard": int(picard.sum()),
        "picard_max": int(picard.max()),
        "worst_step": int(picard.argmax()) + 1,
        "steps_ge20": int((picard >= 20).sum()),
        "steps_ge30": int((picard >= 30).sum()),
        "halvings": int(summary.halvings.sum()),
        "factorisations": int(summary.factorisations.sum()),
        "mechanics_factorisations":
            int(summary.mechanics_factorisations.sum()),
        "damage_iterations": int(summary.damage_iterations.sum()),
        "transport_solves": len(solves),
        "wall_s": round(wall, 2),
        "sha256": sha,
        "failed_substeps": [
            {"step": int(t // dt_step) + 1, "t_h": t / 3600.0, "dt_s": dt,
             "message": message, "residuals": residuals}
            for t, dt, message, residuals in failed],
        "fallbacks": sorted({int(t // dt_step) + 1 for t in fallbacks}),
    }


def main() -> None:
    if len(sys.argv) > 2:
        sys.exit("usage: month_counts.py [CONFIG.json]")
    out = counts(sys.argv[1] if len(sys.argv) == 2 else {})
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
