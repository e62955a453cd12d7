"""Span recording around the calls into frostsim's layers.

A traced sample wraps the public callables of each module from here, for
that process only; the samples that give the end-to-end figures install
none of these wrappers. Spans live in memory as (name, start, end,
parent) and go back to the driving process with the sample's result,
which adds the run id and writes them out.

A span's self time is its duration minus the time its child spans cover.
The program is single-threaded, so children never overlap and the part
they cover is the sum of their durations.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path


class Tracer:
    """Spans and counters recorded by the wrappers ``wrap`` installs."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, on_return=None, on_error=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``on_return(result, args, kwargs)`` and ``on_error(exc)`` update
        the counters; the exception is re-raised unchanged.
        """
        original = getattr(owner, attr)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                ends[idx] = time.perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[idx] = time.perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        setattr(owner, attr, traced)

    def as_records(self, run_id: int) -> list[list]:
        return [[name, start, end, parent, run_id] for name, start, end, parent
                in zip(self.names, self.starts, self.ends, self.parents)]


def install(tracer: Tracer) -> None:
    """Wrap the boundaries of every frostsim layer the benchmark reports."""
    import numpy as np

    from frostsim import climate_io, driver, ice, mechanics
    from frostsim import transport_solver as ts
    from frostsim.errors import StepFailureError

    counts = tracer.counts
    wrap = tracer.wrap

    def count_bytes(args, kwargs, path_index):
        path = kwargs["path"] if "path" in kwargs else args[path_index]
        counts["output_bytes"] += Path(path).stat().st_size

    def probe_written(_result, args, kwargs):
        count_bytes(args, kwargs, 1)

    def snapshot_written(_result, args, kwargs):
        counts["snapshots"] += 1
        count_bytes(args, kwargs, 2)

    wrap(driver, "validate_config", "driver.config")
    wrap(driver, "generate_lshape", "mesh.generate")
    wrap(driver, "load_climate", "climate_io.load")
    wrap(driver, "write_probe_csv", "driver.output", on_return=probe_written)
    wrap(driver, "write_field_snapshot", "driver.output",
         on_return=snapshot_written)
    wrap(climate_io.ClimateSeries, "sample", "climate_io.sample")

    def step_done(_state, _args, _kwargs):
        counts["substeps"] += 1

    def step_failed(exc):
        if isinstance(exc, StepFailureError):
            counts["step_failures"] += 1

    def picard_done(result, _args, _kwargs):
        counts["picard_iterations"] += result.iterations
        counts["picard_max"] = max(counts["picard_max"], result.iterations)

    def picard_failed(exc):
        if isinstance(exc, StepFailureError):
            counts["wasted_iterations"] += exc.iterations

    wrap(ts.TransportProblem, "__init__", "transport_solver.init")
    wrap(ts.TransportProblem, "advance", "transport_solver.advance")
    wrap(ts.TransportProblem, "step", "transport_solver.step",
         on_return=step_done, on_error=step_failed)
    wrap(ts, "nonlinear_iterate", "transport_solver.nonlinear_iterate",
         on_return=picard_done, on_error=picard_failed)
    wrap(ts, "solve_sparse", "transport_solver.solve_sparse")
    wrap(ts.KunzelCoefficients, "evaluate", "constitutive.evaluate")
    wrap(ts.KunzelCoefficients, "evaluate_step", "constitutive.evaluate")

    def pressure_done(_result, args, kwargs):
        theta = kwargs["theta"] if "theta" in kwargs else args[1]
        counts["frozen_elements"] += int(np.count_nonzero(np.asarray(theta) < 0.0))

    wrap(ice.IceModel, "pore_pressure", "ice.pore_pressure",
         on_return=pressure_done)
    wrap(ice.IceModel, "ice_content", "ice.ice_content")

    def mechanics_done(state, args, kwargs):
        prev = kwargs["prev"] if "prev" in kwargs else args[4]
        counts["damage_iterations"] += state.iterations
        counts["nonconverged"] += not state.converged
        grew = np.any(state.d_w > (prev.d_w if prev is not None else 0.0))
        counts["damaged_steps"] += bool(grew)

    wrap(mechanics.MechanicsProblem, "__init__", "mechanics.init")
    wrap(mechanics.MechanicsProblem, "solve", "mechanics.solve",
         on_return=mechanics_done)
    wrap(mechanics, "solve_sparse", "mechanics.solve_sparse")
    wrap(mechanics, "apply_dirichlet", "mechanics.apply_dirichlet")


# span name -> the per-layer metrics it feeds; a workload that records no
# call of a span its layers must make has those metrics reported missing
FEEDS = {
    "driver.config": ["driver.config_s"],
    "mesh.generate": ["mesh.generate_s"],
    "climate_io.load": ["climate_io.load_s"],
    "climate_io.sample": ["climate_io.samples"],
    "driver.output": ["driver.output_s", "driver.snapshots",
                      "driver.output_bytes"],
    "transport_solver.init": ["transport_solver.init_s"],
    "transport_solver.advance": ["transport_solver.advance_s"],
    "transport_solver.step": ["transport_solver.substeps"],
    "transport_solver.nonlinear_iterate": [
        "transport_solver.picard_iterations", "transport_solver.picard_max",
        "transport_solver.build_s"],
    "transport_solver.solve_sparse": ["transport_solver.solves",
                                      "transport_solver.solve_s"],
    "constitutive.evaluate": ["constitutive.evaluate_s",
                              "constitutive.evaluations"],
    "ice.pore_pressure": ["ice.pore_pressure_s"],
    "ice.ice_content": ["ice.ice_content_s"],
    "mechanics.init": ["mechanics.init_s"],
    "mechanics.solve": ["mechanics.solve_s", "mechanics.damage_iterations",
                        "mechanics.assembly_s"],
    "mechanics.solve_sparse": ["mechanics.solves", "mechanics.linear_solve_s"],
    "mechanics.apply_dirichlet": ["mechanics.dirichlet_s"],
}

# counts that must repeat exactly between two traced runs of one input
EXACT = (
    "driver.snapshots", "driver.output_bytes", "transport_solver.substeps",
    "transport_solver.step_failures", "transport_solver.picard_iterations",
    "transport_solver.picard_max", "transport_solver.wasted_iterations",
    "transport_solver.solves", "constitutive.evaluations",
    "ice.frozen_elements", "mechanics.damage_iterations",
    "mechanics.nonconverged", "mechanics.damaged_steps", "mechanics.solves",
    "climate_io.samples", "trace.spans",
)


def layer_metrics(tracer: Tracer, writes_output: bool) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the missing ones with why.

    Times are seconds. A missing metric is left out of the first dict.
    """
    names, parents = tracer.names, tracer.parents
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += dur[i]

    def calls(name):
        return sum(1 for n in names if n == name)

    def total(name):
        # a span nested in one of the same name (a halved step's retry)
        # is already inside its parent's duration
        return sum(d for n, p, d in zip(names, parents, dur)
                   if n == name and (p < 0 or names[p] != name))

    def self_time(name):
        return sum(d - c for n, d, c in zip(names, dur, covered) if n == name)

    c = tracer.counts
    picard = c["picard_iterations"]
    wasted = c["wasted_iterations"]
    mech_calls = calls("mechanics.solve")
    t_solves = calls("transport_solver.solve_sparse")
    m_solves = calls("mechanics.solve_sparse")
    solve_s = total("transport_solver.solve_sparse") + \
        total("mechanics.solve_sparse")
    metrics = {
        "driver.config_s": total("driver.config"),
        "mesh.generate_s": total("mesh.generate"),
        "transport_solver.init_s": total("transport_solver.init"),
        "mechanics.init_s": total("mechanics.init"),
        "driver.output_s": total("driver.output"),
        "driver.snapshots": c["snapshots"],
        "driver.output_bytes": c["output_bytes"],
        "transport_solver.advance_s": total("transport_solver.advance"),
        "transport_solver.substeps": c["substeps"],
        "transport_solver.step_failures": c["step_failures"],
        "transport_solver.picard_iterations": picard,
        "transport_solver.picard_max": c["picard_max"],
        "transport_solver.wasted_iterations": wasted,
        "transport_solver.wasted_share": wasted / max(picard + wasted, 1),
        "transport_solver.solves": t_solves,
        "transport_solver.solve_s": total("transport_solver.solve_sparse"),
        "transport_solver.build_s":
            self_time("transport_solver.nonlinear_iterate"),
        "constitutive.evaluate_s": self_time("constitutive.evaluate"),
        "constitutive.evaluations": calls("constitutive.evaluate"),
        "ice.pore_pressure_s": total("ice.pore_pressure"),
        "ice.ice_content_s": total("ice.ice_content"),
        "ice.frozen_elements": c["frozen_elements"],
        "mechanics.solve_s": total("mechanics.solve"),
        "mechanics.damage_iterations": c["damage_iterations"],
        "mechanics.nonconverged": c["nonconverged"],
        "mechanics.damaged_steps": c["damaged_steps"],
        "mechanics.damaged_share": c["damaged_steps"] / max(mech_calls, 1),
        "mechanics.solves": m_solves,
        "mechanics.linear_solve_s": total("mechanics.solve_sparse"),
        "mechanics.dirichlet_s": total("mechanics.apply_dirichlet"),
        "mechanics.assembly_s": self_time("mechanics.solve"),
        "linalg.solves": t_solves + m_solves,
        "linalg.solve_s": solve_s,
        "linalg.mean_solve_ms": 1e3 * solve_s / max(t_solves + m_solves, 1),
        "climate_io.load_s": total("climate_io.load"),
        "climate_io.samples": calls("climate_io.sample"),
        "trace.spans": len(names),
    }
    missing = {}
    for span, fed in FEEDS.items():
        if span == "driver.output" and not writes_output:
            continue
        if calls(span) == 0:
            for metric in fed:
                missing[metric] = f"no call of {span} was recorded"
    if t_solves + m_solves == 0:
        for metric in ("linalg.solves", "linalg.solve_s", "linalg.mean_solve_ms"):
            missing[metric] = "no sparse solve was recorded"
    for metric in missing:
        metrics.pop(metric, None)
    return metrics, missing
