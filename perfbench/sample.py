"""One benchmark sample: a single ``frostsim.driver.run`` in a fresh process.

Usage: python3 perfbench/sample.py SPEC.json RESULT.json LAUNCH

The spec names the checkout's ``src`` directory, the config, the output
directory (or none) and whether to trace; LAUNCH is the monotonic clock
reading the driving process took just before it launched this one. The
result holds the end-to-end figures, the correctness checks and the
values compared with the recorded baseline, and, when traced, the spans
and layer metrics.
A run that raises a FrostsimError is reported as an error, not a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def stamp_first_advance(cls) -> list[float]:
    """Note when the first transport step starts, then restore the method,
    so the remaining steps run exactly as they would without the benchmark."""
    original = cls.__dict__["advance"]
    stamp: list[float] = []

    def advance(self, *args, **kwargs):
        stamp.append(time.monotonic())
        cls.advance = original
        return original(self, *args, **kwargs)

    cls.advance = advance
    return stamp


def facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def checks(summary, workload: str, full: bool) -> dict[str, bool]:
    """Invariants on every workload, plus the physics each one must show.

    The physical checks need the full window and are skipped in smoke mode.
    """
    import numpy as np

    tr, mech = summary.transport, summary.mechanics
    fields = (tr.theta, tr.phi, mech.u, mech.d_w, mech.kappa,
              summary.damage_history, summary.kappa_history,
              summary.pore_pressure_history)
    probe_phi = np.concatenate([r.phi for r in summary.records])
    result = {
        "fields are finite": all(bool(np.all(np.isfinite(f))) for f in fields),
        "phi lies in [0, 1]": bool(np.all((tr.phi >= 0.0) & (tr.phi <= 1.0))
                                   and np.all((probe_phi >= 0.0)
                                              & (probe_phi <= 1.0))),
        "p_p >= 0 at every step":
            bool(np.all(summary.pore_pressure_history >= 0.0)),
        "d_w never decreases":
            bool(np.all(np.diff(summary.damage_history, axis=0) >= 0.0)),
        "kappa never decreases":
            bool(np.all(np.diff(summary.kappa_history, axis=0) >= 0.0)),
    }
    if not full:
        return result
    if workload == "reference":
        # criterion 09 of the acceptance suite, on the 48 h frost window
        mesh = summary.mesh
        d_w = mech.d_w
        dist_ext = np.minimum(mesh.centroids[:, 0], mesh.centroids[:, 1])
        final = summary.records[-1]
        result.update({
            "frost damage occurred": bool(np.any(d_w > 0.0)),
            "all damage sits within 0.12 m of the exterior faces":
                bool(np.all(dist_ext[d_w > 0.0] <= 0.12)),
            "the exterior corner probe has the largest damage":
                int(np.argmax(final.d_w)) == 0 and float(final.d_w[0]) > 0.0,
            "probes past mid-wall stay undamaged":
                bool(np.all(final.d_w[2:] == 0.0)),
        })
    elif workload == "fine_mesh_mild":
        result["no ice and no damage above 0 degC"] = bool(
            np.all(summary.pore_pressure_history == 0.0)
            and np.all(summary.damage_history == 0.0))
    return result


def baseline_values(summary) -> dict:
    """The quantities compared with ``baseline.json``."""
    final = summary.records[-1]
    return {
        "peak_corner_pp": max(float(r.p_p[0]) for r in summary.records),
        "max_dw": float(summary.damage_history.max()),
        "final_theta": [float(v) for v in final.theta],
        "final_phi": [float(v) for v in final.phi],
    }


def main(spec_path: str, result_path: str, launch: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import frostsim
    from frostsim import driver
    import_s = time.perf_counter() - t0
    if not Path(frostsim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"frostsim was imported from {frostsim.__file__}, "
                         f"not from {src}")
    from frostsim.errors import FrostsimError
    from frostsim.transport_solver import TransportProblem

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    first_step = stamp_first_advance(TransportProblem)

    result: dict = {}
    t_call = time.monotonic()
    try:
        summary = driver.run(spec["config"], out_dir=spec["out_dir"])
    except FrostsimError as err:
        result["error"] = f"{type(err).__name__}: {err}"
    else:
        t_return = time.monotonic()
        sim_h = summary.config["time"]["steps"] \
            * summary.config["time"]["dt_s"] / 3600.0
        result["metrics"] = {
            "run_s": t_return - t_call,
            "setup_s": first_step[0] - float(launch),
            "sim_h_per_s": sim_h / (t_return - first_step[0]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            # taken before the probe CSV below is written, which is not
            # part of the run
            layers, missing = spans.layer_metrics(tracer, spec["out_dir"] is not None)
            layers["driver.import_s"] = import_s
            layers["driver.run_s"] = t_return - t_call
            result.update(layers=layers, missing=missing,
                          spans=tracer.as_records(spec["run_id"]))
        result["checks"] = checks(summary, spec["workload"], spec["full"])
        if spec["out_dir"] is not None:
            probe_csv = Path(spec["out_dir"]) / summary.config["output"]["probe_file"]
        else:
            probe_csv = Path(spec["tmp"]) / "probes.csv"
            driver.write_probe_csv(summary.records, probe_csv)
        result["probe_sha256"] = hashlib.sha256(probe_csv.read_bytes()).hexdigest()
        result["values"] = baseline_values(summary)
    result["facts"] = facts()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:4])
