"""The benchmark's workloads and the inputs each one is given.

Every workload is a frostsim config plus a flag saying whether the run
writes its output files. ``reference`` and ``fine_pore`` use the bundled
winter climate and ignore the seed; ``fine_mesh_mild`` gets a climate
generated from the seed, and frostsim receives only that CSV.

All three are closed loop: one caller runs one simulation at a time.
The full 744 h month takes over a minute on a 2-core box, too long to
sample several times within one benchmark run, so the two winter
workloads simulate a 48 h window that starts at hour 240 of the bundled
month. That window keeps what makes the month hard: frost onset with
damage growth, Picard iteration counts close to the month's mean, and a
failed substep retried as two halves.

``fine_pore`` is not listed in BENCHMARK.json: on a shared 2-core box its
ten-run spread of ``run_s`` reached the largest bound allowed, and a third
workload would have cut every run to 40 s. It stays runnable for changes
to the ice and Picard layers, where it is the workload with the largest
ice share and no halvings.

This module uses the standard library only, so the process that drives
the runs stays small and never imports frostsim.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("reference", "fine_pore", "fine_mesh_mild")

WINDOW_START_H = 240
WINDOW_STEPS = 48
MILD_STEPS = 24
SMOKE_STEPS = 2
MILD_MESH_H = 0.015

_CLIMATE_HEADER = "time_h,theta_ext_C,phi_ext,rain_kg_m2_s,swr_W_m2"


def _write_rows(path: Path, rows) -> None:
    lines = [_CLIMATE_HEADER]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def winter_window(root: Path, steps: int, path: Path) -> None:
    """Hours WINDOW_START_H .. WINDOW_START_H + steps of the bundled month,
    with time restarted at 0."""
    source = root / "src" / "frostsim" / "data" / "climate_winter_744h.csv"
    lines = source.read_text(encoding="utf-8").splitlines()
    if lines[0] != _CLIMATE_HEADER:
        raise ValueError(f"{source}: unexpected header {lines[0]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    window = rows[WINDOW_START_H:WINDOW_START_H + steps + 1]
    if len(window) != steps + 1:
        raise ValueError(f"{source} is too short for a {steps} h window")
    _write_rows(path, ([row[0] - WINDOW_START_H] + row[1:] for row in window))


def mild_climate(seed: int, hours: int) -> list[list[float]]:
    """A mild, wet day set by ``seed``: exterior above 0 degC, rain spells.

    The seed picks the mean temperature, the daily swing and when each of
    two rain spells starts. Spell length and peak flux are fixed, so every
    seed wets the wall about equally and the work per run stays close;
    the coldest hour stays at least 2 degC above freezing, so no ice forms.
    """
    rng = random.Random(seed)
    mean = rng.uniform(6.0, 8.0)
    swing = rng.uniform(2.5, 3.5)
    length, peak = 6.0, 8e-5
    starts = [rng.uniform(0.0, hours / 2 - length),
              rng.uniform(hours / 2, hours - length)]
    rows = []
    for h in range(hours + 1):
        theta = mean + swing * math.sin(2.0 * math.pi * (h - 9.0) / 24.0)
        rain = sum(peak * math.sin(math.pi * (h - start) / length)
                   for start in starts if start <= h <= start + length)
        phi = min(0.98, 0.82 + 0.08 * math.sin(2.0 * math.pi * (h - 3.0) / 24.0)
                  + (0.08 if rain > 0.0 else 0.0))
        hod = h % 24
        sun = math.sin(math.pi * (hod - 8.0) / 8.0) if 8 <= hod <= 16 else 0.0
        swr = 150.0 * sun * (0.25 if rain > 0.0 else 1.0)
        rows.append([float(h), theta, phi, rain, swr])
    coldest = min(row[1] for row in rows)
    if coldest <= 0.0:
        raise ValueError(f"seed {seed}: generated exterior reaches "
                         f"{coldest:.2f} degC; the mild workload must stay "
                         "above freezing")
    return rows


def make_inputs(name: str, seed: int, root: Path, tmp: Path,
                smoke: bool) -> dict:
    """Write the workload's input files into ``tmp`` and return its spec:
    the frostsim config, whether output files are written, the step count."""
    if name in ("reference", "fine_pore"):
        steps = SMOKE_STEPS if smoke else WINDOW_STEPS
        climate = tmp / "climate.csv"
        winter_window(root, steps, climate)
        config = {"climate": {"file": str(climate)}, "time": {"steps": steps}}
        if name == "fine_pore":
            config["ice"] = {"psd_file": "spec02", "n": 0.13}
        return {"config": config, "write_output": name == "reference",
                "steps": steps}
    if name == "fine_mesh_mild":
        steps = SMOKE_STEPS if smoke else MILD_STEPS
        climate = tmp / "climate.csv"
        _write_rows(climate, mild_climate(seed, steps))
        config = {"mesh": {"h": MILD_MESH_H}, "climate": {"file": str(climate)},
                  "time": {"steps": steps}}
        return {"config": config, "write_output": False, "steps": steps}
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
