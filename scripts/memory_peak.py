"""Peak memory of one frostsim run on a benchmark workload's inputs.

    python3 scripts/memory_peak.py --workload W [--seed N] [--smoke]

Writes the inputs of the benchmark workload W (``make_inputs`` of
``perfbench/workloads.py``, which is imported, not changed) for seed N,
7 by default, into a temporary directory. Then, in this process with the
BLAS and OpenMP thread counts pinned to 1, it runs
``frostsim.driver.run`` twice on them:

- untraced, then reads ``ru_maxrss``, the peak resident memory of the
  process so far, and from ``/proc/self/smaps_rollup`` the process's
  current ``Pss_File`` and ``Pss_Anon``, its proportional share of
  file-backed pages (library code and data among them) and of anonymous
  pages (the heap), or null for each where that file cannot be read;
- under ``tracemalloc``, then reads the traced peak and the size still
  traced at the end, which includes the returned summary.

``ru_maxrss`` moves by about 1.5 % with heap placement alone; the two
proportional sizes tell library pages that a run first touches from
heap placement, and the tracemalloc figures count only what Python and
numpy allocate, so they show a new set-up array that the process peak
may hide. ``--smoke`` simulates two steps, as the benchmark's
``--smoke`` does. Prints one JSON line with the workload, the seed, the
step count, ``ru_maxrss_mb``, ``pss_file_mb``, ``pss_anon_mb``,
``tracemalloc_peak_mb`` and ``tracemalloc_final_mb`` (MB = 2**20 bytes).

Run from the repository root.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import importlib.util
import json
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from frostsim import driver  # noqa: E402

MB = 2.0 ** 20


def _workloads():
    """perfbench/workloads.py as a module, without a bytecode cache file
    in perfbench/."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def proportional_sizes() -> dict:
    """``Pss_File`` and ``Pss_Anon`` of this process in MB, each None where
    /proc/self/smaps_rollup cannot be read or lacks it."""
    sizes = dict.fromkeys(("Pss_File", "Pss_Anon"))
    try:
        with open("/proc/self/smaps_rollup", encoding="ascii") as rollup:
            for line in rollup:
                key, _, value = line.partition(":")
                if key in sizes:
                    # in kB
                    sizes[key] = round(int(value.split()[0]) * 1024 / MB, 2)
    except OSError:
        pass
    return {"pss_file_mb": sizes["Pss_File"],
            "pss_anon_mb": sizes["Pss_Anon"]}


def peaks(workload: str, seed: int, smoke: bool = False) -> dict:
    """The object ``main`` prints."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec = _workloads().make_inputs(workload, seed, ROOT, tmp, smoke)
        out = tmp / "out" if spec["write_output"] else None
        driver.run(spec["config"], out_dir=out)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        shares = proportional_sizes()
        tracemalloc.start()
        try:
            summary = driver.run(spec["config"], out_dir=out)
            final, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return {"workload": workload, "seed": seed,
            "steps": len(summary.picard_iterations),
            # ru_maxrss is in KiB on Linux
            "ru_maxrss_mb": round(rss * 1024 / MB, 2), **shares,
            "tracemalloc_peak_mb": round(peak / MB, 3),
            "tracemalloc_final_mb": round(final / MB, 3)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(peaks(args.workload, args.seed, args.smoke)))


if __name__ == "__main__":
    main()
