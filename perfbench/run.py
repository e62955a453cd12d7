"""frostsim benchmark: end-to-end figures per workload, or a traced breakdown.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the root of a checkout. Each sample is one ``frostsim.driver.run``
in a fresh process (``sample.py``), one process at a time, with the BLAS
and OpenMP thread counts pinned to 1. Samples repeat until ``--seconds``
would be overrun, and each metric is reported as the median over them,
with its spread (interquartile range over median) and sample count.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json:

- ``run_s``: wall seconds of the ``driver.run`` call;
- ``setup_s``: process launch to the first transport step (imports,
  config, data, mesh, problem set-up, initial rates);
- ``sim_h_per_s``: simulated hours per wall second after the first step;
- ``peak_rss_mb``: peak resident memory of the sample's process.

With ``--trace 1`` traced samples alternate with untraced ones and the
metrics are the per-layer ones (see ``spans.py``); the tracing overhead
is the median traced ``run_s`` minus the median untraced one.

Every sample passes a correctness gate or counts as failed: invariants of
the fields, the physics the workload must show, the recorded baseline in
``baseline.json`` within its tolerance, and the same probe-CSV SHA-256 as
every other sample. Traced samples must also repeat each count exactly.
``--smoke`` simulates two steps with one or two samples, skipping the
baseline and the physical checks, to test the benchmark itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
spans included, goes to ``.perfbench_out/``. The exit code is 0 when every
check passed, 1 when one failed and 2 when the checkout has no frostsim
sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE = HERE / "sample.py"
MIN_SAMPLES = 3
MIN_TRACED = 2
# no sample may run past this many seconds after the first one started,
# so that a run of one workload ends within 180 s
DEADLINE_S = 170.0
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unknown: {err}"
    return out.stdout.strip() or f"unknown: {out.stderr.strip()}"


def run_sample(spec: dict, tmp: Path, run_id: int, trace: bool,
               timeout: float) -> dict:
    """Launch one sample process, wait for it, and return its result."""
    work = tmp / f"sample{run_id}"
    work.mkdir()
    out_dir = work / "out" if spec["write_output"] else None
    spec = dict(spec, trace=trace, run_id=run_id, tmp=str(work),
                out_dir=None if out_dir is None else str(out_dir))
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, **THREAD_PIN)
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(SAMPLE), str(spec_path), str(result_path),
             repr(launch)],
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        result = {"error": f"sample was stopped after {timeout:.0f} s"}
    else:
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.strip().splitlines()[-3:]
            result = {"error": f"sample exited with {proc.returncode}: "
                               + " | ".join(tail)}
        else:
            result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(work)
    result.update(run_id=run_id, traced=trace)
    return result


def baseline_deviation(values: dict, base: dict, tolerance: dict):
    """Largest deviation from the baseline as a share of its tolerance,
    with the quantity it occurred in and that quantity's absolute deviation."""
    worst = (-1.0, None, 0.0)
    for key, tol in tolerance.items():
        got, want = values[key], base[key]
        pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
        for a, b in pairs:
            allowed = tol.get("abs", 0.0) + tol.get("rel", 0.0) * abs(b)
            dev = abs(a - b)
            share = dev / allowed if allowed > 0.0 else (
                0.0 if dev == 0.0 else float("inf"))
            if share > worst[0]:
                worst = (share, key, dev)
    return worst


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def gate(samples: list[dict], base: dict | None, tolerance: dict) -> list[str]:
    """Mark failed samples in place; return the problems found."""
    problems = []
    first_sha = next((s["probe_sha256"] for s in samples
                      if "probe_sha256" in s), None)
    for s in samples:
        why = []
        if "error" in s:
            why.append(s["error"])
        else:
            why += [f"check failed: {name}" for name, ok in s["checks"].items()
                    if not ok]
            if s["probe_sha256"] != first_sha:
                why.append("probe CSV differs from the first sample's")
            if base is not None:
                share, key, dev = baseline_deviation(s["values"], base, tolerance)
                s["baseline_deviation"] = {"share_of_tolerance": share,
                                           "quantity": key, "abs": dev}
                if share > 1.0:
                    why.append(f"{key} deviates from the baseline by {dev:.6g}, "
                               f"{share:.2f} times its tolerance")
        s["failed"] = why
        problems += [f"sample {s['run_id']}: {w}" for w in why]
    return problems


def trace_metrics(samples: list[dict], problems: list[str]) -> dict:
    traced = [s for s in samples if s["traced"] and not s["failed"]]
    plain = [s for s in samples if not s["traced"] and not s["failed"]]
    if not traced or not plain:
        problems.append("no traced or no untraced sample succeeded")
        return {}
    for s in traced:
        for metric, why in s["missing"].items():
            problems.append(f"metric {metric} missing: {why}")
    for name in spans.EXACT:
        seen = {s["layers"].get(name) for s in traced}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced runs: {sorted(seen)}")
    metrics = {name: statistics.median(s["layers"][name] for s in traced)
               for name in traced[0]["layers"]}
    untraced_run_s = statistics.median(s["metrics"]["run_s"] for s in plain)
    metrics["trace.overhead_s"] = metrics["driver.run_s"] - untraced_run_s
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_run_s
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, declared: dict, baseline: dict) -> bool:
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    try:
        spec = make_inputs(name, seed, ROOT, tmp, smoke)
        spec.update(workload=name, src=str(ROOT / "src"), full=not smoke)
        samples: list[dict] = []
        start = time.monotonic()
        while True:
            n_traced = sum(s["traced"] for s in samples)
            n_plain = len(samples) - n_traced
            t0 = time.monotonic()
            samples.append(run_sample(spec, tmp, len(samples),
                                      trace and n_traced < n_plain,
                                      DEADLINE_S - (t0 - start)))
            took = time.monotonic() - t0
            elapsed = time.monotonic() - start
            n_traced = sum(s["traced"] for s in samples)
            n_plain = len(samples) - n_traced
            if trace:
                enough = n_traced >= MIN_TRACED and n_plain >= 1
            else:
                enough = n_plain >= (1 if smoke else MIN_SAMPLES)
            if elapsed + took > (seconds if enough else DEADLINE_S):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp_root.is_dir() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    base = None if smoke else baseline.get(name)
    if base is not None and name == "fine_mesh_mild":
        base = base.get(str(seed))
    problems = gate(samples, base, baseline["tolerance"])
    kind = "per_layer" if trace else "end_to_end"
    if trace:
        values = trace_metrics(samples, problems)
        rows = {m: ([values[m]] if m in values else []) for m in declared[kind]}
    else:
        good = [s for s in samples if not s["failed"]]
        rows = {m: [s["metrics"][m] for s in good] for m in declared[kind]}
    missing = [m for m, v in rows.items() if not v]
    if missing and not trace:
        problems.append(f"no successful sample for {', '.join(missing)}")
    failed = sum(bool(s["failed"]) for s in samples)
    correct = not problems

    facts = next((s["facts"] for s in samples if "facts" in s), {})
    facts["commit"] = git_commit()
    print(f"perfbench workload={name} seed={seed} trace={int(trace)} "
          f"smoke={int(smoke)} samples={len(samples)}")
    width = max(len(m) for m in rows)
    for metric, vals in rows.items():
        unit = declared[kind][metric]
        if not vals:
            print(f"  {metric:<{width}}  {unit:<6} missing")
        elif trace:
            print(f"  {metric:<{width}}  {unit:<6} {vals[0]:.6g}")
        else:
            print(f"  {metric:<{width}}  {unit:<6} median {statistics.median(vals):.6g}"
                  f"  spread {100 * spread(vals):.2f}%  n={len(vals)}")
    print(f"  failed/attempted {failed}/{len(samples)}")
    shas = sorted({s["probe_sha256"] for s in samples if "probe_sha256" in s})
    print(f"  probe sha256 {' '.join(shas) or 'none'}")
    devs = [s["baseline_deviation"] for s in samples if "baseline_deviation" in s]
    worst = max(devs, key=lambda d: d["share_of_tolerance"], default=None)
    if worst is not None and worst["share_of_tolerance"] == 0.0:
        print("  baseline: every value matches it exactly")
    elif worst is not None:
        print(f"  baseline: largest deviation {worst['abs']:.6g} in "
              f"{worst['quantity']} ({100 * worst['share_of_tolerance']:.3g}% "
              "of its tolerance)")
    elif not smoke:
        print(f"  baseline: none recorded for {name} seed {seed}; "
              "invariants and physics checked only")
    for problem in problems:
        print(f"  FAIL {problem}")
    print(f"  facts {json.dumps(facts)}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke,
        "facts": facts, "problems": problems, "metrics": rows,
        "spans": [span for s in samples for span in s.pop("spans", [])],
        "samples": samples}), encoding="utf-8")
    print(f"  record {record.relative_to(ROOT)}")

    metrics = {m: {"value": statistics.median(v), "unit": declared[kind][m]}
               for m, v in rows.items() if v}
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src" / "frostsim"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no frostsim sources at {src}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(src), quiet=1)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m["unit"] for m in benchmark[kind]}
                for kind in ("end_to_end", "per_layer")}
    seconds = args.seconds or benchmark["run_seconds"]
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok &= run_workload(name, args.seed, seconds, bool(args.trace),
                           args.smoke, declared, baseline)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
