"""Alternating benchmark runs of a base revision and of this checkout.

    python3 scripts/bench_pairs.py --base REV --workload W --pairs N --seconds S

Exports REV with ``git archive`` into a temporary directory outside the
checkout, then runs ``perfbench/run.py --workload W --seed 7 --trace 0
--seconds S`` in that tree and in this checkout's working tree, one
after the other, N times each; odd pairs run the base first. Prints one
JSON line:

- ``metrics``: per end-to-end metric of BENCHMARK.json and side, the
  median of the run medians with its first and third quartiles, the
  change of the medians in percent and the pairs the change won, by the
  metric's ``better`` direction, and the verdict of ``verdict``;
- ``attempted`` and ``failed``: the samples per side, summed over runs;
- ``probe_sha256``: the probe SHA-256s each side's samples gave;
- ``runs``: per side, the ``parse_run`` record of every run, pair by pair.

Run from the repository root; the export is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SIDES = ("base", "change")


def parse_run(stdout: str) -> dict:
    """Metric medians, sample counts and probe SHA-256s of one
    ``perfbench/run.py`` output."""
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    shas = next((ln.split()[2:] for ln in lines
                 if ln.strip().startswith("probe sha256 ")), [])
    return {"metrics": {name: m["value"] for name, m in last["metrics"].items()},
            "attempted": last["attempted"], "failed": last["failed"],
            "shas": [s for s in shas if s != "none"]}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def verdict(entry: dict, pairs: list[tuple[float, float]], sign: float,
            bound: float) -> dict:
    """Whether a metric's ``summarise`` entry and its (base, change)
    ``pairs`` resolve a gain or a regression; ``sign`` is 1 where lower
    is better and -1 where higher is, ``bound`` the metric's relative
    bound in BENCHMARK.json.

    ``gain_resolved``: the change won at least nine tenths of the pairs
    and its median beats the base's by more than the base's
    interquartile range. ``regression``: "beyond bound" where the
    change's median is worse than the base's by more than ``bound`` of
    it; else "unresolved" where the base's interquartile range exceeds
    ``bound`` of its median and not every change run beats every base
    run; else "none".
    """
    base = entry["base"]
    gain = sign * (base["median"] - entry["change"]["median"])
    spread = base["q3"] - base["q1"]
    scale = bound * abs(base["median"])
    if -gain > scale:
        regression = "beyond bound"
    elif spread > scale and not (
            max(sign * c for _, c in pairs) < min(sign * b for b, _ in pairs)):
        regression = "unresolved"
    else:
        regression = "none"
    return {"gain_resolved": bool(entry["pairs_won"] >= 0.9 * entry["pairs"]
                                  and gain > spread),
            "regression": regression}


def summarise(runs: dict, better: dict, bounds: dict | None = None) -> dict:
    """Summary of paired runs: ``runs[side]`` lists the ``parse_run``
    records of each pair in order, ``better[metric]`` is "lower" or
    "higher", and the metrics with a relative bound in ``bounds`` get
    its ``verdict``."""
    metrics = {}
    for name, direction in better.items():
        pairs = [(b["metrics"][name], c["metrics"][name])
                 for b, c in zip(runs["base"], runs["change"])
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        sign = 1.0 if direction == "lower" else -1.0
        entry = {side: quartiles([p[i] for p in pairs])
                 for i, side in enumerate(SIDES)}
        base_median = entry["base"]["median"]
        entry["change_pct"] = (100.0 * (entry["change"]["median"] - base_median)
                               / base_median if base_median else None)
        entry["pairs_won"] = sum(sign * (c - b) < 0.0 for b, c in pairs)
        entry["pairs"] = len(pairs)
        if bounds and name in bounds:
            entry.update(verdict(entry, pairs, sign, bounds[name]))
        metrics[name] = entry
    return {
        "metrics": metrics,
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "probe_sha256": {s: sorted({sha for r in runs[s] for sha in r["shas"]})
                         for s in SIDES},
    }


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", "0", "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout)
    except (IndexError, ValueError, KeyError):
        raise SystemExit(f"perfbench in {tree} exited with {proc.returncode} "
                         f"and no result: {proc.stderr.strip()[-500:]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    export = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(export)], input=archive,
                       check=True)
        trees = {"base": export, "change": ROOT}
        runs = {side: [] for side in SIDES}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(trees[side], args.workload,
                                           args.seconds))
            print(f"pair {pair}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(export, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "base": args.base,
                      "seed": SEED, "seconds": args.seconds,
                      **summarise(runs, better, bounds), "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
