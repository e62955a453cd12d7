"""The summary of scripts/bench_pairs.py on canned perfbench results."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RUN_OUTPUT = """perfbench workload=reference seed=7 trace=0 smoke=0 samples=9
  run_s        s      median 1.1  spread 2.00%  n=9
  failed/attempted 1/9
  probe sha256 abc123
  baseline: largest deviation 0.0049 in final_theta (9.7% of its tolerance)
  record .perfbench_out/reference-seed7-trace0.json
{"correct": false, "attempted": 9, "failed": 1, "metrics": {"run_s": {"value": 1.1, "unit": "s"}, "peak_rss_mb": {"value": 77.0, "unit": "MB"}}}
"""


def record(run_s, sim, attempted=10, failed=0, sha="aaa"):
    return {"metrics": {"run_s": run_s, "sim_h_per_s": sim},
            "attempted": attempted, "failed": failed, "shas": [sha]}


def test_parse_run():
    got = bench_pairs.parse_run(RUN_OUTPUT)
    assert got == {"metrics": {"run_s": 1.1, "peak_rss_mb": 77.0},
                   "attempted": 9, "failed": 1, "shas": ["abc123"]}


def test_summary_of_canned_pairs():
    runs = {
        "base": [record(1.0, 40.0), record(1.2, 38.0), record(0.9, 45.0),
                 record(1.1, 41.0, attempted=9, failed=1)],
        "change": [record(0.8, 50.0, sha="bbb"), record(1.3, 37.0, sha="bbb"),
                   record(0.7, 47.0, sha="bbb"), record(0.9, 40.0, sha="ccc")],
    }
    better = {"run_s": "lower", "sim_h_per_s": "higher", "setup_s": "lower"}
    out = bench_pairs.summarise(runs, better)
    run_s = out["metrics"]["run_s"]
    # statistics.quantiles, exclusive method, of 0.9 1.0 1.1 1.2
    assert run_s["base"] == pytest.approx({"median": 1.05, "q1": 0.925,
                                           "q3": 1.175})
    assert run_s["change"]["median"] == pytest.approx(0.85)
    assert run_s["change_pct"] == pytest.approx(100.0 * (0.85 - 1.05) / 1.05)
    assert run_s["pairs_won"] == 3 and run_s["pairs"] == 4
    # higher is better: pairs 1 and 3 won, 2 and 4 lost
    assert out["metrics"]["sim_h_per_s"]["pairs_won"] == 2
    assert "setup_s" not in out["metrics"]
    assert out["attempted"] == {"base": 39, "change": 40}
    assert out["failed"] == {"base": 1, "change": 0}
    assert out["probe_sha256"] == {"base": ["aaa"], "change": ["bbb", "ccc"]}


def test_single_pair_has_degenerate_quartiles():
    out = bench_pairs.summarise({"base": [record(1.0, 1.0)],
                                 "change": [record(1.0, 2.0)]},
                                {"run_s": "lower", "sim_h_per_s": "higher"})
    assert out["metrics"]["run_s"]["base"] == {"median": 1.0, "q1": 1.0,
                                               "q3": 1.0}
    # a tie is not a win
    assert out["metrics"]["run_s"]["pairs_won"] == 0
    assert out["metrics"]["sim_h_per_s"]["pairs_won"] == 1


def verdicts(base, change, better="lower", bound=0.25):
    """The verdict summarise gives run_s on pairs of canned medians."""
    runs = {"base": [record(b, 1.0) for b in base],
            "change": [record(c, 1.0) for c in change]}
    entry = bench_pairs.summarise(runs, {"run_s": better},
                                  {"run_s": bound})["metrics"]["run_s"]
    return entry["gain_resolved"], entry["regression"]


BASE = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
WIDE = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]


@pytest.mark.parametrize("base, change, better, want", [
    # won 10 of 10 by 0.2, beyond the base's quartile distance of 0.03
    (BASE, [0.8 * b for b in BASE], "lower", (True, "none")),
    # won 10 of 10, but by 0.01, inside that distance
    (BASE, [b - 0.01 for b in BASE], "lower", (False, "none")),
    # won 8 of 10 by far
    (BASE, [0.5] * 8 + [2.0, 2.0], "lower", (False, "none")),
    # worse by 30 % against a bound of 25 %, in either direction
    (BASE, [1.3 * b for b in BASE], "lower", (False, "beyond bound")),
    (BASE, [0.7 * b for b in BASE], "higher", (False, "beyond bound")),
    # the base spreads by 0.6 of its median, more than the bound, and the
    # runs overlap: a 5 % change cannot be told either way
    (WIDE, [1.05 * b for b in WIDE], "lower", (False, "unresolved")),
    (WIDE, [0.95 * b for b in WIDE], "lower", (False, "unresolved")),
    # every change run beats every base run, so the spread is no excuse
    (WIDE, [0.2] * 10, "lower", (True, "none")),
    (WIDE, [2.0] * 10, "higher", (True, "none")),
], ids=["gain", "inside-spread", "eight-of-ten", "worse", "worse-higher",
        "wide-worse", "wide-better", "wide-separated", "wide-higher"])
def test_verdict(base, change, better, want):
    assert verdicts(base, change, better) == want


def test_verdict_needs_a_bound():
    runs = {"base": [record(b, 1.0) for b in BASE],
            "change": [record(b, 1.0) for b in BASE]}
    entry = bench_pairs.summarise(runs, {"run_s": "lower"})["metrics"]["run_s"]
    assert "gain_resolved" not in entry and "regression" not in entry
    assert verdicts(BASE, BASE) == (False, "none")
