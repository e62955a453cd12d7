"""scripts/probe_diff.py on probe CSVs written by write_probe_csv."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from frostsim import driver

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "probe_diff.py"
spec = importlib.util.spec_from_file_location("probe_diff", SCRIPT)
probe_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe_diff)


def records(times=(1.0, 2.0), nodes=(3, 7), shift=None):
    """Two-node records with distinct values; ``shift`` maps a column to
    the (record, node, amount) added to it."""
    out = []
    for k, t in enumerate(times):
        values = {name: np.array([10.0 * k + i + j for j in range(2)])
                  for i, name in enumerate(probe_diff.COLUMNS)}
        out.append(driver.ProbeRecord(t, np.array(nodes), **values))
    for name, (k, j, amount) in (shift or {}).items():
        getattr(out[k], name)[j] += amount
    return out


def written(tmp_path, name, recs):
    path = tmp_path / name
    driver.write_probe_csv(recs, path)
    return str(path)


def test_largest_change_per_column(tmp_path, capsys):
    base = written(tmp_path, "base.csv", records())
    change = written(tmp_path, "change.csv", records(
        shift={"theta": (1, 0, -0.25), "p_p": (0, 1, 3.0),
               "u_mag": (1, 1, 1e-9)}))
    assert probe_diff.main([base, change]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    got = json.loads(out[0])
    assert got == pytest.approx({"theta": 0.25, "phi": 0.0, "p_p": 3.0,
                                 "d_w": 0.0, "u_mag": 1e-9}, rel=1e-6)
    assert got["phi"] == got["d_w"] == 0.0


@pytest.mark.parametrize("other", [
    {"times": (1.0, 3.0)}, {"times": (1.0,)}, {"nodes": (3, 8)}])
def test_unpaired_files_fail(tmp_path, capsys, other):
    base = written(tmp_path, "base.csv", records())
    change = written(tmp_path, "change.csv", records(**other))
    assert probe_diff.main([base, change]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "differ in their times or probe nodes" in captured.err


@pytest.mark.parametrize("order", ["base", "change"])
def test_unreadable_file_exits_2(tmp_path, capsys, order):
    good = written(tmp_path, "good.csv", records())
    short = tmp_path / "short.csv"
    short.write_text(f"{driver._PROBE_HEADER}\n1.0,3,14.0,0.5\n")
    args = [str(short), good] if order == "base" else [good, str(short)]
    assert probe_diff.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"probe_diff: {short}: row 2 needs 7 columns\n")
