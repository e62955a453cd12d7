"""Largest change per probe column between two probe CSVs.

    python3 scripts/probe_diff.py BASE CHANGE

Reads both files with ``frostsim.driver.read_probe_csv`` and prints one
JSON line: for each probe column (``theta``, ``phi``, ``p_p``, ``d_w``
and ``u_mag``, in the units of the CSV) the largest absolute difference
over every time and probe node. When the two files differ in their times
or their probe nodes the values do not pair up: it then prints why on
stderr and exits with 1. A file that cannot be read as a probe CSV
(missing, or with a bad header or row) gives ``probe_diff: <message>``
on stderr and exit 2.

Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from frostsim import driver  # noqa: E402
from frostsim.errors import ConfigError  # noqa: E402

COLUMNS = ("theta", "phi", "p_p", "d_w", "u_mag")


def largest_changes(base: list, change: list) -> dict | None:
    """Largest |change - base| per column of two record lists, or None
    when their times or probe nodes differ."""
    if [r.time_h for r in base] != [r.time_h for r in change] or not all(
            np.array_equal(a.nodes, b.nodes) for a, b in zip(base, change)):
        return None
    return {name: max((float(np.max(np.abs(getattr(b, name)
                                            - getattr(a, name))))
                       for a, b in zip(base, change)), default=0.0)
            for name in COLUMNS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="probe CSV of the base revision")
    parser.add_argument("change", help="probe CSV of the change")
    args = parser.parse_args(argv)
    try:
        changes = largest_changes(driver.read_probe_csv(args.base),
                                  driver.read_probe_csv(args.change))
    except (ConfigError, OSError) as exc:
        print(f"probe_diff: {exc}", file=sys.stderr)
        return 2
    if changes is None:
        print("probe_diff: the files differ in their times or probe nodes",
              file=sys.stderr)
        return 1
    print(json.dumps(changes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
