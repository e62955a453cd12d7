"""The one reader of the numeric CSV tables: pore sizes and climate."""

import csv
import io
from pathlib import Path

import numpy as np


def read_table(path: Path, header: list[str], error) -> np.ndarray:
    """(rows, columns) floats of the UTF-8 CSV ``path`` under ``header``,
    blank rows skipped; faults raise ``error`` naming the path and row."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    if [h.strip() for h in next(reader, [])] != header:
        raise error(f"{path}: expected header '{','.join(header)}'")
    rows = []
    for rownum, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise error(f"{path}: row {rownum} needs {len(header)} columns")
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise error(f"{path}: row {rownum} is not numeric") from None
    if not rows:
        raise error(f"{path}: no data rows")
    return np.array(rows)
