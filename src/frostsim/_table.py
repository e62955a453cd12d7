"""The one text-file boundary: every input is decoded by ``read_text``,
every numeric CSV is written by ``write_table``."""

import csv
import io
import math
from pathlib import Path

import numpy as np


def read_text(path: Path, error) -> str:
    """The UTF-8 text of ``path`` less one leading byte-order mark; bytes
    that are not UTF-8 raise ``error`` naming the path and the byte."""
    try:
        return path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_table(path: Path, header: list[str], error) -> np.ndarray:
    """(rows, columns) finite floats of the CSV ``path`` under ``header``,
    blank rows skipped; faults raise ``error`` naming the path and row."""
    reader = csv.reader(io.StringIO(read_text(path, error), newline=""))
    if [h.strip() for h in next(reader, [])] != header:
        raise error(f"{path}: expected header '{','.join(header)}'")
    rows = []
    for rownum, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise error(f"{path}: row {rownum} needs {len(header)} columns")
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise error(f"{path}: row {rownum} is not numeric") from None
        if not all(map(math.isfinite, values)):
            raise error(f"{path}: row {rownum} is not finite")
        rows.append(values)
    if not rows:
        raise error(f"{path}: no data rows")
    return np.array(rows)


def write_table(path: Path | str, header: str, columns) -> None:
    """Write ``header`` and one row per index of the equal-length
    ``columns`` as UTF-8, each value the repr of its Python float or int."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = [header, *(",".join(map(repr, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
