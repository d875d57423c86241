"""Raster persistence: plain-text CSV and 16-bit big-endian binary PGM.

CSV rasters are one lattice row per line, '.' decimal separator, values
formatted to 9 significant digits; lines starting with '#' carry the
configuration echo and are ignored on read.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .lattice import Raster, SpotMask

__all__ = [
    "format_csv_rows",
    "write_raster_csv",
    "read_raster_csv",
    "read_pgm16",
    "load_raster",
]

PGM_MAXVAL = 65535
# Netpbm allows a comment, from '#' to the end of its line, anywhere in the
# header.  One whitespace byte after maxval, past any comment there, ends it.
_PGM_GAP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PGM_HEADER = re.compile(rb"P5" + _PGM_GAP + rb"(\d+)" + _PGM_GAP + rb"(\d+)" + _PGM_GAP
                         + rb"(\d+)(?:#[^\r\n]*[\r\n])*\s")


def format_csv_rows(rows: np.ndarray) -> list[str]:
    """One CSV line per row of the 2-D array ``rows``, each value to 9
    significant digits: one %-format per row, whose text equals
    ``format(v, ".9g")`` value by value."""
    line = ",".join(["%.9g"] * rows.shape[1])
    return [line % tuple(row) for row in rows.tolist()]


def write_raster_csv(path, raster: Raster | SpotMask, comments: list[str] | None = None):
    lines = [f"# {c}" for c in comments or []] + format_csv_rows(raster.to_2d())
    Path(path).write_text("\n".join(lines) + "\n")


def read_raster_csv(path) -> Raster:
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows, widths {sorted(widths)}")
    return Raster.from_2d(np.array(rows))


def read_pgm16(path) -> Raster:
    """Read a binary PGM (8- or 16-bit); returns raw sample values as floats."""
    blob = Path(path).read_bytes()
    m = _PGM_HEADER.match(blob)
    if not m:
        raise ValueError(f"{path}: not a binary PGM")
    n2, n1, maxval = (int(g) for g in m.groups())
    if not 1 <= maxval <= PGM_MAXVAL:
        raise ValueError(f"{path}: maxval {maxval} outside 1..{PGM_MAXVAL}")
    data = blob[m.end():]
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    if len(data) < n1 * n2 * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    arr = np.frombuffer(data, dtype=dtype, count=n1 * n2)
    return Raster(n1, n2, arr.astype(np.float64))


def load_raster(path) -> Raster:
    """Dispatch on file suffix: .pgm is binary graymap, anything else CSV."""
    if str(path).lower().endswith(".pgm"):
        return read_pgm16(path)
    return read_raster_csv(path)
