"""Binary matrix dumps (WDMX) and deterministic CSV output.

WDMX layout: magic b"WDMX", then little-endian u64 rows, u64 cols, then the
row-major complex128 entries as (re, im) float64 pairs.
"""

import os
import struct

import numpy as np

WDMX_MAGIC = b"WDMX"


def write_matrix(path, matrix):
    """Dump a matrix to WDMX, atomically (write temp, then rename)."""
    m = np.ascontiguousarray(matrix, dtype="<c16")
    if m.ndim != 2:
        raise ValueError("WDMX stores 2-D matrices only")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(WDMX_MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(m.data)
    os.replace(tmp, path)


def read_matrix(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != WDMX_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {WDMX_MAGIC!r}")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(rows * cols * 16), dtype="<c16")
    return data.reshape(rows, cols).astype(np.complex128)


def fmt(value):
    """Format one CSV cell; floats use shortest round-trip repr."""
    kind = type(value)   # the plain Python cells of `tolist()` rows first
    if kind is float:
        return repr(value)
    if kind is int:
        return str(value)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows, meta=None):
    """Write a CSV with a leading '# key=value ...' metadata comment line.

    Output is byte-deterministic for identical inputs; files are written to a
    temp path and renamed into place.
    """
    lines = []
    meta = meta or {}
    lines.append("# " + " ".join(f"{k}={fmt(v)}" for k, v in meta.items()))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
