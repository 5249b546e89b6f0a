"""Binary matrix dumps (WDMX) and deterministic CSV output.

WDMX layout: magic b"WDMX", then little-endian u64 rows, u64 cols, then the
row-major complex128 entries as (re, im) float64 pairs.
"""

import os
import struct
from itertools import chain

import numpy as np

from .lattice import row_slabs

WDMX_MAGIC = b"WDMX"


def _write_atomic(path, chunks):
    """Write the byte `chunks`, an iterable consumed as it is written, to a
    temp file beside `path`, then rename it into place; the directory is
    made on the first write into it."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def write_rows(path, shape, slabs):
    """Dump to WDMX, atomically (write temp, then rename), the matrix of
    `shape` whose row slabs, in order, the iterable `slabs` yields.  Each
    slab is converted to complex128 as it is written, so neither the whole
    matrix nor a complex copy of it need exist."""
    rows = (np.ascontiguousarray(s, dtype="<c16").data for s in slabs)
    _write_atomic(path, chain((WDMX_MAGIC, struct.pack("<QQ", *shape)), rows))


def write_matrix(path, matrix):
    """Dump a 2-D matrix to WDMX with `write_rows`, a row slab at a time,
    so a real matrix gets no complex copy of its whole."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("WDMX stores 2-D matrices only")
    write_rows(path, m.shape, (m[r] for r in row_slabs(len(m))))


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
    meta = meta or {}
    lines = ["# " + " ".join(f"{k}={fmt(v)}" for k, v in meta.items()),
             ",".join(header)]
    lines.extend(",".join(map(fmt, row)) for row in rows)
    _write_atomic(path, [("\n".join(lines) + "\n").encode()])
