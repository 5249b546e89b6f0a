"""Compare two `wanloc` output directories, file by file.

By default every file must be byte-identical.  Against a tolerance table,
the cells of a CSV and the entries of a WDMX are compared as numbers
instead: two numbers a, b agree when |a - b| <= abs + rel * max(|a|, |b|)
for the `Tol` of their cell, and all other text must be identical.  A cell
is split into number tokens and the text between them, so the numbers
inside a `report.csv` outcome ("ok gamma=0.61 r2=0.99") are compared token
by token; `report.csv` looks its tolerances up by stage, every other CSV
by column.  Each failing file is reported once, at its first failing cell,
with the difference there.

    PYTHONPATH=src python tests/compare_outputs.py A B            # bytes
    PYTHONPATH=src python tests/compare_outputs.py A B --threads  # numbers

exits 0 when the directories agree and 1, listing the failures, when not.
"""

import argparse
import fnmatch
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from wanloc.io import read_matrix


@dataclass(frozen=True)
class Tol:
    """Two numbers agree when |a - b| <= abs + rel * max(|a|, |b|)."""

    rel: float = 0.0
    abs: float = 0.0

    def holds(self, a, b):
        """Elementwise, for two numbers or two arrays; equal infinities and
        two nans agree."""
        with np.errstate(invalid="ignore"):
            return ((a == b) | (np.isnan(a) & np.isnan(b))
                    | (np.abs(a - b) <= self.abs
                       + self.rel * np.maximum(np.abs(a), np.abs(b))))


EXACT = Tol()
# rounding of O(1) to O(L) quantities; relative bounds cannot gate values
# that pass near 0, so these are absolute
ROUNDING_ABS = Tol(abs=5e-13)
ROUNDING_REL = Tol(rel=5e-13)
# decay fits read entries down to `spectral.decay_floor`, whose relative
# errors are near 1/2000: any reordered sum moves them by about 1e-7
BAND_FIT = Tol(rel=1e-5)

# The agreement of one run at 1 and at 2 BLAS threads.  A file maps to one
# Tol for all its numbers, or to a {key pattern: Tol} table whose keys are
# the CSV's columns (for report.csv, its stages); a file or key no pattern
# matches is EXACT.  The bounds are about 10x the largest 1-against-2-thread
# gaps of `pipeline` on the three shipped configs: WDMX entries 4.6e-14,
# centres, spectra and norms 4.3e-14 absolute, moments 3.3e-14 relative,
# band fits 1e-6 relative; verdicts, flags, ranks and widths are equal.
THREAD_TOLERANCES = {
    "*.wdmx": ROUNDING_ABS,
    "decay.csv": BAND_FIT,
    "basis_initial.csv": {"moment_s*": ROUNDING_REL},
    "certificates.csv": {"snorm": ROUNDING_ABS,
                         "min_gap_distance": ROUNDING_ABS},
    "gaps.csv": {"sigma_*": ROUNDING_ABS, "xi": ROUNDING_ABS,
                 "decay_gamma": BAND_FIT, "r2": BAND_FIT},
    "strips.csv": {"norm_*": ROUNDING_ABS},
    "basis_final.csv": {"xi": ROUNDING_ABS, "eta": ROUNDING_ABS,
                        "gamma": BAND_FIT, "r2": BAND_FIT},
    "chern.csv": {"value": ROUNDING_ABS, "imag_residual": ROUNDING_ABS},
    "report.csv": {"decay": BAND_FIT, "wannierize": ROUNDING_ABS},
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _lookup(table, name):
    return next((tol for pattern, tol in table.items()
                 if fnmatch.fnmatchcase(name, pattern)), EXACT)


def _compare_cell(a, b, tol):
    """None when the cells agree, else the failing pair and its difference."""
    if a == b:
        return None
    if NUMBER.split(a) != NUMBER.split(b):
        return f"{a!r} != {b!r}"
    pairs = zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b)))
    for x, y in pairs:
        if not tol.holds(x, y):
            return f"{x!r} != {y!r} (difference {abs(x - y):.3e})"
    return None


def _compare_csv(path_a, path_b, name, tol):
    with open(path_a) as fa, open(path_b) as fb:
        lines_a, lines_b = fa.read().splitlines(), fb.read().splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines != {len(lines_b)} lines"
    # the metadata comment and the header are compared as text
    for i in (0, 1):
        if lines_a[i] != lines_b[i]:
            return f"line {i + 1}: {lines_a[i]!r} != {lines_b[i]!r}"
    header = lines_a[1].split(",")
    keyed_by_stage = name == "report.csv"
    table = tol if isinstance(tol, dict) else {"*": tol}
    for i, (la, lb) in enumerate(zip(lines_a[2:], lines_b[2:]), start=3):
        row_a, row_b = la.split(","), lb.split(",")
        if len(row_a) != len(row_b):
            return f"line {i}: {la!r} != {lb!r}"
        for j, (a, b) in enumerate(zip(row_a, row_b)):
            key = row_a[0] if keyed_by_stage else header[j]
            failure = _compare_cell(a, b, _lookup(table, key))
            if failure:
                return f"line {i}, {key}: {failure}"
    return None


def _compare_wdmx(path_a, path_b, tol):
    A, B = read_matrix(path_a), read_matrix(path_b)
    if A.shape != B.shape:
        return f"shape {A.shape} != {B.shape}"
    bad = ~tol.holds(A, B)
    if not bad.any():
        return None
    i, j = np.unravel_index(np.argmax(bad), bad.shape)
    return (f"entry ({i}, {j}): {complex(A[i, j])!r} != {complex(B[i, j])!r} "
            f"(difference {abs(A[i, j] - B[i, j]):.3e})")


def _files(root):
    """The paths of every file under `root`, relative to it."""
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def compare_dirs(dir_a, dir_b, tolerances=None):
    """The failures of `dir_b` against `dir_a`, one line per failing file,
    subdirectories included: byte-identity when `tolerances` is None, else
    the numeric comparison of the cells and entries against that table,
    looked up by file name."""
    names_a, names_b = _files(dir_a), _files(dir_b)
    failures = [f"{name}: only in {d}"
                for d, only in ((dir_a, names_a - names_b),
                                (dir_b, names_b - names_a))
                for name in sorted(only)]
    for name in sorted(names_a & names_b):
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() == fb.read():
                continue
        base = os.path.basename(name)
        tol = None if tolerances is None else _lookup(tolerances, base)
        if tol is None or not base.endswith((".csv", ".wdmx")):
            failure = "files differ"
        elif base.endswith(".wdmx"):
            failure = _compare_wdmx(path_a, path_b, tol)
        else:
            failure = _compare_csv(path_a, path_b, base, tol)
        if failure:
            failures.append(f"{name}: {failure}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(prog="compare_outputs")
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--threads", action="store_true",
                        help="compare against THREAD_TOLERANCES")
    args = parser.parse_args(argv)
    failures = compare_dirs(args.dir_a, args.dir_b,
                            THREAD_TOLERANCES if args.threads else None)
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
