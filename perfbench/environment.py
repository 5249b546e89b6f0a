"""Environment fingerprint attached to every benchmark result."""

import ctypes
import os
import platform

import numpy as np
import scipy


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if unknown."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_library():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def fingerprint(n_rows, rank, seed):
    return {"N": n_rows, "rank": rank, "seed": seed,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "blas": blas_library(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}
