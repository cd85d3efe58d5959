"""Pinning and recording the numeric environment of a benchmark run.

This module imports nothing heavy at load time: :func:`pin_blas_threads`
must run before numpy is first imported, because OpenBLAS reads its
thread count only when it is loaded.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

# One thread: on 2 vCPU, neg_nsd ran faster and scattered less with one
# BLAS thread than with the default of two, and the closed loop runs one
# cleaning at a time, so nothing else needs the second core.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Fix the BLAS thread count in this process's environment."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe() -> dict:
    """Python, numpy and BLAS versions, CPU count and BLAS thread count."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_use": _openblas_threads(),
    }
