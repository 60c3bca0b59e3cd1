"""Spherical mesh registration toolkit.

Importing the package pins BLAS to one thread.  OpenBLAS splits some
products across threads in a different order, so with more than one
thread the bytes of checkpoints, logs and resamples change with the
thread count.  NumPy's bundled OpenBLAS is pinned at run time, which
holds even when NumPy was loaded first: NumPy 2 bundles it as
``libscipy_openblas*``, NumPy 1 as ``libopenblas*``, with the setter
names of ``_OPENBLAS_SETTERS``.  Any other BLAS gets the thread
variables of the environment, which hold only if NumPy was not loaded
yet.  ``BLAS`` records the library, the thread count and the pin that
took effect; manifests copy it.
"""

import ctypes
import glob
import importlib.util
import os
import sys

__version__ = "0.1.0"

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
# (setter, getter) of the bundled OpenBLAS builds, newest first
_OPENBLAS_SETTERS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _bundled_openblas(root: str) -> list[str]:
    """The OpenBLAS libraries a NumPy wheel installed at ``root`` bundles:
    in ``numpy.libs`` (Linux, Windows) or ``numpy/.dylibs`` (macOS)."""
    return sorted(path for folder in (root + ".libs",
                                      os.path.join(root, ".dylibs"))
                  for pattern in ("libscipy_openblas*", "libopenblas*")
                  for path in glob.glob(os.path.join(folder, pattern)))


def _pin_blas() -> dict:
    numpy_loaded = "numpy" in sys.modules
    found = _bundled_openblas(
        os.path.dirname(importlib.util.find_spec("numpy").origin))
    if not found:
        os.environ.update(dict.fromkeys(_THREAD_VARIABLES, "1"))
    import numpy  # loads the bundled library that ctypes opens again below
    for path in found:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SETTERS:
            set_threads = getattr(lib, set_name, None)
            get_threads = getattr(lib, get_name, None)
            if set_threads is None or get_threads is None:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads(1)
            return {"library": os.path.basename(path),
                    "threads": get_threads(), "pin": set_name}
    pinned = not found and not numpy_loaded
    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {"library": f"{blas.get('name')} {blas.get('version')}",
            "threads": 1 if pinned else None,
            "pin": "environment" if pinned else "none"}


BLAS = _pin_blas()
