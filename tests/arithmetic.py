"""The floating-point configuration that a bitwise pin belongs to.

Some pinned digests hold only on the arithmetic kernels they were recorded
on: the BLAS's products round differently with and without fused
multiply-adds, and numpy's AVX2 and AVX-512 ``exp``, ``log1p`` and ``tanh``
differently from its baseline loops.  Each such pin names the parts of the
configuration its bits depend on, and a mismatch prints those parts as
recorded and as running, so that a failure on another machine says why.
"""

import os

import numpy as np


def arithmetic_config() -> dict:
    """What picks this process's floating-point kernels: the SIMD levels
    numpy dispatches on that the CPU has and numpy has not been told to
    skip (``__cpu_features__``), the BLAS numpy was built with
    (``np.show_config``) and OpenBLAS's kernel override."""
    from numpy._core._multiarray_umath import __cpu_features__

    build = np.show_config(mode="dicts")
    simd, blas = build["SIMD Extensions"], build["Build Dependencies"]["blas"]
    levels = simd["baseline"] + simd["found"] + simd["not found"]
    return {
        "simd": sorted(level for level in levels if __cpu_features__.get(level)),
        "blas": f"{blas['name']} {blas['version']} ({blas.get('openblas configuration')})",
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
    }


def recorded_on(recorded: dict) -> str:
    """A pin's failure message: the configuration it was ``recorded`` on,
    and the running one's values of the same keys."""
    running = arithmetic_config()
    return f"recorded on {recorded}, running on { {key: running[key] for key in recorded} }"
