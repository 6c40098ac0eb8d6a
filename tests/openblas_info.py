"""The core name and thread count of numpy's bundled OpenBLAS, numpy's
enabled SIMD dispatch targets, and the golden-digest key built from them.

The seeded training trajectory depends on all three, as each dgemm kernel
and thread path rounds differently, and so do numpy's log10, exp and power
on each dispatch target. The OpenBLAS values are read through ctypes,
"unknown" when no bundled library exports the symbol. The dispatch targets
honour NPY_DISABLE_CPU_FEATURES. golden_key() names the table of
tests/golden_digests.json that tests/test_golden.py compares with. Print
them with

    python tests/openblas_info.py
"""

import ctypes
import glob
import os

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:      # numpy < 2
    from numpy.core import _multiarray_umath as _umath


def _openblas(symbol, restype):
    """The symbol's value from numpy's bundled OpenBLAS, else "unknown"."""
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], restype
        value = fn()
        return value.decode() if isinstance(value, bytes) else value
    return "unknown"


def openblas_core():
    return _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)


def openblas_threads():
    return _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)


def numpy_dispatch():
    """The SIMD targets numpy dispatches to on this CPU, space-separated,
    lowest first; "none" when only the baseline runs."""
    enabled = [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]
    return " ".join(enabled) or "none"


def golden_key():
    """numpy and scipy versions, numpy's highest enabled dispatch target and
    the OpenBLAS core and thread count: what the bytes of every output
    depend on, as one string."""
    import scipy
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"{numpy_dispatch().split()[-1]}, OpenBLAS {openblas_core()} "
            f"x{openblas_threads()}")


if __name__ == "__main__":
    print("OpenBLAS core:", openblas_core())
    print("OpenBLAS threads:", openblas_threads())
    print("numpy SIMD dispatch:", numpy_dispatch())
    print("golden-digest key:", golden_key())
