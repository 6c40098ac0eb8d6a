"""The core name and thread count of numpy's bundled OpenBLAS.

The seeded training trajectory depends on both, as each dgemm kernel and
thread path rounds differently. Read through ctypes; "unknown" when no
bundled library exports the symbol. Print both with

    python tests/openblas_info.py
"""

import ctypes
import glob
import os

import numpy as np


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


if __name__ == "__main__":
    print("OpenBLAS core:", openblas_core())
    print("OpenBLAS threads:", openblas_threads())
