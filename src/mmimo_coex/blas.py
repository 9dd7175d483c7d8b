"""Scoped control of the thread count of the OpenBLAS that numpy loaded.

On large arrays (100 antennas and more) OpenBLAS splits a product across its
threads, which changes the last bits of the results and spends CPU time on a
second core; one thread keeps a run's outputs the same whatever thread count
the host or the caller set.
"""

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def openblas_thread_api():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    here = os.path.dirname(np.__file__)
    for path in glob.glob(os.path.join(here, "..", "numpy.libs", "*openblas*")) + glob.glob(
        os.path.join(here, ".dylibs", "*openblas*")
    ):
        lib = ctypes.CDLL(path)
        for pattern in _SYMBOLS:
            get, set_ = (getattr(lib, pattern.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def single_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count.

    The count is process-wide: threads of one process share it.
    """
    api = openblas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
