"""Hot numeric kernels, compiled with numba when available.

The backend is chosen once at import time from the BINDENS_BACKEND
environment variable ("numba" or "numpy"). When the variable is unset,
numba is used if it imports cleanly and numpy otherwise. An explicit
value that cannot be honoured (an unknown name, or "numba" without
numba installed) is never served by the other backend: the import
prints one "error:" line naming BINDENS_BACKEND and raises
SystemExit(2), the exit status the command line gives every
configuration error. The choice has to stop the process at import,
since `python -m bindens` and the `bindens` script both import the
package before any command runs. Both implementations of every kernel
stay importable so tests and benchmarks can compare them head to head
regardless of which one is active.
"""

import os
import sys

import numpy as np

__all__ = [
    "ACTIVE_BACKEND",
    "HAS_NUMBA",
    "fwht_inplace",
    "fwht_inplace_numpy",
    "xor_dot",
    "xor_dot_numpy",
]


def fwht_inplace_numpy(a):
    """In-place Walsh butterfly; each pass is one vectorized add/sub."""
    size = a.shape[0]
    h = 1
    while h < size:
        pairs = a.reshape(-1, 2 * h)
        top = pairs[:, :h].copy()
        bot = pairs[:, h:]
        pairs[:, :h] = top + bot
        pairs[:, h:] = top - bot
        h *= 2


def xor_dot_numpy(v, x):
    """sum_m v[m] * v[m ^ x] over the full index range of v."""
    idx = np.arange(v.shape[0], dtype=np.int64) ^ np.int64(x)
    return float(np.dot(v, v[idx]))


try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is the optional "numba" extra
    njit = None
    HAS_NUMBA = False


if HAS_NUMBA:

    @njit(cache=True, nogil=True)
    def fwht_inplace_numba(a):
        size = a.shape[0]
        h = 1
        while h < size:
            for i in range(0, size, 2 * h):
                for j in range(i, i + h):
                    x = a[j]
                    y = a[j + h]
                    a[j] = x + y
                    a[j + h] = x - y
            h *= 2

    @njit(cache=True, nogil=True)
    def xor_dot_numba(v, x):
        s = 0.0
        for m in range(v.shape[0]):
            s += v[m] * v[m ^ x]
        return s

else:  # pragma: no cover
    fwht_inplace_numba = None
    xor_dot_numba = None


def _refuse(reason):
    print(f"error: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _pick_backend():
    requested = os.environ.get("BINDENS_BACKEND", "").strip().lower()
    if requested not in ("", "numba", "numpy"):
        _refuse(f"BINDENS_BACKEND must be 'numba' or 'numpy', got {requested!r}")
    if requested == "numpy":
        return "numpy"
    if requested == "numba" and not HAS_NUMBA:
        _refuse(
            "BINDENS_BACKEND=numba requested but numba is not installed; "
            "install the 'numba' extra or set BINDENS_BACKEND=numpy"
        )
    return "numba" if HAS_NUMBA else "numpy"


ACTIVE_BACKEND = _pick_backend()

if ACTIVE_BACKEND == "numba":
    fwht_inplace = fwht_inplace_numba
    xor_dot = xor_dot_numba
else:  # pragma: no cover - exercised via subprocess test
    fwht_inplace = fwht_inplace_numpy
    xor_dot = xor_dot_numpy
