"""Bit-level algebra of naturally ordered Walsh matrices.

A point x in {-1,+1}^n is identified with the 1-based matrix column
index j = 1 + sum_k bit_k 2^(k-1), where bit_k = 0 when x_k = +1 and
bit_k = 1 when x_k = -1. Under this convention a single matrix entry is
a parity lookup, the elementwise column-product map is a XOR of
zero-based indexes, and the sign pattern of coordinate k sits in column
2^(k-1) + 1. All index operations therefore run on plain (arbitrary
precision) integers at any dimension; only the transform itself
allocates 2^n-sized buffers. The transform is a numpy butterfly: n
passes, each one vectorized add and subtract over the whole vector.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError

__all__ = [
    "MAX_DENSE_N",
    "InteractionIndexSet",
    "as_point",
    "fwht",
    "index_of_point",
    "interaction_indexes",
    "point_of_index",
    "product_index",
    "walsh_entry",
]

# Largest n for which 2^n-sized buffers may be allocated anywhere in the
# package. Index-level operations accept far larger n.
MAX_DENSE_N = 30

# Refuse to materialize interaction index sets beyond this cardinality.
_MAX_SET_SIZE = 1 << 26


def _check_dimension(n):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")


def _check_index(j, n, what="cell index"):
    if not isinstance(j, (int, np.integer)) or isinstance(j, bool):
        raise ValueError(f"{what} must be an integer, got {type(j).__name__}")
    if j < 1 or j > (1 << int(n)):
        raise ValueError(f"{what} {j} out of range [1, 2^{n}]")


def as_point(x):
    """Validate a sign vector and return it as an int8 array."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("point must be a nonempty 1-d vector")
    if arr.dtype.kind not in "iuf":
        raise ValueError("point entries must be numeric -1/+1 values")
    if not np.all(np.abs(arr) == 1):
        raise ValueError("point entries must be exactly -1 or +1")
    return arr.astype(np.int8)


def index_of_point(x):
    """1-based cell index of a {-1,+1} point (+1 -> bit 0, -1 -> bit 1)."""
    signs = as_point(x)
    bits = signs < 0
    raw = np.packbits(bits, bitorder="little").tobytes()
    return 1 + int.from_bytes(raw, "little")


def point_of_index(j, n):
    """Sign vector of cell j in dimension n; inverse of index_of_point."""
    _check_dimension(n)
    _check_index(j, n)
    nbytes = (int(n) + 7) // 8
    raw = np.frombuffer(int(j - 1).to_bytes(nbytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[: int(n)]
    return np.where(bits == 1, -1, 1).astype(np.int8)


def walsh_entry(row, col, n):
    """Single +-1 entry of the 2^n Walsh matrix: parity of shared index bits."""
    _check_dimension(n)
    _check_index(row, n, "row index")
    _check_index(col, n, "column index")
    return 1 - 2 * (((int(row) - 1) & (int(col) - 1)).bit_count() & 1)


def product_index(i, j):
    """Column index m with W[:, i] * W[:, j] = W[:, m] elementwise.

    The zero-based map is a plain XOR, so rows and columns of the full
    product table are permutations of the index range.
    """
    if not isinstance(i, (int, np.integer)) or not isinstance(j, (int, np.integer)):
        raise ValueError("cell indexes must be integers")
    if i < 1 or j < 1:
        raise ValueError("cell indexes are 1-based and must be >= 1")
    return ((int(i) - 1) ^ (int(j) - 1)) + 1


def fwht(v):
    """Apply the 2^n Walsh matrix to a length-2^n vector in O(n 2^n).

    Out of place: the input is never modified. Applying twice scales by
    2^n, since the matrix squares to 2^n times the identity.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("fwht expects a 1-d vector")
    size = arr.shape[0]
    if size == 0 or size & (size - 1):
        raise ValueError(f"fwht length must be a power of two, got {size}")
    if size > (1 << MAX_DENSE_N):
        raise CapacityError(f"fwht supports at most 2^{MAX_DENSE_N} elements, got {size}")
    out = arr.copy()
    h = 1
    while h < size:
        pairs = out.reshape(-1, 2 * h)
        top = pairs[:, :h].copy()
        bot = pairs[:, h:]
        pairs[:, :h] = top + bot
        pairs[:, h:] = top - bot
        h *= 2
    return out


@dataclass(frozen=True)
class InteractionIndexSet:
    """Sorted cell indexes whose column is a product of exactly k coordinates."""

    n: int
    k: int
    members: tuple

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, j):
        return j in self.members


def interaction_indexes(n, k):
    """All cell indexes with exactly k participating coordinates.

    These are the 1-based indexes whose zero-based form has popcount k;
    equivalently the k-th order interaction columns. Members are sorted
    ascending and exact at any n (Python integers).
    """
    _check_dimension(n)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError(f"interaction order must be a nonnegative integer, got {k!r}")
    n, k = int(n), int(k)
    if k > n:
        return InteractionIndexSet(n, k, ())
    if math.comb(n, k) > _MAX_SET_SIZE:
        raise CapacityError(
            f"interaction set for n={n}, k={k} has {math.comb(n, k)} members; refusing to materialize"
        )
    members = sorted(1 + sum(1 << p for p in combo) for combo in combinations(range(n), k))
    return InteractionIndexSet(n, k, tuple(members))
