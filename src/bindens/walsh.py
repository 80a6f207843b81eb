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

Only this module packs cells: a cell is a row of ceil(n/8) bytes whose
little-endian reading is its zero-based index, made and read by
_pack_bits ("is -1" rows), _row_indexes (rows to indexes), _index_rows
(indexes to rows) and _unpack_bits (rows to bits).
"""

import math
from collections.abc import Iterable, Mapping
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
# package, enforced by _dense_size alone. Index-level operations accept
# far larger n.
MAX_DENSE_N = 30

# Refuse to materialize interaction index sets beyond this cardinality.
_MAX_SET_SIZE = 1 << 26


def _integer(value, what, minimum=1, error=ValueError):
    """value as an int, the package's one integer check: an int or numpy
    integer at or above minimum, never a bool or a float; else error(what...)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


# Values that float() or numpy would read as numbers but _real refuses.
_NOT_REAL = (bool, np.bool_, str, bytes)


def _real(value, what, error=ValueError):
    """float(value), the package's one real-number check: never a bool or a
    string (which float() would parse), and error(what...) rather than
    float()'s own error for a non-number."""
    if isinstance(value, _NOT_REAL):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be a number, got {value!r}") from exc


def _float_array(values, what):
    """values (a scalar, list, tuple or array) as a float64 array, the
    package's one vector check, under _real's rule for each entry: numpy
    would read True as 1.0 and parse "0.5", and np.asarray([True, 0.5])
    upcasts the bool without a trace, so a bool or string entry, or an
    array of such a dtype, is refused before the conversion. A float64
    array is returned as it is."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return values
        entries = values.flat if values.dtype.kind in "bSUO" else ()
    else:
        entries = values if isinstance(values, (list, tuple)) else (values,)
    refused = next((v for v in entries if isinstance(v, _NOT_REAL)), None)
    if refused is not None:
        raise ValueError(f"{what} must be real numbers, got {refused!r}")
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be real numbers: {exc}") from exc


def _dense_size(n, what):
    """2^n, the length of a buffer over every cell in dimension n: the one
    place that refuses n > MAX_DENSE_N, with CapacityError naming what
    needed the buffer, before anything is allocated."""
    if n > MAX_DENSE_N:
        raise CapacityError(f"{what} needs a 2^{n} buffer (limit n={MAX_DENSE_N})")
    return 1 << n


def _items(values, what, error=ValueError):
    """list(values), or error(what...) rather than Python's own TypeError
    when values is not iterable."""
    if not isinstance(values, Iterable):
        raise error(f"{what} must be a list, got {values!r}")
    return list(values)


def _pairs(mapping, what, error=ValueError):
    """The (key, value) pairs of mapping, or error(what...) when it is not
    a mapping: a list of pairs has no items() to call."""
    if not isinstance(mapping, Mapping):
        raise error(f"{what} must be a mapping, got {type(mapping).__name__}")
    return list(mapping.items())


def _check_index(j, n, what="cell index", error=ValueError):
    """j as an int, checked by _integer and against the range [1, 2^n]."""
    j = _integer(j, what, 1, error)
    if j > 1 << n:
        # Past 2^64 the bit length stands in for the digits, which str()
        # refuses to print beyond 4300.
        shown = j if j.bit_length() <= 64 else f"of {j.bit_length()} bits"
        raise error(f"{what} {shown} out of range [1, 2^{n}]")
    return j


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
    return _row_indexes(_pack_bits(as_point(x)[None] < 0))[0]


def point_of_index(j, n):
    """Sign vector of cell j in dimension n; inverse of index_of_point."""
    n = _integer(n, "dimension")
    bits = _unpack_bits(_index_rows([j], n), n)[0]
    return np.where(bits == 1, -1, 1).astype(np.int8)


def _pack_bits(minus):
    """Rows of a 2-D boolean array, True where a coordinate is -1, as packed cells."""
    return np.packbits(minus, axis=1, bitorder="little")


def _row_indexes(rows):
    """The 1-based cell index of each packed row of a 2-D uint8 array."""
    raw, width = rows.tobytes(), rows.shape[1]
    return [1 + int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]


def _index_rows(cells, n):
    """1-based cell indexes in dimension n, each checked by _check_index,
    as a read-only uint8 array of packed rows of ceil(n/8) bytes."""
    width = (n + 7) // 8
    raw = b"".join((_check_index(cell, n) - 1).to_bytes(width, "little") for cell in cells)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(cells), width)


def _unpack_bits(rows, count):
    """Bits 0..count-1 of each row of packed bytes, as uint8 0/1 rows."""
    return np.unpackbits(rows, axis=1, count=count, bitorder="little")


def walsh_entry(row, col, n):
    """Single +-1 entry of the 2^n Walsh matrix: parity of shared index bits."""
    n = _integer(n, "dimension")
    row = _check_index(row, n, "row index")
    col = _check_index(col, n, "column index")
    return 1 - 2 * (((row - 1) & (col - 1)).bit_count() & 1)


def product_index(i, j):
    """Column index m with W[:, i] * W[:, j] = W[:, m] elementwise.

    The zero-based map is a plain XOR, so rows and columns of the full
    product table are permutations of the index range.
    """
    return ((_integer(i, "cell index") - 1) ^ (_integer(j, "cell index") - 1)) + 1


def fwht(v):
    """Apply the 2^n Walsh matrix to a length-2^n vector in O(n 2^n).

    Out of place: the input is never modified, and the work needs two
    2^n float64 buffers besides the input. Applying twice scales by 2^n,
    since the matrix squares to 2^n times the identity.

    Stage k forms a + b and a - b over the pairs of entries whose indexes
    differ in bit k (_butterfly), bit 0 first, as a plain in-place
    butterfly does, so every output is the same sums in the same order
    and the result is bit-identical to it.
    """
    arr = _float_array(v, "fwht input")
    if arr.ndim != 1:
        raise ValueError("fwht expects a 1-d vector")
    size = arr.shape[0]
    if size == 0 or size & (size - 1):
        raise ValueError(f"fwht length must be a power of two, got {size}")
    _dense_size(size.bit_length() - 1, "fwht")
    if size == 1:
        return arr.copy()
    return _butterfly(arr, _walsh_stage)


def _walsh_stage(bit, a, b, low, high):
    np.add(a, b, out=low)
    np.subtract(a, b, out=high)


def _butterfly(arr, stage):
    """Run stage(bit, a, b, low, high) for bit = 0..n-1 over a float64
    vector arr of length 2^n >= 2 and return the result, a new array; arr
    is only read.

    The contract of a stage: a and b are the current values of the
    entries whose indexes differ in index bit `bit` alone, a with the bit
    clear and b with it set, and the stage writes the new values of those
    entries into low and high, which hold no values on entry. Positions
    within a, b, low and high are internal: a stage may use `bit` and
    per-bit scalars, but not where an entry sits. The peak is 2 * 2^n
    floats.

    The stages run in Stockham (autosort) order (Cochran et al. 1967,
    Proc. IEEE 55:1664): a and b are the even and odd entries of the
    current array, low and high the two halves of the other buffer. Each
    stage so rotates the index bits right by one, pairing bit k at stage
    k, and after n stages the order is natural again.
    """
    size = arr.shape[0]
    half = size >> 1
    buffers = np.empty(size), np.empty(size)
    for bit in range(size.bit_length() - 1):
        out = buffers[bit & 1]
        stage(bit, arr[0::2], arr[1::2], out[:half], out[half:])
        arr = out
    return arr


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
    n = _integer(n, "dimension")
    k = _integer(k, "interaction order", 0)
    if k > n:
        return InteractionIndexSet(n, k, ())
    if math.comb(n, k) > _MAX_SET_SIZE:
        raise CapacityError(
            f"interaction set for n={n}, k={k} has {math.comb(n, k)} members; refusing to materialize"
        )
    members = sorted(1 + sum(1 << p for p in combo) for combo in combinations(range(n), k))
    return InteractionIndexSet(n, k, tuple(members))
