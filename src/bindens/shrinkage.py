"""Shrinkage vectors: per-coefficient multipliers of the kernel diagonal.

Three storage forms cover the useful regimes. A dense vector holds all
2^n coefficients explicitly (n <= 30). A sparse map holds only nonzero
coefficients keyed by cell index and works at any n. The
single-interaction form holds one weight per coordinate and expands to
nonzeros at indexes 2^(k-1) + 1 only, i.e. the first-order interaction
columns; it also works at any n.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .walsh import MAX_DENSE_N, _check_index, _integer, _pairs, _real

__all__ = ["DENSE", "SPARSE", "SINGLE_INTERACTION", "ShrinkageSpec"]

DENSE = "dense"
SPARSE = "sparse"
SINGLE_INTERACTION = "single_interaction"


def _float_array(values, what):
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be real numbers: {exc}") from exc


def _readonly(arr):
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ShrinkageSpec:
    """Immutable shrinkage vector in dense, sparse, or single-interaction form.

    Build instances through the classmethod constructors; the raw
    constructor performs no validation.
    """

    n: int
    form: str
    values: np.ndarray = None
    entries: tuple = None
    w: np.ndarray = None

    @classmethod
    def dense(cls, values):
        """Dense coefficient vector of length 2^n; index 1 is element 0."""
        arr = _float_array(values, "dense shrinkage values")
        if arr.ndim != 1 or arr.size < 2 or arr.size & (arr.size - 1):
            raise ValueError(f"dense shrinkage length must be a power of two >= 2, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dense shrinkage values must be finite")
        n = int(arr.size).bit_length() - 1
        return cls(n=n, form=DENSE, values=_readonly(arr))

    @classmethod
    def sparse(cls, n, entries):
        """Sparse coefficients {cell index: value}; zero values are dropped."""
        n = _integer(n, "dimension")
        cleaned = []
        for idx, val in _pairs(entries, "sparse shrinkage entries"):
            idx = _check_index(idx, n, "sparse shrinkage index")
            val = _real(val, "sparse shrinkage value")
            if not np.isfinite(val):
                raise ValueError(f"sparse shrinkage value at index {idx} must be finite")
            if val != 0.0:
                cleaned.append((idx, val))
        cleaned.sort()
        return cls(n=n, form=SPARSE, entries=tuple(cleaned))

    @classmethod
    def single_interaction(cls, w):
        """Per-coordinate weights in [0, 1]; coefficient w_k at index 2^(k-1)+1."""
        arr = _float_array(w, "interaction weights")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("interaction weights must form a nonempty 1-d vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("interaction weights must lie in [0, 1]")
        return cls(n=int(arr.size), form=SINGLE_INTERACTION, w=_readonly(arr))

    def first_coefficient(self):
        """Coefficient at index 1 (the all-ones column)."""
        if self.form == DENSE:
            return float(self.values[0])
        if self.form == SPARSE:
            for idx, val in self.entries:
                if idx == 1:
                    return val
            return 0.0
        return 0.0

    def nonzero_items(self):
        """Sorted (cell index, coefficient) pairs with nonzero coefficient."""
        if self.form == DENSE:
            pos = np.flatnonzero(self.values)
            return [(int(p) + 1, float(self.values[p])) for p in pos]
        if self.form == SPARSE:
            return list(self.entries)
        return [((1 << k) + 1, float(self.w[k])) for k in range(self.n) if self.w[k] != 0.0]

    @property
    def num_nonzero(self):
        return len(self.nonzero_items())

    def to_dense(self):
        """Materialize the full 2^n coefficient vector (n <= 30 only)."""
        if self.n > MAX_DENSE_N:
            raise CapacityError(
                f"cannot materialize 2^{self.n} shrinkage coefficients (limit n={MAX_DENSE_N})"
            )
        if self.form == DENSE:
            return self.values.copy()
        out = np.zeros(1 << self.n)
        for idx, val in self.nonzero_items():
            out[idx - 1] = val
        return out
