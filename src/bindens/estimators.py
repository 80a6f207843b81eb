"""Probability estimators over the {-1,+1}^n hypercube.

Every estimator family here has the same shape: a symmetric kernel
matrix Q whose entry (i, j) depends only on the XOR of the zero-based
cell indexes, applied to the empirical cell weights. The families are

* linear: Q = (1/2^n) W diag(b) W for a shrinkage vector b with b_1 = 1
  and entries in [0, 1];
* transformed: f applied elementwise to W diag(b) W, renormalized;
* waak: the weighted product-form kernel with per-coordinate weights w
  and base gamma, evaluated in log space so it works at n in the tens of
  thousands;
* aa_classic: the classic single-parameter categorical kernel, expressed
  as a waak with unit weights and gamma = sqrt(lam / (1 - lam));
* mixture: a convex combination of any of the above.

Kernel entries are filled a block at a time: one batched core returns Q
(or Q @ Q) on two lists of cells as a matrix product over their points,
their parity features, or a gather from a dense profile, and every
estimate, leave-one-out risk and matrix_element goes through it. A
kernel whose Z has no closed form sums its dense row for Z (n <= 30) and
reads every entry from that row, as a dense-shrinkage kernel does, so
its Z, full estimate and single entries are one set of numbers; other
blocks cost O(#nonzero(b)) or O(n) per entry with no 2^n buffer. Q @ Q
of a transformed or mixture kernel needs the dense profile, so a single
entry of it is xor_dot, one gather and dot over the profile. The core's
quadratic form p' Q^2 p instead reads the kernel's Walsh diagonal s,
with Q = W diag(s) W / 2^n (n <= 30): it is ||s * fwht(p)||^2 / 2^n.
s is b for a linear kernel and a product of tanh(t_d) for waak and
aa_classic, both in closed form; a transformed kernel keeps one
transform of its row, and a mixture sums its components' diagonals.
fwht(p) is kept by the counts, so an SE search pays its transforms per
component and per counts, not per candidate. A full 2^n estimate reads
the same diagonal: fwht(s * fwht(p)) / 2^n, kept for a non-linear
kernel only when an a-priori error bound certifies it, and otherwise
one positive pass per coordinate for waak and aa_classic, and a gather
of the dense row per observed cell for a transformed kernel.

Product-form kernels (waak, aa_classic) see two cells only through a
weighted distance D_t, the sum of t_d = w_d log(gamma) over the
coordinates where they differ, and take one of two routes, chosen from t
alone. When every t_d equals one value s, D_t = s H with H the exact
integer Hamming matrix, a popcount over the packed cells, and log Q =
log_diag - 2 s H takes one of n + 1 levels. The kernel's risks and
estimates then stay in log space, each row shifted by its nearest cell,
so a held-out term or estimate far below the float64 range keeps its
logarithm, and a candidate costs n + 1 exp calls plus a gather.
Otherwise D_t is a float product over the cells' bits. Blocks of Q
itself (mixture components) are exponentiated entrywise on either route.
An estimate at listed cells and a leave-one-out held-out term are both
Q p, the latter with one count less; one function, _smoothed, gives
both and is the one place a route is chosen.

Everything a configuration derives (parity features, the normalizer Z,
the dense row, its Walsh diagonal, the waak log state) is a function of
that configuration alone, so it is a private attribute of the
EstimatorConfig itself, computed when first asked for, and the core's
entry points are private methods of the config. A mixture reads its own
components and keeps no dense row or diagonal: it sums its components'
whenever one is asked for. In the same way, what the observed cells
derive (their packed bits, their Hamming matrix H, their counts and the
transform fwht(p) of their weights) is a private attribute of the
CountsVector, with the lookup state that every uniform-weight
candidate of a search (aa_lambda, waak shared_grid) reads from H, so
each such candidate pays only a gather over K^2 entries on K observed
cells, and every estimate reuses the packed support.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateNormalizerError,
    NumericError,
)
from .shrinkage import DENSE, SINGLE_INTERACTION, ShrinkageSpec
from .transforms import FWHT_GENERAL, Transform, _dense_values, _route, _summed_normalizer, apply, normalizer
from .walsh import MAX_DENSE_N, _butterfly, _check_index, _integer, _items, _pairs, _real, as_point, fwht

__all__ = [
    "MAX_FULL_N",
    "VARIANTS",
    "CountsVector",
    "DensityEstimate",
    "EstimatorConfig",
    "clamp_and_renormalize",
    "counts_from_observations",
    "estimate_at",
    "estimate_full",
    "matrix_element",
    "shrinkage_optimal",
    "squared_matrix_element",
]

VARIANTS = ("linear", "transformed", "waak", "aa_classic", "mixture")

# Largest n for which the full 2^n estimate vector may be materialized.
MAX_FULL_N = 20

_LOG2 = math.log(2.0)

# Below this exponent exp() leaves the float64 normal range, where numpy
# takes a slow path of about 20-130 ns per call.
_LOG_TINY = math.log(sys.float_info.min)


# ---------------------------------------------------------------------------
# observation counts


@dataclass(frozen=True, eq=False)
class CountsVector:
    """Empirical cell counts stored sparsely in ascending index order.

    The observed cells (the support) are what every candidate kernel is
    evaluated on, so their kernel-core state is a private attribute of the
    counts, built on first use: _packed holds the support cells packed to
    bits, and its hamming attribute the exact support x support Hamming
    matrix, which every uniform-weight kernel (aa_classic, waak with all
    t_d equal) reads instead of computing its own distances, and
    _nearest and _pair_histogram what their leave-one-out risks derive
    from it.
    _spectrum holds fwht(p) of the empirical weights, which the SE
    quadratic of every transformed or mixture kernel and every full
    estimate multiply by the kernel's Walsh diagonal (n <= 30), and
    _counts the support's counts as floats, which every risk and
    estimate multiplies kernel blocks by.
    """

    n: int
    total: int
    cells: tuple

    @classmethod
    def from_cells(cls, n, mapping):
        """Build from {cell index: positive count}; indexes may be huge."""
        n = _integer(n, "dimension", 1, DataError)
        pairs = _pairs(mapping, "counts", DataError)
        if not pairs:
            raise DataError("counts must cover at least one cell")
        cleaned = []
        for idx, cnt in pairs:
            idx = _check_index(idx, n, "cell index", DataError)
            cleaned.append((idx, _integer(cnt, "cell count", 1, DataError)))
        cleaned.sort()
        total = sum(cnt for _, cnt in cleaned)
        return cls(n=n, total=total, cells=tuple(cleaned))

    @cached_property
    def observations(self):
        """Cell index of each observation in canonical (ascending) order."""
        out = []
        for idx, cnt in self.cells:
            out.extend([idx] * cnt)
        return tuple(out)

    def count_of(self, cell):
        return self._lookup.get(_check_index(cell, self.n, "cell index", DataError), 0)

    @cached_property
    def _lookup(self):
        return dict(self.cells)

    @cached_property
    def _packed(self):
        return _Cells([idx for idx, _ in self.cells], self.n)

    @cached_property
    def _counts(self):
        """The support's counts as floats, in support order."""
        out = np.array([cnt for _, cnt in self.cells], dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def _nearest(self):
        """For each support cell r, the smallest Hamming distance H[r, c]
        to a cell c that the held-out term at r weights: 0 for a cell seen
        more than once, whose own cell keeps its count minus one, and the
        distance to the nearest other cell for a cell seen once. The
        held-out terms of uniform-weight kernels shift by it
        (_smoothed)."""
        others = self._packed.hamming.copy()
        np.fill_diagonal(others, self.n + 1)
        return np.where(self._counts > 1.0, 0, others.min(axis=1))

    @cached_property
    def _pair_histogram(self):
        """P[h], the sum of count r * count c over the support pairs with
        H[r, c] = h, for h = 0..n: the SE quadratic of every
        uniform-weight kernel reads it (_WaakState.quadratic)."""
        cnt = self._counts
        weights = np.outer(cnt, cnt).ravel()
        return np.bincount(self._packed.hamming.ravel(), weights=weights, minlength=self.n + 1)

    @cached_property
    def _spectrum(self):
        """fwht(p) of the empirical weights p: the one transform of the
        data that the SE quadratic of every profile kernel and every full
        estimate's Walsh-diagonal route read."""
        return fwht(self.to_dense())

    def to_dense(self):
        """Full empirical weight vector p with p[j-1] = count_j / total."""
        if self.n > MAX_DENSE_N:
            raise CapacityError(
                f"cannot materialize 2^{self.n} cell weights (limit n={MAX_DENSE_N})"
            )
        out = np.zeros(1 << self.n)
        # Word 0 is the whole zero-based index at n <= MAX_DENSE_N; the
        # division is the IEEE one that cnt / total makes per cell.
        out[self._packed.words[:, 0]] = self._counts / self.total
        return out


# Observation rows already packed to sign bits: n coordinates, and a
# C-contiguous uint8 matrix with one row of (n + 7) // 8 bytes per
# observation whose little-endian reading is its cell index minus one (bit
# k set where coordinate k + 1 is -1). load_observations decodes a file
# straight into this form.
_PackedRows = namedtuple("_PackedRows", "n rows")


def counts_from_observations(points):
    """Aggregate raw {-1,+1} observation rows into a CountsVector.

    A 2-D numeric array is validated and packed to bits a block of rows at
    a time, so no temporary as large as the array is made; any other
    sequence of rows is validated row by row, as is an array with a bad
    entry, to raise a DataError naming the first bad observation. Rows
    given as _PackedRows are taken as they are. The distinct packed rows
    are counted by one np.unique.
    """
    if isinstance(points, _PackedRows):
        n, packed = points
    else:
        arr, packed = points, None
        if isinstance(arr, np.ndarray) and arr.ndim == 2 and arr.size and arr.dtype.kind in "iuf":
            packed = _packed_rows(arr)
        if packed is None:
            arr = _checked_rows(points)
            packed = _packed_rows(arr)
        n = arr.shape[1]
    # Rows compared as whole byte strings (one void item each); from_cells
    # puts the distinct cells in ascending order.
    keys, counts = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))), return_counts=True)
    return CountsVector.from_cells(
        n,
        {1 + int.from_bytes(key.tobytes(), "little"): int(cnt) for key, cnt in zip(keys, counts)},
    )


# Rows validated and packed per block: about this many entries at a time.
_PACK_BLOCK_ENTRIES = 1 << 20


def _packed_rows(arr):
    """A 2-D array of +-1 as the rows of _PackedRows; None when an entry
    is not +-1."""
    n_rows, n = arr.shape
    packed = np.empty((n_rows, (n + 7) // 8), dtype=np.uint8)
    step = max(1, _PACK_BLOCK_ENTRIES // n)
    for start in range(0, n_rows, step):
        block = arr[start : start + step]
        if not np.all(np.abs(block) == 1):
            return None
        # Little-endian bits put coordinate 1 in the lowest bit of byte 0.
        packed[start : start + step] = np.packbits(block < 0, axis=1, bitorder="little")
    return packed


def _checked_rows(points):
    """Validate observation rows one by one; raises naming the first bad row."""
    rows = list(points)
    if not rows:
        raise DataError("no observations provided")
    checked = []
    n = None
    for r, row in enumerate(rows):
        try:
            arr = as_point(row)
        except ValueError as exc:
            raise DataError(f"observation {r}: {exc}") from exc
        if n is None:
            n = arr.size
        elif arr.size != n:
            raise DataError(f"observation {r} has {arr.size} coordinates, expected {n}")
        checked.append(arr)
    return np.stack(checked)


def shrinkage_optimal(q, N):
    """Risk-minimizing scalar shrinkage toward the uniform baseline.

    For a single spectral coefficient q in [-1, 1] estimated from N
    samples, the squared-error optimum is N q^2 / ((N-1) q^2 + 1),
    which always lands in [0, 1] and is 1 exactly at |q| = 1.
    """
    N = _integer(N, "sample count")
    q = _real(q, "coefficient")
    if not -1.0 <= q <= 1.0:
        raise ValueError(f"coefficient must lie in [-1, 1], got {q}")
    return float(N * q * q / ((N - 1) * q * q + 1.0))


# ---------------------------------------------------------------------------
# estimator configurations


def _as_weight_vector(w):
    try:
        return ShrinkageSpec.single_interaction(w)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _validate_components(components):
    comps = []
    for item in _items(components, "mixture components", ConfigError):
        try:
            weight, cfg = item
        except (TypeError, ValueError) as exc:
            raise ConfigError("mixture components must be (weight, config) pairs") from exc
        weight = _real(weight, "mixture weight", ConfigError)
        if not isinstance(cfg, EstimatorConfig):
            raise ConfigError("mixture components must wrap EstimatorConfig instances")
        if cfg.variant == "mixture":
            raise ConfigError("mixtures cannot nest")
        if not weight > 0.0:
            raise ConfigError(f"mixture weights must be positive, got {weight}")
        comps.append((weight, cfg))
    if not comps:
        raise ConfigError("mixture needs at least one component")
    total = math.fsum(weight for weight, _ in comps)
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"mixture weights must sum to 1, got {total!r}")
    dims = {cfg.n for _, cfg in comps}
    if len(dims) > 1:
        raise ConfigError(f"mixture components disagree on dimension: {sorted(dims)}")
    return tuple(comps)


# Variants evaluated by the log-space product-form kernel.
_WAAK = ("waak", "aa_classic")

# Variants whose Q @ Q is built from the dense profile.
_PROFILE_SQUARED = ("transformed", "mixture")


@dataclass(frozen=True, eq=False)
class EstimatorConfig:
    """One fully specified estimator; build through the classmethods.

    Instances are immutable. What a configuration derives for evaluation
    (parity features, waak log state, normalizer, dense row, a
    transformed kernel's Walsh diagonal) is a private attribute built on
    first use and kept by the instance, so it lives exactly as long as
    the configuration. The private _gram and _squared_gram fill Q and
    Q @ Q on two lists of cells, either of which may be a CountsVector's
    packed support; every estimate, risk and matrix_element goes through
    them, and _quadratic gives the SE risk its p' Q^2 p for a
    CountsVector's weights p. A kernel that sums its dense row for Z
    reads its Q entries from that row.
    """

    variant: str
    shrinkage: ShrinkageSpec = None
    transform: Transform = None
    gamma: float = None
    lam: float = None
    components: tuple = None

    @classmethod
    def linear(cls, shrinkage):
        if not isinstance(shrinkage, ShrinkageSpec):
            raise ConfigError("linear estimator needs a ShrinkageSpec")
        if shrinkage.form == SINGLE_INTERACTION:
            raise ConfigError(
                "single-interaction shrinkage has leading coefficient 0; the linear estimator requires it to be 1"
            )
        if shrinkage.first_coefficient() != 1.0:
            raise ConfigError("linear estimator requires the leading shrinkage coefficient to equal 1")
        if shrinkage.form == DENSE:
            # On the stored array: no Python pair per coefficient of a dense b.
            values = shrinkage.values
            bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
            outside = [(int(p) + 1, float(values[p])) for p in bad[:1]]
        else:
            outside = [(idx, val) for idx, val in shrinkage.entries if not 0.0 <= val <= 1.0]
        if outside:
            idx, val = outside[0]
            raise ConfigError(f"linear shrinkage coefficient {val} at index {idx} lies outside [0, 1]")
        return cls(variant="linear", shrinkage=shrinkage)

    @classmethod
    def transformed(cls, shrinkage, transform):
        if not isinstance(shrinkage, ShrinkageSpec):
            raise ConfigError("transformed estimator needs a ShrinkageSpec")
        if not isinstance(transform, Transform):
            raise ConfigError("transformed estimator needs a Transform")
        return cls(variant="transformed", shrinkage=shrinkage, transform=transform)

    @classmethod
    def waak(cls, w, gamma):
        gamma = _real(gamma, "weighted kernel base", ConfigError)
        if not math.isfinite(gamma) or gamma < 1.0:
            raise ConfigError(f"weighted kernel base must satisfy gamma >= 1, got {gamma}")
        return cls(variant="waak", shrinkage=_as_weight_vector(w), gamma=gamma)

    @classmethod
    def aa_classic(cls, n, lam):
        lam = _real(lam, "classic kernel smoothing", ConfigError)
        if not 0.5 <= lam < 1.0:
            raise ConfigError(f"classic kernel smoothing must satisfy 0.5 <= lam < 1, got {lam}")
        n = _integer(n, "dimension", 1, ConfigError)
        gamma = math.sqrt(lam / (1.0 - lam))
        return cls(
            variant="aa_classic",
            shrinkage=ShrinkageSpec.single_interaction(np.ones(n)),
            gamma=gamma,
            lam=lam,
        )

    @classmethod
    def mixture(cls, components):
        return cls(variant="mixture", components=_validate_components(components))

    @property
    def n(self):
        if self.shrinkage is not None:
            return self.shrinkage.n
        return self.components[0][1].n

    # Derived state and the batched core's entry points (internal).

    @cached_property
    def _features(self):
        return _ParityFeatures(self.shrinkage)

    @cached_property
    def _waak(self):
        return _WaakState(self.shrinkage.w, self.gamma)

    @property
    def _hamming_route(self):
        """True for a product-form kernel whose t is one value on every
        coordinate: its risks and estimates take the Hamming lookup."""
        return self.variant in _WAAK and self._waak.shared_t is not None

    @cached_property
    def _norm(self):
        """Z of a single kernel: the identity's closed form for linear and
        the exponential's for waak and aa_classic kernels; a transformed
        kernel with no closed form sums its dense row (_summed). A Z that
        is not positive leaves the kernel undefined and raises here, at
        the first evaluation that needs it."""
        if self._summed_route:
            return self._summed[0]
        if self.variant == "linear":
            transform = Transform.identity()
        elif self.variant in _WAAK:
            transform = Transform.exponential(self.gamma)
        else:
            transform = self.transform
        return _positive(normalizer(transform, self.shrinkage))

    @property
    def _summed_route(self):
        """True for a transformed kernel whose Z has no closed form."""
        return self.variant == "transformed" and _route(self.transform, self.shrinkage) == FWHT_GENERAL

    @cached_property
    def _summed(self):
        """(Z, dense row) of a kernel on the summed route, from one fwht(b).

        Z sums f over W b and the row is the same values over Z, so the
        normalizer and the row share one transform and stay bit-identical
        to what normalizer() and a row of their own would give.
        """
        values = _dense_values(self.transform, self.shrinkage)
        norm = _positive(_summed_normalizer(values))
        return norm, _divide_by_normalizer(values, norm)

    def _normalizers(self):
        if self.variant == "mixture":
            return tuple(norm for _, cfg in self.components for norm in cfg._normalizers())
        return (self._norm,)

    def _gram(self, rows, cols):
        """Q[r, c] for every cell r in rows and c in cols, as an array."""
        rows, cols = _cell_pair(rows, cols, self.n)
        if self.variant in _WAAK:
            return self._waak.gram(rows, cols)
        if self.variant == "mixture":
            return sum(c * cfg._gram(rows, cols) for c, cfg in self.components)
        if self.shrinkage.form == DENSE or self._summed_route:
            # The dense row (for the summed route, the one that gave Z).
            return _xor_gather(self._row, rows, cols)
        raw = self._features.signed_sums(rows, cols, self._features.values)
        if self.variant == "linear":
            return np.ldexp(raw, -self.n)
        return _divide_by_normalizer(apply(self.transform, raw), self._norm)

    def _quadratic(self, counts):
        """p' (Q @ Q) p for the empirical weights p of counts.

        Q @ Q of a transformed or mixture kernel has no entrywise shortcut.
        Q = W diag(s) W / 2^n with s its Walsh diagonal (_spectrum), so
        Q p = W (s * fwht(p)) / 2^n and p' Q^2 p = ||s * fwht(p)||^2 / 2^n:
        a product of two 2^n vectors, of which the counts keep fwht(p) and
        each kernel keeps or rebuilds its s, with no transform per
        candidate. A norm keeps full relative accuracy, which single
        Q @ Q entries built by transforms would not on the far entries of
        a peaked kernel. A uniform-weight kernel reads the counts' pair
        histogram (_WaakState.quadratic); other kernels sum a support x
        support block of Q @ Q.
        """
        if self._hamming_route:
            return self._waak.quadratic(counts)
        if self.variant in _PROFILE_SQUARED:
            # _spectrum refuses n > MAX_DENSE_N before any 2^n buffer.
            terms = self._spectrum() * counts._spectrum
            return math.ldexp(float(terms @ terms), -self.n)
        p = counts._counts / counts.total
        support = counts._packed
        return float(p @ self._squared_gram(support, support) @ p)

    def _squared_gram(self, rows, cols):
        """(Q @ Q)[r, c] for every cell r in rows and c in cols, as an array."""
        rows, cols = _cell_pair(rows, cols, self.n)
        if self.variant in _WAAK:
            return self._waak.squared_gram(rows, cols)
        if self.variant in _PROFILE_SQUARED:
            # Squares mix entries across a whole row, so single entries take
            # one xor_dot over the dense profile; quadratic forms over many
            # cells go through _quadratic instead.
            return _xor_dot_block(self._profile(), rows, cols)
        if self.shrinkage.form == DENSE:
            return _xor_gather(self._squared_row, rows, cols)
        return np.ldexp(self._features.signed_sums(rows, cols, self._features.squared_values), -self.n)

    def _profile(self):
        """Dense kernel row g with Q[i, j] = g[(i-1) XOR (j-1)].

        A single kernel keeps its row. A mixture sums its components' rows
        on every call and keeps none, so a search over mixture weights
        holds one row per component rather than one per candidate.
        """
        if self.n > MAX_DENSE_N:
            raise CapacityError(
                f"dense kernel row needs a 2^{self.n} buffer (limit n={MAX_DENSE_N})"
            )
        if self.variant == "mixture":
            return sum(c * cfg._profile() for c, cfg in self.components)
        return self._row

    @cached_property
    def _row(self):
        if self.variant in _WAAK:
            return self._waak.profile()
        if self._summed_route:
            return self._summed[1]
        raw = fwht(self.shrinkage.to_dense())
        if self.variant == "linear":
            return raw * math.ldexp(1.0, -self.n)
        return _divide_by_normalizer(apply(self.transform, raw), self._norm)

    def _spectrum(self):
        """Walsh diagonal s = fwht(g) of the dense row g: Q = W diag(s) W / 2^n.

        Two families have it in closed form, rebuilt on every call in
        O(2^n): a linear kernel's is its shrinkage b, and a product-form
        kernel's is a product of tanh(t_d) (_WaakState.spectrum). A
        transformed kernel keeps the one transform of its row. A mixture
        sums its components' diagonals on every call and keeps none.
        """
        if self.n > MAX_DENSE_N:
            raise CapacityError(
                f"Walsh diagonal needs a 2^{self.n} buffer (limit n={MAX_DENSE_N})"
            )
        if self.variant == "mixture":
            return sum(c * cfg._spectrum() for c, cfg in self.components)
        if self.variant == "linear":
            return self.shrinkage.to_dense()
        if self.variant in _WAAK:
            return self._waak.spectrum()
        return self._row_spectrum

    @cached_property
    def _row_spectrum(self):
        return fwht(self._row)

    @cached_property
    def _squared_row(self):
        """fwht(b * b) / 2^n: the Q @ Q row of a dense linear kernel."""
        dense = self.shrinkage.to_dense()
        return fwht(dense * dense) * math.ldexp(1.0, -self.n)


# ---------------------------------------------------------------------------
# batched kernel core (internal)
#
# Every entry Q[r, c] depends on the cells r and c only through their
# points x_r, x_c in {-1,+1}^n, so whole blocks of Q are matrix products
# over the cells. Temporaries are bounded by _BLOCK_ENTRIES floats (with
# at least _MIN_WIDTH coordinates per step) at any n.

_BLOCK_ENTRIES = 1 << 14
_MIN_WIDTH = 256


class _Cells:
    """Zero-based cell indexes as little-endian bits: one row of bytes per
    cell, also viewed as 64-bit words (word 0 is the whole index for n <= 64)."""

    def __init__(self, cells, n):
        cells = [_check_index(cell, n) for cell in cells]
        self.size = len(cells)
        nbytes = 8 * max(1, (n + 63) // 64)
        raw = b"".join((cell - 1).to_bytes(nbytes, "little") for cell in cells)
        self.bytes = np.frombuffer(raw, dtype=np.uint8).reshape(self.size, nbytes)
        self.words = self.bytes.view(np.uint64)

    @cached_property
    def hamming(self):
        """The cells' Hamming matrix among themselves, built on first use."""
        return _hamming(self, self)

    def bits(self, start, stop, pivot):
        """Bits start..stop-1 (start a multiple of 8) of each zero-based
        index XOR the pivot's bytes, as 0/1 floats."""
        span = slice(start // 8, (stop + 7) // 8)
        chunk = self.bytes[:, span] ^ pivot[:, span]
        return np.unpackbits(chunk, axis=1, bitorder="little")[:, : stop - start].astype(np.float64)


def _as_cells(cells, n):
    """A list of cells packed; cells already packed pass through."""
    return cells if isinstance(cells, _Cells) else _Cells(cells, n)


def _cell_pair(rows, cols, n):
    """Pack two cell lists; a list passed as both is packed once."""
    packed = _as_cells(rows, n)
    return packed, packed if cols is rows else _as_cells(cols, n)


def _weighted_distance(rows, cols, weights):
    """sum_d weights[d] [x_r[d] != x_c[d]] for every row cell r and column cell c.

    Two routes, chosen from the weights alone. When every weight equals
    one value c, the distance is c times the exact Hamming matrix
    (_hamming); a list of cells keeps its own (_Cells.hamming), so every
    uniform-weight candidate scored on one support shares one matrix.
    Other weights take _float_distance.
    """
    c = weights[0]
    if np.all(weights == c):
        return c * (rows.hamming if cols is rows else _hamming(rows, cols))
    return _float_distance(rows, cols, weights)


def _float_distance(rows, cols, weights):
    """_weighted_distance as float products over the unpacked bits.

    Bits are taken relative to the first row cell, which leaves the
    distance unchanged; [b_r != b_c] = b_r + b_c - 2 b_r b_c then sums
    only coordinates where a cell differs from that pivot, so cells near
    it keep distances accurate to a few ulps however large sum(weights).
    The distance between equal cells, which those ulps would leave
    nonzero, is set to exactly 0 (_equal_pairs).
    """
    n = weights.size
    width = max(_MIN_WIDTH, _BLOCK_ENTRIES // max(rows.size, cols.size, 1) // 8 * 8)
    pivot = rows.bytes[:1]
    out = np.zeros((rows.size, cols.size))
    for start in range(0, n, width):
        stop = min(start + width, n)
        w = weights[start:stop]
        br = rows.bits(start, stop, pivot)
        bc = br if cols is rows else cols.bits(start, stop, pivot)
        wr = br * w
        out += wr.sum(axis=1)[:, None] + (bc @ w)[None, :] - 2.0 * (wr @ bc.T)
    out[_equal_pairs(rows, cols)] = 0.0
    return out


def _equal_pairs(rows, cols):
    """Row and column positions of every pair of equal cells, found by
    looking each row cell's bytes up among the column cells'."""
    at = {}
    for c, key in enumerate(cols.bytes):
        at.setdefault(key.tobytes(), []).append(c)
    row_pos, col_pos = [], []
    for r, key in enumerate(rows.bytes):
        for c in at.get(key.tobytes(), ()):
            row_pos.append(r)
            col_pos.append(c)
    return row_pos, col_pos


def _hamming(rows, cols):
    """Number of coordinates where each row cell and column cell differ,
    as exact int32: the popcount of their XOR, summed over words.

    Words are laid out word-major, so each step sums whole rows x cols
    planes. Each step takes as many rows and words as keep its
    temporaries near _BLOCK_ENTRIES entries (at least one row and one
    word), so no rows x cols x words array is ever made.
    """
    by_word_r = np.ascontiguousarray(rows.words.T)
    by_word_c = np.ascontiguousarray(cols.words.T)[:, None, :]
    words, width = by_word_r.shape[0], max(cols.size, 1)
    row_step = max(1, _BLOCK_ENTRIES // width)
    out = np.zeros((rows.size, cols.size), dtype=np.int32)
    for r0 in range(0, rows.size, row_step):
        block = by_word_r[:, r0 : r0 + row_step, None]
        word_step = max(1, _BLOCK_ENTRIES // (block.shape[1] * width))
        for w0 in range(0, words, word_step):
            span = slice(w0, w0 + word_step)
            diff = np.bitwise_count(block[span] ^ by_word_c[span])
            out[r0 : r0 + row_step] += diff.sum(axis=0, dtype=np.int32)
    return out


def _xor_gather(g, rows, cols):
    """g at the XOR of every row and column index: Q from a dense profile."""
    return g[rows.words[:, :1] ^ cols.words[:, 0]]


def xor_dot(v, x):
    """sum_m v[m] * v[m ^ x] over the full index range of v: one Q @ Q entry."""
    idx = np.arange(v.shape[0], dtype=np.int64) ^ np.int64(x)
    return float(np.dot(v, v[idx]))


def _xor_dot_block(g, rows, cols):
    """sum_m g[m] g[m ^ x] at every XOR x of a row and a column index."""
    r, c = rows.words[:, 0], cols.words[:, 0]
    out = np.empty((r.size, c.size))
    for a in range(r.size):
        for b in range(c.size):
            out[a, b] = xor_dot(g, int(r[a] ^ c[b]))
    return out


class _ParityFeatures:
    """Nonzero shrinkage entries b_k as parity features of the cells.

    W diag(b) W restricted to two cell lists is F_r diag(b) F_c^T with
    F[c, k] = (-1)^popcount(key_k & (c - 1)). Keys stay packed in 64-bit
    words, cut to the span of words some key touches, so a feature costs
    a few vectorized ops at any n. Single-interaction keys are one-hot,
    so their signed sum is sum(w) minus twice the w-weighted distance.
    """

    def __init__(self, shrinkage):
        self.n = shrinkage.n
        self.single = shrinkage.form == SINGLE_INTERACTION
        if self.single:
            self.values = shrinkage.w
        else:
            items = shrinkage.nonzero_items()
            self.values = np.array([val for _, val in items], dtype=np.float64)
            keys = _Cells([idx for idx, _ in items], self.n).words
            used = np.flatnonzero(keys.any(axis=0))
            self.span = slice(used[0], used[-1] + 1) if used.size else slice(0, 0)
            self.keys = keys[:, self.span]
        self.squared_values = self.values * self.values

    def features(self, cells):
        words = cells.words[:, self.span]
        step = max(1, _BLOCK_ENTRIES // max(1, self.keys.size))
        masked = [
            np.bitwise_xor.reduce(words[start : start + step, None, :] & self.keys, axis=2)
            for start in range(0, cells.size, step)
        ]
        return 1.0 - 2.0 * (np.bitwise_count(np.concatenate(masked)) & 1)

    def signed_sums(self, rows, cols, values):
        """sum_k values_k (-1)^popcount(key_k & (r XOR c)) for every pair."""
        if self.single:
            return values.sum() - 2.0 * _weighted_distance(rows, cols, values)
        fr = self.features(rows)
        fc = fr if cols is rows else self.features(cols)
        return (fr * values) @ fc.T


class _WaakState:
    """Log-space product-form kernel state for weights w and base gamma.

    With t = w log(gamma) and D_t the t-weighted distance of two cells,
    log Q = sum_d t_d - log Z - 2 D_t = -sum_d log(1 + e^(-2 t_d)) - 2 D_t.
    Q @ Q has coordinate factor e^(2t) + e^(-2t) on agreement and 2 on
    disagreement over Z^2, so log Q^2 = sum_d log((e^(2t) + e^(-2t)) /
    (e^t + e^-t)^2) - D_v with v = log(e^(2t) + e^(-2t)) - log 2.

    When t is one value s on every coordinate (shared_t), D_t = s H and
    D_v = v_1 H for the exact Hamming matrix H, and rows of Q are looked
    up in log space from the decay e^(-2 s j) over the n + 1 levels
    j = 0..n (_shifted, which _smoothed reads for held-out terms and
    estimates), as is the SE quadratic (quadratic). gram and
    squared_gram exponentiate every entry. Q is the
    Kronecker product of one positive 2x2 factor per coordinate, so Q p
    for a dense p takes one pass per coordinate (smooth), and its Walsh
    diagonal is a product of tanh(t_d) (spectrum).
    """

    def __init__(self, w, gamma):
        t = w * math.log(gamma)
        self.t = t
        self.shared_t = float(t[0]) if np.all(t == t[0]) else None
        lost = np.log1p(np.exp(-2.0 * t))
        lost_sq = np.log1p(np.exp(-4.0 * t))
        self.log_diagonal = -float(lost.sum())
        self.squared_weights = 2.0 * t + lost_sq - _LOG2
        self.log_squared_diagonal = float((lost_sq - 2.0 * lost).sum())

    def gram(self, rows, cols):
        return np.exp(self.log_diagonal - 2.0 * _weighted_distance(rows, cols, self.t))

    def squared_gram(self, rows, cols):
        distance = _weighted_distance(rows, cols, self.squared_weights)
        return np.exp(self.log_squared_diagonal - distance)

    def _shifted(self, hamming, nearest, n):
        """(scale, levels) of rows of Hamming distances H, each shifted by
        its nearest weighted cell: scale = log_diag - 2 s nearest and
        levels = e^(-2 s (H - nearest)), so an entry of Q is
        exp(scale) * levels. A row's nearest cell has level 1."""
        decay = _decay(2.0 * self.shared_t, n)
        return self.log_diagonal - 2.0 * (self.shared_t * nearest), decay[hamming - nearest[:, None]]

    def quadratic(self, counts):
        """p' Q^2 p from the counts' pair histogram P: exp(log_sq_diag) *
        sum_h P_h e^(-v_1 h) / N^2, whose sum holds P_0 >= N at h = 0."""
        decay = _decay(float(self.squared_weights[0]), counts.n)
        return math.exp(self.log_squared_diagonal) * (float(counts._pair_histogram @ decay) / counts.total**2)

    def profile(self):
        """Q[1, m + 1] at every zero-based index m; 2^n entries."""
        distance = np.zeros(1)
        for td in self.t:  # index bit d is coordinate d
            distance = np.concatenate([distance, distance + td])
        return np.exp(self.log_diagonal - 2.0 * distance)

    def spectrum(self):
        """fwht(profile()) in closed form: prod of tanh(t_d) over the bits d
        of each index, as coordinate d's two entries e^(+-t_d) / (e^t_d +
        e^-t_d) have sum 1 and difference tanh(t_d). Nonnegative, since
        t >= 0: the kernel is positive semidefinite."""
        out = np.ones(1)
        for factor in np.tanh(self.t):  # index bit d is coordinate d
            out = np.concatenate([out, out * factor])
        return out

    def smooth(self, p):
        """Q p for a dense 2^n vector p: one positive pass per coordinate.

        Q is the Kronecker product of the factors [[alpha_d, beta_d],
        [beta_d, alpha_d]], alpha_d = 1 / (1 + r_d) and beta_d = r_d
        alpha_d with r_d = e^(-2 t_d). The pass over index bit d forms
        a + r_d b and r_d a + b from the pairs (a, b) that differ in that
        bit (walsh._butterfly), and the product of the alpha_d,
        exp(log_diagonal), scales once at the end. Every term is
        nonnegative, so each entry is within O(n eps) relative of exact,
        however far below the largest it lies.
        """
        rates = np.exp(-2.0 * self.t)

        def stage(bit, a, b, low, high):
            np.multiply(b, rates[bit], out=low)
            low += a
            np.multiply(a, rates[bit], out=high)
            high += b

        return _butterfly(p, stage) * math.exp(self.log_diagonal)


def _decay(rate, n):
    """exp(-rate * j) at the Hamming levels j = 0..n. A value below the
    float64 normal range is set to 0: next to a term 1 it is below
    float64 resolution, and exp would take its slow path on it."""
    out = np.zeros(n + 1)
    count = n + 1 if rate * n <= -_LOG_TINY else int(-_LOG_TINY / rate) + 1
    out[:count] = np.exp(np.arange(count) * -rate)
    return out


def _positive(norm):
    """norm itself; a Z that is not positive leaves the kernel undefined."""
    if not norm.value > 0:
        raise DegenerateNormalizerError(f"normalization constant {norm.value} is not positive")
    return norm


def _divide_by_normalizer(values, norm):
    """values / Z; through log space, keeping signs, when Z overflowed float64."""
    if math.isfinite(norm.value):
        return values / norm.value
    with np.errstate(divide="ignore"):
        return np.sign(values) * np.exp(np.log(np.abs(values)) - norm.log_value)


# ---------------------------------------------------------------------------
# single entries of the batched core


def _check_config(config):
    if not isinstance(config, EstimatorConfig):
        raise ConfigError("expected an EstimatorConfig")


def _entry(config, i, j, squared=False):
    """One entry of Q or Q @ Q: the K=1 block of the core."""
    _check_config(config)
    block = config._squared_gram if squared else config._gram
    return float(block([i], [j])[0, 0])


def matrix_element(i, j, config):
    """Kernel matrix entry Q[i, j] for any estimator configuration."""
    return _entry(config, i, j)


def squared_matrix_element(i, j, config):
    """Entry (i, j) of Q @ Q for any estimator configuration."""
    return _entry(config, i, j, squared=True)


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Estimated probabilities at queried cells.

    cells is None when values covers the full index range 1..2^n in
    order. negativity flags any negative entry, which only
    sign-indefinite transforms or inadmissible shrinkage can produce;
    values are reported exactly as computed, never clipped silently.
    estimate_at on a uniform-weight kernel also keeps the log of each
    value (_log_values), which query turns into conditionals.
    estimate_full keeps _bound, the a-priori bound on every entry's
    absolute error, when it kept the Walsh-diagonal route's values, and
    None after the product-form butterfly or the per-cell gather.
    """

    n: int
    cells: tuple
    values: np.ndarray
    normalizers: tuple
    negativity: bool
    _log_values: np.ndarray = field(default=None, repr=False)
    _bound: float = field(default=None, repr=False)


def _match_dimensions(config, counts):
    """Refuse a non-config (ConfigError), then non-counts (DataError), then
    a config and counts of different dimensions (ConfigError)."""
    _check_config(config)
    if not isinstance(counts, CountsVector):
        raise DataError("expected a CountsVector")
    if config.n != counts.n:
        raise ConfigError(
            f"estimator dimension {config.n} does not match data dimension {counts.n}"
        )


def _smoothed(config, counts, cells=None, own=None):
    """(scale, ratio) of Q p, the value being exp(scale) * ratio: at packed
    cells, the estimate (over N); with cells None, the held-out estimate
    at the support positions own, every one when None (over N - 1).

    The one place a kernel's route is chosen. A uniform-weight kernel
    reads its rows from the Hamming lookup in log space (_shifted), each
    shifted by its nearest weighted cell: for a held-out term,
    CountsVector._nearest; for an estimate, the nearest support cell.
    That cell has level 1 and weight >= 1, so the ratio neither
    underflows nor overflows. Other kernels take a block of Q, scale 0.
    On both, the own cell's entry is weighted by its count minus one, not
    subtracted after the product: it dominates its row at large n, and
    the difference would cancel to 0.
    """
    cnt, support = counts._counts, counts._packed
    held_out, rows = cells is None, cells
    if held_out:
        rows = support if own is None else [counts.cells[k][0] for k in own]
        own = np.arange(cnt.size) if own is None else own
    if not config._hamming_route:
        scale, block = 0.0, config._gram(rows, support)
    elif held_out:
        picked = slice(None) if rows is support else own
        scale, block = config._waak._shifted(support.hamming[picked], counts._nearest[picked], counts.n)
    else:
        hamming = _hamming(cells, support)
        scale, block = config._waak._shifted(hamming, hamming.min(axis=1), counts.n)
    if not held_out:
        return scale, (block @ cnt) / counts.total
    # A cell seen once reads its own entry at a finite level and weighs it 0.
    positions = np.arange(block.shape[0])
    own_entries = block[positions, own]
    block[positions, own] = 0.0
    return scale, (block @ cnt + own_entries * (cnt[own] - 1.0)) / (counts.total - 1)


def estimate_at(cells, config, counts):
    """Estimated probability of each queried cell, sparse in n.

    Each chunk of query cells is one query x support product (_smoothed)
    near _BLOCK_ENTRIES entries, over the fixed (ascending) support
    order. A uniform-weight kernel also keeps the log of every value,
    which stays exact where the value itself underflows.
    """
    _match_dimensions(config, counts)
    cell_list = _items(cells, "query cells")
    if not cell_list:
        raise ValueError("at least one query cell is required")
    step = max(1, _BLOCK_ENTRIES // counts._packed.size)
    parts = [
        _smoothed(config, counts, _Cells(cell_list[start : start + step], config.n))
        for start in range(0, len(cell_list), step)
    ]
    values = np.concatenate([np.exp(scale) * ratio for scale, ratio in parts])
    logs = None
    if config._hamming_route:
        logs = np.concatenate([scale + np.log(ratio) for scale, ratio in parts])
    return DensityEstimate(
        n=config.n,
        cells=tuple(int(c) for c in cell_list),
        values=values,
        normalizers=config._normalizers(),
        negativity=bool(np.any(values < 0.0)),
        _log_values=logs,
    )


def estimate_full(config, counts):
    """Full 2^n estimate vector (n <= 20), in O(n 2^n) for every kernel
    whose Walsh route certifies or whose kernel is a product of 2x2
    factors.

    Q = W diag(s) W / 2^n for the kernel's Walsh diagonal s, so the
    estimate is the Walsh-diagonal route fwht(s * fwht(p)) / 2^n, two
    transforms of the empirical weights p. A linear kernel takes it as
    its double transform, as it always has. Every other kernel, a
    mixture as a whole included, takes it too, but keeps its values only
    when the route's a-priori bound B on every entry's absolute error
    (_walsh_estimate) is at most 2^-30 times the smallest entry's
    magnitude: each entry's sign is then exact and its relative error
    below 1e-9. The estimate keeps that B (_bound). When B is larger, a
    mixture sums its components' full estimates, each taking these
    routes on its own; waak and aa_classic apply their 2x2 factors to p,
    one positive pass per coordinate (_WaakState.smooth), exact to
    O(n eps) relative with no certificate; and a transformed kernel
    gathers its dense row once per support cell (_gather), O(K 2^n) for
    K support cells.
    """
    _match_dimensions(config, counts)
    n = config.n
    if n > MAX_FULL_N:
        raise CapacityError(f"full estimate limited to n <= {MAX_FULL_N}, got n={n}")
    values, bound = _full_values(config, counts)
    return DensityEstimate(
        n=n,
        cells=None,
        values=values,
        normalizers=config._normalizers(),
        negativity=bool(np.any(values < 0.0)),
        _bound=bound,
    )


# Largest error bound, relative to the smallest entry, at which the
# Walsh-diagonal route's values are kept.
_CERTIFIED = 2.0**-30

_UNIT_ROUNDOFF = 2.0**-53


def _gamma(m):
    """gamma_m = m u / (1 - m u): (1 + d_1)...(1 + d_m) with every
    |d_i| <= u lies within gamma_m of 1."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _full_values(config, counts):
    """(values, B) of the full estimate by the routes of estimate_full; B
    is None unless the Walsh-diagonal route's values were kept."""
    values, bound = _walsh_estimate(config, counts)
    if config.variant == "linear" or bound <= _CERTIFIED * float(np.min(np.abs(values))):
        return values, bound
    if config.variant == "mixture":
        return sum(c * _full_values(cfg, counts)[0] for c, cfg in config.components), None
    if config.variant in _WAAK:
        return config._waak.smooth(counts.to_dense()), None
    return _gather(config._row, counts), None


def _walsh_estimate(config, counts):
    """(v, B): v = fwht(s * fwht(p)) / 2^n for the kernel's Walsh diagonal
    s, and B >= |v_j - (Q p)_j| for every j, Q p in exact arithmetic.

    With u = 2^-53 and gamma_m = m u / (1 - m u), every output of the
    m-stage transform of x is within gamma_m ||x||_1 of W x, and
    gamma_a + gamma_b <= gamma_(a+b). Hats are computed values. p^ =
    count / N has |p^ - p| <= u p and ||p||_1 = 1, so q^ = fwht(p^) has
    |q^_k - q_k| <= gamma_n (1 + u) + u <= gamma_(n+1). _walsh_diagonal
    bounds |s^_k - s_k| by e_k. x = s^ * q^ is rounded once, and
    v = fwht(x) / 2^n is scaled exactly; then

      2^n |v - Q p| <= gamma_(n+1) ||x||_1       (last transform, product)
                     + gamma_(n+1) ||s^||_1      (error of q^)
                     + sum_k (|q^_k| + gamma_(n+1)) e_k   (error of s^).

    B takes gamma_(n+2) for gamma_(n+1), which covers the rounding of B's
    own sums of nonnegative terms.
    """
    n = config.n
    spectrum = counts._spectrum
    g = _gamma(n + 2)
    diagonal, error = _walsh_diagonal(config, np.abs(spectrum) + g)
    terms = spectrum * diagonal
    values = fwht(terms) * math.ldexp(1.0, -n)
    bound = g * float(np.abs(terms).sum() + np.abs(diagonal).sum()) + error
    return values, math.ldexp(bound, -n)


def _walsh_diagonal(config, weights):
    """(s^, sum_k weights_k e_k): the Walsh diagonal as computed (n <= 30)
    and its error bound e_k >= |s^_k - s_k| summed against weights >= 0.

    A linear kernel's s is its shrinkage b, exact. A product-form
    kernel's is a product of at most n values tanh(t_d) with n - 1
    roundings; taking numpy's tanh within 2 ulps (4u relative, the
    tolerance of numpy's own accuracy tests), e = gamma_(5n) s^, as
    s^ >= 0. A transformed kernel's is one transform of its dense row g,
    so e_k = gamma_n ||g||_1, with g taken as the kernel. A mixture adds
    c_i s^_i over its m components: e = sum_i c_i (e_i + gamma_m |s^_i|).
    The sums against weights are einsum's, which no BLAS thread can
    delay.
    """
    if config.variant == "mixture":
        parts = [(c, *_walsh_diagonal(cfg, weights)) for c, cfg in config.components]
        g = _gamma(len(parts))
        diagonal = sum(c * part for c, part, _ in parts)
        error = sum(c * (err + g * float(np.einsum("i,i->", weights, np.abs(part)))) for c, part, err in parts)
        return diagonal, error
    diagonal = config._spectrum()
    if config.variant == "linear":
        return diagonal, 0.0
    if config.variant in _WAAK:
        return diagonal, _gamma(5 * config.n) * float(np.einsum("i,i->", weights, diagonal))
    return diagonal, _gamma(config.n) * float(np.abs(config._row).sum()) * float(weights.sum())


def _gather(g, counts):
    """sum over support cells of (count / N) g[m XOR (cell - 1)] at every m,
    in support order, into two buffers reused across cells."""
    size = g.shape[0]
    idx = np.arange(size, dtype=np.int64)
    shifted = np.empty(size, dtype=np.int64)
    term = np.empty(size)
    values = np.zeros(size)
    for cell, cnt in counts.cells:
        np.bitwise_xor(idx, cell - 1, out=shifted)
        # Every shifted index is in range; "wrap" spares the copy of out
        # that the default "raise" makes.
        np.take(g, shifted, out=term, mode="wrap")
        term *= cnt / counts.total
        values += term
    return values


def clamp_and_renormalize(estimate):
    """Clip negative entries to zero and rescale the full vector to sum 1.

    Reporting convenience only: the output is no longer the raw kernel
    estimate and the family's normalization guarantee does not apply to
    it. Requires a full estimate vector.
    """
    if not isinstance(estimate, DensityEstimate) or estimate.cells is not None:
        raise ValueError("clamping requires a full estimate vector (cells=None)")
    clipped = np.maximum(estimate.values, 0.0)
    total = float(clipped.sum())
    if total <= 0.0:
        raise NumericError("clamped estimate sums to zero; nothing to renormalize")
    return DensityEstimate(
        n=estimate.n,
        cells=None,
        values=clipped / total,
        normalizers=estimate.normalizers,
        negativity=False,
    )
