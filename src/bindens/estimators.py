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

Kernel entries are read a block at a time by one function, _smoothed:
an estimate at listed cells and a leave-one-out held-out term are both
Q p, the latter with one count less, and a single entry Q[i, j]
(matrix_element) is the estimate at i from one observation at j. A
linear or transformed kernel not of product form (below) fills its
block of Q as a matrix product over the cells' parity features, or as a
gather from a dense profile; where dividing the products by Z would
leave the float64 normal range, Z stays out of the block as its log
scale -log Z, so no 2^-n or 1/Z factor underflows. A kernel whose
Z has no closed form sums its dense row for Z (n <= 30) and reads every
entry from that row, as a dense-shrinkage kernel does, so its Z, full
estimate and single entries are one set of numbers; other blocks cost
O(#nonzero(b)) or O(n) per entry with no 2^n buffer.

Q @ Q takes one of two routes. For product-form and sparse linear
kernels it is a kernel of the same form at any n (_squared), read
through _smoothed like Q itself. A kernel read from a dense row (linear
over dense shrinkage, other transformed, mixture) takes every Q @ Q
quantity from that row and its Walsh diagonal s, with Q = W diag(s) W /
2^n and so Q @ Q = W diag(s^2) W / 2^n (n <= 30): a single entry is
xor_dot, one gather and dot over the row, and the core's quadratic form
p' Q^2 p is ||s * fwht(p)||^2 / 2^n.
s is b for a linear kernel and a product of tanh(t_d) for a
product-form kernel, both in closed form; another kernel keeps one
transform of its row, and a mixture sums its components' diagonals.
fwht(p) is kept by the counts, so an SE search pays its transforms per
component and per counts, not per candidate. A full 2^n estimate reads
the same diagonal: fwht(s * fwht(p)) / 2^n, kept for a non-linear
kernel only when an a-priori error bound certifies it, and otherwise
one positive pass per coordinate for a product-form kernel, and a
gather of the dense row per observed cell for a transformed kernel.

Product-form kernels (waak, aa_classic, and the exponential with base
gamma >= 1 over single-interaction weights, which is the same kernel as
waak; EstimatorConfig._waak is the one test) see two cells only through
a weighted distance D_t, the sum of t_d = w_d log(gamma) over the
coordinates where they differ, so log Q = log_diag - 2 D_t whatever the
weights. _weighted_distance gives D_t as c D: when every t_d equals one
value c, D is the exact integer Hamming matrix H, a popcount over the
packed cells, and log Q takes one of n + 1 levels; otherwise c = 1 and
D is a float product over the cells' bits. Either way the kernel's
held-out terms and estimates stay in log space, each row shifted by its
nearest cell, so a value far below the float64 range keeps its
logarithm; on H a candidate costs n + 1 exp calls plus a gather. A
mixture reads each component's rows as that component does and adds
them row by row in log space (_mixed), so a product-form component
keeps its logarithm inside a mixture too.

Everything a configuration derives (parity features, the normalizer Z,
the dense row, its Walsh diagonal, the waak log state, the kernel Q @ Q)
is a function of that configuration alone, so it is a private attribute
of the EstimatorConfig itself, computed when first asked for, and the
core's entry points are private methods of the config. A mixture reads
its own components and keeps no dense row or diagonal: it sums its
components' whenever one is asked for. In the same way, what the observed cells
derive (their packed bits, their Hamming matrix H, their counts and the
transform fwht(p) of their weights) is a private attribute of the
CountsVector, with the lookup state that every uniform-weight
candidate of a search (aa_lambda, waak shared_grid) reads from H, so
each such candidate pays only a gather over K^2 entries on K observed
cells, and every estimate reuses the packed support.
"""

import math
import sys
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
from .transforms import CLOSED_FORM_EXPONENTIAL, FWHT_GENERAL, Transform, _dense_values, _route, _summed_normalizer
from .transforms import apply, normalizer
from .walsh import _butterfly, _check_index, _dense_size, _index_rows, _integer, _items, _pack_bits, _pairs
from .walsh import _real, _row_indexes, _unpack_bits, as_point, fwht

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
    bits (counts_from_observations sets it to the rows it counted), and
    its hamming attribute the exact support x support Hamming
    matrix, which every uniform-weight kernel (aa_classic, waak with all
    t_d equal) reads instead of computing its own distances, and
    _nearest and _pair_histogram what their leave-one-out risks derive
    from it.
    _spectrum holds fwht(p) of the empirical weights, which the SE
    quadratic of every kernel read from a dense row and every full
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
        return _as_cells([idx for idx, _ in self.cells], self.n)

    @cached_property
    def _counts(self):
        """The support's counts as floats, in support order."""
        out = np.array([cnt for _, cnt in self.cells], dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def _nearest(self):
        """_held_out_nearest of the support's Hamming matrix, which the
        held-out terms of every uniform-weight kernel shift by
        (_WaakState.shifted)."""
        return _held_out_nearest(self._packed.hamming, self._counts)

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
        out = np.zeros(_dense_size(self.n, "a dense weight vector"))
        # Word 0 is the whole zero-based index at any n _dense_size admits;
        # the division is the IEEE one that cnt / total makes per cell.
        out[self._packed.words[:, 0]] = self._counts / self.total
        return out


def counts_from_observations(points, *, _n=None):
    """Aggregate raw {-1,+1} observation rows into a CountsVector.

    A 2-D numeric array is validated and packed (walsh._pack_bits) a block
    of rows at a time, so no temporary as large as the array is made; any
    other sequence of rows is validated row by row, as is an array with a
    bad entry, to raise a DataError naming the first bad observation.
    load_observations passes rows it packed, of _n bits each. One np.unique
    counts the distinct rows, which become the counts' _packed support.
    """
    if _n is None:
        packed = None
        if isinstance(points, np.ndarray) and points.ndim == 2 and points.size and points.dtype.kind in "iuf":
            packed = _packed_rows(points)
        if packed is None:
            points = _checked_rows(points)
            packed = _packed_rows(points)
        _n = points.shape[1]
    else:
        packed = points
    # Rows compared as whole byte strings (one void item each), which
    # sorts them bytewise; the support is kept in ascending index order.
    keys, counts = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))), return_counts=True)
    rows = keys.view(np.uint8).reshape(keys.size, -1)
    cells = _row_indexes(rows)
    order = sorted(range(len(cells)), key=cells.__getitem__)
    out = CountsVector(n=_n, total=int(counts.sum()), cells=tuple((cells[k], int(counts[k])) for k in order))
    object.__setattr__(out, "_packed", _Cells(rows[order]))
    return out


# Rows validated and packed per block: about this many entries at a time.
_PACK_BLOCK_ENTRIES = 1 << 20


def _packed_rows(arr):
    """A 2-D array of +-1 packed to sign bits a block of rows at a time;
    None when an entry is not +-1."""
    step = max(1, _PACK_BLOCK_ENTRIES // arr.shape[1])
    blocks = []
    for start in range(0, arr.shape[0], step):
        block = arr[start : start + step]
        if not np.all(np.abs(block) == 1):
            return None
        blocks.append(_pack_bits(block < 0))
    return np.concatenate(blocks)


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


@dataclass(frozen=True, eq=False)
class EstimatorConfig:
    """One fully specified estimator; build through the classmethods.

    Instances are immutable. What a configuration derives for evaluation
    (parity features, waak log state, normalizer, dense row, a
    transformed kernel's Walsh diagonal, the kernel Q @ Q) is a private
    attribute built on first use and kept by the instance, so it lives
    exactly as long as the configuration. _smoothed reads every entry of
    Q: in log space for a product-form kernel (_waak, _WaakState.shifted),
    from the private _gram, which fills Q of any other linear or
    transformed kernel on two lists of packed cells, and per component
    for a mixture. Q @ Q takes one of two routes: product-form and sparse
    linear kernels have it as a kernel of the same form (_squared), and a
    kernel read from a dense row (_squares_from_row) takes it from that
    row and its Walsh diagonal, as xor_dot for one entry. _quadratic
    gives the SE risk its p' Q^2 p for a CountsVector's weights p on
    either route. A kernel that sums its dense row for Z reads its Q
    entries from that row.
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

    @property
    def _transform(self):
        """f of a single kernel f(W diag(b) W) / Z: the exponential over w
        for waak and aa_classic, the identity for linear; None for a
        mixture."""
        if self.gamma is not None:
            return Transform.exponential(self.gamma)
        return Transform.identity() if self.variant == "linear" else self.transform

    @cached_property
    def _waak(self):
        """The _WaakState of a product-form kernel, else None: the one test
        of product form. A kernel is product-form when it is the
        exponential with base gamma >= 1 over single-interaction weights w
        (CLOSED_FORM_EXPONENTIAL): waak(w, gamma), aa_classic, or the
        transformed kernel of that form. Its rates t = w log(gamma) >= 0
        are the only ones _WaakState takes."""
        transform = self._transform
        if transform is None or _route(transform, self.shrinkage) != CLOSED_FORM_EXPONENTIAL or transform.gamma < 1.0:
            return None
        t = self.shrinkage.w * math.log(transform.gamma)
        return _WaakState(t, -float(np.log1p(np.exp(-2.0 * t)).sum()))

    @cached_property
    def _squared(self):
        """Q @ Q of a product-form or sparse linear kernel as a kernel
        of the same form, which _smoothed reads like any other: the linear
        kernel over b * b, or a config of the same variant whose _waak is
        the state of Q @ Q (_WaakState.squared); only that state, not its
        other fields, describes Q @ Q."""
        if self.variant == "linear":
            return EstimatorConfig.linear(ShrinkageSpec.sparse(self.n, {k: b * b for k, b in self.shrinkage.entries}))
        out = EstimatorConfig(variant=self.variant, shrinkage=self.shrinkage)
        object.__setattr__(out, "_waak", self._waak.squared())
        return out

    @cached_property
    def _norm(self):
        """Z of a single kernel, normalizer() of its _transform: a closed
        form for linear, waak and aa_classic kernels; a transformed kernel
        with no closed form sums its dense row (_summed). A Z that is not
        positive leaves the kernel undefined and raises here, at the first
        evaluation that needs it."""
        if self._summed_route:
            return self._summed[0]
        return _positive(normalizer(self._transform, self.shrinkage))

    @property
    def _squares_from_row(self):
        """True for a kernel whose Q @ Q is read from its dense row and
        Walsh diagonal: linear over dense shrinkage, a transformed kernel
        not of product form, mixture."""
        return self._waak is None and (self.variant != "linear" or self.shrinkage.form == DENSE)

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
        """(scale, block) with Q[r, c] = exp(scale) * block[r, c] for every
        packed cell r in rows and c in cols, for a kernel not of product
        form. A kernel read from its dense row gathers it, scale 0. Any
        other divides its entries f by Z, scale 0, when every f / Z is 0
        or in the float64 normal range, which keeps the power-of-two Z of
        linear and logistic kernels exact; else it leaves Z out of the
        block, scale -log Z, so that no 2^-n or 1/Z factor underflows."""
        if self.shrinkage.form == DENSE or self._summed_route:
            # The dense row (for the summed route, the one that gave Z).
            return 0.0, _xor_gather(self._row, rows, cols)
        raw = self._features.signed_sums(rows, cols)
        values = raw if self.variant == "linear" else apply(self.transform, raw)
        divided = values / self._norm.value
        normal = np.all((np.abs(divided) >= sys.float_info.min) | (values == 0.0))
        return (0.0, divided) if normal else (-self._norm.log_value, values)

    def _quadratic(self, counts):
        """p' (Q @ Q) p for the empirical weights p of counts.

        A kernel read from a dense row (_squares_from_row) has Q = W
        diag(s) W / 2^n with s its Walsh diagonal (_spectrum), so p' Q^2 p
        = ||s * fwht(p)||^2 / 2^n: a product of two 2^n vectors, of which
        the counts keep fwht(p) and each kernel keeps or rebuilds its s,
        with no transform per candidate. A norm keeps full relative
        accuracy, which single Q @ Q entries built by transforms would not
        on the far entries of a peaked kernel (squared_matrix_element
        takes those as xor_dot). A uniform-weight kernel reads the counts'
        pair histogram against the state of Q @ Q (_WaakState.quadratic);
        other product-form and sparse linear kernels sum the estimates
        of their kernel Q @ Q (_squared) at the support cells, p' (Q^2 p).
        """
        if self._squares_from_row:
            # The norm is einsum's, as in xor_dot.
            terms = self._spectrum() * counts._spectrum
            return math.ldexp(float(np.einsum("i,i->", terms, terms)), -self.n)
        if self._waak is not None and self._waak.shared_t is not None:
            return self._squared._waak.quadratic(counts)
        scale, ratio = _smoothed(self._squared, counts, counts._packed)
        return float(counts._counts @ (np.exp(scale) * ratio)) / counts.total

    def _profile(self):
        """Dense kernel row g with Q[i, j] = g[(i-1) XOR (j-1)].

        A single kernel keeps its row. A mixture sums its components' rows
        on every call and keeps none, so a search over mixture weights
        holds one row per component rather than one per candidate.
        """
        if self.variant == "mixture":
            return sum(c * cfg._profile() for c, cfg in self.components)
        return self._row

    @cached_property
    def _row(self):
        if self._waak is not None:
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
        if self.variant == "mixture":
            return sum(c * cfg._spectrum() for c, cfg in self.components)
        if self.variant == "linear":
            return self.shrinkage.to_dense()
        if self._waak is not None:
            return self._waak.spectrum()
        return self._row_spectrum

    @cached_property
    def _row_spectrum(self):
        return fwht(self._row)


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
    """Rows of packed cells (walsh._pack_bits) zero-padded to whole 64-bit
    words: one row of bytes per cell, also viewed as little-endian words
    (word 0 is the whole zero-based index for n <= 64)."""

    def __init__(self, rows):
        self.size, width = rows.shape
        self.bytes = np.zeros((self.size, -(-width // 8) * 8), dtype=np.uint8)
        self.bytes[:, :width] = rows
        self.words = self.bytes.view("<u8")

    @cached_property
    def hamming(self):
        """The cells' Hamming matrix among themselves, built on first use."""
        return _hamming(self, self)

    def bits(self, start, stop, pivot):
        """Bits start..stop-1 (start a multiple of 8) of each zero-based
        index XOR the pivot's bytes, as 0/1 floats."""
        span = slice(start // 8, (stop + 7) // 8)
        chunk = self.bytes[:, span] ^ pivot[:, span]
        return _unpack_bits(chunk, stop - start).astype(np.float64)


def _as_cells(cells, n):
    """Cell indexes checked and packed (walsh._index_rows); packed cells pass through."""
    return cells if isinstance(cells, _Cells) else _Cells(_index_rows(cells, n))


def _weighted_distance(rows, cols, weights):
    """(c, D) with c D[r, k] = sum_d weights[d] [x_r[d] != x_k[d]] for
    every row cell r and column cell k.

    The one test of the weights for uniformity. When every weight equals
    one value c, D is the exact int32 Hamming matrix (_hamming); a list of
    cells keeps its own (_Cells.hamming), so every uniform-weight
    candidate scored on one support shares one matrix. Other weights give
    c = 1 and the float distance (_float_distance).
    """
    c = weights[0]
    if np.all(weights == c):
        return float(c), rows.hamming if cols is rows else _hamming(rows, cols)
    return 1.0, _float_distance(rows, cols, weights)


def _float_distance(rows, cols, weights):
    """_weighted_distance as float products over the unpacked bits.

    Bits are taken relative to the first row cell, which leaves the
    distance unchanged; [b_r != b_c] = b_r + b_c - 2 b_r b_c then sums
    only coordinates where a cell differs from that pivot, so cells near
    it keep distances accurate to a few ulps however large sum(weights).
    The distance between equal cells, which those ulps would leave
    nonzero, is set to exactly 0 where the Hamming distance is 0.
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
    out[(rows.hamming if cols is rows else _hamming(rows, cols)) == 0] = 0.0
    return out


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
    """sum_m v[m] * v[m ^ x] over the full index range of v: one Q @ Q entry.

    The sum is einsum's: BLAS splits a dot over more than 10^4 values
    across its threads, and the wait for them (about 8 ms at 2^16 values
    on a 2-core machine) can dwarf the sum itself."""
    idx = np.arange(v.shape[0], dtype=np.int64) ^ np.int64(x)
    return float(np.einsum("i,i->", v, v[idx]))


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
            keys = _as_cells([idx for idx, _ in items], self.n).words
            used = np.flatnonzero(keys.any(axis=0))
            self.span = slice(used[0], used[-1] + 1) if used.size else slice(0, 0)
            self.keys = keys[:, self.span]

    def features(self, cells):
        words = cells.words[:, self.span]
        step = max(1, _BLOCK_ENTRIES // max(1, self.keys.size))
        masked = [
            np.bitwise_xor.reduce(words[start : start + step, None, :] & self.keys, axis=2)
            for start in range(0, cells.size, step)
        ]
        return 1.0 - 2.0 * (np.bitwise_count(np.concatenate(masked)) & 1)

    def signed_sums(self, rows, cols):
        """sum_k b_k (-1)^popcount(key_k & (r XOR c)) for every pair."""
        if self.single:
            c, distance = _weighted_distance(rows, cols, self.values)
            return self.values.sum() - (2.0 * c) * distance
        fr = self.features(rows)
        fc = fr if cols is rows else self.features(cols)
        return (fr * self.values) @ fc.T


class _WaakState:
    """Log-space state of a product-form kernel: its rates t and log_diag.

    With t = w log(gamma) for weights w and base gamma, and D_t the
    t-weighted distance of two cells, log Q = sum_d t_d - log Z - 2 D_t =
    log_diag - 2 D_t, log_diag = -sum_d log(1 + e^(-2 t_d)). Q @ Q has
    coordinate factor e^(2t) + e^(-2t) on agreement and 2 on disagreement
    over Z^2, so it is a kernel of the same form (squared), with rates
    t' = (log(e^(2t) + e^(-2t)) - log 2) / 2 and log_diag' = sum_d
    log((e^(2t) + e^(-2t)) / (e^t + e^-t)^2).

    Rows of Q against a support are taken in log space, each shifted by
    its nearest cell (shifted, which _smoothed reads for held-out terms
    and estimates); when t is one value s on every coordinate (shared_t),
    D_t = s H for the exact Hamming matrix H, and the rows are looked up
    from the decay e^(-2 s j) over the n + 1 levels j = 0..n, as is
    p' Q p from the counts' pair histogram (quadratic). Q is the
    Kronecker product of one positive 2x2 factor per coordinate, so Q p
    for a dense p takes one pass per coordinate (smooth), and its Walsh
    diagonal is a product of tanh(t_d) (spectrum).
    """

    def __init__(self, t, log_diagonal):
        self.t = t
        self.shared_t = float(t[0]) if np.all(t == t[0]) else None
        self.log_diagonal = log_diagonal

    def squared(self):
        """The state of Q @ Q, itself a product of positive 2x2 factors."""
        lost = np.log1p(np.exp(-2.0 * self.t))
        lost_sq = np.log1p(np.exp(-4.0 * self.t))
        return _WaakState((2.0 * self.t + lost_sq - _LOG2) / 2.0, float((lost_sq - 2.0 * lost).sum()))

    def shifted(self, rows, counts, held_out):
        """(scale, ratio) of rows of Q against the counts' support: with
        (c, D) their weighted distance and near each row's nearest weighted
        cell (for a held-out row, _held_out_nearest's), scale = log_diag -
        2c near and ratio = e^(-2c (D - near)), so Q = exp(scale) * ratio.
        A Hamming D gathers the n + 1 levels of _decay. A float D clips
        D - near at 0, which only the own cell of a cell seen once, weighed
        0 in its held-out term, falls below, and, as _decay does, sets a
        ratio below the float64 normal range to 0 without calling exp."""
        c, distance = _weighted_distance(rows, counts._packed, self.t)
        exact = distance.dtype.kind == "i"
        if held_out:
            near = counts._nearest if exact else _held_out_nearest(distance, counts._counts)
        else:
            near = distance.min(axis=1)
        scale = self.log_diagonal - (2.0 * c) * near
        if exact:
            return scale, _decay(2.0 * c, counts.n)[distance - near[:, None]]
        exponent = -2.0 * np.maximum(distance - near[:, None], 0.0)
        return scale, np.exp(exponent, out=np.zeros_like(exponent), where=exponent >= _LOG_TINY)

    def quadratic(self, counts):
        """p' Q p from the counts' pair histogram P, when t is one value s
        on every coordinate: exp(log_diag) * sum_h P_h e^(-2 s h) / N^2,
        whose sum holds P_0 >= N at h = 0. The sum is einsum's, which no
        BLAS thread can delay."""
        decay = _decay(2.0 * self.shared_t, counts.n)
        weighted = float(np.einsum("i,i->", counts._pair_histogram, decay))
        return math.exp(self.log_diagonal) * (weighted / counts.total**2)

    def profile(self):
        """Q[1, m + 1] at every zero-based index m; 2^n entries."""
        _dense_size(self.t.size, "a dense kernel row")
        distance = np.zeros(1)
        for td in self.t:  # index bit d is coordinate d
            distance = np.concatenate([distance, distance + td])
        return np.exp(self.log_diagonal - 2.0 * distance)

    def spectrum(self):
        """fwht(profile()) in closed form: prod of tanh(t_d) over the bits d
        of each index, as coordinate d's two entries e^(+-t_d) / (e^t_d +
        e^-t_d) have sum 1 and difference tanh(t_d). Nonnegative, since
        t >= 0: the kernel is positive semidefinite."""
        _dense_size(self.t.size, "a Walsh diagonal")
        out = np.ones(1)
        for factor in np.tanh(self.t):  # index bit d is coordinate d
            out = np.concatenate([out, out * factor])
        return out

    def smooth(self, p):
        """Q p for a dense 2^n vector p: one positive pass per coordinate.

        Q is the Kronecker product of the factors [[alpha_d, beta_d],
        [beta_d, alpha_d]], alpha_d = 1 / (1 + r_d) and beta_d = r_d
        alpha_d with r_d = e^(-2 t_d). walsh._butterfly runs one stage per
        index bit d, bit 0 first: a and b hold the entries whose indexes
        differ in bit d alone, at positions internal to the butterfly, and
        the stage writes a + r_d b and r_d a + b, reading only the scalar
        r_d. The product of the alpha_d, exp(log_diagonal), scales once at
        the end. The peak is 2 * 2^n floats besides p. Every term is
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


def _held_out_nearest(distance, cnt):
    """For each support cell r, the smallest distance[r, k] to a cell k
    that the held-out term at r weights: 0 for a cell seen more than
    once, whose own cell keeps its count minus one, and the distance to
    the nearest other cell for a cell seen once."""
    others = distance.copy()
    np.fill_diagonal(others, distance.max() + 1)
    return np.where(cnt > 1.0, 0, others.min(axis=1))


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


def matrix_element(i, j, config):
    """Kernel matrix entry Q[i, j] for any estimator configuration: the
    estimate at cell i from one observation at cell j, read by _smoothed
    like every other entry."""
    _check_config(config)
    scale, ratio = _smoothed(config, CountsVector(n=config.n, total=1, cells=((j, 1),)), _as_cells([i], config.n))
    return float((np.exp(scale) * ratio)[0])


def squared_matrix_element(i, j, config):
    """Entry (i, j) of Q @ Q for any estimator configuration.

    A kernel read from a dense row g (_squares_from_row) takes it as
    xor_dot(g, (i-1) XOR (j-1)), n <= 30; product-form and sparse
    linear kernels read entry (i, j) of their kernel Q @ Q (_squared) as
    matrix_element does.
    """
    _check_config(config)
    if config._squares_from_row:
        i, j = (_check_index(cell, config.n) for cell in (i, j))
        return xor_dot(config._profile(), (i - 1) ^ (j - 1))
    return matrix_element(i, j, config._squared)


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Estimated probabilities at queried cells.

    cells is None when values covers the full index range 1..2^n in
    order. negativity flags any negative entry, which only
    sign-indefinite transforms or inadmissible shrinkage can produce;
    values are reported exactly as computed, never clipped silently.
    estimate_at keeps the log of each value (_log_values), which query
    turns into conditionals, whenever no value is negative.
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


def _smoothed(config, counts, cells=None):
    """(scale, ratio) of Q p, the value being exp(scale) * ratio: at packed
    cells, the estimate (over N); with cells None, the held-out estimate
    at every support cell (over N - 1).

    The one place a kernel entry is read and a route chosen. A
    product-form kernel (_waak) reads its rows in log space
    (_WaakState.shifted), each shifted by its nearest weighted cell. That
    cell has ratio 1 and weight >= 1, so the ratio neither underflows nor
    overflows. Every other kernel takes a block of Q from _gram, with
    scale -log Z when Z is left out of the block. On both, the own cell's
    entry is weighted by its count minus one, not subtracted after the
    product: it dominates its row at large n, and the difference would
    cancel to 0. A mixture reads each component
    here and adds them row by row in log space (_mixed).
    """
    if config.variant == "mixture":
        return _mixed([(c, *_smoothed(cfg, counts, cells)) for c, cfg in config.components])
    cnt, support = counts._counts, counts._packed
    held_out = cells is None
    rows = support if held_out else cells
    if config._waak is not None:
        scale, block = config._waak.shifted(rows, counts, held_out)
    else:
        scale, block = config._gram(rows, support)
    if not held_out:
        return scale, (block @ cnt) / counts.total
    # A cell seen once reads its own entry at a finite ratio and weighs it 0.
    own = block.diagonal().copy()
    np.fill_diagonal(block, 0.0)
    return scale, (block @ cnt + own * (cnt - 1.0)) / (counts.total - 1)


def _mixed(parts):
    """(scale, ratio) of sum_i c_i exp(scale_i) ratio_i over a mixture's
    components (c_i, scale_i, ratio_i). Each row is shifted by its largest
    term log c_i + scale_i + log|ratio_i| among the components not 0
    there, and each term keeps its sign: a negative linear component
    stays exact, a component read at scale 0 does not mask one far below
    it, and one whose row underflowed to 0 masks none. A row where every
    component is 0 reads scale 0 and ratio 0."""
    with np.errstate(divide="ignore"):
        logs = np.array([math.log(c) + scale + np.log(np.abs(ratio)) for c, scale, ratio in parts])
    top = logs.max(axis=0)
    top[np.isneginf(top)] = 0.0
    return top, np.copysign(np.exp(logs - top), [ratio for _, _, ratio in parts]).sum(axis=0)


def estimate_at(cells, config, counts):
    """Estimated probability of each queried cell, sparse in n.

    Each chunk of query cells is one query x support product (_smoothed)
    near _BLOCK_ENTRIES entries, over the fixed (ascending) support
    order. Unless some value is negative, the estimate also keeps the
    log of every value, scale + log(ratio), which stays exact where the
    value itself underflows; a value of 0 keeps -inf. negativity is read
    from the ratios, whose sign an underflowing scale does not hide.
    """
    _match_dimensions(config, counts)
    cell_list = _items(cells, "query cells")
    if not cell_list:
        raise ValueError("at least one query cell is required")
    step = max(1, _BLOCK_ENTRIES // counts._packed.size)
    parts = [
        _smoothed(config, counts, _as_cells(cell_list[start : start + step], config.n))
        for start in range(0, len(cell_list), step)
    ]
    values = np.concatenate([np.exp(scale) * ratio for scale, ratio in parts])
    negative = any(np.any(ratio < 0.0) for _, ratio in parts)
    with np.errstate(divide="ignore"):
        logs = None if negative else np.concatenate([scale + np.log(ratio) for scale, ratio in parts])
    return DensityEstimate(
        n=config.n,
        cells=tuple(int(c) for c in cell_list),
        values=values,
        normalizers=config._normalizers(),
        negativity=negative,
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
        raise CapacityError(f"full estimates are limited to n <= {MAX_FULL_N}; list explicit query cells for n={n}")
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
    if config._waak is not None:
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
    if config._waak is not None:
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
