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
estimate, leave-one-out risk and scalar element goes through it. Blocks
cost O(#nonzero(b)) or O(n) per entry without touching a 2^n buffer;
dense materialization is a separate, capacity-guarded path. Q @ Q of a
transformed or mixture kernel is the exception: its entries need the
dense profile, and the core's quadratic form p' Q^2 p takes it as a
Parseval sum over two n 2^n transforms (n <= 30).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .backend import xor_dot
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateNormalizerError,
    NumericError,
)
from .shrinkage import DENSE, SINGLE_INTERACTION, ShrinkageSpec
from .transforms import (
    CLOSED_FORM_EXPONENTIAL,
    LINEAR_TRIVIAL,
    NormalizerResult,
    Transform,
    apply,
    normalizer,
)
from .walsh import MAX_DENSE_N, _check_index, as_point, fwht, index_of_point

__all__ = [
    "MAX_FULL_N",
    "VARIANTS",
    "CountsVector",
    "DensityEstimate",
    "EstimatorConfig",
    "clamp_and_renormalize",
    "counts_from_observations",
    "element_linear",
    "element_mixture",
    "element_transformed",
    "element_waak",
    "estimate_at",
    "estimate_full",
    "matrix_element",
    "shrinkage_optimal",
    "squared_element_general",
    "squared_element_linear",
    "squared_element_waak",
    "squared_matrix_element",
]

VARIANTS = ("linear", "transformed", "waak", "aa_classic", "mixture")

# Largest n for which the full 2^n estimate vector may be materialized.
MAX_FULL_N = 20

_LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# observation counts


@dataclass(frozen=True, eq=False)
class CountsVector:
    """Empirical cell counts stored sparsely in ascending index order."""

    n: int
    total: int
    cells: tuple

    @classmethod
    def from_cells(cls, n, mapping):
        """Build from {cell index: positive count}; indexes may be huge."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise DataError(f"dimension must be a positive integer, got {n!r}")
        n = int(n)
        if not mapping:
            raise DataError("counts must cover at least one cell")
        limit = 1 << n
        cleaned = []
        for idx, cnt in mapping.items():
            idx = int(idx)
            if idx < 1 or idx > limit:
                raise DataError(f"cell index {idx} out of range [1, 2^{n}]")
            if not isinstance(cnt, (int, np.integer)) or cnt < 1:
                raise DataError(f"count for cell {idx} must be a positive integer, got {cnt!r}")
            cleaned.append((idx, int(cnt)))
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
        return self._lookup.get(int(cell), 0)

    @cached_property
    def _lookup(self):
        return dict(self.cells)

    def to_dense(self):
        """Full empirical weight vector p with p[j-1] = count_j / total."""
        if self.n > MAX_DENSE_N:
            raise CapacityError(
                f"cannot materialize 2^{self.n} cell weights (limit n={MAX_DENSE_N})"
            )
        out = np.zeros(1 << self.n)
        for idx, cnt in self.cells:
            out[idx - 1] = cnt / self.total
        return out


def counts_from_observations(points):
    """Aggregate raw {-1,+1} observation rows into a CountsVector."""
    rows = list(points)
    if not rows:
        raise DataError("no observations provided")
    counter = {}
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
        idx = index_of_point(arr)
        counter[idx] = counter.get(idx, 0) + 1
    return CountsVector.from_cells(n, counter)


def shrinkage_optimal(q, N):
    """Risk-minimizing scalar shrinkage toward the uniform baseline.

    For a single spectral coefficient q in [-1, 1] estimated from N
    samples, the squared-error optimum is N q^2 / ((N-1) q^2 + 1),
    which always lands in [0, 1] and is 1 exactly at |q| = 1.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"sample count must be a positive integer, got {N!r}")
    q = float(q)
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


def _validate_linear_shrinkage(shrinkage):
    if not isinstance(shrinkage, ShrinkageSpec):
        raise ConfigError("linear estimator needs a ShrinkageSpec")
    if shrinkage.form == SINGLE_INTERACTION:
        raise ConfigError(
            "single-interaction shrinkage has leading coefficient 0; the linear estimator requires it to be 1"
        )
    if shrinkage.first_coefficient() != 1.0:
        raise ConfigError("linear estimator requires the leading shrinkage coefficient to equal 1")
    for idx, val in shrinkage.nonzero_items():
        if not 0.0 <= val <= 1.0:
            raise ConfigError(
                f"linear shrinkage coefficient {val} at index {idx} lies outside [0, 1]"
            )


def _validate_components(components):
    comps = []
    for item in components:
        try:
            weight, cfg = item
        except (TypeError, ValueError) as exc:
            raise ConfigError("mixture components must be (weight, config) pairs") from exc
        weight = float(weight)
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

    Instances are immutable and carry a private cache so repeated element
    evaluation against the same configuration reuses precomputed state.
    """

    variant: str
    shrinkage: ShrinkageSpec = None
    transform: Transform = None
    gamma: float = None
    lam: float = None
    components: tuple = None
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def linear(cls, shrinkage):
        _validate_linear_shrinkage(shrinkage)
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
        gamma = float(gamma)
        if not math.isfinite(gamma) or gamma < 1.0:
            raise ConfigError(f"weighted kernel base must satisfy gamma >= 1, got {gamma}")
        return cls(variant="waak", shrinkage=_as_weight_vector(w), gamma=gamma)

    @classmethod
    def aa_classic(cls, n, lam):
        lam = float(lam)
        if not 0.5 <= lam < 1.0:
            raise ConfigError(f"classic kernel smoothing must satisfy 0.5 <= lam < 1, got {lam}")
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigError(f"dimension must be a positive integer, got {n!r}")
        gamma = math.sqrt(lam / (1.0 - lam))
        return cls(
            variant="aa_classic",
            shrinkage=ShrinkageSpec.single_interaction(np.ones(int(n))),
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
        for cell in cells:
            _check_index(cell, n)
        self.size = len(cells)
        nbytes = 8 * max(1, (n + 63) // 64)
        raw = b"".join((int(cell) - 1).to_bytes(nbytes, "little") for cell in cells)
        self.bytes = np.frombuffer(raw, dtype=np.uint8).reshape(self.size, nbytes)
        self.words = self.bytes.view(np.uint64)

    def bits(self, start, stop, pivot):
        """Bits start..stop-1 (start a multiple of 8) of each zero-based
        index XOR the pivot's bytes, as 0/1 floats."""
        span = slice(start // 8, (stop + 7) // 8)
        chunk = self.bytes[:, span] ^ pivot[:, span]
        return np.unpackbits(chunk, axis=1, bitorder="little")[:, : stop - start].astype(np.float64)


def _cell_pair(rows, cols, n):
    """Pack two cell lists; a list passed as both is packed once."""
    packed = _Cells(rows, n)
    return packed, packed if cols is rows else _Cells(cols, n)


def _weighted_distance(rows, cols, weights):
    """sum_d weights[d] [x_r[d] != x_c[d]] for every row cell r and column cell c.

    Bits are taken relative to the first row cell, which leaves the
    distance unchanged; [b_r != b_c] = b_r + b_c - 2 b_r b_c then sums
    only coordinates where a cell differs from that pivot, so cells near
    it keep distances accurate to a few ulps however large sum(weights).
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
    return out


def _xor_gather(g, rows, cols):
    """g at the XOR of every row and column index: Q from a dense profile."""
    return g[rows.words[:, :1] ^ cols.words[:, 0]]


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
    """

    def __init__(self, w, gamma):
        arr = np.asarray(w, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("kernel weights must form a nonempty 1-d vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("kernel weights must lie in [0, 1]")
        gamma = float(gamma)
        if not math.isfinite(gamma) or gamma < 1.0:
            raise ValueError(f"kernel base must satisfy gamma >= 1, got {gamma}")
        self.n = int(arr.size)
        t = arr * math.log(gamma)
        self.t = t
        # log(gamma^w + gamma^-w) per coordinate; their sum is log Z
        self.log_z = float(np.logaddexp(t, -t).sum())
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

    def profile(self):
        """Q[1, m + 1] at every zero-based index m; 2^n entries."""
        distance = np.zeros(1)
        for td in self.t:  # index bit d is coordinate d
            distance = np.concatenate([distance, distance + td])
        return np.exp(self.log_diagonal - 2.0 * distance)

    def normalizer_result(self):
        value = math.exp(self.log_z) if self.log_z < 700.0 else math.inf
        return NormalizerResult(value=value, method=CLOSED_FORM_EXPONENTIAL, log_value=self.log_z)


@lru_cache(maxsize=256)
def _parity_features(shrinkage):
    return _ParityFeatures(shrinkage)


@lru_cache(maxsize=256)
def _normalizer_cached(transform, shrinkage):
    return normalizer(transform, shrinkage)


@lru_cache(maxsize=256)
def _waak_state_cached(w_bytes, size, gamma):
    w = np.frombuffer(w_bytes, dtype=np.float64, count=size)
    return _WaakState(w, gamma)


def _waak_state(w, gamma):
    arr = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    return _waak_state_cached(arr.tobytes(), int(arr.size), float(gamma))


def _check_normalizer(norm):
    if not norm.value > 0:
        raise DegenerateNormalizerError(
            f"normalization constant {norm.value} is not positive"
        )


def _divide_by_normalizer(values, norm):
    """values / Z; through log space, keeping signs, when Z overflowed float64."""
    if math.isfinite(norm.value):
        return values / norm.value
    with np.errstate(divide="ignore"):
        return np.sign(values) * np.exp(np.log(np.abs(values)) - norm.log_value)


@lru_cache(maxsize=64)
def _linear_profile(shrinkage):
    """fwht(b) / 2^n; Q[i, j] is this vector at the XOR of the indexes."""
    return fwht(shrinkage.to_dense()) * math.ldexp(1.0, -shrinkage.n)


@lru_cache(maxsize=64)
def _squared_linear_profile(shrinkage):
    dense = shrinkage.to_dense()
    return fwht(dense * dense) * math.ldexp(1.0, -shrinkage.n)


@lru_cache(maxsize=64)
def _transformed_profile(shrinkage, transform):
    """f(fwht(b)) / Z as a dense row; capacity-guarded by to_dense."""
    raw = fwht(shrinkage.to_dense())
    norm = _normalizer_cached(transform, shrinkage)
    _check_normalizer(norm)
    return _divide_by_normalizer(apply(transform, raw), norm)


# ---------------------------------------------------------------------------
# element-level evaluation: single entries of the batched core


def element_linear(i, j, shrinkage):
    """Entry (i, j) of (1/2^n) W diag(b) W in O(#nonzero(b)).

    With b = e_1 this is the uniform estimator (constant 1/2^n); with
    b = 1 it is the identity, i.e. the raw frequency estimator.
    """
    return _entry(_ConfigState(EstimatorConfig.linear(shrinkage)), i, j)


def squared_element_linear(i, j, shrinkage):
    """Entry (i, j) of the squared linear kernel: shares b's support,
    with each coefficient squared."""
    return _entry(_ConfigState(EstimatorConfig.linear(shrinkage)), i, j, squared=True)


def element_transformed(i, j, shrinkage, transform):
    """Entry (i, j) of f(W diag(b) W) / Z.

    The numerator costs O(#nonzero(b)); the normalization constant is
    resolved once per (transform, shrinkage) pair through the cheapest
    available dispatch route.
    """
    return _entry(_ConfigState(EstimatorConfig.transformed(shrinkage, transform)), i, j)


def element_waak(i, j, w, gamma):
    """Weighted product-form kernel entry in O(n), log-space stable.

    Equals gamma^(sum of +-w_d) / prod_d (gamma^w_d + gamma^-w_d), the
    sign positive exactly on coordinates where cells i and j agree. At
    w = 1 and gamma = sqrt(lam/(1-lam)) this reproduces the classic
    categorical kernel lam^(n-d) (1-lam)^d at Hamming distance d.
    """
    state = _waak_state(w, gamma)
    return float(state.gram(*_cell_pair([i], [j], state.n))[0, 0])


def squared_element_waak(i, j, w, gamma):
    """Entry (i, j) of the squared weighted kernel, O(n) in log space.

    Coordinate factors become gamma^2w_d + gamma^-2w_d on agreement and
    2 on disagreement, over the squared normalizer.
    """
    state = _waak_state(w, gamma)
    return float(state.squared_gram(*_cell_pair([i], [j], state.n))[0, 0])


def squared_element_general(i, j, shrinkage, transform):
    """Entry (i, j) of the squared transformed kernel via one dense pass.

    Precomputes g = f(fwht(b))/Z once per configuration, then each entry
    is sum_m g[m] g[m ^ x] with x the XOR of the zero-based indexes:
    O(2^n) per element after an O(n 2^n) setup, dense-capacity guarded.
    """
    return _entry(_ConfigState(EstimatorConfig.transformed(shrinkage, transform)), i, j, squared=True)


def element_mixture(i, j, components):
    """Convex combination of component kernel entries."""
    return _entry(_ConfigState(EstimatorConfig.mixture(components)), i, j)


# ---------------------------------------------------------------------------
# per-config dispatch


# Variants whose Q @ Q is built from the dense profile.
_PROFILE_SQUARED = ("transformed", "mixture")


class _ConfigState:
    """Resolved evaluation strategy for one EstimatorConfig.

    gram and squared_gram fill Q and Q @ Q on two lists of cells; every
    estimate, risk and scalar element goes through them, and quadratic
    gives the SE risk its p' Q^2 p.
    """

    def __init__(self, config):
        self.config = config
        self.n = config.n
        variant = config.variant
        if variant in ("waak", "aa_classic"):
            self._waak = _waak_state(config.shrinkage.w, config.gamma)
        elif variant == "mixture":
            self._children = [(c, _config_state(cfg)) for c, cfg in config.components]
        elif variant == "transformed":
            self._norm = _normalizer_cached(config.transform, config.shrinkage)
            _check_normalizer(self._norm)

    def gram(self, rows, cols):
        """Q[r, c] for every cell r in rows and c in cols, as an array."""
        return self._gram(*_cell_pair(rows, cols, self.n))

    def squared_gram(self, rows, cols):
        """(Q @ Q)[r, c] for every cell r in rows and c in cols, as an array."""
        return self._squared_gram(*_cell_pair(rows, cols, self.n))

    def _gram(self, rows, cols):
        cfg = self.config
        if cfg.variant in ("waak", "aa_classic"):
            return self._waak.gram(rows, cols)
        if cfg.variant == "mixture":
            return sum(c * child._gram(rows, cols) for c, child in self._children)
        if cfg.shrinkage.form == DENSE:
            return _xor_gather(self.profile(), rows, cols)
        features = _parity_features(cfg.shrinkage)
        raw = features.signed_sums(rows, cols, features.values)
        if cfg.variant == "linear":
            return np.ldexp(raw, -self.n)
        return _divide_by_normalizer(apply(cfg.transform, raw), self._norm)

    def quadratic(self, cells, weights):
        """weights' (Q @ Q) weights over a list of distinct cells.

        Q @ Q of a transformed or mixture kernel has no entrywise shortcut.
        Q p is the XOR convolution of the dense profile g with p, so by
        Parseval ||Q p||^2 = ||fwht(g) fwht(p)||^2 / 2^n: two n 2^n
        transforms in place of one xor_dot per cell pair. A norm keeps full
        relative accuracy, which single Q @ Q entries built by transforms
        would not on the far entries of a peaked kernel.
        """
        if self.config.variant in _PROFILE_SQUARED:
            g = self.profile()  # refuses n > MAX_DENSE_N before any 2^n buffer
            p = np.zeros(g.size)
            p[np.asarray(cells, dtype=np.int64) - 1] = weights
            spectrum = fwht(g) * fwht(p)
            return math.ldexp(float(spectrum @ spectrum), -self.n)
        return float(weights @ self.squared_gram(cells, cells) @ weights)

    def _squared_gram(self, rows, cols):
        cfg = self.config
        if cfg.variant in ("waak", "aa_classic"):
            return self._waak.squared_gram(rows, cols)
        if cfg.variant in _PROFILE_SQUARED:
            # Squares mix entries across a whole row, so single entries take
            # one xor_dot over the dense profile; quadratic forms over many
            # cells go through quadratic instead.
            return _xor_dot_block(self.profile(), rows, cols)
        if cfg.shrinkage.form == DENSE:
            return _xor_gather(_squared_linear_profile(cfg.shrinkage), rows, cols)
        features = _parity_features(cfg.shrinkage)
        return np.ldexp(features.signed_sums(rows, cols, features.squared_values), -self.n)

    def profile(self):
        """Dense kernel row g with Q[i, j] = g[(i-1) XOR (j-1)]."""
        cached = self.config._cache.get("profile")
        if cached is not None:
            return cached
        cfg = self.config
        if self.n > MAX_DENSE_N:
            raise CapacityError(
                f"dense kernel row needs a 2^{self.n} buffer (limit n={MAX_DENSE_N})"
            )
        if cfg.variant == "linear":
            g = _linear_profile(cfg.shrinkage)
        elif cfg.variant in ("waak", "aa_classic"):
            g = self._waak.profile()
        elif cfg.variant == "transformed":
            g = _transformed_profile(cfg.shrinkage, cfg.transform)
        else:
            g = np.zeros(1 << self.n)
            for c, child in self._children:
                g = g + c * child.profile()
        cfg._cache["profile"] = g
        return g

    def normalizers(self):
        cfg = self.config
        if cfg.variant == "linear":
            value = float(2**self.n) if self.n <= 1023 else math.inf
            return (NormalizerResult(value=value, method=LINEAR_TRIVIAL, log_value=self.n * _LOG2),)
        if cfg.variant in ("waak", "aa_classic"):
            return (self._waak.normalizer_result(),)
        if cfg.variant == "transformed":
            return (_normalizer_cached(cfg.transform, cfg.shrinkage),)
        out = []
        for _, child in self._children:
            out.extend(child.normalizers())
        return tuple(out)


def _config_state(config):
    if not isinstance(config, EstimatorConfig):
        raise ConfigError("expected an EstimatorConfig")
    state = config._cache.get("state")
    if state is None:
        state = _ConfigState(config)
        config._cache["state"] = state
    return state


def _entry(state, i, j, squared=False):
    """One entry of Q or Q @ Q: the K=1 block of the core.

    The element_* wrappers build a config per call and pass a state that
    is not cached on it: a cached state would tie the two in a reference
    cycle left for the garbage collector.
    """
    block = state.squared_gram if squared else state.gram
    return float(block([i], [j])[0, 0])


def matrix_element(i, j, config):
    """Kernel matrix entry Q[i, j] for any estimator configuration."""
    return _entry(_config_state(config), i, j)


def squared_matrix_element(i, j, config):
    """Entry (i, j) of Q @ Q for any estimator configuration."""
    return _entry(_config_state(config), i, j, squared=True)


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Estimated probabilities at queried cells.

    cells is None when values covers the full index range 1..2^n in
    order. negativity flags any negative entry, which only
    sign-indefinite transforms or inadmissible shrinkage can produce;
    values are reported exactly as computed, never clipped silently.
    """

    n: int
    cells: tuple
    values: np.ndarray
    normalizers: tuple
    negativity: bool


def _match_dimensions(config, counts):
    if not isinstance(counts, CountsVector):
        raise DataError("expected a CountsVector")
    if config.n != counts.n:
        raise ConfigError(
            f"estimator dimension {config.n} does not match data dimension {counts.n}"
        )


def _support(counts):
    """Observed cells (ascending) and their counts as floats."""
    cells = [cell for cell, _ in counts.cells]
    return cells, np.array([cnt for _, cnt in counts.cells], dtype=np.float64)


def estimate_at(cells, config, counts):
    """Estimated probability of each queried cell, sparse in n.

    Each chunk of query cells is one query x support block of Q times
    the counts; chunks keep the block near _BLOCK_ENTRIES entries, and the
    fixed (ascending) support order makes results deterministic.
    """
    _match_dimensions(config, counts)
    state = _config_state(config)
    cell_list = list(cells)
    if not cell_list:
        raise ValueError("at least one query cell is required")
    support, cnt = _support(counts)
    step = max(1, _BLOCK_ENTRIES // len(support))
    sums = [
        state.gram(cell_list[start : start + step], support) @ cnt
        for start in range(0, len(cell_list), step)
    ]
    values = np.concatenate(sums) / counts.total
    return DensityEstimate(
        n=state.n,
        cells=tuple(int(c) for c in cell_list),
        values=values,
        normalizers=state.normalizers(),
        negativity=bool(np.any(values < 0.0)),
    )


def estimate_full(config, counts):
    """Full 2^n estimate vector (n <= 20).

    Linear configurations run through the double transform
    (1/2^n) fwht(b * fwht(p)); everything else gathers the dense kernel
    row at XOR-shifted positions per support cell.
    """
    _match_dimensions(config, counts)
    n = config.n
    if n > MAX_FULL_N:
        raise CapacityError(f"full estimate limited to n <= {MAX_FULL_N}, got n={n}")
    state = _config_state(config)
    size = 1 << n
    if config.variant == "linear":
        spectrum = fwht(counts.to_dense()) * config.shrinkage.to_dense()
        values = fwht(spectrum) * math.ldexp(1.0, -n)
    else:
        g = state.profile()
        idx = np.arange(size, dtype=np.int64)
        values = np.zeros(size)
        for cell, cnt in counts.cells:
            values += (cnt / counts.total) * g[idx ^ (cell - 1)]
    return DensityEstimate(
        n=n,
        cells=None,
        values=values,
        normalizers=state.normalizers(),
        negativity=bool(np.any(values < 0.0)),
    )


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
