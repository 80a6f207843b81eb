"""Independent reference constructions for the test suite.

Everything in this module is built from first principles: block
recursions for the sign matrix and the product-index table, explicit
Kronecker products for the weighted kernel, and dense matrix algebra for
estimates and leave-one-out terms. Nothing here calls into the package's
bit-twiddling or closed-form code paths, so a test comparing the two is
comparing genuinely independent routes to the same quantity.
"""

import math

import mpmath as mp
import numpy as np


def walsh_dense(n):
    """2^n x 2^n sign matrix from the block recursion [[W, W], [W, -W]]."""
    w = np.array([[1]], dtype=np.int64)
    for _ in range(n):
        w = np.block([[w, w], [w, -w]])
    return w



def fwht_butterfly(v):
    """The Walsh transform by the plain in-place butterfly: passes over
    index bits 0, 1, ..., n-1, each pairing runs of h = 1, 2, 4, ...
    values on a copy of v. The package's transform must match it bit for
    bit, since it forms the same sums in the same order."""
    out = np.array(v, dtype=np.float64)
    h = 1
    while h < out.size:
        pairs = out.reshape(-1, 2 * h)
        top = pairs[:, :h].copy()
        bot = pairs[:, h:]
        pairs[:, :h] = top + bot
        pairs[:, h:] = top - bot
        h *= 2
    return out


def smooth_butterfly(p, rates, scale):
    """A product kernel applied to p by the plain in-place butterfly: the
    pass over index bit d replaces each pair (a, b) of entries that differ
    in that bit by (a + r_d b, r_d a + b), on a copy of p, bits 0, 1, ...,
    n-1 in turn, and the result is scaled once at the end. The package's
    per-coordinate smoothing must match it bit for bit, since it forms the
    same sums in the same order."""
    out = np.array(p, dtype=np.float64)
    h = 1
    for r in rates:
        pairs = out.reshape(-1, 2 * h)
        a = pairs[:, :h].copy()
        b = pairs[:, h:].copy()
        pairs[:, :h] = a + r * b
        pairs[:, h:] = r * a + b
        h *= 2
    return out * scale


def mapping_dense(n):
    """1-based column-product index table from the block recursion.

    The recursion doubles the table by [[M, M + s], [M + s, M]] where s
    is the current size, mirroring how column products split across the
    two halves of the doubled sign matrix.
    """
    m = np.array([[1]], dtype=np.int64)
    size = 1
    for _ in range(n):
        m = np.block([[m, m + size], [m + size, m]])
        size *= 2
    return m


def interaction_sets_union(n):
    """{order k: set of 1-based indexes} built by the doubling recursion.

    Starting from {0: {1}} at dimension 0, each added coordinate keeps
    every existing index and adds a shifted copy of the order-(k-1) set,
    combining the two by union.
    """
    sets = {0: {1}}
    dim = 0
    while dim < n:
        size = 1 << dim
        grown = {}
        for k in range(dim + 2):
            keep = sets.get(k, set())
            lift = sets.get(k - 1, set())
            grown[k] = keep | {j + size for j in lift}
        sets = grown
        dim += 1
    return sets


def hamming_table(n):
    """Pairwise Hamming distances between all 2^n cells (zero-based xor)."""
    idx = np.arange(1 << n, dtype=np.uint64)
    return np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(np.int64)


# ---------------------------------------------------------------------------
# dense kernel matrices


def linear_matrix_dense(b):
    """(1/2^n) W diag(b) W assembled densely from the recursion."""
    b = np.asarray(b, dtype=np.float64)
    n = int(b.size).bit_length() - 1
    w = walsh_dense(n).astype(np.float64)
    return (w @ np.diag(b) @ w) / b.size


def transformed_matrix_dense(b, f):
    """f(W diag(b) W) / Z with f a plain elementwise callable."""
    b = np.asarray(b, dtype=np.float64)
    n = int(b.size).bit_length() - 1
    w = walsh_dense(n).astype(np.float64)
    raw = w @ np.diag(b) @ w
    z = float(np.sum(f(w @ b)))
    return f(raw) / z


def waak_matrix_dense(w_vec, gamma):
    """Kronecker build of the weighted kernel matrix, coordinate 1 innermost."""
    w_vec = np.asarray(w_vec, dtype=np.float64)
    gamma = float(gamma)
    mat = np.array([[1.0]])
    for wd in w_vec[::-1]:
        agree = gamma**wd
        differ = gamma**-wd
        mat = np.kron(mat, np.array([[agree, differ], [differ, agree]]))
    z = 1.0
    for wd in w_vec:
        z *= gamma**wd + gamma**-wd
    return mat / z


def aa_matrix_dense(n, lam):
    """Classic categorical kernel lam^(n-d) (1-lam)^d by Hamming distance."""
    d = hamming_table(n)
    return lam ** (n - d) * (1.0 - lam) ** d


def transform_callable(kind, **params):
    """Plain-formula elementwise map for each transform kind.

    Written from the defining formulas, independent of the package's
    stabilized implementations; saturation in the logistic and elu
    branches is harmless at oracle scales.
    """
    if kind == "identity":
        return lambda x: np.asarray(x, dtype=np.float64)
    if kind == "exponential":
        g = float(params["gamma"])
        return lambda x: np.power(g, np.asarray(x, dtype=np.float64))
    if kind == "logistic":
        g = float(params["gamma"])

        def _logistic(x):
            with np.errstate(over="ignore"):
                return 1.0 / (1.0 + np.power(g, -np.asarray(x, dtype=np.float64)))

        return _logistic
    if kind == "step":
        t, lo, hi = (float(params[k]) for k in ("threshold", "low", "high"))
        return lambda x: np.where(np.asarray(x, dtype=np.float64) < t, lo, hi)
    if kind == "relu":
        return lambda x: np.maximum(np.asarray(x, dtype=np.float64), 0.0)
    if kind == "tanh":
        s = float(params["scale"])
        return lambda x: np.tanh(s * np.asarray(x, dtype=np.float64))
    if kind == "elu":
        a = float(params["alpha"])

        def _elu(x):
            arr = np.asarray(x, dtype=np.float64)
            with np.errstate(over="ignore"):
                return np.where(arr >= 0, arr, a * (np.exp(arr) - 1.0))

        return _elu
    raise ValueError(f"no oracle for transform kind {kind!r}")



def masked_sigmoid(y):
    """1 / (1 + e^-y) split by a boolean mask: 1 / (1 + e^-y) where y >= 0,
    e^y / (1 + e^y) elsewhere (NaN included). The package's logistic must
    match it bit for bit."""
    out = np.empty_like(y)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    return out

def descent_by_search_space(initial_w, gamma, loss, counts, sweeps, grid):
    """The weight descent as it was when each coordinate's trials went
    through a SearchSpace and evaluate_space: the reference for the move
    rule (the first best trial wins, and moves only on a strict
    improvement). It calls the package's risks, which the descent under
    test shares; what it pins is the choice among their reports."""
    from bindens.cv import SearchSpace, _check_loss, _rank_key, _risk, evaluate_space
    from bindens.errors import ConfigError
    from bindens.estimators import EstimatorConfig
    from bindens.walsh import _integer, _real

    sweeps = _integer(sweeps, "sweeps", 1, ConfigError)
    _check_loss(loss)
    grid_values = [_real(v, "weight grid value", ConfigError) for v in grid]
    if not grid_values:
        raise ConfigError("weight grid is empty")
    for v in grid_values:
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"weight grid value {v} lies outside [0, 1]")
    current_cfg = EstimatorConfig.waak(initial_w, gamma)
    current = _risk(loss, current_cfg, counts)
    for _ in range(sweeps):
        moved = False
        for d in range(current_cfg.n):
            trials = []
            for v in grid_values:
                w = current_cfg.shrinkage.w.copy()
                if w[d] != v:
                    w[d] = v
                    trials.append(EstimatorConfig.waak(w, gamma))
            if not trials:
                continue
            reports, best_pos, _ = evaluate_space(SearchSpace(configs=tuple(trials)), loss, counts)
            if _rank_key(reports[best_pos]) < _rank_key(current):
                current_cfg, current = trials[best_pos], reports[best_pos]
                moved = True
        if not moved:
            break
    return current_cfg, current


# ---------------------------------------------------------------------------
# dense estimation and leave-one-out references


def counts_dense(counts):
    """Full empirical weight vector of a CountsVector-like object."""
    p = np.zeros(1 << counts.n)
    for idx, cnt in counts.cells:
        p[idx - 1] = cnt / counts.total
    return p


def estimate_dense(q_matrix, counts):
    """Q p for a dense kernel matrix and sparse counts."""
    return q_matrix @ counts_dense(counts)


def loo_naive(q_matrix, counts, k):
    """Held-out estimate for observation k by rebuilding the counts.

    Observation order is the canonical ascending-cell expansion of the
    multiset; exactly one instance is removed.
    """
    obs = []
    for idx, cnt in counts.cells:
        obs.extend([idx] * cnt)
    held = obs.pop(k)
    p = np.zeros(q_matrix.shape[0])
    for idx in obs:
        p[idx - 1] += 1.0 / len(obs)
    return float(q_matrix[held - 1] @ p)


def kl_naive(q_matrix, counts):
    """Sum of log held-out estimates; -inf when any term is nonpositive."""
    terms = [loo_naive(q_matrix, counts, k) for k in range(counts.total)]
    if any(not t > 0.0 for t in terms):
        return float("-inf"), terms
    return float(np.sum(np.log(terms))), terms


def se_naive(q_matrix, counts):
    """Quadratic term minus twice the mean held-out estimate."""
    p = counts_dense(counts)
    fitted = q_matrix @ p
    terms = [loo_naive(q_matrix, counts, k) for k in range(counts.total)]
    return float(fitted @ fitted - 2.0 * np.mean(terms)), terms


# ---------------------------------------------------------------------------
# log-space references at large n (mpmath)
#
# Each kernel is a callable on two sign vectors returning an mpmath
# number, built coordinate by coordinate from the definitions, so its
# values neither underflow nor share any code path with the package.
# .squared(x, y) gives the entry of Q @ Q where a closed form exists.
# Kernels are evaluated inside the reference reductions, which work at
# _DPS decimal digits.

_DPS = 40


def _disagreements(x, y):
    return np.flatnonzero(np.asarray(x) != np.asarray(y))


class WaakKernelMp:
    """Coordinate d contributes gamma^w_d on agreement and gamma^-w_d on
    disagreement, over gamma^w_d + gamma^-w_d; in Q @ Q the factors are
    gamma^2w_d + gamma^-2w_d and 2, over the squared sum.

    Coordinates with equal weights share their factors, so each sum over
    coordinates runs over the distinct weights, each term times the
    number of its coordinates in the sum."""

    @mp.workdps(_DPS)
    def __init__(self, w, gamma):
        log_gamma = mp.log(mp.mpf(float(gamma)))
        weights, self.group = np.unique(np.asarray(w, dtype=np.float64), return_inverse=True)
        self.t = [mp.mpf(float(wd)) * log_gamma for wd in weights]
        self.log_sq = [mp.log(mp.exp(2 * t) + mp.exp(-2 * t)) for t in self.t]
        self.log_sq_lost = [v - mp.log(2) for v in self.log_sq]
        every = np.ones(self.group.size, dtype=bool)
        self.t_total = self._sum(self.t, every)
        self.log_z = self._sum([mp.log(mp.exp(t) + mp.exp(-t)) for t in self.t], every)
        self.log_sq_total = self._sum(self.log_sq, every)

    def _sum(self, per_weight, coords):
        """sum over the coordinates selected by coords of per_weight at
        each coordinate's weight."""
        counts = np.bincount(self.group[coords], minlength=len(per_weight))
        return mp.fsum(int(counts[g]) * per_weight[g] for g in np.flatnonzero(counts))

    def __call__(self, x, y):
        lost = 2 * self._sum(self.t, np.asarray(x) != np.asarray(y))
        return mp.exp(self.t_total - lost - self.log_z)

    def squared(self, x, y):
        lost = self._sum(self.log_sq_lost, np.asarray(x) != np.asarray(y))
        return mp.exp(self.log_sq_total - lost - 2 * self.log_z)


class AaKernelMp:
    """lam^(n-d) (1-lam)^d at Hamming distance d; Q @ Q has per-coordinate
    factors lam^2 + (1-lam)^2 on agreement and 2 lam (1-lam) on disagreement."""

    def __init__(self, n, lam):
        self.n = n
        self.lam = mp.mpf(float(lam))

    def __call__(self, x, y):
        d = len(_disagreements(x, y))
        return self.lam ** (self.n - d) * (1 - self.lam) ** d

    def squared(self, x, y):
        d = len(_disagreements(x, y))
        lam = self.lam
        return (lam**2 + (1 - lam) ** 2) ** (self.n - d) * (2 * lam * (1 - lam)) ** d


class LinearKernelMp:
    """2^-n sum_k b_k W[x, k] W[y, k], with W[x, k] the product of x over
    the coordinates set in the zero-based index k - 1; Q @ Q squares b."""

    def __init__(self, n, entries):
        self.n = n
        self.terms = [
            ([d for d in range(n) if (idx - 1) >> d & 1], mp.mpf(float(val)))
            for idx, val in entries.items()
        ]

    def _sum(self, x, y, power):
        z = np.asarray(x, dtype=np.int64) * np.asarray(y, dtype=np.int64)
        total = mp.fsum(b**power * int(np.prod(z[coords])) for coords, b in self.terms)
        return total * mp.mpf(2) ** (-self.n)

    def __call__(self, x, y):
        return self._sum(x, y, 1)

    def squared(self, x, y):
        return self._sum(x, y, 2)


class LogisticKernelMp:
    """1 / (1 + gamma^-s) / 2^(n-1) with s = sum_d w_d x_d y_d; the row
    entries pair up as s and -s, whose logistic values sum to 1."""

    def __init__(self, w, gamma):
        self.w = np.asarray(w, dtype=np.float64)
        self.gamma = mp.mpf(float(gamma))
        self.z = mp.mpf(2) ** (self.w.size - 1)

    def __call__(self, x, y):
        s = math.fsum((self.w * np.asarray(x) * np.asarray(y)).tolist())
        return 1 / (1 + self.gamma ** (-mp.mpf(s))) / self.z


class MixtureKernelMp:
    """Weighted sum of component kernels."""

    def __init__(self, components):
        self.components = [(mp.mpf(float(c)), k) for c, k in components]

    def __call__(self, x, y):
        return mp.fsum(c * k(x, y) for c, k in self.components)


@mp.workdps(_DPS)
def loo_reference(kernel, points, counts):
    """Held-out terms, KL and (when kernel.squared exists) SE in mpmath.

    points[k] is the sign vector of the k-th cell of counts.cells. The
    held-out term at cell a counts every other cell with its count and
    cell a itself with its count minus one.
    """
    cnt = [c for _, c in counts.cells]
    total = counts.total
    size = len(points)
    q = [[None] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            q[a][b] = q[b][a] = kernel(points[a], points[b])
    terms = [
        mp.fsum((cnt[b] - (a == b)) * q[a][b] for b in range(size)) / (total - 1)
        for a in range(size)
    ]
    out = {
        "terms": terms,
        "kl": mp.fsum(c * mp.log(t) for c, t in zip(cnt, terms)),
    }
    if hasattr(kernel, "squared"):
        quad = mp.fsum(
            cnt[a] * cnt[b] * kernel.squared(points[a], points[b])
            for a in range(size)
            for b in range(size)
        ) / total**2
        mean = mp.fsum(c * t for c, t in zip(cnt, terms)) / total
        out["se"] = quad - 2 * mean
        out["se_scale"] = quad + 2 * mean
    return out


@mp.workdps(_DPS)
def estimate_reference(kernel, queries, points, counts):
    """(1/N) sum_o count_o Q[q, o] at each query sign vector, in mpmath."""
    cnt = [c for _, c in counts.cells]
    return [
        mp.fsum(c * kernel(x, p) for c, p in zip(cnt, points)) / counts.total
        for x in queries
    ]


# ---------------------------------------------------------------------------
# dense kernel rows and the SE quadratic from direct XOR sums
#
# A kernel row g gives Q[i, j] = g[(i-1) XOR (j-1)]. Rows are built from
# parities of the zero-based indexes and (Q @ Q)[i, j] as the direct sum
# sum_m g[m] g[m ^ x], so no Walsh transform enters the reference.


def parity_row(n, entries):
    """sum_k b_k (-1)^popcount((k-1) & m) at every zero-based index m."""
    m = np.arange(1 << n, dtype=np.uint64)
    row = np.zeros(1 << n)
    for idx, val in entries.items():
        parity = np.bitwise_count(m & np.uint64(idx - 1)) & 1
        row += float(val) * (1.0 - 2.0 * parity)
    return row


def transformed_row(n, entries, f):
    """f(W b) / Z with Z the row sum, for sparse coefficients b."""
    raw = f(parity_row(n, entries))
    return raw / math.fsum(raw.tolist())


def linear_row(n, entries):
    return parity_row(n, entries) / 2.0**n


def waak_row(w, gamma):
    """prod_d gamma^(w_d) on agreement, gamma^(-w_d) on disagreement, over Z."""
    w = np.asarray(w, dtype=np.float64)
    m = np.arange(1 << w.size, dtype=np.uint64)
    t = w * math.log(gamma)
    log_row = np.zeros(1 << w.size)
    for d, td in enumerate(t):
        bit = ((m >> np.uint64(d)) & np.uint64(1)).astype(np.float64)
        log_row += td * (1.0 - 2.0 * bit)
    log_z = math.fsum(math.log(math.exp(td) + math.exp(-td)) for td in t)
    return np.exp(log_row - log_z)


def squared_quadratic_direct(g, cells, weights):
    """sum_{a,b} weights_a weights_b (Q @ Q)[a, b] from direct XOR sums."""
    m = np.arange(g.size, dtype=np.int64)
    zero = [int(c) - 1 for c in cells]
    total = []
    for a, ca in enumerate(zero):
        for b in range(a, len(zero)):
            entry = math.fsum((g * g[m ^ (ca ^ zero[b])]).tolist())
            total.append((1 if a == b else 2) * weights[a] * weights[b] * entry)
    return math.fsum(total)


def gather_estimate(g, counts):
    """Full estimate vector from the dense kernel row, one support cell at
    a time: sum over cells of (count / N) * g[m XOR (cell - 1)], in support
    order, with fresh arrays for every term."""
    m = np.arange(g.size, dtype=np.int64)
    values = np.zeros(g.size)
    for cell, cnt in counts.cells:
        values = values + (cnt / counts.total) * g[m ^ (cell - 1)]
    return values


def held_out_from_row(g, counts):
    """Held-out term at each support cell: every other cell with its count,
    the cell itself with its count minus one, over N - 1."""
    zero = [idx - 1 for idx, _ in counts.cells]
    cnt = [c for _, c in counts.cells]
    return [
        math.fsum((cnt[b] - (a == b)) * float(g[ca ^ cb]) for b, cb in enumerate(zero))
        / (counts.total - 1)
        for a, ca in enumerate(zero)
    ]


# ---------------------------------------------------------------------------
# uniform-weight kernels: the linear-space route and a log-space reference
#
# A waak kernel whose t = w log(gamma) is one value s on every coordinate
# (aa_classic among them) has Q[r, c] = exp(log_diag - 2 s H[r, c]) with H
# the Hamming distance of the two cells. The package looks these entries up
# from their Hamming levels in log space. Before that, its risks and
# estimates exponentiated a whole block of entries in linear space, where
# they underflow; LinearSpaceUniform and the two functions after it are
# that route as it was, kept as the reference it must match wherever its
# values are finite and nonzero. H comes from the cell indexes here.


def hamming_matrix(rows, cols):
    """Hamming distance between every pair of 1-based cell indexes."""
    return np.array([[((a - 1) ^ (b - 1)).bit_count() for b in cols] for a in rows], dtype=np.int32)


class LinearSpaceUniform:
    """Q and Q @ Q of a uniform-weight waak or aa_classic config, each
    entry exponentiated on its own."""

    def __init__(self, config):
        t = config.shrinkage.w * math.log(config.gamma)
        lost = np.log1p(np.exp(-2.0 * t))
        lost_sq = np.log1p(np.exp(-4.0 * t))
        self.log_diagonal = -float(lost.sum())
        self.squared_weights = 2.0 * t + lost_sq - math.log(2.0)
        self.log_squared_diagonal = float((lost_sq - 2.0 * lost).sum())
        self.t = t

    def gram(self, rows, cols):
        return np.exp(self.log_diagonal - 2.0 * (self.t[0] * hamming_matrix(rows, cols)))

    def squared_gram(self, rows, cols):
        return np.exp(self.log_squared_diagonal - self.squared_weights[0] * hamming_matrix(rows, cols))


def linear_space_risk(loss, config, counts):
    """(value, held-out terms) of the KL or SE risk on the linear-space route."""
    kernel = LinearSpaceUniform(config)
    support = [idx for idx, _ in counts.cells]
    cnt = np.array([c for _, c in counts.cells], dtype=np.float64)
    gram = kernel.gram(support, support)
    rows = np.arange(gram.shape[0])
    own_entries = gram[rows, rows]
    gram[rows, rows] = 0.0
    terms = (gram @ cnt + own_entries * (cnt - 1.0)) / (counts.total - 1)
    if loss == "kl":
        dominated = not bool(np.all(terms > 0.0))
        value = -math.inf if dominated else math.fsum((cnt * np.log(terms)).tolist())
    else:
        p = cnt / counts.total
        quad = float(p @ kernel.squared_gram(support, support) @ p)
        value = quad - (2.0 / counts.total) * math.fsum((cnt * terms).tolist())
    return value, terms


def linear_space_estimate(cells, config, counts):
    """Estimated probability at each cell on the linear-space route."""
    support = [idx for idx, _ in counts.cells]
    cnt = np.array([c for _, c in counts.cells], dtype=np.float64)
    return LinearSpaceUniform(config).gram(cells, support) @ cnt / counts.total


class UniformKernelMp:
    """log Q and log (Q @ Q) of a waak kernel with weight w on each of n
    coordinates and base gamma, at Hamming distance d, in mpmath: per
    coordinate gamma^w on agreement and gamma^-w on disagreement over
    their sum, and gamma^2w + gamma^-2w and 2 over its square in Q @ Q."""

    @mp.workdps(_DPS)
    def __init__(self, n, w, gamma):
        t = mp.mpf(float(w)) * mp.log(mp.mpf(float(gamma)))
        self.n, self.t = n, t
        self.log_z = n * mp.log(mp.exp(t) + mp.exp(-t))
        self.log_agree_sq = mp.log(mp.exp(2 * t) + mp.exp(-2 * t))

    def log_entry(self, d):
        return (self.n - 2 * d) * self.t - self.log_z

    def log_squared(self, d):
        return (self.n - d) * self.log_agree_sq + d * mp.log(2) - 2 * self.log_z


def sign_hamming(rows_a, rows_b):
    """Hamming distance between every pair of sign rows."""
    return np.array([[int(np.count_nonzero(a != b)) for b in rows_b] for a in rows_a])


@mp.workdps(_DPS)
def uniform_loo_reference(kernel, hamming, cnt, total):
    """Held-out log terms, KL, SE quadratic and SE risk of a UniformKernelMp
    on a support with pairwise distances hamming and counts cnt."""
    entry = {d: mp.exp(kernel.log_entry(d)) for d in set(hamming.ravel().tolist())}
    size = len(cnt)
    log_terms = [
        mp.log(mp.fsum((cnt[c] - (r == c)) * entry[int(hamming[r, c])] for c in range(size)) / (total - 1))
        for r in range(size)
    ]
    squared = {d: mp.exp(kernel.log_squared(d)) for d in entry}
    quad = mp.fsum(
        cnt[r] * cnt[c] * squared[int(hamming[r, c])] for r in range(size) for c in range(size)
    ) / total**2
    mean = mp.fsum(c * mp.exp(lt) for c, lt in zip(cnt, log_terms)) / total
    return {
        "log_terms": log_terms,
        "kl": mp.fsum(c * lt for c, lt in zip(cnt, log_terms)),
        "quad": quad,
        "se": quad - 2 * mean,
        "se_scale": quad + 2 * mean,
    }


@mp.workdps(_DPS)
def uniform_log_estimate(kernel, hamming, cnt, total):
    """log of (1/N) sum_c cnt_c Q[q, c] for each row q of hamming (queries
    x support)."""
    return [
        mp.log(mp.fsum(c * mp.exp(kernel.log_entry(int(d))) for c, d in zip(cnt, row)) / total)
        for row in hamming
    ]


class WeightedLogKernelMp:
    """log Q of a waak kernel with per-coordinate weights w and base gamma,
    in mpmath, from exact weighted distances: per coordinate gamma^w_d on
    agreement and gamma^-w_d on disagreement over their sum, so log Q =
    -sum_d log(1 + gamma^-2w_d) - 2 log(gamma) D_w."""

    @mp.workdps(_DPS)
    def __init__(self, w, gamma):
        self.w = np.asarray(w, dtype=np.float64)
        self.log_gamma = mp.log(mp.mpf(float(gamma)))
        self.log_diagonal = -mp.fsum(mp.log1p(mp.exp(-2 * mp.mpf(float(wd)) * self.log_gamma)) for wd in self.w)

    def log_entries(self, rows_a, rows_b):
        """log Q between every pair of sign rows, as nested lists."""
        distance = weighted_mismatch(rows_a, rows_b, self.w)
        with mp.workdps(_DPS):
            return [[self.log_diagonal - 2 * self.log_gamma * d for d in row] for row in distance]


# Weights are cut into integer chunks of this many bits, so a sum of n
# chunks stays below 2^53 and float64 adds it exactly (n < 2^27).
_CHUNK_BITS = 26


def weighted_mismatch(rows_a, rows_b, w):
    """sum_d w_d [a_d != b_d] for every pair of sign rows, exactly, as
    mpmath numbers (nested lists). Each float w_d is an integer over 2^k
    for one k; the integers are summed a chunk of bits at a time, as
    (sum v - (a * v) . b) / 2 over the signs, where every partial sum is
    an integer below 2^53."""
    exact = [mp.mpf(float(wd)) for wd in w]
    k = max(-int(mp.frexp(f)[1]) + 53 for f in exact if f)
    ints = [int(mp.ldexp(f, k)) for f in exact]
    a = np.asarray(rows_a, dtype=np.float64)
    b = np.asarray(rows_b, dtype=np.float64)
    total = np.zeros((a.shape[0], b.shape[0]), dtype=object)
    for shift in range(0, max(ints).bit_length(), _CHUNK_BITS):
        chunk = np.array([(i >> shift) & ((1 << _CHUNK_BITS) - 1) for i in ints], dtype=np.float64)
        part = (chunk.sum() - (a * chunk) @ b.T) / 2.0
        total += part.astype(np.int64).astype(object) * (1 << shift)
    with mp.workdps(_DPS):
        return [[mp.ldexp(mp.mpf(int(v)), -k) for v in row] for row in total]


@mp.workdps(_DPS)
def log_loo_reference(log_q, cnt, total):
    """Held-out log terms and KL from a support x support matrix of log Q:
    row r weighs cell c by its count, and itself by its count minus one."""
    size = len(cnt)
    log_terms = [
        mp.log(mp.fsum((cnt[c] - (r == c)) * mp.exp(log_q[r][c]) for c in range(size)) / (total - 1))
        for r in range(size)
    ]
    return log_terms, mp.fsum(c * lt for c, lt in zip(cnt, log_terms))


@mp.workdps(_DPS)
def log_estimate_reference(log_q, cnt, total):
    """log of (1/N) sum_c cnt_c Q[q, c] for each row q of a queries x
    support matrix of log Q."""
    return [mp.log(mp.fsum(c * mp.exp(lq) for c, lq in zip(cnt, row)) / total) for row in log_q]


# ---------------------------------------------------------------------------
# observation files


def decode_observations(path, encoding="signs", delimiter=",", header=False):
    """Token-by-token reading of an observation file: (n, total, {cell: count}).

    Each nonblank line is stripped and split on the delimiter (any
    whitespace for "ws"); each token is stripped and empty tokens dropped.
    signs: "1"/"+1" is +1 and "-1" is -1; bits: "0" is +1 and "1" is -1.
    A -1 at coordinate k (1-based) sets bit k-1 of the zero-based cell
    index. Raises ValueError on any other token or on rows of unequal length.
    """
    value = {"1": 1, "+1": 1, "-1": -1} if encoding == "signs" else {"0": 1, "1": -1}
    cells, widths = {}, set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if header and lineno == 1:
                continue
            parts = line.split() if delimiter == "ws" else line.split(delimiter)
            tokens = [t.strip() for t in parts if t.strip()]
            if not tokens:
                continue
            cell = 1
            for k, token in enumerate(tokens):
                if token not in value:
                    raise ValueError(f"line {lineno}: bad token {token!r}")
                if value[token] < 0:
                    cell += 2**k
            widths.add(len(tokens))
            cells[cell] = cells.get(cell, 0) + 1
    if len(widths) != 1:
        raise ValueError(f"row widths {sorted(widths)}")
    return widths.pop(), sum(cells.values()), cells
