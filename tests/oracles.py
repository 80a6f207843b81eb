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
    gamma^2w_d + gamma^-2w_d and 2, over the squared sum."""

    @mp.workdps(_DPS)
    def __init__(self, w, gamma):
        log_gamma = mp.log(mp.mpf(float(gamma)))
        self.t = [mp.mpf(float(wd)) * log_gamma for wd in w]
        self.t_total = mp.fsum(self.t)
        self.log_z = mp.fsum(mp.log(mp.exp(t) + mp.exp(-t)) for t in self.t)
        self.log_sq = [mp.log(mp.exp(2 * t) + mp.exp(-2 * t)) for t in self.t]
        self.log_sq_total = mp.fsum(self.log_sq)

    def __call__(self, x, y):
        lost = mp.fsum(2 * self.t[d] for d in _disagreements(x, y))
        return mp.exp(self.t_total - lost - self.log_z)

    def squared(self, x, y):
        lost = mp.fsum(self.log_sq[d] - mp.log(2) for d in _disagreements(x, y))
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
