"""Reference values for the end-to-end benchmark, computed without bindens.

Cells of {-1,+1}^n are sign rows; the cell index is 1 + sum_k bit_k 2^k
with bit_k set where the sign is -1. Two routes are used:

* Wide data (n in the thousands): kernels between row sets are sign-matrix
  products in log space, and every sum over observations is a logsumexp,
  so nothing underflows however small the probabilities get.
* Dense data (n <= 16): each kernel is a profile g over XOR masks,
  Q[i, j] = g[(i - 1) ^ (j - 1)], built from the bits of the masks, and
  the estimate is a gather over the observed cells.

`self_check` tests both routes against brute-force dense matrices at
n <= 8 and against mpmath at n = 10^4.
"""

import math

import numpy as np
from scipy.special import expit, logsumexp

LOG2 = math.log(2.0)


def cell_index(row):
    """1-based cell index of one sign row."""
    bits = np.asarray(row) < 0
    return 1 + int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def sign_label(row):
    return "".join("+" if s > 0 else "-" for s in row)


# ---------------------------------------------------------------------------
# wide route: log kernels between sign matrices


def _f(rows):
    return np.asarray(rows, dtype=np.float64)


def waak_log_kernel(a, b, w, gamma):
    """log Q[a_i, b_j] of the weighted kernel: sum_d s_ad s_bd t_d - log Z."""
    t = np.asarray(w, dtype=np.float64) * math.log(gamma)
    log_z = float(np.logaddexp(t, -t).sum())
    return (_f(a) * t) @ _f(b).T - log_z


def waak_log_sq_kernel(a, b, w, gamma):
    """log (Q Q)[a_i, b_j]: per coordinate a^2 + b^2 on agreement, 2ab apart."""
    t = np.asarray(w, dtype=np.float64) * math.log(gamma)
    log_z = float(np.logaddexp(t, -t).sum())
    agree = np.logaddexp(2.0 * t, -2.0 * t)
    return float((agree + LOG2).sum() / 2.0) + (_f(a) * ((agree - LOG2) / 2.0)) @ _f(b).T - 2.0 * log_z


def _hamming(a, b):
    n = np.asarray(a).shape[1]
    return (n - _f(a) @ _f(b).T) / 2.0


def aa_log_kernel(a, b, lam):
    """Classic kernel lam^(n-d) (1-lam)^d at Hamming distance d."""
    n = np.asarray(a).shape[1]
    d = _hamming(a, b)
    return (n - d) * math.log(lam) + d * math.log1p(-lam)


def aa_log_sq_kernel(a, b, lam):
    n = np.asarray(a).shape[1]
    d = _hamming(a, b)
    return (n - d) * math.log(lam * lam + (1.0 - lam) ** 2) + d * math.log(2.0 * lam * (1.0 - lam))


def log_kernels(estimator, a, b):
    """(log Q, log Q^2) between row sets for a waak or aa_classic config dict."""
    if estimator["variant"] == "aa_classic":
        lam = estimator["lambda"]
        return aa_log_kernel(a, b, lam), aa_log_sq_kernel(a, b, lam)
    w = np.broadcast_to(np.asarray(estimator["w"], dtype=np.float64), (np.asarray(a).shape[1],))
    return waak_log_kernel(a, b, w, estimator["gamma"]), waak_log_sq_kernel(a, b, w, estimator["gamma"])


def loo_log_terms(log_q, counts):
    """log of each cell's held-out estimate; log_q is the K x K kernel."""
    counts = np.asarray(counts, dtype=np.float64)
    weights = np.tile(counts, (counts.size, 1))
    np.fill_diagonal(weights, counts - 1.0)
    return logsumexp(log_q, b=weights, axis=1) - math.log(counts.sum() - 1.0)


def kl_value(log_terms, counts):
    return math.fsum(np.asarray(counts, dtype=np.float64) * log_terms)


def se_parts(log_sq, log_terms, counts):
    """(quadratic term, subtracted LOO term); SE is their difference."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    log_p = np.log(counts / total)
    quad = math.exp(logsumexp(log_sq + log_p[:, None] + log_p[None, :]))
    lin = math.exp(logsumexp(log_terms, b=counts) + math.log(2.0 / total))
    return quad, lin


def wide_risk(estimator, loss, rows, counts):
    """Oracle risk of one candidate on distinct rows with counts.

    Returns a dict with the value, its magnitude (the size of the terms
    it is a sum or difference of), the smallest log held-out term, and
    the smallest over held-out cells of the largest log kernel entry in
    that cell's term: below about -745.1 every entry of that term is 0.0
    in float64.
    """
    log_q, log_sq = log_kernels(estimator, rows, rows)
    counts = np.asarray(counts)
    terms = loo_log_terms(log_q, counts)
    used = np.where(np.eye(len(counts), dtype=bool) & (counts[:, None] < 2), -np.inf, log_q)
    out = {"min_log_term": float(terms.min()), "min_max_entry": float(used.max(axis=1).min())}
    if loss == "kl":
        out["value"] = kl_value(terms, counts)
        out["magnitude"] = abs(out["value"])
    else:
        quad, lin = se_parts(log_sq, terms, counts)
        out["value"], out["magnitude"] = quad - lin, quad + lin
    return out


def wide_log_estimate(estimator, queries, rows, counts):
    """log of the estimate at each query row."""
    counts = np.asarray(counts, dtype=np.float64)
    log_q, _ = log_kernels(estimator, queries, rows)
    return logsumexp(log_q, b=np.tile(counts, (len(queries), 1)), axis=1) - math.log(counts.sum())


def conditional(log_plus, log_minus):
    """(P+ - P-) / (P+ + P-) from the two log probabilities."""
    return math.tanh((log_plus - log_minus) / 2.0)


# ---------------------------------------------------------------------------
# dense route: profiles over XOR masks


def mask_bits(n):
    masks = np.arange(1 << n, dtype=np.int64)
    return (masks[:, None] >> np.arange(n)) & 1


def parity_sum(n, entries):
    """sum_k b_k (-1)^popcount(m & (k-1)) for every mask m."""
    masks = np.arange(1 << n, dtype=np.uint64)
    out = np.zeros(1 << n)
    for idx, val in entries.items():
        parity = np.bitwise_count(masks & np.uint64(int(idx) - 1)) & 1
        out += val * (1.0 - 2.0 * parity)
    return out


def waak_profile(n, w, gamma):
    t = np.broadcast_to(np.asarray(w, dtype=np.float64), (n,)) * math.log(gamma)
    log_z = float(np.logaddexp(t, -t).sum())
    return np.exp((1.0 - 2.0 * mask_bits(n)) @ t - log_z)


def linear_profile(n, entries):
    return parity_sum(n, entries) / float(1 << n)


def logistic_profile(n, entries, gamma):
    """Logistic transform of the raw kernel row, divided by its row sum."""
    values = expit(parity_sum(n, entries) * math.log(gamma))
    return values / values.sum()


def _entries(shrinkage, n):
    if shrinkage["form"] == "sparse":
        return {int(k): float(v) for k, v in shrinkage["entries"].items()}
    if shrinkage["form"] == "single_interaction":
        w = np.broadcast_to(np.asarray(shrinkage["w"], dtype=np.float64), (n,))
        return {(1 << d) + 1: float(w[d]) for d in range(n)}
    raise ValueError(f"unsupported shrinkage form {shrinkage['form']!r}")


def profile(estimator, n):
    """Dense kernel profile of a linear, logistic-transformed or waak config."""
    variant = estimator["variant"]
    if variant == "waak":
        return waak_profile(n, estimator["w"], estimator["gamma"])
    if variant == "linear":
        return linear_profile(n, _entries(estimator["shrinkage"], n))
    if variant == "transformed" and estimator["transform"]["kind"] == "logistic":
        return logistic_profile(n, _entries(estimator["shrinkage"], n), estimator["transform"]["gamma"])
    raise ValueError(f"no dense oracle for {variant!r}")


def dense_estimate(g, cells, counts):
    """Full estimate vector: sum_o (count_o / N) g[x ^ (o - 1)]."""
    x = np.arange(g.size, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.float64)
    out = np.zeros(g.size)
    for cell, cnt in zip(cells, counts):
        out += cnt * g[x ^ (int(cell) - 1)]
    return out / counts.sum()


def dense_risk(estimate, g0, cells, counts, loss):
    """Risk from the full estimate; the held-out term is (N P[c] - g[0]) / (N - 1)."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    terms = (total * estimate[np.asarray(cells, dtype=np.int64) - 1] - g0) / (total - 1.0)
    if loss == "kl":
        value = math.fsum(counts * np.log(terms))
        return value, abs(value)
    quad = math.fsum(estimate * estimate)
    lin = 2.0 / total * math.fsum(counts * terms)
    return quad - lin, quad + lin


# ---------------------------------------------------------------------------
# coordinate descent replay


def descent(initial, gamma, grid, sweeps, risk, loss):
    """Cyclic per-coordinate grid descent, moving only on strict improvement.

    Returns (w, value, converged) where converged says a sweep moved nothing.
    """
    better = (lambda a, b: a > b) if loss == "kl" else (lambda a, b: a < b)
    w = np.array(initial, dtype=np.float64)
    current = risk(w, gamma)
    for _ in range(sweeps):
        moved = False
        for d in range(w.size):
            best_v, best = None, None
            for v in grid:
                if v == w[d]:
                    continue
                trial = w.copy()
                trial[d] = v
                value = risk(trial, gamma)
                if better(value, current) and (best is None or better(value, best)):
                    best_v, best = v, value
            if best_v is not None:
                w[d] = best_v
                current = best
                moved = True
        if not moved:
            return w, current, True
    return w, current, False


# ---------------------------------------------------------------------------
# self-check


def _kron_waak(w, gamma):
    q = np.ones((1, 1))
    for wd in w:
        hi, lo = gamma**wd, gamma**-wd
        q = np.kron(np.array([[hi, lo], [lo, hi]]) / (hi + lo), q)
    return q


def _walsh(n):
    h = np.ones((1, 1))
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    return h


def _naive_loo(q, counts_dense):
    """Held-out estimate for each observed cell by removing one observation."""
    out = {}
    total = counts_dense.sum()
    for c in np.flatnonzero(counts_dense):
        reduced = counts_dense.copy()
        reduced[c] -= 1
        out[c] = float(q[c] @ reduced / (total - 1))
    return out


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def self_check(seed=0):
    """Check the fast routes against brute force and mpmath; returns failures."""
    import mpmath

    rng = np.random.default_rng(seed)
    failures = []
    n = 6
    size = 1 << n
    all_rows = 1 - 2 * mask_bits(n)  # row m is the cell with index m + 1
    w = rng.uniform(0.1, 1.0, n)
    gamma = 2.5
    q = _kron_waak(w, gamma)
    if not np.allclose(np.exp(waak_log_kernel(all_rows, all_rows, w, gamma)), q, rtol=1e-12, atol=0):
        failures.append("waak log kernel != Kronecker product")
    if not np.allclose(np.exp(waak_log_sq_kernel(all_rows, all_rows, w, gamma)), q @ q, rtol=1e-12, atol=0):
        failures.append("waak squared log kernel != Q @ Q")
    if not np.allclose(waak_profile(n, w, gamma), q[0], rtol=1e-12, atol=0):
        failures.append("waak dense profile != Kronecker row")
    lam = 0.8
    qa = _kron_waak(np.ones(n), math.sqrt(lam / (1 - lam)))
    if not np.allclose(np.exp(aa_log_kernel(all_rows, all_rows, lam)), qa, rtol=1e-12, atol=0):
        failures.append("aa log kernel != Kronecker product")
    if not np.allclose(np.exp(aa_log_sq_kernel(all_rows, all_rows, lam)), qa @ qa, rtol=1e-12, atol=0):
        failures.append("aa squared log kernel != Q @ Q")

    h = _walsh(n)
    entries = {1: 1.0, 2: 0.4, 4: 0.3, 1 + 0b1010: 0.2}
    b = np.zeros(size)
    for idx, val in entries.items():
        b[idx - 1] = val
    raw = h @ np.diag(b) @ h
    if not np.allclose(linear_profile(n, entries), raw[0] / size, rtol=1e-12, atol=1e-15):
        failures.append("linear profile != W diag(b) W / 2^n")
    logistic = 1.0 / (1.0 + 3.0 ** -raw)
    if not np.allclose(logistic_profile(n, entries, 3.0), logistic[0] / logistic[0].sum(), rtol=1e-12, atol=0):
        failures.append("logistic profile != f(W diag(b) W) / Z")

    counts_dense = np.zeros(size)
    obs = rng.choice(size, 12, replace=False)
    counts_dense[obs] = rng.integers(1, 4, 12)
    cells = obs + 1
    counts = counts_dense[obs]
    mix = 0.3 * q + 0.7 * (logistic / logistic[0].sum())
    g = 0.3 * q[0] + 0.7 * logistic_profile(n, entries, 3.0)
    p = counts_dense / counts_dense.sum()
    est = dense_estimate(g, cells, counts)
    if not np.allclose(est, mix @ p, rtol=1e-12, atol=0):
        failures.append("dense estimate != Q p")
    loo = _naive_loo(mix, counts_dense)
    naive_kl = math.fsum(counts_dense[c] * math.log(v) for c, v in loo.items())
    naive_se = float(p @ mix @ mix @ p) - 2.0 / counts_dense.sum() * math.fsum(counts_dense[c] * v for c, v in loo.items())
    if not _close(dense_risk(est, g[0], cells, counts, "kl")[0], naive_kl, 1e-12):
        failures.append("dense KL != leave-one-out by removal")
    if not _close(dense_risk(est, g[0], cells, counts, "se")[0], naive_se, 1e-10):
        failures.append("dense SE != leave-one-out by removal")
    rows = all_rows[obs]
    loo = _naive_loo(q, counts_dense)
    naive_kl = math.fsum(counts_dense[c] * math.log(v) for c, v in loo.items())
    naive_se = float(p @ q @ q @ p) - 2.0 / counts_dense.sum() * math.fsum(counts_dense[c] * v for c, v in loo.items())
    est_w = {"variant": "waak", "w": list(w), "gamma": gamma}
    if not _close(wide_risk(est_w, "kl", rows, counts)["value"], naive_kl, 1e-12):
        failures.append("wide KL != leave-one-out by removal")
    if not _close(wide_risk(est_w, "se", rows, counts)["value"], naive_se, 1e-10):
        failures.append("wide SE != leave-one-out by removal")
    if not np.allclose(np.exp(wide_log_estimate(est_w, all_rows, rows, counts)), q @ p, rtol=1e-12, atol=0):
        failures.append("wide estimate != Q p")
    lp, lm = wide_log_estimate(est_w, all_rows[:2], rows, counts)  # cells 1 and 2 differ in coordinate 1
    plus, minus = (q @ p)[:2]
    if not _close(conditional(lp, lm), (plus - minus) / (plus + minus), 1e-12):
        failures.append("conditional != (P+ - P-) / (P+ + P-)")

    # n = 10^4: every kernel entry is far below the float64 range.
    big = 10_000
    mpmath.mp.dps = 40
    proto = rng.choice([-1, 1], big)
    pts = np.array([np.where(rng.random(big) < 0.05, -proto, proto) for _ in range(3)])
    levels = rng.uniform(0.05, 1.0, 8)
    pick = rng.integers(0, levels.size, big)
    wb = levels[pick]
    gb = 2.0
    factors = []
    for v in levels:
        hi, lo = mpmath.power(gb, v), mpmath.power(gb, -v)
        factors.append((mpmath.log(lo / (hi + lo)), mpmath.log(hi / (hi + lo))))
    log_q = waak_log_kernel(pts, pts, wb, gb)
    exact = []
    for i, j in ((0, 1), (0, 2), (1, 1)):
        agree = pts[i] == pts[j]
        acc = mpmath.fsum(factors[k][int(a)] for k, a in zip(pick, agree))
        exact.append(acc)
        if not _close(log_q[i, j], float(acc), 1e-12):
            failures.append(f"n=10^4 log kernel ({i},{j}) != mpmath")
    log_est = wide_log_estimate({"variant": "waak", "w": list(wb), "gamma": gb}, pts[:1], pts[1:], [2, 1])
    mp_est = mpmath.log((2 * mpmath.exp(exact[0]) + mpmath.exp(exact[1])) / 3)
    if not _close(float(log_est[0]), float(mp_est), 1e-12):
        failures.append("n=10^4 log estimate != mpmath")
    return failures
