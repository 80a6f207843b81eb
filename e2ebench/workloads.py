"""Seeded inputs for each workload: data rows, cv searches and query cells.

Every size that sets the cost of a round (n, N, the number of distinct
cells K, grid sizes, numbers of queried cells) is fixed per workload, so
the seed changes which cells are drawn but not how much work a round does.
Rows are drawn round-robin from a few prototypes, each coordinate flipped
with a fixed probability, and duplicates are redrawn until K distinct rows
exist; the first N - K of a seeded permutation of them are observed twice.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

NAMES = ("waak_cv_n1000", "dense_mixture_n16", "waak_descent", "score_n10000")


@dataclass
class CvJob:
    """One `bindens cv` invocation per round."""

    name: str
    loss: str
    search: dict
    candidates: list = None  # estimator dicts in the order bindens declares them


@dataclass
class Workload:
    name: str
    n: int
    rows: np.ndarray  # K x n distinct sign rows
    counts: np.ndarray  # observations of each row
    order: np.ndarray  # observation order of the data file (indexes into rows)
    cv_jobs: list
    fit_job: str  # the cv job whose oracle-best candidate is estimated and queried
    estimate_rows: np.ndarray = None  # None asks for the full 2^n vector
    query_rows: np.ndarray = None
    conditionals: list = field(default_factory=list)  # (sign row, zero-based '?' position)


def clustered_rows(rng, n, k, prototypes, flip, noise_cols=0, exclude=(), protos=None):
    """k distinct rows; the last noise_cols coordinates are iid signs.

    Pass the prototypes of earlier rows to draw held-out rows the same way.
    """
    if protos is None:
        protos = rng.choice(np.array([-1, 1], dtype=np.int8), size=(prototypes, n))
    seen = {bytes(r.tobytes()) for r in exclude}
    out = []
    while len(out) < k:
        proto = protos[len(out) % prototypes]
        row = np.where(rng.random(n) < flip, -proto, proto).astype(np.int8)
        if noise_cols:
            row[n - noise_cols:] = rng.choice(np.array([-1, 1], dtype=np.int8), size=noise_cols)
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return np.array(out), protos


def with_counts(rng, rows, total):
    k = len(rows)
    counts = np.ones(k, dtype=np.int64)
    counts[rng.permutation(k)[: total - k]] += 1
    order = rng.permutation(np.repeat(np.arange(k), counts))
    return counts, order


def waak_grid(gammas, grid):
    return [{"variant": "waak", "gamma": g, "w": v} for g in gammas for v in grid]


def aa_grid(lambdas):
    return [{"variant": "aa_classic", "lambda": lam} for lam in lambdas]


def mixture_grid(components, denominator):
    out = []
    for split in itertools.product(range(1, denominator + 1), repeat=len(components)):
        if sum(split) == denominator:
            out.append({
                "variant": "mixture",
                "components": [{"weight": a / denominator, "estimator": c} for a, c in zip(split, components)],
            })
    return out


def one_flip(rng, rows):
    """Each row with one random coordinate flipped."""
    out = rows.copy()
    out[np.arange(len(rows)), rng.integers(rows.shape[1], size=len(rows))] *= -1
    return out


def conditionals_at(rng, rows, count):
    picks = rng.choice(len(rows), count, replace=False)
    return [(rows[i], int(rng.integers(rows.shape[1]))) for i in picks]


def waak_cv_n1000(seed):
    rng = np.random.default_rng([seed, 1])
    n, k, total = 1000, 100, 150
    rows, _ = clustered_rows(rng, n, k, prototypes=8, flip=0.1)
    counts, order = with_counts(rng, rows, total)
    gammas, grid, lambdas = [2.0, 3.0], [0.5, 1.0], [0.75, 0.9]
    jobs = [
        CvJob("waak_kl", "kl", {"kind": "waak", "gammas": gammas, "w": {"mode": "shared_grid", "grid": grid}},
              waak_grid(gammas, grid)),
        CvJob("waak_se", "se", {"kind": "waak", "gammas": gammas, "w": {"mode": "shared_grid", "grid": grid}},
              waak_grid(gammas, grid)),
        CvJob("aa_kl", "kl", {"kind": "aa_lambda", "lambdas": lambdas}, aa_grid(lambdas)),
    ]
    return Workload(
        name="waak_cv_n1000", n=n, rows=rows, counts=counts, order=order, cv_jobs=jobs, fit_job="waak_kl",
        estimate_rows=np.concatenate([rows, one_flip(rng, rows)]),
        query_rows=rows,
        conditionals=conditionals_at(rng, rows, 50),
    )


def dense_mixture_n16(seed):
    rng = np.random.default_rng([seed, 2])
    n, k, total = 16, 56, 90
    rows, _ = clustered_rows(rng, n, k, prototypes=4, flip=0.12)
    counts, order = with_counts(rng, rows, total)
    # Logistic kernel over first-order weights plus two pairwise terms: the
    # pairwise terms leave no closed-form normalizer, so it takes the FWHT route.
    first = {str((1 << d) + 1): round(float(v), 6) for d, v in enumerate(rng.uniform(0.2, 0.8, n))}
    pairs = rng.choice(n, size=(2, 2), replace=False)
    for a, b in pairs:
        first[str((1 << int(a)) + (1 << int(b)) + 1)] = 0.3
    logistic = {"variant": "transformed", "shrinkage": {"form": "sparse", "entries": first},
                "transform": {"kind": "logistic", "gamma": 3.0}}
    # Linear kernel whose non-leading coefficients sum below 1, so every entry is positive.
    keys = rng.choice(np.arange(2, 1 << n), 6, replace=False)
    linear = {"variant": "linear", "shrinkage": {"form": "sparse", "entries": {"1": 1.0, **{str(int(i)): 0.12 for i in keys}}}}
    waak = {"variant": "waak", "gamma": 2.5, "w": [round(float(v), 6) for v in rng.uniform(0.3, 1.0, n)]}
    components = [logistic, linear, waak]
    search = {"kind": "mixture", "components": components, "denominator": 4}
    jobs = [
        CvJob("mixture_kl", "kl", search, mixture_grid(components, 4)),
        CvJob("mixture_se", "se", search, mixture_grid(components, 4)),
    ]
    others = rng.choice(np.array([-1, 1], dtype=np.int8), size=(20, n))
    return Workload(
        name="dense_mixture_n16", n=n, rows=rows, counts=counts, order=order, cv_jobs=jobs, fit_job="mixture_kl",
        estimate_rows=None,
        query_rows=np.concatenate([rows[rng.choice(k, 40, replace=False)], others]),
        conditionals=conditionals_at(rng, rows, 30),
    )


def waak_descent(seed):
    rng = np.random.default_rng([seed, 3])
    # Every cell observed once: a repeated cell would reward w = 1 on every
    # coordinate, noise included.
    n, k, total = 12, 64, 64
    rows, _ = clustered_rows(rng, n, k, prototypes=4, flip=0.1, noise_cols=n // 2)
    counts, order = with_counts(rng, rows, total)
    others = rng.choice(np.array([-1, 1], dtype=np.int8), size=(1000 - k, n))
    # Two sweeps from the middle of the grid: the first always moves, so both
    # sweeps run and every seed evaluates the same number of candidates.
    search = {"kind": "waak_descent", "gammas": [2.0, 4.0], "grid": [0.1, 0.5, 1.0], "initial": 0.5, "sweeps": 2}
    return Workload(
        name="waak_descent", n=n, rows=rows, counts=counts, order=order,
        cv_jobs=[CvJob("descent_kl", "kl", search)], fit_job="descent_kl",
        estimate_rows=np.concatenate([rows, others]),
        query_rows=np.concatenate([rows[rng.choice(k, 40, replace=False)], others[:360]]),
        conditionals=conditionals_at(rng, rows, 60),
    )


def score_n10000(seed):
    # The data, the grid and the conditional rows come from a fixed stream:
    # the search selection and the conditionals fail on today's code, and a
    # counted failure must not depend on the seed. Plain held-out cells
    # follow the seed.
    fixed = np.random.default_rng([0, 4])
    n, k, total = 10_000, 60, 100
    rows, protos = clustered_rows(fixed, n, k, prototypes=4, flip=0.1)
    counts, order = with_counts(fixed, rows, total)
    # Smallest weight first: the nearly uniform kernel is the worst
    # candidate, so a tie that keeps the first candidate is never right.
    gammas, grid = [1.5, 3.0], [0.05, 0.8]
    job = CvJob("waak_kl", "kl", {"kind": "waak", "gammas": gammas, "w": {"mode": "shared_grid", "grid": grid}},
                waak_grid(gammas, grid))
    held_fixed, _ = clustered_rows(fixed, n, 5, prototypes=4, flip=0.1, exclude=rows, protos=protos)
    rng = np.random.default_rng([seed, 4])
    held, _ = clustered_rows(rng, n, 40, prototypes=4, flip=0.1, exclude=rows, protos=protos)
    return Workload(
        name="score_n10000", n=n, rows=rows, counts=counts, order=order, cv_jobs=[job], fit_job="waak_kl",
        estimate_rows=held[:10],
        query_rows=held,
        conditionals=[(row, int(fixed.integers(n))) for row in held_fixed],
    )


def build(name, seed):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    return globals()[name](seed)
