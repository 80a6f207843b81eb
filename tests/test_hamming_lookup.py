"""Uniform-weight kernels through the Hamming lookup in log space.

aa_classic, and waak whose t = w log(gamma) is one value on every
coordinate, score, estimate and query from the support's Hamming levels.
Their results must match

* the linear-space route they replaced (oracles.linear_space_risk and
  oracles.linear_space_estimate) wherever that route's value is finite
  and nonzero, at n in {8, 64, 1000};
* mpmath references at n in {1000, 10^4} on clustered data where most
  kernel entries lie far below the float64 range, so that the
  linear-space route gives a KL risk of -inf, estimates of 0 and
  undefined conditionals.

Waak kernels whose weights differ across coordinates take the same
log-space route from float distances, and are checked on the same data
against references built from exact weighted distances. Mixtures combine
their components' log-space rows, and are checked there against mpmath
mixtures of the components' kernels.
"""

import functools
import json
import math

import mpmath as mp
import numpy as np
import pytest

from bindens import EstimatorConfig, ShrinkageSpec, estimate_at, kl_risk, loo_term, se_risk
from bindens.cli import main
from bindens import estimators
from bindens.estimators import counts_from_observations

import oracles


def _clustered(seed, n, k, total, prototypes, held=0, flip=0.1):
    """k + held distinct sign rows drawn round-robin around random
    prototypes, each coordinate flipped with probability flip. The first
    k are the data, with the first total - k of a permutation of them
    observed twice; the last held are drawn the same way but not
    observed. Returns (data rows, counts, held rows)."""
    rng = np.random.default_rng(seed)
    protos = rng.choice(np.array([-1, 1], dtype=np.int8), size=(prototypes, n))
    rows, seen = [], set()
    while len(rows) < k + held:
        proto = protos[len(rows) % prototypes]
        row = np.where(rng.random(n) < flip, -proto, proto).astype(np.int8)
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            rows.append(row)
    rows, held_rows = np.array(rows[:k]), np.array(rows[k:])
    twice = rows[rng.permutation(k)[: total - k]]
    return rows, counts_from_observations(np.concatenate([rows, twice])), held_rows


def _cell_of(row):
    """1-based cell index: bit d of the zero-based index is set where row_d = -1."""
    return 1 + sum(1 << d for d in np.flatnonzero(np.asarray(row) < 0).tolist())


def _one_flips(rows, seed):
    out = rows.copy()
    rng = np.random.default_rng(seed)
    out[np.arange(len(rows)), rng.integers(rows.shape[1], size=len(rows))] *= -1
    return out


# ---------------------------------------------------------------------------
# agreement with the linear-space route

UNIFORM = [("waak", 2.0, 0.5), ("waak", 3.0, 1.0), ("waak", 12.0, 1.0), ("waak", 1.0, 0.7),
           ("aa", 0.6, None), ("aa", 0.9, None), ("aa", 0.999, None)]


def _uniform_config(n, kind, a, b):
    return EstimatorConfig.waak(np.full(n, b), a) if kind == "waak" else EstimatorConfig.aa_classic(n, a)


@functools.lru_cache(maxsize=None)
def _small_data(n):
    k = min(40, 1 << (n - 2))
    return _clustered(n, n, k, k + k // 2, prototypes=4)[:2]


@pytest.mark.parametrize("n", [8, 64, 1000])
@pytest.mark.parametrize("kind, a, b", UNIFORM)
def test_matches_linear_space_route_where_it_is_finite(n, kind, a, b):
    rows, counts = _small_data(n)
    cfg = _uniform_config(n, kind, a, b)
    assert cfg._waak.shared_t is not None

    want, want_terms = oracles.linear_space_risk("kl", cfg, counts)
    got = kl_risk(cfg, counts)
    assert not got.dominated
    if math.isfinite(want):
        assert got.value == pytest.approx(want, rel=1e-12)
    terms = np.repeat(want_terms, [c for _, c in counts.cells])
    normal = terms >= np.finfo(np.float64).tiny
    np.testing.assert_allclose(np.array(got.loo_terms)[normal], terms[normal], rtol=1e-12, atol=0.0)

    want_se, _ = oracles.linear_space_risk("se", cfg, counts)
    got_se = se_risk(cfg, counts)
    if want_se != 0.0:
        assert got_se.value == pytest.approx(want_se, rel=1e-10)

    cells = [_cell_of(r) for r in np.concatenate([rows[:10], _one_flips(rows[:10], n)])]
    want_est = oracles.linear_space_estimate(cells, cfg, counts)
    got_est = estimate_at(cells, cfg, counts).values
    normal = want_est >= np.finfo(np.float64).tiny
    np.testing.assert_allclose(got_est[normal], want_est[normal], rtol=1e-12, atol=0.0)


def test_linear_space_route_underflows_where_the_lookup_does_not():
    # The waak_cv_n1000-shaped case below: the route this replaced gives
    # -inf, the lookup a finite KL that matches mpmath (next section).
    rows, counts = _small_data(1000)
    cfg = EstimatorConfig.waak(np.ones(1000), 12.0)
    assert oracles.linear_space_risk("kl", cfg, counts)[0] == -math.inf
    assert math.isfinite(kl_risk(cfg, counts).value)


# ---------------------------------------------------------------------------
# mpmath references in the underflowing regime

# Per n: the data shape and the (gamma, w) candidates. The n = 1000 data
# is shaped like the benchmark's waak_cv_n1000, whose fit (gamma = 12,
# w = 1) gives a KL risk of -inf on the linear-space route; the n = 10^4
# data like score_n10000, with its grid. Held-out rows are drawn from the
# same prototypes as the data, so their nearest observed cell is some 150
# coordinates away.
LARGE = {
    1000: (dict(k=100, total=150, prototypes=8), [(12.0, 1.0), (30.0, 1.0), (math.sqrt(999.0), 1.0)]),
    10_000: (dict(k=60, total=100, prototypes=4), [(1.5, 0.05), (1.5, 0.8), (3.0, 0.8)]),
}
LARGE_CASES = [(n, gamma, w) for n, (_, cands) in LARGE.items() for gamma, w in cands]
LOG_ZERO = -745.2  # exp() of anything below is 0.0 in float64


@functools.lru_cache(maxsize=None)
def _large_data(n):
    shape, _ = LARGE[n]
    rows, counts, held = _clustered(n + 11, n, held=6, **shape)
    # counts orders its support by cell index; the references need the same order.
    by_cell = {_cell_of(r): r for r in rows}
    support = np.array([by_cell[idx] for idx, _ in counts.cells])
    cnt = [c for _, c in counts.cells]
    queries = np.concatenate([support[:6], _one_flips(support[:6], n), held])
    return support, counts, cnt, oracles.sign_hamming(support, support), queries


@functools.lru_cache(maxsize=None)
def _large_reference(n, gamma, w):
    support, counts, cnt, hamming, queries = _large_data(n)
    kernel = oracles.UniformKernelMp(n, w, gamma)
    ref = oracles.uniform_loo_reference(kernel, hamming, cnt, counts.total)
    ref["log_estimate"] = oracles.uniform_log_estimate(
        kernel, oracles.sign_hamming(queries, support), cnt, counts.total
    )
    return ref


@pytest.mark.parametrize("n, gamma, w", LARGE_CASES)
def test_risks_match_mpmath_below_float64_range(n, gamma, w):
    _, counts, _, _, _ = _large_data(n)
    ref = _large_reference(n, gamma, w)
    cfg = EstimatorConfig.waak(np.full(n, w), gamma)
    # Some held-out term is 0.0 in float64.
    assert min(float(lt) for lt in ref["log_terms"]) < LOG_ZERO

    kl = kl_risk(cfg, counts)
    assert not kl.dominated
    assert kl.value == pytest.approx(float(ref["kl"]), rel=1e-12)
    assert [loo_term(k, cfg, counts) for k in range(counts.total)] == list(kl.loo_terms)

    quad = cfg._quadratic(counts)
    if ref["quad"] > mp.mpf(1e-300):
        assert quad == pytest.approx(float(ref["quad"]), rel=1e-12)
    else:
        assert 0.0 <= quad <= 1e-300
    se = se_risk(cfg, counts)
    assert se.value == pytest.approx(float(ref["se"]), rel=1e-10, abs=1e-10 * float(ref["se_scale"]))


@pytest.mark.parametrize("n, gamma, w", LARGE_CASES)
def test_estimate_logs_match_mpmath_below_float64_range(n, gamma, w):
    _, counts, _, _, queries = _large_data(n)
    ref = _large_reference(n, gamma, w)
    cfg = EstimatorConfig.waak(np.full(n, w), gamma)
    estimate = estimate_at([_cell_of(q) for q in queries], cfg, counts)
    logs = estimate._log_values
    want = np.array([float(v) for v in ref["log_estimate"]])
    assert want.min() < LOG_ZERO
    np.testing.assert_allclose(logs, want, rtol=1e-12, atol=0.0)
    normal = want > math.log(np.finfo(np.float64).tiny)
    np.testing.assert_allclose(estimate.values[normal], np.exp(want[normal]), rtol=1e-9, atol=0.0)
    assert np.all(estimate.values[~normal] <= 1e-300)


@pytest.mark.parametrize("n", sorted(LARGE))
def test_query_conditionals_match_mpmath(n, tmp_path):
    support, counts, cnt, _, queries = _large_data(n)
    gamma, w = LARGE[n][1][1]
    data = tmp_path / "data.csv"
    np.savetxt(data, support[np.repeat(np.arange(len(cnt)), cnt)], fmt="%d", delimiter=",")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"estimator": {"variant": "waak", "gamma": gamma, "w": w}, "query": {"cells": [1]}}))
    fit = tmp_path / "fit.json"
    assert main(["estimate", "--data", str(data), "--config", str(config), "--out", str(fit)]) == 0

    held = queries[-6:]
    holes = [0, 1, n // 2, n // 2 + 1, n - 2, n - 1]
    patterns = []
    for q, pos in zip(held, holes):
        label = "".join("+" if s > 0 else "-" for s in q)
        patterns.append(label[:pos] + "?" + label[pos + 1 :])
    out = tmp_path / "query.json"
    assert main(["query", "--fit", str(fit), "--cells=" + ",".join(patterns), "--out", str(out)]) == 0
    results = json.loads(out.read_text())["query"]["results"]

    kernel = oracles.UniformKernelMp(n, w, gamma)
    for entry, q, pos in zip(results, held, holes):
        plus, minus = q.copy(), q.copy()
        plus[pos], minus[pos] = 1, -1
        lp, lm = oracles.uniform_log_estimate(kernel, oracles.sign_hamming([plus, minus], support), cnt, counts.total)
        assert max(lp, lm) < LOG_ZERO  # both values are 0.0 in float64
        assert entry["values"] == [0.0, 0.0]
        with mp.workdps(oracles._DPS):
            want = float((mp.exp(lp) - mp.exp(lm)) / (mp.exp(lp) + mp.exp(lm)))
        assert entry["undefined"] is False
        # Each log near -4000 carries a rounding error near 1e-12.
        assert entry["conditional_expectation"] == pytest.approx(want, abs=1e-11)


# ---------------------------------------------------------------------------
# non-uniform weights: the same log-space route, from float distances
#
# A waak whose weights differ across coordinates shifts each row of Q by
# its nearest weighted cell just as the uniform lookup does, so its KL,
# held-out terms, estimates and conditionals keep their logs where every
# value lies far below the float64 range. The reference takes each
# weighted distance exactly (oracles.weighted_mismatch).


def _alternating(n):
    return np.where(np.arange(n) % 2 == 0, 0.5, 0.6)


def _uniform_draw(n):
    return np.random.default_rng(n + 7).uniform(0.2, 1.0, n)


WEIGHTS = {"alternating": _alternating, "uniform_draw": _uniform_draw}
NONUNIFORM_CASES = [(n, name, gamma) for n in sorted(LARGE) for name in WEIGHTS for gamma in (1.5, 3.0)]


@functools.lru_cache(maxsize=None)
def _weighted_reference(n, name, gamma):
    support, counts, cnt, _, queries = _large_data(n)
    kernel = oracles.WeightedLogKernelMp(WEIGHTS[name](n), gamma)
    log_terms, kl = oracles.log_loo_reference(kernel.log_entries(support, support), cnt, counts.total)
    log_estimate = oracles.log_estimate_reference(kernel.log_entries(queries, support), cnt, counts.total)
    return kernel, log_terms, kl, log_estimate


@pytest.mark.parametrize("n, name, gamma", NONUNIFORM_CASES)
def test_nonuniform_held_out_logs_match_exact_distances(n, name, gamma):
    _, counts, _, _, _ = _large_data(n)
    _, log_terms, kl, _ = _weighted_reference(n, name, gamma)
    cfg = EstimatorConfig.waak(WEIGHTS[name](n), gamma)
    assert cfg._waak.shared_t is None
    want = np.array([float(lt) for lt in log_terms])
    # At n = 10^4 some held-out term is 0.0 in float64.
    assert (want.min() < LOG_ZERO) == (n == 10_000)

    report = kl_risk(cfg, counts)
    assert not report.dominated
    assert report.value == pytest.approx(float(kl), rel=1e-12)
    scale, ratio = estimators._smoothed(cfg, counts)
    np.testing.assert_allclose(scale + np.log(ratio), want, rtol=1e-12, atol=0.0)
    terms = np.repeat(want, [c for _, c in counts.cells])
    normal = terms > math.log(np.finfo(np.float64).tiny)
    np.testing.assert_allclose(np.array(report.loo_terms)[normal], np.exp(terms[normal]), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("n, name, gamma", NONUNIFORM_CASES)
def test_nonuniform_estimate_logs_match_exact_distances(n, name, gamma):
    _, counts, _, _, queries = _large_data(n)
    _, _, _, log_estimate = _weighted_reference(n, name, gamma)
    cfg = EstimatorConfig.waak(WEIGHTS[name](n), gamma)
    estimate = estimate_at([_cell_of(q) for q in queries], cfg, counts)
    want = np.array([float(v) for v in log_estimate])
    assert (want.min() < LOG_ZERO) == (n == 10_000)
    np.testing.assert_allclose(estimate._log_values, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, name, gamma", NONUNIFORM_CASES)
def test_nonuniform_query_conditional_matches_exact_distances(n, name, gamma, tmp_path):
    support, counts, cnt, _, queries = _large_data(n)
    kernel = _weighted_reference(n, name, gamma)[0]
    data = tmp_path / "data.csv"
    np.savetxt(data, support[np.repeat(np.arange(len(cnt)), cnt)], fmt="%d", delimiter=",")
    w = WEIGHTS[name](n)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"estimator": {"variant": "waak", "gamma": gamma, "w": w.tolist()},
                                  "query": {"cells": [1]}}))
    fit = tmp_path / "fit.json"
    assert main(["estimate", "--data", str(data), "--config", str(config), "--out", str(fit)]) == 0

    q, pos = queries[-1], n // 2
    label = "".join("+" if s > 0 else "-" for s in q)
    out = tmp_path / "query.json"
    assert main(["query", "--fit", str(fit), "--cells=" + label[:pos] + "?" + label[pos + 1 :], "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["query"]["results"]

    plus, minus = q.copy(), q.copy()
    plus[pos], minus[pos] = 1, -1
    lp, lm = oracles.log_estimate_reference(kernel.log_entries([plus, minus], support), cnt, counts.total)
    if n == 10_000:
        assert max(lp, lm) < LOG_ZERO  # both values are 0.0 in float64
        assert entry["values"] == [0.0, 0.0]
    with mp.workdps(oracles._DPS):
        want = float(mp.tanh((lp - lm) / 2))
    assert entry["undefined"] is False
    assert entry["conditional_expectation"] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# mixtures: each component in log space, added row by row
#
# A mixture reads each component's rows as that component does and adds
# them per row in log space, so neither a component whose linear-space
# rows underflow (a sparse linear kernel's 2^-n factor) nor one far
# below another masks the rest. The reference is an mpmath mixture of
# the components' own kernels.


def _mixture_parts(n, name):
    """(weight, config, mpmath kernel) of each component: a uniform waak
    and an aa_classic, or the same waak and a sparse linear kernel."""
    waak = (0.5, EstimatorConfig.waak(np.full(n, 0.5), 3.0), oracles.WaakKernelMp(np.full(n, 0.5), 3.0))
    if name == "waak_aa":
        return [waak, (0.5, EstimatorConfig.aa_classic(n, 0.8), oracles.AaKernelMp(n, 0.8))]
    entries = {1: 1.0, 2: 0.3}
    return [waak, (0.5, EstimatorConfig.linear(ShrinkageSpec.sparse(n, entries)), oracles.LinearKernelMp(n, entries))]


MIXTURE_CASES = [(n, name) for n in sorted(LARGE) for name in ("waak_aa", "waak_linear")]


@functools.lru_cache(maxsize=None)
def _mixture_reference(n, name):
    """The mixture's config, its held-out log terms and KL, and its log
    estimates at the first six support cells and their one-bit flips."""
    support, counts, _, _, queries = _large_data(n)
    parts = _mixture_parts(n, name)
    kernel = oracles.MixtureKernelMp([(c, k) for c, _, k in parts])
    ref = oracles.loo_reference(kernel, support, counts)
    estimates = oracles.estimate_reference(kernel, queries[:12], support, counts)
    with mp.workdps(oracles._DPS):
        log_terms = [mp.log(t) for t in ref["terms"]]
        log_estimate = [mp.log(v) for v in estimates]
    cfg = EstimatorConfig.mixture([(c, part) for c, part, _ in parts])
    return cfg, log_terms, ref["kl"], log_estimate


@pytest.mark.parametrize("n, name", MIXTURE_CASES)
def test_mixture_held_out_logs_match_mpmath(n, name):
    _, counts, _, _, _ = _large_data(n)
    cfg, log_terms, kl, _ = _mixture_reference(n, name)
    want = np.array([float(lt) for lt in log_terms])
    if n == 10_000:
        assert want.min() < LOG_ZERO  # some held-out term is 0.0 in float64

    report = kl_risk(cfg, counts)
    assert not report.dominated
    assert report.value == pytest.approx(float(kl), rel=1e-12)
    scale, ratio = estimators._smoothed(cfg, counts)
    np.testing.assert_allclose(scale + np.log(ratio), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, name", MIXTURE_CASES)
def test_mixture_estimate_logs_match_mpmath(n, name):
    _, counts, _, _, queries = _large_data(n)
    cfg, _, _, log_estimate = _mixture_reference(n, name)
    want = np.array([float(v) for v in log_estimate])
    if n == 10_000:
        assert want.max() < LOG_ZERO  # every value is 0.0 in float64
    cells = [_cell_of(q) for q in queries[:12]]
    scale, ratio = estimators._smoothed(cfg, counts, estimators._as_cells(cells, n))
    np.testing.assert_allclose(scale + np.log(ratio), want, rtol=1e-12, atol=0.0)
    # A mixture with no negative value keeps its logs, a linear component included.
    np.testing.assert_allclose(estimate_at(cells, cfg, counts)._log_values, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", sorted(LARGE))
def test_mixture_query_conditional_matches_mpmath(n, tmp_path):
    support, counts, cnt, _, queries = _large_data(n)
    data = tmp_path / "data.csv"
    np.savetxt(data, support[np.repeat(np.arange(len(cnt)), cnt)], fmt="%d", delimiter=",")
    components = [{"weight": 0.5, "estimator": {"variant": "waak", "gamma": 3, "w": 0.5}},
                  {"weight": 0.5, "estimator": {"variant": "aa_classic", "lambda": 0.8}}]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"estimator": {"variant": "mixture", "components": components},
                                  "query": {"cells": [1]}}))
    fit = tmp_path / "fit.json"
    assert main(["estimate", "--data", str(data), "--config", str(config), "--out", str(fit)]) == 0

    q, pos = queries[-1], n // 2
    label = "".join("+" if s > 0 else "-" for s in q)
    out = tmp_path / "query.json"
    assert main(["query", "--fit", str(fit), "--cells=" + label[:pos] + "?" + label[pos + 1 :], "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["query"]["results"]

    plus, minus = q.copy(), q.copy()
    plus[pos], minus[pos] = 1, -1
    kernel = oracles.MixtureKernelMp([(c, k) for c, _, k in _mixture_parts(n, "waak_aa")])
    with mp.workdps(oracles._DPS):
        lp, lm = (mp.log(v) for v in oracles.estimate_reference(kernel, [plus, minus], support, counts))
        want = float(mp.tanh((lp - lm) / 2))
    if n == 10_000:
        assert max(lp, lm) < LOG_ZERO  # both values are 0.0 in float64
        assert entry["values"] == [0.0, 0.0]
    assert entry["undefined"] is False
    assert entry["conditional_expectation"] == pytest.approx(want, rel=1e-12)
