"""Kernels in log space at large n, product form or not.

The exponential with base gamma >= 1 over single-interaction weights w
is the kernel waak(w, gamma), and takes its log-space route: the two
must agree bit for bit at every n.

A sparse linear kernel and a logistic kernel over single-interaction
weights fill their blocks of Q from parity features, and where dividing
by Z would leave the float64 normal range they leave Z out and carry
-log Z as the rows' log scale (EstimatorConfig._gram). At n = 10^4 every
entry, 2^-n (1 + 0.3 x_0 y_0) or f(s) / 2^(n-1), is 0.0 in
float64, yet their KL, held-out terms and estimates keep their logs, and
so do the ? conditionals of these kernels and of a mixture that holds
one. Each is checked against mpmath on test_hamming_lookup's clustered
rows with repeats, at n in {1000, 10^4}.
"""

import functools
import json

import mpmath as mp
import numpy as np
import pytest

from bindens import EstimatorConfig, ShrinkageSpec, Transform, estimate_at, estimate_full, kl_risk, se_risk
from bindens import estimators
from bindens.cli import main

import oracles
from test_hamming_lookup import LARGE, LOG_ZERO, _cell_of, _large_data, _mixture_parts, _one_flips, _small_data
from test_hamming_lookup import _uniform_draw


@pytest.mark.parametrize("n", [16, 1000, 10_000])
@pytest.mark.parametrize("weights", ["shared", "drawn"])
def test_exponential_over_single_interaction_is_waak(n, weights):
    rows, counts = _small_data(n) if n == 16 else _large_data(n)[:2]
    w = np.full(n, 0.3) if weights == "shared" else _uniform_draw(n)
    cells = [_cell_of(r) for r in np.concatenate([rows[:6], _one_flips(rows[:6], n)])]
    for gamma in (1.0, 3.0):
        waak = EstimatorConfig.waak(w, gamma)
        exponential = EstimatorConfig.transformed(ShrinkageSpec.single_interaction(w), Transform.exponential(gamma))
        want, got = kl_risk(waak, counts), kl_risk(exponential, counts)
        assert (got.value, got.loo_terms) == (want.value, want.loo_terms)
        logs = [estimate_at(cells, cfg, counts)._log_values.tobytes() for cfg in (waak, exponential)]
        assert logs[0] == logs[1]
        if n == 16:
            assert se_risk(exponential, counts).value == se_risk(waak, counts).value
            assert estimate_full(exponential, counts).values.tobytes() == estimate_full(waak, counts).values.tobytes()
    # Below base 1 the rates w log(gamma) are negative: not product form.
    assert EstimatorConfig.transformed(ShrinkageSpec.single_interaction(w), Transform.exponential(0.5))._waak is None


LINEAR_ENTRIES = {1: 1.0, 2: 0.3}


def _weights(name, n):
    return np.full(n, 0.3) if name == "logistic_shared" else _uniform_draw(n)


def _kernel(name, n):
    """(config, its CLI estimator document, mpmath kernel) of each case."""
    if name == "linear":
        doc = {"variant": "linear", "shrinkage": {"form": "sparse", "entries": {"1": 1.0, "2": 0.3}}}
        cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(n, LINEAR_ENTRIES))
        return cfg, doc, oracles.LinearKernelMp(n, LINEAR_ENTRIES)
    if name == "waak_linear":
        parts = _mixture_parts(n, name)
        doc = {"variant": "mixture", "components": [
            {"weight": 0.5, "estimator": {"variant": "waak", "gamma": 3, "w": 0.5}},
            {"weight": 0.5, "estimator": {"variant": "linear", "shrinkage": {"form": "sparse", "entries": {"1": 1, "2": 0.3}}}},
        ]}
        cfg = EstimatorConfig.mixture([(c, part) for c, part, _ in parts])
        return cfg, doc, oracles.MixtureKernelMp([(c, k) for c, _, k in parts])
    w = _weights(name, n)
    doc = {"variant": "transformed", "shrinkage": {"form": "single_interaction", "w": w.tolist()},
           "transform": {"kind": "logistic", "gamma": 2.0}}
    cfg = EstimatorConfig.transformed(ShrinkageSpec.single_interaction(w), Transform.logistic(2.0))
    return cfg, doc, oracles.LogisticKernelMp(w, 2.0)


SINGLE = ("linear", "logistic_shared", "logistic_drawn")
CASES = [(n, name) for n in sorted(LARGE) for name in SINGLE]


@functools.lru_cache(maxsize=None)
def _reference(n, name):
    """The held-out log terms and KL, and the log estimates at the first
    six support cells and their one-bit flips, in mpmath."""
    support, counts, _, _, queries = _large_data(n)
    kernel = _kernel(name, n)[2]
    ref = oracles.loo_reference(kernel, support, counts)
    estimates = oracles.estimate_reference(kernel, queries[:12], support, counts)
    with mp.workdps(oracles._DPS):
        log_terms = [mp.log(t) for t in ref["terms"]]
        log_estimate = [mp.log(v) for v in estimates]
    return np.array([float(v) for v in log_terms]), ref["kl"], np.array([float(v) for v in log_estimate])


@pytest.mark.parametrize("n, name", CASES)
def test_held_out_logs_match_mpmath(n, name):
    _, counts, _, _, _ = _large_data(n)
    want, kl, _ = _reference(n, name)
    # At n = 10^4 every held-out term is 0.0 in float64.
    assert (want.max() < LOG_ZERO) == (n == 10_000)
    cfg = _kernel(name, n)[0]

    report = kl_risk(cfg, counts)
    assert not report.dominated
    assert report.value == pytest.approx(float(kl), rel=1e-12)
    scale, ratio = estimators._smoothed(cfg, counts)
    np.testing.assert_allclose(scale + np.log(ratio), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, name", CASES)
def test_estimate_logs_match_mpmath(n, name):
    _, counts, _, _, queries = _large_data(n)
    want = _reference(n, name)[2]
    assert (want.max() < LOG_ZERO) == (n == 10_000)
    estimate = estimate_at([_cell_of(q) for q in queries[:12]], _kernel(name, n)[0], counts)
    assert not estimate.negativity
    np.testing.assert_allclose(estimate._log_values, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, name", [(n, name) for n in sorted(LARGE) for name in SINGLE + ("waak_linear",)])
def test_query_conditional_matches_mpmath(n, name, tmp_path):
    # Coordinate 0 is the one the linear kernel's entry 2 weighs, so its
    # conditional there is not 0.
    support, counts, cnt, _, queries = _large_data(n)
    _, doc, kernel = _kernel(name, n)
    data = tmp_path / "data.csv"
    np.savetxt(data, support[np.repeat(np.arange(len(cnt)), cnt)], fmt="%d", delimiter=",")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"estimator": doc, "query": {"cells": [1]}}))
    fit = tmp_path / "fit.json"
    assert main(["estimate", "--data", str(data), "--config", str(config), "--out", str(fit)]) == 0

    q = queries[-1]
    label = "".join("+" if s > 0 else "-" for s in q)
    out = tmp_path / "query.json"
    assert main(["query", "--fit", str(fit), "--cells=?" + label[1:], "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["query"]["results"]

    plus, minus = q.copy(), q.copy()
    plus[0], minus[0] = 1, -1
    with mp.workdps(oracles._DPS):
        lp, lm = (mp.log(v) for v in oracles.estimate_reference(kernel, [plus, minus], support, counts))
        want = float(mp.tanh((lp - lm) / 2))
    if n == 10_000:
        assert max(lp, lm) < LOG_ZERO  # both values are 0.0 in float64
        assert entry["values"] == [0.0, 0.0]
    assert entry["undefined"] is False
    # Each log near -n log 2 carries half an ulp of rounding (4.5e-13 at
    # n = 10^4), and the logistic kernels are flat enough that their
    # conditionals lie near 1e-3: those agree to 1e-12 absolute.
    assert entry["conditional_expectation"] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_negative_values_below_float64_range_keep_their_sign():
    # The identity over sparse b = {1: 1, 5: -2} has entries
    # (1 - 2 x_2 y_2) / 2^n, so its estimate at a cell is
    # (1 - 2 x_2 m_2) / 2^n for the data's mean m_2 of coordinate 2 (0.76
    # on these rows): negative where x_2 = +1. At n = 10^4 every value is
    # 0.0 or -0.0 in float64; negativity is read from the ratios.
    n = 10_000
    support, counts, _, _, _ = _large_data(n)
    cfg = EstimatorConfig.transformed(ShrinkageSpec.sparse(n, {1: 1.0, 5: -2.0}), Transform.identity())
    plus, minus = support[0].copy(), support[0].copy()
    plus[2], minus[2] = 1, -1
    cells = [_cell_of(plus), _cell_of(minus)]
    scale, ratio = estimators._smoothed(cfg, counts, estimators._as_cells(cells, n))
    assert scale < LOG_ZERO and ratio[0] < 0.0 < ratio[1]
    estimate = estimate_at(cells, cfg, counts)
    assert estimate.negativity
    assert estimate._log_values is None
    assert not np.any(estimate.values)
