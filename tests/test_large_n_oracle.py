"""Leave-one-out risks and sparse estimates at n = 1000 and n = 10^4.

Every quantity is compared with the mpmath references of oracles.py at
relative 1e-9. Cells sit close together (a few flipped coordinates from
one random base) and the bandwidths are large, so no true kernel entry
falls below the float64 range. Each data set holds a cell seen once
whose nearest neighbour differs in one coordinate: at the largest
bandwidths the neighbour's entry is below float64 resolution relative to
the cell's own entry, so a held-out term formed by subtracting the own
entry after the product would come out as 0.

The linear and logistic kernels carry a factor 2^-n, which is below the
float64 range at n = 10^4, so they are checked at n = 1000 only. Q @ Q of
a transformed kernel or a mixture needs a dense 2^n row, so their SE
risk is expected to refuse these dimensions.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from bindens import (
    CountsVector,
    EstimatorConfig,
    ShrinkageSpec,
    Transform,
    estimate_at,
    kl_risk,
    loo_term,
    se_risk,
)
from bindens.errors import CapacityError

import oracles

REL = 1e-9


def _cell_of(x):
    """1-based cell index: bit d of the zero-based index is set where x_d = -1."""
    bits = "".join("1" if s < 0 else "0" for s in x[::-1])
    return 1 + int(bits, 2)


def _clustered_data(seed, n, size=10, pool=12, max_flips=3):
    """Distinct sign vectors near one random base, their counts, and queries.

    Points come in ascending cell order. The base is seen once, and the
    point that differs from it in coordinate 0 twice; their positions
    are returned as `pair`. Queries are every point plus unobserved
    one-flip neighbours.
    """
    rng = np.random.default_rng(seed)
    base = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    flip_sets = [(), (0,)]
    while len(flip_sets) < size:
        k = int(rng.integers(1, max_flips + 1))
        flips = tuple(sorted(int(d) for d in rng.choice(pool, size=k, replace=False)))
        if flips not in flip_sets:
            flip_sets.append(flips)
    points = []
    for flips in flip_sets:
        x = base.copy()
        x[list(flips)] *= -1
        points.append(x)
    counts = [1, 2] + [int(c) for c in rng.integers(1, 4, size=size - 2)]
    order = sorted(range(size), key=lambda k: _cell_of(points[k]))
    pair = (order.index(0), order.index(1))
    points = [points[k] for k in order]
    counts = [counts[k] for k in order]
    cv = CountsVector.from_cells(n, {_cell_of(x): c for x, c in zip(points, counts)})
    queries = list(points)
    for k in range(4):
        x = points[k].copy()
        x[pool + k] *= -1
        queries.append(x)
    return points, cv, queries, pair


def _waak(rng, n, lo, hi, log_gamma):
    w = rng.uniform(lo, hi, size=n)
    gamma = math.exp(log_gamma)
    return EstimatorConfig.waak(w, gamma), oracles.WaakKernelMp(w, gamma)


def _aa(n, lam):
    return EstimatorConfig.aa_classic(n, lam), oracles.AaKernelMp(n, lam)


def _linear(rng, n):
    far = int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) + 1
    entries = {1: 1.0, 2: 0.3, 3: 0.2, (1 << (n - 1)) + 1: 0.2, far: 0.1}
    cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(n, entries))
    return cfg, oracles.LinearKernelMp(n, entries)


def _logistic(rng, n):
    w = rng.uniform(0.2, 1.0, size=n)
    cfg = EstimatorConfig.transformed(ShrinkageSpec.single_interaction(w), Transform.logistic(3.0))
    return cfg, oracles.LogisticKernelMp(w, 3.0)


def _mixture(parts):
    cfg = EstimatorConfig.mixture([(c, part[0]) for c, part in parts])
    return cfg, oracles.MixtureKernelMp([(c, part[1]) for c, part in parts])


def _cases(n):
    """(name, config, reference kernel) for dimension n."""
    rng = np.random.default_rng(n)
    waak_big = _waak(rng, n, 0.95, 1.0, 20.0)
    waak_mid = _waak(rng, n, 0.5, 1.0, 6.0)
    aa_big = _aa(n, 1.0 - 1e-15)
    aa_mid = _aa(n, 0.999)
    cases = [
        ("waak_large_gamma", *waak_big),
        ("waak_moderate_gamma", *waak_mid),
        ("aa_lambda_near_1", *aa_big),
        ("aa_moderate", *aa_mid),
    ]
    if n <= 1000:
        linear = _linear(rng, n)
        logistic = _logistic(rng, n)
        cases += [
            ("sparse_linear", *linear),
            ("logistic_single_interaction", *logistic),
            ("mixture", *_mixture([(0.4, waak_big), (0.3, aa_mid), (0.2, linear), (0.1, logistic)])),
        ]
    else:
        cases.append(("mixture", *_mixture([(0.6, waak_mid), (0.4, aa_big)])))
    return cases


@functools.lru_cache(maxsize=None)
def _data(n):
    """Data and cases for dimension n, built once per test session."""
    return _clustered_data(n + 7, n), _cases(n)


def _floats(values):
    return np.array([float(v) for v in values])


def _expand(terms, counts):
    return np.repeat(_floats(terms), [c for _, c in counts.cells])


PRODUCT_KERNELS = ["waak_large_gamma", "waak_moderate_gamma", "aa_lambda_near_1", "aa_moderate"]
CASES = [(1000, name) for name in PRODUCT_KERNELS + ["sparse_linear", "logistic_single_interaction", "mixture"]]
CASES += [(10_000, name) for name in PRODUCT_KERNELS + ["mixture"]]


@pytest.mark.parametrize("n, name", CASES)
def test_core_matches_log_space_reference(n, name):
    (points, counts, queries, _), cases = _data(n)
    _, cfg, kernel = next(case for case in cases if case[0] == name)
    ref = oracles.loo_reference(kernel, points, counts)
    k = len(counts.cells)
    repeated = sum(1 for _, c in counts.cells if c >= 2)

    kl = kl_risk(cfg, counts)
    assert not kl.dominated
    assert kl.value == pytest.approx(float(ref["kl"]), rel=REL)
    want_terms = _expand(ref["terms"], counts)
    np.testing.assert_allclose(kl.loo_terms, want_terms, rtol=REL, atol=0.0)
    assert kl.element_evals == k * (k - 1) // 2 + repeated

    for pos in range(counts.total):
        assert loo_term(pos, cfg, counts) == pytest.approx(want_terms[pos], rel=REL)

    est = estimate_at([_cell_of(x) for x in queries], cfg, counts)
    want = _floats(oracles.estimate_reference(kernel, queries, points, counts))
    np.testing.assert_allclose(est.values, want, rtol=REL, atol=0.0)

    if "se" not in ref:
        with pytest.raises(CapacityError):
            se_risk(cfg, counts)
        return
    se = se_risk(cfg, counts)
    assert se.value == pytest.approx(float(ref["se"]), rel=REL, abs=REL * float(ref["se_scale"]))
    np.testing.assert_allclose(se.loo_terms, want_terms, rtol=REL, atol=0.0)
    assert se.squared_element_evals == k * (k + 1) // 2


def test_near_duplicate_term_is_tiny_but_positive():
    """The singleton with a one-flip neighbour keeps a held-out term far
    below its own kernel entry, which a subtract-after-product core loses."""
    (points, counts, _, (single, twin)), cases = _data(10_000)
    _, cfg, kernel = cases[0]
    with mp.workdps(40):
        own = kernel(points[single], points[single])
        neighbour = kernel(points[single], points[twin])
    assert float(neighbour / own) < 1e-16
    rep = kl_risk(cfg, counts)
    term = rep.loo_terms[sum(c for _, c in counts.cells[:single])]
    assert 0.0 < term < 1e-15 * float(own)
