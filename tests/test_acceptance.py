"""Sign-off suite: one test per release criterion.

Every test prints a single ``ACCEPTANCE NN name: PASS/FAIL`` line (run with
``pytest -s`` to see them all) so the output doubles as a checklist. The
tolerances and problem sizes fixed here are the release bar; do not loosen
them to make a regression pass.
"""

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from bindens import (
    CountsVector,
    EstimatorConfig,
    ShrinkageSpec,
    Transform,
    element_linear,
    element_waak,
    estimate_at,
    estimate_full,
    fwht,
    kl_risk,
    matrix_element,
    normalizer,
    point_of_index,
    product_index,
    se_risk,
    shrinkage_optimal,
    squared_matrix_element,
    walsh_entry,
)
from bindens.errors import TransformOverflowError
from bindens.transforms import CLOSED_FORM_EXPONENTIAL, CLOSED_FORM_LOGISTIC, FWHT_GENERAL


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def _random_counts(rng, n, total):
    mapping = {}
    for cell in rng.integers(1, (1 << n) + 1, size=total):
        mapping[int(cell)] = mapping.get(int(cell), 0) + 1
    return CountsVector.from_cells(n, mapping)


def _dense_kernel(config, n):
    size = 1 << n
    return np.array(
        [[matrix_element(i, j, config) for j in range(1, size + 1)] for i in range(1, size + 1)]
    )


# ---------------------------------------------------------------- criterion 1


def test_01_walsh_algebra_suite():
    """Self-inverse matrix, transform-vs-dense agreement, product permutation."""
    started = time.perf_counter()
    ok = False
    try:
        rng = np.random.default_rng(101)
        for n in range(1, 9):
            size = 1 << n
            w = np.array(
                [[walsh_entry(r, c, n) for c in range(1, size + 1)] for r in range(1, size + 1)],
                dtype=np.int64,
            )
            assert (w == oracles.walsh_dense(n)).all()
            assert (w @ w == size * np.eye(size, dtype=np.int64)).all()

        # entries of W @ W are sums of 2^n terms of magnitude 1: exact in floats
        for n in (9, 10):
            size = 1 << n
            dense = oracles.walsh_dense(n).astype(float)
            assert ((dense @ dense) == size * np.eye(size)).all()
            rows = rng.integers(1, size + 1, size=400)
            cols = rng.integers(1, size + 1, size=400)
            for r, c in zip(rows, cols):
                assert walsh_entry(int(r), int(c), n) == dense[r - 1, c - 1]

        for n in range(1, 11):
            size = 1 << n
            dense = oracles.walsh_dense(n).astype(float)
            for _ in range(10):
                v = rng.uniform(-1.0, 1.0, size=size)
                assert np.max(np.abs(fwht(v) - dense @ v)) <= 1e-10

        # index products: XOR formula equals the doubling construction and
        # every row/column of the table is a permutation of 1..2^n
        for n in range(1, 9):
            size = 1 << n
            idx = np.arange(size, dtype=np.int64)
            table = (idx[:, None] ^ idx[None, :]) + 1
            assert (table == oracles.mapping_dense(n)).all()
            assert (np.sort(table, axis=0) == idx[:, None] + 1).all()
            assert (np.sort(table, axis=1) == idx[None, :] + 1).all()
            for _ in range(50):
                i = int(rng.integers(1, size + 1))
                j = int(rng.integers(1, size + 1))
                assert product_index(i, j) == int(table[i - 1, j - 1])

        assert time.perf_counter() - started < 10.0
        ok = True
    finally:
        _verdict(1, "walsh-algebra", ok)


# ---------------------------------------------------------------- criterion 2


def _transform_for_slot(kind, rng):
    if kind == "identity":
        return Transform.identity()
    if kind == "exponential":
        # keep gamma^(sum b) finite at n=10 with dense b in [0,1]
        return Transform.exponential(float(rng.uniform(0.7, 1.6)))
    if kind == "logistic":
        return Transform.logistic(float(rng.uniform(0.3, 5.0)))
    if kind == "step":
        low = float(rng.uniform(0.0, 0.5))
        return Transform.step(float(rng.uniform(-2.0, 2.0)), low, low + float(rng.uniform(0.0, 2.0)))
    if kind == "relu":
        return Transform.relu()
    if kind == "tanh":
        return Transform.tanh(float(rng.uniform(0.1, 3.0)))
    return Transform.elu(float(rng.uniform(0.1, 2.0)))


def test_02_transformed_estimates_sum_to_one():
    """200 random configurations over every transform kind sum to 1 +- 1e-9."""
    started = time.perf_counter()
    ok = False
    try:
        rng = np.random.default_rng(2718)
        kinds = ("identity", "exponential", "logistic", "step", "relu", "tanh", "elu")
        checked = 0
        draws = 0
        while checked < 200:
            draws += 1
            assert draws < 4000, "too many degenerate draws; generator is off"
            kind = kinds[checked % len(kinds)]
            n = int(rng.integers(3, 11))
            b = ShrinkageSpec.dense(rng.uniform(0.0, 1.0, size=1 << n))
            transform = _transform_for_slot(kind, rng)
            try:
                norm = normalizer(transform, b)
            except TransformOverflowError:
                continue
            if not (math.isfinite(norm.value) and norm.value > 0.0):
                continue  # degenerate draw: the estimator would reject it
            config = EstimatorConfig.transformed(b, transform)
            counts = _random_counts(rng, n, int(rng.integers(5, 40)))
            est = estimate_full(config, counts)
            assert abs(float(est.values.sum()) - 1.0) <= 1e-9
            checked += 1
        assert time.perf_counter() - started < 30.0
        ok = True
    finally:
        _verdict(2, "normalization-guarantee", ok)


# ---------------------------------------------------------------- criterion 3


def test_03_degenerate_shrinkage_identities():
    """All-ones coefficients reproduce frequencies, lone lead gives uniform."""
    ok = False
    try:
        rng = np.random.default_rng(303)
        for n in (3, 6, 8):
            size = 1 << n
            counts = _random_counts(rng, n, 40)
            cells = range(1, size + 1)

            uniform = estimate_at(cells, EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0})), counts)
            assert all(v == 1.0 / size for v in uniform.values)

            freq = estimate_at(cells, EstimatorConfig.linear(ShrinkageSpec.dense(np.ones(size))), counts)
            expected = np.array([counts.count_of(c) / counts.total for c in cells])
            assert (freq.values == expected).all()
        ok = True
    finally:
        _verdict(3, "degenerate-shrinkage", ok)


# ---------------------------------------------------------------- criterion 4


def test_04_aa_closed_form_equivalence():
    """Unit-weight kernel equals lam^(n-d) (1-lam)^d to 1e-10 relative."""
    ok = False
    try:
        rng = np.random.default_rng(404)
        for n in range(1, 11):
            size = 1 << n
            dist_to_first = np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.int64)
            ones = np.ones(n)
            for lam in rng.uniform(0.5, 1.0, size=20):
                lam = float(lam)
                gamma = math.sqrt(lam / (1.0 - lam))
                want = lam ** (n - dist_to_first) * (1.0 - lam) ** dist_to_first
                if n <= 6:
                    # literally every pair
                    for i in range(1, size + 1):
                        row = np.array([element_waak(i, j, ones, gamma) for j in range(1, size + 1)])
                        d_row = np.bitwise_count(np.uint64(i - 1) ^ np.arange(size, dtype=np.uint64))
                        ref = lam ** (n - d_row.astype(np.int64)) * (1.0 - lam) ** d_row.astype(np.int64)
                        assert np.max(np.abs(row / ref - 1.0)) <= 1e-10
                else:
                    # one full sweep covers every distance class; sampled pairs
                    # confirm the value depends on the pair only through it
                    got = np.array([element_waak(1, j, ones, gamma) for j in range(1, size + 1)])
                    assert np.max(np.abs(got / want - 1.0)) <= 1e-10
                    for _ in range(40):
                        i = int(rng.integers(1, size + 1))
                        j = int(rng.integers(1, size + 1))
                        d = int(np.bitwise_count(np.uint64((i - 1) ^ (j - 1))))
                        ref = lam ** (n - d) * (1.0 - lam) ** d
                        assert abs(element_waak(i, j, ones, gamma) / ref - 1.0) <= 1e-10
        ok = True
    finally:
        _verdict(4, "aa-equivalence", ok)


# ---------------------------------------------------------------- criterion 5


def test_05_closed_form_normalizers():
    """Logistic constant is exactly 2^(n-1); exponential matches the product."""
    ok = False
    try:
        rng = np.random.default_rng(505)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            w = rng.uniform(0.0, 1.0, size=n)
            spec = ShrinkageSpec.single_interaction(w)

            logi = Transform.logistic(float(rng.uniform(0.2, 6.0)))
            fast_l = normalizer(logi, spec)
            assert fast_l.method == CLOSED_FORM_LOGISTIC
            assert fast_l.value == float(1 << (n - 1))

            expo = Transform.exponential(float(rng.uniform(0.3, 3.0)))
            fast_e = normalizer(expo, spec)
            assert fast_e.method == CLOSED_FORM_EXPONENTIAL
            product = float(np.prod(expo.gamma ** w + expo.gamma ** (-w)))
            assert abs(fast_e.value / product - 1.0) <= 1e-12

            dense = ShrinkageSpec.dense(spec.to_dense())
            for transform, fast in ((logi, fast_l), (expo, fast_e)):
                general = normalizer(transform, dense)
                assert general.method == FWHT_GENERAL
                assert abs(general.value / fast.value - 1.0) <= 1e-10
        ok = True
    finally:
        _verdict(5, "closed-form-normalizers", ok)


# ---------------------------------------------------------------- criterion 6


def test_06_weighted_kernel_positive_definite():
    """Dense weighted kernel admits a Cholesky factor for w > 0, gamma > 1."""
    ok = False
    try:
        rng = np.random.default_rng(606)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            size = 1 << n
            w = rng.uniform(0.05, 1.0, size=n)
            gamma = float(rng.uniform(1.01, 5.0))
            dense = oracles.waak_matrix_dense(w, gamma)
            if n <= 5:
                built = np.array(
                    [[element_waak(i, j, w, gamma) for j in range(1, size + 1)] for i in range(1, size + 1)]
                )
                assert np.max(np.abs(built / dense - 1.0)) <= 1e-12
                dense = built
            else:
                for _ in range(60):
                    i = int(rng.integers(1, size + 1))
                    j = int(rng.integers(1, size + 1))
                    assert element_waak(i, j, w, gamma) == pytest.approx(dense[i - 1, j - 1], rel=1e-12)
            np.linalg.cholesky(dense)  # raises LinAlgError if not positive definite
        ok = True
    finally:
        _verdict(6, "positive-definiteness", ok)


# ---------------------------------------------------------------- criterion 7


def test_07_squared_element_shortcuts():
    """Every squared-element path agrees with dense matrix squaring."""
    ok = False
    try:
        rng = np.random.default_rng(707)

        def check(config, n):
            size = 1 << n
            q = _dense_kernel(config, n)
            q2 = q @ q
            for i in range(1, size + 1):
                for j in range(1, size + 1):
                    got = squared_matrix_element(i, j, config)
                    assert got == pytest.approx(q2[i - 1, j - 1], rel=1e-9, abs=1e-13)

        for n in (4, 5):
            size = 1 << n
            b = rng.uniform(0.0, 1.0, size=size)
            b[0] = 1.0
            w = rng.uniform(0.1, 1.0, size=n)
            sparse = ShrinkageSpec.sparse(n, {1: 1.0, 3: 0.6, (1 << (n - 1)) + 1: 0.35})
            check(EstimatorConfig.linear(ShrinkageSpec.dense(b)), n)
            check(EstimatorConfig.linear(sparse), n)
            check(EstimatorConfig.waak(w, 2.2), n)
            check(EstimatorConfig.transformed(ShrinkageSpec.single_interaction(w), Transform.exponential(1.7)), n)
            check(EstimatorConfig.transformed(ShrinkageSpec.dense(b), Transform.identity()), n)
            check(EstimatorConfig.transformed(sparse, Transform.logistic(3.0)), n)
            check(
                EstimatorConfig.mixture(
                    [(0.3, EstimatorConfig.linear(sparse)), (0.7, EstimatorConfig.waak(w, 1.8))]
                ),
                n,
            )

        # spot the upper end of the range with the two hot paths
        for config in (
            EstimatorConfig.waak(rng.uniform(0.1, 1.0, size=7), 2.0),
            EstimatorConfig.linear(ShrinkageSpec.sparse(7, {1: 1.0, 5: 0.5, 65: 0.75})),
        ):
            q = _dense_kernel(config, 7)
            q2 = q @ q
            for _ in range(600):
                i = int(rng.integers(1, 129))
                j = int(rng.integers(1, 129))
                assert squared_matrix_element(i, j, config) == pytest.approx(
                    q2[i - 1, j - 1], rel=1e-9, abs=1e-13
                )
        ok = True
    finally:
        _verdict(7, "squared-shortcuts", ok)


# ---------------------------------------------------------------- criterion 8


def test_08_shrinkage_matches_monte_carlo():
    """Closed-form multiplier sits at the Monte-Carlo risk minimum."""
    ok = False
    try:
        rng = np.random.default_rng(808)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        for q, size in ((0.3, 5), (0.7, 10), (0.9, 50)):
            draws = rng.binomial(size, (1.0 + q) / 2.0, size=1_000_000)
            ybar = (2.0 * draws - size) / size
            m1 = float(np.mean(ybar))
            m2 = float(np.mean(ybar * ybar))
            risk = grid * grid * m2 - 2.0 * grid * q * m1 + q * q
            best = float(grid[int(np.argmin(risk))])
            assert abs(best - shrinkage_optimal(q, size)) <= 2e-3

        for size in (1, 2, 7, 40):
            assert shrinkage_optimal(1.0, size) == 1.0
            assert shrinkage_optimal(-1.0, size) == 1.0
            assert shrinkage_optimal(0.0, size) == 0.0
        ok = True
    finally:
        _verdict(8, "shrinkage-closed-form", ok)


# ---------------------------------------------------------------- criterion 9


def test_09_loo_risks_match_naive_rebuild():
    """Both surrogate risks equal the rebuild-without-k oracle; counters bounded."""
    ok = False
    try:
        rng = np.random.default_rng(909)
        cases = []
        for n, total in ((4, 12), (6, 20), (8, 17)):
            w = rng.uniform(0.1, 1.0, size=n)
            cases.append((EstimatorConfig.waak(w, 2.4), n, total))
            cases.append(
                (
                    EstimatorConfig.transformed(
                        ShrinkageSpec.single_interaction(rng.uniform(0.2, 1.0, size=n)),
                        Transform.logistic(2.0),
                    ),
                    n,
                    total,
                )
            )
            cases.append(
                (
                    EstimatorConfig.linear(
                        ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.8, (1 << (n - 1)) + 1: 0.4})
                    ),
                    n,
                    total,
                )
            )
        for config, n, total in cases:
            counts = _random_counts(rng, n, total)
            q = _dense_kernel(config, n)

            kl = kl_risk(config, counts)
            kl_val, kl_terms = oracles.kl_naive(q, counts)
            assert kl.value == pytest.approx(kl_val, rel=1e-10)
            assert np.allclose(kl.loo_terms, kl_terms, rtol=1e-10, atol=0.0)

            se = se_risk(config, counts)
            se_val, se_terms = oracles.se_naive(q, counts)
            assert se.value == pytest.approx(se_val, rel=1e-10)
            assert np.allclose(se.loo_terms, se_terms, rtol=1e-10, atol=1e-15)

            # distinct-pair reductions cap the kernel evaluation counters
            big = counts.total
            assert 0 < kl.element_evals <= big * (big - 1) // 2
            assert kl.squared_element_evals == 0
            assert 0 < se.squared_element_evals <= big * (big + 1) // 2
        ok = True
    finally:
        _verdict(9, "loo-risks", ok)


# ---------------------------------------------------------------- criterion 10


def _median_ms(fn, repeats=11, inner=1):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return 1000.0 * float(np.median(times))


def test_10_scales_to_ten_thousand_dimensions():
    """Element and normalizer stay under 10 ms at n=10^4; sparse cost is flat in n."""
    ok = False
    try:
        pyrng = random.Random(1010)
        rng = np.random.default_rng(1010)

        n_big = 10_000
        w = rng.uniform(0.2, 1.0, size=n_big)
        gamma = 1.8
        pairs = [
            (pyrng.getrandbits(n_big) + 1, pyrng.getrandbits(n_big) + 1) for _ in range(16)
        ]
        element_waak(pairs[0][0], pairs[0][1], w, gamma)  # warmup, fills caches
        it = iter(pairs * 4)
        waak_ms = _median_ms(lambda: element_waak(*next(it), w, gamma))
        assert waak_ms < 10.0, f"weighted element took {waak_ms:.3f} ms"

        spec_big = ShrinkageSpec.single_interaction(w)
        expo = Transform.exponential(gamma)
        normalizer(expo, spec_big)  # warmup
        norm_ms = _median_ms(lambda: normalizer(expo, spec_big))
        assert norm_ms < 10.0, f"normalizer took {norm_ms:.3f} ms"

        # sparse linear element: fixed support size, growing dimension.
        # The sizes are timed round-robin, so a drift in machine speed hits
        # all of them alike, and each keeps the fastest of its round medians.
        calls = {}
        for n in (100, 1_000, 10_000):
            entries = {1: 1.0}
            while len(entries) < 8:
                entries[pyrng.getrandbits(n) + 1] = pyrng.uniform(0.05, 1.0)
            spec = ShrinkageSpec.sparse(n, entries)
            cells = [(pyrng.getrandbits(n) + 1, pyrng.getrandbits(n) + 1) for _ in range(64)]
            element_linear(cells[0][0], cells[0][1], spec)  # warmup
            seq = itertools.cycle(cells)
            calls[n] = lambda seq=seq, spec=spec: element_linear(*next(seq), spec)
        medians = {n: math.inf for n in calls}
        for _ in range(25):
            for n, call in calls.items():
                medians[n] = min(medians[n], _median_ms(call, repeats=3, inner=100))
        spread = max(medians.values()) / min(medians.values())
        assert spread < 2.0, f"sparse element time varied {spread:.2f}x across n: {medians}"
        ok = True
    finally:
        _verdict(10, "large-n-performance", ok)


# ---------------------------------------------------------------- criterion 11


def test_11_sample_neutrality():
    """Pooled-data estimate equals the count-weighted mean of split estimates."""
    ok = False
    try:
        rng = np.random.default_rng(1111)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            if trial % 3 == 0:
                config = EstimatorConfig.linear(
                    ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5, (1 << (n - 1)) + 1: 0.3})
                )
            elif trial % 3 == 1:
                config = EstimatorConfig.waak(rng.uniform(0.1, 1.0, size=n), float(rng.uniform(1.2, 4.0)))
            else:
                config = EstimatorConfig.transformed(
                    ShrinkageSpec.single_interaction(rng.uniform(0.2, 1.0, size=n)),
                    Transform.logistic(3.0),
                )
            na = int(rng.integers(3, 30))
            nb = int(rng.integers(3, 30))
            cells_a = rng.integers(1, (1 << n) + 1, size=na)
            cells_b = rng.integers(1, (1 << n) + 1, size=nb)

            def tally(cells):
                out = {}
                for c in cells:
                    out[int(c)] = out.get(int(c), 0) + 1
                return out

            fa = estimate_full(config, CountsVector.from_cells(n, tally(cells_a))).values
            fb = estimate_full(config, CountsVector.from_cells(n, tally(cells_b))).values
            pooled = estimate_full(
                config, CountsVector.from_cells(n, tally(np.concatenate([cells_a, cells_b])))
            ).values
            blended = (na * fa + nb * fb) / (na + nb)
            assert np.max(np.abs(pooled - blended)) <= 1e-12
        ok = True
    finally:
        _verdict(11, "sample-neutrality", ok)


# ---------------------------------------------------------------- criterion 12


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "bindens", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"bindens {args[0]} failed:\n{proc.stderr}"
    return proc


def _stripped(path):
    payload = json.loads(path.read_text())
    payload.pop("timing", None)
    return json.dumps(payload, sort_keys=True)


def test_12_cli_pipeline_reproducible(tmp_path):
    """estimate -> cv -> query on planted synthetic data, byte-stable reruns."""
    ok = False
    try:
        rng = np.random.default_rng(31415)
        n = 12
        size = 1 << n

        # planted first-order spectrum, scaled to keep every cell positive
        theta = rng.uniform(-0.5, 0.5, size=n)
        mass = float(np.abs(theta).sum())
        if mass > 0.9:
            theta *= 0.9 / mass
        coefficients = np.zeros(size)
        coefficients[0] = 1.0
        for d in range(1, n + 1):
            coefficients[1 << (d - 1)] = theta[d - 1]
        p = fwht(coefficients) / size
        assert np.all(p > 0.0)

        chosen = rng.choice(size, size=40, p=p / p.sum())
        data = tmp_path / "obs.txt"
        rows = [",".join(str(int(s)) for s in point_of_index(int(c) + 1, n)) for c in chosen]
        data.write_text("\n".join(rows) + "\n")

        est_cfg = tmp_path / "estimate.json"
        est_cfg.write_text(
            json.dumps(
                {
                    "estimator": {"variant": "aa_classic", "lambda": 0.85},
                    "query": {"cells": "all"},
                    "seed": 31415,
                }
            )
        )
        cv_cfg = tmp_path / "cv.json"
        cv_cfg.write_text(
            json.dumps(
                {
                    "cv": {"loss": "kl", "search": {"kind": "aa_lambda", "lambdas": [0.6, 0.7, 0.8, 0.9]}},
                    "seed": 31415,
                }
            )
        )

        fit = tmp_path / "fit.json"
        _run_cli(["estimate", "--data", str(data), "--config", str(est_cfg), "--out", str(fit)])
        first_fit = fit.read_bytes()
        fit2 = tmp_path / "fit2.json"
        _run_cli(["estimate", "--data", str(data), "--config", str(est_cfg), "--out", str(fit2)])
        assert _stripped(fit) == _stripped(fit2)
        assert fit.read_bytes() == first_fit

        cv_out = tmp_path / "cv_report.json"
        cv_out2 = tmp_path / "cv_report2.json"
        _run_cli(["cv", "--data", str(data), "--config", str(cv_cfg), "--out", str(cv_out)])
        _run_cli(["cv", "--data", str(data), "--config", str(cv_cfg), "--out", str(cv_out2)])
        assert _stripped(cv_out) == _stripped(cv_out2)

        query_out = tmp_path / "query.json"
        query_out2 = tmp_path / "query2.json"
        spec = "1,4096,++++++++++++,?+-+-+-+-+-+"
        _run_cli(["query", "--fit", str(fit), "--cells", spec, "--out", str(query_out)])
        _run_cli(["query", "--fit", str(fit), "--cells", spec, "--out", str(query_out2)])
        assert _stripped(query_out) == _stripped(query_out2)

        # the reports carry real content, not just matching bytes
        fit_payload = json.loads(fit.read_text())
        assert fit_payload["n"] == n and fit_payload["data"]["observations"] == 40
        cv_payload = json.loads(cv_out.read_text())
        assert len(cv_payload["evaluations"]) == 4
        assert cv_payload["evaluations"][0]["rank"] == 1
        ok = True
    finally:
        _verdict(12, "cli-pipeline", ok)
