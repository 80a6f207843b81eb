"""Leave-one-out surrogates and configuration search."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bindens import (
    CountsVector,
    EstimatorConfig,
    SearchSpace,
    ShrinkageSpec,
    Transform,
    coordinate_descent_w,
    counts_from_observations,
    evaluate_space,
    grid_search,
    kl_risk,
    loo_term,
    se_risk,
)
from bindens import estimators, transforms
from bindens.errors import BudgetExceededError, ConfigError, DataError, InsufficientDataError

import oracles


def _dense_q(config, n):
    from bindens import matrix_element

    size = 1 << n
    return np.array(
        [[matrix_element(i, j, config) for j in range(1, size + 1)] for i in range(1, size + 1)]
    )


def _random_counts(rng, n, size):
    cells = rng.integers(1, (1 << n) + 1, size=size)
    mapping = {}
    for c in cells:
        mapping[int(c)] = mapping.get(int(c), 0) + 1
    return CountsVector.from_cells(n, mapping)


def _counter_configs(n):
    """aa_classic, sparse linear and a mixture of them with a transformed kernel."""
    aa = EstimatorConfig.aa_classic(n, 0.85)
    linear = EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5, 1 << (n - 1): 0.25}))
    logistic = EstimatorConfig.transformed(
        ShrinkageSpec.single_interaction(np.full(n, 0.6)), Transform.logistic(2.0)
    )
    return [aa, linear, EstimatorConfig.mixture([(0.5, aa), (0.3, linear), (0.2, logistic)])]


class TestLooTerm:
    def test_uniform_config(self):
        counts = CountsVector.from_cells(4, {2: 3, 9: 1, 16: 2})
        cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(4, {1: 1.0}))
        for k in range(counts.total):
            assert loo_term(k, cfg, counts) == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_frequency_config_multiplicity(self):
        # identity kernel: held-out estimate is (m - 1) / (N - 1)
        counts = CountsVector.from_cells(3, {5: 4, 2: 2, 7: 1})
        cfg = EstimatorConfig.linear(ShrinkageSpec.dense(np.ones(8)))
        obs = counts.observations
        for k, cell in enumerate(obs):
            m = counts.count_of(cell)
            assert loo_term(k, cfg, counts) == pytest.approx((m - 1) / 6.0, abs=1e-15)

    def test_matches_naive_rebuild(self):
        rng = np.random.default_rng(70)
        n = 4
        counts = counts_from_observations(rng.choice([-1, 1], size=(10, n)))
        w = rng.uniform(0.0, 1.0, size=n)
        cfg = EstimatorConfig.waak(w, 2.0)
        q = oracles.waak_matrix_dense(w, 2.0)
        for k in range(counts.total):
            want = oracles.loo_naive(q, counts, k)
            assert loo_term(k, cfg, counts) == pytest.approx(want, rel=1e-10)

    def test_validation(self):
        counts = CountsVector.from_cells(3, {5: 2})
        cfg = EstimatorConfig.aa_classic(3, 0.8)
        with pytest.raises(ValueError):
            loo_term(2, cfg, counts)
        with pytest.raises(ValueError):
            loo_term(-1, cfg, counts)
        with pytest.raises(ValueError):
            loo_term(0.5, cfg, counts)
        single = CountsVector.from_cells(3, {5: 1})
        with pytest.raises(InsufficientDataError):
            loo_term(0, cfg, single)
        with pytest.raises(ConfigError):
            loo_term(0, EstimatorConfig.aa_classic(4, 0.8), counts)
        # a non-config is a ConfigError, checked before the counts; data
        # that is not a CountsVector is a DataError
        for risk in (kl_risk, se_risk, lambda c, d: loo_term(0, c, d)):
            for data in (counts, {5: 2}):
                with pytest.raises(ConfigError):
                    risk("cfg", data)
            with pytest.raises(DataError):
                risk(cfg, {5: 2})


class TestKlRisk:
    def test_uniform_config_value(self):
        rng = np.random.default_rng(71)
        for n in (3, 5):
            counts = _random_counts(rng, n, size=14)
            cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0}))
            rep = kl_risk(cfg, counts)
            assert rep.value == pytest.approx(-counts.total * n * math.log(2.0), rel=1e-13)
            assert not rep.dominated
            assert rep.loss == "kl"

    def test_singleton_under_identity_kernel_is_dominated(self):
        counts = CountsVector.from_cells(3, {5: 3, 2: 1})
        cfg = EstimatorConfig.linear(ShrinkageSpec.dense(np.ones(8)))
        rep = kl_risk(cfg, counts)
        assert rep.dominated
        assert rep.value == -math.inf
        assert 0.0 in rep.loo_terms

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(72)
        n = 4
        for trial in range(4):
            counts = counts_from_observations(rng.choice([-1, 1], size=(12, n)))
            w = rng.uniform(0.1, 1.0, size=n)
            cfg = EstimatorConfig.waak(w, 1.0 + float(rng.uniform(0.3, 2.0)))
            q = oracles.waak_matrix_dense(w, cfg.gamma)
            want, want_terms = oracles.kl_naive(q, counts)
            rep = kl_risk(cfg, counts)
            assert rep.value == pytest.approx(want, rel=1e-10)
            np.testing.assert_allclose(rep.loo_terms, want_terms, rtol=1e-10)

    def test_matches_naive_oracle_transformed(self):
        rng = np.random.default_rng(73)
        n = 3
        counts = counts_from_observations(rng.choice([-1, 1], size=(9, n)))
        w = rng.uniform(0.2, 0.9, size=n)
        spec = ShrinkageSpec.single_interaction(w)
        cfg = EstimatorConfig.transformed(spec, Transform.logistic(2.4))
        f = oracles.transform_callable("logistic", gamma=2.4)
        q = oracles.transformed_matrix_dense(spec.to_dense(), f)
        want, _ = oracles.kl_naive(q, counts)
        assert kl_risk(cfg, counts).value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "n, make",
        [
            (4, lambda n: EstimatorConfig.aa_classic(n, 0.85)),
            (6, lambda n: EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5, 1 << (n - 1): 0.25}))),
            (6, lambda n: EstimatorConfig.transformed(ShrinkageSpec.sparse(n, {1: 0.4, 3: 0.7}), Transform.logistic(2.0))),
            (6, lambda n: EstimatorConfig.waak(np.linspace(0.2, 0.9, n), 2.5)),
            (6, lambda n: _counter_configs(n)[2]),
            (1000, lambda n: EstimatorConfig.waak(np.full(n, 0.6), 3.0)),
        ],
        ids=["aa_classic", "linear_sparse", "logistic", "waak_nonuniform", "mixture", "waak_uniform_n1000"],
    )
    def test_loo_terms_align_with_observations(self, n, make):
        """Every route's risk reports hold loo_term's value per observation."""
        rng = np.random.default_rng(74)
        # Two clusters with a few flipped bits; rows repeat so that both
        # own-cell cases (seen once, seen more than once) occur.
        protos = rng.choice([-1, 1], size=(2, n))
        rows = protos[rng.integers(0, 2, size=6)] * np.where(rng.random((6, n)) < 0.05, -1, 1)
        counts = counts_from_observations(rows[[0, 0, 1, 2, 2, 2, 3, 4, 5]])
        cfg = make(n)
        want = [loo_term(k, cfg, counts) for k in range(counts.total)]
        assert all(value > 0.0 for value in want)
        for risk in (kl_risk, se_risk):
            rep = risk(cfg, counts)
            assert len(rep.loo_terms) == counts.total
            assert list(rep.loo_terms) == want

    def test_element_evaluation_counts(self):
        counts = CountsVector.from_cells(4, {2: 3, 5: 1, 9: 2, 14: 1})
        m = len(counts.cells)
        repeated = sum(1 for _, cnt in counts.cells if cnt >= 2)
        for cfg in _counter_configs(4):
            rep = kl_risk(cfg, counts)
            assert rep.element_evals == m * (m - 1) // 2 + repeated
            assert rep.element_evals <= counts.total * (counts.total - 1) // 2
            assert rep.squared_element_evals == 0


class TestSeRisk:
    def test_uniform_config_value(self):
        rng = np.random.default_rng(75)
        for n in (3, 6):
            counts = _random_counts(rng, n, size=11)
            cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0}))
            rep = se_risk(cfg, counts)
            assert rep.value == pytest.approx(-math.ldexp(1.0, -n), rel=1e-12)
            assert rep.loss == "se"

    def test_identity_kernel_all_distinct(self):
        counts = CountsVector.from_cells(4, {2: 1, 7: 1, 11: 1, 16: 1, 5: 1})
        cfg = EstimatorConfig.linear(ShrinkageSpec.dense(np.ones(16)))
        rep = se_risk(cfg, counts)
        assert rep.value == pytest.approx(1.0 / 5.0, rel=1e-13)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(76)
        n = 6
        counts = counts_from_observations(rng.choice([-1, 1], size=(15, n)))
        entries = {1: 1.0, 2: 0.6, 5: 0.3, 33: 0.8}
        cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(n, entries))
        q = oracles.linear_matrix_dense(ShrinkageSpec.sparse(n, entries).to_dense())
        want, want_terms = oracles.se_naive(q, counts)
        rep = se_risk(cfg, counts)
        assert rep.value == pytest.approx(want, rel=1e-10)
        np.testing.assert_allclose(rep.loo_terms, want_terms, rtol=1e-10)

    def test_matches_naive_oracle_waak(self):
        rng = np.random.default_rng(77)
        n = 4
        counts = counts_from_observations(rng.choice([-1, 1], size=(10, n)))
        w = rng.uniform(0.0, 1.0, size=n)
        cfg = EstimatorConfig.waak(w, 2.6)
        q = oracles.waak_matrix_dense(w, 2.6)
        want, _ = oracles.se_naive(q, counts)
        assert se_risk(cfg, counts).value == pytest.approx(want, rel=1e-10)

    def test_mixture_config(self):
        rng = np.random.default_rng(78)
        n = 3
        counts = counts_from_observations(rng.choice([-1, 1], size=(8, n)))
        mix = EstimatorConfig.mixture(
            [
                (0.4, EstimatorConfig.aa_classic(n, 0.8)),
                (0.6, EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0}))),
            ]
        )
        q = _dense_q(mix, n)
        want, _ = oracles.se_naive(q, counts)
        assert se_risk(mix, counts).value == pytest.approx(want, rel=1e-10)

    def test_evaluation_counters(self):
        counts = CountsVector.from_cells(5, {3: 2, 8: 1, 20: 1})
        m = len(counts.cells)
        repeated = sum(1 for _, cnt in counts.cells if cnt >= 2)
        for cfg in _counter_configs(5):
            rep = se_risk(cfg, counts)
            assert rep.squared_element_evals == m * (m + 1) // 2
            assert rep.squared_element_evals <= counts.total * (counts.total + 1) // 2
            assert rep.element_evals == m * (m - 1) // 2 + repeated
            assert rep.element_evals <= counts.total * (counts.total - 1) // 2
            assert not rep.dominated


def _clustered_counts(rng, n, k=24, prototypes=3, flip=0.12):
    """k distinct cells near a few prototype points, seen 1 to 3 times each."""
    protos = rng.choice([-1, 1], size=(prototypes, n))
    rows = {}
    while len(rows) < k:
        proto = protos[len(rows) % prototypes]
        row = np.where(rng.random(n) < flip, -proto, proto)
        rows.setdefault(row.tobytes(), row)
    reps = rng.integers(1, 4, size=k)
    return counts_from_observations(np.repeat(np.array(list(rows.values())), reps, axis=0))


def _spectral_case(name, n, rng):
    """(config, reference kernel row) for the SE quadratic oracle."""
    first = {(1 << d) + 1: float(v) for d, v in enumerate(rng.uniform(0.2, 0.8, n))}
    if name == "peaked_exponential":
        cfg = EstimatorConfig.transformed(
            ShrinkageSpec.single_interaction(np.ones(n)), Transform.exponential(20.0)
        )
        entries = {(1 << d) + 1: 1.0 for d in range(n)}
        return cfg, oracles.transformed_row(n, entries, lambda x: np.power(20.0, x))
    if name == "dense_linear":
        # Sparse content in dense storage, so the oracle row stays cheap.
        others = rng.choice(np.arange(2, (1 << n) + 1), 8, replace=False)
        entries = {1: 1.0, **first, **{int(i): 0.3 for i in others}}
        b = np.zeros(1 << n)
        b[[idx - 1 for idx in entries]] = list(entries.values())
        return EstimatorConfig.linear(ShrinkageSpec.dense(b)), oracles.linear_row(n, entries)
    if name == "tanh":
        # b_1 = 1 keeps the row sum positive; the first-order weights sum
        # past it, so entries take both signs.
        entries = {1: 1.0, **first, 4: 0.4}
        cfg = EstimatorConfig.transformed(ShrinkageSpec.sparse(n, entries), Transform.tanh(0.8))
        return cfg, oracles.transformed_row(n, entries, lambda x: np.tanh(0.8 * x))
    if name == "all_families":
        # Every family's Walsh diagonal in one mixture: transformed with and
        # without a closed-form Z (one sign-indefinite), a dense-form linear
        # kernel, aa_classic and waak.
        tanh_entries = {1: 1.0, **first, 4: 0.4}
        w = rng.uniform(0.3, 1.0, n)
        exp_entries = {(1 << d) + 1: float(v) for d, v in enumerate(w)}
        b = np.zeros(1 << n)
        b[[0, 3, 17, 200]] = [1.0, 0.3, 0.2, 0.1]
        linear_entries = {int(i) + 1: float(b[i]) for i in np.flatnonzero(b)}
        aa = EstimatorConfig.aa_classic(n, 0.85)
        parts = [
            (0.3, EstimatorConfig.transformed(ShrinkageSpec.sparse(n, tanh_entries), Transform.tanh(0.8)),
             oracles.transformed_row(n, tanh_entries, lambda x: np.tanh(0.8 * x))),
            (0.2, EstimatorConfig.transformed(ShrinkageSpec.single_interaction(w), Transform.exponential(2.0)),
             oracles.transformed_row(n, exp_entries, lambda x: np.power(2.0, x))),
            (0.2, EstimatorConfig.linear(ShrinkageSpec.dense(b)), oracles.linear_row(n, linear_entries)),
            (0.15, aa, oracles.waak_row(np.ones(n), aa.gamma)),
            (0.15, EstimatorConfig.waak(w[::-1].copy(), 3.0), oracles.waak_row(w[::-1], 3.0)),
        ]
        cfg = EstimatorConfig.mixture([(c, part) for c, part, _ in parts])
        return cfg, sum(c * row for c, _, row in parts)
    # logistic sparse + linear sparse + waak, as in the dense mixture benchmark
    logistic_entries = {**first, (1 << 2) + (1 << 5) + 1: 0.3, (1 << 1) + (1 << 7) + 1: 0.3}
    linear_entries = {1: 1.0, **{int(i): 0.12 for i in rng.choice(np.arange(2, 1 << n), 6, replace=False)}}
    w = rng.uniform(0.3, 1.0, n)
    parts = [
        (
            0.5,
            EstimatorConfig.transformed(ShrinkageSpec.sparse(n, logistic_entries), Transform.logistic(3.0)),
            oracles.transformed_row(n, logistic_entries, lambda x: 1.0 / (1.0 + np.power(3.0, -x))),
        ),
        (0.25, EstimatorConfig.linear(ShrinkageSpec.sparse(n, linear_entries)), oracles.linear_row(n, linear_entries)),
        (0.25, EstimatorConfig.waak(w, 2.5), oracles.waak_row(w, 2.5)),
    ]
    cfg = EstimatorConfig.mixture([(c, part) for c, part, _ in parts])
    return cfg, sum(c * row for c, _, row in parts)


class TestSpectralQuadratic:
    """SE of every kernel read from a dense row (dense linear, transformed,
    mixture) takes p' Q^2 p as a Parseval sum over Walsh diagonals; the
    reference adds up (Q @ Q) entries as direct XOR sums."""

    @pytest.mark.parametrize("n", [12, 16])
    @pytest.mark.parametrize("name", ["dense_linear", "peaked_exponential", "tanh", "mixture", "all_families"])
    def test_matches_direct_xor_sums(self, n, name):
        rng = np.random.default_rng(n)
        counts = _clustered_counts(rng, n)
        cfg, row = _spectral_case(name, n, rng)
        if name == "tanh":
            assert row.min() < 0.0 < row.max()
        cells = [idx for idx, _ in counts.cells]
        cnt = np.array([c for _, c in counts.cells], dtype=np.float64)
        p = cnt / counts.total

        want_quad = oracles.squared_quadratic_direct(row, cells, p.tolist())
        assert cfg._quadratic(counts) == pytest.approx(want_quad, rel=1e-12)

        terms = oracles.held_out_from_row(row, counts)
        want = want_quad - 2.0 / counts.total * math.fsum(c * t for c, t in zip(cnt, terms))
        rep = se_risk(cfg, counts)
        assert rep.value == pytest.approx(want, rel=1e-12)
        k = len(cells)
        assert rep.squared_element_evals == k * (k + 1) // 2


class TestGridSearch:
    def test_single_candidate(self):
        rng = np.random.default_rng(79)
        counts = _random_counts(rng, 3, size=8)
        space = SearchSpace.aa_lambda_grid(3, [0.8])
        cfg, rep = grid_search(space, "kl", counts)
        assert cfg is space.configs[0]
        assert rep.value == pytest.approx(kl_risk(cfg, counts).value)

    def test_matches_naive_scan_kl(self):
        rng = np.random.default_rng(80)
        n = 5
        counts = counts_from_observations(rng.choice([-1, 1], size=(12, n)))
        space = SearchSpace.waak_fixed_w(np.full(n, 0.7), [1.5, 2.0, 4.0])
        cfg, rep = grid_search(space, "kl", counts)
        values = [kl_risk(c, counts).value for c in space.configs]
        assert rep.value == max(values)
        assert cfg is space.configs[int(np.argmax(values))]

    def test_matches_naive_scan_se(self):
        rng = np.random.default_rng(81)
        n = 4
        counts = counts_from_observations(rng.choice([-1, 1], size=(14, n)))
        space = SearchSpace.aa_lambda_grid(n, [0.55, 0.7, 0.85, 0.95])
        cfg, rep = grid_search(space, "se", counts)
        values = [se_risk(c, counts).value for c in space.configs]
        assert rep.value == min(values)
        assert cfg is space.configs[int(np.argmin(values))]

    def test_ties_keep_first(self):
        rng = np.random.default_rng(82)
        counts = _random_counts(rng, 3, size=6)
        cfg = EstimatorConfig.aa_classic(3, 0.75)
        space = SearchSpace.from_configs([cfg, EstimatorConfig.aa_classic(3, 0.75)])
        chosen, _ = grid_search(space, "kl", counts)
        assert chosen is space.configs[0]

    def test_dominated_loses_to_finite(self):
        counts = CountsVector.from_cells(3, {5: 3, 2: 1})
        freq = EstimatorConfig.linear(ShrinkageSpec.dense(np.ones(8)))
        uni = EstimatorConfig.linear(ShrinkageSpec.sparse(3, {1: 1.0}))
        space = SearchSpace.from_configs([freq, uni])
        chosen, rep = grid_search(space, "kl", counts)
        assert chosen is uni
        assert math.isfinite(rep.value)

    def test_budget_exceeded_carries_best_prefix(self):
        rng = np.random.default_rng(83)
        counts = _random_counts(rng, 3, size=9)
        space = SearchSpace.aa_lambda_grid(3, [0.6, 0.7, 0.8, 0.9], budget=2)
        with pytest.raises(BudgetExceededError) as info:
            grid_search(space, "kl", counts)
        best = info.value.best_report
        assert best is not None
        prefix = [kl_risk(c, counts).value for c in space.configs[:2]]
        assert best.value == max(prefix)
        assert info.value.best_config is space.configs[int(np.argmax(prefix))]

    def test_budget_covering_space_is_fine(self):
        rng = np.random.default_rng(84)
        counts = _random_counts(rng, 3, size=7)
        space = SearchSpace.aa_lambda_grid(3, [0.6, 0.8], budget=2)
        cfg, _ = grid_search(space, "kl", counts)
        assert cfg in space.configs

    def test_takes_no_threads(self):
        counts = _random_counts(np.random.default_rng(85), 3, size=6)
        space = SearchSpace.aa_lambda_grid(3, [0.8])
        with pytest.raises(TypeError):
            grid_search(space, "kl", counts, threads=1)
        with pytest.raises(TypeError):
            evaluate_space(space, "kl", counts, threads=1)
        with pytest.raises(TypeError):
            coordinate_descent_w([0.5, 0.5, 0.5], 2.0, "kl", counts, sweeps=1, grid=[0.5], threads=1)

    def test_rerun_is_identical(self):
        rng = np.random.default_rng(86)
        counts = _random_counts(rng, 4, size=10)
        space = SearchSpace.aa_lambda_grid(4, [0.55, 0.75, 0.95])
        a = grid_search(space, "kl", counts)
        b = grid_search(space, "kl", counts)
        assert a[0] is b[0]
        assert a[1].value == b[1].value

    def test_validation(self):
        rng = np.random.default_rng(87)
        counts = _random_counts(rng, 3, size=6)
        with pytest.raises(ConfigError):
            grid_search(SearchSpace.from_configs([]), "kl", counts)
        space = SearchSpace.aa_lambda_grid(3, [0.8])
        with pytest.raises(ConfigError):
            grid_search(space, "l2", counts)
        with pytest.raises(ConfigError):
            SearchSpace.aa_lambda_grid(3, [0.8], budget=0)


class TestEvaluateSpace:
    def test_reports_keep_declared_order(self):
        rng = np.random.default_rng(88)
        counts = _random_counts(rng, 3, size=9)
        space = SearchSpace.aa_lambda_grid(3, [0.6, 0.7, 0.8])
        reports, best_pos, truncated = evaluate_space(space, "kl", counts)
        assert len(reports) == 3
        assert not truncated
        for rep, cfg in zip(reports, space.configs):
            assert rep.config is cfg
        values = [r.value for r in reports]
        assert values[best_pos] == max(values)

    def test_truncation_flag(self):
        rng = np.random.default_rng(89)
        counts = _random_counts(rng, 3, size=7)
        space = SearchSpace.aa_lambda_grid(3, [0.6, 0.7, 0.8], budget=1)
        reports, best_pos, truncated = evaluate_space(space, "kl", counts)
        assert truncated
        assert len(reports) == 1
        assert best_pos == 0

    @pytest.mark.parametrize("loss", ["kl", "se"])
    @pytest.mark.parametrize(
        "space",
        [
            SearchSpace.waak_shared_grid(1000, [1.5, 3.0], [0.05, 0.8]),
            SearchSpace.aa_lambda_grid(1000, [0.6, 0.75, 0.9, 0.99]),
        ],
        ids=["shared_grid", "aa_lambda"],
    )
    def test_uniform_weights_share_one_support_hamming(self, monkeypatch, space, loss):
        """Every candidate, Q and Q @ Q alike, scales the support's one
        Hamming matrix; none takes the float route."""
        counts = _clustered_counts(np.random.default_rng(91), 1000)
        built = []
        hamming = estimators._hamming

        def spy(rows, cols):
            built.append((rows.size, cols.size))
            return hamming(rows, cols)

        def float_route(*args):
            raise AssertionError("uniform weights took the float route")

        monkeypatch.setattr(estimators, "_hamming", spy)
        monkeypatch.setattr(estimators, "_float_distance", float_route)
        reports, _, _ = evaluate_space(space, loss, counts)
        k = len(counts.cells)
        assert len(reports) == 4
        assert built == [(k, k)]
        repeated = sum(1 for _, cnt in counts.cells if cnt >= 2)
        for rep in reports:
            assert rep.element_evals == k * (k - 1) // 2 + repeated
            assert rep.squared_element_evals == (k * (k + 1) // 2 if loss == "se" else 0)

    def test_mixture_search_holds_no_row_per_candidate(self):
        """Components keep their dense rows; mixture candidates keep none."""
        n = 14
        rng = np.random.default_rng(90)
        counts = counts_from_observations(rng.choice([-1, 1], size=(120, n)))
        comps = [
            EstimatorConfig.transformed(ShrinkageSpec.single_interaction(np.full(n, 0.5)), Transform.logistic(2.0)),
            EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5, 5: 0.25})),
            EstimatorConfig.waak(np.full(n, 0.8), 2.0),
        ]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            space = SearchSpace.mixture_weight_grid(comps, 8)
            reports, _, _ = evaluate_space(space, "se", counts)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(space.configs) == len(reports) == 21
        assert held < (len(comps) + 2) * (8 << n), f"{held} bytes held after the search"


    def test_mixture_search_transforms_per_component_not_per_candidate(self, monkeypatch):
        """Walsh transforms in an SE mixture search: one of the counts and,
        for the transformed component, one of b shared by its normalizer
        and row and one of the row, however many candidates there are."""
        n = 10
        calls = []
        real = estimators.fwht

        def spy(v):
            calls.append(1)
            return real(v)

        monkeypatch.setattr(estimators, "fwht", spy)
        monkeypatch.setattr(transforms, "fwht", spy)
        counted = []
        for denominator in (4, 8):
            rng = np.random.default_rng(91)
            counts = counts_from_observations(rng.choice([-1, 1], size=(60, n)))
            comps = [
                EstimatorConfig.transformed(
                    ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5, 3 + (1 << 6): 0.3}), Transform.logistic(3.0)
                ),
                EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5, 5: 0.25})),
                EstimatorConfig.waak(rng.uniform(0.3, 1.0, n), 2.0),
            ]
            del calls[:]
            reports, _, _ = evaluate_space(SearchSpace.mixture_weight_grid(comps, denominator), "se", counts)
            counted.append((len(reports), len(calls)))
        assert counted == [(3, 3), (21, 3)]


class TestSearchSpaceFactories:
    def test_shared_grid_order(self):
        space = SearchSpace.waak_shared_grid(3, [1.5, 2.0], [0.25, 0.75])
        params = [(cfg.gamma, float(cfg.shrinkage.w[0])) for cfg in space.configs]
        assert params == [(1.5, 0.25), (1.5, 0.75), (2.0, 0.25), (2.0, 0.75)]

    def test_product_order(self):
        space = SearchSpace.waak_product([2.0], [[0.0, 1.0], [0.5]])
        weights = [tuple(cfg.shrinkage.w) for cfg in space.configs]
        assert weights == [(0.0, 0.5), (1.0, 0.5)]

    def test_linear_sparse_grid(self):
        space = SearchSpace.linear_sparse_grid(3, [2, 5], [0.0, 1.0])
        assert len(space.configs) == 4
        for cfg in space.configs:
            assert cfg.shrinkage.first_coefficient() == 1.0
        with pytest.raises(ConfigError):
            SearchSpace.linear_sparse_grid(3, [1, 2], [0.5])
        with pytest.raises(ConfigError):
            SearchSpace.linear_sparse_grid(3, [2, 2], [0.5])

    def test_mixture_weight_grid(self):
        parts = [
            EstimatorConfig.aa_classic(3, 0.8),
            EstimatorConfig.linear(ShrinkageSpec.sparse(3, {1: 1.0})),
        ]
        space = SearchSpace.mixture_weight_grid(parts, 4)
        assert len(space.configs) == 3
        for cfg in space.configs:
            weights = [wgt for wgt, _ in cfg.components]
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
            assert all(wgt > 0 for wgt in weights)
        with pytest.raises(ConfigError):
            SearchSpace.mixture_weight_grid(parts, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_mixture_weight_grid_order(self, k):
        # Candidate order sets the tie rule: the grid keeps the order of
        # filtering every tuple in range(1, m + 1)^k down to those summing to m.
        parts = [EstimatorConfig.aa_classic(3, 0.5 + 0.1 * i) for i in range(k)]
        for m in range(k, 13):
            want = [s for s in itertools.product(range(1, m + 1), repeat=k) if sum(s) == m]
            space = SearchSpace.mixture_weight_grid(parts, m)
            assert [[wgt for wgt, _ in cfg.components] for cfg in space.configs] == [
                [a / m for a in split] for split in want
            ]
            for cfg in space.configs:
                assert [comp for _, comp in cfg.components] == parts

    def test_mixture_weight_grid_past_sys_maxsize(self):
        parts = [EstimatorConfig.aa_classic(3, 0.8), EstimatorConfig.aa_classic(3, 0.6)]
        with pytest.raises(ConfigError):
            SearchSpace.mixture_weight_grid(parts, 10**19)
        single = SearchSpace.mixture_weight_grid(parts[:1], 10**19)
        assert [[wgt for wgt, _ in cfg.components] for cfg in single.configs] == [[1.0]]

    def test_aa_grid_carries_lambda(self):
        space = SearchSpace.aa_lambda_grid(4, [0.6, 0.9])
        assert [cfg.lam for cfg in space.configs] == [0.6, 0.9]


class TestCoordinateDescent:
    def test_single_coordinate_equals_grid_search(self):
        rng = np.random.default_rng(90)
        counts = counts_from_observations(rng.choice([-1, 1], size=(10, 1)))
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        cfg, rep = coordinate_descent_w([0.5], 2.0, "kl", counts, sweeps=3, grid=grid)
        space = SearchSpace.waak_fixed_w(np.array([0.0]), [])
        # manual scan over the same one-dimensional grid
        best_val, best_w = -math.inf, None
        for v in grid:
            val = kl_risk(EstimatorConfig.waak(np.array([v]), 2.0), counts).value
            if val > best_val:
                best_val, best_w = val, v
        assert rep.value == pytest.approx(best_val, rel=1e-13)
        assert float(cfg.shrinkage.w[0]) == best_w

    def test_monotone_improvement(self):
        rng = np.random.default_rng(91)
        n = 4
        counts = counts_from_observations(rng.choice([-1, 1], size=(16, n)))
        start = np.full(n, 0.5)
        start_val = kl_risk(EstimatorConfig.waak(start, 2.0), counts).value
        cfg, rep = coordinate_descent_w(
            start, 2.0, "kl", counts, sweeps=2, grid=[0.0, 0.5, 1.0]
        )
        assert rep.value >= start_val
        se_start = se_risk(EstimatorConfig.waak(start, 2.0), counts).value
        _, se_rep = coordinate_descent_w(
            start, 2.0, "se", counts, sweeps=2, grid=[0.0, 0.5, 1.0]
        )
        assert se_rep.value <= se_start

    def test_early_stop_on_stationary_start(self):
        rng = np.random.default_rng(92)
        counts = _random_counts(rng, 3, size=8)
        cfg, rep = coordinate_descent_w(
            [0.5, 0.5, 0.5], 1.8, "kl", counts, sweeps=50, grid=[0.5]
        )
        np.testing.assert_array_equal(cfg.shrinkage.w, [0.5, 0.5, 0.5])
        want = kl_risk(EstimatorConfig.waak(np.full(3, 0.5), 1.8), counts).value
        assert rep.value == pytest.approx(want, rel=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(93)
        counts = counts_from_observations(rng.choice([-1, 1], size=(12, 3)))
        a_cfg, a_rep = coordinate_descent_w(
            [0.5, 0.5, 0.5], 2.0, "kl", counts, sweeps=2, grid=[0.0, 0.5, 1.0]
        )
        b_cfg, b_rep = coordinate_descent_w(
            [0.5, 0.5, 0.5], 2.0, "kl", counts, sweeps=2, grid=[0.0, 0.5, 1.0]
        )
        np.testing.assert_array_equal(a_cfg.shrinkage.w, b_cfg.shrinkage.w)
        assert a_rep.value == b_rep.value

    def test_downweights_independent_coordinate(self):
        # three perfectly aligned coordinates plus one fair coin; across
        # seeded repetitions the coin coordinate should carry the lowest
        # fitted weight in a clear majority of runs
        wins = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            base = rng.choice([-1, 1], size=(40, 1))
            coin = rng.choice([-1, 1], size=(40, 1))
            data = np.hstack([base, base, base, coin])
            counts = counts_from_observations(data)
            cfg, _ = coordinate_descent_w(
                np.full(4, 0.5), 3.0, "kl", counts, sweeps=2, grid=[0.0, 0.5, 1.0]
            )
            w = cfg.shrinkage.w
            if w[3] < min(w[0], w[1], w[2]):
                wins += 1
        assert wins >= 14

    @staticmethod
    def _even_code_twice(n):
        """Every cell of even parity, each observed twice: distinct cells
        differ in at least two coordinates."""
        cells = [row for row in itertools.product([1, -1], repeat=n) if math.prod(row) == 1]
        return counts_from_observations(np.array(cells + cells))

    @pytest.mark.parametrize("loss", ["kl", "se"])
    def test_first_of_tied_best_trials_wins(self, loss):
        # At gamma = 1e300 every weight of 0.6 or more makes Q exactly the
        # identity (the off-diagonal entries underflow to 0), so the trials
        # w_0 = 0.6 and w_0 = 1 tie bit for bit; both beat w_0 = 0, whose
        # entries are 1/2. The first of them in grid order is kept.
        counts = self._even_code_twice(4)
        cfg, rep = coordinate_descent_w(
            [0.0, 1.0, 1.0, 1.0], 1e300, loss, counts, sweeps=1, grid=[0.0, 0.6, 1.0]
        )
        np.testing.assert_array_equal(cfg.shrinkage.w, [0.6, 1.0, 1.0, 1.0])
        tied = (kl_risk if loss == "kl" else se_risk)(EstimatorConfig.waak([1.0] * 4, 1e300), counts)
        assert rep.value == tied.value

    @pytest.mark.parametrize("loss", ["kl", "se"])
    @pytest.mark.parametrize(
        "n, gamma, grid, start",
        [
            (3, 2.5, [0.0, 0.5, 1.0], 0.25),
            (4, 2.5, [0.25, 0.75, 0.25, 1.0], 0.5),  # a repeated value
            (5, 2.5, [0.0, 0.5, 1.0], 0.5),  # the start value is on the grid
            (6, 2.5, [1.0, 0.5, 0.5, 0.0, 0.5], 0.5),  # both
            (4, 1.0, [0.0, 0.5, 1.0], 0.5),  # every trial ties with the start
            (4, 1e300, [0.0, 0.6, 0.6, 1.0], 1.0),  # ties among the trials
        ],
    )
    def test_move_rule_matches_search_space_descent(self, loss, n, gamma, grid, start):
        for seed in range(3):
            rng = np.random.default_rng(950 + 10 * n + seed)
            rows = rng.choice([-1, 1], size=(6, n))
            for counts in (counts_from_observations(rows), self._even_code_twice(n)):
                initial = np.full(n, start)
                initial[0] = grid[0]
                got_cfg, got = coordinate_descent_w(initial, gamma, loss, counts, sweeps=3, grid=grid)
                want_cfg, want = oracles.descent_by_search_space(
                    initial, gamma, loss, counts, sweeps=3, grid=grid
                )
                assert got_cfg.shrinkage.w.tobytes() == want_cfg.shrinkage.w.tobytes()
                assert got.value == want.value or (math.isnan(got.value) and math.isnan(want.value))
                assert got.loo_terms == want.loo_terms

    def test_validation(self):
        rng = np.random.default_rng(94)
        counts = _random_counts(rng, 2, size=6)
        with pytest.raises(ConfigError):
            coordinate_descent_w([0.5, 0.5], 2.0, "kl", counts, sweeps=0, grid=[0.5])
        with pytest.raises(ConfigError):
            coordinate_descent_w([0.5, 0.5], 2.0, "kl", counts, sweeps=1, grid=[])
        with pytest.raises(ConfigError):
            coordinate_descent_w([0.5, 0.5], 2.0, "kl", counts, sweeps=1, grid=[1.5])
        with pytest.raises(ConfigError):
            coordinate_descent_w([0.5, 0.5], 2.0, "bad", counts, sweeps=1, grid=[0.5])
