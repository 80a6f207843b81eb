"""Element evaluation, counts handling, and full-vector estimation."""

import gc
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from bindens import (
    CountsVector,
    DensityEstimate,
    EstimatorConfig,
    ShrinkageSpec,
    Transform,
    clamp_and_renormalize,
    counts_from_observations,
    estimate_at,
    estimate_full,
    fwht,
    index_of_point,
    matrix_element,
    normalizer,
    shrinkage_optimal,
    squared_matrix_element,
)
from bindens import estimators, transforms
from bindens.errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateNormalizerError,
    NumericError,
    TransformOverflowError,
)

import oracles


def _random_counts(rng, n, size=12):
    cells = rng.integers(1, (1 << n) + 1, size=size)
    mapping = {}
    for c in cells:
        mapping[int(c)] = mapping.get(int(c), 0) + 1
    return CountsVector.from_cells(n, mapping)


def _unit_lead_dense(rng, n):
    b = rng.uniform(0.0, 1.0, size=1 << n)
    b[0] = 1.0
    return b


# ---------------------------------------------------------------------------
# counts


class TestCountsVector:
    def test_from_cells_sorted_and_totaled(self):
        c = CountsVector.from_cells(3, {5: 2, 1: 1, 8: 4})
        assert c.cells == ((1, 1), (5, 2), (8, 4))
        assert c.total == 7
        assert c.n == 3

    def test_observations_expand_in_order(self):
        c = CountsVector.from_cells(2, {3: 2, 1: 1})
        assert c.observations == (1, 3, 3)

    def test_count_of(self):
        c = CountsVector.from_cells(2, {3: 2})
        assert c.count_of(3) == 2
        assert c.count_of(1) == 0

    def test_to_dense_weights(self):
        c = CountsVector.from_cells(2, {1: 1, 4: 3})
        np.testing.assert_array_equal(c.to_dense(), [0.25, 0.0, 0.0, 0.75])

    def test_huge_dimension_indexes(self):
        n = 200
        top = 1 << n
        c = CountsVector.from_cells(n, {1: 1, top: 2})
        assert c.cells == ((1, 1), (top, 2))
        with pytest.raises(CapacityError):
            c.to_dense()

    def test_validation(self):
        with pytest.raises(DataError):
            CountsVector.from_cells(0, {1: 1})
        with pytest.raises(DataError):
            CountsVector.from_cells(2, {})
        with pytest.raises(DataError):
            CountsVector.from_cells(2, {5: 1})
        with pytest.raises(DataError):
            CountsVector.from_cells(2, {0: 1})
        with pytest.raises(DataError):
            CountsVector.from_cells(2, {1: 0})
        with pytest.raises(DataError):
            CountsVector.from_cells(2, {1: 1.5})

    def test_counts_from_observations_example(self):
        c = counts_from_observations([(1, -1), (1, -1), (-1, -1)])
        assert c.n == 2
        assert c.cells == ((3, 2), (4, 1))

    @pytest.fixture(params=[None, 100, 1])
    def pack_block(self, request, monkeypatch):
        """Arrays are packed a block of rows at a time; small blocks split
        even these arrays into several, down to one row per block."""
        if request.param is not None:
            monkeypatch.setattr(estimators, "_PACK_BLOCK_ENTRIES", request.param)

    @pytest.mark.parametrize("n", [1, 8, 9, 65, 1000])
    def test_counts_from_observations_int8_array(self, pack_block, n):
        rng = np.random.default_rng(n)
        rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(30, n))
        rows[10:20] = rows[:10]
        want = {}
        for row in rows:
            want[index_of_point(row)] = want.get(index_of_point(row), 0) + 1
        for points in (rows, rows.astype(float), rows.tolist()):
            c = counts_from_observations(points)
            assert (c.n, c.total) == (n, 30)
            assert c.cells == tuple(sorted(want.items()))

    def test_counts_from_observations_errors_carry_row(self, monkeypatch):
        cases = [
            ([(1, 1), (1, 2)], "observation 1: point entries must be exactly -1 or +1"),
            ([(1, 1), (1, 1, 1)], "observation 1 has 3 coordinates, expected 2"),
            ([(1, 1), ("1", "-1")], "observation 1: point entries must be numeric -1/+1 values"),
            ([(1, 1), (True, True)], "observation 1: point entries must be numeric -1/+1 values"),
            ([(1, 1), ()], "observation 1: point must be a nonempty 1-d vector"),
            (np.array([[1, -1], [-1, 1], [0, 1]], dtype=np.int8), "observation 2: point entries must be exactly -1 or +1"),
            (np.ones((2, 2, 2)), "observation 0: point must be a nonempty 1-d vector"),
            (np.ones((3, 0)), "observation 0: point must be a nonempty 1-d vector"),
            (np.ones((0, 4)), "no observations provided"),
            ([], "no observations provided"),
        ]
        # Packed a block of rows at a time: the default block, then smaller
        # ones, down to one row, so a bad row lands in a later block.
        for block in (estimators._PACK_BLOCK_ENTRIES, 100, 1):
            monkeypatch.setattr(estimators, "_PACK_BLOCK_ENTRIES", block)
            for points, message in cases:
                with pytest.raises(DataError) as info:
                    counts_from_observations(points)
                assert str(info.value) == message


class TestShrinkageSpecForms:
    def test_sparse_drops_zeros_and_sorts(self):
        s = ShrinkageSpec.sparse(3, {5: 0.25, 1: 1.0, 4: 0.0})
        assert s.nonzero_items() == [(1, 1.0), (5, 0.25)]
        assert s.num_nonzero == 2

    def test_single_interaction_index_mapping(self):
        s = ShrinkageSpec.single_interaction([0.5, 0.0, 0.75])
        assert s.nonzero_items() == [(2, 0.5), (5, 0.75)]
        assert s.first_coefficient() == 0.0

    def test_to_dense_round_trip(self):
        s = ShrinkageSpec.sparse(3, {1: 1.0, 6: 0.3})
        d = ShrinkageSpec.dense(s.to_dense())
        assert d.nonzero_items() == s.nonzero_items()

    def test_dense_validation(self):
        with pytest.raises(ValueError):
            ShrinkageSpec.dense([1.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            ShrinkageSpec.dense([1.0])
        with pytest.raises(ValueError):
            ShrinkageSpec.dense([1.0, float("nan")])

    def test_sparse_validation(self):
        with pytest.raises(ValueError):
            ShrinkageSpec.sparse(2, {5: 1.0})
        with pytest.raises(ValueError):
            ShrinkageSpec.sparse(2, {1: float("inf")})
        big = ShrinkageSpec.sparse(100, {1 << 100: 0.5})
        assert big.nonzero_items() == [(1 << 100, 0.5)]

    def test_single_interaction_validation(self):
        with pytest.raises(ValueError):
            ShrinkageSpec.single_interaction([])
        with pytest.raises(ValueError):
            ShrinkageSpec.single_interaction([1.5])
        with pytest.raises(ValueError):
            ShrinkageSpec.single_interaction([-0.1])

    def test_to_dense_capacity(self):
        with pytest.raises(CapacityError):
            ShrinkageSpec.sparse(40, {1: 1.0}).to_dense()


class TestShrinkageOptimal:
    def test_frozen_value(self):
        assert shrinkage_optimal(0.5, 4) == pytest.approx(4.0 / 7.0, rel=1e-15)

    def test_endpoints(self):
        assert shrinkage_optimal(1.0, 7) == 1.0
        assert shrinkage_optimal(-1.0, 3) == 1.0
        assert shrinkage_optimal(0.0, 9) == 0.0

    def test_single_sample_is_identity_weight(self):
        for q in (0.2, -0.9, 0.5):
            assert shrinkage_optimal(q, 1) == pytest.approx(q * q)

    def test_range_property(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            q = float(rng.uniform(-1, 1))
            N = int(rng.integers(1, 500))
            b = shrinkage_optimal(q, N)
            assert 0.0 <= b <= 1.0

    def test_increasing_in_sample_count(self):
        vals = [shrinkage_optimal(0.4, N) for N in (1, 2, 5, 50, 5000)]
        assert vals == sorted(vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            shrinkage_optimal(1.2, 5)
        with pytest.raises(ValueError):
            shrinkage_optimal(0.5, 0)
        with pytest.raises(ValueError):
            shrinkage_optimal(0.5, 2.5)


# ---------------------------------------------------------------------------
# element evaluation, linear family


class TestElementLinear:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(30)
        for n in (2, 3, 5):
            b = _unit_lead_dense(rng, n)
            q = oracles.linear_matrix_dense(b)
            cfg = EstimatorConfig.linear(ShrinkageSpec.dense(b))
            size = 1 << n
            for i in range(1, size + 1):
                for j in range(1, size + 1):
                    got = matrix_element(i, j, cfg)
                    assert got == pytest.approx(q[i - 1, j - 1], rel=1e-12, abs=1e-15)

    def test_sparse_and_dense_forms_agree(self):
        rng = np.random.default_rng(31)
        n = 8
        entries = {1: 1.0, 2: 0.5, 7: 0.25, 130: 0.8}
        sparse = ShrinkageSpec.sparse(n, entries)
        sparse_cfg = EstimatorConfig.linear(sparse)
        dense_cfg = EstimatorConfig.linear(ShrinkageSpec.dense(sparse.to_dense()))
        for _ in range(100):
            i, j = (int(v) for v in rng.integers(1, (1 << n) + 1, size=2))
            assert matrix_element(i, j, sparse_cfg) == pytest.approx(
                matrix_element(i, j, dense_cfg), rel=1e-12
            )

    def test_uniform_special_case_exact(self):
        cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(6, {1: 1.0}))
        for i, j in ((1, 1), (5, 40), (64, 64), (17, 3)):
            assert matrix_element(i, j, cfg) == 1.0 / 64.0

    def test_frequency_special_case_exact(self):
        cfg = EstimatorConfig.linear(ShrinkageSpec.dense(np.ones(16)))
        for i in (1, 7, 16):
            assert matrix_element(i, i, cfg) == 1.0
            assert matrix_element(i, (i % 16) + 1, cfg) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(32)
        cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(12, {1: 1.0, 3: 0.5, 9: 0.2, 1000: 0.9}))
        for _ in range(50):
            i, j = (int(v) for v in rng.integers(1, (1 << 12) + 1, size=2))
            assert matrix_element(i, j, cfg) == matrix_element(j, i, cfg)

    def test_depends_only_on_xor(self):
        cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(10, {1: 1.0, 4: 0.7}))
        a = matrix_element(3, 9, cfg)
        mask = (3 - 1) ^ (9 - 1)
        for shift in (5, 100, 1023):
            i = (3 - 1) ^ shift
            j = i ^ mask
            assert matrix_element(i + 1, j + 1, cfg) == pytest.approx(a, rel=1e-13)

    def test_huge_dimension_sparse(self):
        n = 300
        cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5, 1 << 299: 0.25}))
        v = matrix_element(1, 1, cfg)
        assert v == pytest.approx(1.75 * math.ldexp(1.0, -n), rel=1e-13)

    def test_shrinkage_validation(self):
        with pytest.raises(ConfigError):
            EstimatorConfig.linear(ShrinkageSpec.sparse(2, {2: 0.5}))
        with pytest.raises(ConfigError):
            EstimatorConfig.linear(ShrinkageSpec.sparse(2, {1: 0.5}))
        with pytest.raises(ConfigError):
            EstimatorConfig.linear(ShrinkageSpec.sparse(2, {1: 1.0, 2: 1.5}))
        with pytest.raises(ConfigError):
            EstimatorConfig.linear(ShrinkageSpec.single_interaction([0.5, 0.5]))

    def test_cell_validation(self):
        cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(3, {1: 1.0}))
        with pytest.raises(ValueError):
            matrix_element(0, 1, cfg)
        with pytest.raises(ValueError):
            matrix_element(1, 9, cfg)
        with pytest.raises(ValueError):
            matrix_element(True, 1, cfg)


# ---------------------------------------------------------------------------
# element evaluation, transformed family


class TestElementTransformed:
    def test_identity_matches_linear(self):
        rng = np.random.default_rng(33)
        n = 6
        b = _unit_lead_dense(rng, n)
        dense = ShrinkageSpec.dense(b)
        transformed = EstimatorConfig.transformed(dense, Transform.identity())
        linear = EstimatorConfig.linear(dense)
        for _ in range(50):
            i, j = (int(v) for v in rng.integers(1, (1 << n) + 1, size=2))
            assert matrix_element(i, j, transformed) == pytest.approx(
                matrix_element(i, j, linear), rel=1e-13
            )

    def test_matches_dense_oracle_per_kind(self):
        rng = np.random.default_rng(34)
        cases = [
            (Transform.exponential(1.3), "exponential", {"gamma": 1.3}),
            (Transform.logistic(2.7), "logistic", {"gamma": 2.7}),
            (Transform.relu(), "relu", {}),
            (Transform.tanh(0.8), "tanh", {"scale": 0.8}),
            (Transform.elu(1.2), "elu", {"alpha": 1.2}),
            (Transform.step(0.2, 0.1, 2.0), "step", {"threshold": 0.2, "low": 0.1, "high": 2.0}),
        ]
        for t, kind, params in cases:
            f = oracles.transform_callable(kind, **params)
            for n in (3, 4, 6):
                b = rng.uniform(0.0, 1.0, size=1 << n)
                b[0] = 1.0
                q = oracles.transformed_matrix_dense(b, f)
                cfg = EstimatorConfig.transformed(ShrinkageSpec.dense(b), t)
                for _ in range(40):
                    i, j = (int(v) for v in rng.integers(1, (1 << n) + 1, size=2))
                    got = matrix_element(i, j, cfg)
                    assert got == pytest.approx(q[i - 1, j - 1], rel=1e-10, abs=1e-14)

    def test_sparse_route_matches_dense_route(self):
        rng = np.random.default_rng(35)
        n = 9
        entries = {1: 1.0, 3: 0.6, 17: 0.4, 260: 0.9}
        sparse = ShrinkageSpec.sparse(n, entries)
        t = Transform.relu()
        sparse_cfg = EstimatorConfig.transformed(sparse, t)
        dense_cfg = EstimatorConfig.transformed(ShrinkageSpec.dense(sparse.to_dense()), t)
        for _ in range(80):
            i, j = (int(v) for v in rng.integers(1, (1 << n) + 1, size=2))
            assert matrix_element(i, j, sparse_cfg) == pytest.approx(
                matrix_element(i, j, dense_cfg), rel=1e-12
            )

    def test_exponential_single_interaction_equals_weighted_kernel(self):
        rng = np.random.default_rng(36)
        for n in (2, 5, 10, 200):
            w = rng.uniform(0.0, 1.0, size=n)
            g = 1.0 + float(rng.uniform(0.2, 2.0))
            transformed = EstimatorConfig.transformed(ShrinkageSpec.single_interaction(w), Transform.exponential(g))
            waak = EstimatorConfig.waak(w, g)
            for _ in range(20):
                i, j = (int(v) for v in rng.integers(1, min(1 << n, 1 << 60) + 1, size=2))
                assert matrix_element(i, j, transformed) == pytest.approx(
                    matrix_element(i, j, waak), rel=1e-12
                )

    def test_degenerate_normalizer_raises(self):
        cfg = EstimatorConfig.transformed(ShrinkageSpec.sparse(3, {2: 0.7}), Transform.tanh(1.0))
        with pytest.raises(DegenerateNormalizerError):
            matrix_element(1, 2, cfg)

    def test_negative_normalizer_raises(self):
        cfg = EstimatorConfig.transformed(ShrinkageSpec.sparse(3, {1: -0.5, 2: 0.8}), Transform.tanh(1.0))
        with pytest.raises(DegenerateNormalizerError):
            matrix_element(1, 2, cfg)

    def test_overflow_propagates(self):
        cfg = EstimatorConfig.transformed(ShrinkageSpec.dense(np.full(16, 300.0)), Transform.exponential(10.0))
        with pytest.raises(TransformOverflowError):
            matrix_element(1, 2, cfg)

    def test_argument_validation(self):
        spec = ShrinkageSpec.sparse(2, {1: 1.0})
        with pytest.raises(ConfigError):
            EstimatorConfig.transformed(spec, "relu")
        with pytest.raises(ConfigError):
            EstimatorConfig.transformed({1: 1.0}, Transform.relu())


# ---------------------------------------------------------------------------
# element evaluation, weighted product kernel


class TestElementWaak:
    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 4, 6):
            for g in (1.0, 1.5, 3.0):
                w = rng.uniform(0.0, 1.0, size=n)
                q = oracles.waak_matrix_dense(w, g)
                cfg = EstimatorConfig.waak(w, g)
                size = 1 << n
                if n <= 3:
                    pairs = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1)]
                else:
                    pairs = [
                        (int(a) + 1, int(b) + 1)
                        for a, b in rng.integers(0, size, size=(60, 2))
                    ]
                for i, j in pairs:
                    assert matrix_element(i, j, cfg) == pytest.approx(
                        q[i - 1, j - 1], rel=1e-12
                    )

    def test_classic_closed_form(self):
        lam = 0.8
        g = math.sqrt(lam / (1.0 - lam))
        assert g == pytest.approx(2.0, rel=1e-15)
        # Hamming distance 1 at n = 3
        got = matrix_element(1, 2, EstimatorConfig.waak(np.ones(3), g))
        assert got == pytest.approx(0.128, rel=1e-12)

    def test_classic_closed_form_all_distances(self):
        rng = np.random.default_rng(38)
        for n in (2, 5, 9):
            lam = float(rng.uniform(0.55, 0.95))
            g = math.sqrt(lam / (1.0 - lam))
            cfg = EstimatorConfig.waak(np.ones(n), g)
            for _ in range(30):
                i, j = (int(v) for v in rng.integers(1, (1 << n) + 1, size=2))
                d = ((i - 1) ^ (j - 1)).bit_count()
                want = lam ** (n - d) * (1.0 - lam) ** d
                assert matrix_element(i, j, cfg) == pytest.approx(want, rel=1e-10)

    def test_unit_base_is_uniform(self):
        cfg = EstimatorConfig.waak(np.array([0.3, 0.9, 0.1, 0.7]), 1.0)
        for i, j in ((1, 1), (4, 13), (16, 2)):
            assert matrix_element(i, j, cfg) == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_zero_weights_are_uniform(self):
        assert matrix_element(3, 6, EstimatorConfig.waak(np.zeros(3), 4.0)) == pytest.approx(0.125, rel=1e-14)

    def test_zero_weight_coordinate_is_ignored(self):
        cfg = EstimatorConfig.waak(np.array([0.6, 0.0, 0.4]), 2.5)
        # flipping coordinate 2 does not change the value
        assert matrix_element(1, 3, cfg) == pytest.approx(matrix_element(1, 1, cfg), rel=1e-13)

    def test_symmetry_and_translation_invariance(self):
        rng = np.random.default_rng(39)
        cfg = EstimatorConfig.waak(rng.uniform(0.0, 1.0, size=11), 1.9)
        size = 1 << 11
        for _ in range(60):
            i, j, s = (int(v) for v in rng.integers(0, size, size=3))
            a = matrix_element(i + 1, j + 1, cfg)
            assert a == matrix_element(j + 1, i + 1, cfg)
            assert a == pytest.approx(
                matrix_element((i ^ s) + 1, (j ^ s) + 1, cfg), rel=1e-13
            )

    def test_row_sums_to_one(self):
        rng = np.random.default_rng(40)
        n = 7
        cfg = EstimatorConfig.waak(rng.uniform(0.0, 1.0, size=n), 2.2)
        total = sum(matrix_element(5, j, cfg) for j in range(1, (1 << n) + 1))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_huge_dimension(self):
        n = 10_000
        rng = np.random.default_rng(41)
        cfg = EstimatorConfig.waak(rng.uniform(0.0, 1.0, size=n), 3.0)
        i = int(rng.integers(1, 1 << 60))
        j = int(rng.integers(1, 1 << 60))
        v = matrix_element(i, j, cfg)
        assert v >= 0.0
        assert v == matrix_element(j, i, cfg)

    def test_validation(self):
        # A bad base or weight is the configuration's error; a cell out of
        # range is the entry's.
        with pytest.raises(ConfigError):
            EstimatorConfig.waak(np.ones(3), 0.5)
        with pytest.raises(ConfigError):
            EstimatorConfig.waak(np.array([1.5, 0.5]), 2.0)
        with pytest.raises(ConfigError):
            EstimatorConfig.waak(np.array([-0.2, 0.5]), 2.0)
        with pytest.raises(ValueError):
            matrix_element(9, 1, EstimatorConfig.waak(np.ones(3), 2.0))


# ---------------------------------------------------------------------------
# squared elements


class TestSquaredElements:
    def test_xor_dot_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(32)
        for x in range(32):
            want = sum(v[m] * v[m ^ x] for m in range(32))
            assert estimators.xor_dot(v, x) == pytest.approx(want, rel=1e-12)

    def test_linear_matches_dense_squaring(self):
        rng = np.random.default_rng(42)
        for n in (3, 5, 7):
            b = _unit_lead_dense(rng, n)
            q = oracles.linear_matrix_dense(b)
            q2 = q @ q
            dense_cfg = EstimatorConfig.linear(ShrinkageSpec.dense(b))
            sparse_cfg = EstimatorConfig.linear(
                ShrinkageSpec.sparse(n, dict(ShrinkageSpec.dense(b).nonzero_items()))
            )
            size = 1 << n
            for _ in range(60):
                i, j = (int(v) for v in rng.integers(1, size + 1, size=2))
                want = q2[i - 1, j - 1]
                assert squared_matrix_element(i, j, dense_cfg) == pytest.approx(
                    want, rel=1e-9, abs=1e-14
                )
                assert squared_matrix_element(i, j, sparse_cfg) == pytest.approx(
                    want, rel=1e-9, abs=1e-14
                )

    def test_linear_special_cases(self):
        uniform = EstimatorConfig.linear(ShrinkageSpec.sparse(5, {1: 1.0}))
        assert squared_matrix_element(3, 17, uniform) == 1.0 / 32.0
        freq = EstimatorConfig.linear(ShrinkageSpec.dense(np.ones(8)))
        assert squared_matrix_element(4, 4, freq) == 1.0
        assert squared_matrix_element(4, 5, freq) == 0.0

    def test_waak_matches_dense_squaring(self):
        rng = np.random.default_rng(43)
        for n in (3, 5, 7):
            w = rng.uniform(0.0, 1.0, size=n)
            g = 1.0 + float(rng.uniform(0.1, 2.5))
            q = oracles.waak_matrix_dense(w, g)
            q2 = q @ q
            cfg = EstimatorConfig.waak(w, g)
            size = 1 << n
            for _ in range(60):
                i, j = (int(v) for v in rng.integers(1, size + 1, size=2))
                assert squared_matrix_element(i, j, cfg) == pytest.approx(
                    q2[i - 1, j - 1], rel=1e-9
                )

    def test_waak_squared_uniform_base(self):
        cfg = EstimatorConfig.waak(np.ones(4), 1.0)
        assert squared_matrix_element(2, 7, cfg) == pytest.approx(1.0 / 16.0, rel=1e-13)

    def test_general_matches_dense_squaring(self):
        rng = np.random.default_rng(44)
        cases = [
            (Transform.logistic(2.0), "logistic", {"gamma": 2.0}),
            (Transform.relu(), "relu", {}),
            (Transform.tanh(0.7), "tanh", {"scale": 0.7}),
        ]
        for t, kind, params in cases:
            f = oracles.transform_callable(kind, **params)
            for n in (3, 5, 6):
                b = rng.uniform(0.0, 1.0, size=1 << n)
                b[0] = 1.0
                q = oracles.transformed_matrix_dense(b, f)
                q2 = q @ q
                cfg = EstimatorConfig.transformed(ShrinkageSpec.dense(b), t)
                size = 1 << n
                for _ in range(40):
                    i, j = (int(v) for v in rng.integers(1, size + 1, size=2))
                    assert squared_matrix_element(i, j, cfg) == pytest.approx(
                        q2[i - 1, j - 1], rel=1e-9, abs=1e-14
                    )

    def test_general_agrees_with_waak_shortcut(self):
        rng = np.random.default_rng(45)
        for n in (3, 6, 8):
            w = rng.uniform(0.05, 1.0, size=n)
            g = 1.0 + float(rng.uniform(0.2, 2.0))
            transformed = EstimatorConfig.transformed(ShrinkageSpec.single_interaction(w), Transform.exponential(g))
            waak = EstimatorConfig.waak(w, g)
            for _ in range(30):
                i, j = (int(v) for v in rng.integers(1, (1 << n) + 1, size=2))
                assert squared_matrix_element(i, j, transformed) == pytest.approx(
                    squared_matrix_element(i, j, waak), rel=1e-12
                )

    def test_general_identity_agrees_with_linear_shortcut(self):
        # Both kernels read one xor_dot over the same dense row, fwht(b) / 2^n.
        rng = np.random.default_rng(46)
        n = 6
        b = _unit_lead_dense(rng, n)
        spec = ShrinkageSpec.dense(b)
        transformed = EstimatorConfig.transformed(spec, Transform.identity())
        linear = EstimatorConfig.linear(spec)
        for _ in range(30):
            i, j = (int(v) for v in rng.integers(1, (1 << n) + 1, size=2))
            assert squared_matrix_element(i, j, transformed) == squared_matrix_element(i, j, linear)

    def test_general_capacity_guard(self):
        cfg = EstimatorConfig.transformed(ShrinkageSpec.sparse(40, {1: 1.0, 2: 0.5}), Transform.relu())
        with pytest.raises(CapacityError):
            squared_matrix_element(1, 1, cfg)

    def test_config_level_dispatch(self):
        rng = np.random.default_rng(47)
        n = 4
        w = rng.uniform(0.0, 1.0, size=n)
        configs = [
            EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 3: 0.5})),
            EstimatorConfig.waak(w, 2.0),
            EstimatorConfig.aa_classic(n, 0.8),
            EstimatorConfig.transformed(
                ShrinkageSpec.single_interaction(w), Transform.logistic(2.0)
            ),
        ]
        for cfg in configs:
            q = np.array(
                [
                    [matrix_element(i, j, cfg) for j in range(1, 17)]
                    for i in range(1, 17)
                ]
            )
            q2 = q @ q
            for _ in range(20):
                i, j = (int(v) for v in rng.integers(1, 17, size=2))
                assert squared_matrix_element(i, j, cfg) == pytest.approx(
                    q2[i - 1, j - 1], rel=1e-9, abs=1e-14
                )


# ---------------------------------------------------------------------------
# mixtures and config dispatch


class TestMixture:
    def test_single_component_reduces(self):
        cfg = EstimatorConfig.waak(np.array([0.5, 0.5, 0.5]), 2.0)
        mix = EstimatorConfig.mixture([(1.0, cfg)])
        for i, j in ((1, 1), (3, 8), (5, 2)):
            assert matrix_element(i, j, mix) == matrix_element(i, j, cfg)

    def test_two_component_convex_combination(self):
        rng = np.random.default_rng(48)
        n = 4
        a = EstimatorConfig.waak(rng.uniform(0, 1, size=n), 1.8)
        b = EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0}))
        mix = EstimatorConfig.mixture([(0.3, a), (0.7, b)])
        for _ in range(30):
            i, j = (int(v) for v in rng.integers(1, 17, size=2))
            want = 0.3 * matrix_element(i, j, a) + 0.7 * matrix_element(i, j, b)
            assert matrix_element(i, j, mix) == pytest.approx(want, rel=1e-13)

    def test_mixture_of_classic_and_uniform(self):
        comps = [
            (0.5, EstimatorConfig.aa_classic(3, 0.9)),
            (0.5, EstimatorConfig.linear(ShrinkageSpec.sparse(3, {1: 1.0}))),
        ]
        got = matrix_element(2, 6, EstimatorConfig.mixture(comps))
        want = 0.5 * matrix_element(2, 6, comps[0][1]) + 0.5 / 8.0
        assert got == pytest.approx(want, rel=1e-13)

    def test_squared_mixture_matches_dense(self):
        rng = np.random.default_rng(49)
        n = 4
        mix = EstimatorConfig.mixture(
            [
                (0.4, EstimatorConfig.waak(rng.uniform(0, 1, size=n), 2.2)),
                (0.6, EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5}))),
            ]
        )
        q = np.array(
            [[matrix_element(i, j, mix) for j in range(1, 17)] for i in range(1, 17)]
        )
        q2 = q @ q
        for _ in range(25):
            i, j = (int(v) for v in rng.integers(1, 17, size=2))
            assert squared_matrix_element(i, j, mix) == pytest.approx(
                q2[i - 1, j - 1], rel=1e-9, abs=1e-14
            )

    def test_validation(self):
        good = EstimatorConfig.aa_classic(3, 0.8)
        with pytest.raises(ConfigError):
            EstimatorConfig.mixture([])
        with pytest.raises(ConfigError):
            EstimatorConfig.mixture([(0.5, good)])
        with pytest.raises(ConfigError):
            EstimatorConfig.mixture([(-0.5, good), (1.5, good)])
        with pytest.raises(ConfigError):
            EstimatorConfig.mixture([(1.0, "uniform")])
        nested = EstimatorConfig.mixture([(1.0, good)])
        with pytest.raises(ConfigError):
            EstimatorConfig.mixture([(1.0, nested)])
        other_n = EstimatorConfig.aa_classic(4, 0.8)
        with pytest.raises(ConfigError):
            EstimatorConfig.mixture([(0.5, good), (0.5, other_n)])


class TestEstimatorConfig:
    def test_waak_validation(self):
        with pytest.raises(ConfigError):
            EstimatorConfig.waak(np.ones(3), 0.9)
        with pytest.raises(ConfigError):
            EstimatorConfig.waak(np.array([2.0]), 1.5)

    def test_aa_classic_validation(self):
        with pytest.raises(ConfigError):
            EstimatorConfig.aa_classic(3, 0.3)
        with pytest.raises(ConfigError):
            EstimatorConfig.aa_classic(3, 1.0)
        with pytest.raises(ConfigError):
            EstimatorConfig.aa_classic(0, 0.8)

    def test_aa_classic_equals_unit_weight_kernel(self):
        lam = 0.85
        cfg = EstimatorConfig.aa_classic(5, lam)
        unit = EstimatorConfig.waak(np.ones(5), math.sqrt(lam / (1.0 - lam)))
        rng = np.random.default_rng(50)
        for _ in range(30):
            i, j = (int(v) for v in rng.integers(1, 33, size=2))
            assert matrix_element(i, j, cfg) == pytest.approx(
                matrix_element(i, j, unit), rel=1e-13
            )

    def test_dimension_property(self):
        assert EstimatorConfig.aa_classic(7, 0.8).n == 7
        assert EstimatorConfig.linear(ShrinkageSpec.sparse(3, {1: 1.0})).n == 3
        mix = EstimatorConfig.mixture([(1.0, EstimatorConfig.aa_classic(4, 0.9))])
        assert mix.n == 4

    @pytest.mark.parametrize("form", ["dense", "sparse"])
    def test_linear_names_first_coefficient_outside_unit_interval(self, form):
        values = [1.0, 0.5, 0.0, 1.5, 0.25, -0.5, 1.0, 0.0]
        spec = (
            ShrinkageSpec.dense(values)
            if form == "dense"
            else ShrinkageSpec.sparse(3, {j + 1: v for j, v in enumerate(values)})
        )
        with pytest.raises(ConfigError) as info:
            EstimatorConfig.linear(spec)
        assert str(info.value) == "linear shrinkage coefficient 1.5 at index 4 lies outside [0, 1]"

    def test_linear_factory_validation(self):
        with pytest.raises(ConfigError):
            EstimatorConfig.linear(ShrinkageSpec.sparse(3, {2: 0.5}))
        with pytest.raises(ConfigError):
            EstimatorConfig.transformed(ShrinkageSpec.sparse(3, {1: 1.0}), "relu")


# ---------------------------------------------------------------------------
# distances of the batched core


def _clustered_cells(rng, n, k, prototypes=3, flip=0.1):
    """k cell indexes near a few prototype points (duplicates possible)."""
    protos = rng.integers(0, 2, size=(prototypes, n))
    cells = []
    for r in range(k):
        bits = protos[r % prototypes] ^ (rng.random(n) < flip)
        cells.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little") + 1)
    return cells


class TestDistanceRoutes:
    @pytest.mark.parametrize("n", [7, 64, 65, 1000, 10_000])
    def test_hamming_matches_bit_count(self, n):
        rng = np.random.default_rng(n)
        rows = _clustered_cells(rng, n, 9)
        cols = _clustered_cells(rng, n, 5) + rows[:2]
        packed = estimators._as_cells(rows, n)
        got_self = packed.hamming
        got_cross = estimators._hamming(packed, estimators._as_cells(cols, n))
        for got, col_cells in ((got_self, rows), (got_cross, cols)):
            want = [[((r - 1) ^ (c - 1)).bit_count() for c in col_cells] for r in rows]
            assert got.tolist() == want

    @pytest.mark.parametrize("n", [16, 1000, 10_000])
    def test_uniform_route_agrees_with_float_route(self, n):
        rng = np.random.default_rng(n + 1)
        support = estimators._as_cells(_clustered_cells(rng, n, 12), n)
        queries = estimators._as_cells(_clustered_cells(rng, n, 5), n)
        weights = np.full(n, 0.8 * math.log(3.0))
        for rows, cols in ((support, support), (queries, support)):
            c, hamming = estimators._weighted_distance(rows, cols, weights)
            assert c == weights[0] and hamming.dtype == np.int32
            exact = c * hamming
            floats = estimators._float_distance(rows, cols, weights)
            off = estimators._hamming(rows, cols) > 0
            np.testing.assert_allclose(exact[off], floats[off], rtol=1e-12)
            assert np.all(exact[~off] == 0.0)

    def test_float_route_self_distance_is_zero(self):
        n = 1000
        rng = np.random.default_rng(52)
        cells = _clustered_cells(rng, n, 16)
        cfg = EstimatorConfig.waak(rng.uniform(0.1, 1.0, n), 3.0)
        diagonal = np.diag(cfg._gram(cells, cells))
        assert np.all(diagonal == np.exp(np.full(len(cells), cfg._waak.log_diagonal)))

    @pytest.mark.parametrize("n", [16, 1000, 10_000])
    def test_float_route_equal_cells_are_zero_across_lists(self, n):
        """A queried cell that is also a support cell sits at distance 0
        from it, though query and support are different packed lists."""
        rng = np.random.default_rng(n + 2)
        support = _clustered_cells(rng, n, 20)
        counts = CountsVector.from_cells(n, {cell: 1 for cell in support})
        cfg = EstimatorConfig.waak(rng.uniform(0.1, 1.0, n), 3.0)
        queries = [cell for cell, _ in counts.cells] + _clustered_cells(rng, n, 4)
        gram = cfg._gram(queries, counts._packed)
        for r, cell in enumerate(queries):
            for c, (other, _) in enumerate(counts.cells):
                if cell == other:
                    assert gram[r, c] == math.exp(cfg._waak.log_diagonal)

    def test_hamming_blocks_its_temporaries(self):
        n, k = 10_000, 300
        cells = estimators._as_cells(_clustered_cells(np.random.default_rng(53), n, k), n)
        words = cells.words.shape[1]
        gc.collect()
        tracemalloc.start()
        try:
            distances = cells.hamming
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert distances.shape == (k, k)
        # One byte per entry: a k x k x words temporary of any dtype exceeds it.
        assert peak < k * k * words, f"peak {peak} bytes"


# ---------------------------------------------------------------------------
# Walsh diagonals: Q = W diag(s) W / 2^n


def _spectrum_of_row(cfg):
    return estimators.fwht(cfg._profile())


class TestWalshDiagonal:
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_product_form_diagonal_is_transform_of_row(self, n):
        rng = np.random.default_rng(n + 70)
        for cfg in (EstimatorConfig.waak(rng.uniform(0.5, 1.0, n), 4.0), EstimatorConfig.aa_classic(n, 0.9)):
            got = cfg._spectrum()
            np.testing.assert_allclose(got, _spectrum_of_row(cfg), rtol=1e-12)
            assert np.all(got >= 0.0)

    def test_product_form_diagonal_is_nonnegative_at_any_weight(self):
        w = np.array([0.0, 1e-9, 0.3, 1.0, 1.0, 0.05])
        got = EstimatorConfig.waak(w, 50.0)._spectrum()
        assert got[0] == 1.0
        assert np.all(got >= 0.0)

    def test_linear_diagonal_is_shrinkage(self):
        rng = np.random.default_rng(71)
        dense = ShrinkageSpec.dense(np.concatenate([[1.0], rng.uniform(0.0, 1.0, size=255)]))
        sparse = ShrinkageSpec.sparse(8, {1: 1.0, 4: 0.5, 130: 0.25})
        for spec in (dense, sparse):
            assert np.array_equal(EstimatorConfig.linear(spec)._spectrum(), spec.to_dense())

    @pytest.mark.parametrize(
        "spec",
        [ShrinkageSpec.single_interaction(np.full(9, 0.6)), ShrinkageSpec.sparse(9, {1: 1.0, 2: 0.7, 6: 0.4, 260: 0.3})],
    )
    def test_transformed_diagonal_is_one_transform_of_row_kept(self, spec, monkeypatch):
        cfg = EstimatorConfig.transformed(spec, Transform.logistic(3.0))
        want = estimators.fwht(cfg._row)
        calls = []
        monkeypatch.setattr(estimators, "fwht", lambda v: calls.append(1) or want)
        assert np.array_equal(cfg._spectrum(), want)
        assert cfg._spectrum() is cfg._spectrum()
        assert len(calls) == 1

    def test_mixture_diagonal_is_weighted_sum(self):
        n = 7
        rng = np.random.default_rng(72)
        parts = [
            (0.5, EstimatorConfig.transformed(ShrinkageSpec.sparse(n, {1: 1.0, 3: 0.5, 6: 0.3}), Transform.tanh(0.8))),
            (0.3, EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 9: 0.2}))),
            (0.2, EstimatorConfig.waak(rng.uniform(0.2, 1.0, n), 2.0)),
        ]
        cfg = EstimatorConfig.mixture(parts)
        np.testing.assert_allclose(cfg._spectrum(), _spectrum_of_row(cfg), rtol=1e-12, atol=1e-15)

    def test_capacity_guard(self):
        n = 31
        cfg = EstimatorConfig.mixture([(0.5, EstimatorConfig.waak(np.full(n, 0.5), 2.0)), (0.5, EstimatorConfig.aa_classic(n, 0.8))])
        with pytest.raises(CapacityError):
            cfg._spectrum()


class TestSummedNormalizer:
    """A transformed kernel with no closed-form Z takes Z and its dense row
    from one transform of b."""

    @pytest.mark.parametrize("norm_first", [True, False])
    def test_one_transform_serves_normalizer_and_row(self, norm_first, monkeypatch):
        spec = ShrinkageSpec.sparse(10, {1: 1.0, 2: 0.6, 5: 0.4, 3 + (1 << 7): 0.3})
        cfg = EstimatorConfig.transformed(spec, Transform.logistic(3.0))
        calls = []
        real = estimators.fwht

        def spy(v):
            calls.append(1)
            return real(v)

        monkeypatch.setattr(estimators, "fwht", spy)
        monkeypatch.setattr(transforms, "fwht", spy)
        if norm_first:
            norm, row = cfg._norm, cfg._row
        else:
            row, norm = cfg._row, cfg._norm
        assert len(calls) == 1
        assert norm == normalizer(Transform.logistic(3.0), spec)
        raw = real(spec.to_dense())
        assert np.array_equal(row, estimators.apply(Transform.logistic(3.0), raw) / norm.value)

    def test_row_refuses_degenerate_sum_before_dividing(self):
        cfg = EstimatorConfig.transformed(ShrinkageSpec.sparse(4, {2: 1.0}), Transform.tanh(1.0))
        with pytest.raises(DegenerateNormalizerError):
            cfg._row

    def test_rounding_error_sum_is_not_positive(self):
        # b_1 = 0, so the identity's row sums to exactly 0; the summed row
        # leaves up to 0.38 * eps * sum(|f|), positive for 18 of these pairs.
        accepted = []
        for n in range(2, 15):
            counts = counts_from_observations(np.ones((1, n), dtype=np.int8))
            for w in (0.1, 0.2, 0.3, 0.7, 0.9):
                cfg = EstimatorConfig.transformed(ShrinkageSpec.single_interaction(np.full(n, w)), Transform.identity())
                try:
                    estimate_at([1], cfg, counts)
                    accepted.append((n, w))
                except DegenerateNormalizerError:
                    pass
        assert accepted == []

    def test_small_genuine_sum_is_kept(self):
        # Z is about 9006 * eps * sum(|f|), far outside the band of 12.
        spec = ShrinkageSpec.sparse(12, {1: 1e-12, 2: 0.5, 5: 0.3})
        norm = normalizer(Transform.identity(), spec)
        values = fwht(spec.to_dense())
        assert norm.value == float(np.sum(values)) > 0
        assert norm.value > 9000 * math.ulp(1.0) * np.sum(np.abs(values))
        cfg = EstimatorConfig.transformed(spec, Transform.identity())
        assert np.isfinite(estimate_at([1, 2], cfg, _random_counts(np.random.default_rng(3), 12)).values).all()


# ---------------------------------------------------------------------------
# estimates


class TestEstimateAt:
    def test_uniform_config_exact(self):
        rng = np.random.default_rng(51)
        counts = _random_counts(rng, 5)
        cfg = EstimatorConfig.linear(ShrinkageSpec.sparse(5, {1: 1.0}))
        est = estimate_at(range(1, 33), cfg, counts)
        assert all(v == 1.0 / 32.0 for v in est.values)
        assert not est.negativity

    def test_frequency_config_exact(self):
        rng = np.random.default_rng(52)
        counts = _random_counts(rng, 4, size=9)
        cfg = EstimatorConfig.linear(ShrinkageSpec.dense(np.ones(16)))
        est = estimate_at(range(1, 17), cfg, counts)
        for cell in range(1, 17):
            assert est.values[cell - 1] == counts.count_of(cell) / counts.total

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(53)
        for n in (3, 4, 5):
            counts = _random_counts(rng, n)
            w = rng.uniform(0.0, 1.0, size=n)
            cfg = EstimatorConfig.waak(w, 2.1)
            q = oracles.waak_matrix_dense(w, 2.1)
            want = oracles.estimate_dense(q, counts)
            est = estimate_at(range(1, (1 << n) + 1), cfg, counts)
            np.testing.assert_allclose(est.values, want, rtol=1e-10)

    def test_full_query_sums_to_one(self):
        rng = np.random.default_rng(54)
        n = 5
        counts = counts_from_observations(rng.choice([-1, 1], size=(20, n)))
        cfg = EstimatorConfig.waak(rng.uniform(0, 1, size=n), 2.5)
        est = estimate_at(range(1, 33), cfg, counts)
        assert float(est.values.sum()) == pytest.approx(1.0, abs=1e-10)

    def test_negativity_flag(self):
        rng = np.random.default_rng(55)
        n = 4
        counts = _random_counts(rng, n, size=6)
        spec = ShrinkageSpec.dense(_unit_lead_dense(rng, n))
        cfg = EstimatorConfig.transformed(spec, Transform.tanh(0.9))
        est = estimate_at(range(1, 17), cfg, counts)
        assert est.negativity == bool(np.any(est.values < 0))
        uni = estimate_at([1, 2], EstimatorConfig.aa_classic(n, 0.8), counts)
        assert not uni.negativity

    def test_deterministic(self):
        rng = np.random.default_rng(56)
        counts = _random_counts(rng, 6)
        cfg = EstimatorConfig.waak(rng.uniform(0, 1, size=6), 1.7)
        a = estimate_at([3, 10, 40], cfg, counts)
        b = estimate_at([3, 10, 40], cfg, counts)
        np.testing.assert_array_equal(a.values, b.values)

    def test_metadata(self):
        counts = CountsVector.from_cells(3, {2: 3, 7: 1})
        cfg = EstimatorConfig.aa_classic(3, 0.9)
        est = estimate_at([5, 1], cfg, counts)
        assert est.cells == (5, 1)
        assert est.n == 3
        assert len(est.normalizers) == 1
        assert est.values.shape == (2,)

    def test_validation(self):
        counts = CountsVector.from_cells(3, {2: 3})
        cfg = EstimatorConfig.aa_classic(3, 0.9)
        with pytest.raises(ValueError):
            estimate_at([], cfg, counts)
        with pytest.raises(ValueError):
            estimate_at([9], cfg, counts)
        with pytest.raises(ConfigError):
            estimate_at([1], EstimatorConfig.aa_classic(4, 0.9), counts)
        with pytest.raises(DataError):
            estimate_at([1], cfg, {2: 3})
        # a non-config is refused before the counts are looked at
        for data in (counts, {2: 3}):
            with pytest.raises(ConfigError):
                estimate_at([1], "cfg", data)
            with pytest.raises(ConfigError):
                estimate_full("cfg", data)
        with pytest.raises(DataError):
            estimate_full(cfg, {2: 3})
        with pytest.raises(ConfigError):
            matrix_element(1, 2, "cfg")

    def test_huge_dimension_smoke(self):
        n = 10_000
        rng = np.random.default_rng(57)
        pts = rng.choice([-1, 1], size=(4, n))
        counts = counts_from_observations(pts)
        cfg = EstimatorConfig.waak(rng.uniform(0, 1, size=n), 2.0)
        est = estimate_at([1, int(rng.integers(1, 1 << 60))], cfg, counts)
        assert est.values.shape == (2,)
        assert np.all(est.values >= 0)

    @pytest.mark.parametrize("n", [8, 1000, 10_000])
    def test_single_kernel_normalizers_are_transforms_normalizer(self, n):
        """Linear kernels report the identity's Z and waak kernels the
        exponential's, as transforms.normalizer computes them."""
        rng = np.random.default_rng(58)
        w = rng.uniform(0.5, 1.0, size=n)
        sparse = ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5, 3: 0.25})
        aa = EstimatorConfig.aa_classic(n, 0.8)
        cases = [
            (EstimatorConfig.waak(w, 3.0), Transform.exponential(3.0), ShrinkageSpec.single_interaction(w)),
            (aa, Transform.exponential(aa.gamma), aa.shrinkage),
            (EstimatorConfig.linear(sparse), Transform.identity(), sparse),
        ]
        if n == 8:
            dense = ShrinkageSpec.dense(np.concatenate([[1.0], rng.uniform(0.0, 1.0, size=255)]))
            cases.append((EstimatorConfig.linear(dense), Transform.identity(), dense))
        cell = int(rng.integers(1, 1 << 60)) if n > 60 else 7
        counts = CountsVector.from_cells(n, {1: 2, cell: 1})
        for config, transform, spec in cases:
            got = estimate_at([cell], config, counts).normalizers
            assert got == (normalizer(transform, spec),)
            if n == 10_000:
                assert math.isinf(got[0].value)


class TestEstimateFull:
    def test_matches_estimate_at(self):
        rng = np.random.default_rng(58)
        n = 6
        counts = _random_counts(rng, n)
        configs = [
            EstimatorConfig.linear(ShrinkageSpec.dense(_unit_lead_dense(rng, n))),
            EstimatorConfig.waak(rng.uniform(0, 1, size=n), 2.3),
            EstimatorConfig.transformed(
                ShrinkageSpec.sparse(n, {1: 1.0, 3: 0.5, 33: 0.25}), Transform.relu()
            ),
            EstimatorConfig.mixture(
                [
                    (0.5, EstimatorConfig.aa_classic(n, 0.8)),
                    (0.5, EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0}))),
                ]
            ),
        ]
        for cfg in configs:
            full = estimate_full(cfg, counts)
            at = estimate_at(range(1, (1 << n) + 1), cfg, counts)
            np.testing.assert_allclose(full.values, at.values, rtol=1e-12, atol=1e-16)
            assert full.cells is None

    @pytest.mark.parametrize("n", [10, 16])
    def test_gather_is_bit_identical_to_reference(self, n):
        """A transformed kernel whose Walsh route does not certify gathers
        its row per support cell, as the reference does: here a peaked
        exponential over pairwise shrinkage, whose far entries fall below
        the transforms' rounding."""
        rng = np.random.default_rng(61 + n)
        counts = _random_counts(rng, n, size=60)
        chain = ShrinkageSpec.sparse(n, {1: 1.0, **{(1 << d) + (1 << (d + 1)) + 1: 1.0 for d in range(n - 1)}})
        for gamma in (10.0, 20.0):
            cfg = EstimatorConfig.transformed(chain, Transform.exponential(gamma))
            full = estimate_full(cfg, counts)
            assert full._bound is None
            assert np.array_equal(full.values, oracles.gather_estimate(cfg._profile(), counts))

    def test_linear_is_the_double_transform_bit_for_bit(self):
        rng = np.random.default_rng(62)
        n = 12
        b = _unit_lead_dense(rng, n)
        counts = _random_counts(rng, n, size=40)
        want = fwht(fwht(counts.to_dense()) * b) * 2.0**-n
        full = estimate_full(EstimatorConfig.linear(ShrinkageSpec.dense(b)), counts)
        assert np.array_equal(full.values, want)

    def test_linear_spectral_route_matches_oracle(self):
        rng = np.random.default_rng(59)
        n = 5
        b = _unit_lead_dense(rng, n)
        counts = _random_counts(rng, n)
        q = oracles.linear_matrix_dense(b)
        want = oracles.estimate_dense(q, counts)
        full = estimate_full(EstimatorConfig.linear(ShrinkageSpec.dense(b)), counts)
        np.testing.assert_allclose(full.values, want, rtol=1e-10, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(60)
        n = 7
        counts = _random_counts(rng, n, size=25)
        for cfg in (
            EstimatorConfig.waak(rng.uniform(0, 1, size=n), 3.0),
            EstimatorConfig.transformed(
                ShrinkageSpec.single_interaction(rng.uniform(0, 1, size=n)),
                Transform.logistic(2.0),
            ),
        ):
            full = estimate_full(cfg, counts)
            assert float(full.values.sum()) == pytest.approx(1.0, abs=1e-11)

    def test_capacity_guard(self):
        n = 21
        counts = CountsVector.from_cells(n, {1: 1})
        cfg = EstimatorConfig.waak(np.ones(n) * 0.5, 2.0)
        with pytest.raises(CapacityError):
            estimate_full(cfg, counts)


def _clustered_counts(rng, n, k, flip=0.15, prototypes=4):
    """k distinct cells drawn around a few prototype points, seen once or twice."""
    protos = rng.choice([-1, 1], size=(prototypes, n))
    rows = {}
    while len(rows) < k:
        proto = protos[len(rows) % prototypes]
        row = np.where(rng.random(n) < flip, -proto, proto)
        rows[row.tobytes()] = row
    rows = np.array(list(rows.values()))
    return counts_from_observations(np.repeat(rows, rng.integers(1, 3, k), axis=0))


def _walsh_cases(n):
    """Smooth kernels of every non-linear variant, and mixtures of them."""
    rng = np.random.default_rng(n + 200)
    single = ShrinkageSpec.single_interaction(rng.uniform(0.1, 0.4, n))
    waak = EstimatorConfig.waak(rng.uniform(0.2, 0.8, n), 2.0)
    logistic = EstimatorConfig.transformed(single, Transform.logistic(2.0))
    exponential = EstimatorConfig.transformed(single, Transform.exponential(2.0))
    aa = EstimatorConfig.aa_classic(n, 0.7)
    linear = EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 3: 0.12, (1 << n) - 5: 0.12}))
    pairs = {1: 1.0, **{(1 << d) + (1 << (d + 1)) + 1: 0.2 for d in range(0, n - 1, 3)}}
    pairwise = EstimatorConfig.transformed(ShrinkageSpec.sparse(n, pairs), Transform.logistic(3.0))
    return [
        ("waak", waak),
        ("aa_classic", aa),
        ("logistic", logistic),
        ("exponential", exponential),
        ("mixture-logistic-linear-waak", EstimatorConfig.mixture([(0.25, pairwise), (0.25, linear), (0.5, waak)])),
        ("mixture-aa-exponential", EstimatorConfig.mixture([(0.5, aa), (0.5, exponential)])),
    ]


class TestWalshRoute:
    """Non-linear full estimates as fwht(s * fwht(p)) / 2^n, kept when the
    a-priori error bound certifies them."""

    @pytest.mark.parametrize(
        "n, index",
        [(n, i) for n in (8, 12, 16) for i in range(len(_walsh_cases(n)))],
        ids=[f"n{n}-{name}" for n in (8, 12, 16) for name, _ in _walsh_cases(n)],
    )
    def test_smooth_kernels_certify_and_match_the_gather(self, n, index):
        _, cfg = _walsh_cases(n)[index]
        counts = _clustered_counts(np.random.default_rng(n), n, 60)
        full = estimate_full(cfg, counts)
        assert full._bound is not None
        want = oracles.gather_estimate(cfg._profile(), counts)
        # The gather's own rounding: K + 1 roundings of a sum of positive terms.
        slack = full._bound + (len(counts.cells) + 1) * np.finfo(float).eps * np.abs(want)
        assert np.all(np.abs(full.values - want) <= slack)
        assert np.all(np.abs(full.values - want) <= 2.0**-30 * np.abs(want))
        assert abs(math.fsum(full.values) - 1.0) <= 1e-12
        assert not full.negativity

    def test_bound_holds_against_mpmath(self):
        """B bounds every entry's error against Q p at 200 bits, on random
        kernels of every variant, sign-indefinite transforms and mixtures
        included, and random counts at n <= 10."""
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 11))
            cfg = _random_kernel(rng, n)
            counts = _random_counts(rng, n, size=int(rng.integers(1, 16)))
            try:
                values, bound = estimators._walsh_estimate(cfg, counts)
            except (DegenerateNormalizerError, TransformOverflowError):
                continue
            with mp.workprec(200):
                exact = _exact_estimate(cfg, counts)
                error = max(abs(mp.mpf(float(v)) - e) for v, e in zip(values, exact))
            assert error <= bound, (cfg, counts)
            checked += 1


def _random_kernel(rng, n, mixed=True):
    """A random configuration of any variant, with any transform kind."""
    variant = rng.choice(["linear", "waak", "aa_classic", "transformed", "mixture" if mixed else "waak"])
    if variant == "linear":
        return EstimatorConfig.linear(ShrinkageSpec.dense(_unit_lead_dense(rng, n)))
    if variant == "waak":
        return EstimatorConfig.waak(rng.uniform(0.0, 1.0, n), float(rng.uniform(1.0, 8.0)))
    if variant == "aa_classic":
        return EstimatorConfig.aa_classic(n, float(rng.uniform(0.5, 0.99)))
    if variant == "mixture":
        weights = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
        weights[-1] = 1.0 - weights[:-1].sum()
        return EstimatorConfig.mixture([(float(c), _random_kernel(rng, n, mixed=False)) for c in weights])
    shrinkage = [
        ShrinkageSpec.single_interaction(rng.uniform(0.0, 1.0, n)),
        ShrinkageSpec.sparse(n, {1: 1.0, int(rng.integers(2, (1 << n) + 1)): float(rng.uniform(-1, 1))}),
        ShrinkageSpec.dense(rng.uniform(-1.0, 1.0, 1 << n)),
    ][int(rng.integers(3))]
    transform = _parity_transforms(float(rng.uniform(-0.5, 0.5)))[int(rng.integers(7))]
    return EstimatorConfig.transformed(shrinkage, transform)


def _exact_row(cfg):
    """The kernel row Q[1, m + 1] in mpmath: W b / 2^n for a linear kernel,
    the product of e^(+-t_d) over Z for a product-form one, and a
    transformed kernel's dense row as computed, taken as the kernel."""
    n = cfg.n
    if cfg.variant == "mixture":
        rows = [(c, _exact_row(part)) for c, part in cfg.components]
        return [mp.fsum(c * row[m] for c, row in rows) for m in range(1 << n)]
    if cfg.variant == "transformed":
        return [mp.mpf(float(v)) for v in cfg._row]
    if cfg.variant == "linear":
        row = [mp.mpf(float(v)) for v in cfg.shrinkage.to_dense()]
        h = 1
        while h < len(row):
            for start in range(0, len(row), 2 * h):
                for j in range(start, start + h):
                    row[j], row[j + h] = row[j] + row[j + h], row[j] - row[j + h]
            h *= 2
        return [v / 2**n for v in row]
    t = [mp.mpf(float(v)) for v in cfg._waak.t]
    log_z = mp.fsum(mp.log(mp.exp(td) + mp.exp(-td)) for td in t)
    return [mp.exp(mp.fsum(-td if m >> d & 1 else td for d, td in enumerate(t)) - log_z) for m in range(1 << n)]


def _exact_estimate(cfg, counts):
    """(Q p)_m for every cell in mpmath, from the exact kernel row."""
    row = _exact_row(cfg)
    weights = [(idx - 1, mp.mpf(cnt) / counts.total) for idx, cnt in counts.cells]
    return [mp.fsum(p * row[m ^ c] for c, p in weights) for m in range(1 << cfg.n)]


class TestProductButterfly:
    """waak and aa_classic full estimates apply their 2x2 factors to p."""

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_sharp_kernels_match_mpmath(self, n):
        """Within 4 n eps relative of mpmath at every entry at n = 8, and at
        512 sampled entries plus the smallest and largest at n = 12 and 16.
        The data sit near one point, so the gamma = 12 kernel's entries
        reach 1e-31 at n = 16."""
        rng = np.random.default_rng(n + 300)
        counts = _clustered_counts(rng, n, 10, flip=0.02, prototypes=1)
        sharp = EstimatorConfig.waak(np.ones(n), 12.0)
        for cfg in (sharp, EstimatorConfig.aa_classic(n, 0.95), EstimatorConfig.waak(rng.uniform(0.5, 1.0, n), 12.0)):
            got = cfg._waak.smooth(counts.to_dense())
            full = estimate_full(cfg, counts)
            if n == 16:
                assert full._bound is None
            if full._bound is None:
                assert np.array_equal(full.values, got)
            at = np.arange(got.size)
            if n > 8:
                at = np.concatenate([rng.choice(got.size, 512, replace=False), [got.argmin(), got.argmax()]])
            with mp.workprec(200):
                t = [mp.mpf(float(v)) for v in cfg._waak.t]
                log_z = mp.fsum(mp.log(mp.exp(td) + mp.exp(-td)) for td in t)
                support = [(idx - 1, mp.mpf(cnt) / counts.total) for idx, cnt in counts.cells]
                for m in at:
                    exact = mp.fsum(
                        p * mp.exp(mp.fsum(-td if (int(m) ^ c) >> d & 1 else td for d, td in enumerate(t)) - log_z)
                        for c, p in support
                    )
                    assert abs(mp.mpf(float(got[m])) - exact) <= 4 * n * np.finfo(float).eps * exact
            if n == 16 and cfg is sharp:
                assert got.min() < 1e-30


    @pytest.mark.parametrize("n", range(1, 21))
    def test_smooth_bits_match_plain_butterfly(self, n):
        """Bit for bit against the plain in-place per-coordinate butterfly,
        for sharp kernels (gamma up to 200, so rates down to 2.5e-5) and a
        sparse p. Weights that differ per coordinate give every bit its own
        rate, so a stage that paired the wrong bit, or took the bits in
        another order, would change the last bits of the result."""
        rng = np.random.default_rng(n + 400)
        size = 1 << n
        p = np.zeros(size)
        p[rng.choice(size, min(size, 7), replace=False)] = rng.integers(1, 4, min(size, 7))
        p /= p.sum()
        configs = (
            EstimatorConfig.waak(np.ones(n), 200.0),
            EstimatorConfig.waak(rng.uniform(0.2, 1.0, n), 200.0),
            EstimatorConfig.waak(rng.uniform(0.0, 1.0, n), 12.0),
            EstimatorConfig.aa_classic(n, 0.95),
        )
        for cfg in configs:
            state = cfg._waak
            want = oracles.smooth_butterfly(p, np.exp(-2.0 * state.t), math.exp(state.log_diagonal))
            got = state.smooth(p)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestFullEstimateWork:
    """Transforms and gathers that one n = 20 full estimate makes."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"fwht": 0, "gather": 0}

        def fwht_counted(v):
            calls["fwht"] += 1
            return fwht(v)

        def gather_counted(g, counts):
            calls["gather"] += 1
            return gather(g, counts)

        gather = estimators._gather
        monkeypatch.setattr(estimators, "fwht", fwht_counted)
        monkeypatch.setattr(transforms, "fwht", fwht_counted)
        monkeypatch.setattr(estimators, "_gather", gather_counted)
        return calls

    @pytest.fixture
    def counts(self):
        # Fresh per test: the counts keep fwht(p) once computed.
        counts = _clustered_counts(np.random.default_rng(20), 20, 1500, flip=0.1, prototypes=8)
        assert len(counts.cells) == 1500
        return counts

    def test_certified_mixture_makes_four_transforms_and_no_gather(self, counted, counts):
        n = 20
        rng = np.random.default_rng(21)
        exponential = EstimatorConfig.transformed(
            ShrinkageSpec.single_interaction(rng.uniform(0.1, 0.4, n)), Transform.exponential(2.0)
        )
        cfg = EstimatorConfig.mixture(
            [
                (0.25, exponential),
                (0.25, EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 6: 0.1}))),
                (0.5, EstimatorConfig.waak(rng.uniform(0.2, 0.6, n), 2.0)),
            ]
        )
        full = estimate_full(cfg, counts)
        assert full._bound is not None
        # fwht(p), the transformed row and its transform, and the last one.
        assert (counted["fwht"], counted["gather"]) == (4, 0)
        assert abs(math.fsum(full.values) - 1.0) <= 1e-12

    def test_sharp_classic_kernel_makes_no_gather(self, counted, counts):
        full = estimate_full(EstimatorConfig.aa_classic(20, 0.9), counts)
        assert full._bound is None
        assert counted["gather"] == 0
        assert np.all(full.values > 0.0)


class TestClampAndRenormalize:
    def test_clips_and_rescales(self):
        est = DensityEstimate(
            n=2,
            cells=None,
            values=np.array([0.5, -0.1, 0.4, 0.2]),
            normalizers=(),
            negativity=True,
        )
        out = clamp_and_renormalize(est)
        assert float(out.values.sum()) == pytest.approx(1.0, rel=1e-15)
        assert np.all(out.values >= 0)
        assert not out.negativity
        np.testing.assert_allclose(out.values, [0.5, 0.0, 0.4, 0.2] / np.float64(1.1))

    def test_noop_on_probability_vector(self):
        est = DensityEstimate(
            n=1, cells=None, values=np.array([0.25, 0.75]), normalizers=(), negativity=False
        )
        out = clamp_and_renormalize(est)
        np.testing.assert_allclose(out.values, est.values, rtol=1e-15)

    def test_requires_full_vector(self):
        est = DensityEstimate(
            n=1, cells=(1,), values=np.array([0.5]), normalizers=(), negativity=False
        )
        with pytest.raises(ValueError):
            clamp_and_renormalize(est)

    def test_all_nonpositive_rejected(self):
        est = DensityEstimate(
            n=1, cells=None, values=np.array([-0.5, 0.0]), normalizers=(), negativity=True
        )
        with pytest.raises(NumericError):
            clamp_and_renormalize(est)


class TestSampleNeutrality:
    """Estimating on pooled data equals count-weighted averaging of estimates."""

    def test_pooled_equals_weighted_average(self):
        rng = np.random.default_rng(61)
        for n, make in (
            (4, lambda: EstimatorConfig.waak(rng.uniform(0, 1, size=4), 2.0)),
            (5, lambda: EstimatorConfig.linear(ShrinkageSpec.sparse(5, {1: 1.0, 2: 0.5}))),
            (
                3,
                lambda: EstimatorConfig.transformed(
                    ShrinkageSpec.single_interaction(rng.uniform(0, 1, size=3)),
                    Transform.logistic(1.8),
                ),
            ),
        ):
            cfg = make()
            a = rng.choice([-1, 1], size=(8, n))
            b = rng.choice([-1, 1], size=(13, n))
            pooled = counts_from_observations(np.vstack([a, b]))
            full = estimate_full(cfg, pooled).values
            fa = estimate_full(cfg, counts_from_observations(a)).values
            fb = estimate_full(cfg, counts_from_observations(b)).values
            want = (8 * fa + 13 * fb) / 21.0
            np.testing.assert_allclose(full, want, atol=1e-14)


# ---------------------------------------------------------------------------
# route parity: single entries and the full vector are one set of numbers


def _parity_transforms(threshold):
    """One transform of every kind; the step threshold is the caller's."""
    return (
        Transform.identity(),
        Transform.exponential(2.0),
        Transform.logistic(3.0),
        Transform.step(threshold, 0.1, 1.0),
        Transform.relu(),
        Transform.tanh(2.0),
        Transform.elu(0.5),
    )


def _parity_cases(n):
    """(name, config) for every variant and for every transform kind over
    single-interaction and sparse shrinkage.

    Step thresholds sit on lattice points, values the row W b takes in
    exact arithmetic: 0.3 (n - 2k) for weights all 0.3, and a signed sum
    of the sparse coefficients. A tie there is rounded one way or the
    other, and only reading every entry from one row keeps the routes
    on the same side.
    """
    rng = np.random.default_rng(n)
    single = ShrinkageSpec.single_interaction(np.full(n, 0.3))
    sparse = ShrinkageSpec.sparse(n, {1: 0.5, 3: 0.25, 6: 0.3, (1 << n) - 2: 0.125})
    lattice = ((single, 0.0, 0.6), (sparse, 0.5 + 0.25 - 0.3 + 0.125, 0.5 - 0.25 - 0.3 + 0.125))
    cases = []
    for shrinkage, first, second in lattice:
        for t in _parity_transforms(first) + (Transform.step(second, 0.1, 1.0),):
            name = f"{shrinkage.form}-{t.kind}" + (f"-{t.threshold:g}" if t.kind == "step" else "")
            cases.append((name, EstimatorConfig.transformed(shrinkage, t)))
    linear_sparse = EstimatorConfig.linear(ShrinkageSpec.sparse(n, {1: 1.0, 3: 0.25, 6: 0.3}))
    step = EstimatorConfig.transformed(single, Transform.step(0.0, 0.1, 1.0))
    waak = EstimatorConfig.waak(rng.uniform(0.1, 1.0, size=n), 3.0)
    cases += [
        ("linear-sparse", linear_sparse),
        ("linear-dense", EstimatorConfig.linear(ShrinkageSpec.dense(_unit_lead_dense(rng, n)))),
        (
            "dense-step-0",
            EstimatorConfig.transformed(
                ShrinkageSpec.dense(rng.uniform(-1, 1, size=1 << n)), Transform.step(0.0, 0.1, 1.0)
            ),
        ),
        ("waak", waak),
        ("aa_classic", EstimatorConfig.aa_classic(n, 0.8)),
        ("mixture", EstimatorConfig.mixture([(0.5, step), (0.3, waak), (0.2, linear_sparse)])),
    ]
    return cases


def _assert_routes_agree(config, seed, rows=40):
    """estimate_at over all 2^n cells equals estimate_full to 1e-12 of its
    largest entry, and both sum to 1; a Z that is not positive is refused
    by both."""
    n = config.n
    rng = np.random.default_rng(seed)
    counts = counts_from_observations(rng.choice([-1, 1], size=(rows, n)))
    try:
        full = estimate_full(config, counts).values
    except DegenerateNormalizerError:
        # Identity and tanh over b_1 = 0 rows: Z is 0 in exact arithmetic.
        with pytest.raises(DegenerateNormalizerError):
            estimate_at([1], config, counts)
        return
    at = estimate_at(range(1, (1 << n) + 1), config, counts).values
    assert np.max(np.abs(at - full)) <= 1e-12 * np.max(np.abs(full))
    assert abs(math.fsum(full) - 1.0) <= 1e-12
    assert abs(math.fsum(at) - 1.0) <= 1e-12


class TestRouteParity:
    """Z, estimate_full and estimate_at read one set of kernel entries."""

    @pytest.mark.parametrize(
        "n, index",
        [(n, i) for n in (8, 12) for i in range(len(_parity_cases(n)))],
        ids=[f"n{n}-{name}" for n in (8, 12) for name, _ in _parity_cases(n)],
    )
    def test_estimate_at_equals_estimate_full(self, n, index):
        _, config = _parity_cases(n)[index]
        _assert_routes_agree(config, seed=100 + index)

    @pytest.mark.parametrize(
        "w, threshold",
        [
            (np.full(12, 0.3), 0.0),
            (np.resize([0.2, 0.5, 0.9], 14), 0.3),
        ],
        ids=["n12-w0.3-threshold0", "n14-w0.2-0.5-0.9-threshold0.3"],
    )
    def test_step_ties_on_the_lattice(self, w, threshold):
        spec = ShrinkageSpec.single_interaction(w)
        _assert_routes_agree(EstimatorConfig.transformed(spec, Transform.step(threshold, 0.1, 1.0)), seed=9)
