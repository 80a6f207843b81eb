"""Index algebra, sign-matrix entries, the fast transform, and index sets."""

import numpy as np
import pytest

from bindens import (
    as_point,
    fwht,
    index_of_point,
    interaction_indexes,
    point_of_index,
    product_index,
    walsh_entry,
)
from bindens.errors import CapacityError

from oracles import fwht_butterfly, interaction_sets_union, mapping_dense, walsh_dense


class TestPointIndexMap:
    """Bijection between sign vectors and 1-based cell indexes."""

    def test_known_pairs(self):
        assert index_of_point([1, 1]) == 1
        assert index_of_point([-1, 1]) == 2
        assert index_of_point([1, -1]) == 3
        assert index_of_point([-1, -1]) == 4
        assert index_of_point([1, -1, -1]) == 7

    def test_all_plus_is_first(self):
        for n in (1, 4, 9):
            assert index_of_point([1] * n) == 1
            np.testing.assert_array_equal(point_of_index(1, n), [1] * n)

    def test_all_minus_is_last(self):
        assert index_of_point([-1, -1, -1]) == 8
        np.testing.assert_array_equal(point_of_index(8, 3), [-1, -1, -1])

    def test_coordinate_k_controls_bit_k(self):
        # flipping coordinate k moves the index by 2^(k-1)
        for k in range(1, 6):
            pt = [1] * 5
            pt[k - 1] = -1
            assert index_of_point(pt) == 1 + (1 << (k - 1))

    def test_round_trip_small(self):
        for n in range(1, 13):
            for j in range(1, (1 << n) + 1):
                assert index_of_point(point_of_index(j, n)) == j

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(42)
        for n in (17, 40, 200, 10_001):
            pt = rng.choice([-1, 1], size=n)
            j = index_of_point(pt)
            np.testing.assert_array_equal(point_of_index(j, n), pt)

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            point_of_index(0, 3)
        with pytest.raises(ValueError):
            point_of_index(9, 3)
        with pytest.raises(ValueError):
            point_of_index(1, 0)

    def test_point_values_checked(self):
        for bad in ([0, 1], [1, 2], [], [[1, -1]], [1.5, -1]):
            with pytest.raises(ValueError):
                as_point(bad)

    def test_true_false_rejected(self):
        with pytest.raises(ValueError):
            as_point([True, False])


class TestWalshEntry:
    """Single entries of the naturally ordered sign matrix."""

    def test_base_case(self):
        assert walsh_entry(1, 1, 1) == 1
        assert walsh_entry(1, 2, 1) == 1
        assert walsh_entry(2, 1, 1) == 1
        assert walsh_entry(2, 2, 1) == -1

    def test_matches_block_recursion(self):
        for n in range(1, 6):
            dense = walsh_dense(n)
            size = 1 << n
            got = np.array(
                [[walsh_entry(r, c, n) for c in range(1, size + 1)] for r in range(1, size + 1)]
            )
            assert np.array_equal(got, dense)

    def test_first_row_and_column_all_ones(self):
        for j in range(1, 65):
            assert walsh_entry(1, j, 6) == 1
            assert walsh_entry(j, 1, 6) == 1

    def test_single_coordinate_columns(self):
        # column 2^(k-1) + 1 reproduces coordinate k of the row's point
        n = 5
        for row in range(1, (1 << n) + 1):
            pt = point_of_index(row, n)
            for k in range(1, n + 1):
                assert walsh_entry(row, (1 << (k - 1)) + 1, n) == pt[k - 1]

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r, c = rng.integers(1, 257, size=2)
            assert walsh_entry(int(r), int(c), 8) == walsh_entry(int(c), int(r), 8)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            walsh_entry(0, 1, 2)
        with pytest.raises(ValueError):
            walsh_entry(1, 5, 2)
        with pytest.raises(ValueError):
            walsh_entry(1, 1, 0)


class TestProductIndex:
    """Column-product index and its permutation structure."""

    def test_two_coordinate_table(self):
        want = np.array(
            [
                [1, 2, 3, 4],
                [2, 1, 4, 3],
                [3, 4, 1, 2],
                [4, 3, 2, 1],
            ]
        )
        got = np.array([[product_index(i, j) for j in range(1, 5)] for i in range(1, 5)])
        assert np.array_equal(got, want)

    def test_matches_block_recursion(self):
        for n in range(0, 7):
            dense = mapping_dense(n)
            size = 1 << n
            got = np.array(
                [[product_index(i, j) for j in range(1, size + 1)] for i in range(1, size + 1)]
            )
            assert np.array_equal(got, dense)

    def test_identity_and_involution(self):
        for m in range(1, 300):
            assert product_index(1, m) == m
            assert product_index(m, 1) == m
            assert product_index(m, m) == 1

    def test_commutative(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            i, j = (int(v) for v in rng.integers(1, 1 << 20, size=2))
            assert product_index(i, j) == product_index(j, i)

    def test_rows_and_columns_are_permutations(self):
        n = 8
        size = 1 << n
        idx = np.arange(size, dtype=np.int64)
        table = (idx[:, None] ^ idx[None, :]) + 1
        # spot-check the vectorized table against the scalar operation
        rng = np.random.default_rng(11)
        for _ in range(200):
            i, j = (int(v) + 1 for v in rng.integers(0, size, size=2))
            assert table[i - 1, j - 1] == product_index(i, j)
        full = np.arange(1, size + 1)
        for i in range(size):
            assert np.array_equal(np.sort(table[i]), full)
            assert np.array_equal(np.sort(table[:, i]), full)

    def test_column_product_identity(self):
        # elementwise product of two sign columns is the mapped column
        for n in range(1, 5):
            w = walsh_dense(n)
            size = 1 << n
            for i in range(1, size + 1):
                for j in range(1, size + 1):
                    m = product_index(i, j)
                    assert np.array_equal(w[:, i - 1] * w[:, j - 1], w[:, m - 1])

    def test_range_errors(self):
        with pytest.raises(ValueError):
            product_index(0, 1)
        with pytest.raises(ValueError):
            product_index(1, 0)
        with pytest.raises(ValueError):
            product_index(1, -3)


class TestFwht:
    """In-order fast transform against dense multiplication."""

    def test_pair_example(self):
        # fwht writes only to buffers of its own, never to v.
        v = np.array([1.0, 1.0])
        np.testing.assert_array_equal(fwht(v), [2.0, 0.0])
        np.testing.assert_array_equal(v, [1.0, 1.0])

    def test_four_point_example(self):
        np.testing.assert_array_equal(fwht([1.0, 2.0, 3.0, 4.0]), [10.0, -2.0, -4.0, 0.0])

    def test_unit_vector_gives_all_ones(self):
        v = np.zeros(32)
        v[0] = 1.0
        np.testing.assert_array_equal(fwht(v), np.ones(32))

    def test_matches_dense_multiply(self):
        rng = np.random.default_rng(42)
        for n in range(1, 9):
            w = walsh_dense(n).astype(np.float64)
            for _ in range(10):
                v = rng.standard_normal(1 << n)
                want = w @ v
                got = fwht(v)
                tol = 1e-10 * np.max(np.abs(v)) * (1 << n)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)

    def test_double_application_scales_by_size(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(64)
        np.testing.assert_allclose(fwht(fwht(v)), 64.0 * v, rtol=1e-12)

    def test_input_not_modified(self):
        v = np.arange(8.0)
        keep = v.copy()
        fwht(v)
        np.testing.assert_array_equal(v, keep)

    def test_accepts_lists_and_ints(self):
        np.testing.assert_array_equal(fwht([3, 1]), [4.0, 2.0])

    @pytest.mark.parametrize("n", range(21))
    def test_bits_match_plain_butterfly(self, n):
        rng = np.random.default_rng(1000 + n)
        size = 1 << n
        v = rng.standard_normal(size) * np.exp2(rng.integers(-300, 301, size))
        v[rng.integers(0, size, max(1, size // 8))] = 0.0
        v[rng.integers(0, size)] = -0.0
        # A lone inf, then a NaN with an inf of the other sign, so outputs
        # mix finite values, infinities and NaNs of either sign.
        with_inf = v.copy()
        with_inf[rng.integers(0, size)] = np.inf
        with_nan = v.copy()
        with_nan[rng.integers(0, size)] = -np.inf
        with_nan[rng.integers(0, size)] = np.nan
        with np.errstate(invalid="ignore"):
            for x in (v, with_inf, with_nan):
                got, want = fwht(x), fwht_butterfly(x)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bits_match_for_views_and_ints(self):
        """The first stage reads the caller's array through [0::2] and
        [1::2]: strided, reversed and read-only inputs give the plain
        butterfly's bits and are left as they were."""
        rng = np.random.default_rng(77)
        base = rng.standard_normal(2 << 12)
        keep = base.copy()
        frozen = rng.standard_normal(1 << 12)
        frozen.setflags(write=False)
        frozen_keep = frozen.copy()
        views = (base[::2], base[::-1], base[-2::-2], frozen)
        assert not views[0].flags.c_contiguous
        assert views[1].strides[0] < 0 and views[2].strides[0] < 0
        for view in views:
            got = fwht(view)
            np.testing.assert_array_equal(got.view(np.uint64), fwht_butterfly(view).view(np.uint64))
        np.testing.assert_array_equal(base.view(np.uint64), keep.view(np.uint64))
        np.testing.assert_array_equal(frozen.view(np.uint64), frozen_keep.view(np.uint64))
        assert not frozen.flags.writeable
        ints = rng.integers(-1000, 1000, 1 << 9).tolist()
        np.testing.assert_array_equal(fwht(ints).view(np.uint64), fwht_butterfly(ints).view(np.uint64))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            fwht([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fwht(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            fwht([])


class TestInteractionIndexes:
    """Cells grouped by interaction order."""

    def test_matches_union_recursion(self):
        for n in range(1, 9):
            want = interaction_sets_union(n)
            for k in range(0, n + 1):
                got = interaction_indexes(n, k)
                assert set(got) == want[k]

    def test_zero_order_is_leading_index(self):
        assert list(interaction_indexes(6, 0)) == [1]

    def test_first_order_formula(self):
        for n in (1, 5, 12):
            want = {(1 << (x - 1)) + 1 for x in range(1, n + 1)}
            assert set(interaction_indexes(n, 1)) == want

    def test_first_order_huge_dimension(self):
        got = interaction_indexes(200, 1)
        assert len(got) == 200
        assert (1 << 199) + 1 in got
        assert 2 in got

    def test_orders_partition_all_cells(self):
        for n in range(1, 11):
            seen = set()
            for k in range(0, n + 1):
                members = set(interaction_indexes(n, k))
                assert not (seen & members)
                seen |= members
            assert seen == set(range(1, (1 << n) + 1))

    def test_sizes_are_binomial(self):
        import math

        for n in range(1, 13):
            for k in range(0, n + 1):
                assert len(interaction_indexes(n, k)) == math.comb(n, k)

    def test_low_order_budget(self):
        # orders 0 through 3 together hold (n^3 + 5n + 6) / 6 cells
        assert sum(len(interaction_indexes(4, k)) for k in range(4)) == 15
        for n in range(3, 13):
            total = sum(len(interaction_indexes(n, k)) for k in range(4))
            assert total == (n**3 + 5 * n + 6) // 6

    def test_order_above_dimension_is_empty(self):
        assert len(interaction_indexes(3, 4)) == 0
        assert list(interaction_indexes(3, 7)) == []

    def test_membership_and_iteration(self):
        s = interaction_indexes(4, 2)
        listed = list(s)
        assert listed == sorted(listed)
        for j in listed:
            assert j in s
        assert 1 not in s

    def test_validation(self):
        with pytest.raises(ValueError):
            interaction_indexes(0, 0)
        with pytest.raises(ValueError):
            interaction_indexes(4, -1)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            interaction_indexes(80, 10)
