"""Monotone transforms and the normalization-constant dispatch."""

import math

import numpy as np
import pytest

from bindens import ShrinkageSpec, Transform, apply, normalizer
from bindens.errors import CapacityError, TransformOverflowError
from bindens.transforms import (
    CLOSED_FORM_EXPONENTIAL,
    CLOSED_FORM_LOGISTIC,
    FWHT_GENERAL,
    LINEAR_TRIVIAL,
)

import oracles


def _spec_grid(rng):
    return rng.uniform(-6.0, 6.0, size=257)


class TestApply:
    """Elementwise evaluation against the defining formulas."""

    def test_identity(self):
        rng = np.random.default_rng(0)
        x = _spec_grid(rng)
        np.testing.assert_array_equal(apply(Transform.identity(), x), x)

    def test_exponential(self):
        rng = np.random.default_rng(1)
        x = _spec_grid(rng)
        f = oracles.transform_callable("exponential", gamma=1.7)
        np.testing.assert_allclose(apply(Transform.exponential(1.7), x), f(x), rtol=1e-14)

    def test_logistic(self):
        rng = np.random.default_rng(2)
        x = _spec_grid(rng)
        f = oracles.transform_callable("logistic", gamma=2.5)
        np.testing.assert_allclose(apply(Transform.logistic(2.5), x), f(x), rtol=1e-13)

    def test_step(self):
        t = Transform.step(0.5, 0.1, 2.0)
        np.testing.assert_array_equal(
            apply(t, np.array([-1.0, 0.49, 0.5, 3.0])), [0.1, 0.1, 2.0, 2.0]
        )

    def test_relu(self):
        rng = np.random.default_rng(3)
        x = _spec_grid(rng)
        np.testing.assert_array_equal(apply(Transform.relu(), x), np.maximum(x, 0.0))

    def test_tanh(self):
        rng = np.random.default_rng(4)
        x = _spec_grid(rng)
        f = oracles.transform_callable("tanh", scale=0.8)
        np.testing.assert_allclose(apply(Transform.tanh(0.8), x), f(x), rtol=1e-14)

    def test_elu(self):
        rng = np.random.default_rng(5)
        x = _spec_grid(rng)
        f = oracles.transform_callable("elu", alpha=1.3)
        np.testing.assert_allclose(apply(Transform.elu(1.3), x), f(x), rtol=1e-13)

    def test_logistic_extreme_arguments(self):
        t = Transform.logistic(3.0)
        got = apply(t, np.array([-1e6, -800.0, 800.0, 1e6]))
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got, [0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("gamma", [2.5, math.e, 0.5])
    def test_logistic_bits_match_masked_split(self, gamma):
        rng = np.random.default_rng(int(gamma * 1000))
        special = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
        x = np.concatenate([rng.standard_normal(4096) * 40.0, rng.uniform(-800.0, 800.0, 512), special])
        want = oracles.masked_sigmoid(x * math.log(gamma))
        # e^-|y| lies in [0, 1], so nothing can overflow, divide by zero or
        # be invalid; numpy does flag underflow where it rounds to a
        # subnormal or to 0, as the masked split's exp does.
        with np.errstate(all="raise", under="ignore"):
            got = apply(Transform.logistic(gamma), x)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_logistic_is_centered(self):
        t = Transform.logistic(1.9)
        assert apply(t, 0.0) == pytest.approx(0.5, rel=1e-15)
        rng = np.random.default_rng(6)
        x = rng.uniform(-30, 30, size=100)
        np.testing.assert_allclose(apply(t, x) + apply(t, -x), 1.0, atol=1e-14)

    def test_exponential_overflow_raises(self):
        t = Transform.exponential(math.e)
        assert np.isfinite(apply(t, 699.0))
        with pytest.raises(TransformOverflowError):
            apply(t, 701.0)
        with pytest.raises(TransformOverflowError):
            apply(t, np.array([0.0, 10_000.0]))

    def test_monotone_on_sorted_grids(self):
        rng = np.random.default_rng(7)
        kinds = [
            Transform.identity(),
            Transform.exponential(2.2),
            Transform.logistic(1.4),
            Transform.step(-0.3, 0.0, 1.0),
            Transform.relu(),
            Transform.tanh(1.1),
            Transform.elu(0.7),
        ]
        for t in kinds:
            x = np.sort(rng.uniform(-50, 50, size=500))
            y = apply(t, x)
            assert np.all(np.diff(y) >= 0.0)

    def test_scalar_in_scalar_out(self):
        got = apply(Transform.relu(), -2.0)
        assert isinstance(got, float)
        assert got == 0.0

    def test_nonnegative_flag(self):
        assert Transform.exponential(2.0).is_nonnegative
        assert Transform.logistic(2.0).is_nonnegative
        assert Transform.relu().is_nonnegative
        assert Transform.step(0.0, 0.0, 1.0).is_nonnegative
        assert not Transform.identity().is_nonnegative
        assert not Transform.tanh(1.0).is_nonnegative
        assert not Transform.elu(1.0).is_nonnegative


class TestTransformValidation:
    def test_gamma_must_be_positive_finite(self):
        for bad in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Transform.exponential(bad)
            with pytest.raises(ValueError):
                Transform.logistic(bad)

    def test_step_levels_ordered_and_nonnegative(self):
        with pytest.raises(ValueError):
            Transform.step(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            Transform.step(0.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            Transform.step(float("nan"), 0.0, 1.0)
        Transform.step(0.0, 1.0, 1.0)

    def test_tanh_scale_not_negative(self):
        with pytest.raises(ValueError):
            Transform.tanh(-1.0)
        Transform.tanh(0.0)

    def test_elu_alpha_not_negative(self):
        with pytest.raises(ValueError):
            Transform.elu(-0.5)
        Transform.elu(0.0)

    def test_raw_constructor_stores_floats(self):
        # cli.transform_from_dict builds transforms through it.
        assert type(Transform(kind="tanh", scale=np.float32(0.5)).scale) is float
        step = Transform(kind="step", threshold=0, low=np.int64(0), high=1)
        assert [type(getattr(step, name)) for name in ("threshold", "low", "high")] == [float] * 3


class TestNormalizerDispatch:
    """Each closed form agrees with the general route and reports its method."""

    def test_plain_linear_shortcut(self):
        spec = ShrinkageSpec.sparse(5, {1: 1.0, 3: 0.4, 17: -0.2})
        res = normalizer(Transform.identity(), spec)
        assert res.method == LINEAR_TRIVIAL
        assert res.value == 32.0
        assert res.log_value == pytest.approx(math.log(32.0))

    def test_plain_linear_dense(self):
        rng = np.random.default_rng(8)
        b = rng.uniform(0.0, 1.0, size=16)
        b[0] = 1.0
        res = normalizer(Transform.identity(), ShrinkageSpec.dense(b))
        assert res.method == LINEAR_TRIVIAL
        assert res.value == 16.0

    def test_identity_without_unit_lead_goes_general(self):
        b = np.zeros(8)
        b[0] = 0.5
        res = normalizer(Transform.identity(), ShrinkageSpec.dense(b))
        assert res.method == FWHT_GENERAL
        assert res.value == pytest.approx(4.0, rel=1e-12)

    def test_logistic_closed_form_value(self):
        w = np.array([0.3, 0.7, 0.1])
        res = normalizer(Transform.logistic(3.0), ShrinkageSpec.single_interaction(w))
        assert res.method == CLOSED_FORM_LOGISTIC
        assert res.value == 4.0

    def test_logistic_closed_form_ignores_parameters(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            w = rng.uniform(0.0, 1.0, size=n)
            g = 1.0 + float(rng.uniform(0.05, 9.0))
            res = normalizer(Transform.logistic(g), ShrinkageSpec.single_interaction(w))
            assert res.value == float(2 ** (n - 1))

    def test_logistic_closed_form_matches_general(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            w = rng.uniform(0.0, 1.0, size=n)
            t = Transform.logistic(1.0 + float(rng.uniform(0.1, 5.0)))
            spec = ShrinkageSpec.single_interaction(w)
            fast = normalizer(t, spec)
            dense = ShrinkageSpec.dense(spec.to_dense())
            slow = normalizer(t, dense)
            assert slow.method == FWHT_GENERAL
            assert fast.value == pytest.approx(slow.value, rel=1e-10)

    def test_logistic_sparse_form_goes_general(self):
        # same coefficients stored sparsely do not take the shortcut
        spec = ShrinkageSpec.sparse(3, {2: 0.3, 3: 0.7, 5: 0.1})
        res = normalizer(Transform.logistic(3.0), spec)
        assert res.method == FWHT_GENERAL
        assert res.value == pytest.approx(4.0, rel=1e-12)

    def test_exponential_closed_form_value(self):
        res = normalizer(
            Transform.exponential(2.0), ShrinkageSpec.single_interaction([1.0, 1.0])
        )
        assert res.method == CLOSED_FORM_EXPONENTIAL
        assert res.value == pytest.approx(6.25, rel=1e-14)

    def test_exponential_closed_form_matches_general(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            w = rng.uniform(0.0, 1.0, size=n)
            t = Transform.exponential(1.0 + float(rng.uniform(0.1, 3.0)))
            spec = ShrinkageSpec.single_interaction(w)
            fast = normalizer(t, spec)
            slow = normalizer(t, ShrinkageSpec.dense(spec.to_dense()))
            assert fast.value == pytest.approx(slow.value, rel=1e-10)

    def test_exponential_unit_weights_product_form(self):
        for n in (1, 3, 8):
            for g in (1.5, 2.0, 4.0):
                res = normalizer(
                    Transform.exponential(g), ShrinkageSpec.single_interaction([1.0] * n)
                )
                assert res.value == pytest.approx((g + 1.0 / g) ** n, rel=1e-12)

    def test_exponential_matches_categorical_reparameterization(self):
        # gamma = sqrt(lam / (1 - lam)) turns the product into (lam(1-lam))^(-n/2)
        for lam in (0.55, 0.8, 0.95):
            g = math.sqrt(lam / (1.0 - lam))
            for n in (2, 5, 9):
                res = normalizer(
                    Transform.exponential(g), ShrinkageSpec.single_interaction([1.0] * n)
                )
                want = (lam * (1.0 - lam)) ** (-n / 2.0)
                assert res.value == pytest.approx(want, rel=1e-12)

    def test_exponential_huge_dimension_stays_in_log_space(self):
        n = 5000
        res = normalizer(
            Transform.exponential(2.0), ShrinkageSpec.single_interaction([1.0] * n)
        )
        assert res.value == math.inf
        assert res.log_value == pytest.approx(n * math.log(2.5), rel=1e-13)

    def test_logistic_huge_dimension(self):
        n = 4000
        res = normalizer(
            Transform.logistic(1.5), ShrinkageSpec.single_interaction([0.4] * n)
        )
        assert res.value == math.inf
        assert res.log_value == pytest.approx((n - 1) * math.log(2.0), rel=1e-13)

    def test_general_route_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        cases = [
            (Transform.relu(), "relu", {}),
            (Transform.tanh(0.8), "tanh", {"scale": 0.8}),
            (Transform.step(0.2, 0.1, 1.5), "step", {"threshold": 0.2, "low": 0.1, "high": 1.5}),
            (Transform.elu(1.2), "elu", {"alpha": 1.2}),
            (Transform.exponential(1.3), "exponential", {"gamma": 1.3}),
            (Transform.logistic(2.7), "logistic", {"gamma": 2.7}),
        ]
        for t, kind, params in cases:
            for n in (3, 6, 8):
                b = rng.uniform(0.0, 1.0, size=1 << n)
                res = normalizer(t, ShrinkageSpec.dense(b))
                assert res.method == FWHT_GENERAL
                f = oracles.transform_callable(kind, **params)
                want = float(np.sum(f(oracles.walsh_dense(n) @ b)))
                assert res.value == pytest.approx(want, rel=1e-10)

    def test_general_route_sparse_coefficients(self):
        spec = ShrinkageSpec.sparse(4, {1: 1.0, 2: 0.5, 8: 0.25})
        res = normalizer(Transform.relu(), spec)
        b = spec.to_dense()
        want = float(np.sum(np.maximum(oracles.walsh_dense(4) @ b, 0.0)))
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_general_route_capacity_limit(self):
        spec = ShrinkageSpec.sparse(40, {1: 1.0, 2: 0.5})
        with pytest.raises(CapacityError):
            normalizer(Transform.relu(), spec)

    def test_zero_constant_is_reported_not_raised(self):
        # antisymmetric rows cancel exactly under tanh
        res = normalizer(Transform.tanh(1.0), ShrinkageSpec.sparse(3, {2: 0.7}))
        assert res.value == 0.0
        assert res.log_value == -math.inf

    def test_negative_constant_is_reported(self):
        res = normalizer(Transform.tanh(1.0), ShrinkageSpec.sparse(3, {1: -0.5, 2: 0.8}))
        assert res.value < 0.0
        assert res.log_value == -math.inf

    def test_overflow_propagates(self):
        b = np.full(16, 300.0)
        with pytest.raises(TransformOverflowError):
            normalizer(Transform.exponential(10.0), ShrinkageSpec.dense(b))

    def test_argument_types_checked(self):
        with pytest.raises(ValueError):
            normalizer("identity", ShrinkageSpec.sparse(2, {1: 1.0}))
        with pytest.raises(ValueError):
            normalizer(Transform.identity(), {1: 1.0})
