"""Scalar arguments of every public entry point go through one integer check
and one real-number check: a bool is never read as 0 or 1, a string is
never parsed as a number, an integer argument never truncates a fraction,
and a value (or a container argument) of the wrong type raises
the error type of its layer (ValueError for walsh, shrinkage, transforms,
shrinkage_optimal, loo_term and estimate_at; DataError for counts;
ConfigError for configurations and searches)."""

import ast
import pathlib

import numpy as np
import pytest

from bindens import (
    CountsVector,
    EstimatorConfig,
    SearchSpace,
    ShrinkageSpec,
    Transform,
    coordinate_descent_w,
    estimate_at,
    interaction_indexes,
    loo_term,
    point_of_index,
    product_index,
    shrinkage_optimal,
    walsh_entry,
)
from bindens.errors import ConfigError, DataError

COUNTS = CountsVector.from_cells(3, {1: 2, 4: 1, 6: 1})
UNIFORM = EstimatorConfig.linear(ShrinkageSpec.sparse(3, {1: 1.0}))
AA = EstimatorConfig.aa_classic(3, 0.8)

# (name, call taking the bad value, error type); integer arguments first.
INTEGER_ARGUMENTS = [
    ("point_of_index j", lambda v: point_of_index(v, 3), ValueError),
    ("point_of_index n", lambda v: point_of_index(1, v), ValueError),
    ("walsh_entry row", lambda v: walsh_entry(v, 1, 3), ValueError),
    ("walsh_entry col", lambda v: walsh_entry(1, v, 3), ValueError),
    ("walsh_entry n", lambda v: walsh_entry(1, 1, v), ValueError),
    ("product_index i", lambda v: product_index(v, 1), ValueError),
    ("product_index j", lambda v: product_index(1, v), ValueError),
    ("interaction_indexes n", lambda v: interaction_indexes(v, 1), ValueError),
    ("interaction_indexes k", lambda v: interaction_indexes(3, v), ValueError),
    ("sparse n", lambda v: ShrinkageSpec.sparse(v, {1: 1.0}), ValueError),
    ("sparse index", lambda v: ShrinkageSpec.sparse(3, {v: 0.5}), ValueError),
    ("from_cells n", lambda v: CountsVector.from_cells(v, {1: 1}), DataError),
    ("from_cells index", lambda v: CountsVector.from_cells(3, {v: 1}), DataError),
    ("from_cells count", lambda v: CountsVector.from_cells(3, {1: v}), DataError),
    ("count_of cell", lambda v: COUNTS.count_of(v), DataError),
    ("shrinkage_optimal N", lambda v: shrinkage_optimal(0.5, v), ValueError),
    ("aa_classic n", lambda v: EstimatorConfig.aa_classic(v, 0.8), ConfigError),
    ("loo_term k", lambda v: loo_term(v, AA, COUNTS), ValueError),
    ("aa_lambda_grid n", lambda v: SearchSpace.aa_lambda_grid(v, [0.8]), ConfigError),
    ("budget", lambda v: SearchSpace.aa_lambda_grid(3, [0.8], budget=v), ConfigError),
    ("descent sweeps", lambda v: coordinate_descent_w(np.ones(3), 2.0, "kl", COUNTS, v, [0.5]), ConfigError),
    ("waak_shared_grid n", lambda v: SearchSpace.waak_shared_grid(v, [2.0], [0.5]), ConfigError),
    ("linear_sparse_grid n", lambda v: SearchSpace.linear_sparse_grid(v, [2], [0.5]), ConfigError),
    ("linear_sparse_grid index", lambda v: SearchSpace.linear_sparse_grid(3, [v], [0.5]), ConfigError),
    ("mixture_weight_grid denominator", lambda v: SearchSpace.mixture_weight_grid([AA, UNIFORM], v), ConfigError),
]

REAL_ARGUMENTS = [
    ("sparse value", lambda v: ShrinkageSpec.sparse(3, {1: 1.0, 2: v}), ValueError),
    ("exponential gamma", lambda v: Transform.exponential(v), ValueError),
    ("logistic gamma", lambda v: Transform.logistic(v), ValueError),
    ("step threshold", lambda v: Transform.step(v, 0.0, 1.0), ValueError),
    ("step low", lambda v: Transform.step(0.0, v, 1.0), ValueError),
    ("step high", lambda v: Transform.step(0.0, 0.0, v), ValueError),
    ("tanh scale", lambda v: Transform.tanh(v), ValueError),
    ("elu alpha", lambda v: Transform.elu(v), ValueError),
    ("shrinkage_optimal q", lambda v: shrinkage_optimal(v, 10), ValueError),
    ("waak gamma", lambda v: EstimatorConfig.waak(np.ones(3), v), ConfigError),
    ("aa_classic lambda", lambda v: EstimatorConfig.aa_classic(3, v), ConfigError),
    ("mixture weight", lambda v: EstimatorConfig.mixture([(v, AA)]), ConfigError),
    ("waak_shared_grid value", lambda v: SearchSpace.waak_shared_grid(3, [2.0], [v]), ConfigError),
    ("linear_sparse_grid value", lambda v: SearchSpace.linear_sparse_grid(3, [2], [v]), ConfigError),
    ("descent grid value", lambda v: coordinate_descent_w(np.ones(3), 2.0, "kl", COUNTS, 1, [v]), ConfigError),
]

# A bool, a number written as a string and a wrong-typed value for every
# argument, and a fraction for integer arguments, where 2.5 and 2.7 lie
# inside the valid range, so a truncation would go unnoticed.
BAD_VALUES = (
    (INTEGER_ARGUMENTS, (True, 2.7, np.float64(2.5), "2", "x", (2,))),
    (REAL_ARGUMENTS, (True, np.True_, "2.5", np.str_("2.5"), b"2.5", "x", (2,))),
)
BAD = [
    pytest.param(call, value, error, id=f"{name}-{value!r}")
    for arguments, values in BAD_VALUES
    for name, call, error in arguments
    for value in values
]


@pytest.mark.parametrize("call, value, error", BAD)
def test_bad_scalar_raises_layer_error(call, value, error):
    with pytest.raises(error):
        call(value)


# A container argument that is not a mapping or not iterable raises its
# layer's error, not Python's own AttributeError or TypeError.
CONTAINER_ARGUMENTS = [
    ("from_cells pairs", lambda: CountsVector.from_cells(3, [(1, 1)]), DataError),
    ("sparse pairs", lambda: ShrinkageSpec.sparse(3, [(1, 1.0)]), ValueError),
    ("aa_lambda_grid lambdas", lambda: SearchSpace.aa_lambda_grid(3, 0.7), ConfigError),
    ("mixture components", lambda: EstimatorConfig.mixture(5), ConfigError),
    ("from_configs configs", lambda: SearchSpace.from_configs(AA), ConfigError),
    ("waak_fixed_w gammas", lambda: SearchSpace.waak_fixed_w(np.ones(3), 2.0), ConfigError),
    ("waak_shared_grid gammas", lambda: SearchSpace.waak_shared_grid(3, 2.0, [0.5]), ConfigError),
    ("waak_shared_grid grid", lambda: SearchSpace.waak_shared_grid(3, [2.0], 0.5), ConfigError),
    ("waak_product gammas", lambda: SearchSpace.waak_product(2.0, [[0.5]] * 3), ConfigError),
    ("waak_product axes", lambda: SearchSpace.waak_product([2.0], 0.5), ConfigError),
    ("waak_product axis", lambda: SearchSpace.waak_product([2.0], [0.5, 0.5, 0.5]), ConfigError),
    ("linear_sparse_grid indexes", lambda: SearchSpace.linear_sparse_grid(3, 2, [0.5]), ConfigError),
    ("linear_sparse_grid values", lambda: SearchSpace.linear_sparse_grid(3, [2], 0.5), ConfigError),
    ("mixture_weight_grid components", lambda: SearchSpace.mixture_weight_grid(AA, 2), ConfigError),
    ("descent grid", lambda: coordinate_descent_w(np.ones(3), 2.0, "kl", COUNTS, 1, 0.5), ConfigError),
    ("estimate_at cells", lambda: estimate_at(5, UNIFORM, COUNTS), ValueError),
    ("single_interaction w", lambda: ShrinkageSpec.single_interaction(object()), ValueError),
    ("dense values", lambda: ShrinkageSpec.dense(object()), ValueError),
    ("waak w", lambda: EstimatorConfig.waak({"a": 1}, 2.0), ConfigError),
    ("waak_fixed_w w", lambda: SearchSpace.waak_fixed_w("abc", [2.0]), ConfigError),
]


@pytest.mark.parametrize("call, error", [a[1:] for a in CONTAINER_ARGUMENTS], ids=[a[0] for a in CONTAINER_ARGUMENTS])
def test_bad_container_raises_layer_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [a[1] for a in INTEGER_ARGUMENTS], ids=[a[0] for a in INTEGER_ARGUMENTS])
def test_integer_arguments_take_numpy_integers(call):
    call(np.int64(2))


def test_huge_index_out_of_range_raises_layer_error():
    """An index too long for str() still gets its layer's message."""
    n = 15000
    with pytest.raises(DataError, match=f"cell index of {n + 1} bits out of range"):
        CountsVector.from_cells(n, {(1 << n) + 1: 1})


def test_sources_parse_as_python_3_10():
    """requires-python is >=3.10: no source may use newer syntax."""
    sources = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "bindens").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
