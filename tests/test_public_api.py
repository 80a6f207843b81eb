"""The package's public names, pinned: adding or dropping one is an API
change and must come with a version bump and an edit of this list."""

import bindens

PUBLIC_0_2_0 = [
    "BindensError",
    "BudgetExceededError",
    "CapacityError",
    "ConfigError",
    "CountsVector",
    "DataError",
    "DegenerateNormalizerError",
    "DensityEstimate",
    "EstimatorConfig",
    "InsufficientDataError",
    "InteractionIndexSet",
    "KINDS",
    "LOSSES",
    "MAX_DENSE_N",
    "MAX_FULL_N",
    "NormalizerResult",
    "NumericError",
    "RiskReport",
    "SearchSpace",
    "ShrinkageSpec",
    "Transform",
    "TransformOverflowError",
    "VARIANTS",
    "apply",
    "as_point",
    "clamp_and_renormalize",
    "coordinate_descent_w",
    "counts_from_observations",
    "estimate_at",
    "estimate_full",
    "evaluate_space",
    "fwht",
    "grid_search",
    "index_of_point",
    "interaction_indexes",
    "kl_risk",
    "loo_term",
    "matrix_element",
    "normalizer",
    "point_of_index",
    "product_index",
    "se_risk",
    "shrinkage_optimal",
    "squared_matrix_element",
    "walsh_entry",
]


def test_public_names_are_the_0_2_0_list():
    assert bindens.__version__ == "0.2.0"
    assert sorted(bindens.__all__) == PUBLIC_0_2_0


def test_every_public_name_is_bound():
    missing = [name for name in bindens.__all__ if not hasattr(bindens, name)]
    assert not missing
