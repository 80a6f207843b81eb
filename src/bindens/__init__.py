"""Density estimation over the {-1,+1}^n binary hypercube.

Walsh-spectrum shrinkage estimators, monotone-transformed kernels,
weighted product-form categorical kernels, mixtures, and leave-one-out
cross-validation, with element-level evaluation that never allocates a
2^n buffer unless explicitly asked to.
"""

import os as _os
import sys as _sys

# numpy is the only backend. Any other request is refused, never served
# by numpy in its place, and it stops the process at import since both
# `python -m bindens` and the `bindens` script import the package before
# any command runs; 2 is the exit status of every configuration error.
_requested = _os.environ.get("BINDENS_BACKEND", "").strip().lower()
if _requested not in ("", "numpy"):
    print(f"error: BINDENS_BACKEND accepts only 'numpy', got {_requested!r}", file=_sys.stderr)
    raise SystemExit(2)

from .cv import (
    LOSSES,
    RiskReport,
    SearchSpace,
    coordinate_descent_w,
    evaluate_space,
    grid_search,
    kl_risk,
    loo_term,
    se_risk,
)
from .errors import (
    BindensError,
    BudgetExceededError,
    CapacityError,
    ConfigError,
    DataError,
    DegenerateNormalizerError,
    InsufficientDataError,
    NumericError,
    TransformOverflowError,
)
from .estimators import (
    MAX_FULL_N,
    VARIANTS,
    CountsVector,
    DensityEstimate,
    EstimatorConfig,
    clamp_and_renormalize,
    counts_from_observations,
    estimate_at,
    estimate_full,
    matrix_element,
    shrinkage_optimal,
    squared_matrix_element,
)
from .shrinkage import ShrinkageSpec
from .transforms import KINDS, NormalizerResult, Transform, apply, normalizer
from .walsh import (
    MAX_DENSE_N,
    InteractionIndexSet,
    as_point,
    fwht,
    index_of_point,
    interaction_indexes,
    point_of_index,
    product_index,
    walsh_entry,
)

__version__ = "0.2.0"

__all__ = [
    "KINDS",
    "LOSSES",
    "MAX_DENSE_N",
    "MAX_FULL_N",
    "VARIANTS",
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
    "NormalizerResult",
    "NumericError",
    "RiskReport",
    "SearchSpace",
    "ShrinkageSpec",
    "Transform",
    "TransformOverflowError",
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
