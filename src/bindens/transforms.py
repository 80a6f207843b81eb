"""Elementwise monotone maps applied to kernel matrix entries, and the
normalization constants of the resulting estimators.

A transform f turns the raw diagonalized kernel entry into f(entry)/Z,
where Z sums f over one matrix row. Because rows of the product-index
table are permutations, Z is the same for every row, and for several
(transform, shrinkage) shapes it collapses to a closed form evaluated
without touching a 2^n buffer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, TransformOverflowError
from .shrinkage import SINGLE_INTERACTION, ShrinkageSpec
from .walsh import MAX_DENSE_N, _real, fwht

__all__ = [
    "KINDS",
    "NONNEGATIVE_KINDS",
    "NormalizerResult",
    "Transform",
    "apply",
    "normalizer",
]

KINDS = ("identity", "exponential", "logistic", "step", "relu", "tanh", "elu")

# Kinds whose output is nonnegative everywhere, so the estimator they
# induce can never produce a negative probability.
NONNEGATIVE_KINDS = frozenset({"exponential", "logistic", "step", "relu"})

# |x| beyond which exp(x) leaves the finite float64 range.
_EXP_LIMIT = 700.0

LINEAR_TRIVIAL = "linear_trivial"
CLOSED_FORM_LOGISTIC = "closed_form_logistic"
CLOSED_FORM_EXPONENTIAL = "closed_form_exponential"
FWHT_GENERAL = "fwht_general"

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class Transform:
    """One member of the monotone transform family.

    Use the factory classmethods; the raw constructor performs only
    kind-specific validation of whichever parameters are set.
    """

    kind: str
    gamma: float = None
    threshold: float = None
    low: float = None
    high: float = None
    scale: float = None
    alpha: float = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in ("exponential", "logistic"):
            if self.gamma is None or not math.isfinite(self.gamma) or self.gamma <= 0:
                raise ValueError(f"{self.kind} transform needs a finite base gamma > 0")
        if self.kind == "step":
            for name, val in (("threshold", self.threshold), ("low", self.low), ("high", self.high)):
                if val is None or not math.isfinite(val):
                    raise ValueError(f"step transform needs a finite {name}")
            if not 0 <= self.low <= self.high:
                raise ValueError("step transform needs 0 <= low <= high")
        if self.kind == "tanh":
            if self.scale is None or not math.isfinite(self.scale) or self.scale < 0:
                raise ValueError("tanh transform needs a finite scale >= 0")
        if self.kind == "elu":
            if self.alpha is None or not math.isfinite(self.alpha) or self.alpha < 0:
                raise ValueError("elu transform needs a finite alpha >= 0")

    @classmethod
    def identity(cls):
        return cls(kind="identity")

    @classmethod
    def exponential(cls, gamma):
        """f(x) = gamma ** x."""
        return cls(kind="exponential", gamma=_real(gamma, "exponential transform gamma"))

    @classmethod
    def logistic(cls, gamma):
        """f(x) = 1 / (1 + gamma ** -x)."""
        return cls(kind="logistic", gamma=_real(gamma, "logistic transform gamma"))

    @classmethod
    def step(cls, threshold, low, high):
        """f(x) = low for x < threshold, high for x >= threshold."""
        threshold, low = _real(threshold, "step transform threshold"), _real(low, "step transform low")
        return cls(kind="step", threshold=threshold, low=low, high=_real(high, "step transform high"))

    @classmethod
    def relu(cls):
        """f(x) = max(x, 0)."""
        return cls(kind="relu")

    @classmethod
    def tanh(cls, scale=1.0):
        """f(x) = tanh(scale * x)."""
        return cls(kind="tanh", scale=_real(scale, "tanh transform scale"))

    @classmethod
    def elu(cls, alpha=1.0):
        """f(x) = x for x >= 0, alpha * (exp(x) - 1) below."""
        return cls(kind="elu", alpha=_real(alpha, "elu transform alpha"))

    @property
    def is_nonnegative(self):
        """True when f maps every real to a nonnegative value."""
        return self.kind in NONNEGATIVE_KINDS


def _stable_sigmoid(y):
    """1 / (1 + e^-y) that cannot overflow: with e = e^-|y| in [0, 1], it is
    1 / (1 + e) where y >= 0 and e / (1 + e) below, with no mask to gather
    or scatter by. -|y| is taken as min(y, -y), which keeps the sign of a
    NaN (negating abs() would set it)."""
    e = np.negative(y)
    np.minimum(y, e, out=e)
    np.exp(e, out=e)
    out = np.where(y >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def apply(transform, x):
    """Evaluate the transform elementwise on a scalar or array."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    kind = transform.kind
    if kind == "identity":
        out = arr.copy()
    elif kind == "exponential":
        z = arr * math.log(transform.gamma)
        if np.any(np.abs(z) > _EXP_LIMIT):
            worst = float(np.max(np.abs(arr * math.log(transform.gamma))))
            raise TransformOverflowError(
                f"exponential transform argument magnitude {worst:.3g} exceeds the finite range"
            )
        out = np.exp(z)
    elif kind == "logistic":
        out = _stable_sigmoid(arr * math.log(transform.gamma))
    elif kind == "step":
        out = np.where(arr < transform.threshold, transform.low, transform.high)
    elif kind == "relu":
        out = np.maximum(arr, 0.0)
    elif kind == "tanh":
        out = np.tanh(transform.scale * arr)
    else:  # elu
        out = np.where(arr >= 0, arr, transform.alpha * np.expm1(np.minimum(arr, 0.0)))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class NormalizerResult:
    """Normalization constant with the dispatch route that produced it.

    value may overflow to inf at very large n; log_value stays finite
    whenever the constant is mathematically positive and finite in log
    space, so downstream element evaluation works at any dimension.
    """

    value: float
    method: str
    log_value: float


def normalizer(transform, shrinkage):
    """Normalization constant Z = sum_j f((W b)_j) for one matrix row.

    Dispatches to the cheapest exact route: O(1) for the identity with
    leading coefficient 1 and for the logistic with single-interaction
    shrinkage, O(n) for the exponential with single-interaction
    shrinkage, and an O(n 2^n) transform fallback otherwise (n <= 30).
    """
    if not isinstance(transform, Transform):
        raise ValueError("transform must be a Transform instance")
    if not isinstance(shrinkage, ShrinkageSpec):
        raise ValueError("shrinkage must be a ShrinkageSpec instance")
    n = shrinkage.n
    method = _route(transform, shrinkage)

    if method == LINEAR_TRIVIAL:
        value = float(2**n) if n <= 1023 else math.inf
        return NormalizerResult(value=value, method=LINEAR_TRIVIAL, log_value=n * _LOG2)
    if method == CLOSED_FORM_LOGISTIC:
        # Row entries come in x/-x pairs and the logistic satisfies
        # f(x) + f(-x) = 1, so the row sums to half the row length.
        value = float(2 ** (n - 1)) if n - 1 <= 1023 else math.inf
        return NormalizerResult(value=value, method=CLOSED_FORM_LOGISTIC, log_value=(n - 1) * _LOG2)
    if method == CLOSED_FORM_EXPONENTIAL:
        t = shrinkage.w * math.log(transform.gamma)
        log_z = float(np.sum(np.logaddexp(t, -t)))
        value = math.exp(log_z) if log_z < _EXP_LIMIT else math.inf
        return NormalizerResult(value=value, method=CLOSED_FORM_EXPONENTIAL, log_value=log_z)
    return _summed_normalizer(_dense_values(transform, shrinkage))


def _route(transform, shrinkage):
    """The method normalizer() takes for this pair: a closed form when
    one applies, FWHT_GENERAL otherwise."""
    if transform.kind == "identity" and shrinkage.first_coefficient() == 1.0:
        return LINEAR_TRIVIAL
    if shrinkage.form == SINGLE_INTERACTION:
        if transform.kind == "logistic":
            return CLOSED_FORM_LOGISTIC
        if transform.kind == "exponential":
            return CLOSED_FORM_EXPONENTIAL
    return FWHT_GENERAL


def _dense_values(transform, shrinkage):
    """f at every entry of the row W b: what the FWHT_GENERAL route sums,
    and, divided by that sum, the dense kernel row (n <= 30)."""
    n = shrinkage.n
    if n > MAX_DENSE_N:
        raise CapacityError(
            f"no closed-form normalizer for this configuration and n={n} exceeds the dense limit {MAX_DENSE_N}"
        )
    return apply(transform, fwht(shrinkage.to_dense()))


def _summed_normalizer(values):
    """The FWHT_GENERAL normalizer: the sum of a row's transformed values.
    A sum within n * eps * sum(|f|) of zero, the rounding error of summing
    2^n terms, is taken as 0: its sign and size are noise."""
    value = float(np.sum(values))
    if not math.isfinite(value):
        raise TransformOverflowError("normalizer sum is not finite")
    if abs(value) <= (values.size.bit_length() - 1) * math.ulp(1.0) * float(np.sum(np.abs(values))):
        value = 0.0
    log_value = math.log(value) if value > 0 else -math.inf
    return NormalizerResult(value=value, method=FWHT_GENERAL, log_value=log_value)
