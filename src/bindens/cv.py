"""Leave-one-out risk surrogates and configuration search.

Both losses reduce to inner products between kernel elements and the
observation counts, so neither ever rebuilds an estimate per held-out
point: leaving out one observation only shifts one count. The kernel
core returns the held-out term at every support cell at once, as
(scale, ratio) with the term exp(scale) * ratio (estimators._smoothed),
and this module only reduces those terms. KL sums each count times the
term's log, scale + log(ratio), so a term below the float64 range keeps
its true log. SE subtracts twice the terms' mean from the quadratic
form p' Q^2 p of the empirical weights (EstimatorConfig._quadratic).
Every reduction runs in a fixed ascending-cell order so repeated runs
are bitwise identical.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ConfigError, InsufficientDataError
from .estimators import EstimatorConfig, _match_dimensions, _smoothed
from .shrinkage import ShrinkageSpec
from .walsh import _check_index, _integer, _items, _real

__all__ = [
    "LOSSES",
    "RiskReport",
    "SearchSpace",
    "coordinate_descent_w",
    "evaluate_space",
    "grid_search",
    "kl_risk",
    "loo_term",
    "se_risk",
]

LOSSES = ("se", "kl")


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Outcome of one leave-one-out risk evaluation.

    loo_terms holds the held-out estimate for every observation in
    canonical (ascending cell) order. For the KL surrogate, dominated
    marks a nonpositive held-out estimate: the surrogate is then -inf,
    which ranks below every finite value, rather than an exception.

    The counters give the distinct unordered cell pairs whose kernel
    entries the risk depends on, for K distinct observed cells, whichever
    route computes them (a block of entries or a spectral sum):
    element_evals is K(K-1)/2 plus the number of cells observed at
    least twice (their own entry enters their held-out term), and
    squared_element_evals is K(K+1)/2 for SE and 0 for KL.
    """

    loss: str
    value: float
    loo_terms: tuple
    config: EstimatorConfig
    element_evals: int
    squared_element_evals: int
    dominated: bool


def _check_inputs(config, counts):
    _match_dimensions(config, counts)
    if counts.total < 2:
        raise InsufficientDataError("leave-one-out needs at least two observations")


def loo_term(k, config, counts):
    """Held-out estimate for observation k in canonical order.

    Matches rebuilding the counts without observation k and evaluating
    the estimate at that observation's cell. It reads entry k of the
    held-out pass a risk report makes, so it equals the report's
    loo_terms[k] bit for bit, at the cost of that whole pass.
    """
    _check_inputs(config, counts)
    k = _integer(k, "observation index", 0)
    if k >= counts.total:
        raise ValueError(f"observation index {k} out of range [0, {counts.total - 1}]")
    # Observations run in support order, so k falls in the first support
    # cell whose running count passes it.
    own = int(np.searchsorted(np.cumsum(counts._counts), k, side="right"))
    scale, ratio = _smoothed(config, counts)
    return float((np.exp(scale) * ratio)[own])


def _loo_risk(loss, config, counts):
    """The RiskReport of either loss from the held-out term at each
    support cell. KL sums the terms' logs, so a term below the float64
    range still counts with its true log when its kernel has one."""
    _check_inputs(config, counts)
    cnt = counts._counts
    scale, ratio = _smoothed(config, counts)
    terms = np.exp(scale) * ratio
    k = cnt.size
    dominated = False
    if loss == "kl":
        dominated = not bool(np.all(ratio > 0.0))
        value = -math.inf if dominated else math.fsum((cnt * (scale + np.log(ratio))).tolist())
    else:
        value = config._quadratic(counts) - (2.0 / counts.total) * math.fsum((cnt * terms).tolist())
    return RiskReport(
        loss=loss,
        value=value,
        loo_terms=tuple(np.repeat(terms, [c for _, c in counts.cells]).tolist()),
        config=config,
        element_evals=k * (k - 1) // 2 + int(np.count_nonzero(cnt >= 2)),
        squared_element_evals=k * (k + 1) // 2 if loss == "se" else 0,
        dominated=dominated,
    )


def kl_risk(config, counts):
    """Leave-one-out log-likelihood surrogate (maximize).

    A nonpositive held-out estimate anywhere makes the surrogate -inf
    and sets dominated, so such configurations lose to every finite one
    without raising.
    """
    return _loo_risk("kl", config, counts)


def se_risk(config, counts):
    """Leave-one-out squared-error surrogate (minimize).

    Equals p_K' Q^2 p_K minus twice the mean held-out estimate; differs
    from the true expected squared error only by a configuration-free
    constant, so rankings are preserved.
    """
    return _loo_risk("se", config, counts)


def _check_loss(loss):
    if loss not in LOSSES:
        raise ConfigError(f"unknown loss {loss!r}; expected one of {LOSSES}")


def _risk(loss, config, counts):
    """The risk named by loss, which the caller has checked (_check_loss)."""
    return kl_risk(config, counts) if loss == "kl" else se_risk(config, counts)


def _rank_key(report):
    """Lower is better: KL is maximized, SE minimized, NaN ranks last.

    The one ordering of candidates: searches take the first minimum of
    it, so ties keep the earliest candidate, and reports rank by it."""
    value = report.value
    return (math.isnan(value), -value if report.loss == "kl" else value)


# ---------------------------------------------------------------------------
# search spaces


def _check_budget(budget):
    return None if budget is None else _integer(budget, "budget", 1, ConfigError)


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Deterministically ordered list of candidate configurations.

    The factories enumerate axes in lexicographic order with gamma (or
    the first declared axis) outermost, so a given parameter grid always
    produces the same candidate sequence.
    """

    configs: tuple
    budget: int = None

    @classmethod
    def from_configs(cls, configs, budget=None):
        configs = tuple(_items(configs, "search space entries", ConfigError))
        for cfg in configs:
            if not isinstance(cfg, EstimatorConfig):
                raise ConfigError("search space entries must be EstimatorConfig instances")
        return cls(configs=configs, budget=_check_budget(budget))

    @classmethod
    def aa_lambda_grid(cls, n, lambdas, budget=None):
        lambdas = _items(lambdas, "lambdas", ConfigError)
        configs = tuple(EstimatorConfig.aa_classic(n, lam) for lam in lambdas)
        return cls(configs=configs, budget=_check_budget(budget))

    @classmethod
    def waak_fixed_w(cls, w, gammas, budget=None):
        configs = tuple(EstimatorConfig.waak(w, g) for g in _items(gammas, "gammas", ConfigError))
        return cls(configs=configs, budget=_check_budget(budget))

    @classmethod
    def waak_shared_grid(cls, n, gammas, w_grid, budget=None):
        """All weights equal; axes ordered gamma outermost, then the weight."""
        n = _integer(n, "dimension", 1, ConfigError)
        gammas = _items(gammas, "gammas", ConfigError)
        w_grid = _items(w_grid, "weight grid", ConfigError)
        values = [_real(v, "weight grid value", ConfigError) for v in w_grid]
        configs = tuple(EstimatorConfig.waak(np.full(n, v), g) for g in gammas for v in values)
        return cls(configs=configs, budget=_check_budget(budget))

    @classmethod
    def waak_product(cls, gammas, w_axes, budget=None):
        """Full cross product over per-coordinate weight axes."""
        gammas = _items(gammas, "gammas", ConfigError)
        axes = [
            [_real(v, "weight axis value", ConfigError) for v in _items(axis, "weight axis", ConfigError)]
            for axis in _items(w_axes, "weight axes", ConfigError)
        ]
        if not axes or any(not axis for axis in axes):
            raise ConfigError("every coordinate needs a nonempty weight axis")
        configs = tuple(
            EstimatorConfig.waak(np.array(combo, dtype=np.float64), g)
            for g in gammas
            for combo in itertools.product(*axes)
        )
        return cls(configs=configs, budget=_check_budget(budget))

    @classmethod
    def linear_sparse_grid(cls, n, indexes, value_grid, budget=None):
        """Sparse linear estimators with index 1 pinned to coefficient 1."""
        n = _integer(n, "dimension", 1, ConfigError)
        indexes = _items(indexes, "shrinkage indexes", ConfigError)
        idx_list = [_check_index(i, n, "shrinkage index", ConfigError) for i in indexes]
        if len(set(idx_list)) != len(idx_list):
            raise ConfigError("shrinkage indexes must be distinct")
        if 1 in idx_list:
            raise ConfigError("index 1 is pinned to coefficient 1 and cannot be searched")
        value_grid = _items(value_grid, "shrinkage value grid", ConfigError)
        values = [_real(v, "shrinkage grid value", ConfigError) for v in value_grid]
        configs = []
        for combo in itertools.product(values, repeat=len(idx_list)):
            entries = {1: 1.0}
            entries.update(dict(zip(idx_list, combo)))
            configs.append(EstimatorConfig.linear(ShrinkageSpec.sparse(n, entries)))
        return cls(configs=tuple(configs), budget=_check_budget(budget))

    @classmethod
    def mixture_weight_grid(cls, components, denominator, budget=None):
        """All positive weight vectors with entries a_i/denominator summing to 1."""
        comps = _items(components, "mixture grid components", ConfigError)
        if not comps:
            raise ConfigError("mixture grid needs at least one component")
        m = _integer(denominator, "denominator", 1, ConfigError)
        if m < len(comps):
            raise ConfigError(
                f"denominator {m} cannot give positive weights to {len(comps)} components"
            )
        if math.comb(m - 1, len(comps) - 1) > sys.maxsize:
            raise ConfigError(
                f"denominator {m} gives {len(comps)} components more than {sys.maxsize} weight vectors"
            )
        configs = [
            EstimatorConfig.mixture(tuple((a / m, comp) for a, comp in zip(split, comps)))
            for split in _compositions(m, len(comps))
        ]
        return cls(configs=tuple(configs), budget=_check_budget(budget))


def _compositions(total, parts):
    """Tuples of parts positive integers summing to total, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def evaluate_space(space, loss, counts):
    """Evaluate every candidate up to the budget, keeping declared order.

    Returns (reports, best_pos, truncated); truncated is True when the
    budget cut the enumeration short.
    """
    if not isinstance(space, SearchSpace):
        raise ConfigError("expected a SearchSpace")
    _check_loss(loss)
    configs = space.configs
    if not configs:
        raise ConfigError("search space is empty")
    limit = len(configs) if space.budget is None else min(space.budget, len(configs))
    reports = [_risk(loss, cfg, counts) for cfg in configs[:limit]]
    best_pos = min(range(len(reports)), key=lambda pos: _rank_key(reports[pos]))
    return reports, best_pos, limit < len(configs)


def grid_search(space, loss, counts):
    """Exhaustively evaluate a search space; returns (config, report).

    Candidates are compared by strict improvement in declared order, so
    ties keep the earliest candidate. When the budget is smaller than
    the space, the evaluated prefix is still ranked and the best result
    rides along on the budget error.
    """
    reports, best_pos, truncated = evaluate_space(space, loss, counts)
    if truncated:
        raise BudgetExceededError(
            f"budget {space.budget} exhausted with {len(space.configs) - len(reports)} candidates unevaluated",
            best_config=space.configs[best_pos],
            best_report=reports[best_pos],
        )
    return space.configs[best_pos], reports[best_pos]


def coordinate_descent_w(initial_w, gamma, loss, counts, sweeps, grid):
    """Cyclic per-coordinate grid descent on the weighted kernel weights.

    Each coordinate in turn is scanned over the grid, each trial scored
    by its risk. A trial replaces the best so far, which starts as the
    current weights, only when it strictly beats it: the first of tied
    trials wins, weights move only on a strict improvement, and the
    surrogate is monotone along the trajectory. Stops early when a full
    sweep changes nothing.
    Returns (config, report) for the final weights.
    """
    sweeps = _integer(sweeps, "sweeps", 1, ConfigError)
    _check_loss(loss)
    grid = _items(grid, "weight grid", ConfigError)
    grid_values = [_real(v, "weight grid value", ConfigError) for v in grid]
    if not grid_values:
        raise ConfigError("weight grid is empty")
    for v in grid_values:
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"weight grid value {v} lies outside [0, 1]")
    current_cfg = EstimatorConfig.waak(initial_w, gamma)
    current = _risk(loss, current_cfg, counts)
    for _ in range(sweeps):
        moved = False
        for d in range(current_cfg.n):
            best = current
            for v in grid_values:
                w = current_cfg.shrinkage.w.copy()
                if w[d] != v:
                    w[d] = v
                    report = _risk(loss, EstimatorConfig.waak(w, gamma), counts)
                    if _rank_key(report) < _rank_key(best):
                        best = report
            if best is not current:
                current_cfg, current = best.config, best
                moved = True
        if not moved:
            break
    return current_cfg, current
