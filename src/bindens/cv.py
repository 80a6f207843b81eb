"""Leave-one-out risk surrogates and configuration search.

Both losses reduce to inner products between kernel elements and the
observation counts, so neither ever rebuilds an estimate per held-out
point: leaving out one observation only shifts one count. A risk takes
one support x support block of Q from the batched kernel core over the
K distinct observed cells, and SE adds the quadratic form p' Q^2 p of
the empirical weights: a support x support block of Q @ Q for linear,
waak and aa_classic kernels, and a Parseval sum over the dense profile
for transformed and mixture kernels. Every reduction runs in a fixed
ascending-cell order so repeated runs are bitwise identical.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ConfigError, InsufficientDataError
from .estimators import CountsVector, EstimatorConfig, _config_state, _support
from .shrinkage import ShrinkageSpec

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
    if not isinstance(config, EstimatorConfig):
        raise ConfigError("expected an EstimatorConfig")
    if not isinstance(counts, CountsVector):
        raise ConfigError("expected a CountsVector")
    if config.n != counts.n:
        raise ConfigError(
            f"estimator dimension {config.n} does not match data dimension {counts.n}"
        )
    if counts.total < 2:
        raise InsufficientDataError("leave-one-out needs at least two observations")


def _held_out(gram, cnt, own, total):
    """Held-out estimate at each row cell with one of its observations removed.

    gram holds Q between the row cells and the support (it is
    overwritten); row k's own cell sits in column own[k]. That entry is
    weighted by its count minus one rather than subtracted after the
    product: it dominates its row at large n, and the difference would
    cancel to 0.
    """
    rows = np.arange(gram.shape[0])
    own_entries = gram[rows, own]
    gram[rows, own] = 0.0
    return (gram @ cnt + own_entries * (cnt[own] - 1.0)) / (total - 1)


def _element_evals(counts):
    k = len(counts.cells)
    return k * (k - 1) // 2 + sum(1 for _, cnt in counts.cells if cnt >= 2)


def _support_terms(state, counts):
    """Support cells, their counts, and the held-out term at each."""
    cells, cnt = _support(counts)
    terms = _held_out(state.gram(cells, cells), cnt, np.arange(len(cells)), counts.total)
    return cells, cnt, terms


def _observation_terms(terms, counts):
    return tuple(np.repeat(terms, [cnt for _, cnt in counts.cells]).tolist())


def loo_term(k, config, counts):
    """Held-out estimate for observation k in canonical order.

    Matches rebuilding the counts without observation k and evaluating
    the estimate at that observation's cell.
    """
    _check_inputs(config, counts)
    obs = counts.observations
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"observation index must be an integer, got {k!r}")
    if not 0 <= k < len(obs):
        raise ValueError(f"observation index {k} out of range [0, {len(obs) - 1}]")
    cell = obs[int(k)]
    cells, cnt = _support(counts)
    gram = _config_state(config).gram([cell], cells)
    return float(_held_out(gram, cnt, [cells.index(cell)], counts.total)[0])


def kl_risk(config, counts):
    """Leave-one-out log-likelihood surrogate (maximize).

    A nonpositive held-out estimate anywhere makes the surrogate -inf
    and sets dominated, so such configurations lose to every finite one
    without raising.
    """
    _check_inputs(config, counts)
    _, cnt, terms = _support_terms(_config_state(config), counts)
    dominated = not bool(np.all(terms > 0.0))
    if dominated:
        value = -math.inf
    else:
        value = math.fsum((cnt * np.log(terms)).tolist())
    return RiskReport(
        loss="kl",
        value=value,
        loo_terms=_observation_terms(terms, counts),
        config=config,
        element_evals=_element_evals(counts),
        squared_element_evals=0,
        dominated=dominated,
    )


def se_risk(config, counts):
    """Leave-one-out squared-error surrogate (minimize).

    Equals p_K' Q^2 p_K minus twice the mean held-out estimate; differs
    from the true expected squared error only by a configuration-free
    constant, so rankings are preserved.
    """
    _check_inputs(config, counts)
    state = _config_state(config)
    cells, cnt, terms = _support_terms(state, counts)
    N = counts.total
    p = cnt / N
    quad = state.quadratic(cells, p)
    value = quad - (2.0 / N) * math.fsum((cnt * terms).tolist())
    k = len(cells)
    return RiskReport(
        loss="se",
        value=value,
        loo_terms=_observation_terms(terms, counts),
        config=config,
        element_evals=_element_evals(counts),
        squared_element_evals=k * (k + 1) // 2,
        dominated=False,
    )


def _risk(loss, config, counts):
    if loss == "kl":
        return kl_risk(config, counts)
    if loss == "se":
        return se_risk(config, counts)
    raise ConfigError(f"unknown loss {loss!r}; expected one of {LOSSES}")


def _is_better(challenger, incumbent):
    """Strict improvement; ties keep the incumbent (first wins)."""
    a, b = challenger.value, incumbent.value
    if math.isnan(a):
        return False
    if math.isnan(b):
        return True
    return a > b if challenger.loss == "kl" else a < b


# ---------------------------------------------------------------------------
# search spaces


def _check_budget(budget):
    if budget is None:
        return None
    if not isinstance(budget, (int, np.integer)) or isinstance(budget, bool) or budget < 1:
        raise ConfigError(f"budget must be a positive integer or None, got {budget!r}")
    return int(budget)


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
        configs = tuple(configs)
        for cfg in configs:
            if not isinstance(cfg, EstimatorConfig):
                raise ConfigError("search space entries must be EstimatorConfig instances")
        return cls(configs=configs, budget=_check_budget(budget))

    @classmethod
    def aa_lambda_grid(cls, n, lambdas, budget=None):
        configs = tuple(EstimatorConfig.aa_classic(n, lam) for lam in lambdas)
        return cls(configs=configs, budget=_check_budget(budget))

    @classmethod
    def waak_fixed_w(cls, w, gammas, budget=None):
        arr = np.asarray(w, dtype=np.float64)
        configs = tuple(EstimatorConfig.waak(arr, g) for g in gammas)
        return cls(configs=configs, budget=_check_budget(budget))

    @classmethod
    def waak_shared_grid(cls, n, gammas, w_grid, budget=None):
        """All weights equal; axes ordered gamma outermost, then the weight."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigError(f"dimension must be a positive integer, got {n!r}")
        configs = tuple(
            EstimatorConfig.waak(np.full(int(n), float(v)), g)
            for g in gammas
            for v in w_grid
        )
        return cls(configs=configs, budget=_check_budget(budget))

    @classmethod
    def waak_product(cls, gammas, w_axes, budget=None):
        """Full cross product over per-coordinate weight axes."""
        axes = [list(axis) for axis in w_axes]
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
        idx_list = [int(i) for i in indexes]
        if len(set(idx_list)) != len(idx_list):
            raise ConfigError("shrinkage indexes must be distinct")
        if 1 in idx_list:
            raise ConfigError("index 1 is pinned to coefficient 1 and cannot be searched")
        values = list(value_grid)
        configs = []
        for combo in itertools.product(values, repeat=len(idx_list)):
            entries = {1: 1.0}
            entries.update(dict(zip(idx_list, combo)))
            configs.append(EstimatorConfig.linear(ShrinkageSpec.sparse(n, entries)))
        return cls(configs=tuple(configs), budget=_check_budget(budget))

    @classmethod
    def mixture_weight_grid(cls, components, denominator, budget=None):
        """All positive weight vectors with entries a_i/denominator summing to 1."""
        comps = list(components)
        if not comps:
            raise ConfigError("mixture grid needs at least one component")
        m = int(denominator)
        if m < len(comps):
            raise ConfigError(
                f"denominator {m} cannot give positive weights to {len(comps)} components"
            )
        configs = []
        for split in itertools.product(range(1, m + 1), repeat=len(comps)):
            if sum(split) != m:
                continue
            weights = [a / m for a in split]
            configs.append(EstimatorConfig.mixture(tuple(zip(weights, comps))))
        return cls(configs=tuple(configs), budget=_check_budget(budget))


def _check_positive(value, name):
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def evaluate_space(space, loss, counts, threads=1):
    """Evaluate every candidate up to the budget, keeping declared order.

    Returns (reports, best_pos, truncated); truncated is True when the
    budget cut the enumeration short. threads is validated and kept for
    compatibility: candidates run one after another, and BLAS threads
    act inside each kernel block.
    """
    if not isinstance(space, SearchSpace):
        raise ConfigError("expected a SearchSpace")
    if loss not in LOSSES:
        raise ConfigError(f"unknown loss {loss!r}; expected one of {LOSSES}")
    _check_positive(threads, "threads")
    configs = space.configs
    if not configs:
        raise ConfigError("search space is empty")
    limit = len(configs) if space.budget is None else min(space.budget, len(configs))
    reports = [_risk(loss, cfg, counts) for cfg in configs[:limit]]
    best_pos = 0
    for pos in range(1, len(reports)):
        if _is_better(reports[pos], reports[best_pos]):
            best_pos = pos
    return reports, best_pos, limit < len(configs)


def grid_search(space, loss, counts, threads=1):
    """Exhaustively evaluate a search space; returns (config, report).

    Candidates are compared by strict improvement in declared order, so
    ties keep the earliest candidate. When the budget is smaller than
    the space, the evaluated prefix is still ranked and the best result
    rides along on the budget error.
    """
    reports, best_pos, truncated = evaluate_space(space, loss, counts, threads)
    if truncated:
        raise BudgetExceededError(
            f"budget {space.budget} exhausted with {len(space.configs) - len(reports)} candidates unevaluated",
            best_config=space.configs[best_pos],
            best_report=reports[best_pos],
        )
    return space.configs[best_pos], reports[best_pos]


def coordinate_descent_w(initial_w, gamma, loss, counts, sweeps, grid, threads=1):
    """Cyclic per-coordinate grid descent on the weighted kernel weights.

    Each coordinate in turn is scanned over the grid and moved only on
    strict improvement (first-best wins), so the surrogate is monotone
    along the trajectory. Stops early when a full sweep changes nothing.
    Returns (config, report) for the final weights. threads is validated
    as in evaluate_space and does not fan out.
    """
    _check_positive(threads, "threads")
    _check_positive(sweeps, "sweeps")
    if loss not in LOSSES:
        raise ConfigError(f"unknown loss {loss!r}; expected one of {LOSSES}")
    grid_values = [float(v) for v in grid]
    if not grid_values:
        raise ConfigError("weight grid is empty")
    for v in grid_values:
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"weight grid value {v} lies outside [0, 1]")
    w = np.asarray(initial_w, dtype=np.float64).copy()
    current_cfg = EstimatorConfig.waak(w, gamma)
    current = _risk(loss, current_cfg, counts)
    for _ in range(int(sweeps)):
        moved = False
        for d in range(w.size):
            candidates = [v for v in grid_values if v != w[d]]
            if not candidates:
                continue
            cand_cfgs = []
            for v in candidates:
                w_new = w.copy()
                w_new[d] = v
                cand_cfgs.append(EstimatorConfig.waak(w_new, gamma))
            reports = [_risk(loss, cfg, counts) for cfg in cand_cfgs]
            best_cfg, best_rep = None, None
            for cfg, rep in zip(cand_cfgs, reports):
                if _is_better(rep, current) and (best_rep is None or _is_better(rep, best_rep)):
                    best_cfg, best_rep = cfg, rep
            if best_rep is not None:
                w = best_cfg.shrinkage.w.copy()
                current_cfg, current = best_cfg, best_rep
                moved = True
        if not moved:
            break
    return current_cfg, current
