"""Label acquisition from an unlabelled pool, scored on a held-out test set.

Strategies: random selection and two uncertainty scores computed from the
head's class probabilities.  Variation ratios are reported as
``1 - max_k p_k`` so that every scored strategy acquires its argmax; this
is the same ordering as ranking by lowest maximum probability.  Statistics
are refit from scratch after every acquisition.

A session (``ActiveSession``) is drawn once and run under every strategy.
``run_active_session`` steps a block of sessions, under every strategy, in
lockstep: at step t each of the block's fits, one per (session, strategy),
has the same class count, ``K + t`` labelled rows and ``pool - t`` open
pool rows, so one stacked fit (``methods.fit_statistics``) and one
stacked ``methods.predict_labels`` serve them all.  Only the acquisition itself (``select_next``) runs once
per fit.  Every fit has the bits it would have on its own, so a curve does
not depend on which block, or how large a block, its session ran in.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, PoolExhausted, StrategyHasNoScore
from .methods import HeadConfig, fit_statistics, predict_labels
from .rng import Rng


class AcquisitionStrategy(Enum):
    RANDOM = "random"
    PREDICTIVE_ENTROPY = "entropy"
    VARIATION_RATIOS = "variation-ratios"


@dataclass(frozen=True)
class ActiveSession:
    """A pool with hidden labels, an initial labelled set and a test set."""

    pool_x: np.ndarray
    pool_y: np.ndarray  # hidden until acquired
    seed_x: np.ndarray
    seed_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    budget: int
    seed: int = 0  # drives random selection only

    def __post_init__(self):
        check_budget(self.budget, self.pool_x.shape[0])


def check_budget(budget: int, pool_size: int) -> None:
    """Raise ``InvalidConfig`` unless ``budget`` labels fit in the pool."""
    if budget < 0 or budget > pool_size:
        raise InvalidConfig("budget must lie in [0, pool size]")


def acquisition_scores(pool_probs: np.ndarray, strategy: AcquisitionStrategy) -> np.ndarray:
    """Per-example acquisition scores; higher means acquire first."""
    probs = np.atleast_2d(np.asarray(pool_probs, dtype=np.float64))
    if strategy is AcquisitionStrategy.PREDICTIVE_ENTROPY:
        logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0)  # 0 log 0 := 0
        return -(probs * logs).sum(axis=1)
    if strategy is AcquisitionStrategy.VARIATION_RATIOS:
        return 1.0 - probs.max(axis=1)
    raise StrategyHasNoScore(f"{strategy} has no per-example score")


def select_next(
    open_probs: np.ndarray,
    open_idx: np.ndarray,
    strategy: AcquisitionStrategy,
    rng: Rng,
) -> int:
    """Index of the next pool example to label.

    ``open_idx`` holds the pool indices of the unacquired examples, in
    ascending order, and ``open_probs`` their class probabilities, a row
    each.  Scored strategies take the argmax acquisition score, ties toward
    the lowest index; random selection draws uniformly from ``open_idx``
    using the session generator.

    Raises
    ------
    DimensionMismatch
        If ``open_probs`` does not hold one row per index of ``open_idx``.
    PoolExhausted
        If no example is left unacquired.
    """
    probs = np.atleast_2d(np.asarray(open_probs, dtype=np.float64))
    open_idx = np.asarray(open_idx, dtype=np.intp)
    if open_idx.shape != probs.shape[:1]:
        raise DimensionMismatch(f"{open_idx.shape[0]} open indices for {probs.shape[0]} "
                                f"probability rows")
    if open_idx.size == 0:
        raise PoolExhausted("no unacquired pool examples left")
    if strategy is AcquisitionStrategy.RANDOM:
        return int(open_idx[rng.below(open_idx.size)])
    return int(open_idx[np.argmax(acquisition_scores(probs, strategy))])


def run_active_session(sessions, strategies, head: HeadConfig, return_acquired: bool = False):
    """Accuracy curves of a block of sessions under every strategy.

    Returns a ``(sessions, strategies, budget + 1)`` array: ``curves[s, a, t]``
    is session s's test accuracy under strategy a after ``t`` acquisitions.
    Statistics are refit from scratch at every step.  Transductive heads
    treat the unacquired pool as the refinement query set, so pool
    probabilities fall out of the refinement itself; either way they are
    the fit's query probabilities.  Every (session, strategy) pair draws
    its random selections from its own ``Rng(session.seed)``.  With
    ``return_acquired`` the ``(sessions, strategies, budget)`` acquired
    pool indices, in acquisition order, are returned alongside the curves.

    Raises
    ------
    DimensionMismatch
        If the sessions differ in pool, seed-set or test-set shape.
    InvalidConfig
        If there is no session or no strategy, or the budgets differ.
    """
    sessions, strategies = list(sessions), list(strategies)
    if not sessions or not strategies:
        raise InvalidConfig("a block needs at least one session and one strategy")
    first = sessions[0]
    arrays = ("pool_x", "pool_y", "seed_x", "seed_y", "test_x", "test_y")
    for other in sessions[1:]:
        if other.budget != first.budget:
            raise InvalidConfig("the sessions of a block must share their budget")
        if any(getattr(other, name).shape != getattr(first, name).shape for name in arrays):
            raise DimensionMismatch("the sessions of a block must share their shapes")

    # fit f is session owner[f] under strategy f % len(strategies)
    owner = np.repeat(np.arange(len(sessions)), len(strategies))
    pool_x, pool_y, seed_x, seed_y, test_x, test_y = (
        np.stack([getattr(sessions[s], name) for s in owner]) for name in arrays)
    rngs = [Rng(sessions[s].seed) for s in owner]
    fits, pool_size, budget = owner.size, first.pool_x.shape[0], first.budget
    by_fit = np.arange(fits)[:, None]
    taken = np.zeros((fits, pool_size), dtype=bool)
    acquired = np.empty((fits, budget), dtype=np.intp)  # in acquisition order, which the refit sees
    curves = np.empty((fits, budget + 1))

    for t in range(budget + 1):
        open_idx = np.nonzero(~taken)[1].reshape(fits, pool_size - t)  # ascending per fit
        labeled_x = np.concatenate([seed_x, pool_x[by_fit, acquired[:, :t]]], axis=1)
        labeled_y = np.concatenate([seed_y, pool_y[by_fit, acquired[:, :t]]], axis=1)
        [fit] = fit_statistics([head], labeled_x, labeled_y, pool_x[by_fit, open_idx])
        test_pred = predict_labels(head, fit.statistics, test_x)
        curves[:, t] = np.mean(test_pred == test_y, axis=-1)
        if t == budget:
            break
        for f in range(fits):
            choice = select_next(fit.query_probs[f], open_idx[f], strategies[f % len(strategies)],
                                 rngs[f])
            acquired[f, t] = choice
            taken[f, choice] = True
    shape = (len(sessions), len(strategies))
    if return_acquired:
        return curves.reshape(*shape, budget + 1), acquired.reshape(*shape, budget)
    return curves.reshape(*shape, budget + 1)
