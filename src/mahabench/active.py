"""Label acquisition from an unlabelled pool, scored on a held-out test set.

Strategies: random selection and two uncertainty scores computed from the
head's class probabilities.  Variation ratios are reported as
``1 - max_k p_k`` so that every scored strategy acquires its argmax; this
is the same ordering as ranking by lowest maximum probability.  Statistics
are refit from scratch after every acquisition.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, PoolExhausted, StrategyHasNoScore
from .methods import HeadConfig, fit_statistics, predict_labels, support_fits
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
    strategy: AcquisitionStrategy
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
    pool_probs: np.ndarray,
    strategy: AcquisitionStrategy,
    acquired: np.ndarray,
    rng: Rng,
) -> int:
    """Index of the next pool example to label.

    ``acquired`` is a boolean mask over the pool, true where an example was
    already acquired.  Scored strategies take the argmax acquisition score
    over unacquired examples, ties toward the lowest index; random
    selection draws uniformly from the unacquired set using the session
    generator.
    """
    probs = np.atleast_2d(np.asarray(pool_probs, dtype=np.float64))
    acquired = np.asarray(acquired, dtype=bool)
    if acquired.shape != probs.shape[:1]:
        raise DimensionMismatch(f"mask of shape {acquired.shape} for a pool of {probs.shape[0]}")
    open_idx = np.flatnonzero(~acquired)
    if open_idx.size == 0:
        raise PoolExhausted("no unacquired pool examples left")
    if strategy is AcquisitionStrategy.RANDOM:
        return int(open_idx[rng.below(open_idx.size)])
    scores = acquisition_scores(probs[open_idx], strategy)
    return int(open_idx[np.argmax(scores)])


def run_active_session(session: ActiveSession, head: HeadConfig, return_acquired: bool = False):
    """Accuracy curve of length budget + 1.

    ``curve[t]`` is test accuracy after ``t`` acquisitions; statistics are
    refit from scratch at every step.  Transductive heads treat the
    unacquired pool as the refinement query set, so pool probabilities fall
    out of the refinement itself; either way they are the fit's query
    probabilities.  With ``return_acquired`` the acquired
    pool indices are returned alongside the curve.
    """
    rng = Rng(session.seed)
    acquired: list[int] = []  # in acquisition order, which the refit sees
    pool_size = session.pool_x.shape[0]
    taken = np.zeros(pool_size, dtype=bool)
    curve = np.empty(session.budget + 1)

    for t in range(session.budget + 1):
        open_idx = np.flatnonzero(~taken)
        labeled_x = np.vstack([session.seed_x, session.pool_x[acquired]])
        labeled_y = np.concatenate(
            [session.seed_y, session.pool_y[acquired]]
        ).astype(np.int64)
        start = support_fits([head], labeled_x, labeled_y, session.pool_x[open_idx])[0]
        fit = fit_statistics(head, start)
        test_pred = predict_labels(head, fit.statistics, session.test_x)
        curve[t] = float(np.mean(test_pred == session.test_y))
        if t == session.budget:
            break
        full_probs = np.zeros((pool_size, fit.statistics.class_count))
        full_probs[open_idx] = fit.query_probs
        choice = select_next(full_probs, session.strategy, taken, rng)
        acquired.append(choice)
        taken[choice] = True
    if return_acquired:
        return curve, acquired
    return curve
