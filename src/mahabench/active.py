"""Label acquisition from an unlabelled pool, scored on a held-out test set.

Strategies: random selection and two uncertainty scores computed from the
head's class probabilities.  Variation ratios are reported as
``1 - max_k p_k`` so that every scored strategy acquires its argmax; this
is the same ordering as ranking by lowest maximum probability.  Statistics
are refit from scratch after every acquisition.

``run_active_session`` draws a block of sessions from a world and steps
them, under every strategy, in lockstep, as ``continual.run_continual_session``
does for streams.  The block's seed rows, pools and test sets are drawn
together, once, from one ``Rng`` over the block's seeds, and each session
is run under every strategy.  At step t each of the block's fits, one per
(session, strategy), has the same class count, ``K + t`` labelled rows and
``pool - t`` open pool rows, so one stacked fit (``methods.fit_statistics``)
and one stacked scoring of the test sets (``heads.class_scores``) serve
them all.  Only the acquisition itself (``select_next``) runs once per fit.
Every fit has the bits it would have on its own (the batch axis of
``heads``, and a session's draws are those of its seed alone), so a curve
does not depend on which block, or how large a block, its session ran in.
"""

from enum import Enum

import numpy as np

from . import heads
from .errors import (DimensionMismatch, InvalidConfig, PoolExhausted, StrategyHasNoScore,
                     check_sizes)
from .methods import HeadConfig, fit_statistics
from .rng import MASK64, Rng, derive_seeds
from .worlds import ClusterWorld, draw_class_examples


class AcquisitionStrategy(Enum):
    RANDOM = "random"
    PREDICTIVE_ENTROPY = "entropy"
    VARIATION_RATIOS = "variation-ratios"


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


def check_budget(**sizes) -> None:
    """Raise ``InvalidConfig`` unless ``0 <= budget <= class count * pool
    per class``; ``sizes`` holds those three numbers, in that order, under
    the names the message gives them."""
    (budget_name, budget), (classes_name, classes), (per_class_name, per_class) = sizes.items()
    if not 0 <= budget <= classes * per_class:
        raise InvalidConfig(f"{budget_name} must lie in [0, {classes * per_class}], the pool of "
                            f"{classes_name} {classes} x {per_class_name} {per_class}")


def run_active_session(world: ClusterWorld, pool_per_class: int, test_per_class: int,
                       budget: int, seeds, strategies, head: HeadConfig) -> np.ndarray:
    """Accuracy curves of a block of sessions, one per seed in ``seeds``,
    under every strategy: ``curves[s, a, t]`` is session s's test accuracy
    under strategy a after ``t`` acquisitions, shaped ``(sessions,
    strategies, budget + 1)``.

    A session holds, over all of the world's classes in class order, one
    seed row per class, then ``pool_per_class`` pool rows and
    ``test_per_class`` test rows per class.  The block draws each of the
    three sets in one ``draw_class_examples`` call from one ``Rng`` over
    ``seeds``, and session s gets the bits ``Rng(seeds[s])`` alone draws;
    its random selections come from ``Rng(derive_seed(seeds[s],
    "selection"))``, one generator per strategy.  Statistics are refit from
    scratch at every step.  Transductive heads treat the unacquired pool as
    the refinement query set; either way the pool probabilities are the
    fit's query probabilities.  Fit f is session ``f // len(strategies)``
    under strategy ``f % len(strategies)``, and its ``select_next`` call
    comes before fit f + 1's at every step.

    Raises ``InvalidConfig`` if there is no seed or no strategy, a
    per-class size is below 1, or ``budget`` lies outside ``[0,
    world.class_count * pool_per_class]``.
    """
    seeds, strategies = list(seeds), list(strategies)
    if not seeds or not strategies:
        raise InvalidConfig("a block needs at least one session and one strategy")
    check_sizes(pool_per_class=pool_per_class, test_per_class=test_per_class)
    k = world.class_count
    check_budget(budget=budget, class_count=k, pool_per_class=pool_per_class)
    pool_size = k * pool_per_class

    # seed, pool and test rows, (S, k * count, d) each, for every session at once
    seeds = np.array([seed & MASK64 for seed in seeds], dtype=np.uint64)
    rng = Rng(seeds)
    seed_x, pool_x, test_x = [
        np.concatenate(draw_class_examples(world, range(k), [count] * k, rng), axis=-2)
        for count in (1, pool_per_class, test_per_class)]
    seed_y = np.arange(k, dtype=np.int64)
    pool_y, test_y = np.repeat(seed_y, pool_per_class), np.repeat(seed_y, test_per_class)

    # fit f is session owner[f] under strategy f % len(strategies)
    owner = np.repeat(np.arange(len(seeds)), len(strategies))
    seed_x, pool_x, test_x = seed_x[owner], pool_x[owner], test_x[owner]
    rngs = [Rng(seed) for seed in derive_seeds(seeds, "selection")[owner]]
    fits = owner.size
    by_fit = np.arange(fits)[:, None]
    taken = np.zeros((fits, pool_size), dtype=bool)
    acquired = np.empty((fits, budget), dtype=np.intp)  # in acquisition order, which the refit sees
    curves = np.empty((fits, budget + 1))
    seed_y = np.broadcast_to(seed_y, (fits, k))

    for t in range(budget + 1):
        open_idx = np.nonzero(~taken)[1].reshape(fits, pool_size - t)  # ascending per fit
        labeled_x = np.concatenate([seed_x, pool_x[by_fit, acquired[:, :t]]], axis=1)
        labeled_y = np.concatenate([seed_y, pool_y[acquired[:, :t]]], axis=1)
        [fit] = fit_statistics([head], labeled_x, labeled_y, pool_x[by_fit, open_idx])
        # ties break toward the lowest class index, as in ``methods.predict``
        test_pred = np.argmax(heads.class_scores(test_x, fit.statistics, head.metric), axis=-1)
        curves[:, t] = np.mean(test_pred == test_y, axis=-1)
        if t == budget:
            break
        for f in range(fits):
            choice = select_next(fit.query_probs[f], open_idx[f], strategies[f % len(strategies)],
                                 rngs[f])
            acquired[f, t] = choice
            taken[f, choice] = True
    return curves.reshape(len(seeds), len(strategies), budget + 1)
