"""Transductive refinement of class statistics via soft k-means.

Support rows count fully toward their own class throughout; query rows
count toward every class with their predicted probabilities.  The loop
alternates weighted statistics, computed by the one estimator
``heads.class_statistics``, with a refresh of the query probabilities, and
stops once the per-query argmax stops changing, subject to hard minimum and
maximum step counts.

``methods.fit_statistics`` is the only caller.  It hands the loop the
task's support layout, the support-only statistics at the head's beta
(iteration 1's statistics, shared with every head at that beta) and the
head's ``predict``, which is the loop's only way to score.

A stack of B fits of the same shape (a batched ``heads.SupportLayout``,
``(B, m, d)`` queries) runs through the one loop together, and each fit
stops at its own iteration by the same rule.  Once some fits have stopped,
later iterations estimate and score only the fits still running, and the
outcome puts every fit's last statistics and refresh back in batch order.
Each fit's results have the bits of its unbatched refinement.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, check_sizes
from .heads import ClassStatistics, QuerySet, SupportLayout, class_statistics


@dataclass(frozen=True)
class RefineConfig:
    """Step limits for the refinement loop.

    Defaults follow the variable-way benchmark setting (min 2, max 4).
    ``min_steps = max_steps = 1`` reproduces the training-time behavior of
    a single estimation pass.
    """

    min_steps: int = 2
    max_steps: int = 4

    def __post_init__(self):
        check_sizes(min_steps=self.min_steps)
        if self.max_steps < self.min_steps:
            raise InvalidConfig("max_steps must be >= min_steps")


@dataclass(frozen=True)
class RefineOutcome:
    """The final statistics and the last refresh of the query probabilities.

    ``query_probs`` and ``labels`` are the query probabilities and argmax
    labels under ``statistics``: the last refresh scored the query set
    after the last statistics update.  For a stack of fits they are
    stacked too, each fit's from its own last iteration; ``iterations_run``
    is then the iterations the loop ran (the most any fit took), and
    ``converged_early`` whether every fit's labels had stopped changing
    when it stopped.
    """

    statistics: ClassStatistics
    query_probs: np.ndarray  # (m, K)
    iterations_run: int
    converged_early: bool
    labels: np.ndarray  # (m,) query labels of the last refresh


def weighted_class_statistics(
    layout: SupportLayout, query_x, query_weights: np.ndarray, beta: float = 1.0
) -> ClassStatistics:
    """Means and regularized covariances with soft-weighted query rows.

    ``heads.class_statistics``: query row j counts toward class k with
    weight ``query_weights[j, k]``, so all-zero weights give exactly the
    support-only estimate.  ``query_x`` is an ``(m, d)`` array or a
    ``heads.QuerySet``; a stack of layouts takes ``(B, m, d)`` queries and
    ``(B, m, K)`` weights.

    Raises
    ------
    DimensionMismatch
        If the weights are not one row per query and one column per class
        of the layout, or the queries are not one set per layout.
    """
    queries = QuerySet.build(query_x, layout.dims)
    m = queries.rows.shape[-2]
    if queries.rows.shape[:-2] != layout.batch_shape or (
            query_weights.shape != (*layout.batch_shape, m, layout.class_count)):
        raise DimensionMismatch("query weights disagree with the queries or the classes")
    return class_statistics(layout, queries, query_weights, beta)


def run_refinement(
    layout: SupportLayout,
    start: ClassStatistics,
    query_x,
    cfg: RefineConfig,
    predict,
    beta: float,
) -> RefineOutcome:
    """The refinement loop; ``predict(stats, queries) -> (probs, labels)``.

    The metric and the GMM heads differ only in ``predict``.  ``start`` is
    the support-only estimate of ``layout`` at the head's ``beta``, which
    every later estimate uses too: iteration 1 takes it as its statistics,
    the bits ``weighted_class_statistics`` would compute with all-zero
    query weights, and refreshes through ``predict(start, queries)``.  Every
    later iteration re-estimates from the layout and the last refresh.

    ``query_x`` is an ``(m, d)`` array or a ``heads.QuerySet``.  It is
    checked here, once, and every estimate and every ``predict`` call
    takes the one ``QuerySet``, so its moments are taken once.

    A batched ``layout`` and ``start`` take ``(B, m, d)`` queries and refine
    the B fits together: ``predict`` then scores a stack of the fits still
    running, and a fit stops at the first iteration at which it would stop
    on its own.

    Raises
    ------
    DimensionMismatch
        If the query rows, or ``start``, disagree with the layout on dims,
        classes or batch.
    NonFiniteInput
        If a query row has a NaN or infinite entry.
    """
    queries = QuerySet.build(query_x, layout.dims)
    if start.counts.shape != layout.class_sizes.shape or start.dims != layout.dims:
        raise DimensionMismatch("start statistics and support layout disagree")
    if queries.rows.shape[:-2] != layout.batch_shape:
        raise DimensionMismatch("query sets and support layouts disagree on the batch")
    m = queries.rows.shape[-2]

    stats = start
    probs = np.zeros((*layout.batch_shape, m, layout.class_count))
    assign = np.empty((*layout.batch_shape, 0), dtype=np.int64)
    prev_assign = None
    # a stack's fits that stopped before the rest: (batch positions,
    # statistics, probabilities, labels), and the positions still running
    stopped, positions = [], None
    for it in range(1, cfg.max_steps + 1):
        if it > 1:
            del stats  # so that its memory can hold the next estimate
            stats = weighted_class_statistics(layout, queries, probs, beta)
        if m > 0:
            probs, assign = predict(stats, queries)
        # no queries means nothing can change; otherwise compare each fit's
        # argmax labels against its previous refresh
        converged = m == 0 or (prev_assign is not None and (assign == prev_assign).all(axis=-1))
        if it >= cfg.min_steps and np.all(converged):
            break
        if cfg.min_steps <= it < cfg.max_steps and np.any(converged):
            # only a stack gets here: its converged fits stop, the rest run on
            if positions is None:
                positions = np.arange(converged.size)
            stopped.append((positions[converged], stats.take(converged), probs[converged],
                            assign[converged]))
            running = ~converged
            positions, probs, assign = positions[running], probs[running], assign[running]
            layout, queries = layout.take(running), queries.take(running)
        prev_assign = assign
    if stopped:
        stopped.append((positions, stats, probs, assign))
        positions, stats, probs, assign = zip(*stopped)
        order = np.argsort(np.concatenate(positions))
        stats = ClassStatistics.concatenate(stats).take(order)
        probs, assign = np.concatenate(probs)[order], np.concatenate(assign)[order]
    return RefineOutcome(
        statistics=stats,
        query_probs=probs,
        iterations_run=it,
        converged_early=bool(np.all(converged)),
        labels=assign,
    )
