"""Transductive refinement of class statistics via soft k-means.

Support rows count fully toward their own class throughout; query rows
count toward every class with their predicted probabilities.  The loop
alternates weighted statistics, computed by the one estimator
``heads.class_statistics``, with a refresh of the query probabilities, and
stops once the per-query argmax stops changing, subject to hard minimum and
maximum step counts.

``methods.fit_statistics`` is the only caller: it hands the loop the
support layout and the support-only statistics of its start fit
(``methods.support_fits``), which are iteration 1's statistics, and the
head's ``predict``, which is the loop's only way to score.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .heads import ClassStatistics, SupportLayout, class_statistics


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
        if self.min_steps < 1:
            raise InvalidConfig("min_steps must be at least 1")
        if self.max_steps < self.min_steps:
            raise InvalidConfig("max_steps must be >= min_steps")


@dataclass(frozen=True)
class RefineOutcome:
    """The final statistics and the last refresh of the query probabilities.

    ``query_probs`` and ``labels`` are the query probabilities and argmax
    labels under ``statistics``: the last refresh scored the query set
    after the last statistics update.
    """

    statistics: ClassStatistics
    query_probs: np.ndarray  # (m, K)
    iterations_run: int
    converged_early: bool
    labels: np.ndarray  # (m,) query labels of the last refresh


def weighted_class_statistics(
    layout: SupportLayout, query_x: np.ndarray, query_weights: np.ndarray, beta: float = 1.0
) -> ClassStatistics:
    """Means and regularized covariances with soft-weighted query rows.

    ``heads.class_statistics``: query row j counts toward class k with
    weight ``query_weights[j, k]``, so all-zero weights give exactly the
    support-only estimate.

    Raises
    ------
    DimensionMismatch
        If the weights are not one row per query and one column per class
        of the layout.
    """
    if query_weights.shape != (query_x.shape[0], layout.class_count):
        raise DimensionMismatch("query weights disagree with the queries or the classes")
    return class_statistics(layout, query_x, query_weights, beta)


def run_refinement(
    layout: SupportLayout,
    start: ClassStatistics,
    query_x: np.ndarray,
    cfg: RefineConfig,
    predict,
    beta: float,
) -> RefineOutcome:
    """The refinement loop; ``predict(stats, X) -> (probs, labels)``.

    The metric and the GMM heads differ only in ``predict``.  ``start`` is
    the support-only estimate of ``layout`` at the head's ``beta``, which
    every later estimate uses too: iteration 1 takes it as its statistics,
    the bits ``weighted_class_statistics`` would compute with all-zero
    query weights, and refreshes through ``predict(start, X)``.  Every
    later iteration re-estimates from the layout and the last refresh.

    Raises
    ------
    DimensionMismatch
        If the query rows, or ``start``, disagree with the layout on dims
        or classes.
    """
    d = layout.features.shape[1]
    query_x = np.asarray(query_x, dtype=np.float64)
    if query_x.size == 0:
        query_x = query_x.reshape(0, d)
    if query_x.ndim != 2 or query_x.shape[1] != d:
        raise DimensionMismatch(f"query shape {query_x.shape} does not match support dim {d}")
    if (start.class_count, start.dims) != (layout.class_count, d):
        raise DimensionMismatch("start statistics and support layout disagree")
    m = query_x.shape[0]

    stats = start
    probs = np.zeros((m, layout.class_count))
    assign = np.empty(0, dtype=np.int64)
    prev_assign = None
    for it in range(1, cfg.max_steps + 1):
        if it > 1:
            stats = weighted_class_statistics(layout, query_x, probs, beta)
        if m > 0:
            probs, assign = predict(stats, query_x)
        # no queries means nothing can change; otherwise compare argmax
        # labels against the previous refresh
        converged = m == 0 or (prev_assign is not None and np.array_equal(assign, prev_assign))
        if converged and it >= cfg.min_steps:
            break
        prev_assign = assign
    return RefineOutcome(
        statistics=stats,
        query_probs=probs,
        iterations_run=it,
        converged_early=converged,
        labels=assign,
    )
