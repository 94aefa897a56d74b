"""Transductive refinement of class statistics via soft k-means.

Responsibilities are one-hot on support rows and predicted probabilities on
query rows.  The loop alternates weighted statistics, computed by the one
estimator ``heads.class_statistics``, with a responsibility refresh and
stops once the per-query argmax stops changing, subject to hard minimum and
maximum step counts.  The first completed iteration reproduces
the non-transductive head's query probabilities.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .heads import ClassStatistics, MetricKind, class_statistics, classify


@dataclass
class Responsibilities:
    """Per-example class weights: one-hot support rows, soft query rows."""

    support: np.ndarray  # (n, K), exact one-hot
    query: np.ndarray  # (m, K), all-zero before the first refresh


@dataclass(frozen=True)
class RefineConfig:
    """Step limits and head settings for the refinement loop.

    Defaults follow the variable-way benchmark setting (min 2, max 4).
    ``min_steps = max_steps = 1`` reproduces the training-time behavior of
    a single estimation pass.
    """

    min_steps: int = 2
    max_steps: int = 4
    beta: float = 1.0
    metric: MetricKind = MetricKind.SQUARED_MAHALANOBIS

    def __post_init__(self):
        if self.min_steps < 1:
            raise ValueError("min_steps must be at least 1")
        if self.max_steps < self.min_steps:
            raise ValueError("max_steps must be >= min_steps")


@dataclass(frozen=True)
class RefineOutcome:
    statistics: ClassStatistics
    responsibilities: Responsibilities
    iterations_run: int
    converged_early: bool


def init_responsibilities(support_labels: np.ndarray, m_query: int, num_classes: int) -> Responsibilities:
    """One-hot support rows; all-zero query rows so the first parameter
    computation uses the support set only."""
    labels = np.asarray(support_labels, dtype=np.int64)
    support = np.zeros((labels.shape[0], num_classes))
    support[np.arange(labels.shape[0]), labels] = 1.0
    return Responsibilities(support=support, query=np.zeros((m_query, num_classes)))


def weighted_class_statistics(
    features: np.ndarray, resp: Responsibilities, beta: float = 1.0
) -> ClassStatistics:
    """Responsibility-weighted means and regularized covariances.

    ``features`` stacks support rows then query rows, matching ``resp``.
    This is ``heads.class_statistics`` with the support labels read off the
    one-hot support rows and ``resp.query`` as the query weights, so all-zero
    query rows give exactly the plain support-only estimator.
    """
    z = np.asarray(features, dtype=np.float64)
    n, k_count = resp.support.shape
    if z.ndim != 2 or z.shape[0] != n + resp.query.shape[0] or resp.query.shape[1] != k_count:
        raise DimensionMismatch("responsibilities and features disagree on rows")
    labels = np.argmax(resp.support, axis=1)
    if not np.array_equal(resp.support, np.eye(k_count)[labels]):
        raise ValueError("support responsibilities must be one-hot")
    return class_statistics(z[:n], labels, z[n:], resp.query, beta)


def run_refinement(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    cfg: RefineConfig,
    predict,
) -> RefineOutcome:
    """Shared refinement loop; ``predict(stats, X) -> (probs, labels)``.

    Used by both the metric head and the GMM head, which differ only in how
    query responsibilities are refreshed.
    """
    support_x = np.asarray(support_x, dtype=np.float64)
    query_x = np.asarray(query_x, dtype=np.float64)
    d = support_x.shape[1]
    if query_x.size == 0:
        query_x = query_x.reshape(0, d)
    if query_x.ndim != 2 or query_x.shape[1] != d:
        raise DimensionMismatch(f"query shape {query_x.shape} does not match support dim {d}")
    labels = np.asarray(support_y, dtype=np.int64)
    k_count = int(labels.max()) + 1
    m = query_x.shape[0]

    resp = init_responsibilities(labels, m, k_count)
    feats = np.vstack([support_x, query_x])
    prev_assign = None
    stats = None
    iterations = 0
    converged = False
    for it in range(1, cfg.max_steps + 1):
        iterations = it
        stats = weighted_class_statistics(feats, resp, cfg.beta)
        if m > 0:
            probs, assign = predict(stats, query_x)
            resp.query = probs
        else:
            assign = np.empty(0, dtype=np.int64)
        # no queries means nothing can change; otherwise compare argmax
        # labels against the previous refresh
        converged = m == 0 or (prev_assign is not None and np.array_equal(assign, prev_assign))
        if converged and it >= cfg.min_steps:
            break
        prev_assign = assign
    return RefineOutcome(
        statistics=stats,
        responsibilities=resp,
        iterations_run=iterations,
        converged_early=converged,
    )


def refine(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    cfg: RefineConfig = RefineConfig(),
) -> RefineOutcome:
    """Soft k-means refinement of class statistics using the query set.

    Alternates weighted statistics with a responsibility refresh under
    ``cfg.metric``.  Support rows stay one-hot throughout; the loop breaks
    once per-query argmax labels repeat, but never before ``min_steps`` nor
    after ``max_steps`` iterations.
    """
    return run_refinement(
        support_x,
        support_y,
        query_x,
        cfg,
        lambda stats, x: classify(x, stats, cfg.metric),
    )
