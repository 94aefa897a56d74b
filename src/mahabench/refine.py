"""Transductive refinement of class statistics via soft k-means.

Responsibilities are one-hot on support rows and predicted probabilities on
query rows.  The loop alternates weighted statistics, computed by the one
estimator ``heads.class_statistics``, with a responsibility refresh and
stops once the per-query argmax stops changing, subject to hard minimum and
maximum step counts.  The first completed iteration reproduces
the non-transductive head's query probabilities, so a caller that already
holds the support-only statistics can hand them to the loop as its first
iteration (``run_refinement(..., start=...)``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyClass, InvalidConfig, LabelOutOfRange
from .heads import ClassStatistics, MetricKind, SupportLayout, class_statistics, classify


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
            raise InvalidConfig("min_steps must be at least 1")
        if self.max_steps < self.min_steps:
            raise InvalidConfig("max_steps must be >= min_steps")


@dataclass(frozen=True)
class RefineOutcome:
    """The final statistics and the last responsibility refresh.

    ``responsibilities.query`` and ``labels`` are the query probabilities
    and argmax labels under ``statistics``: the last refresh scored the
    query set after the last statistics update.
    """

    statistics: ClassStatistics
    responsibilities: Responsibilities
    iterations_run: int
    converged_early: bool
    labels: np.ndarray  # (m,) query labels of the last refresh


def init_responsibilities(support_labels: np.ndarray, m_query: int, num_classes: int) -> Responsibilities:
    """One-hot support rows; all-zero query rows so the first parameter
    computation uses the support set only."""
    labels = np.asarray(support_labels, dtype=np.int64)
    support = np.zeros((labels.shape[0], num_classes))
    support[np.arange(labels.shape[0]), labels] = 1.0
    return Responsibilities(support=support, query=np.zeros((m_query, num_classes)))


def weighted_class_statistics(
    features: np.ndarray,
    resp: Responsibilities,
    beta: float = 1.0,
    *,
    layout: SupportLayout | None = None,
) -> ClassStatistics:
    """Responsibility-weighted means and regularized covariances.

    ``features`` stacks support rows then query rows, matching ``resp``.
    This is ``heads.class_statistics`` with the support labels read off the
    one-hot support rows and ``resp.query`` as the query weights, so all-zero
    query rows give exactly the plain support-only estimator.  A ``layout``
    built from ``features[:n]`` and the support labels (as
    ``run_refinement`` does once per task) stands in for the one-hot
    support rows, and is not rebuilt.
    """
    z = np.asarray(features, dtype=np.float64)
    n, k_count = resp.support.shape
    if z.ndim != 2 or z.shape[0] != n + resp.query.shape[0] or resp.query.shape[1] != k_count:
        raise DimensionMismatch("responsibilities and features disagree on rows")
    if layout is None:
        layout = _support_layout(z[:n], resp.support)
    elif layout.features.shape != (n, z.shape[1]) or layout.class_count != k_count:
        raise DimensionMismatch("support layout and responsibilities disagree")
    return class_statistics(layout, z[n:], resp.query, beta)


def _support_layout(support_x: np.ndarray, support_resp: np.ndarray) -> SupportLayout:
    """The layout of one-hot support rows; anything else is rejected."""
    k_count = support_resp.shape[1]
    labels = np.argmax(support_resp, axis=1)
    if not np.array_equal(support_resp, np.eye(k_count)[labels]):
        raise ValueError("support responsibilities must be one-hot")
    return SupportLayout.build(support_x, labels, k_count)


def support_class_count(support_y: np.ndarray) -> int:
    """The class count of a refinement's support labels: the largest plus one.

    Raises
    ------
    EmptyClass
        If there are no labels.
    LabelOutOfRange
        If a label is negative.
    """
    labels = np.asarray(support_y, dtype=np.int64)
    if labels.size == 0:
        raise EmptyClass(0, "support set is empty")
    if labels.min() < 0:
        raise LabelOutOfRange("support labels must be nonnegative")
    return int(labels.max()) + 1


def run_refinement(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    cfg: RefineConfig,
    predict,
    *,
    start: ClassStatistics | None = None,
) -> RefineOutcome:
    """Shared refinement loop; ``predict(stats, X) -> (probs, labels)``.

    Used by both the metric head and the GMM head, which differ only in how
    query responsibilities are refreshed.  The support layout is built once
    and reused by every iteration.  The class count is
    ``support_class_count(support_y)``.

    ``start`` is the support-only estimate of the same support set at
    ``cfg.beta`` (``estimate_class_statistics``).  Iteration 1 then takes it
    as its statistics instead of computing them: with all-zero query
    responsibilities ``weighted_class_statistics`` would return exactly
    these bits.  Iteration 1 still counts toward ``iterations_run``, and
    its refresh is ``predict(start, X)``.

    Raises
    ------
    EmptyClass
        If the support set is empty, or a class below the largest label has
        no support row.
    LabelOutOfRange
        If a support label is negative.
    DimensionMismatch
        If ``start`` disagrees with the support set on classes or dims.
    """
    support_x = np.asarray(support_x, dtype=np.float64)
    query_x = np.asarray(query_x, dtype=np.float64)
    d = support_x.shape[1]
    if query_x.size == 0:
        query_x = query_x.reshape(0, d)
    if query_x.ndim != 2 or query_x.shape[1] != d:
        raise DimensionMismatch(f"query shape {query_x.shape} does not match support dim {d}")
    labels = np.asarray(support_y, dtype=np.int64)
    k_count = support_class_count(labels)
    if start is not None and (start.class_count, start.dims) != (k_count, d):
        raise DimensionMismatch("start statistics and support set disagree")
    m = query_x.shape[0]

    resp = init_responsibilities(labels, m, k_count)
    feats = np.vstack([support_x, query_x])
    layout = _support_layout(feats[: labels.shape[0]], resp.support)
    prev_assign = None
    stats = None
    iterations = 0
    converged = False
    for it in range(1, cfg.max_steps + 1):
        iterations = it
        if it == 1 and start is not None:
            stats = start
        else:
            stats = weighted_class_statistics(feats, resp, cfg.beta, layout=layout)
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
        labels=assign,
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
