"""Head configurations, and the one path that fits and queries a head.

A method is a head (metric-based or GMM) plus an optional refinement
configuration.  The registry maps the benchmark's method names to
configurations; ``simple:<metric>`` selects a metric ablation.

Every head is fitted the same way, by one call for all of a task's heads.
``fit_statistics`` checks the task's support set and groups it by class
once (``heads.SupportLayout``), checks its query set once, and estimates
the support-only statistics once per distinct beta.  A single-pass head's
fit is that estimate; a refining head hands the layout and the estimate
to ``refine.run_refinement``.  A fit (``Fit``) carries the class
statistics and the query predictions they give; ``scores``, ``predict``
and ``predict_labels`` score any batch under a head.

Every step also takes a stack of B tasks of the same shape: ``(B, n, d)``
support rows with ``(B, n)`` labels and ``(B, m, d)`` query rows give one
stacked fit, whose statistics and predictions carry a leading batch axis
and, slice by slice, the bits of each task fitted on its own (see
``heads``).
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import gmm, heads
from .errors import InvalidConfig
from .heads import (ClassStatistics, MetricKind, QuerySet, SupportLayout, check_beta,
                    estimate_class_statistics)
from .refine import RefineConfig, run_refinement


@dataclass(frozen=True)
class HeadConfig:
    """How to turn a (support, query) pair into query predictions."""

    metric: MetricKind = MetricKind.SQUARED_MAHALANOBIS
    beta: float = 1.0
    refine: RefineConfig | None = None  # None = single estimation pass
    gmm: bool = False  # GMM scoring with a uniform prior

    def __post_init__(self):
        check_beta(self.beta)


@dataclass(frozen=True, eq=False)
class Fit:
    """A head fitted to one (support, query) pair.

    ``queries`` is the checked query set, shared by every fit to the same
    task.  ``query_probs`` and ``query_labels`` are the head's class
    probabilities and argmax labels (ties toward the lowest class index)
    for the query set.  A refining head fills them from its last refresh,
    which scored the query set under the final statistics.  A single-pass
    head scores the query set the first time either is read, so a caller
    that reads neither (continual) scores nothing.
    """

    statistics: ClassStatistics
    head: HeadConfig
    queries: QuerySet
    refresh: tuple | None = None  # a refining head's last (probs, labels)

    @cached_property
    def _predictions(self) -> tuple:
        if self.refresh is not None:
            return self.refresh
        return predict(self.head, self.statistics, self.queries)

    @property
    def query_probs(self) -> np.ndarray:
        return self._predictions[0]

    @property
    def query_labels(self) -> np.ndarray:
        return self._predictions[1]


def fit_statistics(configs, support_x, support_y, query_x) -> list[Fit]:
    """Every head of ``configs`` fitted to one (support, query) pair, in order.

    The support set is checked and grouped into one layout, the query set
    is checked once (``heads.QuerySet``), and the support-only statistics
    are estimated once per distinct beta.  Heads whose single-pass forms
    are equal share one single-pass ``Fit``, so its query predictions are
    computed at most once.  A single-pass head's fit is that shared fit; a
    refining head runs ``refine.run_refinement`` from its statistics at the
    head's step limits and beta, and iteration 1 takes the shared fit's
    query predictions, which are the bits that iteration would compute.

    Raises
    ------
    DimensionMismatch, EmptyClass, LabelOutOfRange, NonFiniteInput
        For a bad support or query set, as ``SupportLayout.build``,
        ``heads.QuerySet.build`` and ``estimate_class_statistics`` raise them.
    """
    layout = SupportLayout.build(support_x, support_y)
    queries = QuerySet.build(query_x, layout.dims)
    statistics, single_pass, fits = {}, {}, []
    for head in configs:
        base = replace(head, refine=None)
        if base not in single_pass:
            if head.beta not in statistics:
                statistics[head.beta] = estimate_class_statistics(layout, beta=head.beta)
            single_pass[base] = Fit(statistics[head.beta], base, queries)
        start = single_pass[base]
        fits.append(start if head.refine is None else _refined(head, layout, start))
    return fits


def _refined(head: HeadConfig, layout: SupportLayout, start: Fit) -> Fit:
    """``head`` refined from ``start``, its single-pass fit on ``layout``."""

    def refresh_query(stats, x):
        # iteration 1 runs on the start statistics, which ``start`` scores
        # (at most once, for every head sharing it) under this head's scorer
        if stats is start.statistics:
            return start.query_probs, start.query_labels
        return predict(head, stats, x)

    outcome = run_refinement(layout, start.statistics, start.queries, head.refine,
                             refresh_query, head.beta)
    return Fit(outcome.statistics, head, start.queries, (outcome.query_probs, outcome.labels))


def scores(head: HeadConfig, stats: ClassStatistics, x) -> np.ndarray:
    """The head's class scores for a batch or a vector; higher is more likely."""
    # scorers are looked up on their modules: a by-name import would add a
    # binding to the ones perfbench's traced run counts and pins
    if head.gmm:
        return gmm.gmm_log_scores(x, stats)
    return heads.class_scores(x, stats, head.metric)


def predict(head: HeadConfig, stats: ClassStatistics, x) -> tuple:
    """``(probs, labels)`` under a fitted head, from one scoring.

    For an ``(m, d)`` batch, the ``(m, K)`` softmax probabilities and the
    ``(m,)`` argmax labels; for one vector, ``(K,)`` probabilities and one
    label.  Ties break toward the lowest class index.
    """
    values = scores(head, stats, x)
    return heads.softmax(values), np.argmax(values, axis=-1)


def predict_labels(head: HeadConfig, stats: ClassStatistics, x) -> np.ndarray:
    """Argmax labels for an ``(m, d)`` batch, or ``(B, m)`` labels of
    ``(B, m, d)`` rows under a stack of statistics; ties break toward the
    lowest class index.  The labels of ``predict``, without the softmax."""
    return np.argmax(scores(head, stats, x), axis=-1)


def evaluate_task(configs, task) -> list[float]:
    """Query accuracy (fraction of query examples correct) of each head on
    one task, in order, from one ``fit_statistics`` call."""
    fits = fit_statistics(configs, task.support_x, task.support_y, task.query_x)
    return [float(np.mean(fit.query_labels == task.query_y)) for fit in fits]


def parse_method(name: str, refine_defaults: RefineConfig = RefineConfig(), beta: float = 1.0) -> HeadConfig:
    """Resolve a method name like ``simple``, ``transductive`` or
    ``simple:euclidean`` into a head configuration."""
    base, _, suffix = name.partition(":")
    metric = MetricKind.SQUARED_MAHALANOBIS
    if suffix:
        try:
            metric = MetricKind(suffix)
        except ValueError:
            raise InvalidConfig(f"unknown metric {suffix!r}") from None
    if base == "simple":
        return HeadConfig(metric=metric, beta=beta)
    if base == "transductive":
        return HeadConfig(metric=metric, beta=beta, refine=refine_defaults)
    if base == "gmm":
        return HeadConfig(beta=beta, gmm=True)
    if base == "gmm-em":
        return HeadConfig(beta=beta, gmm=True, refine=refine_defaults)
    raise InvalidConfig(f"unknown method {name!r}")
