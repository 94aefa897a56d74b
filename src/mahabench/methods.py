"""Head configurations, and the one path that fits and queries a head.

A method is a head (metric-based or GMM) plus an optional refinement
configuration.  The registry maps the benchmark's method names to
configurations; ``simple:<metric>`` selects a metric ablation.

Every head is fitted the same way.  ``support_fits`` checks a task's
support set and groups it by class once (``heads.SupportLayout``), then
estimates its support-only statistics once per distinct beta.
``fit_statistics`` turns one such start fit into the head's fit: a
single-pass head's fit is the start itself, and a refining head hands the
start's layout and statistics to ``refine.run_refinement``.  A fit
(``Fit``) carries the class statistics and the query predictions they
give; ``scores``, ``predict`` and ``predict_labels`` score any batch under
a head.

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

    ``layout`` is the support set grouped by class and ``queries`` the
    checked query set, both shared by every fit to the same task.
    ``query_probs`` and ``query_labels`` are the head's class probabilities
    and argmax labels (ties toward the lowest class index) for the query
    set.  A refining head fills them from its last refresh, which scored
    the query set under the final statistics.  A single-pass head scores
    the query set the first time either is read, so a caller that reads
    neither (continual) scores nothing.
    """

    statistics: ClassStatistics
    head: HeadConfig
    queries: QuerySet
    layout: SupportLayout
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


def _single_pass(head: HeadConfig) -> HeadConfig:
    return replace(head, refine=None)


def support_fits(configs, support_x, support_y, query_x) -> list:
    """The support-only fit of every head, in order: the ``start`` that
    ``fit_statistics`` takes.

    The support set is checked and grouped into one layout and the query
    set is checked once (``heads.QuerySet``), statistics are estimated once
    per distinct beta, and heads whose single-pass forms are equal share
    one ``Fit``, so its query predictions are computed at most once.

    Raises
    ------
    DimensionMismatch, EmptyClass, LabelOutOfRange, NonFiniteInput
        For a bad support or query set, as ``SupportLayout.build``,
        ``heads.QuerySet.build`` and ``estimate_class_statistics`` raise them.
    """
    layout = SupportLayout.build(support_x, support_y)
    queries = QuerySet.build(query_x, layout.dims)
    statistics = {}
    fits = {}
    for head in configs:
        base = _single_pass(head)
        if base not in fits:
            if head.beta not in statistics:
                statistics[head.beta] = estimate_class_statistics(layout, beta=head.beta)
            fits[base] = Fit(statistics[head.beta], base, queries, layout)
    return [fits[_single_pass(head)] for head in configs]


def fit_statistics(head: HeadConfig, start: Fit) -> Fit:
    """Fit a head from its support-only fit ``start`` (``support_fits``),
    which alone gives the support layout and the query set.

    ``start`` is the whole fit of a single-pass head.  A refining head runs
    ``refine.run_refinement`` on the start's layout and statistics at the
    head's step limits and beta; iteration 1 takes the start's query
    predictions, which are the bits that iteration would compute.  A
    ``start`` that is not this head's support-only fit raises ``ValueError``.
    """
    if start.head != _single_pass(head):
        raise ValueError("start is not the support-only fit of this head")
    if head.refine is None:
        return start

    def refresh_query(stats, x):
        # iteration 1 runs on the start statistics, which ``start`` scores
        # (at most once, for every head sharing it) under this head's scorer
        if stats is start.statistics:
            return start.query_probs, start.query_labels
        return predict(head, stats, x)

    outcome = run_refinement(start.layout, start.statistics, start.queries, head.refine,
                             refresh_query, head.beta)
    predictions = (outcome.query_probs, outcome.labels)
    return Fit(outcome.statistics, head, start.queries, start.layout, predictions)


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
    one task, in order.

    The heads share their support-only fits (``support_fits``): the
    support statistics are estimated once per distinct beta, and every
    refining head starts from them.
    """
    starts = support_fits(configs, task.support_x, task.support_y, task.query_x)
    accuracies = []
    for head, start in zip(configs, starts):
        fit = fit_statistics(head, start)
        accuracies.append(float(np.mean(fit.query_labels == task.query_y)))
    return accuracies


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
