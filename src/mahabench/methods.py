"""Head configurations shared by the benchmark, active and continual loops.

A method is a head (metric-based or GMM) plus an optional refinement
configuration.  The registry maps the benchmark's method names to
configurations; ``simple:<metric>`` selects a metric ablation.

A fit (``Fit``) carries the class statistics and the query predictions
they give.  Heads fitted to one task share its support-only estimate
(``support_fits``): a single-pass head's fit is that estimate, and a
refining head starts its loop from it.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import gmm, heads
from .errors import InvalidConfig
from .gmm import ClassPrior
from .heads import ClassStatistics, MetricKind, estimate_class_statistics
from .refine import RefineConfig, run_refinement


@dataclass(frozen=True)
class HeadConfig:
    """How to turn a (support, query) pair into query predictions."""

    metric: MetricKind = MetricKind.SQUARED_MAHALANOBIS
    beta: float = 1.0
    refine: RefineConfig | None = None  # None = single estimation pass
    gmm: bool = False  # GMM scoring with a uniform prior


@dataclass(frozen=True, eq=False)
class Fit:
    """A head fitted to one (support, query) pair.

    ``query_probs`` and ``query_labels`` are the head's class probabilities
    and argmax labels (ties toward the lowest class index) for the query
    set.  A refining head fills them from its last responsibility refresh,
    which scored the query set under the final statistics.  A single-pass
    head scores the query set the first time either is read, so a caller
    that reads neither (continual) scores nothing.
    """

    statistics: ClassStatistics
    head: HeadConfig
    query_x: np.ndarray
    refresh: tuple | None = None  # a refining head's last (probs, labels)

    @cached_property
    def _predictions(self) -> tuple:
        if self.refresh is not None:
            return self.refresh
        return _refresh(self.head, self.statistics, self.query_x)

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

    Statistics are estimated once per distinct beta, and heads whose
    single-pass forms are equal share one ``Fit``, so its query predictions
    are computed at most once.
    """
    statistics = {}
    fits = {}
    for head in configs:
        base = _single_pass(head)
        if base not in fits:
            if head.beta not in statistics:
                statistics[head.beta] = estimate_class_statistics(
                    support_x, support_y, beta=head.beta
                )
            fits[base] = Fit(statistics[head.beta], base, query_x)
    return [fits[_single_pass(head)] for head in configs]


def fit_statistics(
    head: HeadConfig, support_x, support_y, query_x, *, start: Fit | None = None
) -> Fit:
    """Fit a head; transductive heads also use the query set.

    ``start`` is the head's support-only fit on the same support and query
    sets (``support_fits``), shared by the heads a caller fits to one task.
    It is the whole fit of a single-pass head.  A refining head starts its
    loop from it: iteration 1 takes its statistics and its query
    predictions, which are the bits that iteration would compute.
    """
    if start is None:
        start = support_fits([head], support_x, support_y, query_x)[0]
    elif start.head != _single_pass(head):
        raise ValueError("start is not the support-only fit of this head")
    if head.refine is None:
        return start
    cfg = replace(head.refine, beta=head.beta, metric=head.metric)

    def refresh_query(stats, x):
        # iteration 1 runs on the start statistics, which ``start`` scores
        # (at most once, for every head sharing it) under this head's scorer
        if stats is start.statistics:
            return start.query_probs, start.query_labels
        return _refresh(head, stats, x)

    outcome = run_refinement(
        support_x, support_y, query_x, cfg, refresh_query, start=start.statistics
    )
    return Fit(outcome.statistics, head, query_x, (outcome.responsibilities.query, outcome.labels))


def _scores(head: HeadConfig, stats: ClassStatistics, x) -> np.ndarray:
    # scorers are looked up on their modules: a by-name import would add a
    # binding to the ones perfbench's traced run counts and pins
    if head.gmm:
        return gmm.gmm_log_scores(x, stats, ClassPrior.uniform(stats.class_count))
    return heads.class_scores(x, stats, head.metric)


def _refresh(head: HeadConfig, stats: ClassStatistics, x) -> tuple:
    """``(probs, labels)`` for an ``(m, d)`` batch from one scoring, as the
    head's classifier (``heads.classify`` or ``gmm.gmm_classify``) gives
    them."""
    scores = _scores(head, stats, x)
    return heads.softmax(scores), np.argmax(scores, axis=1)


def predict(head: HeadConfig, stats: ClassStatistics, x) -> np.ndarray:
    """Class probabilities for ``x`` under a fitted head."""
    return heads.softmax(_scores(head, stats, x))


def predict_labels(head: HeadConfig, stats: ClassStatistics, x) -> np.ndarray:
    """Argmax labels for an ``(m, d)`` batch; ties break toward the lowest
    class index."""
    return np.argmax(_scores(head, stats, x), axis=1)


def evaluate_task(configs, task) -> list[float]:
    """Query accuracy (fraction of query examples correct) of each head on
    one task, in order.

    The heads share their support-only fits (``support_fits``): the
    support statistics are estimated once per distinct beta, and every
    refining head starts from them.
    """
    x, y, query = task.support_x, task.support_y, task.query_x
    accuracies = []
    for head, start in zip(configs, support_fits(configs, x, y, query)):
        fit = fit_statistics(head, x, y, query, start=start)
        accuracies.append(float(np.mean(fit.query_labels == task.query_y)))
    return accuracies


def parse_method(name: str, refine_defaults: RefineConfig | None = None, beta: float = 1.0) -> HeadConfig:
    """Resolve a method name like ``simple``, ``transductive`` or
    ``simple:euclidean`` into a head configuration."""
    refine_cfg = refine_defaults if refine_defaults is not None else RefineConfig()
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
        return HeadConfig(metric=metric, beta=beta, refine=refine_cfg)
    if base == "gmm":
        return HeadConfig(beta=beta, gmm=True)
    if base == "gmm-em":
        return HeadConfig(beta=beta, gmm=True, refine=refine_cfg)
    raise InvalidConfig(f"unknown method {name!r}")
