"""Head configurations shared by the benchmark, active and continual loops.

A method is a head (metric-based or GMM) plus an optional refinement
configuration.  The registry maps the benchmark's method names to
configurations; ``simple:<metric>`` selects a metric ablation.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import gmm, heads
from .errors import InvalidConfig
from .gmm import ClassPrior, gmm_em_refine
from .heads import ClassStatistics, MetricKind, estimate_class_statistics
from .refine import RefineConfig, refine


@dataclass(frozen=True)
class HeadConfig:
    """How to turn a (support, query) pair into query predictions."""

    metric: MetricKind = MetricKind.SQUARED_MAHALANOBIS
    beta: float = 1.0
    refine: RefineConfig | None = None  # None = single estimation pass
    gmm: bool = False  # GMM scoring with a uniform prior


def fit_statistics(head: HeadConfig, support_x, support_y, query_x) -> ClassStatistics:
    """Class statistics under a head; transductive heads use the query set."""
    if head.refine is not None:
        cfg = replace(head.refine, beta=head.beta, metric=head.metric)
        if head.gmm:
            return gmm_em_refine(support_x, support_y, query_x, cfg).statistics
        return refine(support_x, support_y, query_x, cfg).statistics
    return estimate_class_statistics(support_x, support_y, beta=head.beta)


def _scores(head: HeadConfig, stats: ClassStatistics, x) -> np.ndarray:
    # scorers are looked up on their modules: a by-name import would add a
    # binding to the ones perfbench's traced run counts and pins
    if head.gmm:
        return gmm.gmm_log_scores(x, stats, ClassPrior.uniform(stats.class_count))
    return heads.class_scores(x, stats, head.metric)


def predict(head: HeadConfig, stats: ClassStatistics, x) -> np.ndarray:
    """Class probabilities for ``x`` under a fitted head."""
    return heads.softmax(_scores(head, stats, x))


def predict_labels(head: HeadConfig, stats: ClassStatistics, x) -> np.ndarray:
    """Argmax labels for an ``(m, d)`` batch; ties break toward the lowest
    class index."""
    return np.argmax(_scores(head, stats, x), axis=1)


def evaluate_task(head: HeadConfig, task) -> float:
    """Per-task query accuracy (fraction of query examples correct)."""
    stats = fit_statistics(head, task.support_x, task.support_y, task.query_x)
    labels = predict_labels(head, stats, task.query_x)
    return float(np.mean(labels == task.query_y))


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
