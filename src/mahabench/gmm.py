"""Gaussian-mixture classification heads.

Unlike the plain Mahalanobis head, these scores keep the 1/2 coefficients
and add a class prior and a log-determinant term:

    log pi_k - (1/2) (z - mu_k)^T Q_k^-1 (z - mu_k) - (1/2) log |Q_k|

GMM-EM reuses the refinement loop with this assignment rule; everything
else (weighted updates, step limits) is identical to the metric head.
"""

from dataclasses import dataclass

import numpy as np

from . import spd
from .errors import DimensionMismatch
from .heads import ClassStatistics, _mahalanobis_sq, _query_rows, softmax
from .refine import RefineConfig, RefineOutcome, run_refinement, support_class_count


@dataclass(frozen=True)
class ClassPrior:
    """Strictly positive class prior probabilities summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("prior must be a vector")
        if np.any(p <= 0):
            raise ValueError("prior entries must be strictly positive (log is taken)")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("prior must sum to 1 within 1e-9")
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, num_classes: int) -> "ClassPrior":
        return cls(np.full(num_classes, 1.0 / num_classes))

    @classmethod
    def from_counts(cls, counts) -> "ClassPrior":
        counts = np.asarray(counts, dtype=np.float64)
        return cls(counts / counts.sum())


def gmm_log_scores(query: np.ndarray, stats: ClassStatistics, prior: ClassPrior) -> np.ndarray:
    """Unnormalized log posterior per class for one query or an (m, d) batch."""
    if prior.probs.shape[0] != stats.class_count:
        raise DimensionMismatch("prior length != class count")
    rows, single = _query_rows(query, stats.dims)
    scores = (
        np.log(prior.probs)[None, :]
        - 0.5 * _mahalanobis_sq(rows, stats)
        - 0.5 * spd.logdet(stats.factors)[None, :]
    )
    return scores[0] if single else scores


def gmm_classify(query: np.ndarray, stats: ClassStatistics, prior: ClassPrior):
    """Softmax over GMM log scores; ties break toward the lowest index."""
    scores = gmm_log_scores(query, stats, prior)
    probs = softmax(scores)
    if scores.ndim == 1:
        return probs, int(np.argmax(scores))
    return probs, np.argmax(scores, axis=1)


def gmm_em_refine(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    cfg: RefineConfig = RefineConfig(),
    prior: ClassPrior | None = None,
) -> RefineOutcome:
    """Refinement loop with GMM responsibilities.

    The prior defaults to uniform and is held fixed across iterations.
    """
    if prior is None:
        prior = ClassPrior.uniform(support_class_count(support_y))
    return run_refinement(
        support_x,
        support_y,
        query_x,
        cfg,
        lambda stats, x: gmm_classify(x, stats, prior),
    )
