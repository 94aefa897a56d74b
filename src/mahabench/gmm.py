"""Gaussian-mixture classification heads.

Unlike the plain Mahalanobis head, these scores keep the 1/2 coefficients
and add a class prior and a log-determinant term:

    log pi_k - (1/2) (z - mu_k)^T Q_k^-1 (z - mu_k) - (1/2) log |Q_k|

A GMM head is fitted and queried through ``methods`` like every other
head (``fit_statistics``, then ``predict`` or ``predict_labels``), with a
uniform prior.  GMM-EM is the refinement loop with these scores as its
refresh; everything else (weighted updates, step limits) is identical to
the metric head.
"""

from dataclasses import dataclass

import numpy as np

from . import spd
from .errors import DimensionMismatch
from .heads import ClassStatistics, _mahalanobis_sq, _query_rows


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
