"""Gaussian-mixture classification heads.

Unlike the plain Mahalanobis head, these scores keep the 1/2 coefficients
and add a uniform class prior and a log-determinant term:

    log(1/K) - (1/2) (z - mu_k)^T Q_k^-1 (z - mu_k) - (1/2) log |Q_k|

A GMM head is fitted and queried through ``methods`` like every other
head (``fit_statistics``, then ``predict`` or ``predict_labels``).
GMM-EM is the refinement loop with these scores as its refresh;
everything else (weighted updates, step limits) is identical to the
metric head.
"""

import numpy as np

from . import spd
from .heads import ClassStatistics, _mahalanobis_sq, _query_rows


def gmm_log_scores(query, stats: ClassStatistics) -> np.ndarray:
    """Unnormalized log posterior per class, under a uniform prior, for one
    query, an (m, d) batch or a ``heads.QuerySet``; ``(B, m, K)`` scores of
    ``(B, m, d)`` rows under a stack of statistics."""
    rows, single = _query_rows(query, stats)
    k_count = stats.class_count
    scores = (
        np.log(np.full(k_count, 1.0 / k_count))[None, :]
        - 0.5 * _mahalanobis_sq(rows, stats)
        - 0.5 * spd.logdet(stats.factors)[..., None, :]
    )
    return scores[0] if single else scores
