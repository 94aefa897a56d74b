"""Gaussian-mixture classification heads.

The GMM score is ``heads.MetricKind.GMM_LOG_POSTERIOR`` (method ``gmm``,
and ``gmm-em`` with the refinement), which ``heads.class_scores`` computes
like every other score; it alone keeps the 1/2 coefficients and the
log-determinant.  ``gmm_log_scores`` stays as a named alias of that call
for the benchmark's per-layer trace, which names it; no package module
calls it.
"""

import numpy as np

from . import heads
from .heads import ClassStatistics, MetricKind


def gmm_log_scores(query, stats: ClassStatistics) -> np.ndarray:
    """Unnormalized log posterior per class, under a uniform prior, for one
    query, an (m, d) batch or a ``heads.QuerySet``; ``(B, m, K)`` scores of
    ``(B, m, d)`` rows under a stack of statistics."""
    return heads.class_scores(query, stats, MetricKind.GMM_LOG_POSTERIOR)
