"""Closed-form class statistics and metric-based softmax classification.

The core head estimates a mean and a regularized covariance per class, then
scores queries with a choice of metric.  ``class_statistics`` is the one
estimator every head uses: support rows count fully toward their own class,
query rows toward every class with soft weights, and per class

    Q_k = lam_k * S_k + (1 - lam_k) * S + beta * I,   lam_k = n_k / (n_k + 1)

where ``n_k`` is the (soft) count and ``S`` and ``S_k`` are the
count-normalized scatter matrices of the whole weighted set and of class k.
``estimate_class_statistics`` runs it on the support set alone; the
transductive refinement (``refine.weighted_class_statistics``) adds the
query rows.  Scores deliberately carry no 1/2 coefficient; the GMM head
owns that variant.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import spd
from .errors import DimensionMismatch, EmptyClass, NonFiniteInput

# soft counts below this are treated as an empty class rather than silently
# regularized; only adversarial synthetic data can get here
SOFT_COUNT_FLOOR = 1e-12


class MetricKind(Enum):
    SQUARED_MAHALANOBIS = "mahalanobis"
    ROOT_RIEMANNIAN = "root-riemannian"
    SQUARED_EUCLIDEAN = "euclidean"
    ABSOLUTE_L1 = "l1"
    COSINE_SIMILARITY = "cosine"
    NEGATIVE_DOT_PRODUCT = "dot"


@dataclass(frozen=True)
class ClassStatistics:
    """Per-class means, regularized covariances and effective counts.

    ``factors`` holds the lower Cholesky factor of every covariance as one
    stack; instances are immutable and safe to share across threads.
    """

    means: np.ndarray  # (K, d)
    covariances: np.ndarray  # (K, d, d)
    counts: np.ndarray  # (K,), support counts or soft counts
    factors: np.ndarray  # (K, d, d)

    @property
    def class_count(self) -> int:
        return self.means.shape[0]

    @property
    def dims(self) -> int:
        return self.means.shape[1]

    @classmethod
    def from_moments(cls, means, covariances, counts) -> "ClassStatistics":
        """Build statistics from raw moments, factoring each covariance.

        Covariances are symmetrized; a matrix that fails exact Cholesky is
        repaired through the default jitter schedule (only reachable when
        beta is 0 or the inputs are degenerate).
        """
        means = np.asarray(means, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.float64)
        if np.any(counts <= 0):
            raise EmptyClass(int(np.argmax(counts <= 0)))
        repaired = [spd.ensure_pd(q) for q in covariances]
        return cls(
            means=means,
            covariances=np.stack([cov for cov, _ in repaired]),
            counts=counts,
            factors=np.stack([factor for _, factor in repaired]),
        )


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{what} contain NaN or infinite values")


def class_statistics(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    query_weights: np.ndarray,
    beta: float,
) -> ClassStatistics:
    """The one class-statistics estimator shared by every head.

    Support row i counts with weight 1 toward class ``support_y[i]`` only;
    query row j counts toward class k with weight ``query_weights[j, k]``.
    Counts, means and scatters are weighted sums, and ``S`` is normalized by
    the total count.  Query rows with zero weight add exact zeros, so an
    all-zero query block gives bit-identical statistics to an empty one.

    Raises
    ------
    EmptyClass
        If some class's count is below ``SOFT_COUNT_FLOOR``.
    NonFiniteInput
        If a support or query row has a NaN or infinite entry.
    """
    _require_finite(support_x, "support features")
    _require_finite(query_x, "query features")
    n, d = support_x.shape
    k_count = query_weights.shape[1]
    n_k = np.bincount(support_y, minlength=k_count)
    counts = n_k + query_weights.sum(axis=0)
    if np.any(counts < SOFT_COUNT_FLOOR):
        raise EmptyClass(int(np.argmax(counts < SOFT_COUNT_FLOOR)))

    # class k's support rows, in input order, fill block[k, :n_k[k]]; the
    # zero padding adds nothing to the sums below
    order = np.argsort(support_y, kind="stable")
    slot = np.empty(n, dtype=np.intp)
    slot[order] = np.arange(n) - np.repeat(np.cumsum(n_k) - n_k, n_k)
    block = np.zeros((k_count, n_k.max(), d))
    block[support_y, slot] = support_x
    means = (block.sum(axis=1) + query_weights.T @ query_x) / counts[:, None]

    total = counts.sum()
    row_mass = query_weights.sum(axis=1)
    task_mean = (support_x.sum(axis=0) + row_mass @ query_x) / total
    cs = support_x - task_mean
    cq = query_x - task_mean
    task_scatter = (cs.T @ cs + (cq * row_mass[:, None]).T @ cq) / total

    block[support_y, slot] = support_x - means[support_y]
    dq = query_x[None, :, :] - means[:, None, :]  # (K, m, d)
    weighted = dq * query_weights.T[:, :, None]
    class_scatter = block.transpose(0, 2, 1) @ block + weighted.transpose(0, 2, 1) @ dq
    class_scatter /= counts[:, None, None]
    lam = (counts / (counts + 1.0))[:, None, None]
    covs = lam * class_scatter + (1.0 - lam) * task_scatter + beta * np.eye(d)
    return ClassStatistics.from_moments(means, covs, counts)


def estimate_class_statistics(
    features: np.ndarray,
    labels: np.ndarray,
    beta: float = 1.0,
    num_classes: int | None = None,
) -> ClassStatistics:
    """Closed-form class statistics from a labelled support set.

    ``class_statistics`` with an empty query block.

    Parameters
    ----------
    features : (n, d) array
        Support feature vectors.
    labels : (n,) int array
        Class index per row, in [0, K).
    beta : float
        Ridge added to every covariance (default 1.0).
    num_classes : int, optional
        K; inferred as ``labels.max() + 1`` when omitted.

    Raises
    ------
    EmptyClass
        If some class in [0, K) has no support example.
    NonFiniteInput
        If a feature is NaN or infinite.
    """
    z = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2:
        raise DimensionMismatch("features must be a 2-D array")
    if y.shape[0] != z.shape[0]:
        raise DimensionMismatch("labels and features disagree on n")
    if z.shape[0] == 0:
        raise EmptyClass(0, "support set is empty")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    k_count = int(num_classes) if num_classes is not None else int(y.max()) + 1
    if np.any(y < 0) or np.any(y >= k_count):
        raise ValueError("label outside [0, num_classes)")
    return class_statistics(z, y, np.empty((0, z.shape[1])), np.empty((0, k_count)), beta)


def _query_rows(query: np.ndarray, dims: int) -> tuple[np.ndarray, bool]:
    """(m, d) finite query rows and whether a single vector was given."""
    q = np.asarray(query, dtype=np.float64)
    single = q.ndim == 1
    rows = q[None, :] if single else q
    if rows.ndim != 2 or rows.shape[1] != dims:
        raise DimensionMismatch(f"query shape {q.shape} does not match stats dim {dims}")
    _require_finite(rows, "queries")
    return rows, single


def _mahalanobis_sq(queries: np.ndarray, stats: ClassStatistics) -> np.ndarray:
    """(m, K) squared Mahalanobis distances through the stacked factors."""
    return spd.quad_form(stats.factors, queries[:, None, :] - stats.means[None, :, :])


def class_scores(query: np.ndarray, stats: ClassStatistics, metric: MetricKind) -> np.ndarray:
    """Per-class scores for one query vector or an (m, d) batch.

    Higher means more likely.  Distance metrics are negated; cosine
    similarity and the dot product are used directly as scores (the
    "negative dot product" of the distance framing is the negated
    similarity, so the raw dot product already ranks correctly).
    """
    rows, single = _query_rows(query, stats.dims)
    if metric is MetricKind.SQUARED_MAHALANOBIS:
        scores = -_mahalanobis_sq(rows, stats)
    elif metric is MetricKind.ROOT_RIEMANNIAN:
        scores = -np.sqrt(_mahalanobis_sq(rows, stats))
    elif metric is MetricKind.SQUARED_EUCLIDEAN:
        diffs = rows[:, None, :] - stats.means[None, :, :]
        scores = -np.einsum("mkd,mkd->mk", diffs, diffs)
    elif metric is MetricKind.ABSOLUTE_L1:
        diffs = rows[:, None, :] - stats.means[None, :, :]
        scores = -np.abs(diffs).sum(axis=2)
    elif metric is MetricKind.COSINE_SIMILARITY:
        qn = np.linalg.norm(rows, axis=1)
        mn = np.linalg.norm(stats.means, axis=1)
        denom = qn[:, None] * mn[None, :]
        dots = rows @ stats.means.T
        # zero-norm query or mean: score 0 for that pair, avoiding NaN
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    elif metric is MetricKind.NEGATIVE_DOT_PRODUCT:
        scores = rows @ stats.means.T
    else:
        raise ValueError(f"unknown metric {metric}")
    return scores[0] if single else scores


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for stability."""
    s = np.asarray(scores, dtype=np.float64)
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def classify(query: np.ndarray, stats: ClassStatistics, metric: MetricKind):
    """Class probabilities and argmax labels under a metric.

    Returns ``(probs, label)`` for a single query vector or
    ``(probs (m, K), labels (m,))`` for a batch.  Ties break toward the
    lowest class index.
    """
    scores = class_scores(query, stats, metric)
    probs = softmax(scores)
    if scores.ndim == 1:
        return probs, int(np.argmax(scores))
    return probs, np.argmax(scores, axis=1)


def bregman_divergence(z: np.ndarray, z_ref: np.ndarray, q) -> float:
    """Bregman divergence generated by F(v) = v^T Q^-1 v.

    Evaluated from the three-term definition
    ``F(z) - F(z_ref) - grad F(z_ref) . (z - z_ref)``; for this quadratic
    generator the value coincides with the squared Mahalanobis distance
    between ``z`` and ``z_ref``.
    """
    z = np.asarray(z, dtype=np.float64)
    z_ref = np.asarray(z_ref, dtype=np.float64)
    if z.shape != z_ref.shape:
        raise DimensionMismatch("z and z_ref must have the same shape")
    factor = spd.cholesky(q)
    f_z = spd.quad_form(factor, z)
    f_ref = spd.quad_form(factor, z_ref)
    grad_ref = 2.0 * spd.solve_spd(factor, z_ref)
    return float(f_z - f_ref - grad_ref @ (z - z_ref))
