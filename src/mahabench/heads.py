"""Closed-form class statistics and metric-based class scores.

The core head estimates a mean and a regularized covariance per class, then
scores queries with a choice of metric (``class_scores``).
``class_statistics`` is the one estimator every head uses: support rows
count fully toward their own class, query rows toward every class with soft
weights, and per class

    Q_k = lam_k * S_k + (1 - lam_k) * S + beta * I,   lam_k = n_k / (n_k + 1)

where ``n_k`` is the (soft) count and ``S`` and ``S_k`` are the
count-normalized scatter matrices of the whole weighted set and of class k.
The support set enters through a ``SupportLayout``, which checks it and
groups it by class once.  ``estimate_class_statistics`` runs the estimator
on the layout alone; the transductive refinement
(``refine.weighted_class_statistics``) adds the query rows and reuses the
same layout in every iteration.  Heads are fitted and queried through
``methods``, the one path: ``support_fits`` -> ``fit_statistics`` ->
``refine.run_refinement``, then ``predict`` or ``predict_labels``.  Scores
deliberately carry no 1/2 coefficient; the GMM head owns that variant.

The estimator's ``(K, width, d)`` support block and ``(K, m, d)`` query
blocks, and the Mahalanobis scorer's ``(K, m, d)`` differences and their
images, are carved out of one grow-only float64 buffer per thread
(``_scratch``) instead of being allocated afresh on every refinement step
and scoring call.  A scratch view never leaves the function that took it
and is dead before that function makes another call that takes scratch;
every result (statistics, scores) is a fresh array.
"""

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import spd
from .errors import (
    DimensionMismatch,
    EmptyClass,
    InvalidConfig,
    LabelOutOfRange,
    NonFiniteInput,
)

# soft counts below this are treated as an empty class rather than silently
# regularized; only adversarial synthetic data can get here
SOFT_COUNT_FLOOR = 1e-12


_arena = threading.local()


def _scratch(*shapes) -> tuple:
    """One float64 view per shape, carved out of this thread's scratch buffer.

    The views do not overlap one another, but they alias memory that the
    next ``_scratch`` call on this thread hands out again: their contents
    are garbage on entry, and they must not outlive the caller.  The
    buffer grows to the largest request seen and is never shrunk.
    """
    sizes = [math.prod(shape) for shape in shapes]
    buffer = getattr(_arena, "buffer", None)
    if buffer is None or buffer.size < sum(sizes):
        buffer = _arena.buffer = np.empty(sum(sizes))
    views = []
    start = 0
    for shape, size in zip(shapes, sizes):
        views.append(buffer[start : start + size].reshape(shape))
        start += size
    return tuple(views)


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
    stack, and ``inverse_factors`` the lower triangular inverse of each
    factor, so scoring needs no further factorization or inversion.
    ``jitter`` is the ridge each covariance needed on top of its estimate to
    factor (0 for every class unless beta is 0 or the inputs are
    degenerate); ``covariances`` already include it.  Instances are
    immutable and safe to share across threads.
    """

    means: np.ndarray  # (K, d)
    covariances: np.ndarray  # (K, d, d)
    counts: np.ndarray  # (K,), support counts or soft counts
    factors: np.ndarray  # (K, d, d)
    inverse_factors: np.ndarray  # (K, d, d)
    jitter: np.ndarray  # (K,)

    @property
    def class_count(self) -> int:
        return self.means.shape[0]

    @property
    def dims(self) -> int:
        return self.means.shape[1]

    @classmethod
    def from_moments(cls, means, covariances, counts) -> "ClassStatistics":
        """Build statistics from raw moments, factoring the covariance stack.

        Covariances are symmetrized and factored in one ``spd.factor_stack``
        pass; a matrix that fails exact Cholesky is repaired through the
        default jitter schedule (only reachable when beta is 0 or the inputs
        are degenerate).
        """
        means = np.asarray(means, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.float64)
        if np.any(counts <= 0):
            raise EmptyClass(int(np.argmax(counts <= 0)))
        covariances, factors, inverses, jitter = spd.factor_stack(covariances)
        return cls(
            means=means,
            covariances=covariances,
            counts=counts,
            factors=factors,
            inverse_factors=inverses,
            jitter=jitter,
        )


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{what} contain NaN or infinite values")


@dataclass(frozen=True)
class SupportLayout:
    """A labelled support set grouped by class, built once per support set.

    Class k's rows, in input order, fill ``slot`` positions ``0..n_k - 1``
    of a zero-padded ``(K, width, d)`` block.  The per-class and total
    feature sums are taken once here, so a fit that reuses the layout
    (every refinement iteration of one task) repeats none of this work.
    """

    features: np.ndarray  # (n, d), finite
    labels: np.ndarray  # (n,)
    class_sizes: np.ndarray  # (K,), n_k
    slot: np.ndarray  # (n,), position of each row inside its class
    width: int  # max n_k, the padded block's second dimension
    class_sums: np.ndarray  # (K, d), sum of each class's rows
    feature_sum: np.ndarray  # (d,), sum of all rows

    @property
    def class_count(self) -> int:
        return self.class_sizes.shape[0]

    @classmethod
    def build(
        cls, features: np.ndarray, labels: np.ndarray, num_classes: int | None = None
    ) -> "SupportLayout":
        """Group ``(n, d)`` support rows by their labels in ``[0, K)``.

        This is where a labelled support set enters the package, so every
        check on it runs here, once per support set.  ``K`` is
        ``num_classes``, or the largest label plus one when omitted.

        Raises
        ------
        DimensionMismatch
            If ``features`` is not 2-D or ``labels`` disagrees with it on n.
        EmptyClass
            If the support set is empty.
        LabelOutOfRange
            If a label lies outside [0, K).
        NonFiniteInput
            If a support row has a NaN or infinite entry.
        """
        support_x = np.asarray(features, dtype=np.float64)
        support_y = np.asarray(labels, dtype=np.int64)
        if support_x.ndim != 2:
            raise DimensionMismatch("features must be a 2-D array")
        if support_y.shape[0] != support_x.shape[0]:
            raise DimensionMismatch("labels and features disagree on n")
        if support_x.shape[0] == 0:
            raise EmptyClass(0, "support set is empty")
        k_count = int(num_classes) if num_classes is not None else int(support_y.max()) + 1
        if np.any(support_y < 0) or np.any(support_y >= k_count):
            raise LabelOutOfRange(f"support label outside [0, {k_count})")
        _require_finite(support_x, "support features")
        n, d = support_x.shape
        n_k = np.bincount(support_y, minlength=k_count)
        order = np.argsort(support_y, kind="stable")
        slot = np.empty(n, dtype=np.intp)
        slot[order] = np.arange(n) - np.repeat(np.cumsum(n_k) - n_k, n_k)
        width = int(n_k.max())
        # the zero padding adds nothing to the class sums
        block = np.zeros((k_count, width, d))
        block[support_y, slot] = support_x
        return cls(
            features=support_x,
            labels=support_y,
            class_sizes=n_k,
            slot=slot,
            width=width,
            class_sums=block.sum(axis=1),
            feature_sum=support_x.sum(axis=0),
        )


def class_statistics(
    layout: SupportLayout,
    query_x: np.ndarray,
    query_weights: np.ndarray,
    beta: float,
) -> ClassStatistics:
    """The one class-statistics estimator shared by every head.

    Support row i counts with weight 1 toward class ``layout.labels[i]``
    only; query row j counts toward class k with weight
    ``query_weights[j, k]``.  Counts, means and scatters are weighted sums,
    and ``S`` is normalized by the total count.  Query rows with zero weight
    add exact zeros, so an all-zero query block gives bit-identical
    statistics to an empty one.

    Raises
    ------
    EmptyClass
        If some class's count is below ``SOFT_COUNT_FLOOR``.
    NonFiniteInput
        If a query row has a NaN or infinite entry.
    """
    _require_finite(query_x, "query features")
    support_x, support_y = layout.features, layout.labels
    d = support_x.shape[1]
    k_count = layout.class_count
    counts = layout.class_sizes + query_weights.sum(axis=0)
    if np.any(counts < SOFT_COUNT_FLOOR):
        raise EmptyClass(int(np.argmax(counts < SOFT_COUNT_FLOOR)))
    means = (layout.class_sums + query_weights.T @ query_x) / counts[:, None]

    total = counts.sum()
    row_mass = query_weights.sum(axis=1)
    task_mean = (layout.feature_sum + row_mass @ query_x) / total
    cs = support_x - task_mean
    cq = query_x - task_mean
    task_scatter = (cs.T @ cs + (cq * row_mass[:, None]).T @ cq) / total

    m = query_x.shape[0]
    block, dq, weighted = _scratch((k_count, layout.width, d), (k_count, m, d), (k_count, m, d))
    block.fill(0.0)
    block[support_y, layout.slot] = support_x - means[support_y]
    np.subtract(query_x[None, :, :], means[:, None, :], out=dq)
    np.multiply(dq, query_weights.T[:, :, None], out=weighted)
    class_scatter = block.transpose(0, 2, 1) @ block + weighted.transpose(0, 2, 1) @ dq
    class_scatter /= counts[:, None, None]
    lam = (counts / (counts + 1.0))[:, None, None]
    covs = lam * class_scatter + (1.0 - lam) * task_scatter + beta * np.eye(d)
    return ClassStatistics.from_moments(means, covs, counts)


def estimate_class_statistics(layout: SupportLayout, beta: float = 1.0) -> ClassStatistics:
    """Closed-form class statistics from a labelled support set alone.

    ``class_statistics`` with an empty query block.  ``layout`` is the
    support set (``SupportLayout.build``), which several estimates at
    different betas can share; ``beta`` is the ridge added to every
    covariance.

    Raises
    ------
    EmptyClass
        If some class in [0, K) has no support example.
    InvalidConfig
        If ``beta`` is negative, NaN or infinite.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise InvalidConfig("beta must be finite and nonnegative")
    d = layout.features.shape[1]
    return class_statistics(layout, np.empty((0, d)), np.empty((0, layout.class_count)), beta)


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
    """(m, K) squared Mahalanobis distances through the cached inverse factors."""
    shape = (stats.class_count, queries.shape[0], stats.dims)
    diffs, images = _scratch(shape, shape)
    np.subtract(queries[None, :, :], stats.means[:, None, :], out=diffs)
    return spd.inverse_quad_form(stats.inverse_factors, diffs, out=images)


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
