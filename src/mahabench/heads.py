"""Closed-form class statistics and metric-based class scores.

The core head estimates a mean and a regularized covariance per class, then
scores queries with a choice of metric (``class_scores``).
``class_statistics`` is the one estimator every head uses: support rows
count fully toward their own class, query rows toward every class with soft
weights, and per class

    Q_k = lam_k * S_k + (1 - lam_k) * S + beta * I,   lam_k = n_k / (n_k + 1)

where ``n_k`` is the (soft) count and ``S`` and ``S_k`` are the
count-normalized scatter matrices of the whole weighted set and of class k.
Heads are fitted and queried through ``methods``, the one path:
``support_fits`` -> ``fit_statistics`` -> ``refine.run_refinement``, then
``predict`` or ``predict_labels``.  Scores deliberately carry no 1/2
coefficient; the GMM head owns that variant.

The estimator works from moments, taken once per support set and once per
query set.  All rows are shifted by the support mean ``c``.  A
``SupportLayout`` checks a support set once and keeps each class's count,
sum and packed raw second moments of its shifted rows; a ``QuerySet``
checks a query set once and keeps its shifted rows and their packed outer
products, ``(m, d(d+1)/2)``.  A fit builds one of each per task, and every
refining head and every iteration reuses them.  Each estimate is then
weighted sums of those moments (two GEMMs with the query weights), each
scatter is ``R / n - mu mu^T`` about ``c``, and the blend runs on packed
upper triangles and is unpacked once to ``(K, d, d)``.

Mahalanobis scoring maps the queries of every class in one GEMM
(``spd.inverse_quad_form``).  Its ``(m, K * d)`` images, and the
estimator's packed ``(K, d(d+1)/2)`` blend blocks and the ``(K, d, d)``
covariances it unpacks them to, are carved out of one grow-only float64
buffer per thread (``_scratch``) instead of being allocated afresh on every
update and scoring call.  Blocks that size, allocated and freed on every
update, are handed back to the OS by the C allocator and page-faulted in
again on the next one.  Neither side builds a ``(K, m, d)`` or
``(K, max n_k, d)`` block per call.  A scratch view never leaves the
function that took it and is dead before that function makes another call
that takes scratch; every result (statistics, scores) is a fresh array.
"""

import math
import threading
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache

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


@cache
def _packing(d: int) -> tuple:
    """How a symmetric ``(d, d)`` matrix is packed: the row and column
    indices of its upper triangle, row-major (the order of the packed
    ``d(d+1)/2`` entries), their flat indices in the full matrix, and for
    each of the ``d * d`` entries of the full matrix, row-major, the packed
    entry that holds it."""
    rows, cols = np.triu_indices(d)
    position = np.empty((d, d), dtype=np.intp)
    position[rows, cols] = position[cols, rows] = np.arange(rows.size)
    indices = rows, cols, rows * d + cols, position.ravel()
    for index in indices:  # shared by every caller
        index.flags.writeable = False
    return indices


def _packed_products(x: np.ndarray) -> np.ndarray:
    """``(n, d(d+1)/2)``: row i is the packed upper triangle of ``x_i x_i^T``."""
    n, d = x.shape
    out = np.empty((n, d * (d + 1) // 2))
    start = 0
    for i in range(d if n else 0):  # row i of the triangle, without an (n, d, d) block
        np.multiply(x[:, i : i + 1], x[:, i:], out=out[:, start : start + d - i])
        start += d - i
    return out


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
    degenerate); ``covariances`` already include it.  Instances are not
    rebound and are safe to share across threads.  Their arrays are
    written in one place only: ``continual.run_continual_session`` keeps
    one merged class memory per strategy, an instance with a row per world
    class, and assigns rows of it in place; that instance never leaves the
    session, whose every step scores one fresh copy of its seen rows
    (``take``) for both head modes.
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

    def take(self, rows) -> "ClassStatistics":
        """The statistics of ``rows`` (an index array or a boolean mask),
        in that order, as fresh arrays."""
        rows = np.asarray(rows)
        return ClassStatistics(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def from_moments(cls, means, covariances, counts) -> "ClassStatistics":
        """Build statistics from raw moments, factoring the covariance stack.

        Covariances are symmetrized and factored in one ``spd.factor_stack``
        pass; a matrix that fails exact Cholesky is repaired through
        ``spd.ensure_pd``'s jitter schedule (only reachable when beta is 0
        or the inputs are degenerate).
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
    """A labelled support set and its per-class moments, built once per
    support set.

    Rows are shifted by the support mean ``center``; ``class_sums`` and
    ``class_moments`` are each class's sum of shifted rows and the packed
    upper triangle of its sum of their outer products.  A fit that reuses
    the layout (every refinement iteration of one task) repeats none of
    this work.
    """

    features: np.ndarray  # (n, d), finite
    labels: np.ndarray  # (n,)
    class_sizes: np.ndarray  # (K,), n_k
    center: np.ndarray  # (d,), mean of all rows
    class_sums: np.ndarray  # (K, d), sum of each class's shifted rows
    class_moments: np.ndarray  # (K, d(d+1)/2), packed sum of their outer products

    @property
    def class_count(self) -> int:
        return self.class_sizes.shape[0]

    @property
    def dims(self) -> int:
        return self.features.shape[1]

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
        center = support_x.sum(axis=0) / n
        # class k's shifted rows fill the first n_k rows of a zero-padded
        # (K, max n_k, d) block, whose Gram matrices are the class moments
        order = np.argsort(support_y, kind="stable")
        slot = np.empty(n, dtype=np.intp)
        slot[order] = np.arange(n) - np.repeat(np.cumsum(n_k) - n_k, n_k)
        block = np.zeros((k_count, int(n_k.max()), d))
        block[support_y, slot] = support_x - center
        gram = (block.transpose(0, 2, 1) @ block).reshape(k_count, d * d)
        return cls(
            features=support_x,
            labels=support_y,
            class_sizes=n_k,
            center=center,
            class_sums=block.sum(axis=1),
            class_moments=np.take(gram, _packing(d)[2], axis=1),
        )


@dataclass(frozen=True, eq=False)
class QuerySet:
    """An ``(m, d)`` batch of query rows, checked once, and their moments.

    A fit builds one per task (``methods.support_fits``), and every
    estimate and every scoring of the task takes it.  The estimator takes
    the rows' moments about the support mean from it (``moments_about``);
    they are computed once and kept for the last center asked for.
    """

    rows: np.ndarray  # (m, d), finite
    _moments: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dims(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def build(cls, query, dims: int) -> "QuerySet":
        """``query`` as a query set of width ``dims``; a ``QuerySet`` of that
        width comes back as it is.

        Raises
        ------
        DimensionMismatch
            If the rows are not ``(m, dims)`` (any empty array counts as 0 rows).
        NonFiniteInput
            If a query row has a NaN or infinite entry.
        """
        if isinstance(query, QuerySet):
            if query.dims != dims:
                raise DimensionMismatch(f"query width {query.dims} does not match dim {dims}")
            return query
        rows = np.asarray(query, dtype=np.float64)
        if rows.size == 0 and rows.shape[:1] == (0,):
            rows = rows.reshape(0, dims)
        if rows.ndim != 2 or rows.shape[1] != dims:
            raise DimensionMismatch(f"query shape {rows.shape} does not match dim {dims}")
        _require_finite(rows, "query features")
        return cls(rows)

    def moments_about(self, center: np.ndarray) -> tuple:
        """``(shifted, products)``: the rows minus ``center`` and the packed
        outer products of those, ``(m, d(d+1)/2)``."""
        kept = self._moments.get("last")  # one entry, read and written whole
        if kept is None or kept[0] is not center:
            shifted = self.rows - center
            kept = self._moments["last"] = (center, shifted, _packed_products(shifted))
        return kept[1], kept[2]


def class_statistics(
    layout: SupportLayout,
    query_x,
    query_weights: np.ndarray,
    beta: float,
) -> ClassStatistics:
    """The one class-statistics estimator shared by every head.

    Support row i counts with weight 1 toward class ``layout.labels[i]``
    only; query row j counts toward class k with weight
    ``query_weights[j, k]``.  ``query_x`` is an ``(m, d)`` array or a
    ``QuerySet``, whose moments about the support mean are taken once.
    Counts, means and second moments are weighted sums, and ``S`` is
    normalized by the total count.  Query rows with zero weight add exact
    zeros, so an all-zero query block gives bit-identical statistics to an
    empty one.

    Raises
    ------
    DimensionMismatch
        If the query rows are not ``(m, d)``.
    EmptyClass
        If some class's count is below ``SOFT_COUNT_FLOOR``.
    NonFiniteInput
        If a query row has a NaN or infinite entry.
    """
    d = layout.dims
    shifted, products = QuerySet.build(query_x, d).moments_about(layout.center)
    counts = layout.class_sizes + query_weights.sum(axis=0)
    if np.any(counts < SOFT_COUNT_FLOOR):
        raise EmptyClass(int(np.argmax(counts < SOFT_COUNT_FLOOR)))
    k_count = layout.class_count
    rows, cols, _, position = _packing(d)
    packed, outer, covs = _scratch((k_count, rows.size), (k_count, rows.size), (k_count, d * d))
    weights_t = query_weights.T
    sums = weights_t @ shifted
    sums += layout.class_sums
    np.matmul(weights_t, products, out=packed)
    packed += layout.class_moments  # second moments about the support mean

    # scatters about the means are R / n - mu mu^T, blended in packed form
    total = counts.sum()
    task_mean = sums.sum(axis=0) / total
    task_scatter = packed.sum(axis=0) / total - task_mean[rows] * task_mean[cols]
    class_means = sums / counts[:, None]
    packed /= counts[:, None]
    np.multiply(np.take(class_means, rows, axis=1), np.take(class_means, cols, axis=1), out=outer)
    packed -= outer
    lam = (counts / (counts + 1.0))[:, None]
    packed *= lam
    np.multiply(1.0 - lam, task_scatter, out=outer)
    packed += outer

    np.take(packed, position, axis=1, out=covs)  # unpacked once
    covs[:, :: d + 1] += beta
    covs = covs.reshape(k_count, d, d)
    return ClassStatistics.from_moments(layout.center + class_means, covs, counts)


def check_beta(beta: float) -> None:
    """Raise ``InvalidConfig`` unless the ridge ``beta`` is finite and >= 0."""
    if not (math.isfinite(beta) and beta >= 0):
        raise InvalidConfig("beta must be finite and nonnegative")


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
    check_beta(beta)
    no_queries = QuerySet(np.empty((0, layout.dims)))
    return class_statistics(layout, no_queries, np.empty((0, layout.class_count)), beta)


def _query_rows(query, dims: int) -> tuple:
    """``(rows, single)``: one vector, an ``(m, d)`` batch or a ``QuerySet``
    as checked ``(m, d)`` rows, and whether a single vector was given."""
    single = not isinstance(query, QuerySet) and np.ndim(query) == 1
    return QuerySet.build(np.asarray(query)[None, :] if single else query, dims).rows, single


def _mahalanobis_sq(rows: np.ndarray, stats: ClassStatistics) -> np.ndarray:
    """(m, K) squared Mahalanobis distances through the cached inverse factors."""
    (images,) = _scratch((rows.shape[0], stats.class_count * stats.dims))
    return spd.inverse_quad_form(stats.inverse_factors, rows, stats.means, out=images)


def class_scores(query, stats: ClassStatistics, metric: MetricKind) -> np.ndarray:
    """Per-class scores for one query vector, an (m, d) batch or a
    ``QuerySet``.

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
