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
``fit_statistics`` (which runs ``refine.run_refinement`` for a refining
head), then ``predict`` or ``predict_labels``.  Scores deliberately carry no 1/2
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
(``spd.inverse_quad_form``).  Neither the estimator nor the scoring builds
a ``(K, m, d)`` or ``(K, max n_k, d)`` block per call; their largest
temporaries are the estimator's packed ``(K, d(d+1)/2)`` blend blocks and
the scoring's ``(m, K * d)`` images.  Every result is a fresh array, and
the module keeps no mutable state on the fit path.

The batch axis.  ``SupportLayout``, ``QuerySet``, ``class_statistics``,
``ClassStatistics``, ``class_scores`` (every metric) and ``softmax`` also
take a leading batch axis: B fits with the same class count, support size
and query count, estimated, factored and scored in one call each
(``active`` steps a block of sessions, and ``continual`` a block of
streams, this way).  Slice b of every result has the bits of the unbatched
call on slice b.  A stack's support sets are grouped in one pass, but each
one's class Gram is padded to its own largest class: slices padded alike
share one stacked product, because a common padding would change the
GEMM's inner dimension.  Every stacked ``np.matmul`` makes one BLAS call
per slice with that slice's shape, elementwise operations and last-axis
reductions act per element or per row, and the reductions over the class
axis add the classes in the same order either way
(``tests/test_batch_axis.py`` checks all of this bit for bit).  Without
the axis, a call keeps the bits it always had.
"""

import math
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
    """``(..., n, d(d+1)/2)``: row i is the packed upper triangle of ``x_i x_i^T``."""
    *lead, n, d = x.shape
    out = np.empty((*lead, n, d * (d + 1) // 2))
    start = 0
    for i in range(d if n else 0):  # row i of the triangle, without an (n, d, d) block
        np.multiply(x[..., i : i + 1], x[..., i:], out=out[..., start : start + d - i])
        start += d - i
    return out


def _taken(instance, index):
    """``instance`` with every array indexed by ``index`` on its leading axis."""
    return type(instance)(*(getattr(instance, f.name)[index] for f in fields(instance) if f.init))


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
    the merged class memory of a block of streams as one batched
    instance, ``(F, k, ...)`` with a row per (stream, strategy) fit and
    world class, and assigns classes of it in place, the same classes in
    every fit; that instance never leaves the call, whose every step scores
    one fresh copy of every fit's seen classes for both head modes.

    With a leading batch axis, the statistics of B fits of the same shape:
    ``(B, K, d)`` means, ``(B, K)`` counts and so on.
    """

    means: np.ndarray  # (K, d)
    covariances: np.ndarray  # (K, d, d)
    counts: np.ndarray  # (K,), support counts or soft counts
    factors: np.ndarray  # (K, d, d)
    inverse_factors: np.ndarray  # (K, d, d)
    jitter: np.ndarray  # (K,)

    @property
    def class_count(self) -> int:
        return self.means.shape[-2]

    @property
    def dims(self) -> int:
        return self.means.shape[-1]

    def take(self, rows) -> "ClassStatistics":
        """The statistics of ``rows`` (an index array or a boolean mask),
        in that order, as fresh arrays: classes, or with a batch axis, fits."""
        return _taken(self, np.asarray(rows))

    @classmethod
    def concatenate(cls, parts) -> "ClassStatistics":
        """The fits of several batched stacks, in order, as one stack."""
        return cls(*(np.concatenate([getattr(part, f.name) for part in parts])
                     for f in fields(cls) if f.init))

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
            raise EmptyClass(int(np.argmax(counts <= 0)) % counts.shape[-1])
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


def _require_finite_moments(moments: np.ndarray, what: str) -> None:
    """Raise ``NonFiniteInput`` unless every second moment of the finite
    ``what`` rows is finite: rows near the square root of float64's
    largest value, or beyond it, overflow where they are multiplied."""
    if not np.all(np.isfinite(moments)):
        raise NonFiniteInput(f"{what} features' second moments overflow float64")


@dataclass(frozen=True)
class SupportLayout:
    """The per-class moments of a labelled support set, built once per
    support set.

    Rows are shifted by the support mean ``center``; ``class_sums`` and
    ``class_moments`` are each class's sum of shifted rows and the packed
    upper triangle of its sum of their outer products.  A fit that reuses
    the layout (every refinement iteration of one task) repeats none of
    this work.  With a leading batch axis, the layouts of B support sets of
    the same size and class count: ``(B, K)`` class sizes, ``(B, d)``
    centers and so on.
    """

    class_sizes: np.ndarray  # (K,), n_k
    center: np.ndarray  # (d,), mean of all rows
    class_sums: np.ndarray  # (K, d), sum of each class's shifted rows
    class_moments: np.ndarray  # (K, d(d+1)/2), packed sum of their outer products

    @property
    def class_count(self) -> int:
        return self.class_sizes.shape[-1]

    @property
    def dims(self) -> int:
        return self.class_sums.shape[-1]

    @property
    def batch_shape(self) -> tuple:
        """``(B,)`` for a stack of B layouts, ``()`` for one."""
        return self.class_sizes.shape[:-1]

    def take(self, index) -> "SupportLayout":
        """The layouts of a stack picked by ``index`` (an index array or a mask)."""
        return _taken(self, index)

    @classmethod
    def build(cls, features: np.ndarray, labels: np.ndarray) -> "SupportLayout":
        """Group ``(n, d)`` support rows by their labels in ``[0, K)``.

        This is where a labelled support set enters the package, so every
        check on it runs here, once per support set.  ``K`` is the largest
        label plus one.
        ``(B, n, d)`` features with ``(B, n)`` labels give a stack of B
        layouts with a common K, checked and grouped in one pass; each
        slice has the bits of its own unbatched layout.

        Raises
        ------
        DimensionMismatch
            If ``features`` is not 2-D or 3-D, ``labels`` disagrees with it
            on the batch or on n, or a stack holds no support set.
        EmptyClass
            If the support set is empty.
        LabelOutOfRange
            If a label is negative.
        NonFiniteInput
            If a support row has a NaN or infinite entry.
        """
        support_x = np.asarray(features, dtype=np.float64)
        support_y = np.asarray(labels, dtype=np.int64)
        if support_x.ndim not in (2, 3):
            raise DimensionMismatch("features must be a 2-D array or a stack of them")
        if support_y.shape != support_x.shape[:-1]:
            raise DimensionMismatch("labels and features disagree on n")
        if support_x.shape[-2] == 0:
            raise EmptyClass(0, "support set is empty")
        *batch, n, d = support_x.shape
        if batch == [0]:
            raise DimensionMismatch("a stack of support sets must hold at least one")
        if support_y.min() < 0:
            raise LabelOutOfRange("support label below 0")
        k_count = int(support_y.max()) + 1
        _require_finite(support_x, "support features")
        xs, ys = support_x.reshape(-1, n, d), support_y.reshape(-1, n)
        b_count = len(xs)
        # with slice b's labels offset by b K, one bincount and one stable
        # argsort group the rows of every slice by class
        key = (ys + k_count * np.arange(b_count)[:, None]).ravel()
        n_k = np.bincount(key, minlength=b_count * k_count)
        slot = np.empty(b_count * n, dtype=np.intp)
        slot[np.argsort(key, kind="stable")] = (
            np.arange(b_count * n) - np.repeat(np.cumsum(n_k) - n_k, n_k))
        n_k, slot = n_k.reshape(b_count, k_count), slot.reshape(b_count, n)
        sums = np.empty((b_count, k_count, d))
        moments = np.empty((b_count, k_count, d * (d + 1) // 2))
        # class k's shifted rows fill the first n_k rows of a zero-padded
        # (K, max n_k, d) block per slice, whose Gram matrices are the class
        # moments; slices padded to the same length share one stacked
        # product, so every BLAS call has the shape it has for one slice
        longest = n_k.max(axis=1)
        lengths = set(longest.tolist())
        with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
            center = xs.sum(axis=1) / n
            shifted = xs - center[:, None, :]
            for m in lengths:
                # views, not copies, when every slice has the same padding
                group = np.flatnonzero(longest == m) if len(lengths) > 1 else slice(None)
                rows = ys[group]
                block = np.zeros((len(rows), k_count, m, d))
                block[np.arange(len(rows))[:, None], rows, slot[group]] = shifted[group]
                gram = (block.swapaxes(-1, -2) @ block).reshape(len(rows), k_count, d * d)
                sums[group] = block.sum(axis=2)
                moments[group] = np.take(gram, _packing(d)[2], axis=-1)
        _require_finite_moments(moments, "support")
        return cls(
            class_sizes=n_k.reshape(*batch, k_count),
            center=center.reshape(*batch, d),
            class_sums=sums.reshape(*batch, k_count, d),
            class_moments=moments.reshape(*batch, k_count, -1),
        )


@dataclass(frozen=True, eq=False)
class QuerySet:
    """An ``(m, d)`` batch of query rows, checked once, and their moments.

    A fit builds one per task (``methods.fit_statistics``), and every
    estimate and every scoring of the task takes it.  The estimator takes
    the rows' moments about the support mean from it (``moments_about``);
    they are computed once and kept for the last center asked for.  With a
    leading batch axis, ``(B, m, d)`` rows: the query sets of B fits, and
    a ``(B, d)`` center.
    """

    rows: np.ndarray  # (m, d), finite
    _moments: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dims(self) -> int:
        return self.rows.shape[-1]

    def take(self, index) -> "QuerySet":
        """The query sets of a stack picked by ``index`` (an index array or a mask)."""
        return _taken(self, index)

    @classmethod
    def build(cls, query, dims: int) -> "QuerySet":
        """``query`` as a query set of width ``dims``; a ``QuerySet`` of that
        width comes back as it is.

        Raises
        ------
        DimensionMismatch
            If the rows are not ``(m, dims)`` or ``(B, m, dims)`` (any empty
            array counts as 0 rows).
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
        if rows.ndim not in (2, 3) or rows.shape[-1] != dims:
            raise DimensionMismatch(f"query shape {rows.shape} does not match dim {dims}")
        _require_finite(rows, "query features")
        return cls(rows)

    def moments_about(self, center: np.ndarray) -> tuple:
        """``(shifted, products)``: the rows minus ``center`` and the packed
        outer products of those, ``(m, d(d+1)/2)``."""
        kept = self._moments.get("last")  # one entry, read and written whole
        if kept is None or kept[0] is not center:
            with np.errstate(over="ignore", invalid="ignore"):  # checked next
                shifted = self.rows - center[..., None, :]
                products = _packed_products(shifted)
            _require_finite_moments(products, "query")
            kept = self._moments["last"] = (center, shifted, products)
        return kept[1], kept[2]


def class_statistics(
    layout: SupportLayout,
    query_x,
    query_weights: np.ndarray,
    beta: float,
) -> ClassStatistics:
    """The one class-statistics estimator shared by every head.

    Support row i counts with weight 1 toward its own class only; query row
    j counts toward class k with weight ``query_weights[j, k]``.
    ``query_x`` is an ``(m, d)`` array or a ``QuerySet``, whose moments
    about the support mean are taken once.  Counts, means and second
    moments are weighted sums, and ``S`` is normalized by the total count.  Query rows with zero weight add exact
    zeros, so an all-zero query block gives bit-identical statistics to an
    empty one.  A stack of layouts takes ``(B, m, d)`` queries and
    ``(B, m, K)`` weights and gives a stack of statistics.

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
    counts = layout.class_sizes + query_weights.sum(axis=-2)
    k_count = layout.class_count
    if np.any(counts < SOFT_COUNT_FLOOR):
        raise EmptyClass(int(np.argmax(counts < SOFT_COUNT_FLOOR)) % k_count)
    rows, cols, _, position = _packing(d)
    weights_t = query_weights.swapaxes(-1, -2)
    sums = weights_t @ shifted
    sums += layout.class_sums
    packed = weights_t @ products
    packed += layout.class_moments  # second moments about the support mean

    # scatters about the means are R / n - mu mu^T, blended in packed form
    total = counts.sum(axis=-1, keepdims=True)
    task_mean = sums.sum(axis=-2) / total
    task_scatter = packed.sum(axis=-2) / total - task_mean[..., rows] * task_mean[..., cols]
    class_means = sums / counts[..., None]
    packed /= counts[..., None]
    packed -= np.take(class_means, rows, axis=-1) * np.take(class_means, cols, axis=-1)
    lam = (counts / (counts + 1.0))[..., None]
    packed *= lam
    packed += (1.0 - lam) * task_scatter[..., None, :]

    covs = np.take(packed, position, axis=-1)  # unpacked once
    covs[..., :: d + 1] += beta
    covs = covs.reshape(*layout.batch_shape, k_count, d, d)
    return ClassStatistics.from_moments(layout.center[..., None, :] + class_means, covs, counts)


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
    batch = layout.batch_shape
    no_queries = QuerySet(np.empty((*batch, 0, layout.dims)))
    return class_statistics(layout, no_queries, np.empty((*batch, 0, layout.class_count)), beta)


def _query_rows(query, stats: ClassStatistics) -> tuple:
    """``(rows, single)``: one vector, an ``(m, d)`` batch or a ``QuerySet``
    as checked rows for ``stats``, and whether a single vector was given.
    A stack of statistics takes ``(B, m, d)`` rows.

    Raises
    ------
    DimensionMismatch
        If the rows do not match the statistics' width or batch.
    """
    single = not isinstance(query, QuerySet) and np.ndim(query) == 1
    rows = QuerySet.build(np.asarray(query)[None, :] if single else query, stats.dims).rows
    if rows.shape[:-2] != stats.counts.shape[:-1]:
        raise DimensionMismatch(f"query rows {rows.shape} do not match statistics "
                                f"{stats.means.shape}")
    return rows, single


def _mahalanobis_sq(rows: np.ndarray, stats: ClassStatistics) -> np.ndarray:
    """(..., m, K) squared Mahalanobis distances through the cached inverse factors."""
    return spd.inverse_quad_form(stats.inverse_factors, rows, stats.means)


def class_scores(query, stats: ClassStatistics, metric: MetricKind) -> np.ndarray:
    """Per-class scores for one query vector, an (m, d) batch or a
    ``QuerySet``; ``(B, m, K)`` scores of ``(B, m, d)`` rows under a stack
    of statistics.

    Higher means more likely.  Distance metrics are negated; cosine
    similarity and the dot product are used directly as scores (the
    "negative dot product" of the distance framing is the negated
    similarity, so the raw dot product already ranks correctly).
    """
    rows, single = _query_rows(query, stats)
    if metric is MetricKind.SQUARED_MAHALANOBIS:
        scores = -_mahalanobis_sq(rows, stats)
    elif metric is MetricKind.ROOT_RIEMANNIAN:
        scores = -np.sqrt(_mahalanobis_sq(rows, stats))
    elif metric is MetricKind.SQUARED_EUCLIDEAN:
        diffs = rows[..., :, None, :] - stats.means[..., None, :, :]
        scores = -np.einsum("...mkd,...mkd->...mk", diffs, diffs)
    elif metric is MetricKind.ABSOLUTE_L1:
        diffs = rows[..., :, None, :] - stats.means[..., None, :, :]
        scores = -np.abs(diffs).sum(axis=-1)
    elif metric is MetricKind.COSINE_SIMILARITY:
        qn = np.linalg.norm(rows, axis=-1)
        mn = np.linalg.norm(stats.means, axis=-1)
        denom = qn[..., :, None] * mn[..., None, :]
        dots = rows @ stats.means.swapaxes(-1, -2)
        # zero-norm query or mean: score 0 for that pair, avoiding NaN
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    elif metric is MetricKind.NEGATIVE_DOT_PRODUCT:
        scores = rows @ stats.means.swapaxes(-1, -2)
    else:
        raise ValueError(f"unknown metric {metric}")
    return scores[0] if single else scores


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for stability."""
    s = np.asarray(scores, dtype=np.float64)
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
