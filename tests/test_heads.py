import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dtrtri

from mahabench import heads
from mahabench.errors import (
    DimensionMismatch,
    EmptyClass,
    LabelOutOfRange,
    NonFiniteInput,
    NotPositiveDefinite,
)
from mahabench.heads import (
    ClassStatistics,
    MetricKind,
    QuerySet,
    SupportLayout,
    class_scores,
    class_statistics,
    estimate_class_statistics,
    softmax,
)
from mahabench.methods import HeadConfig, fit_statistics, predict
from mahabench.refine import RefineConfig
from mahabench.rng import Rng
from mahabench.spd import cholesky, quad_form


TRANSDUCTIVE = HeadConfig(refine=RefineConfig())
GMM_EM = HeadConfig(metric=MetricKind.GMM_LOG_POSTERIOR, refine=RefineConfig())


def stats_with_covariances(means, covs):
    counts = np.ones(len(means))
    return ClassStatistics.from_moments(np.asarray(means, float), covs, counts)


def random_task(rng, n_classes=3, per_class=4, dims=4, spread=1.0):
    feats, labels = [], []
    centers = 2.0 * rng.normal((n_classes, dims))
    for k in range(n_classes):
        feats.append(centers[k] + spread * rng.normal((per_class, dims)))
        labels.extend([k] * per_class)
    return np.vstack(feats), np.array(labels, dtype=np.int64)


class TestEstimateClassStatistics:
    def test_single_point_single_class(self):
        # one point: scatters are zero, lambda = 1/2, Q = beta * I
        layout = SupportLayout.build(np.zeros((1, 2)), np.array([0]))
        stats = estimate_class_statistics(layout, beta=1.0)
        assert np.allclose(stats.means[0], [0.0, 0.0])
        assert np.allclose(stats.covariances[0], np.eye(2))
        assert stats.counts[0] == 1.0

    def test_hand_worked_two_class_task(self):
        # A = {(0,0),(2,0)}, B = {(0,2)}: mu_A, lambda_A, both scatters and
        # Q_A evaluated by hand from the blended-covariance formula
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        labels = np.array([0, 0, 1])
        stats = estimate_class_statistics(SupportLayout.build(feats, labels), beta=1.0)
        assert np.allclose(stats.means[0], [1.0, 0.0])
        assert stats.counts[0] == 2.0
        q_a = np.array([[53.0 / 27.0, -4.0 / 27.0], [-4.0 / 27.0, 35.0 / 27.0]])
        assert np.allclose(stats.covariances[0], q_a, rtol=1e-12)

    def test_hand_worked_against_brute_force_scatter(self):
        # cross-check the same task with an explicit scatter accumulator
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        labels = np.array([0, 0, 1])
        n = 3
        task_mean = feats.sum(axis=0) / n
        task_scatter = np.zeros((2, 2))
        for z in feats:
            task_scatter += np.outer(z - task_mean, z - task_mean)
        task_scatter /= n
        assert np.allclose(task_mean, [2 / 3, 2 / 3])
        assert np.allclose(task_scatter, [[8 / 9, -4 / 9], [-4 / 9, 8 / 9]])

        stats = estimate_class_statistics(SupportLayout.build(feats, labels), beta=1.0)
        for k in (0, 1):
            rows = feats[labels == k]
            mu_k = rows.mean(axis=0)
            sc = np.zeros((2, 2))
            for z in rows:
                sc += np.outer(z - mu_k, z - mu_k)
            sc /= len(rows)
            lam = len(rows) / (len(rows) + 1)
            expected = lam * sc + (1 - lam) * task_scatter + np.eye(2)
            assert np.allclose(stats.covariances[k], expected, rtol=1e-12)

    def test_lambda_blend_values(self):
        # lambda = n/(n+1): 1 -> 0.5, 4 -> 0.8, large n -> 1
        for n_k, lam in [(1, 0.5), (4, 0.8)]:
            assert n_k / (n_k + 1) == lam
        feats = np.vstack([np.zeros((4, 2)), np.ones((1, 2))])
        labels = np.array([0, 0, 0, 0, 1])
        stats = estimate_class_statistics(SupportLayout.build(feats, labels))
        # class 0 blend weight shows up through the task-scatter share
        assert stats.counts[0] == 4.0

    def test_empty_class_raises(self):
        with pytest.raises(EmptyClass) as info:
            estimate_class_statistics(SupportLayout.build(np.zeros((2, 2)), np.array([0, 2])))
        assert info.value.class_index == 1

    def test_label_out_of_range_raises(self):
        with pytest.raises(LabelOutOfRange):
            SupportLayout.build(np.zeros((2, 2)), np.array([0, -1]))

    def test_non_finite_support_row_raises(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, np.nan]])
        with pytest.raises(NonFiniteInput):
            SupportLayout.build(feats, np.array([0, 0, 1]))
        feats[2, 1] = np.inf
        with pytest.raises(NonFiniteInput):
            SupportLayout.build(feats, np.array([0, 0, 1]))

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e308])
    def test_rows_whose_moments_overflow_raise(self, scale):
        # finite rows whose squares pass float64's range, in the support or
        # in the queries, with no numpy warning on the way
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(NonFiniteInput, match="support features' second moments overflow"):
            SupportLayout.build(scale * feats, labels)
        layout = SupportLayout.build(feats, labels)
        with pytest.raises(NonFiniteInput, match="query features' second moments overflow"):
            class_statistics(layout, scale * feats, np.full((4, 2), 0.5), 1.0)

    @pytest.mark.parametrize("side", ["support", "query"])
    @pytest.mark.parametrize("head", [TRANSDUCTIVE, GMM_EM],
                             ids=["transductive", "gmm-em"])
    def test_moments_whose_sums_overflow_raise(self, head, side):
        # each row's products are finite (about 1.4e306), but sums of 100 or
        # more of them pass float64's range; the error names the rows' side
        small = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        large = np.tile([[1.2e153, -1.2e153], [-1.2e153, 1.2e153]], (100, 1))
        support, queries = (large, small) if side == "support" else (small, large)
        labels = np.arange(len(support)) % 2
        with pytest.raises(NonFiniteInput, match=f"{side} features' second moments overflow"):
            fit_statistics([head], support, labels, queries)

    def test_factors_are_one_stack(self):
        rng = Rng(5)
        feats, labels = random_task(rng, n_classes=3, dims=4)
        stats = estimate_class_statistics(SupportLayout.build(feats, labels))
        assert stats.factors.shape == stats.inverse_factors.shape == (3, 4, 4)
        assert np.array_equal(stats.jitter, np.zeros(3))
        assert stats.factors.tobytes() == np.linalg.cholesky(stats.covariances).tobytes()
        for k in range(3):
            assert np.array_equal(stats.inverse_factors[k], dtrtri(stats.factors[k], lower=1)[0])

    @settings(max_examples=60, deadline=None)
    @given(
        n_classes=st.integers(1, 4),
        per_class=st.integers(1, 5),
        dims=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_support_permutation_leaves_statistics_unchanged(
        self, n_classes, per_class, dims, seed
    ):
        rng = Rng(seed)
        feats, labels = random_task(rng, n_classes, per_class, dims)
        perm = rng.permutation(len(labels))
        base = estimate_class_statistics(SupportLayout.build(feats, labels))
        other = estimate_class_statistics(SupportLayout.build(feats[perm], labels[perm]))
        assert np.array_equal(base.counts, other.counts)
        for name in ("means", "covariances", "factors"):
            assert np.allclose(getattr(base, name), getattr(other, name), rtol=1e-10, atol=1e-12)

    def test_single_shot_covariance_is_half_task_scatter_plus_beta(self):
        # n_k = 1: class scatter is 0, so Q_k = 0.5 * task_scatter + beta I
        rng = Rng(3)
        feats = rng.normal((4, 3))
        labels = np.arange(4, dtype=np.int64) % 4
        stats = estimate_class_statistics(SupportLayout.build(feats, labels), beta=1.0)
        centered = feats - feats.mean(axis=0)
        task_scatter = centered.T @ centered / 4
        for k in range(4):
            expected = 0.5 * task_scatter + np.eye(3)
            assert np.allclose(stats.covariances[k], expected, rtol=1e-12)


def centered_class_statistics(support_x, support_y, k_count, query_x, weights, beta):
    """Means and covariances (before any jitter) from the centered formulas:
    every scatter accumulates differences from its own mean, so no raw
    moment cancels against a mean product."""
    counts = np.bincount(support_y, minlength=k_count) + weights.sum(axis=0)
    class_sums = np.stack([support_x[support_y == k].sum(axis=0) for k in range(k_count)])
    means = (class_sums + weights.T @ query_x) / counts[:, None]
    total = counts.sum()
    row_mass = weights.sum(axis=1)
    task_mean = (support_x.sum(axis=0) + row_mass @ query_x) / total
    cs, cq = support_x - task_mean, query_x - task_mean
    task_scatter = (cs.T @ cs + (cq * row_mass[:, None]).T @ cq) / total
    covs = []
    for k in range(k_count):
        ds = support_x[support_y == k] - means[k]
        dq = query_x - means[k]
        scatter = (ds.T @ ds + (dq * weights[:, k, None]).T @ dq) / counts[k]
        lam = counts[k] / (counts[k] + 1.0)
        covs.append(lam * scatter + (1.0 - lam) * task_scatter + beta * np.eye(len(task_mean)))
    return means, np.stack(covs), counts


class TestMomentsAgainstCenteredReference:
    @settings(max_examples=160, deadline=None)
    @given(
        k_count=st.integers(1, 5),
        shots=st.lists(st.integers(1, 5), min_size=5, max_size=5),
        m=st.integers(0, 8),
        d=st.integers(1, 6),
        beta=st.sampled_from([0.0, 0.5, 1.0]),
        offset=st.sampled_from([3.0, 1e4, 1e5, 1e6]),
        translation=st.sampled_from([0.0, 1e6]),
        zero_columns=st.lists(st.booleans(), min_size=5, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    # a singular estimate of scale 1e11, whose roundoff no absolute jitter
    # step covers
    @example(k_count=3, shots=[2, 1, 1, 1, 1], m=0, d=5, beta=0.0, offset=1e6,
             translation=0.0, zero_columns=[False] * 5, seed=294115)
    def test_raw_moments_match_the_centered_formulas(
        self, k_count, shots, m, d, beta, offset, translation, zero_columns, seed
    ):
        # raw moments about the support mean, scatters as R / n - mu mu^T:
        # the centered estimate, each covariance entry to 1e-12 of the
        # geometric mean of its two diagonal entries, with unit-spread
        # classes up to 1e6 apart, the whole task up to 1e6 from the
        # origin, empty query sets, classes no query row
        # weighs, and beta = 0 (where a singular estimate takes jitter on
        # top).  A class scatter alone rounds by about eps |mu|^2, more than
        # a tight class far from the support mean spreads; but the blend's
        # (1 - lam) S term holds that class's offset from the task mean, so
        # the covariance keeps the centered formulas' precision.
        rng = Rng(seed)
        labels = np.repeat(np.arange(k_count), shots[:k_count])
        centers = translation + offset * rng.normal((k_count, d))
        support = centers[labels] + rng.normal((len(labels), d))
        query_labels = np.array([rng.below(k_count) for _ in range(m)], dtype=np.int64)
        queries = centers[query_labels] + rng.normal((m, d)) if m else np.empty((0, d))
        weights = softmax(rng.normal((m, k_count)))
        weights[:, np.array(zero_columns[:k_count])] = 0.0
        stats = class_statistics(SupportLayout.build(support, labels), queries,
                                 weights, beta)
        means, covs, counts = centered_class_statistics(support, labels, k_count, queries,
                                                        weights, beta)
        scale = max(1.0, float(np.abs(np.vstack([support, queries])).max()))
        assert np.allclose(stats.counts, counts, rtol=1e-12, atol=0)
        assert np.allclose(stats.means, means, rtol=1e-12, atol=1e-12 * scale)
        estimate = stats.covariances - stats.jitter[:, None, None] * np.eye(d)
        spread = np.sqrt(np.einsum("kii->ki", covs))
        bound = 1e-12 * spread[:, :, None] * spread[:, None, :]
        assert np.all(np.abs(estimate - covs) <= bound)
        assert beta == 0.0 or not np.any(stats.jitter)


class TestClassScores:
    def test_identity_covariance_reduces_to_euclidean(self):
        stats = stats_with_covariances(
            [[0.0, 0.0], [4.0, 0.0]], [np.eye(2), np.eye(2)]
        )
        scores = class_scores(np.array([1.0, 0.0]), stats, MetricKind.SQUARED_MAHALANOBIS)
        assert np.allclose(scores, [-1.0, -9.0])

    def test_diagonal_covariance_quadratic_form(self):
        stats = stats_with_covariances([[0.0, 0.0]], [np.diag([4.0, 1.0])])
        score = class_scores(np.array([2.0, 2.0]), stats, MetricKind.SQUARED_MAHALANOBIS)
        assert score[0] == pytest.approx(-5.0)

    def test_root_riemannian_is_sqrt_of_mahalanobis(self):
        rng = Rng(11)
        feats, labels = random_task(rng)
        stats = estimate_class_statistics(SupportLayout.build(feats, labels))
        queries = rng.normal((6, 4))
        maha = class_scores(queries, stats, MetricKind.SQUARED_MAHALANOBIS)
        root = class_scores(queries, stats, MetricKind.ROOT_RIEMANNIAN)
        assert np.allclose(root, -np.sqrt(-maha))

    def test_mahalanobis_scores_are_quad_form_on_the_factors(self):
        # scoring from the cached inverse factors is bit-identical to
        # inverting the factors afresh
        rng = Rng(12)
        feats, labels = random_task(rng)
        stats = estimate_class_statistics(SupportLayout.build(feats, labels))
        queries = rng.normal((6, 4))
        maha = class_scores(queries, stats, MetricKind.SQUARED_MAHALANOBIS)
        assert np.array_equal(maha, -quad_form(stats.factors, queries, stats.means))

    def test_all_metric_kinds_against_direct_formulas(self):
        rng = Rng(13)
        feats, labels = random_task(rng)
        stats = estimate_class_statistics(SupportLayout.build(feats, labels))
        q = rng.normal(4)
        for k in range(stats.class_count):
            diff = q - stats.means[k]
            cov_inv = np.linalg.inv(stats.covariances[k])
            assert class_scores(q, stats, MetricKind.SQUARED_MAHALANOBIS)[k] == pytest.approx(
                -diff @ cov_inv @ diff, rel=1e-9
            )
            assert class_scores(q, stats, MetricKind.SQUARED_EUCLIDEAN)[k] == pytest.approx(
                -diff @ diff
            )
            assert class_scores(q, stats, MetricKind.ABSOLUTE_L1)[k] == pytest.approx(
                -np.abs(diff).sum()
            )
            mu = stats.means[k]
            assert class_scores(q, stats, MetricKind.COSINE_SIMILARITY)[k] == pytest.approx(
                q @ mu / (np.linalg.norm(q) * np.linalg.norm(mu))
            )
            assert class_scores(q, stats, MetricKind.NEGATIVE_DOT_PRODUCT)[k] == pytest.approx(
                q @ mu
            )

    def test_cosine_zero_norm_returns_zero(self):
        stats = stats_with_covariances([[0.0, 0.0], [1.0, 0.0]], [np.eye(2), np.eye(2)])
        scores = class_scores(np.zeros(2), stats, MetricKind.COSINE_SIMILARITY)
        assert scores[0] == 0.0 and scores[1] == 0.0

    def test_dimension_mismatch(self):
        stats = stats_with_covariances([[0.0, 0.0]], [np.eye(2)])
        with pytest.raises(DimensionMismatch):
            class_scores(np.zeros(3), stats, MetricKind.SQUARED_EUCLIDEAN)


class TestClassify:
    def test_two_class_softmax_values(self):
        stats = stats_with_covariances(
            [[0.0, 0.0], [4.0, 0.0]], [np.eye(2), np.eye(2)]
        )
        probs, label = predict(HeadConfig(), stats, np.array([1.0, 0.0]))
        expected = np.exp([-1.0, -9.0])
        expected /= expected.sum()
        assert np.allclose(probs, expected)
        assert probs[0] == pytest.approx(0.99966, abs=1e-5)
        assert label == 0

    def test_equidistant_tie_breaks_low(self):
        stats = stats_with_covariances(
            [[-1.0, 0.0], [1.0, 0.0]], [np.eye(2), np.eye(2)]
        )
        probs, label = predict(HeadConfig(), stats, np.zeros(2))
        assert np.allclose(probs, [0.5, 0.5])
        assert label == 0

    def test_single_class(self):
        stats = stats_with_covariances([[0.0, 0.0]], [np.eye(2)])
        probs, label = predict(HeadConfig(), stats, np.ones(2))
        assert probs[0] == 1.0 and label == 0

    def test_non_finite_query_raises(self):
        # a NaN score must not turn into label 0 through argmax
        stats = stats_with_covariances([[0.0, 0.0], [4.0, 0.0]], [np.eye(2), np.eye(2)])
        for head in [HeadConfig(metric=metric) for metric in MetricKind]:
            with pytest.raises(NonFiniteInput):
                predict(head, stats, np.array([np.nan, 0.0]))
            with pytest.raises(NonFiniteInput):
                predict(head, stats, np.array([[1.0, 0.0], [0.0, np.inf]]))

    def test_probabilities_sum_to_one_and_shift_invariant(self):
        rng = Rng(17)
        scores = rng.normal((50, 5))
        probs = softmax(scores)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        shifted = softmax(scores + 123.0)
        assert np.allclose(probs, shifted, atol=1e-12)


class TestInvariants:
    def test_identity_covariance_equivalence(self):
        rng = Rng(23)
        means = rng.normal((4, 3))
        stats = ClassStatistics.from_moments(
            means, [np.eye(3)] * 4, np.ones(4)
        )
        queries = rng.normal((20, 3))
        maha = class_scores(queries, stats, MetricKind.SQUARED_MAHALANOBIS)
        eucl = class_scores(queries, stats, MetricKind.SQUARED_EUCLIDEAN)
        assert np.allclose(maha, eucl, atol=1e-10)

    def test_root_riemannian_decisions_match(self):
        rng = Rng(29)
        for _ in range(200):
            feats, labels = random_task(rng)
            stats = estimate_class_statistics(SupportLayout.build(feats, labels))
            queries = rng.normal((5, 4))
            _, maha_labels = predict(HeadConfig(), stats, queries)
            _, root_labels = predict(HeadConfig(metric=MetricKind.ROOT_RIEMANNIAN), stats, queries)
            assert np.array_equal(maha_labels, root_labels)

    def test_translation_equivariance(self):
        rng = Rng(31)
        feats, labels = random_task(rng)
        queries = rng.normal((8, 4))
        shift = rng.normal(4) * 10.0
        p1, _ = predict(HeadConfig(), estimate_class_statistics(SupportLayout.build(feats, labels)),
                        queries)
        p2, _ = predict(HeadConfig(),
                        estimate_class_statistics(SupportLayout.build(feats + shift, labels)),
                        queries + shift)
        assert np.allclose(p1, p2, atol=1e-9)

    def test_covariances_spd_with_zero_jitter_over_many_tasks(self):
        # beta = 1 forces positive definiteness; exact Cholesky must succeed
        rng = Rng(37)
        for _ in range(10_000):
            feats, labels = random_task(rng, n_classes=3, per_class=2, dims=3)
            stats = estimate_class_statistics(SupportLayout.build(feats, labels), beta=1.0)
            for q in stats.covariances:
                cholesky(q)  # raises NotPositiveDefinite on failure

    def test_take_copies_the_named_rows_in_order(self):
        rng = Rng(41)
        feats, labels = random_task(rng, n_classes=4)
        stats = estimate_class_statistics(SupportLayout.build(feats, labels))
        before = [a.copy() for a in stats_fields(stats)]
        for rows in ([2, 0], np.array([False, True, False, True])):
            taken = stats.take(rows)
            for part, whole in zip(stats_fields(taken), before):
                assert np.array_equal(part, whole[rows])
                part[...] = 0.0  # fresh arrays: the source is untouched
            for field, kept in zip(stats_fields(stats), before):
                assert np.array_equal(field, kept)


def soft_task(rng, k, m, d, per_class=2):
    """A support layout with ``per_class`` rows per class and soft query weights."""
    labels = np.repeat(np.arange(k), per_class)
    layout = SupportLayout.build(rng.normal((k * per_class, d)), labels)
    return layout, rng.normal((m, d)), softmax(rng.normal((m, k)))


def stats_fields(stats):
    return [stats.means, stats.covariances, stats.counts, stats.factors,
            stats.inverse_factors, stats.jitter]


class TestResultMemoryAndThreads:
    """Results own their memory, threaded fits match serial ones, and the
    kernels allocate no per-call block of the query set's size."""

    def test_results_own_their_memory_and_survive_later_calls(self):
        rng = Rng(51)
        layout, queries, weights = soft_task(rng, k=3, m=7, d=4)
        stats = class_statistics(layout, queries, weights, 1.0)
        scores = class_scores(queries, stats, MetricKind.SQUARED_MAHALANOBIS)
        results = [*stats_fields(stats), scores]
        kept = [r.copy() for r in results]
        for _ in range(2):
            other_layout, other_queries, other_weights = soft_task(rng, k=5, m=60, d=6)
            other = class_statistics(other_layout, other_queries, other_weights, 1.0)
            class_scores(other_queries, other, MetricKind.ROOT_RIEMANNIAN)
        assert all(np.array_equal(r, k) for r, k in zip(results, kept))

    def test_concurrent_threads_match_a_serial_run(self):
        # one shape for every thread, so that a shared buffer would be
        # carved identically by all of them
        def work(seed):
            rng = Rng(seed)
            out = []
            for _ in range(40):
                k, m, d = 5, 60, 8
                features, labels = rng.normal((2 * k, d)), np.repeat(np.arange(k), 2)
                queries = rng.normal((m, d))
                [fit] = fit_statistics([TRANSDUCTIVE], features, labels, queries)
                out.append(class_scores(queries, fit.statistics, MetricKind.SQUARED_MAHALANOBIS))
                out.extend(stats_fields(fit.statistics))
            return out

        seeds = range(60, 64)  # more threads than the test machine has cores
        serial = [work(seed) for seed in seeds]
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda s=seed: results.__setitem__(s, work(s)))
                for seed in seeds
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for seed, expected in zip(seeds, serial):
            assert all(np.array_equal(a, b) for a, b in zip(results[seed], expected))

    def test_kernels_peak_below_one_query_block(self):
        # a fit takes its query set's moments once; an estimator update
        # then allocates far less than a (K, m, d) block, and so does taking
        # the moments; a scoring allocates its one (m, K * d) GEMM image,
        # as large as that block, but no second one
        k, m, d = 20, 800, 32
        layout, rows, weights = soft_task(Rng(52), k, m, d)
        queries = QuerySet.build(rows, d)
        stats = class_statistics(layout, queries, weights, 1.0)  # takes the moments
        block = k * m * d * 8
        for call, bound in (
            (lambda: class_statistics(layout, queries, weights, 1.0), block),
            (lambda: heads._mahalanobis_sq(rows, stats), 1.5 * block),
            (lambda: QuerySet.build(rows, d).moments_about(layout.center), block),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


def bregman_divergence(z, z_ref, q) -> float:
    """Bregman divergence generated by F(v) = v^T Q^-1 v, from the three-term
    definition ``F(z) - F(z_ref) - grad F(z_ref) . (z - z_ref)``; for this
    quadratic generator it equals the squared Mahalanobis distance."""
    z, z_ref = np.asarray(z, dtype=np.float64), np.asarray(z_ref, dtype=np.float64)
    if z.shape != z_ref.shape:
        raise DimensionMismatch("z and z_ref must have the same shape")
    factor = cholesky(q)
    grad_ref = 2.0 * cho_solve((factor, True), z_ref)
    origin = np.zeros_like(z)
    return float(quad_form(factor, z, origin) - quad_form(factor, z_ref, origin)
                 - grad_ref @ (z - z_ref))


class TestBregmanDivergence:
    def test_zero_at_equal_points(self):
        assert bregman_divergence(np.ones(2), np.ones(2), np.eye(2)) == 0.0

    def test_identity_reduces_to_squared_euclidean(self):
        val = bregman_divergence(np.array([1.0, 0.0]), np.zeros(2), np.eye(2))
        assert val == pytest.approx(1.0)

    def test_equals_quadratic_form_on_random_triples(self):
        rng = Rng(41)
        for _ in range(1000):
            a = rng.normal((3, 3))
            q = a @ a.T + np.eye(3)
            z = rng.normal(3)
            z_ref = rng.normal(3)
            expected = (z - z_ref) @ np.linalg.inv(q) @ (z - z_ref)
            assert bregman_divergence(z, z_ref, q) == pytest.approx(expected, abs=1e-10, rel=1e-10)

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(NotPositiveDefinite):
            bregman_divergence(np.ones(2), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bregman_divergence(np.ones(3), np.zeros(2), np.eye(2))
