import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahabench.errors import (
    DimensionMismatch,
    EmptyClass,
    InvalidConfig,
    LabelOutOfRange,
    NonFiniteInput,
)
from mahabench.heads import MetricKind, SupportLayout, classify, estimate_class_statistics
from mahabench.refine import (
    RefineConfig,
    init_responsibilities,
    refine,
    run_refinement,
    weighted_class_statistics,
)
from mahabench.rng import Rng


def mahalanobis_refresh(stats, x):
    return classify(x, stats, MetricKind.SQUARED_MAHALANOBIS)


def brute_force_loop(support_x, support_y, query_x, beta, max_steps, min_steps=1):
    """Straight-line reimplementation of the refinement loop with plain
    Python loops: weighted moments, blended covariance, softmax refresh.
    Returns per-iteration query responsibilities."""
    n, d = support_x.shape
    m = query_x.shape[0]
    k_count = int(support_y.max()) + 1
    w = np.zeros((n + m, k_count))
    for i, y in enumerate(support_y):
        w[i, y] = 1.0
    feats = np.vstack([support_x, query_x])

    history = []
    prev = None
    for it in range(1, max_steps + 1):
        counts = w.sum(axis=0)
        means = np.zeros((k_count, d))
        for k in range(k_count):
            for j in range(n + m):
                means[k] += w[j, k] * feats[j]
            means[k] /= counts[k]
        total = counts.sum()
        task_mean = np.zeros(d)
        for j in range(n + m):
            task_mean += w[j].sum() * feats[j]
        task_mean /= total
        task_scatter = np.zeros((d, d))
        for j in range(n + m):
            diff = feats[j] - task_mean
            task_scatter += w[j].sum() * np.outer(diff, diff)
        task_scatter /= total
        covs = np.zeros((k_count, d, d))
        for k in range(k_count):
            sc = np.zeros((d, d))
            for j in range(n + m):
                diff = feats[j] - means[k]
                sc += w[j, k] * np.outer(diff, diff)
            sc /= counts[k]
            lam = counts[k] / (counts[k] + 1.0)
            covs[k] = lam * sc + (1.0 - lam) * task_scatter + beta * np.eye(d)

        if m:
            probs = np.zeros((m, k_count))
            for j in range(m):
                scores = np.array(
                    [
                        -(query_x[j] - means[k]) @ np.linalg.inv(covs[k]) @ (query_x[j] - means[k])
                        for k in range(k_count)
                    ]
                )
                e = np.exp(scores - scores.max())
                probs[j] = e / e.sum()
            w[n:] = probs
            assign = probs.argmax(axis=1)
        else:
            assign = np.empty(0, dtype=np.int64)
        history.append(w[n:].copy())
        if (m == 0 or (prev is not None and np.array_equal(assign, prev))) and it >= min_steps:
            break
        prev = assign
    return history


def small_task(rng, n_classes=2, shots=2, m_query=4, dims=2, spread=0.8, sep=2.5):
    centers = sep * rng.normal((n_classes, dims))
    sup, lab = [], []
    for k in range(n_classes):
        sup.append(centers[k] + spread * rng.normal((shots, dims)))
        lab.extend([k] * shots)
    query = np.vstack(
        [centers[k % n_classes] + spread * rng.normal((1, dims)) for k in range(m_query)]
    )
    return np.vstack(sup), np.array(lab, dtype=np.int64), query


class TestInitResponsibilities:
    def test_one_hot_support_zero_query(self):
        resp = init_responsibilities(np.array([0, 1]), 2, 2)
        assert np.array_equal(resp.support, [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(resp.query, np.zeros((2, 2)))

    def test_no_query_rows(self):
        resp = init_responsibilities(np.array([0, 1]), 0, 2)
        assert resp.query.shape == (0, 2)

    def test_single_class(self):
        resp = init_responsibilities(np.array([0, 0, 0]), 0, 1)
        assert np.array_equal(resp.support, np.ones((3, 1)))


class TestWeightedClassStatistics:
    def test_zero_query_rows_reduce_to_plain_estimator(self):
        # one estimator: all-zero query weights add exact zeros, so the
        # statistics are bit-identical to the support-only ones
        rng = Rng(5)
        for trial in range(100):
            k = 2 + trial % 4
            sup, lab, query = small_task(
                rng, n_classes=k, shots=1 + trial % 5, m_query=1 + trial % 7, dims=1 + trial % 6
            )
            resp = init_responsibilities(lab, query.shape[0], k)
            weighted = weighted_class_statistics(np.vstack([sup, query]), resp, beta=1.0)
            plain = estimate_class_statistics(sup, lab, beta=1.0)
            assert np.array_equal(weighted.means, plain.means)
            assert np.array_equal(weighted.covariances, plain.covariances)
            assert np.array_equal(weighted.factors, plain.factors)
            assert np.array_equal(weighted.counts, plain.counts)

    def test_two_point_weighted_mean_by_hand(self):
        resp = init_responsibilities(np.array([0]), 1, 1)
        resp.query[0, 0] = 1.0
        stats = weighted_class_statistics(
            np.array([[0.0, 0.0], [2.0, 0.0]]), resp, beta=1.0
        )
        assert np.allclose(stats.means[0], [1.0, 0.0])
        assert stats.counts[0] == pytest.approx(2.0)
        # lambda = 2/3 at soft count 2 shows up in the covariance blend
        lam = 2.0 / 3.0
        scatter = np.array([[1.0, 0.0], [0.0, 0.0]])
        expected = lam * scatter + (1 - lam) * scatter + np.eye(2)
        assert np.allclose(stats.covariances[0], expected)

    def test_split_responsibility_contributes_half_to_each(self):
        resp = init_responsibilities(np.array([0, 1]), 1, 2)
        resp.query[0] = [0.5, 0.5]
        feats = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 2.0]])
        stats = weighted_class_statistics(feats, resp, beta=1.0)
        assert np.allclose(stats.counts, [1.5, 1.5])
        assert np.allclose(stats.means[0], (feats[0] + 0.5 * feats[2]) / 1.5)
        assert np.allclose(stats.means[1], (feats[1] + 0.5 * feats[2]) / 1.5)

    def test_soft_count_underflow_raises(self):
        resp = init_responsibilities(np.array([0]), 1, 2)  # class 1 unsupported
        with pytest.raises(EmptyClass) as info:
            weighted_class_statistics(np.zeros((2, 2)), resp, beta=1.0)
        assert info.value.class_index == 1

    def test_non_finite_query_row_raises(self):
        resp = init_responsibilities(np.array([0, 1]), 1, 2)
        feats = np.array([[0.0, 0.0], [4.0, 0.0], [np.nan, 2.0]])
        with pytest.raises(NonFiniteInput):
            weighted_class_statistics(feats, resp, beta=1.0)

    def test_reused_layout_gives_identical_statistics(self):
        rng = Rng(6)
        sup, lab, query = small_task(rng, n_classes=3, shots=3, m_query=5, dims=3)
        feats = np.vstack([sup, query])
        resp = init_responsibilities(lab, query.shape[0], 3)
        resp.query[:] = rng.uniform(15).reshape(5, 3)
        layout = SupportLayout.build(feats[:9], lab, 3)
        fresh = weighted_class_statistics(feats, resp, beta=1.0)
        reused = weighted_class_statistics(feats, resp, beta=1.0, layout=layout)
        for name in ("means", "covariances", "counts", "factors", "inverse_factors", "jitter"):
            assert np.array_equal(getattr(fresh, name), getattr(reused, name))
        for wrong in (SupportLayout.build(sup[:6], lab[:6], 3), SupportLayout.build(sup, lab, 4)):
            with pytest.raises(DimensionMismatch):
                weighted_class_statistics(feats, resp, beta=1.0, layout=wrong)


class TestRefine:
    def test_empty_query_runs_min_steps_with_plain_statistics(self):
        rng = Rng(7)
        for trial in range(30):
            dims = 1 + trial % 5
            sup, lab, _ = small_task(rng, n_classes=2 + trial % 3, shots=1 + trial % 4, dims=dims)
            out = refine(sup, lab, np.empty((0, dims)), RefineConfig(min_steps=2, max_steps=4))
            assert out.iterations_run == 2
            assert out.converged_early
            plain = estimate_class_statistics(sup, lab, beta=1.0)
            assert np.array_equal(out.statistics.means, plain.means)
            assert np.array_equal(out.statistics.covariances, plain.covariances)
            assert np.array_equal(out.statistics.factors, plain.factors)

    @settings(max_examples=60, deadline=None)
    @given(
        n_classes=st.integers(1, 4),
        shots=st.integers(1, 4),
        m_query=st.integers(1, 6),
        dims=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_step_gives_the_simple_head_statistics(
        self, n_classes, shots, m_query, dims, seed
    ):
        # min = max = 1 is one support-only estimation pass, bit for bit
        sup, lab, query = small_task(Rng(seed), n_classes, shots, m_query, dims)
        out = refine(sup, lab, query, RefineConfig(min_steps=1, max_steps=1))
        plain = estimate_class_statistics(sup, lab, beta=1.0)
        assert out.iterations_run == 1
        for name in ("means", "covariances", "counts", "factors", "inverse_factors", "jitter"):
            assert np.array_equal(getattr(out.statistics, name), getattr(plain, name))

    @settings(max_examples=60, deadline=None)
    @given(
        n_classes=st.integers(1, 4),
        shots=st.integers(1, 4),
        m_query=st.integers(0, 6),
        min_steps=st.integers(1, 3),
        extra_steps=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_starting_from_the_support_estimate_changes_no_bit(
        self, n_classes, shots, m_query, min_steps, extra_steps, seed
    ):
        sup, lab, query = small_task(Rng(seed), n_classes, shots, max(m_query, 1), dims=3)
        query = query[:m_query]
        cfg = RefineConfig(min_steps=min_steps, max_steps=min_steps + extra_steps, beta=0.5)
        start = estimate_class_statistics(sup, lab, beta=0.5)
        got = run_refinement(sup, lab, query, cfg, mahalanobis_refresh, start=start)
        want = run_refinement(sup, lab, query, cfg, mahalanobis_refresh)
        assert (got.iterations_run, got.converged_early) == (
            want.iterations_run, want.converged_early
        )
        for name in ("means", "covariances", "counts", "factors", "inverse_factors", "jitter"):
            got_bits, want_bits = getattr(got.statistics, name), getattr(want.statistics, name)
            assert got_bits.tobytes() == want_bits.tobytes()
        assert got.responsibilities.query.tobytes() == want.responsibilities.query.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_labels_are_the_argmax_of_the_final_statistics(self):
        rng = Rng(21)
        for _ in range(10):
            sup, lab, query = small_task(rng, n_classes=3, shots=2, m_query=9)
            out = refine(sup, lab, query, RefineConfig(min_steps=1, max_steps=3))
            probs, labels = classify(query, out.statistics, MetricKind.SQUARED_MAHALANOBIS)
            assert out.labels.tobytes() == labels.tobytes()
            assert out.responsibilities.query.tobytes() == probs.tobytes()

    def test_start_of_another_shape_raises_dimension_mismatch(self):
        sup, lab, query = small_task(Rng(8), n_classes=2, dims=2)
        for classes, dims in ((3, 2), (2, 3)):
            other = estimate_class_statistics(*small_task(Rng(9), classes, dims=dims)[:2])
            with pytest.raises(DimensionMismatch):
                run_refinement(sup, lab, query, RefineConfig(), mahalanobis_refresh, start=other)

    def test_wrong_query_width_raises_dimension_mismatch(self):
        rng = Rng(8)
        sup, lab, _ = small_task(rng, dims=2)
        for query in (np.ones((3, 3)), np.ones((2, 1)), np.ones(2)):
            with pytest.raises(DimensionMismatch):
                refine(sup, lab, query)

    def test_negative_support_label_raises(self):
        # read as an index, -1 would silently become the last class
        rng = Rng(8)
        sup, lab, query = small_task(rng, dims=2)
        lab = lab.copy()
        lab[0] = -1
        with pytest.raises(LabelOutOfRange):
            refine(sup, lab, query)

    def test_empty_support_raises_empty_class(self):
        with pytest.raises(EmptyClass):
            refine(np.empty((0, 2)), np.empty(0, dtype=np.int64), np.ones((3, 2)))

    def test_single_step_equals_plain_classifier(self):
        rng = Rng(9)
        for _ in range(20):
            sup, lab, query = small_task(rng)
            out = refine(sup, lab, query, RefineConfig(min_steps=1, max_steps=1))
            plain_stats = estimate_class_statistics(sup, lab, beta=1.0)
            probs, _ = classify(query, plain_stats, MetricKind.SQUARED_MAHALANOBIS)
            assert np.allclose(out.responsibilities.query, probs, atol=1e-12)
            assert out.iterations_run == 1
            assert not out.converged_early  # no previous refresh to compare

    def test_trajectory_matches_brute_force_loop(self):
        rng = Rng(11)
        for trial in range(25):
            sup, lab, query = small_task(rng, n_classes=2 + trial % 2, shots=2, m_query=5)
            oracle = brute_force_loop(sup, lab, query, beta=1.0, max_steps=4)
            for it in range(1, len(oracle) + 1):
                out = refine(sup, lab, query, RefineConfig(min_steps=it, max_steps=it))
                assert np.allclose(out.responsibilities.query, oracle[it - 1], atol=1e-10)

    def test_break_condition_matches_brute_force(self):
        rng = Rng(13)
        cfg = RefineConfig(min_steps=2, max_steps=6)
        for _ in range(25):
            sup, lab, query = small_task(rng, m_query=6)
            oracle = brute_force_loop(sup, lab, query, beta=1.0, max_steps=6, min_steps=2)
            out = refine(sup, lab, query, cfg)
            assert out.iterations_run == len(oracle)
            assert np.allclose(out.responsibilities.query, oracle[-1], atol=1e-10)

    def test_support_rows_never_change(self):
        rng = Rng(17)
        sup, lab, query = small_task(rng)
        out = refine(sup, lab, query, RefineConfig(min_steps=3, max_steps=5))
        expected = init_responsibilities(lab, 0, int(lab.max()) + 1).support
        assert np.array_equal(out.responsibilities.support, expected)

    def test_step_limits_respected(self):
        rng = Rng(19)
        sup, lab, query = small_task(rng)
        for min_s, max_s in [(1, 1), (2, 4), (3, 3), (2, 10)]:
            out = refine(sup, lab, query, RefineConfig(min_steps=min_s, max_steps=max_s))
            assert min_s <= out.iterations_run <= max_s

    def test_soft_counts_conserve_mass(self):
        rng = Rng(23)
        sup, lab, query = small_task(rng, m_query=7)
        out = refine(sup, lab, query, RefineConfig(min_steps=2, max_steps=4))
        total = out.responsibilities.support.sum() + out.responsibilities.query.sum()
        assert total == pytest.approx(len(sup) + len(query), abs=1e-9)

    def test_deterministic(self):
        rng = Rng(29)
        sup, lab, query = small_task(rng)
        a = refine(sup, lab, query)
        b = refine(sup, lab, query)
        assert np.array_equal(a.responsibilities.query, b.responsibilities.query)
        assert a.iterations_run == b.iterations_run

    def test_misassigned_points_flip_after_refinement(self):
        # 1-shot task whose class-1 support example sits far from the true
        # cluster: four class-1 queries start misassigned and flip once
        # query mass shifts the means; the trajectory stays in lockstep
        # with the brute-force loop
        sup = np.array(
            [
                [0.6099984429734683, 0.34244502204433225],
                [5.054220347680111, 0.2482496111986558],
            ]
        )
        lab = np.array([0, 1], dtype=np.int64)
        query = np.array(
            [
                [-0.2139716207876848, 1.4235933787756667],
                [0.6906240922789958, -0.9236856448380035],
                [0.4014782062676933, -0.0097732653644841],
                [2.4020209562238977, -0.5965440265140831],
                [2.9909594627340104, 0.31918061048874424],
                [2.5131689640451333, -0.11312616346754087],
                [2.8320776515127424, -0.8153287978766094],
                [2.299364769491079, -0.8670420944219769],
            ]
        )
        truth = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        cfg = RefineConfig(min_steps=1, max_steps=8)
        base_stats = estimate_class_statistics(sup, lab, beta=1.0)
        _, before = classify(query, base_stats, MetricKind.SQUARED_MAHALANOBIS)
        out = refine(sup, lab, query, cfg)
        after = out.responsibilities.query.argmax(axis=1)
        oracle = brute_force_loop(sup, lab, query, beta=1.0, max_steps=8)
        assert np.allclose(out.responsibilities.query, oracle[-1], atol=1e-10)
        assert np.array_equal(before, [0, 0, 0, 0, 1, 0, 1, 0])
        assert np.array_equal(after, truth)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            RefineConfig(min_steps=0, max_steps=2)
        with pytest.raises(InvalidConfig):
            RefineConfig(min_steps=3, max_steps=2)
