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
from mahabench.heads import SupportLayout, estimate_class_statistics
from mahabench.methods import HeadConfig, fit_statistics, predict
from mahabench.refine import RefineConfig, run_refinement, weighted_class_statistics
from mahabench.rng import Rng


MAHALANOBIS = HeadConfig()
TRANSDUCTIVE = HeadConfig(refine=RefineConfig())
STAT_FIELDS = ("means", "covariances", "counts", "factors", "inverse_factors", "jitter")


def mahalanobis_refresh(stats, x):
    return predict(MAHALANOBIS, stats, x)


def transductive(sup, lab, query, cfg=RefineConfig()):
    """The Mahalanobis head's refinement loop, started from its support-only
    estimate as ``fit_statistics`` starts it."""
    layout = SupportLayout.build(sup, lab)
    start = estimate_class_statistics(layout, beta=1.0)
    return run_refinement(layout, start, query, cfg, mahalanobis_refresh, 1.0)


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
    # the loop's first responsibilities: support rows one-hot, query rows
    # zero, so iteration 1 is the support-only estimate
    def test_one_hot_support_zero_query(self):
        sup, lab, query = small_task(Rng(3), n_classes=2, m_query=2)
        layout = SupportLayout.build(sup, lab)
        start = estimate_class_statistics(layout)
        seen = []
        cfg = RefineConfig(min_steps=1, max_steps=1)
        run_refinement(
            layout, start, query, cfg,
            lambda s, x: seen.append(s) or mahalanobis_refresh(s, x), 1.0,
        )
        zero = weighted_class_statistics(layout, query, np.zeros((2, 2)), 1.0)
        [first] = seen
        for name in STAT_FIELDS:
            assert np.array_equal(getattr(first, name), getattr(zero, name))

    def test_no_query_rows(self):
        out = transductive(np.eye(2), np.array([0, 1]), np.empty((0, 2)))
        assert out.query_probs.shape == (0, 2)
        assert out.labels.shape == (0,)

    def test_single_class(self):
        sup, lab, query = small_task(Rng(4), n_classes=1, shots=3, m_query=2)
        out = transductive(sup, lab, query, RefineConfig(min_steps=2, max_steps=2))
        assert np.array_equal(out.query_probs, np.ones((2, 1)))
        assert np.array_equal(out.statistics.counts, [5.0])


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
            layout = SupportLayout.build(sup, lab)
            weighted = weighted_class_statistics(layout, query, np.zeros((len(query), k)), 1.0)
            plain = estimate_class_statistics(SupportLayout.build(sup, lab), beta=1.0)
            for name in STAT_FIELDS:
                assert np.array_equal(getattr(weighted, name), getattr(plain, name))

    def test_two_point_weighted_mean_by_hand(self):
        layout = SupportLayout.build(np.array([[0.0, 0.0]]), np.array([0]))
        stats = weighted_class_statistics(layout, np.array([[2.0, 0.0]]), np.ones((1, 1)), 1.0)
        assert np.allclose(stats.means[0], [1.0, 0.0])
        assert stats.counts[0] == pytest.approx(2.0)
        # lambda = 2/3 at soft count 2 shows up in the covariance blend
        lam = 2.0 / 3.0
        scatter = np.array([[1.0, 0.0], [0.0, 0.0]])
        expected = lam * scatter + (1 - lam) * scatter + np.eye(2)
        assert np.allclose(stats.covariances[0], expected)

    def test_split_responsibility_contributes_half_to_each(self):
        feats = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 2.0]])
        layout = SupportLayout.build(feats[:2], np.array([0, 1]))
        stats = weighted_class_statistics(layout, feats[2:], np.array([[0.5, 0.5]]), 1.0)
        assert np.allclose(stats.counts, [1.5, 1.5])
        assert np.allclose(stats.means[0], (feats[0] + 0.5 * feats[2]) / 1.5)
        assert np.allclose(stats.means[1], (feats[1] + 0.5 * feats[2]) / 1.5)

    def test_soft_count_underflow_raises(self):
        layout = SupportLayout.build(np.zeros((1, 2)), np.array([1]))  # class 0 unsupported
        with pytest.raises(EmptyClass) as info:
            weighted_class_statistics(layout, np.zeros((1, 2)), np.zeros((1, 2)), 1.0)
        assert info.value.class_index == 0

    def test_non_finite_query_row_raises(self):
        layout = SupportLayout.build(np.array([[0.0, 0.0], [4.0, 0.0]]), np.array([0, 1]))
        with pytest.raises(NonFiniteInput):
            weighted_class_statistics(layout, np.array([[np.nan, 2.0]]), np.zeros((1, 2)), 1.0)

    def test_reused_layout_gives_identical_statistics(self):
        # a layout reused across calls (as every iteration of one task
        # reuses it) gives the bits of a freshly built one
        rng = Rng(6)
        sup, lab, query = small_task(rng, n_classes=3, shots=3, m_query=5, dims=3)
        weights = rng.uniform(15).reshape(5, 3)
        layout = SupportLayout.build(sup, lab)
        weighted_class_statistics(layout, query[::-1], weights[::-1], 0.5)
        reused = weighted_class_statistics(layout, query, weights, 1.0)
        fresh = weighted_class_statistics(SupportLayout.build(sup, lab), query, weights, 1.0)
        for name in STAT_FIELDS:
            assert np.array_equal(getattr(fresh, name), getattr(reused, name))

    def test_weights_of_another_shape_raise_dimension_mismatch(self):
        rng = Rng(7)
        sup, lab, query = small_task(rng, n_classes=3, shots=3, m_query=5, dims=3)
        layout = SupportLayout.build(sup, lab)
        for weights in (np.zeros((4, 3)), np.zeros((5, 4)), np.zeros((5, 2))):
            with pytest.raises(DimensionMismatch):
                weighted_class_statistics(layout, query, weights, 1.0)


class TestRefine:
    def test_empty_query_runs_min_steps_with_plain_statistics(self):
        rng = Rng(7)
        for trial in range(30):
            dims = 1 + trial % 5
            sup, lab, _ = small_task(rng, n_classes=2 + trial % 3, shots=1 + trial % 4, dims=dims)
            cfg = RefineConfig(min_steps=2, max_steps=4)
            out = transductive(sup, lab, np.empty((0, dims)), cfg)
            assert out.iterations_run == 2
            assert out.converged_early
            assert out.query_probs.shape == (0, int(lab.max()) + 1)
            plain = estimate_class_statistics(SupportLayout.build(sup, lab), beta=1.0)
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
        one_step = HeadConfig(refine=RefineConfig(min_steps=1, max_steps=1))
        out = fit_statistics([one_step], sup, lab, query)[0]
        plain = fit_statistics([MAHALANOBIS], sup, lab, query)[0]
        for name in STAT_FIELDS:
            assert np.array_equal(getattr(out.statistics, name), getattr(plain.statistics, name))
        assert out.query_probs.tobytes() == plain.query_probs.tobytes()
        assert out.query_labels.tobytes() == plain.query_labels.tobytes()

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
        # the support-only estimate is the bits the loop's own estimator
        # gives with all-zero query weights, so it can stand in as iteration 1
        sup, lab, query = small_task(Rng(seed), n_classes, shots, max(m_query, 1), dims=3)
        query = query[:m_query]
        cfg = RefineConfig(min_steps=min_steps, max_steps=min_steps + extra_steps)
        layout = SupportLayout.build(sup, lab)
        start = estimate_class_statistics(layout, beta=0.5)
        zero = weighted_class_statistics(layout, query, np.zeros((m_query, n_classes)), 0.5)
        got = run_refinement(layout, start, query, cfg, mahalanobis_refresh, 0.5)
        want = run_refinement(layout, zero, query, cfg, mahalanobis_refresh, 0.5)
        assert (got.iterations_run, got.converged_early) == (
            want.iterations_run, want.converged_early
        )
        for name in STAT_FIELDS:
            got_bits, want_bits = getattr(got.statistics, name), getattr(want.statistics, name)
            assert got_bits.tobytes() == want_bits.tobytes()
        assert got.query_probs.tobytes() == want.query_probs.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_labels_are_the_argmax_of_the_final_statistics(self):
        rng = Rng(21)
        for _ in range(10):
            sup, lab, query = small_task(rng, n_classes=3, shots=2, m_query=9)
            out = transductive(sup, lab, query, RefineConfig(min_steps=1, max_steps=3))
            probs, labels = predict(MAHALANOBIS, out.statistics, query)
            assert out.labels.tobytes() == labels.tobytes()
            assert out.query_probs.tobytes() == probs.tobytes()

    def test_start_of_another_shape_raises_dimension_mismatch(self):
        sup, lab, query = small_task(Rng(8), n_classes=2, dims=2)
        layout = SupportLayout.build(sup, lab)
        for classes, dims in ((3, 2), (2, 3)):
            other = estimate_class_statistics(
                SupportLayout.build(*small_task(Rng(9), classes, dims=dims)[:2])
            )
            with pytest.raises(DimensionMismatch):
                run_refinement(layout, other, query, RefineConfig(), mahalanobis_refresh, 1.0)

    def test_wrong_query_width_raises_dimension_mismatch(self):
        sup, lab, _ = small_task(Rng(8), dims=2)
        for query in (np.ones((3, 3)), np.ones((2, 1)), np.ones(2)):
            with pytest.raises(DimensionMismatch):
                fit_statistics([TRANSDUCTIVE], sup, lab, query)

    def test_negative_support_label_raises(self):
        # read as an index, -1 would silently become the last class
        sup, lab, query = small_task(Rng(8), dims=2)
        lab = lab.copy()
        lab[0] = -1
        with pytest.raises(LabelOutOfRange):
            fit_statistics([TRANSDUCTIVE], sup, lab, query)

    def test_empty_support_raises_empty_class(self):
        with pytest.raises(EmptyClass):
            empty = np.empty(0, dtype=np.int64)
            fit_statistics([TRANSDUCTIVE], np.empty((0, 2)), empty, np.ones((3, 2)))

    def test_single_step_equals_plain_classifier(self):
        rng = Rng(9)
        for _ in range(20):
            sup, lab, query = small_task(rng)
            out = transductive(sup, lab, query, RefineConfig(min_steps=1, max_steps=1))
            plain_stats = estimate_class_statistics(SupportLayout.build(sup, lab), beta=1.0)
            probs, _ = predict(MAHALANOBIS, plain_stats, query)
            assert np.allclose(out.query_probs, probs, atol=1e-12)
            assert out.iterations_run == 1
            assert not out.converged_early  # no previous refresh to compare

    def test_trajectory_matches_brute_force_loop(self):
        rng = Rng(11)
        for trial in range(25):
            sup, lab, query = small_task(rng, n_classes=2 + trial % 2, shots=2, m_query=5)
            oracle = brute_force_loop(sup, lab, query, beta=1.0, max_steps=4)
            for it in range(1, len(oracle) + 1):
                out = transductive(sup, lab, query, RefineConfig(min_steps=it, max_steps=it))
                assert np.allclose(out.query_probs, oracle[it - 1], atol=1e-10)

    def test_break_condition_matches_brute_force(self):
        rng = Rng(13)
        cfg = RefineConfig(min_steps=2, max_steps=6)
        for _ in range(25):
            sup, lab, query = small_task(rng, m_query=6)
            oracle = brute_force_loop(sup, lab, query, beta=1.0, max_steps=6, min_steps=2)
            out = transductive(sup, lab, query, cfg)
            assert out.iterations_run == len(oracle)
            assert np.allclose(out.query_probs, oracle[-1], atol=1e-10)

    def test_support_rows_never_change(self):
        # every support row counts 1 toward its own class at every step: an
        # iteration's counts are the support class sizes plus the query mass
        # of the refresh before it
        sup, lab, query = small_task(Rng(17))
        for it in range(2, 6):
            before = transductive(sup, lab, query, RefineConfig(min_steps=it - 1, max_steps=it - 1))
            out = transductive(sup, lab, query, RefineConfig(min_steps=it, max_steps=it))
            support_counts = out.statistics.counts - before.query_probs.sum(axis=0)
            assert np.allclose(support_counts, np.bincount(lab), atol=1e-12)

    def test_step_limits_respected(self):
        rng = Rng(19)
        sup, lab, query = small_task(rng)
        for min_s, max_s in [(1, 1), (2, 4), (3, 3), (2, 10)]:
            out = transductive(sup, lab, query, RefineConfig(min_steps=min_s, max_steps=max_s))
            assert min_s <= out.iterations_run <= max_s

    def test_soft_counts_conserve_mass(self):
        rng = Rng(23)
        sup, lab, query = small_task(rng, m_query=7)
        out = transductive(sup, lab, query, RefineConfig(min_steps=2, max_steps=4))
        # every support row counts 1 toward its own class, every query row
        # 1 in total: the final statistics came from a full refresh
        assert out.statistics.counts.sum() == pytest.approx(len(sup) + len(query), abs=1e-9)
        assert np.all(out.statistics.counts >= np.bincount(lab))
        assert out.query_probs.sum() == pytest.approx(len(query), abs=1e-9)

    def test_deterministic(self):
        rng = Rng(29)
        sup, lab, query = small_task(rng)
        a = transductive(sup, lab, query)
        b = transductive(sup, lab, query)
        assert np.array_equal(a.query_probs, b.query_probs)
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
        base_stats = estimate_class_statistics(SupportLayout.build(sup, lab), beta=1.0)
        _, before = predict(MAHALANOBIS, base_stats, query)
        out = transductive(sup, lab, query, cfg)
        after = out.query_probs.argmax(axis=1)
        oracle = brute_force_loop(sup, lab, query, beta=1.0, max_steps=8)
        assert np.allclose(out.query_probs, oracle[-1], atol=1e-10)
        assert np.array_equal(before, [0, 0, 0, 0, 1, 0, 1, 0])
        assert np.array_equal(after, truth)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            RefineConfig(min_steps=0, max_steps=2)
        with pytest.raises(InvalidConfig):
            RefineConfig(min_steps=3, max_steps=2)
