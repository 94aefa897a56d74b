import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahabench.errors import EmptyClass, LabelOutOfRange, NonFiniteInput
from mahabench.gmm import gmm_log_scores
from mahabench.heads import (
    ClassStatistics,
    MetricKind,
    SupportLayout,
    class_scores,
    estimate_class_statistics,
)
from mahabench.methods import HeadConfig, fit_statistics, predict
from mahabench.refine import RefineConfig
from mahabench.rng import Rng


GMM = HeadConfig(gmm=True)


def gmm_em(steps_min=2, steps_max=4):
    return HeadConfig(gmm=True, refine=RefineConfig(min_steps=steps_min, max_steps=steps_max))


def stats_with(means, covs):
    return ClassStatistics.from_moments(np.asarray(means, float), covs, np.ones(len(means)))


def random_stats(rng, k=3, d=3):
    means = 2.0 * rng.normal((k, d))
    covs = []
    for _ in range(k):
        a = rng.normal((d, d))
        covs.append(a @ a.T + np.eye(d))
    return ClassStatistics.from_moments(means, covs, np.ones(k))


class TestGmmLogScores:
    def test_uniform_prior_equal_covariances_match_mahalanobis_argmax(self):
        rng = Rng(3)
        means = rng.normal((3, 2))
        stats = stats_with(means, [np.eye(2)] * 3)
        queries = rng.normal((50, 2))
        gmm_arg = gmm_log_scores(queries, stats).argmax(axis=1)
        _, maha_arg = predict(HeadConfig(), stats, queries)
        assert np.array_equal(gmm_arg, maha_arg)

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(2, 6),
        d=st.integers(1, 5),
        spread=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_covariances_uniform_prior_rank_like_mahalanobis(self, k, d, spread, seed):
        rng = Rng(seed)
        a = rng.normal((d, d))
        stats = stats_with(spread * rng.normal((k, d)), [a @ a.T + 0.1 * np.eye(d)] * k)
        queries = spread * rng.normal((20, d))
        maha = -class_scores(queries, stats, MetricKind.SQUARED_MAHALANOBIS)
        gmm = gmm_log_scores(queries, stats)
        # classes nearest-first by Mahalanobis distance are best-first by GMM
        order = np.argsort(maha, axis=1, kind="stable")
        assert np.all(np.diff(np.take_along_axis(gmm, order, axis=1), axis=1) <= 0)
        # and the labels agree wherever rounding cannot tie the two best
        top2 = np.sort(maha, axis=1)[:, :2]
        clear = top2[:, 1] - top2[:, 0] > 1e-9 * (1.0 + top2[:, 1])
        assert np.array_equal(gmm.argmax(axis=1)[clear], maha.argmin(axis=1)[clear])

    def test_log_determinant_term_prefers_tight_class(self):
        # equal means, Q2 = 4I in 2-D: scores differ by -0.5 * log|4I|
        stats = stats_with([[0.0, 0.0], [0.0, 0.0]], [np.eye(2), 4.0 * np.eye(2)])
        scores = gmm_log_scores(np.zeros(2), stats)
        assert scores[0] - scores[1] == pytest.approx(0.5 * 2.0 * np.log(4.0))
        assert scores.argmax() == 0

    def test_against_direct_formula(self):
        rng = Rng(5)
        stats = random_stats(rng)
        q = rng.normal(3)
        scores = gmm_log_scores(q, stats)
        for k in range(3):
            cov = stats.covariances[k]
            diff = q - stats.means[k]
            expected = (
                np.log(1.0 / 3.0)
                - 0.5 * diff @ np.linalg.inv(cov) @ diff
                - 0.5 * np.log(np.linalg.det(cov))
            )
            assert scores[k] == pytest.approx(expected, rel=1e-10)

    def test_non_finite_query_raises(self):
        stats = random_stats(Rng(6))
        with pytest.raises(NonFiniteInput):
            predict(GMM, stats, np.array([0.0, np.nan, 0.0]))


class TestGmmClassify:
    def test_identical_classes_give_uniform_probabilities(self):
        stats = stats_with([[1.0, 1.0], [1.0, 1.0]], [np.eye(2), np.eye(2)])
        probs, label = predict(GMM, stats, np.zeros(2))
        assert np.allclose(probs, 0.5)
        assert label == 0

    def test_argmax_matches_mahalanobis_under_homogeneous_geometry(self):
        # shared covariance and uniform prior: the 1/2 temperature changes
        # probabilities but never the argmax
        rng = Rng(7)
        means = 2.0 * rng.normal((4, 3))
        a = rng.normal((3, 3))
        cov = a @ a.T + np.eye(3)
        stats = stats_with(means, [cov] * 4)
        queries = rng.normal((100, 3))
        _, maha = predict(HeadConfig(), stats, queries)
        _, gmm = predict(GMM, stats, queries)
        assert np.array_equal(maha, gmm)

    def test_probabilities_normalize_over_random_draws(self):
        rng = Rng(9)
        for _ in range(1000):
            stats = random_stats(rng, k=2, d=2)
            probs, _ = predict(GMM, stats, rng.normal(2))
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_shift_invariance_of_probabilities(self):
        rng = Rng(11)
        stats = random_stats(rng)
        q = rng.normal(3)
        probs, _ = predict(GMM, stats, q)
        scores = gmm_log_scores(q, stats)
        shifted = np.exp(scores + 50.0 - (scores + 50.0).max())
        assert np.allclose(probs, shifted / shifted.sum(), atol=1e-12)


class TestGmmEmRefine:
    def _task(self, rng):
        sup = np.vstack([rng.normal((2, 2)), 3.0 + rng.normal((2, 2))])
        lab = np.array([0, 0, 1, 1], dtype=np.int64)
        query = np.vstack([rng.normal((3, 2)), 3.0 + rng.normal((3, 2))])
        return sup, lab, query

    @pytest.mark.parametrize("labels, error", [([], EmptyClass), ([0, -1], LabelOutOfRange)])
    def test_bad_support_labels_raise_typed_errors(self, labels, error):
        support = np.zeros((len(labels), 2))
        with pytest.raises(error):
            fit_statistics([gmm_em()], support, np.array(labels, dtype=np.int64), np.ones((3, 2)))

    def test_empty_query_equals_support_only_gmm(self):
        rng = Rng(13)
        sup, lab, _ = self._task(rng)
        out = fit_statistics([gmm_em()], sup, lab, np.empty((0, 2)))[0]
        plain = estimate_class_statistics(SupportLayout.build(sup, lab), beta=1.0)
        assert np.allclose(out.statistics.means, plain.means, atol=1e-12)
        assert np.allclose(out.statistics.covariances, plain.covariances, atol=1e-12)

    def test_single_step_matches_gmm_classify(self):
        rng = Rng(17)
        sup, lab, query = self._task(rng)
        out = fit_statistics([gmm_em(1, 1)], sup, lab, query)[0]
        plain = estimate_class_statistics(SupportLayout.build(sup, lab), beta=1.0)
        probs, _ = predict(GMM, plain, query)
        assert np.allclose(out.query_probs, probs, atol=1e-12)

    def test_loop_matches_brute_force_simulation(self):
        # independent reimplementation of the EM-style loop with GMM
        # responsibilities (log prior - q/2 - logdet/2), plain Python math
        def oracle(sup, lab, query, beta, steps):
            n, d = sup.shape
            m = query.shape[0]
            k_count = int(lab.max()) + 1
            w = np.zeros((n + m, k_count))
            for i, y in enumerate(lab):
                w[i, y] = 1.0
            feats = np.vstack([sup, query])
            prior = np.full(k_count, 1.0 / k_count)
            for _ in range(steps):
                counts = w.sum(axis=0)
                means = (w.T @ feats) / counts[:, None]
                total = counts.sum()
                mu = (w.sum(axis=1) @ feats) / total
                task_scatter = sum(
                    w[j].sum() * np.outer(feats[j] - mu, feats[j] - mu)
                    for j in range(n + m)
                ) / total
                covs = []
                for k in range(k_count):
                    sc = sum(
                        w[j, k] * np.outer(feats[j] - means[k], feats[j] - means[k])
                        for j in range(n + m)
                    ) / counts[k]
                    lam = counts[k] / (counts[k] + 1.0)
                    covs.append(lam * sc + (1 - lam) * task_scatter + beta * np.eye(d))
                for j in range(m):
                    scores = np.array(
                        [
                            np.log(prior[k])
                            - 0.5 * (query[j] - means[k]) @ np.linalg.inv(covs[k]) @ (query[j] - means[k])
                            - 0.5 * np.log(np.linalg.det(covs[k]))
                            for k in range(k_count)
                        ]
                    )
                    e = np.exp(scores - scores.max())
                    w[n + j] = e / e.sum()
            return w[n:]

        rng = Rng(19)
        for _ in range(10):
            sup, lab, query = self._task(rng)
            for steps in (1, 2, 3):
                expected = oracle(sup, lab, query, 1.0, steps)
                out = fit_statistics([gmm_em(steps, steps)], sup, lab, query)[0]
                assert np.allclose(out.query_probs, expected, atol=1e-10)

    def test_priors_held_fixed_across_iterations(self):
        # uniform prior throughout: with symmetric classes the query mass
        # split stays symmetric after refinement
        sup = np.array([[-2.0, 0.0], [2.0, 0.0]])
        lab = np.array([0, 1], dtype=np.int64)
        query = np.array([[-1.5, 0.0], [1.5, 0.0]])
        out = fit_statistics([gmm_em(2, 4)], sup, lab, query)[0]
        assert np.allclose(out.query_probs.sum(axis=0), [1.0, 1.0], atol=1e-9)
