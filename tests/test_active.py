import numpy as np
import pytest

from mahabench.active import (
    AcquisitionStrategy,
    ActiveSession,
    acquisition_scores,
    run_active_session,
    select_next,
)
from mahabench.errors import DimensionMismatch, InvalidConfig, PoolExhausted, StrategyHasNoScore
from mahabench.heads import MetricKind, classify, estimate_class_statistics
from mahabench.methods import HeadConfig
from mahabench.rng import Rng

ENTROPY = AcquisitionStrategy.PREDICTIVE_ENTROPY
VARIATION = AcquisitionStrategy.VARIATION_RATIOS
RANDOM = AcquisitionStrategy.RANDOM


class TestAcquisitionScores:
    def test_uniform_row(self):
        scores = acquisition_scores(np.array([[0.5, 0.5]]), ENTROPY)
        assert scores[0] == pytest.approx(np.log(2.0))
        assert acquisition_scores(np.array([[0.5, 0.5]]), VARIATION)[0] == pytest.approx(0.5)

    def test_degenerate_certainty(self):
        row = np.array([[1.0, 0.0]])
        assert acquisition_scores(row, ENTROPY)[0] == 0.0
        assert acquisition_scores(row, VARIATION)[0] == 0.0

    def test_less_confident_row_scores_higher(self):
        rows = np.array([[0.9, 0.1], [0.6, 0.4]])
        ent = acquisition_scores(rows, ENTROPY)
        var = acquisition_scores(rows, VARIATION)
        assert ent[0] == pytest.approx(0.3251, abs=1e-4)
        assert ent[1] == pytest.approx(0.6730, abs=1e-4)
        assert np.allclose(var, [0.1, 0.4])
        assert ent[1] > ent[0] and var[1] > var[0]

    def test_random_has_no_score(self):
        with pytest.raises(StrategyHasNoScore):
            acquisition_scores(np.array([[0.5, 0.5]]), RANDOM)


class TestSelectNext:
    def test_argmax_selection(self):
        probs = np.array([[0.95, 0.05], [0.7, 0.3]])
        assert select_next(probs, ENTROPY, [False, False], Rng(0)) == 1

    def test_tie_breaks_to_lowest_index(self):
        probs = np.array([[0.7, 0.3], [0.7, 0.3]])
        assert select_next(probs, ENTROPY, [False, False], Rng(0)) == 0

    def test_acquired_indices_skipped(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1], [0.8, 0.2]])
        assert select_next(probs, ENTROPY, [True, False, False], Rng(0)) == 2

    def test_random_reproducible(self):
        probs = np.full((6, 2), 0.5)
        picks_a = [select_next(probs, RANDOM, np.zeros(6, bool), Rng(4)) for _ in range(5)]
        picks_b = [select_next(probs, RANDOM, np.zeros(6, bool), Rng(4)) for _ in range(5)]
        assert picks_a == picks_b

    def test_pool_exhausted(self):
        with pytest.raises(PoolExhausted):
            select_next(np.full((2, 2), 0.5), ENTROPY, [True, True], Rng(0))

    def test_mask_must_cover_the_pool(self):
        with pytest.raises(DimensionMismatch):
            select_next(np.full((3, 2), 0.5), ENTROPY, [False, False], Rng(0))


def toy_session(strategy, budget=3, seed=0):
    # two tight, well-separated clusters; pool equals the test set
    rng = Rng(9)
    c0, c1 = np.array([0.0, 0.0]), np.array([8.0, 0.0])
    pool_x = np.vstack([c0 + 0.1 * rng.normal((5, 2)), c1 + 0.1 * rng.normal((5, 2))])
    pool_y = np.array([0] * 5 + [1] * 5, dtype=np.int64)
    return ActiveSession(
        pool_x=pool_x,
        pool_y=pool_y,
        seed_x=np.vstack([c0, c1]),
        seed_y=np.array([0, 1], dtype=np.int64),
        test_x=pool_x.copy(),
        test_y=pool_y.copy(),
        budget=budget,
        strategy=strategy,
        seed=seed,
    )


class TestRunActiveSession:
    def test_budget_zero_single_point_curve(self):
        session = toy_session(ENTROPY, budget=0)
        curve = run_active_session(session, HeadConfig())
        assert curve.shape == (1,)

    def test_perfectly_separable_curve_stays_at_ceiling(self):
        session = toy_session(ENTROPY, budget=5)
        curve = run_active_session(session, HeadConfig())
        assert np.allclose(curve, 1.0)

    def test_curve_length_and_range(self):
        for strategy in AcquisitionStrategy:
            session = toy_session(strategy, budget=4)
            curve = run_active_session(session, HeadConfig())
            assert curve.shape == (5,)
            assert np.all((curve >= 0.0) & (curve <= 1.0))

    def test_acquired_set_grows_without_repeats(self):
        session = toy_session(RANDOM, budget=6, seed=3)
        _, acquired = run_active_session(session, HeadConfig(), return_acquired=True)
        assert len(acquired) == 6
        assert len(set(acquired)) == 6

    def test_session_trace_matches_brute_force(self):
        # independent replay of the simple-head session: refit, classify,
        # score by entropy, acquire the argmax among unacquired
        session = toy_session(ENTROPY, budget=5)
        head = HeadConfig(metric=MetricKind.SQUARED_MAHALANOBIS)
        curve, acquired = run_active_session(session, head, return_acquired=True)

        taken = []
        expected_curve = []
        for t in range(session.budget + 1):
            lx = np.vstack([session.seed_x, session.pool_x[taken]])
            ly = np.concatenate([session.seed_y, session.pool_y[taken]]).astype(np.int64)
            stats = estimate_class_statistics(lx, ly, beta=1.0)
            _, pred = classify(session.test_x, stats, MetricKind.SQUARED_MAHALANOBIS)
            expected_curve.append(np.mean(pred == session.test_y))
            if t == session.budget:
                break
            best, best_score = None, -np.inf
            for i in range(session.pool_x.shape[0]):
                if i in taken:
                    continue
                probs, _ = classify(session.pool_x[i], stats, MetricKind.SQUARED_MAHALANOBIS)
                ent = -np.sum(np.where(probs > 0, probs * np.log(probs), 0.0))
                if ent > best_score:
                    best, best_score = i, ent
            taken.append(best)
        assert np.allclose(curve, expected_curve)
        assert acquired == taken

    def test_entropy_and_variation_agree_on_two_classes(self):
        # both scores are monotone in the max probability when K = 2
        rng = Rng(33)
        probs = rng.uniform(40).reshape(-1, 1)
        rows = np.hstack([probs, 1.0 - probs])
        ent_order = np.argsort(-acquisition_scores(rows, ENTROPY), kind="stable")
        var_order = np.argsort(-acquisition_scores(rows, VARIATION), kind="stable")
        assert np.array_equal(ent_order, var_order)

    def test_budget_validation(self):
        with pytest.raises(InvalidConfig):
            toy_session(RANDOM, budget=11)
