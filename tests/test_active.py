from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahabench import active, cli
from mahabench.active import (
    AcquisitionStrategy,
    ActiveSession,
    acquisition_scores,
    build_active_session,
    run_active_session,
    select_next,
)
from mahabench.bench import DomainSpec
from mahabench.errors import DimensionMismatch, InvalidConfig, PoolExhausted, StrategyHasNoScore
from mahabench.heads import MetricKind, SupportLayout, estimate_class_statistics
from mahabench.methods import HeadConfig, fit_statistics, predict
from mahabench.refine import RefineConfig
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


def open_rows(probs, acquired):
    """``select_next``'s arguments for a pool: its unacquired rows and their
    indices."""
    open_idx = np.flatnonzero(~np.asarray(acquired, dtype=bool))
    return np.asarray(probs)[open_idx], open_idx


class TestSelectNext:
    def test_argmax_selection(self):
        probs = np.array([[0.95, 0.05], [0.7, 0.3]])
        assert select_next(*open_rows(probs, [False, False]), ENTROPY, Rng(0)) == 1

    def test_tie_breaks_to_lowest_index(self):
        probs = np.array([[0.7, 0.3], [0.7, 0.3]])
        assert select_next(*open_rows(probs, [False, False]), ENTROPY, Rng(0)) == 0

    def test_acquired_indices_skipped(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1], [0.8, 0.2]])
        assert select_next(*open_rows(probs, [True, False, False]), ENTROPY, Rng(0)) == 2

    def test_random_reproducible(self):
        probs = np.full((6, 2), 0.5)
        picks_a = [select_next(*open_rows(probs, np.zeros(6, bool)), RANDOM, Rng(4))
                   for _ in range(5)]
        picks_b = [select_next(*open_rows(probs, np.zeros(6, bool)), RANDOM, Rng(4))
                   for _ in range(5)]
        assert picks_a == picks_b

    def test_pool_exhausted(self):
        with pytest.raises(PoolExhausted):
            select_next(*open_rows(np.full((2, 2), 0.5), [True, True]), ENTROPY, Rng(0))

    def test_mask_must_cover_the_pool(self):
        # the indices must name one pool example per probability row
        with pytest.raises(DimensionMismatch):
            select_next(np.full((3, 2), 0.5), np.arange(2), ENTROPY, Rng(0))


def toy_session(budget=3, seed=0):
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
        seed=seed,
    )


def reference_session(session, strategy, head):
    """One (session, strategy) pair run on its own, one unbatched fit per
    step: the loop ``run_active_session`` ran before it stepped a block of
    sessions and strategies in lockstep.  Returns the curve and the
    acquired indices."""
    rng = Rng(session.seed)
    acquired = []
    pool_size = session.pool_x.shape[0]
    taken = np.zeros(pool_size, dtype=bool)
    curve = np.empty(session.budget + 1)
    for t in range(session.budget + 1):
        open_idx = np.flatnonzero(~taken)
        labeled_x = np.vstack([session.seed_x, session.pool_x[acquired]])
        labeled_y = np.concatenate([session.seed_y, session.pool_y[acquired]]).astype(np.int64)
        [fit] = fit_statistics([head], labeled_x, labeled_y, session.pool_x[open_idx])
        _, test_pred = predict(head, fit.statistics, session.test_x)
        curve[t] = float(np.mean(test_pred == session.test_y))
        if t == session.budget:
            break
        choice = select_next(fit.query_probs, open_idx, strategy, rng)
        acquired.append(choice)
        taken[choice] = True
    return curve, acquired


def run_recording(sessions, strategies, head):
    """``run_active_session``'s curves, and the ``(sessions, strategies,
    budget)`` pool indices it acquired, in acquisition order, read off its
    ``select_next`` calls: one per fit per step, in fit order."""
    picks = []

    def recording(*args):
        picks.append(select_next(*args))
        return picks[-1]

    with mock.patch.object(active, "select_next", recording):
        curves = run_active_session(sessions, strategies, head)
    fits = curves.shape[0] * curves.shape[1]
    acquired = np.array(picks, dtype=np.intp).reshape(-1, fits).T  # (fits, budget)
    return curves, acquired.reshape(*curves.shape[:2], -1)


class TestRunActiveSession:
    def test_budget_zero_single_point_curve(self):
        curves = run_active_session([toy_session(budget=0)], [ENTROPY], HeadConfig())
        assert curves.shape == (1, 1, 1)

    def test_perfectly_separable_curve_stays_at_ceiling(self):
        curves = run_active_session([toy_session(budget=5)], [ENTROPY], HeadConfig())
        assert np.allclose(curves, 1.0)

    def test_curve_length_and_range(self):
        sessions = [toy_session(budget=4, seed=s) for s in range(2)]
        curves = run_active_session(sessions, list(AcquisitionStrategy), HeadConfig())
        assert curves.shape == (2, 3, 5)
        assert np.all((curves >= 0.0) & (curves <= 1.0))

    def test_acquired_set_grows_without_repeats(self):
        _, acquired = run_recording([toy_session(budget=6, seed=3)], [RANDOM], HeadConfig())
        assert acquired.shape == (1, 1, 6)
        assert len(set(acquired[0, 0].tolist())) == 6

    def test_session_trace_matches_brute_force(self):
        # independent replay of the simple-head session: refit, classify,
        # score by entropy, acquire the argmax among unacquired
        session = toy_session(budget=5)
        head = HeadConfig(metric=MetricKind.SQUARED_MAHALANOBIS)
        curves, acquired = run_recording([session], [ENTROPY], head)

        taken = []
        expected_curve = []
        for t in range(session.budget + 1):
            lx = np.vstack([session.seed_x, session.pool_x[taken]])
            ly = np.concatenate([session.seed_y, session.pool_y[taken]]).astype(np.int64)
            stats = estimate_class_statistics(SupportLayout.build(lx, ly), beta=1.0)
            _, pred = predict(head, stats, session.test_x)
            expected_curve.append(np.mean(pred == session.test_y))
            if t == session.budget:
                break
            best, best_score = None, -np.inf
            for i in range(session.pool_x.shape[0]):
                if i in taken:
                    continue
                probs, _ = predict(head, stats, session.pool_x[i])
                ent = -np.sum(np.where(probs > 0, probs * np.log(probs), 0.0))
                if ent > best_score:
                    best, best_score = i, ent
            taken.append(best)
        assert np.allclose(curves[0, 0], expected_curve)
        assert acquired[0, 0].tolist() == taken

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
            toy_session(budget=11)

    def test_a_block_must_share_its_shapes_and_budget(self):
        other = toy_session(budget=3)
        short = replace(other, pool_x=other.pool_x[:8], pool_y=other.pool_y[:8])
        with pytest.raises(DimensionMismatch):
            run_active_session([other, short], [ENTROPY], HeadConfig())
        with pytest.raises(InvalidConfig):
            run_active_session([other, toy_session(budget=2)], [ENTROPY], HeadConfig())
        with pytest.raises(InvalidConfig):
            run_active_session([other], [], HeadConfig())


HEADS = {
    "simple": HeadConfig(),
    "transductive": HeadConfig(refine=RefineConfig()),
    "gmm-em": HeadConfig(metric=MetricKind.GMM_LOG_POSTERIOR, refine=RefineConfig()),
}


@settings(max_examples=30, deadline=None)
@given(
    head=st.sampled_from(sorted(HEADS)),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    order=st.permutations(list(AcquisitionStrategy)),
    strategy_count=st.integers(1, 3),
    world_seed=st.integers(0, 50),
    budget_frac=st.floats(0.0, 1.0),
)
def test_lockstep_block_matches_each_session_run_alone(head, seeds, order, strategy_count,
                                                       world_seed, budget_frac):
    # a block of sessions under several strategies gives, for each pair, the
    # curve and the acquisitions of that pair run on its own, bit for bit
    world = DomainSpec("world", dims=3, class_count=4, mean_radius=1.5).build(world_seed)
    pool_size = 4 * 3
    budget = round(budget_frac * pool_size)  # 0 up to the whole pool
    sessions = [build_active_session(world, 3, 2, budget, seed) for seed in seeds]
    strategies = order[:strategy_count]
    curves, acquired = run_recording(sessions, strategies, HEADS[head])
    for s, session in enumerate(sessions):
        for a, strategy in enumerate(strategies):
            curve, picks = reference_session(session, strategy, HEADS[head])
            assert curves[s, a].tobytes() == curve.tobytes()
            assert acquired[s, a].tolist() == picks


ACTIVE_ARGV = ["active", "--sessions", "5", "--budget", "6", "--classes", "5",
               "--mean-radius", "1.5", "--pool-per-class", "3", "--test-per-class", "4",
               "--method", "transductive", "--strategy", "variation-ratios,random,entropy"]


def test_active_bytes_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch):
    digests = set()
    for size in (1, 2, 3, 5, 7):
        monkeypatch.setattr(cli, "LOCKSTEP_BLOCK", size)
        out = tmp_path / f"block-{size}.csv"
        assert cli.cli_main([*ACTIVE_ARGV, "--out", str(out)]) == 0
        digests.add((out.read_bytes(), capsys.readouterr().out))
    assert len(digests) == 1
