import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtrtri

from mahabench import continual
from mahabench.bench import DomainSpec
from mahabench.continual import (
    ClassRecord,
    ContinualState,
    EncodingStrategy,
    HeadMode,
    StreamConfig,
    make_task_encodings,
    merge_class_statistics,
    run_continual_session,
    update_encoding,
)
from mahabench.errors import NotEnoughClasses
from mahabench.heads import SupportLayout, estimate_class_statistics
from mahabench.methods import HeadConfig, predict
from mahabench.rng import Rng
from mahabench.spd import cholesky
from mahabench.worlds import EncodingTransform, make_cluster_world


def record(mean, cov, count):
    return ClassRecord(np.asarray(mean, float), np.asarray(cov, float), float(count))


class TestMergeClassStatistics:
    def test_equal_counts_average(self):
        merged = merge_class_statistics(
            record([0.0, 0.0], np.eye(2), 2),
            record([2.0, 2.0], 3.0 * np.eye(2), 2),
        )
        assert np.allclose(merged.mean, [1.0, 1.0])
        assert np.allclose(merged.covariance, 2.0 * np.eye(2))
        assert merged.count == 4.0

    def test_three_to_one_weights(self):
        merged = merge_class_statistics(
            record([0.0], np.eye(1), 1),
            record([4.0], np.eye(1), 3),
        )
        assert np.allclose(merged.mean, [3.0])  # 0.75 on the new task
        assert merged.count == 4.0

    def test_merging_identical_statistics_is_fixed_point(self):
        rec = record([1.0, -1.0], 2.0 * np.eye(2), 5)
        merged = merge_class_statistics(rec, record([1.0, -1.0], 2.0 * np.eye(2), 5))
        assert np.allclose(merged.mean, rec.mean)
        assert np.allclose(merged.covariance, rec.covariance)
        assert merged.count == 10.0

    def test_merged_covariance_stays_spd(self):
        rng = Rng(3)
        for _ in range(100):
            a = rng.normal((3, 3))
            b = rng.normal((3, 3))
            merged = merge_class_statistics(
                record(rng.normal(3), a @ a.T + np.eye(3), 1 + rng.below(10)),
                record(rng.normal(3), b @ b.T + np.eye(3), 1 + rng.below(10)),
            )
            cholesky(merged.covariance)  # zero jitter must succeed

    def test_record_caches_the_factor_of_its_covariance(self):
        rec = record([0.0, 0.0], [[4.0, 2.0], [2.0, 5.0]], 3)
        assert np.array_equal(rec.factor, cholesky(rec.covariance))
        merged = merge_class_statistics(rec, record([1.0, 1.0], np.eye(2), 1))
        assert np.array_equal(merged.factor, cholesky(merged.covariance))
        for r in (rec, merged):
            assert np.array_equal(r.inverse_factor, dtrtri(r.factor, lower=1)[0])
            assert r.jitter == 0.0

    def test_record_keeps_the_jitter_its_repair_needed(self):
        rec = record([0.0, 0.0], np.ones((2, 2)), 3)  # rank one
        assert rec.jitter == 1e-10
        assert np.array_equal(rec.covariance, np.ones((2, 2)) + 1e-10 * np.eye(2))
        with pytest.raises(ValueError):
            ClassRecord(rec.mean, rec.covariance, 3.0, factor=rec.factor)

    @settings(max_examples=40, deadline=None)
    @given(
        n_records=st.integers(2, 4),
        dims=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merge_order_does_not_matter(self, n_records, dims, seed):
        rng = Rng(seed)
        records = []
        for _ in range(n_records):
            a = rng.normal((dims, dims))
            records.append(record(rng.normal(dims), a @ a.T + np.eye(dims), 1 + rng.below(10)))
        results = []
        for order in itertools.permutations(records):
            merged = order[0]
            for rec in order[1:]:
                merged = merge_class_statistics(merged, rec)
            results.append(merged)
        for other in results[1:]:
            assert other.count == results[0].count
            assert np.allclose(other.mean, results[0].mean, rtol=1e-10, atol=1e-12)
            assert np.allclose(other.covariance, results[0].covariance, rtol=1e-10, atol=1e-12)


class TestUpdateEncoding:
    def _enc(self, value, dims=2):
        return EncodingTransform(
            np.eye(dims) * (1.0 + value), np.full(dims, value), np.full(dims, value)
        )

    def test_first_task_returns_new_encoding_for_all_strategies(self):
        for strategy in EncodingStrategy:
            state = ContinualState(strategy=strategy)
            enc = self._enc(0.5)
            working = update_encoding(state, enc)
            assert working is enc or np.allclose(working.linear, enc.linear)
            assert state.tasks_seen == 1

    def test_moving_tracks_latest(self):
        state = ContinualState(strategy=EncodingStrategy.MOVING)
        update_encoding(state, self._enc(0.1))
        working = update_encoding(state, self._enc(0.9))
        assert np.allclose(working.offset, 0.9)

    def test_first_is_frozen_forever(self):
        state = ContinualState(strategy=EncodingStrategy.FIRST)
        first = self._enc(0.3)
        update_encoding(state, first)
        for v in (0.5, 0.7, 0.9, 1.1):
            working = update_encoding(state, self._enc(v))
        assert np.array_equal(working.linear, first.linear)
        assert np.array_equal(working.offset, first.offset)

    def test_averaging_at_t2_is_elementwise_mean(self):
        state = ContinualState(strategy=EncodingStrategy.AVERAGING)
        a, b = self._enc(0.2), self._enc(0.6)
        update_encoding(state, a)
        working = update_encoding(state, b)
        assert np.allclose(working.linear, (a.linear + b.linear) / 2)
        assert np.allclose(working.offset, (a.offset + b.offset) / 2)
        assert np.allclose(working.encoding_vector, (a.encoding_vector + b.encoding_vector) / 2)

    def test_averaging_matches_running_mean(self):
        state = ContinualState(strategy=EncodingStrategy.AVERAGING)
        values = [0.1, 0.5, 0.9, 0.3]
        working = None
        for v in values:
            working = update_encoding(state, self._enc(v))
        assert np.allclose(working.offset, np.mean(values))

    def test_first_and_averaging_coincide_for_constant_encodings(self):
        enc = self._enc(0.4)
        s_first = ContinualState(strategy=EncodingStrategy.FIRST)
        s_avg = ContinualState(strategy=EncodingStrategy.AVERAGING)
        for _ in range(5):
            w_first = update_encoding(s_first, enc)
            w_avg = update_encoding(s_avg, enc)
        assert np.allclose(w_first.linear, w_avg.linear)
        assert np.allclose(w_first.offset, w_avg.offset)


class TestMakeTaskEncodings:
    def test_zero_drift_gives_identities(self):
        encs = make_task_encodings(3, 4, 0.0, Rng(0))
        for e in encs:
            assert np.array_equal(e.linear, np.eye(3))
            assert np.array_equal(e.offset, np.zeros(3))

    def test_drift_produces_distinct_invertible_transforms(self):
        encs = make_task_encodings(3, 4, 1.0, Rng(1))
        for e in encs:
            assert abs(np.linalg.det(e.linear)) > 1e-9
        assert not np.allclose(encs[0].linear, encs[1].linear)


def small_world(seed=7, classes=10):
    return make_cluster_world(
        4, classes, 4.0, rng_seed=seed, mean_radius=2.5, scale_range=(0.5, 2.0)
    )


class TestRunContinualSession:
    def test_single_task_matrix_matches_plain_accuracy(self):
        world = small_world()
        stream = StreamConfig(num_tasks=1, classes_per_task=3, shot=8, drift=0.0)
        matrix = run_continual_session(
            world, stream, EncodingStrategy.MOVING, HeadMode.MULTI_HEAD, seed=5
        )
        assert matrix.shape == (1, 1)
        assert 0.0 <= matrix[0, 0] <= 1.0
        # replay by hand: same latent draws, identity frame, plain head
        from mahabench.continual import make_task_encodings as _enc
        from mahabench.worlds import draw_class_examples

        rng = Rng(5)
        _ = _enc(world.dims, 1, 0.0, rng)
        sup = np.vstack(draw_class_examples(world, [0, 1, 2], [8] * 3, rng))
        qry = np.vstack(draw_class_examples(world, [0, 1, 2], [10] * 3, rng))
        lab = np.repeat(np.arange(3), 8)
        truth = np.repeat(np.arange(3), 10)
        stats = estimate_class_statistics(SupportLayout.build(sup, lab))
        _, pred = predict(HeadConfig(), stats, qry)
        assert matrix[0, 0] == pytest.approx(np.mean(pred == truth))

    def test_first_encoding_multi_head_has_no_forgetting(self):
        # constant frames and disjoint classes: a finished task's multi-head
        # statistics never change, so its accuracy row is constant
        world = small_world()
        stream = StreamConfig(num_tasks=4, classes_per_task=2, shot=6, drift=0.0)
        matrix = run_continual_session(
            world, stream, EncodingStrategy.FIRST, HeadMode.MULTI_HEAD, seed=3
        )
        for j in range(4):
            col = matrix[j:, j]
            assert np.allclose(col, col[0])

    def test_first_encoding_retains_far_more_than_moving(self):
        # single-head accuracy on task 1 decays for both strategies as
        # distractor classes join, but only the moving frame invalidates
        # the saved statistics themselves
        world = small_world()
        stream = StreamConfig(num_tasks=4, classes_per_task=2, shot=6, drift=1.0)
        first_final, moving_final = [], []
        for seed in range(8):
            m_first = run_continual_session(
                world, stream, EncodingStrategy.FIRST, HeadMode.SINGLE_HEAD, seed=seed
            )
            m_moving = run_continual_session(
                world, stream, EncodingStrategy.MOVING, HeadMode.SINGLE_HEAD, seed=seed
            )
            first_final.append(m_first[3, 0])
            moving_final.append(m_moving[3, 0])
        assert np.mean(first_final) > np.mean(moving_final) + 0.2

    def test_moving_encoding_forgets_under_drift(self):
        world = small_world()
        stream = StreamConfig(num_tasks=5, classes_per_task=2, shot=10, drift=1.0)
        drops = []
        for seed in range(10):
            matrix = run_continual_session(
                world, stream, EncodingStrategy.MOVING, HeadMode.SINGLE_HEAD, seed=seed
            )
            drops.append(matrix[0, 0] - matrix[4, 0])
        assert np.mean(drops) > 0.2

    def test_count_bookkeeping(self):
        world = small_world()
        stream = StreamConfig(num_tasks=3, classes_per_task=2, shot=7, drift=0.5)
        groups = [[0, 1], [2, 3], [0, 1]]  # classes 0/1 appear twice
        from mahabench.continual import ContinualState  # state is internal; replay

        # run with explicit groups and verify via merged counts re-derivation
        matrix = run_continual_session(
            world, stream, EncodingStrategy.FIRST, HeadMode.MULTI_HEAD,
            seed=1, class_groups=groups,
        )
        assert matrix.shape == (3, 3)
        # overlapping groups merge: task 3 re-estimates classes 0/1, so its
        # row-0 entry reflects merged statistics (smoke: still in range)
        assert np.all(matrix[np.tril_indices(3)] >= 0.0)

    @pytest.mark.parametrize("mode", list(HeadMode))
    def test_cached_stacks_match_restacking_every_evaluation(self, mode, monkeypatch):
        # later tasks revisit earlier classes, so their merges must drop the
        # stacks that earlier tasks' evaluations cached
        world = small_world()
        stream = StreamConfig(num_tasks=5, classes_per_task=2, shot=2, drift=0.3)
        groups = [[0, 1], [1, 2], [0, 2], [3, 0], [1, 3]]
        cached = [
            run_continual_session(world, stream, EncodingStrategy.FIRST, mode, seed=seed,
                                  class_groups=groups)
            for seed in range(3)
        ]
        monkeypatch.setattr(
            continual, "_cached_stack",
            lambda stacks, records, ids: continual._stats_from_records([records[c] for c in ids]),
        )
        for seed, matrix in enumerate(cached):
            restacked = run_continual_session(
                world, stream, EncodingStrategy.FIRST, mode, seed=seed, class_groups=groups
            )
            assert np.array_equal(matrix, restacked, equal_nan=True)

    @pytest.mark.parametrize("mode", list(HeadMode))
    def test_disjoint_groups_stack_once_per_task(self, mode, monkeypatch):
        calls = []
        stack = continual._stats_from_records
        monkeypatch.setattr(
            continual, "_stats_from_records", lambda records: calls.append(1) or stack(records)
        )
        stream = StreamConfig(num_tasks=4, classes_per_task=2, shot=3)
        run_continual_session(small_world(), stream, EncodingStrategy.MOVING, mode, seed=0)
        assert len(calls) == 4

    def test_not_enough_classes(self):
        world = small_world(classes=4)
        stream = StreamConfig(num_tasks=3, classes_per_task=2, shot=5)
        with pytest.raises(NotEnoughClasses):
            run_continual_session(
                world, stream, EncodingStrategy.FIRST, HeadMode.MULTI_HEAD, seed=0
            )

    def test_multi_head_at_least_single_head_on_average(self):
        world = small_world()
        stream = StreamConfig(num_tasks=4, classes_per_task=2, shot=8, drift=0.5)
        multi, single = [], []
        for seed in range(8):
            m = run_continual_session(
                world, stream, EncodingStrategy.AVERAGING, HeadMode.MULTI_HEAD, seed=seed
            )
            s = run_continual_session(
                world, stream, EncodingStrategy.AVERAGING, HeadMode.SINGLE_HEAD, seed=seed
            )
            multi.append(np.nanmean(m))
            single.append(np.nanmean(s))
        assert np.mean(multi) >= np.mean(single)

    def test_transductive_head_runs(self):
        from mahabench.refine import RefineConfig

        world = small_world()
        stream = StreamConfig(num_tasks=2, classes_per_task=2, shot=4, drift=0.3)
        head = HeadConfig(refine=RefineConfig(min_steps=2, max_steps=4))
        matrix = run_continual_session(
            world, stream, EncodingStrategy.AVERAGING, HeadMode.SINGLE_HEAD,
            head, seed=2,
        )
        assert matrix.shape == (2, 2)
        assert not np.isnan(matrix[1, 1])
