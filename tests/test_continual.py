import hashlib
import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtrtri

from mahabench import cli, continual, parallel, worlds
from mahabench.continual import (
    EncodingStrategy,
    HeadMode,
    StreamConfig,
    make_task_encodings,
    merge_class_statistics,
    run_continual_session,
    update_encoding,
)
from mahabench.errors import DimensionMismatch, EmptyClass, InvalidConfig, NotEnoughClasses
from mahabench.heads import ClassStatistics, SupportLayout, estimate_class_statistics
from mahabench.methods import HeadConfig, fit_statistics, predict, predict_labels, scores
from mahabench.refine import RefineConfig
from mahabench.rng import Rng
from mahabench.spd import cholesky, ensure_pd
from mahabench.worlds import draw_class_examples, make_cluster_world


def stack(means, covs, counts):
    """A K-row stack of class statistics from its moments."""
    return ClassStatistics.from_moments(np.asarray(means, float), np.asarray(covs, float),
                                        np.asarray(counts, float))


def random_stack(rng, k, dims):
    covs = []
    for _ in range(k):
        a = rng.normal((dims, dims))
        covs.append(a @ a.T + np.eye(dims))
    return stack(rng.normal((k, dims)), covs, [1 + rng.below(10) for _ in range(k)])


class TestMergeClassStatistics:
    def test_equal_counts_average(self):
        merged = merge_class_statistics(
            stack([[0.0, 0.0], [1.0, 0.0]], [np.eye(2), np.eye(2)], [2, 5]),
            stack([[2.0, 2.0], [1.0, 4.0]], [3.0 * np.eye(2), 5.0 * np.eye(2)], [2, 5]),
        )
        assert np.allclose(merged.means, [[1.0, 1.0], [1.0, 2.0]])
        assert np.allclose(merged.covariances, [2.0 * np.eye(2), 3.0 * np.eye(2)])
        assert np.array_equal(merged.counts, [4.0, 10.0])

    def test_three_to_one_weights(self):
        merged = merge_class_statistics(
            stack([[0.0], [4.0]], [np.eye(1), np.eye(1)], [1, 3]),
            stack([[4.0], [0.0]], [np.eye(1), np.eye(1)], [3, 1]),
        )
        assert np.allclose(merged.means, [[3.0], [3.0]])  # 0.75 on the heavier side
        assert np.array_equal(merged.counts, [4.0, 4.0])

    def test_merging_identical_statistics_is_fixed_point(self):
        old = random_stack(Rng(2), 3, 2)
        merged = merge_class_statistics(old, old)
        assert np.allclose(merged.means, old.means)
        assert np.allclose(merged.covariances, old.covariances)
        assert np.array_equal(merged.counts, 2.0 * old.counts)

    def test_merged_covariance_stays_spd(self):
        rng = Rng(3)
        for _ in range(100):
            merged = merge_class_statistics(random_stack(rng, 3, 3), random_stack(rng, 3, 3))
            assert np.array_equal(merged.jitter, np.zeros(3))
            for q in merged.covariances:
                cholesky(q)  # zero jitter must succeed

    def test_each_row_merges_bit_for_bit_as_one_class(self):
        # reference: one class at a time, with scalar weights, as a per-class
        # merge computes it
        rng = Rng(5)
        old, new = random_stack(rng, 4, 3), random_stack(rng, 4, 3)
        merged = merge_class_statistics(old, new)
        for k in range(4):
            total = float(old.counts[k]) + float(new.counts[k])
            w_new, w_old = float(new.counts[k]) / total, float(old.counts[k]) / total
            mean = w_new * new.means[k] + w_old * old.means[k]
            cov, _, jitter = ensure_pd(w_new * new.covariances[k] + w_old * old.covariances[k])
            assert jitter == 0.0
            assert merged.counts[k] == total
            assert np.array_equal(merged.means[k], mean)
            assert np.array_equal(merged.covariances[k], cov)
            assert merged.factors[k].tobytes() == np.linalg.cholesky(cov).tobytes()

    def test_merge_caches_the_factors_of_its_covariances(self):
        merged = merge_class_statistics(
            stack([[0.0, 0.0], [1.0, 2.0]], [[[4.0, 2.0], [2.0, 5.0]], np.eye(2)], [3, 1]),
            stack([[1.0, 1.0], [0.0, 0.0]], [np.eye(2), [[2.0, -1.0], [-1.0, 3.0]]], [1, 2]),
        )
        for cov, factor, inverse in zip(merged.covariances, merged.factors,
                                        merged.inverse_factors):
            assert factor.tobytes() == np.linalg.cholesky(cov).tobytes()
            assert np.array_equal(inverse, dtrtri(factor, lower=1)[0])

    def test_merge_repairs_a_rank_one_covariance(self):
        # the merge reads only the moments: rank-one inputs, never factored
        unfactored = np.zeros((2, 2, 2))
        flat = ClassStatistics(np.zeros((2, 2)), np.stack([np.ones((2, 2)), np.eye(2)]),
                               np.array([3.0, 3.0]), unfactored, unfactored, np.zeros(2))
        merged = merge_class_statistics(flat, flat)
        assert np.array_equal(merged.jitter, [1e-10, 0.0])
        assert np.array_equal(merged.covariances[0], np.ones((2, 2)) + 1e-10 * np.eye(2))

    def test_merge_rejects_unequal_stacks_and_empty_rows(self):
        rng = Rng(4)
        with pytest.raises(DimensionMismatch):
            merge_class_statistics(random_stack(rng, 2, 2), random_stack(rng, 3, 2))
        with pytest.raises(DimensionMismatch):
            merge_class_statistics(random_stack(rng, 2, 2), random_stack(rng, 2, 3))
        old = random_stack(rng, 2, 2)
        empty = ClassStatistics(old.means, old.covariances, np.array([1.0, 0.0]),
                                old.factors, old.inverse_factors, old.jitter)
        with pytest.raises(EmptyClass) as raised:
            merge_class_statistics(old, empty)
        assert raised.value.class_index == 1

    @settings(max_examples=40, deadline=None)
    @given(
        n_stacks=st.integers(2, 4),
        k=st.integers(1, 3),
        dims=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merge_order_does_not_matter(self, n_stacks, k, dims, seed):
        rng = Rng(seed)
        stacks = [random_stack(rng, k, dims) for _ in range(n_stacks)]
        results = []
        for order in itertools.permutations(stacks):
            merged = order[0]
            for other in order[1:]:
                merged = merge_class_statistics(merged, other)
            results.append(merged)
        for other in results[1:]:
            assert np.array_equal(other.counts, results[0].counts)
            assert np.allclose(other.means, results[0].means, rtol=1e-10, atol=1e-12)
            assert np.allclose(other.covariances, results[0].covariances,
                               rtol=1e-10, atol=1e-12)


def apply(frame, x):
    """Feature rows ``x`` in the frame ``(A, b)``."""
    linear, offset = frame
    return x @ linear.T + offset


def working_frames(strategy, encodings):
    """The working frames after each of ``encodings``, in order."""
    frames, working = [], None
    for step, new in enumerate(encodings):
        working = update_encoding(strategy, step, new, working)
        frames.append(working)
    return frames


class TestUpdateEncoding:
    def _enc(self, value, dims=2):
        return np.eye(dims) * (1.0 + value), np.full(dims, value)

    def test_first_task_returns_new_encoding_for_all_strategies(self):
        for strategy in EncodingStrategy:
            enc = self._enc(0.5)
            linear, offset = update_encoding(strategy, 0, enc, None)
            assert np.array_equal(linear, enc[0]) and np.array_equal(offset, enc[1])

    def test_moving_tracks_latest(self):
        working = working_frames(EncodingStrategy.MOVING, [self._enc(0.1), self._enc(0.9)])[-1]
        assert np.allclose(working[1], 0.9)

    def test_first_is_frozen_forever(self):
        first = self._enc(0.3)
        encodings = [first, *(self._enc(v) for v in (0.5, 0.7, 0.9, 1.1))]
        linear, offset = working_frames(EncodingStrategy.FIRST, encodings)[-1]
        assert np.array_equal(linear, first[0])
        assert np.array_equal(offset, first[1])

    def test_averaging_at_t2_is_elementwise_mean(self):
        a, b = self._enc(0.2), self._enc(0.6)
        linear, offset = working_frames(EncodingStrategy.AVERAGING, [a, b])[-1]
        assert np.allclose(linear, (a[0] + b[0]) / 2)
        assert np.allclose(offset, (a[1] + b[1]) / 2)

    def test_averaging_matches_running_mean(self):
        values = [0.1, 0.5, 0.9, 0.3]
        working = working_frames(EncodingStrategy.AVERAGING, [self._enc(v) for v in values])[-1]
        assert np.allclose(working[1], np.mean(values))

    def test_first_and_averaging_coincide_for_constant_encodings(self):
        encodings = [self._enc(0.4)] * 5
        w_first = working_frames(EncodingStrategy.FIRST, encodings)[-1]
        w_avg = working_frames(EncodingStrategy.AVERAGING, encodings)[-1]
        assert np.allclose(w_first[0], w_avg[0])
        assert np.allclose(w_first[1], w_avg[1])

    @pytest.mark.parametrize("strategy", list(EncodingStrategy))
    def test_a_stacked_call_gives_each_stream_the_bits_of_its_own(self, strategy):
        # the frames of 4 streams over 5 tasks, stepped as one (4, d, d) stack
        linear, offset = make_task_encodings(3, 5, 1.5, Rng(np.arange(4, dtype=np.uint64)))
        stacked = working_frames(strategy, [(linear[:, t], offset[:, t]) for t in range(5)])
        for s in range(4):
            alone = working_frames(strategy, [(linear[s, t], offset[s, t]) for t in range(5)])
            for (a, b), (a_s, b_s) in zip(stacked, alone):
                assert a[s].tobytes() == a_s.tobytes() and b[s].tobytes() == b_s.tobytes()

    def test_a_singular_averaged_frame_is_a_config_error(self):
        # A and -A average to the zero map, though each is invertible
        a = np.array([[2.0, 1.0], [0.5, 3.0]])
        with pytest.raises(InvalidConfig, match="singular"):
            update_encoding(EncodingStrategy.AVERAGING, 1, (-a, np.zeros(2)), (a, np.zeros(2)))
        # one stream of a block with a singular average fails the whole step
        old, new = np.stack([np.eye(2), a]), np.stack([np.eye(2), -a])
        with pytest.raises(InvalidConfig, match="singular"):
            update_encoding(EncodingStrategy.AVERAGING, 1, (new, np.zeros((2, 2))),
                            (old, np.zeros((2, 2))))


class TestMakeTaskEncodings:
    def test_zero_drift_gives_identities(self):
        linear, offset = make_task_encodings(3, 4, 0.0, Rng(0))
        assert np.array_equal(linear, np.broadcast_to(np.eye(3), (4, 3, 3)))
        assert np.array_equal(offset, np.zeros((4, 3)))

    def test_drift_produces_distinct_invertible_transforms(self):
        linear, offset = make_task_encodings(3, 4, 1.0, Rng(1))
        assert linear.shape == (4, 3, 3) and offset.shape == (4, 3)
        assert np.all(np.abs(np.linalg.det(linear)) > 1e-9)
        assert not np.allclose(linear[0], linear[1])


def small_world(seed=7, classes=10):
    return make_cluster_world(
        4, classes, 4.0, rng_seed=seed, mean_radius=2.5, scale_range=(0.5, 2.0)
    )


def stack_rows(rows):
    """One stack of the given one-class stacks, in order."""
    return ClassStatistics(*(np.concatenate([getattr(r, f.name) for r in rows])
                             for f in fields(ClassStatistics)))


def reference_matrix(world, stream, strategy, mode, head, seed, groups):
    """One (strategy, mode) accuracy matrix, evaluated cell by cell.

    Each cell (t, j) scores task j's queries on their own: multi-head
    against the statistics of group j's classes in sorted id order (a GMM
    prior over that group alone), single-head against every class seen by
    step t.  Merged statistics are kept one class at a time.
    """
    rng = Rng(seed)
    linear, offset = make_task_encodings(world.dims, len(groups), stream.drift, rng)
    support, query = [], []
    for group in groups:
        for store, count in ((support, stream.shot), (query, stream.query_per_class)):
            store.append(np.vstack(draw_class_examples(world, group, [count] * len(group), rng)))
    memory = {}  # class id -> one-row ClassStatistics
    matrix = np.full((len(groups), len(groups)), np.nan)
    working = None
    for t, group in enumerate(groups):
        working = update_encoding(strategy, t, (linear[t], offset[t]), working)
        local_y = np.repeat(np.arange(len(group)), stream.shot)
        [fit] = fit_statistics([head], apply(working, support[t]), local_y,
                               apply(working, query[t]))
        fit = replace(fit.statistics, counts=np.full(len(group), float(stream.shot)))
        for row, cid in enumerate(group):
            new = fit.take([row])
            memory[cid] = merge_class_statistics(memory[cid], new) if cid in memory else new
        for j in range(t + 1):
            ids = sorted(groups[j]) if mode is HeadMode.MULTI_HEAD else sorted(memory)
            labels = predict_labels(head, stack_rows([memory[c] for c in ids]),
                                    apply(working, query[j]))
            truth = np.repeat(groups[j], stream.query_per_class)
            matrix[t, j] = np.mean(np.array(ids)[labels] == truth)
    return matrix


def one_stream(world, stream, strategies, head=HeadConfig(), seed=0, class_groups=None):
    """The matrices of the one stream drawn from ``seed``, run as a block of one."""
    return run_continual_session(world, stream, [seed], strategies, head, class_groups)[0]


class TestRunContinualSession:
    def test_single_task_matrix_matches_plain_accuracy(self):
        world = small_world()
        stream = StreamConfig(num_tasks=1, classes_per_task=3, shot=8, drift=0.0)
        matrix = one_stream(world, stream, [EncodingStrategy.MOVING], seed=5)[
            EncodingStrategy.MOVING, HeadMode.MULTI_HEAD]
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
        matrix = one_stream(world, stream, [EncodingStrategy.FIRST], seed=3)[
            EncodingStrategy.FIRST, HeadMode.MULTI_HEAD]
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
            session = one_stream(
                world, stream, [EncodingStrategy.FIRST, EncodingStrategy.MOVING], seed=seed
            )
            first_final.append(session[EncodingStrategy.FIRST, HeadMode.SINGLE_HEAD][3, 0])
            moving_final.append(session[EncodingStrategy.MOVING, HeadMode.SINGLE_HEAD][3, 0])
        assert np.mean(first_final) > np.mean(moving_final) + 0.2

    def test_moving_encoding_forgets_under_drift(self):
        world = small_world()
        stream = StreamConfig(num_tasks=5, classes_per_task=2, shot=10, drift=1.0)
        drops = []
        for seed in range(10):
            matrix = one_stream(world, stream, [EncodingStrategy.MOVING], seed=seed)[
                EncodingStrategy.MOVING, HeadMode.SINGLE_HEAD]
            drops.append(matrix[0, 0] - matrix[4, 0])
        assert np.mean(drops) > 0.2

    def test_count_bookkeeping(self):
        world = small_world()
        stream = StreamConfig(num_tasks=3, classes_per_task=2, shot=7, drift=0.5)
        groups = [[0, 1], [2, 3], [0, 1]]  # classes 0/1 appear twice
        matrix = one_stream(
            world, stream, [EncodingStrategy.FIRST], seed=1, class_groups=groups,
        )[EncodingStrategy.FIRST, HeadMode.MULTI_HEAD]
        assert matrix.shape == (3, 3)
        # overlapping groups merge: task 3 re-estimates classes 0/1, so its
        # row-0 entry reflects merged statistics (smoke: still in range)
        assert np.all(matrix[np.tril_indices(3)] >= 0.0)

    # sha256 of the seed 0-2 matrices for revisited classes, as the stack of
    # per-class records with its per-tuple stack cache computed them
    OVERLAP_PINS = {
        HeadMode.MULTI_HEAD: "387a9f0e9a7796ec386bc54c7503fc0bee89ace2d0c07f5dab07e40eab1c75b4",
        HeadMode.SINGLE_HEAD: "1281f534153e9b5d8ac69b9b456d63d5300e723ecf228589ecdc4bf1d2750c18",
    }

    @pytest.mark.parametrize("mode", list(HeadMode))
    def test_merged_matrices_are_pinned(self, mode):
        # later tasks revisit earlier classes, so every step from the second
        # on merges into rows that earlier evaluations scored
        world = small_world()
        stream = StreamConfig(num_tasks=5, classes_per_task=2, shot=2, drift=0.3)
        groups = [[0, 1], [1, 2], [0, 2], [3, 0], [1, 3]]
        digest = hashlib.sha256()
        for seed in range(3):
            matrix = one_stream(world, stream, [EncodingStrategy.FIRST],
                                           seed=seed, class_groups=groups)[
                EncodingStrategy.FIRST, mode]
            digest.update(matrix.tobytes())
        assert digest.hexdigest() == self.OVERLAP_PINS[mode]

    @settings(max_examples=25, deadline=None)
    @given(
        groups=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
                        min_size=1, max_size=4),
        shot=st.integers(1, 3),
        query=st.integers(1, 3),
        drift=st.sampled_from([0.0, 0.5, 1.5]),
        gmm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_matrix_matches_the_cell_by_cell_reference(self, groups, shot, query, drift,
                                                             gmm, seed):
        # groups revisit classes at random, so merges, unseen classes and
        # classes shared between groups all occur
        world = make_cluster_world(3, 6, 4.0, rng_seed=1, mean_radius=1.5,
                                   scale_range=(0.5, 2.0))
        stream = StreamConfig(num_tasks=len(groups), classes_per_task=1, shot=shot,
                              query_per_class=query, drift=drift)
        head = HeadConfig(gmm=gmm)
        session = one_stream(world, stream, list(EncodingStrategy), head,
                                        seed=seed, class_groups=groups)
        assert set(session) == set(itertools.product(EncodingStrategy, HeadMode))
        for (strategy, mode), matrix in session.items():
            expected = reference_matrix(world, stream, strategy, mode, head, seed, groups)
            assert np.array_equal(matrix, expected, equal_nan=True), (strategy, mode)

    @pytest.mark.parametrize("groups", [
        [[0, -1], [2, 3]],  # a negative id would index from the end
        [[0, 10], [2, 3]],  # the world has classes 0..9
        [[0, 0], [2, 3]],  # a class twice in one task
        [[0, 1], []],
        [[0, 1]],  # one group per task
        [[0, 1], [2, 3], [4, 5]],
    ], ids=str)
    def test_bad_class_groups_are_config_errors(self, groups):
        stream = StreamConfig(num_tasks=2, classes_per_task=2, shot=2)
        with pytest.raises(InvalidConfig):
            one_stream(small_world(), stream, [EncodingStrategy.FIRST],
                                  class_groups=groups)

    @pytest.mark.parametrize("mode", list(HeadMode))
    def test_disjoint_groups_stack_once_per_task(self, mode, monkeypatch):
        # no class is revisited, so nothing merges and each task's class
        # stack is factored once, by its fit, however often it is scored
        factored, merges = [], []
        from_moments = ClassStatistics.from_moments
        monkeypatch.setattr(ClassStatistics, "from_moments", classmethod(
            lambda cls, *args: factored.append(1) or from_moments(*args)))
        monkeypatch.setattr(continual, "merge_class_statistics",
                            lambda old, new: merges.append(1))
        stream = StreamConfig(num_tasks=4, classes_per_task=2, shot=3)
        session = one_stream(small_world(), stream, [EncodingStrategy.MOVING], seed=0)
        assert (len(factored), len(merges)) == (4, 0)
        assert session[EncodingStrategy.MOVING, mode].shape == (4, 4)

    def test_a_block_draws_as_often_as_one_stream(self, monkeypatch):
        # one Rng over the block's seeds: a block of 4 streams makes the
        # draws of one stream, each for all 4 at once
        calls = []
        normal, draw = Rng.normal, continual.draw_class_examples
        monkeypatch.setattr(Rng, "normal",
                            lambda rng, *args: calls.append("normal") or normal(rng, *args))
        monkeypatch.setattr(continual, "draw_class_examples",
                            lambda *args: calls.append("draw") or draw(*args))
        world = small_world()
        stream = StreamConfig(num_tasks=4, classes_per_task=2, shot=3)
        made = {}
        for seeds in ([0], [0, 1, 2, 3]):
            calls.clear()
            run_continual_session(world, stream, seeds, [EncodingStrategy.MOVING])
            made[len(seeds)] = (calls.count("normal"), calls.count("draw"))
        # per task: a linear map, an offset and a kept draw, then one draw
        # per class for the support and one for the queries
        assert made[4] == made[1] == (4 * (3 + 2 * 2), 4 * 2)

    def test_a_block_checks_its_frames_as_often_as_one_stream(self, monkeypatch):
        # each task's maps and each averaged frame are checked for every
        # stream of the block in one stacked determinant
        calls, check = [], worlds.singular

        def counting(linear):
            calls.append(1)
            return check(linear)

        monkeypatch.setattr(worlds, "singular", counting)
        monkeypatch.setattr(continual, "singular", counting)
        world = small_world()
        stream = StreamConfig(num_tasks=4, classes_per_task=2, shot=3)
        made = {}
        for seeds in ([0], [0, 1, 2, 3]):
            calls.clear()
            run_continual_session(world, stream, seeds, list(EncodingStrategy))
            made[len(seeds)] = len(calls)
        # per task one check of the drawn maps, and from the second task on
        # one of the averaged frames
        assert made[4] == made[1] == 4 + 3

    def test_not_enough_classes(self):
        world = small_world(classes=4)
        stream = StreamConfig(num_tasks=3, classes_per_task=2, shot=5)
        with pytest.raises(NotEnoughClasses):
            one_stream(world, stream, [EncodingStrategy.FIRST], seed=0)

    def test_multi_head_at_least_single_head_on_average(self):
        world = small_world()
        stream = StreamConfig(num_tasks=4, classes_per_task=2, shot=8, drift=0.5)
        multi, single = [], []
        for seed in range(8):
            session = one_stream(world, stream, [EncodingStrategy.AVERAGING],
                                            seed=seed)
            multi.append(np.nanmean(session[EncodingStrategy.AVERAGING, HeadMode.MULTI_HEAD]))
            single.append(np.nanmean(session[EncodingStrategy.AVERAGING, HeadMode.SINGLE_HEAD]))
        assert np.mean(multi) >= np.mean(single)

    def test_transductive_head_runs(self):
        from mahabench.refine import RefineConfig

        world = small_world()
        stream = StreamConfig(num_tasks=2, classes_per_task=2, shot=4, drift=0.3)
        head = HeadConfig(refine=RefineConfig(min_steps=2, max_steps=4))
        matrix = one_stream(
            world, stream, [EncodingStrategy.AVERAGING], head, seed=2,
        )[EncodingStrategy.AVERAGING, HeadMode.SINGLE_HEAD]
        assert matrix.shape == (2, 2)
        assert not np.isnan(matrix[1, 1])


def reference_session(world, stream, strategies, head, seed, groups):
    """One stream run on its own, one unbatched fit and one unbatched
    scoring per (strategy, step): the loop ``run_continual_session`` ran
    before it stepped a block of streams in lockstep.  Returns the stream's
    matrices, keyed as the block's are."""
    rng = Rng(seed)
    linear, offset = make_task_encodings(world.dims, len(groups), stream.drift, rng)
    raw_support, raw_query = [], []
    for group in groups:
        for raw, count in ((raw_support, stream.shot), (raw_query, stream.query_per_class)):
            raw.append(np.vstack(draw_class_examples(world, group, [count] * len(group), rng)))
    k, d, t_count = world.class_count, world.dims, len(groups)
    queries = np.vstack(raw_query)
    truth = np.repeat(np.concatenate(groups), stream.query_per_class)
    sizes = np.array([len(q) for q in raw_query])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    in_group = np.repeat([np.isin(np.arange(k), group) for group in groups], sizes, axis=0)

    def store(memory, rows, stats):
        for f in fields(ClassStatistics):
            getattr(memory, f.name)[rows] = getattr(stats, f.name)

    matrices = {}
    for strategy in strategies:
        working = None
        memory = ClassStatistics(np.zeros((k, d)), np.zeros((k, d, d)), np.zeros(k),
                                 np.zeros((k, d, d)), np.zeros((k, d, d)), np.zeros(k))
        single = matrices[strategy, HeadMode.SINGLE_HEAD] = np.full((t_count, t_count), np.nan)
        multi = matrices[strategy, HeadMode.MULTI_HEAD] = np.full((t_count, t_count), np.nan)
        for t in range(t_count):
            rows = np.array(groups[t])
            working = update_encoding(strategy, t, (linear[t], offset[t]), working)
            feats = apply(working, queries[:ends[t]])
            local_y = np.repeat(np.arange(len(rows), dtype=np.int64), stream.shot)
            [fit] = fit_statistics([head], apply(working, raw_support[t]), local_y,
                                   feats[starts[t]:])
            new = replace(fit.statistics, counts=np.full(len(rows), float(stream.shot)))
            seen = memory.counts[rows] > 0
            if seen.any():
                store(memory, rows[seen],
                      merge_class_statistics(memory.take(rows[seen]), new.take(seen)))
            store(memory, rows[~seen], new.take(~seen))
            seen_ids = np.flatnonzero(memory.counts > 0)
            values = scores(head, memory.take(seen_ids), feats)
            own = np.where(in_group[:ends[t], seen_ids], values, -np.inf)
            for matrix, labels in ((single, np.argmax(values, axis=1)),
                                   (multi, np.argmax(own, axis=1))):
                hits = np.add.reduceat(seen_ids[labels] == truth[:ends[t]], starts[:t + 1],
                                       dtype=np.intp)
                matrix[t, :t + 1] = hits / sizes[:t + 1]
    return matrices


HEADS = {
    "simple": HeadConfig(),
    "transductive": HeadConfig(refine=RefineConfig()),
    "gmm-em": HeadConfig(gmm=True, refine=RefineConfig()),
}


@settings(max_examples=40, deadline=None)
@given(
    head=st.sampled_from(sorted(HEADS)),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    order=st.permutations(list(EncodingStrategy)),
    strategy_count=st.integers(1, 3),
    # None: the default disjoint groups; else groups that revisit classes at random
    groups=st.one_of(
        st.none(),
        st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
                 min_size=1, max_size=4)),
    tasks=st.integers(1, 3),
    shot=st.integers(1, 3),
    query=st.integers(1, 3),
    drift=st.sampled_from([0.0, 0.5, 1.5]),
)
def test_lockstep_block_matches_each_stream_run_alone(head, seeds, order, strategy_count,
                                                      groups, tasks, shot, query, drift):
    # a block of streams under several strategies gives, for each (stream,
    # strategy, head mode), the matrix of that stream run on its own, bit
    # for bit, wherever the stream sits in the block
    world = make_cluster_world(3, 6, 4.0, rng_seed=1, mean_radius=1.5, scale_range=(0.5, 2.0))
    stream = StreamConfig(num_tasks=len(groups) if groups else tasks, classes_per_task=2,
                          shot=shot, query_per_class=query, drift=drift)
    strategies = order[:strategy_count]
    block = run_continual_session(world, stream, seeds, strategies, HEADS[head], groups)
    assert len(block) == len(seeds)
    default = [[2 * t, 2 * t + 1] for t in range(tasks)]
    for seed, matrices in zip(seeds, block):
        expected = reference_session(world, stream, strategies, HEADS[head], seed,
                                     groups or default)
        assert list(matrices) == list(expected)
        for key, matrix in expected.items():
            assert matrices[key].tobytes() == matrix.tobytes(), key


def test_streams_that_redraw_an_encoding_match_each_stream_run_alone(monkeypatch):
    # a higher singular floor makes some streams of one block redraw a
    # task's linear map, once or twice, and others draw each map once
    seeds, tasks = list(range(6)), 3

    def raw_outputs(seed):
        rng = Rng(seed)
        make_task_encodings(3, tasks, 1.5, rng)
        return rng._counter

    plain = [raw_outputs(seed) for seed in seeds]
    monkeypatch.setattr(worlds, "SINGULAR_DET", 0.3)
    extra = [raw_outputs(seed) - count for seed, count in zip(seeds, plain)]
    assert sorted(set(extra)) == [0, 10, 20]  # a 3x3 map takes 10 raw outputs
    block = make_task_encodings(3, tasks, 1.5, Rng(np.array(seeds, dtype=np.uint64)))
    for s, seed in enumerate(seeds):
        for got, alone in zip(block, make_task_encodings(3, tasks, 1.5, Rng(seed))):
            assert got[s].tobytes() == alone.tobytes()
    # the frames must clear the raised floor too, so no averaging
    world = make_cluster_world(3, 6, 4.0, rng_seed=1, mean_radius=1.5, scale_range=(0.5, 2.0))
    stream = StreamConfig(num_tasks=tasks, classes_per_task=2, shot=2, query_per_class=3,
                          drift=1.5)
    strategies = [EncodingStrategy.FIRST, EncodingStrategy.MOVING]
    groups = [[0, 1], [2, 3], [4, 5]]
    for head in HEADS.values():
        got = run_continual_session(world, stream, seeds, strategies, head)
        for seed, matrices in zip(seeds, got):
            expected = reference_session(world, stream, strategies, head, seed, groups)
            for key, matrix in expected.items():
                assert matrices[key].tobytes() == matrix.tobytes(), (seed, key)


def test_a_map_singular_after_64_draws_is_a_config_error(monkeypatch):
    monkeypatch.setattr(worlds, "SINGULAR_DET", np.inf)
    for rng in (Rng(0), Rng(np.array([0, 1], dtype=np.uint64))):
        with pytest.raises(InvalidConfig, match="invertible"):
            make_task_encodings(2, 1, 1.0, rng)


def test_an_empty_block_is_a_config_error():
    stream = StreamConfig(num_tasks=2, classes_per_task=2, shot=2)
    with pytest.raises(InvalidConfig):
        run_continual_session(small_world(), stream, [], [EncodingStrategy.FIRST])
    with pytest.raises(InvalidConfig):
        run_continual_session(small_world(), stream, [0, 1], [])


CONTINUAL_ARGV = ["continual", "--streams", "7", "--length", "4", "--shot", "3", "--query", "3",
                  "--dims", "3", "--method", "transductive"]


@pytest.mark.parametrize("workers", [1, 2])
def test_continual_bytes_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(parallel, "_worker_count", lambda count: min(workers, count))
    digests = set()
    for size in (1, 3, 20):
        monkeypatch.setattr(cli, "LOCKSTEP_BLOCK", size)
        out = tmp_path / f"block-{size}.csv"
        assert cli.cli_main([*CONTINUAL_ARGV, "--out", str(out)]) == 0
        digests.add((out.read_bytes(), capsys.readouterr().out))
    assert len(digests) == 1
