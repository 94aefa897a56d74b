import json
from dataclasses import replace

import numpy as np
import pytest

from mahabench.errors import DimensionMismatch, FormatError, InvalidConfig, NotEnoughClasses
from mahabench.heads import SupportLayout, estimate_class_statistics
from mahabench.methods import HeadConfig, predict
from mahabench.rng import Rng
from mahabench.worlds import (
    ClusterWorld,
    SamplerConfig,
    SamplerMode,
    _rescale_shots,
    draw_class_examples,
    make_cluster_world,
    read_tasks,
    sample_task,
    write_tasks,
)

from episodes import tasks_equal

FIXED = SamplerConfig(mode=SamplerMode.FIXED_WAY_SHOT, fixed_way=5, fixed_shot=1)


class TestMakeClusterWorld:
    def test_spherical_when_anisotropy_is_one(self):
        world = make_cluster_world(4, 6, 1.0, rng_seed=3)
        for cov in world.true_covariances:
            scale = cov[0, 0]
            assert np.allclose(cov, scale * np.eye(4), atol=1e-12)

    def test_same_seed_bit_identical(self):
        a = make_cluster_world(5, 8, 16.0, rng_seed=11, scale_range=(0.5, 2.0))
        b = make_cluster_world(5, 8, 16.0, rng_seed=11, scale_range=(0.5, 2.0))
        assert np.array_equal(a.true_means, b.true_means)
        assert np.array_equal(a.true_covariances, b.true_covariances)

    def test_condition_numbers_bounded_by_anisotropy(self):
        for seed in range(100):
            world = make_cluster_world(4, 3, 16.0, rng_seed=seed)
            for cov in world.true_covariances:
                eigs = np.linalg.eigvalsh(cov)
                assert eigs[-1] / eigs[0] <= 16.0 * (1 + 1e-9)

    def test_means_on_shell(self):
        world = make_cluster_world(6, 10, 4.0, rng_seed=2, mean_radius=3.0)
        assert np.allclose(np.linalg.norm(world.true_means, axis=1), 3.0)

    def test_center_offset(self):
        world = make_cluster_world(4, 6, 2.0, rng_seed=2, mean_radius=1.0, center_norm=10.0)
        center = 10.0 * np.ones(4) / 2.0
        assert np.allclose(np.linalg.norm(world.true_means - center, axis=1), 1.0)

    def test_a_hand_built_world_draws_through_its_covariance_factors(self):
        # a world built from its means and covariances alone, without
        # make_cluster_world, draws mean + z L^T, L each covariance's factor
        means = np.array([[0.0, 0.0], [3.0, 1.0]])
        covs = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, -0.3], [-0.3, 0.5]]])
        world = ClusterWorld("by-hand", means, covs)
        assert (world.dims, world.class_count) == (2, 2)
        rng = Rng(7)
        for cid, count, block in zip([1, 0], [3, 2],
                                     draw_class_examples(world, [1, 0], [3, 2], Rng(7))):
            raw = rng.normal((count, 2))
            expected = means[cid] + raw @ np.linalg.cholesky(covs[cid]).T
            assert block.tobytes() == expected.tobytes()
        task = sample_task(world, replace(FIXED, fixed_way=2, fixed_shot=3), 11)
        assert task.support_x.shape == (6, 2) and np.all(np.isfinite(task.query_x))

    @pytest.mark.parametrize("means, covs", [
        (np.zeros((2, 3)), np.stack([np.eye(2)] * 2)),  # covariances narrower than the means
        (np.zeros((5, 2)), np.stack([np.eye(2)] * 2)),  # fewer covariances than classes
        (np.zeros((2, 2)), np.eye(2)),  # one covariance for the whole world
        (np.zeros(2), np.stack([np.eye(2)] * 2)),  # means without a class axis
    ], ids=["dims", "classes", "unstacked", "flat-means"])
    def test_a_hand_built_world_whose_arrays_disagree_is_rejected(self, means, covs):
        # caught when the world is built, not as a numpy error in its first draw
        with pytest.raises(DimensionMismatch):
            ClusterWorld("by-hand", means, covs)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            make_cluster_world(1, 5, 2.0, rng_seed=0)
        with pytest.raises(InvalidConfig):
            make_cluster_world(3, 1, 2.0, rng_seed=0)
        with pytest.raises(InvalidConfig):
            make_cluster_world(3, 5, 0.5, rng_seed=0)


class TestSampleTask:
    def test_fixed_way_shot_counts(self):
        world = make_cluster_world(3, 8, 2.0, rng_seed=5)
        task = sample_task(world, FIXED, 42)
        assert task.way == 5
        assert task.support_x.shape == (5, 3)
        assert task.query_x.shape == (50, 3)
        assert np.array_equal(task.shots, np.ones(5))
        assert np.array_equal(np.bincount(task.query_y), np.full(5, 10))

    def test_deterministic_in_seed(self):
        world = make_cluster_world(3, 8, 2.0, rng_seed=5)
        a = sample_task(world, FIXED, 42)
        b = sample_task(world, FIXED, 42)
        assert tasks_equal(a, b)
        c = sample_task(world, FIXED, 43)
        assert not tasks_equal(a, c)

    def test_not_enough_classes(self):
        world = make_cluster_world(3, 4, 2.0, rng_seed=5)
        with pytest.raises(NotEnoughClasses):
            sample_task(
                world,
                SamplerConfig(mode=SamplerMode.FIXED_WAY_SHOT, fixed_way=9, fixed_shot=1),
                0,
            )

    def test_metadataset_support_cap_and_class_coverage(self):
        world = make_cluster_world(4, 50, 2.0, rng_seed=9)
        cfg = SamplerConfig(mode=SamplerMode.META_DATASET_LIKE)
        for seed in range(200):
            task = sample_task(world, cfg, seed)
            assert 5 <= task.way <= 50
            assert task.support_x.shape[0] <= 500
            assert np.all(task.shots >= 1)
            assert np.array_equal(
                np.bincount(task.query_y, minlength=task.way), np.full(task.way, 10)
            )

    def test_shots_past_the_cap_are_trimmed_from_the_largest_classes(self):
        # the floors leave 520 shots, 20 over the cap; no sampled task
        # overshoots after its floors, so the trim is checked here
        shots = np.array([1] * 40 + [100] * 10)
        assert _rescale_shots(shots, 500).tolist() == [1] * 40 + [46] * 10

    def test_far_separated_spherical_world_is_nearly_solved(self):
        # sanity oracle: trivially separable clusters give the plain
        # Mahalanobis head at least 99% accuracy
        world = make_cluster_world(4, 10, 1.0, rng_seed=13, mean_radius=12.0)
        cfg = SamplerConfig(
            mode=SamplerMode.FIXED_WAY_SHOT, fixed_way=5, fixed_shot=5, query_per_class=10
        )
        correct = total = 0
        for seed in range(100):
            task = sample_task(world, cfg, seed)
            stats = estimate_class_statistics(SupportLayout.build(task.support_x, task.support_y))
            _, labels = predict(HeadConfig(), stats, task.query_x)
            correct += int(np.sum(labels == task.query_y))
            total += len(task.query_y)
        assert correct / total >= 0.99


class TestTaskFiles:
    def _tasks(self, n=3):
        world = make_cluster_world(3, 8, 4.0, rng_seed=21, scale_range=(0.5, 2.0))
        return [sample_task(world, FIXED, seed) for seed in range(n)]

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_tasks(path, [])
        assert read_tasks(path) == []
        assert path.read_text().count("\n") == 1  # header only

    def test_single_task_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "one.jsonl"
        tasks = self._tasks(1)
        write_tasks(path, tasks)
        loaded = read_tasks(path)
        assert len(loaded) == 1
        assert tasks_equal(tasks[0], loaded[0])

    def test_many_tasks_round_trip(self, tmp_path):
        path = tmp_path / "many.jsonl"
        tasks = self._tasks(5)
        write_tasks(path, tasks)
        loaded = read_tasks(path)
        assert all(tasks_equal(a, b) for a, b in zip(tasks, loaded))

    def test_corrupted_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_tasks(path, self._tasks(2))
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:40]  # truncate the second task record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            read_tasks(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_feature_reports_line_number(self, tmp_path, value):
        path = tmp_path / "nonfinite.jsonl"
        write_tasks(path, self._tasks(2))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["query"][1]["features"][0] = value
        lines[2] = json.dumps(rec)  # writes NaN / Infinity, which json reads back
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            read_tasks(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: rec["support"][0].update(label=-1), "support label -1"),
        (lambda rec: rec["support"][0].update(label=rec["way"]), "support label 5"),
        (lambda rec: rec["query"][0].update(label=rec["way"]), "query label 5"),
        (lambda rec: rec.update(support=[]), "support set is empty"),
        (lambda rec: rec.update(query=[]), "query set is empty"),
        (lambda rec: rec.update(support=[r for r in rec["support"] if r["label"] != 1]),
         "class 1 has no support row"),
        (lambda rec: rec.update(way=10**12), "class 5 has no support row"),
        (lambda rec: rec["support"][0].update(label=0.7), "label 0.7 is not an integer"),
        (lambda rec: rec["query"][0].update(label=1.5), "label 1.5 is not an integer"),
        (lambda rec: rec["support"][0].update(label=True), "label true is not an integer"),
        (lambda rec: rec["query"][0].update(label=2**70), "bad task record"),
    ])
    def test_bad_labels_report_line_number(self, tmp_path, edit, message):
        path = tmp_path / "labels.jsonl"
        write_tasks(path, self._tasks(2))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        edit(rec)
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=message) as info:
            read_tasks(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("edit, message", [
        # a zero width needs featureless rows to get past the width check
        (lambda rec: rec.update(dims=0, support=[dict(r, features=[]) for r in rec["support"]],
                                query=[dict(r, features=[]) for r in rec["query"]]),
         "dims 0 is not an integer >= 1"),
        (lambda rec: rec.update(dims=True), "dims true is not an integer"),
        (lambda rec: rec.update(dims=10**12), "expected 1000000000000 features, got 3"),
        (lambda rec: rec.update(way=2.5), "way 2.5 is not an integer >= 1"),
        (lambda rec: rec.update(way=0), "way 0 is not an integer"),
        (lambda rec: rec.update(seed=-5), "seed -5 is not an integer in"),
        (lambda rec: rec.update(seed=2**64), f"seed {2**64} is not an integer in"),
        (lambda rec: rec.update(seed=2**70), f"seed {2**70} is not an integer in"),
        (lambda rec: rec.update(seed="7"), 'seed "7" is not an integer'),
        (lambda rec: rec.update(domain_id=None), "domain_id null is not a string"),
        (lambda rec: rec.update(domain_id=3), "domain_id 3 is not a string"),
    ], ids=["dims-0", "dims-bool", "dims-huge", "way-float", "way-0", "seed-negative", "seed-2**64",
            "seed-2**70", "seed-string", "domain-null", "domain-int"])
    def test_bad_header_fields_report_line_number(self, tmp_path, edit, message):
        path = tmp_path / "fields.jsonl"
        write_tasks(path, self._tasks(2))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        edit(rec)
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=message) as info:
            read_tasks(path)
        assert info.value.line == 3

    def test_largest_seed_is_read_back(self, tmp_path):
        path = tmp_path / "seed.jsonl"
        write_tasks(path, [replace(self._tasks(1)[0], seed=2**64 - 1)])
        assert read_tasks(path)[0].seed == 2**64 - 1

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "noheader.jsonl"
        path.write_text('{"domain_id": "x"}\n')
        with pytest.raises(FormatError) as info:
            read_tasks(path)
        assert info.value.line == 1

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "count.jsonl"
        write_tasks(path, self._tasks(2))
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"count": 2', '"count": 5')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            read_tasks(path)


class TestSamplerConfigValidation:
    def test_fixed_mode_needs_way_and_shot(self):
        with pytest.raises(InvalidConfig):
            SamplerConfig(mode=SamplerMode.FIXED_WAY_SHOT)
