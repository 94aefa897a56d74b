import numpy as np
import pytest

from mahabench.errors import InvalidConfig
from mahabench.riemann import (
    MetricField,
    PartitionOfUnity,
    energy_gap_check,
    make_two_centroid_field,
    metric_at,
    path_energy,
    sample_plateau_point,
)
from mahabench.rng import Rng, derive_seed


def constant_field(q, centroids=None):
    """All local metrics equal: g(x) is the same matrix everywhere."""
    cents = np.array([[0.0, 0.0], [6.0, 0.0]]) if centroids is None else centroids
    prec = np.linalg.inv(q)
    part = PartitionOfUnity(np.full(len(cents), 1.5), np.full(len(cents), 0.75))
    return MetricField(cents, np.stack([prec] * len(cents)), part)


def two_metric_field(weak=50.0, support_scale=0.18, flatness=0.5, seed=5):
    rng = Rng(seed)
    d = rng.normal(2)
    d /= np.linalg.norm(d)
    cents = np.stack([np.zeros(2), 6.0 * d])
    precs = []
    for k in range(2):
        a = rng.normal((2, 2))
        cov = a @ a.T + np.eye(2)
        if k == 0:
            cov = cov * weak
        precs.append(np.linalg.inv(cov))
    radius = np.full(2, support_scale * 6.0)
    part = PartitionOfUnity(radius, flatness * radius)
    return MetricField(cents, np.stack(precs), part)


class TestPartitionOfUnity:
    def test_weights_sum_to_one_everywhere(self):
        field = two_metric_field()
        rng = Rng(1)
        points = 8.0 * rng.normal((200, 2))
        w = field.partition.weights(points, field.centroids)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w >= 0.0)

    def test_plateau_weight_is_exactly_one(self):
        field = two_metric_field()
        rng = Rng(2)
        for _ in range(20):
            x = sample_plateau_point(field, 0, rng)
            w = field.partition.weights(x, field.centroids)[0]
            assert w[0] == 1.0 and w[1] == 0.0

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            PartitionOfUnity(np.array([1.0]), np.array([1.0]))  # plateau == support
        with pytest.raises(InvalidConfig):
            PartitionOfUnity(np.array([0.0]), np.array([0.0]))

    def test_support_overlapping_foreign_centroid_rejected(self):
        cents = np.array([[0.0, 0.0], [1.0, 0.0]])
        precs = np.stack([np.eye(2)] * 2)
        with pytest.raises(InvalidConfig):
            MetricField(cents, precs, PartitionOfUnity(np.full(2, 2.0), np.full(2, 1.0)))

    def test_overlap_check_matches_the_per_centroid_loop(self):
        def loop_rejects(cents, sup):
            dist = np.linalg.norm(cents[:, None, :] - cents[None, :, :], axis=2)
            k = len(cents)
            return any(
                np.any(np.delete(dist[:, j], j) < sup[np.arange(k) != j]) for j in range(k)
            )

        rng = Rng(4)
        verdicts = set()
        for _ in range(200):
            k = 2 + rng.below(3)
            cents = 3.0 * rng.normal((k, 2))
            sup = 0.5 + 3.0 * rng.uniform(k)
            part = PartitionOfUnity(sup, sup / 2.0)
            expected = loop_rejects(cents, sup)
            verdicts.add(expected)
            if expected:
                with pytest.raises(InvalidConfig, match="foreign centroid"):
                    MetricField(cents, np.stack([np.eye(2)] * k), part)
            else:
                MetricField(cents, np.stack([np.eye(2)] * k), part)
        assert verdicts == {True, False}

    def test_a_foreign_centroid_on_the_support_sphere_is_allowed(self):
        cents = np.array([[0.0, 0.0], [1.0, 0.0]])
        precs = np.stack([np.eye(2)] * 2)
        MetricField(cents, precs, PartitionOfUnity(np.array([1.0, 0.5]), np.full(2, 0.25)))
        with pytest.raises(InvalidConfig):
            MetricField(cents, precs, PartitionOfUnity(np.array([1.5, 0.5]), np.full(2, 0.25)))


class TestMetricAt:
    def test_exact_local_metric_at_centroid(self):
        field = two_metric_field()
        for k in range(2):
            g = metric_at(field, field.centroids[k])
            assert np.array_equal(g, (field.precisions[k] + field.precisions[k].T) / 2)

    def test_single_centroid_constant_everywhere(self):
        prec = np.array([[2.0, 0.5], [0.5, 1.0]])
        part = PartitionOfUnity(np.array([1.0]), np.array([0.5]))
        field = MetricField(np.zeros((1, 2)), prec[None, :, :], part)
        rng = Rng(3)
        for _ in range(20):
            x = 5.0 * rng.normal(2)
            assert np.allclose(metric_at(field, x), prec, atol=1e-12)

    def test_symmetric_midpoint_is_half_mix(self):
        field = two_metric_field(support_scale=0.9)  # overlapping supports
        mid = field.centroids.mean(axis=0)
        expected = 0.5 * field.precisions[0] + 0.5 * field.precisions[1]
        assert np.allclose(metric_at(field, mid), expected, atol=1e-12)


class TestPathEnergy:
    def test_constant_field_is_exact_quadratic(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        field = constant_field(q)
        rng = Rng(7)
        for qp in (8, 16, 64, 256):
            x, y = 3.0 * rng.normal(2), 3.0 * rng.normal(2)
            expected = (y - x) @ np.linalg.inv(q) @ (y - x)
            assert path_energy(field, x, y, qp) == pytest.approx(expected, rel=1e-12)

    def test_zero_for_coincident_points(self):
        field = two_metric_field()
        x = np.array([1.0, 1.0])
        assert path_energy(field, x, x) == 0.0

    def test_matches_dense_trapezoid_reference(self):
        # self-convergence oracle: composite Gauss-Legendre against a
        # 10^6-point trapezoid rule on the same integrand
        field = two_metric_field()
        x = field.centroids[0] + np.array([0.2, -0.1])
        y = field.centroids[1] + np.array([-0.3, 0.2])
        delta = y - x
        lam = np.linspace(0.0, 1.0, 1_000_001)
        pts = x[None, :] + lam[:, None] * delta[None, :]
        w = field.partition.weights(pts, field.centroids)
        g = np.einsum("mk,kde->mde", w, field.precisions)
        vals = np.einsum("mde,d,e->m", g, delta, delta)
        reference = np.trapezoid(vals, lam)
        energy = path_energy(field, x, y, quadrature_points=16384)
        assert energy == pytest.approx(reference, rel=1e-8)

    def test_symmetry_under_endpoint_swap(self):
        field = two_metric_field()
        rng = Rng(9)
        for _ in range(50):
            x, y = 4.0 * rng.normal(2), 4.0 * rng.normal(2)
            a = path_energy(field, x, y, 128)
            b = path_energy(field, y, x, 128)
            assert a == pytest.approx(b, rel=1e-10)

    def test_quadrature_convergence_on_smooth_field(self):
        field = two_metric_field()
        c0, c1 = field.centroids
        # centroid to centroid with equal radii: w0(t) = w1(1 - t) and
        # w0 + w1 = 1, so the energy is exactly (1/2) d^T (P0 + P1) d
        delta = c1 - c0
        exact = 0.5 * delta @ (field.precisions[0] + field.precisions[1]) @ delta
        for qp in (8, 1024):
            assert path_energy(field, c0, c1, qp) == pytest.approx(exact, rel=1e-13)
        # asymmetric paths, where no symmetry makes the rule exact: the C1
        # bumps have second-derivative jumps on each plateau and support
        # sphere, and only a grid split at those crossings converges fast
        offset = np.array([0.3, -0.2])
        for x, y in ((c0 + offset, c1), (c0 + offset, 0.6 * c1)):
            reference = path_energy(field, x, y, 4096)
            for qp in (64, 128, 256, 512, 1024):
                assert path_energy(field, x, y, qp) == pytest.approx(reference, rel=1e-12)

    def test_nonnegative(self):
        field = two_metric_field()
        rng = Rng(11)
        for _ in range(100):
            x, y = 4.0 * rng.normal(2), 4.0 * rng.normal(2)
            assert path_energy(field, x, y, 64) >= 0.0


class TestEnergyGapCheck:
    def test_constant_field_energy_gap_equals_full_quadratic_difference(self):
        # with a single Q everywhere the straight-line energies ARE the
        # quadratic forms, so the energy gap equals the full Mahalanobis
        # difference and the reported half-gap is exactly half of it
        q = np.array([[1.5, 0.2], [0.2, 0.8]])
        field = constant_field(q)
        x = np.array([1.0, 0.5])
        check = energy_gap_check(field, x, 0, 1, quadrature_points=512)
        prec = np.linalg.inv(q)
        full_gap = (x - field.centroids[0]) @ prec @ (x - field.centroids[0]) - (
            x - field.centroids[1]
        ) @ prec @ (x - field.centroids[1])
        assert check.delta_energy == pytest.approx(full_gap, rel=1e-10)
        assert check.half_maha_gap == pytest.approx(0.5 * full_gap, rel=1e-12)
        assert check.relative_error == pytest.approx(0.5, abs=1e-9)

    def test_plateau_points_on_seeded_fields_stay_below_five_percent(self):
        hits = 0
        for fid in range(30):
            seed = derive_seed(77, "field", fid)
            field = make_two_centroid_field(seed)
            rng = Rng(derive_seed(seed, "pts"))
            x = sample_plateau_point(field, 0, rng)
            check = energy_gap_check(field, x, 0, 1, quadrature_points=512)
            if check.relative_error < 0.05:
                hits += 1
        assert hits >= 27  # >= 90%

    def test_shrinking_flatness_increases_error(self):
        # overlapping supports with the probe at a fixed radius: once the
        # plateau shrinks past the probe the weights vary at the probe
        # itself, inflating the dropped near-point term
        levels = (0.45, 0.35, 0.25, 0.15, 0.05)
        means = []
        for flatness in levels:
            errs = []
            for fid in range(60):
                seed = derive_seed(78, "trend", fid)
                rng = Rng(seed)
                d = rng.normal(2)
                d /= np.linalg.norm(d)
                cents = np.stack([np.zeros(2), 6.0 * d])
                precs = []
                for k in range(2):
                    a = rng.normal((2, 2))
                    cov = a @ a.T + np.eye(2)
                    if k == 0:
                        cov = cov * 60.0
                    precs.append(np.linalg.inv(cov))
                radius = np.full(2, 0.95 * 6.0)
                field = MetricField(
                    cents, np.stack(precs), PartitionOfUnity(radius, flatness * radius)
                )
                u = rng.normal(2)
                u /= np.linalg.norm(u)
                x = cents[0] + 0.55 * radius[0] * u
                errs.append(energy_gap_check(field, x, 0, 1, 512).relative_error)
            means.append(np.mean(errs))
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_rejects_equal_centroid_indices(self):
        field = two_metric_field()
        with pytest.raises(InvalidConfig):
            energy_gap_check(field, np.zeros(2), 1, 1)
