import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahabench import cli, riemann
from mahabench.errors import (
    DimensionMismatch,
    InvalidConfig,
    MahabenchError,
    NotPositiveDefinite,
    NotRepairable,
)
from mahabench.riemann import (
    _GL_NODES,
    _GL_WEIGHTS,
    MetricField,
    PartitionOfUnity,
    _column_weights,
    check_settings,
    energy_gap_check,
    make_two_centroid_field,
    path_energy,
    sample_plateau_point,
)
from mahabench.rng import Rng, derive_seed


def weights(field: MetricField, points) -> np.ndarray:
    """(m, K) partition weights of the field at each point (or at one point)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dist = np.linalg.norm(pts[:, None, :] - field.centroids[None, :, :], axis=2)
    part = field.partition
    return _column_weights(dist.T, part.plateau_radius[:, None], part.support_radius[:, None]).T


def metric_at(field: MetricField, x: np.ndarray) -> np.ndarray:
    """The symmetrized metric tensor at one point: sum_k w_k(x - mu_k) P_k."""
    w = weights(field, x)[0]
    g = np.einsum("k,kde->de", w, field.precisions)
    return (g + g.T) / 2.0


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


def precision_of(cov) -> np.ndarray:
    """The precision ``from_covariances`` gives a one-centroid field of ``cov``."""
    cov = np.asarray(cov, dtype=np.float64)
    return MetricField.from_covariances(np.zeros((1, len(cov))), cov[None]).precisions[0]


def test_the_quadrature_table_is_numpys_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert _GL_NODES.dtype == nodes.dtype and _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.dtype == weights.dtype and _GL_WEIGHTS.tobytes() == weights.tobytes()


class TestPrecisions:
    def test_identity_covariance(self):
        assert np.allclose(precision_of(np.eye(2)), np.eye(2))

    def test_diagonal_covariance(self):
        assert np.allclose(precision_of(np.diag([4.0, 1.0])), np.diag([0.25, 1.0]))

    def test_two_by_two_inverse_by_hand(self):
        # inverse of [[2,1],[1,2]] is [[2,-1],[-1,2]]/3
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.allclose(precision_of([[2.0, 1.0], [1.0, 2.0]]), expected, rtol=1e-12)

    def test_a_stack_that_is_not_square_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            MetricField.from_covariances(np.zeros((1, 3)), np.eye(3)[None, :2])

    def test_a_non_finite_covariance_is_rejected(self):
        with pytest.raises(NotRepairable):
            precision_of([[1.0, 0.0], [np.inf, 1.0]])

    @pytest.mark.parametrize("cov, error", [
        # singular: the smallest scheduled jitter would repair it
        ([[1.0, 1.0], [1.0, 1.0]], NotPositiveDefinite),
        # indefinite: no scheduled jitter repairs it
        ([[1.0, 0.0], [0.0, -1.0]], NotRepairable),
    ], ids=["singular", "indefinite"])
    def test_a_covariance_that_is_not_positive_definite_is_a_typed_error(self, cov, error):
        # a field's metric is the covariances it was given, never a repair
        assert issubclass(error, MahabenchError)
        with pytest.raises(error):
            precision_of(cov)

    def test_residuals_on_random_covariances(self):
        # 1000 random SPD covariances up to dim 64
        rng = Rng(2024)
        for trial in range(1000):
            d = 1 + trial % 64
            a = rng.normal((d, d))
            cov = a @ a.T + np.eye(d)
            residual = np.linalg.norm(cov @ precision_of(cov) - np.eye(d)) / np.sqrt(d)
            assert residual <= 1e-10


class TestPartitionOfUnity:
    def test_weights_sum_to_one_everywhere(self):
        field = two_metric_field()
        rng = Rng(1)
        points = 8.0 * rng.normal((200, 2))
        w = weights(field, points)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w >= 0.0)

    def test_plateau_weight_is_exactly_one(self):
        field = two_metric_field()
        rng = Rng(2)
        for _ in range(20):
            x = sample_plateau_point(field, 0, rng)
            w = weights(field, x)[0]
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
        w = weights(field, pts)
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


@pytest.mark.parametrize("kwargs", [
    {"dims": 0}, {"weak_side_scale": 0.0}, {"weak_side_scale": -1.0},
    {"weak_side_scale": float("nan")},
], ids=lambda kwargs: str(kwargs))
def test_a_degenerate_two_centroid_field_is_a_config_error(kwargs):
    # caught before any draw, not as a LAPACK failure further down
    with pytest.raises(InvalidConfig):
        make_two_centroid_field(0, **kwargs)


# settings on and next to the edges of the checks, inside them, near them,
# and anywhere among finite floats
EDGES = [0.0, -0.0, 0.5, 1.0, -1.0, 6.0, -6.0, 2.0**-64, 2.0**64]
SETTING = st.one_of(
    st.sampled_from(EDGES + [np.nextafter(v, t) for v in EDGES for t in (-np.inf, np.inf)]),
    st.floats(0.0, 1.0), st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=1000, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), dims=st.integers(1, 6), separation=SETTING,
       support_scale=SETTING, flatness=SETTING)
def test_the_flag_check_rejects_exactly_what_the_field_checks_reject(
        seed, dims, separation, support_scale, flatness):
    flags = {"separation": separation, "support_scale": support_scale, "flatness": flatness}
    try:
        check_settings(**flags)
        flagged = False
    except InvalidConfig:
        flagged = True
    # beyond 2^±64 a rejected setting's radii may under- or overflow, and
    # there only acceptance must imply a field
    exact = all(v == 0 or 2.0**-64 <= abs(v) <= 2.0**64 for v in flags.values())
    if flagged and not exact:
        return
    try:
        make_two_centroid_field(seed, dims=dims, **flags)
        built = True
    except InvalidConfig:
        built = False
    assert built != flagged


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), dims=st.integers(1, 6), points=st.integers(1, 3),
       quadrature=st.integers(16, 64), fields=st.integers(1, 6))
def test_a_fields_rows_do_not_depend_on_its_block(seed, dims, points, quadrature, fields):
    seeds = [derive_seed(seed, "field", f) for f in range(fields)]

    def checks(field_seeds, point_seeds) -> np.ndarray:
        field = make_two_centroid_field(field_seeds, dims=dims)
        rng = Rng(point_seeds)
        return np.array([energy_gap_check(field, sample_plateau_point(field, 0, rng), 0, 1,
                                          quadrature) for _ in range(points)])

    point_seeds = [derive_seed(s, "points") for s in seeds]
    block = checks(np.array(seeds, dtype=np.uint64), np.array(point_seeds, dtype=np.uint64))
    assert block.shape == (points, 3, fields)
    for f, (field_seed, point_seed) in enumerate(zip(seeds, point_seeds)):
        assert block[:, :, f].tobytes() == checks(field_seed, point_seed).tobytes()


RIEMANN_ARGV = ["riemann", "--fields", "9", "--points-per-field", "2", "--dims", "3",
                "--quadrature", "40"]


def test_riemann_bytes_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch):
    digests = set()
    for size in (1, 2, 7, riemann.block_size(3, 40, 2)):
        monkeypatch.setattr(riemann, "block_size", lambda *settings, size=size: size)
        out = tmp_path / f"block-{size}.csv"
        assert cli.cli_main([*RIEMANN_ARGV, "--out", str(out)]) == 0
        digests.add((out.read_bytes(), capsys.readouterr().out))
    assert len(digests) == 1
