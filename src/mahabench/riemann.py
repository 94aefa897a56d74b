"""Numerical checks of the interpolated metric-field view of the classifier.

The feature space is given a metric field g(x) = sum_k w_k(x - mu_k) P_k
where P_k is class k's precision (inverse covariance) and {w_k} is a
partition of unity that is exactly 1 on a plateau around each centroid.
Straight-line path energies under that field are integrated with piecewise
8-point Gauss-Legendre quadrature, split where the path crosses a plateau or
support sphere, and the relative class scores are compared against the
first-order energy-gap approximation (1/2)(maha_i - maha_j).  The 8-point
table is written out as float literals, bit for bit the nodes and weights of
``numpy.polynomial.legendre.leggauss(8)``, so that importing this module
does not import ``numpy.polynomial``.

Fields come in blocks: F fields have centroids (F, K, d), precisions
(F, K, d, d) and radii (F, K), one point each, (F, d), and results (F,).
A field without the leading axis (an int seed, or arrays built by hand) is
a block of one on the same code path, with float results.  Everything is
an array expression over the block: the block's covariances are factored
by one ``spd.factor_stack`` call, and its paths' ragged quadrature grids
are one node array, path p owning nodes offsets[p]:offsets[p + 1], mixed
in ``(K, nodes)`` columns and summed per path by one ``np.add.reduceat``.

A field's results do not depend on its block.  Every sum runs over the
last, contiguous axis of an elementwise product (``_quadratic_forms``,
``_unit``) or over K in index order (``functools.reduce``), so it adds the
same numbers in the same order whatever the block; the QR, the covariance
products and the factorizations are stacked LAPACK and BLAS calls, one per
matrix, with that matrix's shape.  A stacked ``np.einsum`` over fields
would not be: its loop order follows the block's shape.  Python's float
``**`` in ``sample_plateau_point`` stays too; numpy's vectorized power
rounds differently.
"""

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import spd
from .errors import DimensionMismatch, InvalidConfig
from .rng import Rng

_GL_ORDER = 8
# ``np.polynomial.legendre.leggauss(8)`` as exact float reprs; calling it
# would import ``numpy.polynomial``, 1.5 MiB of every run's resident memory
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
_ROOT_SIGNS = np.array([-1.0, 1.0])[:, None, None]
_BLOCK_BUDGET = 1 << 15  # quadrature nodes and matrix entries per block of fields


@dataclass(frozen=True)
class PartitionOfUnity:
    """Compact-support bumps, flat on an inner plateau, renormalized.

    Each raw bump is 1 for r <= plateau, decays C1-smoothly (cubic
    smoothstep) to 0 at the support radius, and vanishes beyond.  Where the
    bumps sum to less than 1, the deficit is carried by inverse-distance
    softmax weights, so the partition stays defined everywhere and the
    handoff is continuous (C1 when supports do not overlap, since the bump
    slope vanishes at both the plateau edge and the support edge).

    The second derivative jumps on each plateau sphere |x - mu_k| = plateau
    and each support sphere |x - mu_k| = support; the path quadrature splits
    at those crossings.  Where supports overlap, the ``max(total, 1)``
    switch adds kinks on the surface where the bumps sum to 1, which the
    split does not find, so quadrature there converges only algebraically.
    """

    support_radius: np.ndarray  # (K,), or (F, K) for a block
    plateau_radius: np.ndarray  # (K,), or (F, K) for a block

    def __post_init__(self):
        sup = np.asarray(self.support_radius, dtype=np.float64)
        flat = np.asarray(self.plateau_radius, dtype=np.float64)
        if sup.shape != flat.shape:
            raise DimensionMismatch("radius arrays disagree on K")
        if np.any(sup <= 0) or np.any(flat < 0) or np.any(flat >= sup):
            raise InvalidConfig("need 0 <= plateau < support radius per centroid")
        object.__setattr__(self, "support_radius", sup)
        object.__setattr__(self, "plateau_radius", flat)


def _column_weights(cols, plateau, support) -> np.ndarray:
    """(K, m) ``PartitionOfUnity`` weights from (K, m) columns of distances
    and of the plateau and support radii each distance is measured against.
    Each step is one long loop over m; sums over K run in index order."""
    s = np.clip((cols - plateau) / (support - plateau), 0.0, 1.0)
    raw = 1.0 - s * s * (3.0 - 2.0 * s)
    total = reduce(np.add, raw)
    e = np.exp(-(cols - reduce(np.minimum, cols)))
    soft = e / reduce(np.add, e)
    return raw / np.maximum(total, 1.0) + np.maximum(1.0 - total, 0.0) * soft


def _pair_distances(centroids: np.ndarray) -> np.ndarray:
    """(..., K, K) distances between each field's centroids."""
    diff = centroids[..., :, None, :] - centroids[..., None, :, :]
    return np.linalg.norm(diff, axis=-1)


@dataclass(frozen=True)
class MetricField:
    """Interpolated field of per-class precisions over class centroids."""

    centroids: np.ndarray  # (K, d), or (F, K, d) for a block
    precisions: np.ndarray  # (K, d, d), or (F, K, d, d); SPD
    partition: PartitionOfUnity

    def __post_init__(self):
        # the plateau constraint w_k(mu_k) = 1 requires every other bump to
        # vanish at each centroid
        dist = _pair_distances(self.centroids)
        covers = dist < self.partition.support_radius[..., :, None]  # bump i covers mu_j
        if np.any(covers & ~np.eye(dist.shape[-1], dtype=bool)):
            raise InvalidConfig("support radii overlap a foreign centroid; shrink them")

    @classmethod
    def from_covariances(cls, centroids, covariances, support_scale=0.45,
                         flatness=0.5) -> "MetricField":
        """Field from class covariances; radii scale with the smallest
        centroid separation and ``flatness`` sets plateau/support.

        Raises ``NotPositiveDefinite`` for a covariance that factors only
        after a repair, and ``NotRepairable`` for one no repair factors or
        with a non-finite entry."""
        centroids = np.asarray(centroids, dtype=np.float64)
        covariances = np.asarray(covariances, dtype=np.float64)
        k, d = centroids.shape[-2:]
        _sym, _factors, inverses, jitter = spd.factor_stack(covariances)
        if np.any(jitter):
            # a field's metric is never silently repaired: the exact
            # factorization ensure_pd tried first fails again, with its pivot
            spd.cholesky(covariances.reshape(-1, d, d)[np.flatnonzero(jitter)[0]])
        precisions = np.swapaxes(inverses, -1, -2) @ inverses  # P = L^-T L^-1
        if k == 1:
            radius = np.ones(centroids.shape[:-1])
        else:
            dist = _pair_distances(centroids)
            dist[..., np.arange(k), np.arange(k)] = np.inf
            nearest = dist.min(axis=(-2, -1))[..., None]
            radius = np.repeat(support_scale * nearest, k, axis=-1)
        part = PartitionOfUnity(radius, flatness * radius)
        return cls(centroids=centroids, precisions=precisions, partition=part)


def check_settings(*, dims: int = 1, weak_side_scale: float = 1.0,
                   quadrature_points: int = 2, separation: float = 1.0,
                   support_scale: float = 0.5, flatness: float = 0.5) -> None:
    """Raise ``InvalidConfig`` for a setting no field or grid can take;
    callers pass the settings they take.  A two-centroid field's support
    radius is ``support_scale`` times the centroid distance |``separation``|
    and its plateau ``flatness`` times that, so its checks pass when
    0 <= flatness < 1, 0 < support_scale <= 1 and separation != 0, and
    exactly so while the scales stay within 2^±64 and the radii normal.
    """
    if dims < 1:
        raise InvalidConfig("dims must be at least 1")
    if not weak_side_scale > 0:
        raise InvalidConfig("weak_side_scale must be positive")
    if quadrature_points < 2:
        raise InvalidConfig("need at least 2 quadrature points")
    if not 2.0**-64 <= abs(separation) <= 2.0**64:
        raise InvalidConfig("|separation| must be in [2^-64, 2^64]")
    if not 2.0**-64 <= support_scale <= 1.0:
        raise InvalidConfig("support_scale must be in [2^-64, 1]")
    if not 0.0 <= flatness < 1.0:
        raise InvalidConfig("flatness must be in [0, 1)")


def block_size(dims: int, quadrature_points: int, points_per_field: int) -> int:
    """Two-centroid fields per block, for about ``_BLOCK_BUDGET`` entries of
    work whatever the settings: two ``dims^2`` covariances per field, and per
    point two paths of at most ``quadrature_points + 80`` nodes (8 per panel,
    quadrature_points / 8 panels plus one per piece, at most 9 pieces)."""
    nodes = 2 * points_per_field * (quadrature_points + 80)
    return max(1, _BLOCK_BUDGET // (nodes + 2 * dims * dims))


def _quadratic_forms(matrices: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v^T M v for each (..., d, d) matrix and (..., d) row, as sums over the
    last axis of elementwise products."""
    return ((matrices * v[..., None, :]).sum(-1) * v).sum(-1)


def _unit(rows: np.ndarray) -> np.ndarray:
    """Each row over its Euclidean norm."""
    return rows / np.sqrt((rows * rows).sum(-1))[..., None]


def _crossings(plateau, support, a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """The t in (0, 1) where path p, at squared distance a_p t^2 + 2 b_pk t +
    c_pk from centroid k, crosses a plateau or support sphere: (P, 4K) rows
    of ``counts[p]`` crossings padded with 1.0, and ``counts``."""
    radii = np.stack([plateau, support], axis=1)  # (P, 2, K)
    disc = b[:, None] * b[:, None] - a[:, None, None] * (c[:, None] - radii * radii)
    root = np.sqrt(np.maximum(disc, 0.0))[:, None]
    t = (_ROOT_SIGNS * root - b[:, None, None]) / a[:, None, None, None]  # (P, 2, 2, K)
    hit = ((disc[:, None] > 0.0) & (t > 0.0) & (t < 1.0)).reshape(len(a), -1)
    return np.where(hit, t.reshape(hit.shape), 1.0), hit.sum(axis=1)


def _quadrature_grid(quadrature_points: int, breaks: np.ndarray, counts: np.ndarray):
    """Piecewise Gauss-Legendre nodes and weights on [0, 1] for each path,
    one array each, and each path's node ``offsets``.  Path p's [0, 1] is cut
    at the first ``counts[p]`` entries of ``breaks[p]``; each piece gets
    8-point panels in proportion to its length, and at least one."""
    check_settings(quadrature_points=quadrature_points)
    zeros = np.zeros((len(breaks), 1))
    edges = np.sort(np.concatenate([zeros, breaks, zeros + 1.0], axis=1), axis=1)
    pieces = np.arange(edges.shape[1] - 1) <= counts[:, None]  # counts[p] + 1 per path
    lengths = np.diff(edges, axis=1)[pieces]
    total = max(1, quadrature_points // _GL_ORDER)
    panels = np.maximum(1, np.rint(lengths * total).astype(np.int64))
    h = np.repeat(lengths / panels, panels)
    # panel j of a piece starts at its left edge plus j panel widths
    first = np.repeat(np.cumsum(panels) - panels, panels)
    starts = np.repeat(edges[:, :-1][pieces], panels) + (np.arange(h.size) - first) * h
    half = h[:, None] / 2.0
    nodes = (starts[:, None] + (_GL_NODES + 1.0) * half).ravel()
    weights = (_GL_WEIGHTS * half).ravel()
    ends_at = np.cumsum(panels)[np.cumsum(counts + 1) - 1]  # each path's last panel
    return nodes, weights, np.concatenate([[0], _GL_ORDER * ends_at])


def _moving_path_energies(field, rows, x, delta, quadrature_points) -> np.ndarray:
    """Energies of the paths x_p + t delta_p, t in [0, 1], delta_p != 0, under
    the fields ``rows`` of the block ``field``.

    Along path p the squared distance to centroid k is the quadratic
    a_p t^2 + 2 b_pk t + c_pk.  The grid is split where it crosses a plateau
    or support radius, so no panel straddles a kink of the bumps, and the
    integrand is sum_k w_k(t) q_k with q_k = delta_p^T P_k delta_p.
    """
    k, d = field.centroids.shape[-2:]
    offset = x[:, None, :] - field.centroids.reshape(-1, k, d)[rows]
    a = (delta * delta).sum(-1)
    b = (offset * delta[:, None, :]).sum(-1)
    c = (offset * offset).sum(-1)
    part = field.partition
    plateau = part.plateau_radius.reshape(-1, k)[rows]
    support = part.support_radius.reshape(-1, k)[rows]
    nodes, weights, offsets = _quadrature_grid(
        quadrature_points, *_crossings(plateau, support, a, b, c))
    q = _quadratic_forms(field.precisions.reshape(-1, k, d, d)[rows], delta[:, None, :])
    counts = np.diff(offsets)
    # per node, its path's values, one (K, nodes) column block each
    b, c, plateau, support, q = (np.repeat(v.T, counts, axis=1)
                                 for v in (b, c, plateau, support, q))
    dist = np.sqrt(np.maximum((np.repeat(a, counts) * nodes + 2.0 * b) * nodes + c, 0.0))
    integrand = reduce(np.add, _column_weights(dist, plateau, support) * q)
    return np.add.reduceat(weights * integrand, offsets[:-1])


def _result(values: np.ndarray, lead: tuple):
    """A block's per-field results in the block's shape; a float without one."""
    return float(values[0]) if lead == () else values.reshape(lead)


def path_energy(field: MetricField, x: np.ndarray, y: np.ndarray, quadrature_points: int = 64):
    """Energy of the straight-line path from x to y under the field: the
    integral over [0, 1] of (y-x)^T g((1-t)x + ty) (y-x).  In a block, x and
    y are (F, d) and the result is (F,), one path per field."""
    lead, d = field.centroids.shape[:-2], field.centroids.shape[-1]
    x, y = (np.broadcast_to(np.asarray(v, dtype=np.float64), (*lead, d)).reshape(-1, d)
            for v in (x, y))
    delta = y - x
    energies = np.zeros(len(delta))
    moving = np.flatnonzero(delta.any(axis=1))
    if moving.size:
        energies[moving] = _moving_path_energies(
            field, moving, x[moving], delta[moving], quadrature_points)
    return _result(energies, lead)


class GapCheck(NamedTuple):
    delta_energy: float  # each (F,) for a block
    half_maha_gap: float
    relative_error: float


def energy_gap_check(
    field: MetricField, x: np.ndarray, i: int, j: int, quadrature_points: int = 256
) -> GapCheck:
    """Compare the numeric energy gap against its first-order approximation.

    Returns the straight-line energy difference
    ``E(x, mu_i) - E(x, mu_j)``, the half Mahalanobis gap
    ``(maha_i - maha_j) / 2``, and ``|gap - half| / |gap|``; in a block,
    x is (F, d) and each is (F,).
    """
    if i == j:
        raise InvalidConfig("need two distinct centroids")
    x, cents, precs = np.asarray(x, dtype=np.float64), field.centroids, field.precisions
    e_i = np.reshape(path_energy(field, x, cents[..., i, :], quadrature_points), -1)
    e_j = np.reshape(path_energy(field, x, cents[..., j, :], quadrature_points), -1)
    delta_e = e_i - e_j
    pair = [i, j]
    maha = _quadratic_forms(precs[..., pair, :, :], x[..., None, :] - cents[..., pair, :])
    half_gap = np.reshape(0.5 * (maha[..., 0] - maha[..., 1]), -1)
    rel = np.full(delta_e.shape, np.inf)
    np.divide(np.abs(delta_e - half_gap), np.abs(delta_e), out=rel, where=delta_e != 0)
    return GapCheck(*(_result(v, cents.shape[:-2]) for v in (delta_e, half_gap, rel)))


def make_two_centroid_field(seed, dims: int = 2, separation: float = 6.0,
                            support_scale: float = 0.1, flatness: float = 0.5,
                            weak_side_scale: float = 150.0) -> MetricField:
    """Seeded two-centroid field for the approximation checks; an array of
    seeds gives a block with one field per seed.

    Centroid 0 (where test points are placed) gets a covariance inflated by
    ``weak_side_scale``, so the metric near the test point contributes
    little to either path energy; the dropped near-point term of the
    first-order expansion is then genuinely higher-order.  Small support
    radii keep plateau test points close to the centroid, which the
    half-gap approximation also needs.

    Raises ``InvalidConfig`` for ``dims < 1`` or ``weak_side_scale <= 0``.
    """
    check_settings(dims=dims, weak_side_scale=weak_side_scale)
    rng = Rng(seed)
    direction = _unit(rng.normal(dims))
    centroids = np.stack([np.zeros_like(direction), separation * direction], axis=-2)

    # per centroid, a Gaussian for the eigenbasis, then eigenvalues in [1, 2)
    draws = [(rng.normal((dims, dims)), rng.uniform(dims)) for _k in range(2)]
    gauss = np.stack([g for g, _u in draws], axis=-3)
    eigs = np.exp(np.stack([u for _g, u in draws], axis=-2) * np.log(2.0))
    q, r = np.linalg.qr(gauss)
    q *= np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0, 1.0, -1.0)[..., None, :]
    covs = (q * eigs[..., None, :]) @ np.swapaxes(q, -1, -2)
    covs[..., 0, :, :] *= weak_side_scale
    return MetricField.from_covariances(centroids, covs, support_scale, flatness)


def sample_plateau_point(field: MetricField, k: int, rng: Rng) -> np.ndarray:
    """A point uniformly inside the plateau ball of centroid k; in a block,
    one per field, from an ``Rng`` with one seed per field."""
    d = field.centroids.shape[-1]
    direction = _unit(rng.normal(d))
    u = rng.uniform(1)[..., 0]
    scale = np.reshape([float(v) ** (1.0 / d) for v in np.ravel(u)], u.shape)
    radius = field.partition.plateau_radius[..., k] * scale
    return field.centroids[..., k, :] + radius[..., None] * direction
