"""Numerical checks of the interpolated metric-field view of the classifier.

The feature space is given a metric field g(x) = sum_k w_k(x - mu_k) P_k
where P_k is class k's precision (inverse covariance) and {w_k} is a
partition of unity that is exactly 1 on a plateau around each centroid.
Straight-line path energies under that field are integrated with piecewise
Gauss-Legendre quadrature, split where the path crosses a plateau or support
sphere, and the relative class scores are compared against the first-order
energy-gap approximation (1/2)(maha_i - maha_j).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spd
from .errors import DimensionMismatch, InvalidConfig
from .rng import Rng

_GL_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_ROOT_SIGNS = np.array([-1.0, 1.0])[:, None, None]


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

    support_radius: np.ndarray  # (K,)
    plateau_radius: np.ndarray  # (K,)

    def __post_init__(self):
        sup = np.asarray(self.support_radius, dtype=np.float64)
        flat = np.asarray(self.plateau_radius, dtype=np.float64)
        if sup.shape != flat.shape:
            raise DimensionMismatch("radius arrays disagree on K")
        if np.any(sup <= 0) or np.any(flat < 0) or np.any(flat >= sup):
            raise InvalidConfig("need 0 <= plateau < support radius per centroid")
        object.__setattr__(self, "support_radius", sup)
        object.__setattr__(self, "plateau_radius", flat)

    def weights(self, points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """(m, K) partition weights at each point."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        dist = np.linalg.norm(pts[:, None, :] - centroids[None, :, :], axis=2)
        return self.weights_at(dist)

    def weights_at(self, dist: np.ndarray) -> np.ndarray:
        """(m, K) partition weights from the (m, K) distances to each centroid."""
        s = (dist - self.plateau_radius) / (self.support_radius - self.plateau_radius)
        s = np.clip(s, 0.0, 1.0)
        raw = 1.0 - s * s * (3.0 - 2.0 * s)
        total = raw.sum(axis=1, keepdims=True)
        shifted = -(dist - dist.min(axis=1, keepdims=True))
        e = np.exp(shifted)
        soft = e / e.sum(axis=1, keepdims=True)
        return raw / np.maximum(total, 1.0) + np.maximum(1.0 - total, 0.0) * soft


@dataclass(frozen=True)
class MetricField:
    """Interpolated field of per-class precisions over class centroids."""

    centroids: np.ndarray  # (K, d)
    precisions: np.ndarray  # (K, d, d), SPD
    partition: PartitionOfUnity

    def __post_init__(self):
        # the plateau constraint w_k(mu_k) = 1 requires every other bump to
        # vanish at each centroid
        dist = np.linalg.norm(
            self.centroids[:, None, :] - self.centroids[None, :, :], axis=2
        )
        covers = dist < self.partition.support_radius[:, None]  # bump i covers mu_j
        np.fill_diagonal(covers, False)
        if np.any(covers):
            raise InvalidConfig("support radii overlap a foreign centroid; shrink them")

    @classmethod
    def from_covariances(
        cls, centroids, covariances, support_scale=0.45, flatness=0.5
    ) -> "MetricField":
        """Field from class covariances; radii scale with the smallest
        centroid separation and ``flatness`` sets plateau/support."""
        centroids = np.asarray(centroids, dtype=np.float64)
        k = centroids.shape[0]
        d = centroids.shape[1]
        precisions = np.empty((k, d, d))
        eye = np.eye(d)
        for i, cov in enumerate(covariances):
            precisions[i] = spd.solve_spd(spd.cholesky(cov), eye)
        if k == 1:
            radius = np.array([1.0])
        else:
            dist = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
            np.fill_diagonal(dist, np.inf)
            radius = np.full(k, support_scale * dist.min())
        part = PartitionOfUnity(radius, flatness * radius)
        return cls(centroids=centroids, precisions=precisions, partition=part)


def metric_at(field: MetricField, x: np.ndarray) -> np.ndarray:
    """The symmetrized metric tensor at one point: sum_k w_k(x - mu_k) P_k."""
    w = field.partition.weights(np.asarray(x, dtype=np.float64), field.centroids)[0]
    g = np.einsum("k,kde->de", w, field.precisions)
    return (g + g.T) / 2.0


def _crossings(part: PartitionOfUnity, a: float, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Parameters t in (0, 1) at which a line whose squared distance to
    centroid k is a t^2 + 2 b_k t + c_k crosses a plateau or support sphere."""
    radii = np.stack([part.plateau_radius, part.support_radius])  # (2, K)
    disc = b * b - a * (c - radii * radii)
    t = (_ROOT_SIGNS * np.sqrt(np.maximum(disc, 0.0)) - b) / a  # (2, 2, K)
    return t[(disc > 0.0) & (t > 0.0) & (t < 1.0)]


def _quadrature_grid(
    quadrature_points: int, breaks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise Gauss-Legendre nodes and weights on [0, 1].

    [0, 1] is cut at ``breaks``; each piece gets 8-point panels in
    proportion to its length, and at least one.
    """
    if quadrature_points < 2:
        raise InvalidConfig("need at least 2 quadrature points")
    edges = np.sort(np.concatenate([[0.0], breaks, [1.0]]))
    lengths = np.diff(edges)
    total = max(1, quadrature_points // _GL_ORDER)
    panels = np.maximum(1, np.rint(lengths * total).astype(np.int64))
    h = np.repeat(lengths / panels, panels)
    # panel j of a piece starts at its left edge plus j panel widths
    first = np.repeat(np.cumsum(panels) - panels, panels)
    starts = np.repeat(edges[:-1], panels) + (np.arange(h.size) - first) * h
    half = h[:, None] / 2.0
    nodes = (starts[:, None] + (_GL_NODES + 1.0) * half).ravel()
    weights = (_GL_WEIGHTS * half).ravel()
    return nodes, weights


def _energy_density(
    field: MetricField, x: np.ndarray, delta: np.ndarray, quadrature_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature weights, and delta^T g(x + t*delta) delta at the nodes.

    Along the line the squared distance to centroid k is the quadratic
    a t^2 + 2 b_k t + c_k.  The grid is split where it crosses a plateau or
    support radius, so no panel straddles a kink of the bumps, and the
    integrand is sum_k w_k(t) q_k with q_k = delta^T P_k delta.
    """
    offset = x - field.centroids  # (K, d)
    a = delta @ delta
    b = offset @ delta
    c = np.einsum("kd,kd->k", offset, offset)
    part = field.partition
    nodes, weights = _quadrature_grid(quadrature_points, _crossings(part, a, b, c))
    t = nodes[:, None]
    dist = np.sqrt(np.maximum((a * t + 2.0 * b) * t + c, 0.0))
    q = np.einsum("kde,d,e->k", field.precisions, delta, delta)
    return weights, part.weights_at(dist) @ q


def path_energy(
    field: MetricField, x: np.ndarray, y: np.ndarray, quadrature_points: int = 64
) -> float:
    """Energy of the straight-line path from x to y under the field:
    the integral over [0, 1] of (y-x)^T g((1-t)x + ty) (y-x)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    delta = y - x
    if not np.any(delta):
        return 0.0
    weights, vals = _energy_density(field, x, delta, quadrature_points)
    return float(weights @ vals)


class GapCheck(NamedTuple):
    delta_energy: float
    half_maha_gap: float
    relative_error: float


def energy_gap_check(
    field: MetricField, x: np.ndarray, i: int, j: int, quadrature_points: int = 256
) -> GapCheck:
    """Compare the numeric energy gap against its first-order approximation.

    Returns the straight-line energy difference
    ``E(x, mu_i) - E(x, mu_j)``, the half Mahalanobis gap
    ``(maha_i - maha_j) / 2``, and ``|gap - half| / |gap|``.
    """
    if i == j:
        raise InvalidConfig("need two distinct centroids")
    x = np.asarray(x, dtype=np.float64)
    e_i = path_energy(field, x, field.centroids[i], quadrature_points)
    e_j = path_energy(field, x, field.centroids[j], quadrature_points)
    delta_e = e_i - e_j
    maha = [
        float((x - field.centroids[k]) @ field.precisions[k] @ (x - field.centroids[k]))
        for k in (i, j)
    ]
    half_gap = 0.5 * (maha[0] - maha[1])
    rel = abs(delta_e - half_gap) / abs(delta_e) if delta_e != 0 else np.inf
    return GapCheck(delta_energy=delta_e, half_maha_gap=half_gap, relative_error=rel)


def make_two_centroid_field(
    seed: int,
    dims: int = 2,
    separation: float = 6.0,
    support_scale: float = 0.1,
    flatness: float = 0.5,
    weak_side_scale: float = 150.0,
) -> MetricField:
    """Seeded two-centroid field for the approximation checks.

    Centroid 0 (where test points are placed) gets a covariance inflated by
    ``weak_side_scale``, so the metric near the test point contributes
    little to either path energy; the dropped near-point term of the
    first-order expansion is then genuinely higher-order.  Small support
    radii keep plateau test points close to the centroid, which the
    half-gap approximation also needs.
    """
    rng = Rng(seed)
    direction = rng.normal(dims)
    direction /= np.linalg.norm(direction)
    centroids = np.stack([np.zeros(dims), separation * direction])

    # per centroid, a Gaussian for the eigenbasis, then eigenvalues in [1, 2)
    gauss = np.empty((2, dims, dims))
    eigs = np.empty((2, dims))
    for k in range(2):
        gauss[k] = rng.normal((dims, dims))
        eigs[k] = np.exp(rng.uniform(dims) * np.log(2.0))
    q, r = np.linalg.qr(gauss)
    q *= np.where(np.diagonal(r, axis1=1, axis2=2) >= 0, 1.0, -1.0)[:, None, :]
    covs = (q * eigs[:, None, :]) @ q.transpose(0, 2, 1)
    covs[0] *= weak_side_scale
    return MetricField.from_covariances(
        centroids, covs, support_scale=support_scale, flatness=flatness
    )


def sample_plateau_point(field: MetricField, k: int, rng: Rng) -> np.ndarray:
    """A point uniformly inside the plateau ball of centroid k."""
    d = field.centroids.shape[1]
    direction = rng.normal(d)
    direction /= np.linalg.norm(direction)
    radius = field.partition.plateau_radius[k] * float(rng.uniform(1)[0]) ** (1.0 / d)
    return field.centroids[k] + radius * direction
