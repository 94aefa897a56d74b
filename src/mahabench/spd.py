"""Dense symmetric-positive-definite linear algebra on plain arrays.

Factorization, solves, log-determinants and PSD repair used by every
classification head.  A factor is the lower-triangular Cholesky factor L as
a ``(d, d)`` array; ``quad_form`` and ``logdet`` also take a ``(K, d, d)``
stack of factors.  Inputs are checked for squareness and symmetrized as
(A + A^T) / 2 at the ``cholesky`` / ``ensure_pd`` / ``factor_stack``
boundary only.

``factor_stack`` factors a ``(K, d, d)`` stack of covariances in one pass:
one symmetrization and one finiteness check over the whole stack, then one
``np.linalg.cholesky`` call over the stack.  Only a matrix whose exact
factorization fails goes through ``ensure_pd``'s jitter schedule, and the
jitter each matrix needed comes back as a ``(K,)`` array, so no repair is
silent.

Quadratic forms are evaluated as ||L^-1 v||^2 through the LAPACK triangular
inverse of the factor (``dtrtri``), never through an inverse of L L^T.  This
is acceptable because the conditioning that matters is that of L, the square
root of the conditioning of L L^T, and triangular inversion is as accurate
as a triangular solve for the well-conditioned, ridge-regularized factors
the heads produce.  The result stays an exact sum of squares, hence
nonnegative.  ``factor_stack`` takes each inverse after its factor, so a
caller that keeps them (``heads.ClassStatistics.inverse_factors``) scores
through ``inverse_quad_form(inverses, rows, centers, out=None)`` without
inverting again; ``quad_form`` inverts its factors and delegates to the
same kernel.  The kernel maps every row under every class's inverse in one
GEMM, after shifting rows and centers by the mean of the centers, and
writes those images to ``out`` when given, so a caller can keep the
scoring hot path free of large allocations.

Which LAPACK runs where.  numpy's own LAPACK (its bundled scipy-openblas64)
runs ``factor_stack``'s stacked ``np.linalg.cholesky``, the factorization
of every head's covariances; the rounding of its ``dpotrf`` can differ
from scipy's in the last bit, which is why an exact factor is pinned to
``np.linalg.cholesky``.  scipy's compiled ``scipy/linalg/_flapack``
extension, linked to scipy's own scipy-openblas, runs the rest: ``dpotrf``
in ``cholesky`` (and so every ``ensure_pd`` repair, and every riemann
covariance), ``dtrtri`` for every inverse factor and ``dpotrs`` in
``solve_spd``.  numpy has no ``dtrtri`` and no ``dpotrs`` of its own.
``_flapack`` is loaded by file: the wrappers are the ones
``scipy.linalg.lapack`` re-exports, so every result is bit-identical, but
neither ``scipy/__init__`` nor ``scipy/linalg/__init__`` runs.  The latter
costs about 0.3 s, over half of every CLI call's start-up, because its
``array_api_compat`` shim imports ``numpy.f2py``, ``numpy.testing``,
``numpy.ma`` and ``numpy.random``.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotRepairable


def _load_flapack():
    """scipy's ``linalg/_flapack`` extension module, without scipy's package inits."""
    scipy_spec = importlib.util.find_spec("scipy")  # locates scipy, does not import it
    spec = scipy_spec and importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(scipy_spec.submodule_search_locations[0], "linalg")])
    if spec is None:
        raise ImportError("mahabench needs scipy (its linalg/_flapack extension)")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # creating a single-phase extension module registers it in sys.modules
    # under its bare name; the load should leave no trace there
    sys.modules.pop(spec.name, None)
    return module


_flapack = _load_flapack()
dpotrf, dpotrs, dtrtri = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtri

# First entry 0 so well-conditioned inputs are never perturbed; the tail
# guards pathological synthetic inputs (e.g. beta=0 ablations).
DEFAULT_JITTER_SCHEDULE = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)


def _symmetrized(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("matrix dimension must be at least 1")
    return (a + a.T) / 2.0


def cholesky(m) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Parameters
    ----------
    m : (d, d) array_like
        Matrix to factor; symmetrized on entry.

    Raises
    ------
    DimensionMismatch
        If ``m`` is not a non-empty square matrix.
    NotPositiveDefinite
        If some leading minor is singular or negative; carries the 0-based
        failing pivot index.
    """
    c, info = dpotrf(_symmetrized(m), lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefinite(pivot=int(info) - 1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to dpotrf")
    return c


def solve_spd(factor: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = v given the factor L."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != factor.shape[0]:
        raise DimensionMismatch(f"vector length {v.shape[0]} != matrix dim {factor.shape[0]}")
    if not (np.all(np.isfinite(factor)) and np.all(np.isfinite(v))):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dpotrs(factor, v, lower=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to dpotrs")
    return x


def quad_form(factor: np.ndarray, rows: np.ndarray, centers: np.ndarray):
    """Quadratic forms (x - c)^T (L L^T)^-1 (x - c) for rows x and centers c.

    With one ``(d, d)`` factor, ``rows`` is a single vector (a float is
    returned) or an ``(m, d)`` stack (an ``(m,)`` array), and ``centers`` is
    one ``(d,)`` center.  With a ``(K, d, d)`` stack of factors, every row is
    scored against every class: ``centers`` is ``(K, d)`` and the result is
    ``(K,)`` for a vector or ``(m, K)`` for a stack, row i and class k
    scored under factor k.  The factors are inverted here and scored by
    ``inverse_quad_form``, the kernel the Mahalanobis head scores with.
    """
    factor = np.asarray(factor, dtype=np.float64)
    x = np.asarray(rows, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    if (
        factor.ndim not in (2, 3)
        or x.ndim not in (1, 2)
        or x.shape[-1] != factor.shape[-1]
        or c.shape != factor.shape[:-1]
    ):
        raise DimensionMismatch(
            f"rows of shape {x.shape} and centers of shape {c.shape} do not match"
            f" factors of shape {factor.shape}"
        )
    stack = factor if factor.ndim == 3 else factor[None]
    inverses = np.stack([dtrtri(f, lower=1)[0] for f in stack])
    q = inverse_quad_form(inverses, x.reshape(-1, x.shape[-1]), c.reshape(stack.shape[:2]))
    if factor.ndim == 2:
        q = q[:, 0]
    if x.ndim == 2:
        return q
    return q[0] if factor.ndim == 3 else float(q[0])


def inverse_quad_form(
    inverses: np.ndarray, rows: np.ndarray, centers: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(m, K) forms ||L_k^-1 (rows[i] - centers[k])||^2 from a (K, d, d) stack of L_k^-1.

    The inverses are the lower triangular ones ``factor_stack`` returns.
    Rows and centers are first shifted by the mean of the centers, ``s``.
    One ``(m, d) @ (d, K * d)`` GEMM then maps every row under every
    inverse, ``L_k^-1 (rows[i] - s)``, and ``L_k^-1 (centers[k] - s)`` is
    subtracted from each image, so each form is still an exact sum of
    squares.  The ``(m, K * d)`` images are written to ``out`` when given
    (a scratch block the caller owns), else to a new array; the returned
    forms are always a new array.
    """
    k, d = centers.shape
    # BLAS rounding follows the memory layout, so the forms of a stack do
    # not depend on how it is laid out
    inverses = np.ascontiguousarray(inverses)
    shift = centers.sum(axis=0) / max(k, 1)
    # column block k of the right-hand side is L_k^-T
    right = inverses.transpose(2, 0, 1).reshape(d, k * d)
    images = np.matmul(rows - shift, right, out=out)
    images = images.reshape(rows.shape[0], k, d)
    images -= np.matmul(inverses, (centers - shift)[:, :, None])[:, :, 0]
    return np.einsum("mkd,mkd->mk", images, images)


def logdet(factor: np.ndarray):
    """Log-determinant of the factored matrix: 2 * sum(log diag(L)).

    A float for one factor, a ``(K,)`` array for a stack of factors.
    """
    factor = np.asarray(factor, dtype=np.float64)
    out = 2.0 * np.sum(np.log(np.diagonal(factor, axis1=-2, axis2=-1)), axis=-1)
    return float(out) if factor.ndim == 2 else out


def ensure_pd(m) -> tuple[np.ndarray, np.ndarray, float]:
    """Repair a nearly-PSD matrix by adding the smallest scheduled jitter.

    Tries ``m + j*I`` for each ``j`` in ``DEFAULT_JITTER_SCHEDULE`` in order
    and returns the first repaired (symmetrized) matrix, its lower factor
    and the jitter ``j`` that worked.  The schedule starts at 0, so exact-PD
    inputs come back unchanged, with jitter 0.

    Raises
    ------
    NotRepairable
        If ``m`` has a non-finite entry, or no scheduled jitter makes the
        factorization succeed.
    """
    sym = _symmetrized(m)
    # dpotrf reports success on NaN input, so a NaN factor would pass through
    if not np.all(np.isfinite(sym)):
        raise NotRepairable("matrix has non-finite entries")
    eye = np.eye(sym.shape[0])
    for j in DEFAULT_JITTER_SCHEDULE:
        try:
            repaired = sym if j == 0.0 else sym + j * eye
            return repaired, cholesky(repaired), float(j)
        except NotPositiveDefinite:
            continue
    raise NotRepairable(f"no jitter in {DEFAULT_JITTER_SCHEDULE} repaired the matrix")


def factor_stack(covs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factor a ``(K, d, d)`` stack of covariances in one pass.

    Returns ``(repaired, factors, inverses, jitter)``: the symmetrized (and,
    where needed, repaired) covariances, their lower Cholesky factors, the
    lower triangular inverses of those factors, all ``(K, d, d)``, and the
    ``(K,)`` jitter each matrix needed (0 for an exact factorization).  The
    stack is factored by one ``np.linalg.cholesky`` call; when that raises,
    each matrix is factored on its own, and one whose exact factorization
    fails is handed to ``ensure_pd``.  So an exact factor has the bits of
    ``np.linalg.cholesky`` on its matrix, and a repaired matrix, factor and
    jitter are ``ensure_pd``'s.  Each inverse is one ``dtrtri`` call.

    Raises
    ------
    DimensionMismatch
        If ``covs`` is not a stack of non-empty square matrices.
    NotRepairable
        If an entry is non-finite, or no scheduled jitter repairs a matrix.
    """
    a = np.asarray(covs, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise DimensionMismatch(f"expected a (K, d, d) stack, got shape {a.shape}")
    sym = a + a.transpose(0, 2, 1)
    sym /= 2.0
    # LAPACK's Cholesky reports success on NaN input, so a NaN factor would
    # pass through
    if not np.all(np.isfinite(sym)):
        raise NotRepairable("matrix has non-finite entries")
    jitter = np.zeros(sym.shape[0])
    try:
        factors = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        factors = np.empty_like(sym)
        for k, m in enumerate(sym):
            try:
                factors[k] = np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                sym[k], factors[k], jitter[k] = ensure_pd(m)
    inverses = np.empty_like(sym)
    for k, factor in enumerate(factors):
        inverses[k] = dtrtri(factor, lower=1)[0]
    return sym, factors, inverses, jitter
