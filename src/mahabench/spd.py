"""Dense symmetric-positive-definite linear algebra on plain arrays.

Factorization, solves, log-determinants and PSD repair used by every
classification head.  A factor is the lower-triangular Cholesky factor L as
a ``(d, d)`` array; ``quad_form`` and ``logdet`` also take a ``(K, d, d)``
stack of factors.  Inputs are checked for squareness and symmetrized as
(A + A^T) / 2 at the ``cholesky`` / ``ensure_pd`` / ``factor_stack``
boundary only.

``factor_stack`` factors a ``(K, d, d)`` stack of covariances in one pass:
one symmetrization and one finiteness check over the whole stack, then one
LAPACK ``dpotrf`` per matrix.  Only a matrix whose exact factorization
fails goes through ``ensure_pd``'s jitter schedule, and the jitter each
matrix needed comes back as a ``(K,)`` array, so no repair is silent.  The
result is bit-identical to calling ``ensure_pd`` on each matrix.

Quadratic forms are evaluated as ||L^-1 v||^2 through the LAPACK triangular
inverse of the factor (``dtrtri``), never through an inverse of L L^T.  This
is acceptable because the conditioning that matters is that of L, the square
root of the conditioning of L L^T, and triangular inversion is as accurate
as a triangular solve for the well-conditioned, ridge-regularized factors
the heads produce.  The result stays an exact sum of squares, hence
nonnegative, and one inverse per class turns the scoring of every
(query, class) pair into a single batched matmul.  ``factor_stack`` takes
each inverse in the same loop as its factor, so a caller that keeps them
(``heads.ClassStatistics.inverse_factors``) scores through
``inverse_quad_form(inverses, diffs, out=None)`` without inverting again;
``quad_form`` inverts its factors and delegates to the same kernel.  That
kernel takes class-major ``(K, m, d)`` differences, so a caller can build
them in a block of its own and pass a second block as ``out`` for the
images, which keeps the scoring hot path free of large allocations.

The three LAPACK routines (``dpotrf``, ``dpotrs``, ``dtrtri``) come from
scipy's compiled ``scipy/linalg/_flapack`` extension, loaded by file.  They
are the same wrappers ``scipy.linalg.lapack`` re-exports, linked to the same
scipy-openblas, so every result is bit-identical; but neither
``scipy/__init__`` nor ``scipy/linalg/__init__`` runs.  The latter costs
about 0.3 s, over half of every CLI call's start-up, because its
``array_api_compat`` shim imports ``numpy.f2py``, ``numpy.testing``,
``numpy.ma`` and ``numpy.random``.  numpy's own LAPACK is no substitute:
it has no ``dtrtri`` and links a different OpenBLAS build, so rows would
move.
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


def quad_form(factor: np.ndarray, diffs: np.ndarray):
    """Quadratic forms diff^T (L L^T)^-1 diff, one per row of ``diffs``.

    With one ``(d, d)`` factor, ``diffs`` is a single vector (a float is
    returned) or an ``(m, d)`` stack of rows (an ``(m,)`` array).  With a
    ``(K, d, d)`` stack of factors, ``diffs`` is ``(K, d)`` or ``(m, K, d)``
    and row i, class k is scored against factor k, giving ``(K,)`` or
    ``(m, K)``.
    """
    factor = np.asarray(factor, dtype=np.float64)
    diffs = np.asarray(diffs, dtype=np.float64)
    single = diffs.ndim == factor.ndim - 1
    rows = diffs[None] if single else diffs
    if (
        factor.ndim not in (2, 3)
        or rows.ndim != factor.ndim
        or rows.shape[1:] != factor.shape[:-1]
    ):
        raise DimensionMismatch(
            f"diffs of shape {diffs.shape} do not match factors of shape {factor.shape}"
        )
    stack = factor if factor.ndim == 3 else factor[None]
    inverses = np.stack([dtrtri(f, lower=1)[0] for f in stack])
    if factor.ndim == 3:
        q = inverse_quad_form(inverses, rows.transpose(1, 0, 2))
        return q[0] if single else q
    q = inverse_quad_form(inverses, rows[None])[:, 0]
    return float(q[0]) if single else q


def inverse_quad_form(
    inverses: np.ndarray, diffs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(m, K) forms ||L_k^-1 diffs[k, i]||^2 from a (K, d, d) stack of L_k^-1.

    ``diffs`` is class-major, ``(K, m, d)``: row i of class k is mapped by
    inverse k.  The inverses are the lower triangular ones ``factor_stack``
    returns.  The ``(K, m, d)`` images are written to ``out`` when given
    (a scratch block the caller owns), else to a new array; the returned
    forms are always a new array.
    """
    # (K, m, d) @ (K, d, d): y[k, i] = L_k^-1 diffs[k, i]
    y = np.matmul(diffs, inverses.transpose(0, 2, 1), out=out)
    return np.einsum("kmd,kmd->mk", y, y)


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
    ``(K,)`` jitter each matrix needed (0 for an exact factorization).  A
    matrix whose exact ``dpotrf`` fails is handed to ``ensure_pd``; every
    output is bit-identical to ``ensure_pd`` on each matrix in turn.

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
    sym = (a + a.transpose(0, 2, 1)) / 2.0
    # dpotrf reports success on NaN input, so a NaN factor would pass through
    if not np.all(np.isfinite(sym)):
        raise NotRepairable("matrix has non-finite entries")
    factors = np.empty_like(sym)
    inverses = np.empty_like(sym)
    jitter = np.zeros(sym.shape[0])
    for k, m in enumerate(sym):
        factor, info = dpotrf(m, lower=1, clean=1, overwrite_a=0)
        if info != 0:
            sym[k], factor, jitter[k] = ensure_pd(m)
        factors[k] = factor
        inverses[k] = dtrtri(factor, lower=1)[0]
    return sym, factors, inverses, jitter
