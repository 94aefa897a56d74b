"""Dense symmetric-positive-definite linear algebra on plain arrays.

Factorization, solves, log-determinants and PSD repair used by every
classification head.  A factor is the lower-triangular Cholesky factor L as
a ``(d, d)`` array; ``quad_form`` and ``logdet`` also take a ``(K, d, d)``
stack of factors.  Inputs are checked for squareness and symmetrized as
(A + A^T) / 2 at the ``cholesky`` / ``ensure_pd`` boundary only.

Quadratic forms are evaluated as ||L^-1 v||^2 through the LAPACK triangular
inverse of the factor (``dtrtri``), never through an inverse of L L^T.  This
is acceptable because the conditioning that matters is that of L, the square
root of the conditioning of L L^T, and triangular inversion is as accurate
as a triangular solve for the well-conditioned, ridge-regularized factors
the heads produce.  The result stays an exact sum of squares, hence
nonnegative, and one inverse per class turns the scoring of every
(query, class) pair into a single batched matmul.
"""

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import DimensionMismatch, NotPositiveDefinite, NotRepairable

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
    return cho_solve((factor, True), v)


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
    if factor.ndim == 3:
        q = _stacked_quad_form(factor, rows)
        return q[0] if single else q
    q = _stacked_quad_form(factor[None], rows[:, None, :])[:, 0]
    return float(q[0]) if single else q


def _stacked_quad_form(factors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(m, K) forms of (m, K, d) rows against a (K, d, d) stack of factors."""
    inverses = np.stack([dtrtri(f, lower=1)[0] for f in factors])
    # (K, m, d) @ (K, d, d): y[k, i] = L_k^-1 rows[i, k]
    y = rows.transpose(1, 0, 2) @ inverses.transpose(0, 2, 1)
    return np.einsum("kmd,kmd->mk", y, y)


def logdet(factor: np.ndarray):
    """Log-determinant of the factored matrix: 2 * sum(log diag(L)).

    A float for one factor, a ``(K,)`` array for a stack of factors.
    """
    factor = np.asarray(factor, dtype=np.float64)
    out = 2.0 * np.sum(np.log(np.diagonal(factor, axis1=-2, axis2=-1)), axis=-1)
    return float(out) if factor.ndim == 2 else out


def ensure_pd(m, jitter_schedule=DEFAULT_JITTER_SCHEDULE) -> tuple[np.ndarray, np.ndarray]:
    """Repair a nearly-PSD matrix by adding the smallest scheduled jitter.

    Tries ``m + j*I`` for each ``j`` in the schedule in order and returns the
    first repaired (symmetrized) matrix together with its lower factor.  The
    schedule must be non-decreasing and start at 0 so exact-PD inputs come
    back unchanged.

    Raises
    ------
    NotRepairable
        If ``m`` has a non-finite entry, or no scheduled jitter makes the
        factorization succeed.
    """
    schedule = list(jitter_schedule)
    if not schedule or schedule[0] != 0.0:
        raise ValueError("jitter schedule must start at 0")
    if any(b < a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("jitter schedule must be non-decreasing")
    sym = _symmetrized(m)
    # dpotrf reports success on NaN input, so a NaN factor would pass through
    if not np.all(np.isfinite(sym)):
        raise NotRepairable("matrix has non-finite entries")
    eye = np.eye(sym.shape[0])
    for j in schedule:
        try:
            repaired = sym if j == 0.0 else sym + j * eye
            return repaired, cholesky(repaired)
        except NotPositiveDefinite:
            continue
    raise NotRepairable(f"no jitter in {schedule} repaired the matrix")
