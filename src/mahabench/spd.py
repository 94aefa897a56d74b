"""Dense symmetric-positive-definite linear algebra on plain arrays.

Factorization, triangular inverses, log-determinants and PSD repair used
by every classification head and by riemann's metric fields.  A factor is
the lower-triangular Cholesky factor L as a ``(d, d)`` array;
``quad_form`` and ``logdet`` also take a ``(K, d, d)`` stack of factors.
Inputs are checked for squareness and symmetrized as (A + A^T) / 2 at the
``cholesky`` / ``ensure_pd`` / ``factor_stack`` boundary only.

``factor_stack`` factors a ``(K, d, d)`` stack of covariances in one pass:
one symmetrization and one finiteness check over the whole stack, then one
``np.linalg.cholesky`` call over the stack.  Only when that call fails does
each matrix go through ``ensure_pd``, which factors an exact-PD matrix as
it is and repairs the others on its jitter schedule; the jitter each
matrix needed comes back as a ``(K,)`` array, so no repair is silent.

Quadratic forms are evaluated as ||L^-1 v||^2 through the LAPACK triangular
inverse of the factor (``dtrtri``), never through an inverse of L L^T.  This
is acceptable because the conditioning that matters is that of L, the square
root of the conditioning of L L^T, and triangular inversion is as accurate
as a triangular solve for the well-conditioned, ridge-regularized factors
the heads produce.  The result stays an exact sum of squares, hence
nonnegative.  ``factor_stack`` takes each inverse after its factor, so a
caller that keeps them (``heads.ClassStatistics.inverse_factors``) scores
through ``inverse_quad_form(inverses, rows, centers)`` without inverting
again; ``quad_form`` inverts its factors and delegates to the same kernel.
The kernel maps every row under every class's inverse in one GEMM, after
shifting rows and centers by the mean of the centers.

A batch axis.  ``factor_stack`` and ``inverse_quad_form`` also take a
leading batch axis, B independent fits of the same shape: ``(B, K, d, d)``
covariances or inverses, ``(B, m, d)`` rows and ``(B, K, d)`` centers.
Slice b of every result has the bits of the call on slice b alone.  That
holds because a stacked ``np.matmul`` makes one BLAS call per slice, with
that slice's shape, the stacked ``np.linalg.cholesky`` one ``dpotrf`` per
matrix, and every elementwise operation and last-axis reduction acts per
element or per row; the one reduction over another axis (the mean of the
centers) adds in the same order either way.  Without the axis, a call is
the unbatched call it always was.

Which LAPACK runs where.  Every factorization and inverse runs in one
library: the scipy-openblas64 build numpy bundles
(``numpy.libs/libscipy_openblas64_*.so``), which ``import numpy`` has
already mapped.  ``np.linalg.cholesky`` runs ``factor_stack``'s stacked
factorization, the factorization of every head's and every riemann
field's covariances.  ``cholesky`` (and so every ``ensure_pd`` call) and
every inverse factor call that library's ``dpotrf`` and ``dtrtri`` through
ctypes, by their ILP64 symbols ``scipy_dpotrf_64_`` and
``scipy_dtrtri_64_``; numpy has no ``dtrtri`` of its own.  numpy runs the
same ``dpotrf`` on a column-major copy, lower triangle, as ``cholesky``
does, so ``cholesky`` has the bits of ``np.linalg.cholesky``.  Nothing
imports scipy, and a process maps one OpenBLAS.  The inverses keep the bits
of scipy's ``scipy.linalg.lapack.dtrtri``, which runs in scipy's own
OpenBLAS (3000 of 3000 random factors agreed, d = 1 to 69, scipy 1.17.1 and
numpy 2.4.6); scipy's ``dpotrf`` differs from numpy's in the last bit on
about half of such matrices.  A stack is inverted in place in one
column-major work copy, one ``dtrtri`` call per matrix by pointer offset,
so no call converts an array.
"""

import ctypes
import os

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotRepairable

_LAPACK_INT = ctypes.c_int64  # the library's ILP64 integers
_LAPACK_SYMBOLS = ("scipy_dpotrf_64_", "scipy_dtrtri_64_")


def _load_lapack():
    """``dpotrf`` and ``dtrtri`` of the OpenBLAS numpy bundles, as ctypes functions.

    They carry no ``argtypes``: every argument is passed as a ctypes object
    (``(uplo[, diag], n, a, lda, info)``, all by reference), which skips a
    conversion per argument and call, and nothing about them is set after
    the load.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    pattern = os.path.join(libs, "libscipy_openblas64_*.so")
    try:
        [name] = [n for n in os.listdir(libs)
                  if n.startswith("libscipy_openblas64_") and n.endswith(".so")]
        # the library numpy loaded: dlopen returns the mapping it already has
        lib = ctypes.CDLL(os.path.join(libs, name))
        return [getattr(lib, symbol) for symbol in _LAPACK_SYMBOLS]
    except (OSError, ValueError, AttributeError):
        raise ImportError(f"mahabench needs the OpenBLAS numpy bundles: no {pattern} "
                          f"with the symbols {', '.join(_LAPACK_SYMBOLS)}") from None


_dpotrf, _dtrtri = _load_lapack()

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
    work = np.asfortranarray(_symmetrized(m))  # a fresh array, never ``m``
    n, info = _LAPACK_INT(work.shape[0]), _LAPACK_INT(0)
    _dpotrf(ctypes.c_char_p(b"L"), ctypes.byref(n), ctypes.c_void_p(work.ctypes.data),
            ctypes.byref(n), ctypes.byref(info))
    if info.value > 0:
        raise NotPositiveDefinite(pivot=info.value - 1)
    if info.value < 0:
        raise ValueError(f"illegal argument {-info.value} passed to dpotrf")
    return np.ascontiguousarray(np.tril(work))


def _lower_inverses(factors: np.ndarray) -> np.ndarray:
    """The lower triangular inverses of a stack of lower factors, in C order.

    One ``dtrtri`` call per matrix, in place in a work copy: row-major L^T
    is column-major L.  Each inverse keeps its factor's strictly upper
    triangle, as ``dtrtri`` leaves it.

    Raises
    ------
    NotPositiveDefinite
        If a factor has a zero on its diagonal; carries the 0-based index.
    """
    d = factors.shape[-1]
    work = factors.swapaxes(-1, -2).copy()  # always a copy, even where d = 1
    n, info = _LAPACK_INT(d), _LAPACK_INT(0)
    n_ref, info_ref = ctypes.byref(n), ctypes.byref(info)
    lower, non_unit = ctypes.c_char_p(b"L"), ctypes.c_char_p(b"N")
    base, step = work.ctypes.data, d * d * work.itemsize
    for k in range(int(np.prod(work.shape[:-2]))):
        _dtrtri(lower, non_unit, n_ref, ctypes.c_void_p(base + k * step), n_ref, info_ref)
        if info.value:  # checked after every call
            if info.value < 0:
                raise ValueError(f"illegal argument {-info.value} passed to dtrtri")
            raise NotPositiveDefinite(info.value - 1, f"factor {k} is singular: "
                                      f"diagonal entry {info.value - 1} is zero")
    return np.ascontiguousarray(work.swapaxes(-1, -2))


def quad_form(factor: np.ndarray, rows: np.ndarray, centers: np.ndarray):
    """Quadratic forms (x - c)^T (L L^T)^-1 (x - c) for rows x and centers c.

    With one ``(d, d)`` factor, ``rows`` is a single vector (a float is
    returned) or an ``(m, d)`` stack (an ``(m,)`` array), and ``centers`` is
    one ``(d,)`` center.  With a ``(K, d, d)`` stack of factors, every row is
    scored against every class: ``centers`` is ``(K, d)`` and the result is
    ``(K,)`` for a vector or ``(m, K)`` for a stack, row i and class k
    scored under factor k.  The factors are inverted here and scored by
    ``inverse_quad_form``, the kernel the Mahalanobis head scores with.

    Raises
    ------
    DimensionMismatch
        If the factors are not non-empty square matrices, or the rows and
        centers do not match them.
    NotPositiveDefinite
        If a factor has a zero on its diagonal.
    """
    factor = np.asarray(factor, dtype=np.float64)
    x = np.asarray(rows, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    if (
        factor.ndim not in (2, 3)
        or factor.shape[-1] < 1
        or factor.shape[-1] != factor.shape[-2]
        or x.ndim not in (1, 2)
        or x.shape[-1] != factor.shape[-1]
        or c.shape != factor.shape[:-1]
    ):
        raise DimensionMismatch(
            f"rows of shape {x.shape} and centers of shape {c.shape} do not match"
            f" factors of shape {factor.shape}"
        )
    stack = factor if factor.ndim == 3 else factor[None]
    q = inverse_quad_form(_lower_inverses(stack), x.reshape(-1, x.shape[-1]), c.reshape(stack.shape[:2]))
    if factor.ndim == 2:
        q = q[:, 0]
    if x.ndim == 2:
        return q
    return q[0] if factor.ndim == 3 else float(q[0])


def inverse_quad_form(inverses: np.ndarray, rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(m, K) forms ||L_k^-1 (rows[i] - centers[k])||^2 from a (K, d, d) stack of L_k^-1.

    The inverses are the lower triangular ones ``factor_stack`` returns.
    Rows and centers are first shifted by the mean of the centers, ``s``.
    One ``(m, d) @ (d, K * d)`` GEMM then maps every row under every
    inverse, ``L_k^-1 (rows[i] - s)``, and ``L_k^-1 (centers[k] - s)`` is
    subtracted from each image, so each form is still an exact sum of
    squares.

    With a leading batch axis (``(B, K, d, d)`` inverses, ``(B, m, d)`` rows,
    ``(B, K, d)`` centers) the forms are ``(B, m, K)``, and slice b has the
    bits of the call on slice b alone: the stacked GEMM makes one BLAS call
    per slice.
    """
    *batch, k, d = centers.shape
    # BLAS rounding follows the memory layout, so the forms of a stack do
    # not depend on how it is laid out
    inverses = np.ascontiguousarray(inverses)
    shift = centers.sum(axis=-2, keepdims=True) / max(k, 1)
    # column block k of the right-hand side is L_k^-T
    right = inverses.transpose(*range(len(batch)), -1, -3, -2).reshape(*batch, d, k * d)
    images = ((rows - shift) @ right).reshape(*rows.shape[:-1], k, d)
    images -= np.matmul(inverses, (centers - shift)[..., None])[..., None, :, :, 0]
    return np.einsum("...kd,...kd->...k", images, images)


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
    inputs come back unchanged, with jitter 0.  When every absolute step
    fails, the nonzero steps are tried again times the largest diagonal
    entry ``s``, those above the last absolute step only: a singular matrix
    rounds by about eps * s, which no absolute step covers once ``s`` is
    large.  A matrix the absolute steps repair gets the same jitter either
    way.

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
    scale = float(np.max(np.diagonal(sym)))
    relative = tuple(j * scale for j in DEFAULT_JITTER_SCHEDULE[1:]
                     if j * scale > DEFAULT_JITTER_SCHEDULE[-1])
    for j in DEFAULT_JITTER_SCHEDULE + relative:
        try:
            repaired = sym if j == 0.0 else sym + j * eye
            return repaired, cholesky(repaired), float(j)
        except NotPositiveDefinite:
            continue
    raise NotRepairable(f"no jitter in {DEFAULT_JITTER_SCHEDULE + relative} repaired the matrix")


def factor_stack(covs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factor a ``(K, d, d)`` or ``(B, K, d, d)`` stack of covariances in one pass.

    Returns ``(repaired, factors, inverses, jitter)``: the symmetrized (and,
    where needed, repaired) covariances, their lower Cholesky factors, the
    lower triangular inverses of those factors, all shaped like ``covs``,
    and the ``(K,)`` or ``(B, K)`` jitter each matrix needed (0 for an
    exact factorization).  The stack is factored by one
    ``np.linalg.cholesky`` call, over all B * K matrices; when that raises,
    every matrix goes to ``ensure_pd``, whose first, exact attempt
    (jitter 0) has the bits of ``np.linalg.cholesky``.  So an exact factor
    has those bits on its matrix, and a repaired matrix, factor and jitter
    are ``ensure_pd``'s, whatever the other matrices of the stack are.
    Each inverse is one ``dtrtri`` call, on a work copy of the factors.

    Raises
    ------
    DimensionMismatch
        If ``covs`` is not a stack of non-empty square matrices.
    NotRepairable
        If an entry is non-finite, or no scheduled jitter repairs a matrix.
    """
    a = np.asarray(covs, dtype=np.float64)
    if a.ndim not in (3, 4) or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected a (K, d, d) or (B, K, d, d) stack, got shape {a.shape}")
    d = a.shape[-1]
    # C order whatever ``a``'s layout, so that the flat views below are views
    sym = np.add(a, a.swapaxes(-1, -2), order="C")
    sym /= 2.0
    # LAPACK's Cholesky reports success on NaN input, so a NaN factor would
    # pass through
    if not np.all(np.isfinite(sym)):
        raise NotRepairable("matrix has non-finite entries")
    jitter = np.zeros(sym.shape[:-2])
    try:
        factors = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        factors = np.empty_like(sym)
        # flat views of the stacks, one matrix per entry
        flat_sym, flat_factors = sym.reshape(-1, d, d), factors.reshape(-1, d, d)
        flat_jitter = jitter.reshape(-1)
        for k, m in enumerate(flat_sym):
            flat_sym[k], flat_factors[k], flat_jitter[k] = ensure_pd(m)
    return sym, factors, _lower_inverses(factors), jitter
