"""Dense small-matrix primitives used by the filters.

Everything in this package works on small (at most ~10 x 10), dense, row-major
``numpy`` arrays, so the routines here favour robustness and clear error
reporting over asymptotic cleverness.  Inputs are never modified; results are
new arrays, except that `require_finite` returns a float array input itself.

Covariance recursions are symmetric and semidefinite only up to round-off: a
symmetric input is checked against `SYMMETRY_RTOL` and used as ``(A + A.T) / 2``,
and `PSD_RTOL` alone says what is semidefinite.  No matrix is perturbed.

NumPy is the only numerical dependency: factorizations and solves are
``numpy.linalg`` calls, and the filters' update divides only by scalars >= 1.
The filters' products call `einsum`, NumPy's C einsum bound once, which
``numpy.einsum`` calls with the same operands, so the bits are the same.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotPositiveDefinite, NotSymmetric

#: ``numpy.einsum`` without ``optimize`` (its default, the only mode used here)
#: is an ``__array_function__`` dispatcher and a Python function that returns
#: ``c_einsum(*operands)``; calling it directly saves those layers, about 0.8 µs
#: of a small product's few µs (one Xeon vCPU).  ``numpy._core`` is numpy >= 2.0.
einsum = np._core.multiarray.c_einsum

#: Relative tolerance for symmetry checks.
SYMMETRY_RTOL = 1e-10

#: Relative round-off tolerance of semidefiniteness: an eigenvalue within
#: ``PSD_RTOL * max|a|`` of zero is zero (`_require_psd`, the package's one rule).
PSD_RTOL = 1e-10


def require_finite(a: np.ndarray, name: str) -> np.ndarray:
    """Return ``a`` as a float array; NaN/Inf entries raise `NonFinite`."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise DimensionMismatch(f"{name}: empty array")
    if not np.isfinite(a).all():
        raise NonFinite(f"{name}: non-finite entries are not admitted")
    return a


def _require_psd(a: np.ndarray, name: str) -> None:
    """Raise `NotPositiveDefinite` unless each eigenvalue of ``a`` is ``>= -PSD_RTOL * max|a|``."""
    if not np.linalg.eigvalsh(a)[0] >= -PSD_RTOL * float(np.max(np.abs(a))):
        raise NotPositiveDefinite(f"{name} has a negative eigenvalue beyond tolerance")


def require_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """Check symmetry of a square matrix and return its symmetrized copy.

    The check is relative: ``max|A - A.T| <= SYMMETRY_RTOL * max(1, max|A|)``.
    A copy that overflows, from entries near the float maximum, raises `NonFinite`.
    """
    a = require_finite(a, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name}: expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    with np.errstate(over="ignore"):
        if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * scale:
            raise NotSymmetric(f"{name}: matrix is not symmetric within tolerance")
        return require_finite((a + a.T) / 2.0, f"{name} (symmetrized)")


def cholesky_stack(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of one matrix or a stack of matrices.

    Parameters
    ----------
    a : ndarray, shape (..., n, n)
        Symmetric PSD matrices, neither checked nor symmetrized here:
        `cholesky_lower` and `GaussianBelief` validate and symmetrize first,
        and the filters pass matrices that are exactly symmetric by
        construction, a belief's covariance or the packed predict's
        ``F P F' + Q`` (`robustkf.mckf._predict`).

    Returns
    -------
    ndarray, shape (..., n, n)
        Lower-triangular factors ``L`` with ``L @ L.T == a`` up to rounding, or
        for a fallback factor (below) within about ``sqrt(PSD_RTOL) * max|a_i|``.

    Raises
    ------
    NotPositiveDefinite
        If a matrix LAPACK cannot factor fails `_require_psd`.

    Notes
    -----
    A failing stack is factorized a matrix at a time, so no factor depends on
    its stack.  One that fails alone runs the Cholesky column loop as a Gram-Schmidt
    pass on the rows of the eigen-root of ``a_i / max|a_i|`` (eigenvalues up to
    `PSD_RTOL` zeroed): a pivot is the squared norm of what is left of its row,
    and one up to `PSD_RTOL` gives a zero column.  Worst ``max|L L' - a_i| /
    max|a_i|`` measured: 1.2e-8 on 16175 nearly singular 3 x 3 matrices.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    lower = np.empty_like(stack)
    for i, a_i in enumerate(stack):
        try:
            lower[i] = np.linalg.cholesky(a_i)
        except np.linalg.LinAlgError:
            _require_psd(a_i, "cholesky_stack input")
            scale = float(np.max(np.abs(a_i))) or 1.0
            lam, vec = np.linalg.eigh(a_i / scale)
            rest, lower[i] = vec * np.sqrt(np.where(lam > PSD_RTOL, lam, 0.0)), 0.0
            for j in range(n):
                if (pivot := rest[j] @ rest[j]) > PSD_RTOL:
                    unit = rest[j] / np.sqrt(pivot)
                    col = lower[i, j:, j] = rest[j:] @ unit
                    rest[j:] -= np.outer(col, unit)
            lower[i] *= np.sqrt(scale)
    return lower.reshape(a.shape)


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor ``L`` of a positive definite ``a``.

    Checks symmetry up to `SYMMETRY_RTOL` (`require_symmetric`), then
    factorizes the symmetrized matrix with `cholesky_stack`.

    Raises
    ------
    NotSymmetric
        If the input fails the symmetry check.
    NotPositiveDefinite
        If ``a`` is singular (its factor has a zero column) or indefinite.
    """
    lower = cholesky_stack(require_symmetric(a, "cholesky_lower"))
    if not lower.diagonal().all():
        raise NotPositiveDefinite("cholesky_lower: zero pivot, the matrix is singular")
    return lower


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for a symmetric positive definite ``a``.

    Factorizes once with `cholesky_lower` and solves with ``L`` and then
    ``L'``, never forming an explicit inverse.  ``b`` may be a vector or a
    matrix of right-hand sides; the result has the same shape as ``b``.

    Raises
    ------
    NotSymmetric, NotPositiveDefinite
        As `cholesky_lower`: ``a`` is asymmetric, singular or indefinite.
    """
    b = require_finite(b, "solve_spd rhs")
    lower = cholesky_lower(a)
    if b.shape[0] != lower.shape[0]:
        raise DimensionMismatch(
            f"solve_spd: rhs has {b.shape[0]} rows, matrix is {lower.shape[0]} x {lower.shape[0]}"
        )
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


def min_eigenvalue_symmetric(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = require_symmetric(a, "min_eigenvalue_symmetric")
    return float(np.linalg.eigvalsh(a)[0])

