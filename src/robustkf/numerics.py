"""Dense small-matrix primitives used by the filters.

Everything in this package works on small (at most ~10 x 10), dense,
row-major ``numpy`` arrays, so the routines here favour robustness and
clear error reporting over asymptotic cleverness.  All operations are pure:
inputs are never modified and results are freshly allocated.

Covariance recursions are symmetric analytically but not numerically, so
every operation that requires a symmetric input first checks symmetry
against a relative tolerance and then works on ``(A + A.T) / 2``.

NumPy is the only numerical dependency: factorizations and solves here and
throughout the package are ``numpy.linalg`` calls.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotPositiveDefinite, NotSymmetric

#: Relative tolerance for symmetry checks.
SYMMETRY_RTOL = 1e-10

#: Diagonal jitter used to absorb round-off indefiniteness, scaled by
#: ``max(1, max|a|)``: relative above unit scale, absolute below it.
CHOLESKY_JITTER = 1e-12


def require_finite(a: np.ndarray, name: str) -> np.ndarray:
    """Return ``a`` as a float array; NaN/Inf entries raise `NonFinite`."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise DimensionMismatch(f"{name}: empty array")
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name}: non-finite entries are not admitted")
    return a


def require_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """Check symmetry of a square matrix and return its symmetrized copy.

    The check is relative: ``max|A - A.T| <= SYMMETRY_RTOL * max(1, max|A|)``.
    """
    a = require_finite(a, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name}: expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * scale:
        raise NotSymmetric(f"{name}: matrix is not symmetric within tolerance")
    return (a + a.T) / 2.0


def cholesky_stack(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of one matrix or a stack of matrices.

    Parameters
    ----------
    a : ndarray, shape (..., n, n)
        Symmetric positive definite matrices.  They are neither checked nor
        symmetrized here: callers validate (`cholesky_lower`) or symmetrize
        (the filters' stacked step) first.

    Returns
    -------
    ndarray, shape (..., n, n)
        Lower-triangular factors ``L`` with ``L @ L.T == a``.

    Raises
    ------
    NotPositiveDefinite
        If a non-positive pivot persists after one jittered retry.

    Notes
    -----
    Covariance round-off can make a PSD matrix indefinite by a few ulps, so
    when the stack fails to factorize, each matrix is factorized alone and
    only a matrix ``a_i`` that fails is retried once with ``delta_i * I``
    added, where ``delta_i = CHOLESKY_JITTER * max(1, max|a_i|)``.  Every
    factor is therefore the factor of its own matrix, whatever it is
    stacked with.
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
            delta = CHOLESKY_JITTER * max(1.0, float(np.max(np.abs(a_i))))
            try:
                lower[i] = np.linalg.cholesky(a_i + delta * np.eye(n))
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(
                    "cholesky: non-positive pivot persists after jitter"
                ) from None
    return lower.reshape(a.shape)


def solve_stack(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stacked systems ``s @ z = b``; a 1 x 1 system is a division."""
    if s.shape[-1] == 1:
        return b / s
    return np.linalg.solve(s, b)


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor ``L`` with ``L @ L.T == a``.

    Checks symmetry up to `SYMMETRY_RTOL` (`require_symmetric`), then
    factorizes the symmetrized matrix with `cholesky_stack`, including its
    jittered retry.

    Raises
    ------
    NotSymmetric
        If the input fails the symmetry check.
    NotPositiveDefinite
        If a non-positive pivot persists after one jittered retry.
    """
    return cholesky_stack(require_symmetric(a, "cholesky_lower"))


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for a symmetric positive definite ``a``.

    Factorizes once with `cholesky_lower` and solves with ``L`` and then
    ``L'``, never forming an explicit inverse.  ``b`` may be a vector or a
    matrix of right-hand sides; the result has the same shape as ``b``.
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


def induced_l1_norm(a: np.ndarray) -> float:
    """Induced 1-norm of a matrix: the maximum absolute column sum.

    A 1-D input is treated as a single column, so for vectors this is the
    plain absolute-entry sum.
    """
    a = require_finite(a, "induced_l1_norm")
    if a.ndim == 1:
        return float(np.sum(np.abs(a)))
    if a.ndim != 2:
        raise DimensionMismatch(f"induced_l1_norm: expected 1-D or 2-D, got {a.ndim}-D")
    return float(np.max(np.sum(np.abs(a), axis=0)))
