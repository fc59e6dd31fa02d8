"""Convergence certificates and cost diagnostics for the fixed-point solve.

For a whitened regression snapshot with rows ``w_i`` and observations
``d_i``, a Banach-style sufficient condition certifies that the fixed-point
map is a contraction on the 1-norm ball of radius ``beta``: pick
``beta > zeta`` (an intrinsic bound built from the snapshot) and a target
contraction factor ``alpha`` in (0, 1); then any bandwidth at or above
``max(sigma_star, sigma_dagger)`` keeps every iterate inside the ball and
bounds the map's Jacobian 1-norm by ``alpha``, so iteration from any start
in the ball converges to the unique fixed point there.

``sigma_star`` solves ``phi(sigma) = beta`` and ``sigma_dagger`` solves
``psi(sigma) = alpha``.  Both functions are monotone nonincreasing in the
bandwidth (kernel weights only grow with it), so each root is bracketed by
the first cell of a geometric grid that reaches its target, found by a
coarse scan and then a fine one, and bisected there.  The computed ``phi``
is monotone only up to rounding: it tends to `zeta` as the bandwidth
grows, so a ``beta`` within rounding of `zeta`, where ``sigma_star`` has
no meaning anyway, is rejected.  The two bisections advance together: one
stacked evaluation holds a path of midpoints per root toward an
interpolated root, and replaying the serial bisection on it gives the
floats of bisecting one midpoint at a time.  The public `zeta`,
`phi_sigma` and `psi_sigma` run the same code on one bandwidth, so a
certified bandwidth satisfies them exactly.

The module also provides the analytic Jacobian of the fixed-point map and
closed-form floating-point operation counts for both filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BetaTooSmall,
    BracketNotFound,
    SingularDesign,
)
from .mckf import WEIGHT_FLOOR, AugmentedRegression, weighted_qr_map

#: Bandwidth search range for certificate roots.
SIGMA_SEARCH_RANGE = (1e-6, 1e9)
#: Geometric grid density for the bracket scan.
GRID_POINTS_PER_DECADE = 40
_DECADES = math.log10(SIGMA_SEARCH_RANGE[1] / SIGMA_SEARCH_RANGE[0])
#: The bracket-scan grid, shared by both roots of every certificate.
_SIGMA_GRID = np.geomspace(*SIGMA_SEARCH_RANGE, int(_DECADES * GRID_POINTS_PER_DECADE) + 1)
#: Every ``_COARSE_STRIDE``-th grid point and the last one form the coarse scan.
_COARSE_STRIDE = 25
_COARSE = np.r_[0 : _SIGMA_GRID.size - 1 : _COARSE_STRIDE, _SIGMA_GRID.size - 1]
#: ``beta`` must exceed ``zeta * (1 + _BETA_EXCESS)``; below it ``phi``'s rounding
#: (up to about 150 eps on random snapshots) decides where it meets ``beta``.
_BETA_EXCESS = 4096 * np.finfo(float).eps
#: Bisection midpoints per open root and stacked call, laid out toward the predicted root.
_PATH_DEPTH = 16


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Sufficient-bandwidth certificate for one regression snapshot.

    Iterating from any start with 1-norm at most ``beta`` using a bandwidth
    at least ``sigma_min`` contracts with factor ``alpha`` per step.
    """

    beta: float
    alpha: float
    zeta: float
    sigma_star: float
    sigma_dagger: float
    sigma_min: float


def _bound_parts(reg: AugmentedRegression, beta: float):
    """The bandwidth-free parts of the bounds, formed once per snapshot.

    Returns the worst-case residual radii ``beta ||w_i||_1 + |d_i|`` and the
    numerators of `phi_sigma` and `psi_sigma`; in the latter,
    ``||w_i' w_i||_1 = ||w_i||_1 max_j |w_ij|`` and ``||w_i d_i||_1 = |d_i| ||w_i||_1``.
    A huge ``beta`` overflows these to inf, where no bandwidth is certified.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    w_abs = np.abs(reg.W)
    w_abs_sum = np.sum(w_abs, axis=1)
    d_abs = np.abs(reg.D)
    with np.errstate(over="ignore"):
        radii = beta * w_abs_sum + d_abs
        terms = radii * w_abs_sum * (beta * w_abs_sum * np.max(w_abs, axis=1) + d_abs * w_abs_sum)
    root_n = math.sqrt(reg.n)
    return radii, root_n * float(w_abs_sum @ d_abs), root_n * float(np.sum(terms))


def _bounds(reg: AugmentedRegression, parts, sigmas: np.ndarray):
    """``phi`` and ``psi`` at each bandwidth of ``sigmas``, NaN where singular.

    ``lambda_min(W' C W)`` is the squared smallest singular value of
    ``C^½ W``, one stacked SVD for all bandwidths, and 0 (singular) where
    the smallest singular value is at most ``L * eps`` times the largest,
    the tolerance of `weighted_qr_map`.  Kernel weights underflow at small
    bandwidths, so the warnings of dividing by that 0 are expected and
    suppressed.
    """
    radii, phi_num, psi_num = parts
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = np.exp(-(radii * radii) / (2.0 * sigmas * sigmas)[:, None])
        s = np.linalg.svd(np.sqrt(weights)[:, :, None] * reg.W, compute_uv=False)
        s_min = s[:, -1]
        lam = np.where(s_min > reg.L * np.finfo(float).eps * s[:, 0], s_min * s_min, 0.0)
        psi_den = sigmas * sigmas * lam
        phi = np.where(lam > 0.0, phi_num / lam, np.nan)
        psi = np.where(psi_den > 0.0, psi_num / psi_den, np.nan)
    return phi, psi


def _bound_at(reg: AugmentedRegression, beta: float, sigma: float, which: int, name: str) -> float:
    sigma = float(sigma)
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    value = float(_bounds(reg, _bound_parts(reg, beta), np.array([sigma]))[which][0])
    if math.isnan(value):
        raise SingularDesign(f"{name}: weighted Gram matrix is singular")
    return value


def zeta(reg: AugmentedRegression) -> float:
    """Intrinsic iterate bound of a regression snapshot.

    ``sqrt(n) * sum_i ||w_i||_1 |d_i|`` divided by the smallest eigenvalue of
    the unweighted Gram matrix ``sum_i w_i' w_i``.  Any certified ball radius
    must exceed this value.
    """
    return _bound_at(reg, 0.0, math.inf, 0, "zeta")  # unit kernel weights


def phi_sigma(reg: AugmentedRegression, beta: float, sigma: float) -> float:
    """Ball-confinement bound as a function of bandwidth.

    Same numerator as `zeta`; the Gram matrix in the denominator is weighted
    by kernel values at the worst-case residual radii
    ``beta ||w_i||_1 + |d_i|``.  Nonincreasing in ``sigma`` and tending to
    `zeta` as the bandwidth grows.
    """
    return _bound_at(reg, beta, sigma, 0, "phi_sigma")


def psi_sigma(reg: AugmentedRegression, beta: float, sigma: float) -> float:
    """Contraction-factor bound as a function of bandwidth.

    Decays like ``1 / sigma^2`` for large bandwidths, so a root of
    ``psi(sigma) = alpha`` exists for any ``alpha`` in (0, 1) whenever the
    numerator is nonzero.
    """
    return _bound_at(reg, beta, sigma, 1, "psi_sigma")


def _bounds_split(reg: AugmentedRegression, parts, sigmas):
    """``phi`` at ``sigmas[0]`` and ``psi`` at ``sigmas[1]``, in one `_bounds` call."""
    phi, psi = _bounds(reg, parts, np.concatenate(sigmas))
    return phi[: len(sigmas[0])], psi[len(sigmas[0]) :]


def _path(bracket, target: float) -> list[float]:
    """Up to `_PATH_DEPTH` bisection midpoints of ``[lo, f(lo), hi, f(hi)]``.

    Each keeps the half holding the root predicted by interpolating ``f``
    linearly in ``log sigma``, or ``sqrt(lo * hi)`` if ``f(lo)`` is not
    finite.  The path stops at a midpoint that is not strictly inside.
    """
    lo, f_lo, hi, f_hi = bracket
    predicted = math.sqrt(lo * hi)
    if math.isfinite(f_lo):
        predicted = lo * (hi / lo) ** ((f_lo - target) / (f_lo - f_hi))
    mids = []
    while len(mids) < _PATH_DEPTH and lo < (mid := math.sqrt(lo * hi)) < hi:
        mids.append(mid)
        lo, hi = (lo, mid) if predicted <= mid else (mid, hi)
    return mids


def _find_roots(reg: AugmentedRegression, parts, targets: tuple[float, float]) -> list[float]:
    """Smallest-bandwidth roots of ``phi = targets[0]`` and ``psi = targets[1]``.

    Both bounds are nonincreasing, NaN (counted as +inf) where singular, so
    the grid points that reach a target follow all those that do not: the
    first cell that reaches is found from the `_COARSE` points, then from
    the fine points of the first coarse cell that reaches, one `_bounds`
    call each.  Where rounding breaks the order, the bracket still has a
    left end that misses and a right end that reaches, and the whole grid
    is scanned before a root is out of range.  A root at the left edge
    holds on the whole range.  Each round evaluates a `_path` per root
    in one call and replays the serial bisection on it until a decision,
    made on the true value at its own midpoint, leaves the path.  A root is
    ``hi`` once its path is empty, as in the serial loop.
    """
    cells = []  # (grid indices to scan for the first that reaches, f just left of them)
    coarse = _bounds(reg, parts, _SIGMA_GRID[_COARSE])
    for on_coarse, target in zip(coarse, targets):
        j = int(np.argmax(on_coarse <= target))
        if not on_coarse[j] <= target:  # rescan: rounding may hide a point that reaches
            cells.append((np.arange(_SIGMA_GRID.size), math.nan))
        else:
            cells.append((np.arange(_COARSE[j - 1] + 1 if j else 0, _COARSE[j] + 1),
                          on_coarse[j - 1] if j else math.nan))
    brackets = []  # [lo, f(lo), hi, f(hi)], with lo = hi at the left edge
    fine = _bounds_split(reg, parts, [_SIGMA_GRID[cell] for cell, _ in cells])
    for (cell, f_left), values, target, name in zip(cells, fine, targets, ("phi", "psi")):
        reached = np.flatnonzero(values <= target)
        if reached.size == 0:
            lo_edge, hi_edge = SIGMA_SEARCH_RANGE
            raise BracketNotFound(
                f"{name} root: no bandwidth in [{lo_edge:g}, {hi_edge:g}] reaches the target"
            )
        i, k = int(reached[0]), int(cell[reached[0]])
        lo, hi = _SIGMA_GRID[max(k - 1, 0)], _SIGMA_GRID[k]
        brackets.append([float(lo), values[i - 1] if i else f_left, float(hi), values[i]])
    while any(paths := [_path(b, t) for b, t in zip(brackets, targets)]):
        for j, f_mids in enumerate(_bounds_split(reg, parts, paths)):
            lo, f_lo, hi, f_hi = brackets[j]
            for mid, f_mid in zip(paths[j], f_mids):
                if mid != math.sqrt(lo * hi):
                    break  # an earlier decision left the path
                if f_mid <= targets[j]:
                    hi, f_hi = mid, f_mid
                else:
                    lo, f_lo = mid, f_mid
            brackets[j] = [lo, f_lo, hi, f_hi]
    return [hi for _, _, hi, _ in brackets]


def sufficient_sigma(
    reg: AugmentedRegression, beta: float, alpha: float
) -> ConvergenceCertificate:
    """Certify a bandwidth region where the fixed-point solve must converge.

    Parameters
    ----------
    reg : AugmentedRegression
        Snapshot to certify.
    beta : float
        Radius of the 1-norm ball; must exceed `zeta` of the snapshot.
    alpha : float
        Target contraction factor, in (0, 1).

    Raises
    ------
    ValueError
        If ``alpha`` is outside (0, 1) or ``beta`` is not finite.
    BetaTooSmall
        If ``beta <= zeta(reg) * (1 + _BETA_EXCESS)``, within rounding of `zeta`.
    BracketNotFound
        If no grid point of `SIGMA_SEARCH_RANGE` reaches a root's target.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    parts = _bound_parts(reg, beta)  # rejects a non-finite beta before any SVD
    z = zeta(reg)
    if beta <= z * (1.0 + _BETA_EXCESS):
        raise BetaTooSmall(f"beta={beta!r} must exceed zeta={z!r} by more than rounding")
    sigma_star, sigma_dagger = _find_roots(reg, parts, (beta, alpha))
    return ConvergenceCertificate(
        beta=float(beta),
        alpha=float(alpha),
        zeta=z,
        sigma_star=sigma_star,
        sigma_dagger=sigma_dagger,
        sigma_min=max(sigma_star, sigma_dagger),
    )


def jacobian_f(reg: AugmentedRegression, x: np.ndarray, sigma: float) -> np.ndarray:
    """Analytic Jacobian of the fixed-point map at ``x``.

    With residuals ``e_i = d_i - w_i x``, floored weights
    ``c = kernel_weights(e, sigma)`` and Gram matrix
    ``N = sum_i c_i w_i' w_i``, column ``j`` is

    ``N^-1 * sum_i [e_i w_ij c_i / sigma^2] * w_i' * (d_i - w_i f(x))``

    which assembles to ``N^-1 W' diag(t) W`` with
    ``t_i = e_i c_i (d_i - w_i f(x)) / sigma^2``.  A weight held at the
    floor does not move with ``x``, so ``t_i = 0`` on every floored row.

    ``N`` is never formed: with the QR factor ``C^½ W = Q R`` that
    `fixed_point_map` solves by, the Jacobian is
    ``R^-1 Q' diag(t / c) C^½ W``.

    Raises
    ------
    SingularDesign
        If that factor is rank-deficient.
    """
    f_x, e, c, q, r = weighted_qr_map(reg, x, sigma)
    t_over_c = np.where(c > WEIGHT_FLOOR, e * (reg.D - reg.W @ f_x) / (sigma * sigma), 0.0)
    return np.linalg.solve(r, (q.T * t_over_c) @ q @ r)


@dataclass(frozen=True)
class FlopCounts:
    """Closed-form multiply/add counts per filtering step.

    ``kf`` covers predict plus the classic update; ``mckf`` covers predict
    plus a fixed-point update running ``T`` iterations on average.  Division,
    inversion, factorization and exponentiation costs are kept symbolic in
    the ``*_o_terms`` tuples rather than folded into the polynomial values.
    """

    kf: int
    mckf: int
    kf_o_terms: tuple[str, ...]
    mckf_o_terms: tuple[str, ...]


def flop_counts(n: int, m: int, T: int) -> FlopCounts:
    """Evaluate the per-step cost polynomials of both filters.

    Parameters
    ----------
    n, m : int
        State and measurement dimensions.
    T : int
        Average number of fixed-point iterations per step.
    """
    if n < 1 or m < 1 or T < 1:
        raise ValueError("n, m and T must all be >= 1")
    kf = 8 * n**3 + 10 * n**2 * m - n**2 + 6 * n * m**2 - n
    mckf = (
        (2 * T + 8) * n**3
        + (6 + 4 * T) * T * n**2 * m
        + (2 * T - 1) * n**2
        + (4 * T + 2) * n * m**2
        + (3 * T - 1) * n * m
        + (4 * T - 1) * n
        + 2 * T * m**3
        + 2 * T * m
    )
    return FlopCounts(
        kf=kf,
        mckf=mckf,
        kf_o_terms=("O(m^3)",),
        mckf_o_terms=(f"{T}*O(n^3)", f"{2 * T}*O(m^3)"),
    )
