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
bandwidth (kernel weights only grow with it), so the roots are found by a
geometric bracket scan plus bisection.

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
from .mckf import WEIGHT_FLOOR, AugmentedRegression, gaussian_kernel, weighted_qr_map
from .numerics import induced_l1_norm, min_eigenvalue_symmetric

#: Bandwidth search range for certificate roots.
SIGMA_SEARCH_RANGE = (1e-6, 1e9)
#: Geometric grid density for the bracket scan.
GRID_POINTS_PER_DECADE = 40
#: Bisection refinements after a bracket is found.
BISECTION_STEPS = 80


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


def _row_data(reg: AugmentedRegression):
    w_abs_sum = np.sum(np.abs(reg.W), axis=1)
    d_abs = np.abs(reg.D)
    return w_abs_sum, d_abs


def _weighted_gram_min_eig(reg: AugmentedRegression, kernel_weights) -> float:
    gram = reg.W.T @ (np.asarray(kernel_weights)[:, None] * reg.W)
    return min_eigenvalue_symmetric((gram + gram.T) / 2.0)


def zeta(reg: AugmentedRegression) -> float:
    """Intrinsic iterate bound of a regression snapshot.

    ``sqrt(n) * sum_i ||w_i||_1 |d_i|`` divided by the smallest eigenvalue of
    the unweighted Gram matrix ``sum_i w_i' w_i``.  Any certified ball radius
    must exceed this value.
    """
    w_abs_sum, d_abs = _row_data(reg)
    lam = _weighted_gram_min_eig(reg, np.ones(reg.L))
    if lam <= 0.0:
        raise SingularDesign("zeta: design Gram matrix is singular")
    return math.sqrt(reg.n) * float(w_abs_sum @ d_abs) / lam


def phi_sigma(reg: AugmentedRegression, beta: float, sigma: float) -> float:
    """Ball-confinement bound as a function of bandwidth.

    Same numerator as `zeta`; the Gram matrix in the denominator is weighted
    by kernel values at the worst-case residual radii
    ``beta ||w_i||_1 + |d_i|``.  Nonincreasing in ``sigma`` and tending to
    `zeta` as the bandwidth grows.
    """
    sigma = float(sigma)
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    w_abs_sum, d_abs = _row_data(reg)
    radii = beta * w_abs_sum + d_abs
    lam = _weighted_gram_min_eig(reg, gaussian_kernel(radii, sigma))
    if lam <= 0.0:
        raise SingularDesign("phi_sigma: weighted Gram matrix is singular")
    return math.sqrt(reg.n) * float(w_abs_sum @ d_abs) / lam


def psi_sigma(reg: AugmentedRegression, beta: float, sigma: float) -> float:
    """Contraction-factor bound as a function of bandwidth.

    Decays like ``1 / sigma^2`` for large bandwidths, so a root of
    ``psi(sigma) = alpha`` exists for any ``alpha`` in (0, 1) whenever the
    numerator is nonzero.
    """
    sigma = float(sigma)
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    w_abs_sum, d_abs = _row_data(reg)
    radii = beta * w_abs_sum + d_abs
    terms = 0.0
    for i in range(reg.L):
        w_i = reg.W[i]
        gram_row = np.outer(w_i, w_i)
        terms += (
            radii[i]
            * w_abs_sum[i]
            * (beta * induced_l1_norm(gram_row) + induced_l1_norm(w_i * reg.D[i]))
        )
    lam = _weighted_gram_min_eig(reg, gaussian_kernel(radii, sigma))
    den = sigma * sigma * lam
    if lam <= 0.0 or den <= 0.0:
        raise SingularDesign("psi_sigma: weighted Gram matrix is singular")
    try:
        return math.sqrt(reg.n) * float(terms) / den
    except OverflowError:
        return math.inf


def _find_root(fn, target: float, name: str) -> float:
    """Smallest-bandwidth root of ``fn(sigma) = target`` for nonincreasing fn.

    Scans a geometric grid for a sign change of ``fn - target`` (treating
    singular evaluations as +inf, which happens when kernel weights underflow
    at tiny bandwidths), then bisects.  If the function is already at or
    below the target at the left edge of the range, the left edge is
    returned: the certificate condition then holds for every bandwidth in
    the search range.
    """

    def gap(sigma: float) -> float:
        try:
            return fn(sigma) - target
        except SingularDesign:
            return math.inf

    lo_edge, hi_edge = SIGMA_SEARCH_RANGE
    decades = math.log10(hi_edge / lo_edge)
    grid = np.geomspace(lo_edge, hi_edge, int(decades * GRID_POINTS_PER_DECADE) + 1)
    prev_sigma = grid[0]
    prev_gap = gap(prev_sigma)
    if prev_gap <= 0.0:
        return float(prev_sigma)
    for sigma in grid[1:]:
        g = gap(sigma)
        if g <= 0.0:
            lo, hi = prev_sigma, sigma
            for _ in range(BISECTION_STEPS):
                mid = math.sqrt(lo * hi)
                if gap(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            return float(hi)
        prev_sigma, prev_gap = sigma, g
    raise BracketNotFound(
        f"{name}: no bandwidth in [{lo_edge:g}, {hi_edge:g}] reaches the target"
    )


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
    BetaTooSmall
        If ``beta <= zeta(reg)``.
    BracketNotFound
        If either root lies outside `SIGMA_SEARCH_RANGE`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    z = zeta(reg)
    if beta <= z:
        raise BetaTooSmall(f"beta={beta:g} must exceed zeta={z:g}")
    sigma_star = _find_root(lambda s: phi_sigma(reg, beta, s), beta, "phi root")
    sigma_dagger = _find_root(lambda s: psi_sigma(reg, beta, s), alpha, "psi root")
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
    ``c_i = max(G_sigma(e_i), WEIGHT_FLOOR)`` and Gram matrix
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
    from scipy.linalg import solve_triangular  # loaded on first use, see robustkf.numerics
    f_x, e, c, q, r = weighted_qr_map(reg, x, sigma)
    t_over_c = np.where(c > WEIGHT_FLOOR, e * (reg.D - reg.W @ f_x) / (sigma * sigma), 0.0)
    return solve_triangular(r, (q.T * t_over_c) @ q @ r)


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
