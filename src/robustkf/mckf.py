"""Correntropy-based robust Kalman update via fixed-point iteration.

The update treats the prior and the measurement as one stacked regression:
whitening the stack by the Cholesky factors of the prior covariance and the
measurement covariance gives residuals with identity covariance, and the
state estimate maximizes the mean Gaussian-kernel similarity of those
residuals instead of minimizing their squared sum.  Large whitened residuals
then receive exponentially small weight, which is what makes the update
robust to impulsive outliers.

Two algebraically equivalent forms of the resulting fixed-point map are
implemented:

* a weighted-least-squares form, ``x <- (W' C W)^-1 W' C D``
  (`fixed_point_map`, `fixed_point_direct`), and
* a gain form that reweights the prior and measurement covariances and
  applies a Kalman-style correction (`robust_gain`, `fixed_point_iterate`).

``C``'s diagonal is one vector ``c = kernel_weights(e, sigma)`` of length
``n + m``, state block first: the kernel weights of the residuals clamped
below at `WEIGHT_FLOOR`.  All three forms (these two and the batched
filter's below) compute it by that one function.  The weighted-least-squares
form never builds the normal equations ``W' C W``: it solves through the QR
factor of ``C^½ W``, whose condition number is the square root of theirs,
and the analytic Jacobian in `robustkf.diagnostics` reuses that same factor.
Every factorization and solve is a ``numpy.linalg`` call.

The filter runs the gain form over a stack of runs (`_filter_step`), which
`mckf_step` runs for one run and the batched Monte Carlo engine for all
runs at once.  It iterates in whitened measurement coordinates, forms its
final gain from the same innovation matrices (`_whitened_system`), and
writes that gain's Joseph covariance as an exactly symmetric Gram product.
The one-regression functions here (`build_regression`,
`fixed_point_iterate`, ...) are the reference engine's independent
implementation, and the direct form a cross-check of both.  With all kernel
weights equal to one, the forms collapse to the ordinary Kalman update, and
that limit is approached as the bandwidth grows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    Diverged,
    InvalidBandwidth,
    EmptyInput,
    SingularDesign,
)
from .model import GaussianBelief, StateSpaceModel
from .numerics import cholesky_stack, require_finite, solve_spd, solve_stack

#: Lower clamp on kernel weights (`kernel_weights`) before they are inverted.
#: The Gaussian kernel underflows to zero for huge residuals; the floor keeps
#: the reweighted covariances finite and corresponds to near-total distrust.
WEIGHT_FLOOR = 1e-12

#: Below this prior-iterate norm the stop rule falls back to the absolute step.
_STEP_NORM_GUARD = 1e-300


@dataclass(frozen=True)
class KernelConfig:
    """Kernel bandwidth and fixed-point stop rule.

    ``sigma`` is the Gaussian kernel bandwidth (same units as the whitened
    residuals), ``epsilon`` the stop threshold on the relative step
    ``||x_new - x_old||_2 / ||x_old||_2``, and ``max_iterations`` a safety
    cap; hitting the cap is reported, not raised.
    """

    sigma: float
    epsilon: float
    max_iterations: int = 100

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidBandwidth(f"sigma must be > 0, got {self.sigma}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        cap = self.max_iterations
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {cap!r}")


@dataclass(frozen=True)
class AugmentedRegression:
    """Whitened stacked regression for one update step.

    ``D = W x + e`` where the first n rows whiten the prior pseudo-measurement
    and the last m rows whiten the actual measurement: ``W`` stacks
    ``B_p^-1`` over ``B_r^-1 H`` and ``D`` stacks ``B_p^-1 x_prior`` over
    ``B_r^-1 y``.  ``B_p`` and ``B_r`` are the lower Cholesky factors of the
    prior covariance and the measurement covariance.  For a singular prior,
    ``W``'s top block inverts ``B_p`` on its nonzero columns and is zero elsewhere.
    """

    D: np.ndarray
    W: np.ndarray
    B_p: np.ndarray
    B_r: np.ndarray
    prior_mean: np.ndarray
    y: np.ndarray
    H: np.ndarray

    @property
    def n(self) -> int:
        return self.B_p.shape[0]

    @property
    def m(self) -> int:
        return self.B_r.shape[0]

    @property
    def L(self) -> int:
        return self.n + self.m


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of one fixed-point solve.

    ``iterations`` counts every gain computed, the first correction from the
    prior mean included (see `fixed_point_iterate`), so it is always >= 1.
    ``final_weights`` is the `kernel_weights` vector ``c`` of the last
    iteration, length ``n + m``: the n state weights, then the m measurement
    weights.
    """

    iterations: int
    converged: bool
    final_weights: np.ndarray
    last_relative_step: float


def gaussian_kernel(e, sigma: float):
    """Gaussian kernel ``exp(-e^2 / (2 sigma^2))``, elementwise on arrays."""
    if not sigma > 0:
        raise InvalidBandwidth(f"sigma must be > 0, got {sigma}")
    e = np.asarray(e, dtype=float)
    out = np.exp(-(e * e) / (2.0 * sigma * sigma))
    return float(out) if out.ndim == 0 else out


def correntropy_estimate(errors: np.ndarray, sigma: float) -> float:
    """Sample correntropy of an error sequence: the mean kernel value.

    This is also the objective the fixed-point update maximizes, evaluated
    at whitened residuals.
    """
    errors = np.atleast_1d(np.asarray(errors, dtype=float))
    if errors.size == 0:
        raise EmptyInput("correntropy_estimate: empty error sequence")
    return float(np.mean(gaussian_kernel(errors, sigma)))


def build_regression(
    model: StateSpaceModel, prior: GaussianBelief, y: np.ndarray
) -> AugmentedRegression:
    """Whiten the stacked prior/measurement model for one step.

    Factorizes ``prior.cov = B_p B_p'`` (`cholesky_stack`), takes ``R = B_r B_r'``
    from the model, whose ``R`` was checked and factored when it was built, and
    forms D and W by solving with those factors, ``B_p`` on its nonzero columns.
    """
    y = _checked_measurement(model, prior, y, "build_regression")[0]
    b_p, b_r = cholesky_stack(prior.cov), model.B_r
    keep = np.flatnonzero(b_p.diagonal())
    block, w_top, d_top = np.ix_(keep, keep), np.zeros((model.n, model.n)), np.zeros(model.n)
    w_top[block] = np.linalg.solve(b_p[block], np.eye(keep.size))
    d_top[keep] = np.linalg.solve(b_p[block], prior.mean[keep])
    w_bot = np.linalg.solve(b_r, model.H)
    d_bot = np.linalg.solve(b_r, y)
    return AugmentedRegression(
        D=np.concatenate([d_top, d_bot]),
        W=np.vstack([w_top, w_bot]),
        B_p=b_p,
        B_r=b_r,
        prior_mean=prior.mean.copy(),
        y=y,
        H=model.H,
    )


def compute_residuals(reg: AugmentedRegression, x: np.ndarray) -> np.ndarray:
    """Whitened residuals ``D - W x`` at a candidate state."""
    x = np.asarray(x, dtype=float)
    if x.shape != (reg.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({reg.n},)")
    return reg.D - reg.W @ x


def kernel_weights(residuals, sigma: float) -> np.ndarray:
    """Kernel weights ``max(G_sigma(e), WEIGHT_FLOOR)``, elementwise on any shape."""
    return np.maximum(gaussian_kernel(residuals, sigma), WEIGHT_FLOOR)


def robust_gain(
    reg: AugmentedRegression, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gain of the reweighted update, plus the reweighted covariances.

    The kernel weights ``c`` (length ``n + m``, state block first) inflate
    the prior and measurement covariances where residuals are large:
    ``P_w = B_p diag(c[:n])^-1 B_p'`` and ``R_w = B_r diag(c[n:])^-1 B_r'``.
    The gain is the Kalman gain of the inflated pair, solved as an SPD system.
    With all weights equal to one this is exactly the classic gain.  A ``c``
    whose shape is not ``(n + m,)`` raises `DimensionMismatch`.

    Returns
    -------
    (gain, P_w, R_w)
    """
    if np.shape(c) != (reg.L,):
        raise DimensionMismatch(f"weights have shape {np.shape(c)}, expected ({reg.L},)")
    p_w = (reg.B_p / c[:reg.n]) @ reg.B_p.T
    r_w = (reg.B_r / c[reg.n:]) @ reg.B_r.T
    s = reg.H @ p_w @ reg.H.T + r_w
    gain = solve_spd((s + s.T) / 2.0, reg.H @ p_w).T
    return gain, p_w, r_w


def weighted_qr_map(reg: AugmentedRegression, x: np.ndarray, sigma: float):
    """`fixed_point_map` at ``x`` together with the factor it was solved by.

    Returns ``(f, e, c, q, r)``: the map's value ``f``, the residuals ``e``
    at ``x``, the floored kernel weights ``c`` (see `kernel_weights`), and
    the reduced QR factor ``C^½ W = q r``.  Then ``f = r^-1 q' C^½ D``.

    Raises
    ------
    SingularDesign
        If ``C^½ W`` is numerically rank-deficient: its smallest singular
        value is at most ``L * eps`` times its largest, the tolerance of
        ``numpy.linalg.matrix_rank``.
    """
    e = compute_residuals(reg, x)
    c = kernel_weights(e, sigma)
    root_c = np.sqrt(c)
    q, r = np.linalg.qr(root_c[:, None] * reg.W)
    singular_values = np.linalg.svd(r, compute_uv=False)
    if not singular_values[-1] > singular_values[0] * reg.L * np.finfo(float).eps:
        raise SingularDesign("weighted design C^1/2 W is rank-deficient")
    f = np.linalg.solve(r, q.T @ (root_c * reg.D))
    return f, e, c, q, r


def fixed_point_map(reg: AugmentedRegression, x: np.ndarray, sigma: float) -> np.ndarray:
    """One application of the weighted-least-squares fixed-point map.

    Evaluates ``(W' C W)^-1 W' C D`` with ``C = diag`` of the kernel weights
    of the residuals at ``x``, each clamped below at `WEIGHT_FLOOR`.  The
    value is solved through the QR factor of ``C^½ W`` rather than the normal
    equations (see `weighted_qr_map`).  The fixed points of this map are the
    stationary points of the correntropy objective.

    Raises
    ------
    SingularDesign
        If ``W`` is rank-deficient.
    """
    return weighted_qr_map(reg, x, sigma)[0]


def _relative_step(x_new: np.ndarray, x_old: np.ndarray) -> float:
    num = float(np.linalg.norm(x_new - x_old))
    den = float(np.linalg.norm(x_old))
    return num if den < _STEP_NORM_GUARD else num / den


def fixed_point_iterate(
    reg: AugmentedRegression, config: KernelConfig
) -> tuple[np.ndarray, np.ndarray, FixedPointReport]:
    """Solve the correntropy update in gain form.

    Starts from the prior mean.  Each iteration evaluates residuals at the
    previous iterate, reweights, recomputes the gain, and applies it to the
    (fixed) innovation.  Stops when the relative step drops to ``epsilon``
    or the iteration cap is hit; the cap is reported via ``converged=False``
    rather than raised, so sweeps over small bandwidths keep running.

    The reported count includes the first correction from the prior mean.
    A step whose first correction is already below the stop threshold (zero
    innovation, or in practice a measurement discarded at `WEIGHT_FLOOR`)
    therefore reports 1 iteration.  As ``sigma`` grows, the first correction becomes the Kalman
    update and the second only confirms it, so the count tends to 2.

    Returns
    -------
    (x, gain, FixedPointReport)
    """
    innovation = reg.y - reg.H @ reg.prior_mean
    x_prev = reg.prior_mean
    for t in range(1, config.max_iterations + 1):
        c = kernel_weights(compute_residuals(reg, x_prev), config.sigma)
        gain, _, _ = robust_gain(reg, c)
        x = reg.prior_mean + gain @ innovation
        if not np.all(np.isfinite(x)):
            raise Diverged(f"fixed-point iterate {t} is not finite")
        rel = _relative_step(x, x_prev)
        if rel <= config.epsilon:
            return x, gain, FixedPointReport(t, True, c, rel)
        x_prev = x
    return x, gain, FixedPointReport(config.max_iterations, False, c, rel)


def fixed_point_direct(reg: AugmentedRegression, config: KernelConfig) -> np.ndarray:
    """Solve the correntropy update in weighted-least-squares form.

    Starts from the prior mean and stops by the rule of `fixed_point_iterate`;
    the two forms agree iterate by iterate and serve as cross-checks of each
    other.
    """
    x_prev = x = reg.prior_mean
    for _ in range(config.max_iterations):
        x = fixed_point_map(reg, x_prev, config.sigma)
        if not np.all(np.isfinite(x)):
            raise Diverged("fixed-point iterate is not finite")
        if _relative_step(x, x_prev) <= config.epsilon:
            return x
        x_prev = x
    return x


def _mT(a):
    """Transpose of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _symmetrize(p):
    return (p + _mT(p)) / 2.0


def _gain(H, p, r):
    """Kalman gains ``P H' (H P H' + R)^-1`` of a stack of ``(P, R)`` pairs."""
    pht = p @ H.T
    return _mT(solve_stack(_symmetrize(H @ pht + r), _mT(pht)))


def _whitened_system(a_w, w_inv):
    """``S_w = A_w diag(wx) A_w' + diag(wy)`` of each run, with ``w_inv = [wx, wy]``."""
    runs, m, n = a_w.shape
    s = (a_w * w_inv[:, None, :n]) @ _mT(a_w)
    s.reshape(runs, m * m)[:, :: m + 1] += w_inv[:, n:]  # the diagonals, in place
    return s


def _fixed_point(kernel, a_w, b_p, x_pred, nu_w, iters):
    """Fixed-point solve of the correntropy update of every run of a stack.

    Iterates, in whitened measurement coordinates, ``u = B_p^-1 (x -
    x_pred)`` with ``A_w = B_r^-1 H B_p`` and ``nu_w = B_r^-1 innovation``:
    the residuals at ``u`` are ``e = [u ; nu_w - A_w u]`` (the kernel squares
    them, so the sign of ``u`` is immaterial).  With the floored kernel
    weights ``c = kernel_weights(e, sigma)`` and ``w_inv = 1 / c``,
    split into ``(wx, wy)``, the next iterate is ``u = wx A_w' z``, where
    ``S_w z = nu_w`` (`_whitened_system`): ``x = x_pred + B_p u`` is the
    iterate of `fixed_point_iterate`, and ``nu_w - A_w u = diag(wy) z``
    comes from the same solve.  Each trip works on the rows of the runs still
    iterating, compacted with ``take``.  A run leaves when its relative step
    is at most ``epsilon`` or NaN, or at the cap; only then are its iterate,
    weights, last relative step and count written.

    ``iters`` gains each run's iteration count.  Returns the final iterates
    ``x``, the weights ``c`` and the relative step of each run's last
    iteration, and the indices of the runs that hit the cap (not those that
    converge on the last permitted trip).
    """
    runs, n = x_pred.shape

    def norm(v):  # the 2-norm of each row
        return np.sqrt(np.einsum("ri,ri->r", v, v))

    x, weights = np.empty_like(x_pred), np.empty((runs, n + nu_w.shape[1]))
    last_rel, active = np.empty(runs), np.arange(runs)
    u, e_y, x_old = np.zeros((runs, n)), nu_w, x_pred
    for t in range(1, kernel.max_iterations + 1):
        e = np.concatenate([u, e_y], axis=1)
        c = kernel_weights(e, kernel.sigma)
        w_inv = 1.0 / c
        z = solve_stack(_whitened_system(a_w, w_inv), nu_w[..., None])[..., 0]
        u = w_inv[:, :n] * np.einsum("rji,rj->ri", a_w, z)
        e_y = w_inv[:, n:] * z
        x_new = x_pred + np.einsum("rij,rj->ri", b_p, u)
        den = norm(x_old)
        rel = norm(x_new - x_old) / np.where(den < _STEP_NORM_GUARD, 1.0, den)
        going = rel > kernel.epsilon
        if t == kernel.max_iterations or not going.any():
            break
        if not going.all():
            out, keep = np.flatnonzero(~going), np.flatnonzero(going)
            leave = active.take(out)
            x[leave], weights[leave] = x_new.take(out, axis=0), c.take(out, axis=0)
            last_rel[leave] = rel.take(out)
            iters[leave] += t
            active, a_w, b_p, x_pred, nu_w, u, e_y, x_new = (
                v.take(keep, axis=0) for v in (active, a_w, b_p, x_pred, nu_w, u, e_y, x_new)
            )
        x_old = x_new
    x[active], weights[active], last_rel[active] = x_new, c, rel
    iters[active] += t
    return x, weights, last_rel, active[going]


def _filter_update(model, kernel, x_pred, p_pred, y, iters):
    """Measurement update of a stack of runs, one per row; ``kernel is None`` is the KF.

    The KF applies the textbook gain of the prior covariances and the Joseph
    update; its ``P`` may be one ``(1, n, n)`` covariance shared by all runs.
    The MCKF whitens the measurement once (``B_p = chol(P_pred)``, the model's
    ``B_r^-1``), runs `_fixed_point` on ``A_w = B_r^-1 H B_p`` and ``nu_w =
    B_r^-1 innovation``, and forms from the last weights ``K_r = B_p diag(wx)
    A_w' S_w^-1``, whose ``K_r B_r^-1`` is `fixed_point_iterate`'s gain ``K``.
    As ``(I - K H) B_p = B_p - K_r A_w`` and ``K R K' = K_r K_r'``, the Joseph
    covariance is ``P = G G'``, ``G = [B_p - K_r A_w | K_r]``: PSD by
    construction and, as NumPy forms ``G @ G'`` by a symmetric rank-k update,
    exactly symmetric.  Every product is per run, never one BLAS product over
    all runs, so no run's numbers depend on the stack: mat-vecs use
    ``einsum`` (one pass, where stacked ``@`` makes a BLAS call per run) and
    matrix products stacked ``@`` (which beats ``einsum`` at these sizes).
    Returns ``(x, P, gain, fixed_point)``: ``fixed_point`` is `_fixed_point`'s
    ``(weights, last_rel, capped)``, or ``None`` for the KF.
    """
    H, R = model.H, model.R
    n = x_pred.shape[1]
    innovation = y - np.einsum("ij,rj->ri", H, x_pred)
    if kernel is None:
        gain = _gain(H, p_pred, R)
        x = x_pred + np.einsum("...ij,...j->...i", gain, innovation)
        ikh = np.eye(n) - gain @ H
        return x, _symmetrize(ikh @ p_pred @ _mT(ikh) + gain @ R @ _mT(gain)), gain, None
    b_r_inv, b_p = model.B_r_inv, cholesky_stack(_symmetrize(p_pred))
    a_w = (b_r_inv @ H) @ b_p
    nu_w = np.einsum("ij,rj->ri", b_r_inv, innovation)
    x, weights, last_rel, capped = _fixed_point(kernel, a_w, b_p, x_pred, nu_w, iters)
    w_inv = 1.0 / weights
    s_inv_a = solve_stack(_whitened_system(a_w, w_inv), a_w)
    k_r = (b_p * w_inv[:, None, :n]) @ _mT(s_inv_a)
    g = np.concatenate([b_p - k_r @ a_w, k_r], axis=2)
    return x, g @ _mT(g), k_r @ b_r_inv, (weights, last_rel, capped)


def _filter_step(model, kernel, x, p, y, iters):
    """One predict/update cycle of a stack of runs (see `_filter_update`)."""
    x_pred = np.einsum("ij,rj->ri", model.F, x)
    p_pred = model.F @ p @ model.F.T + model.Q
    return _filter_update(model, kernel, x_pred, p_pred, y, iters)


def _checked_measurement(model: StateSpaceModel, belief: GaussianBelief, y, name: str):
    """Check a single-trajectory step's belief and measurement; ``y`` as one row."""
    if belief.dim != model.n:
        raise DimensionMismatch(
            f"belief dim {belief.dim} does not match model state dim {model.n}"
        )
    y = require_finite(np.atleast_1d(y), f"{name} measurement")
    if y.size != model.m:
        raise DimensionMismatch(f"measurement has dim {y.size}, model expects {model.m}")
    return y.reshape(1, model.m)


def mckf_step(
    model: StateSpaceModel,
    posterior_prev: GaussianBelief,
    y: np.ndarray,
    config: KernelConfig,
) -> tuple[GaussianBelief, FixedPointReport]:
    """One full predict/update cycle of the robust filter.

    Runs the batched Monte Carlo engine's step, `_filter_step`, on one run,
    so the result is exactly that run's row of `run_monte_carlo`: predict,
    the fixed-point solve in gain form, and the Joseph covariance of the
    final gain, the prior covariance and the nominal ``R``, formed as a Gram
    product (see `_filter_update`).  The report is the one
    `fixed_point_iterate` gives.

    The inputs are checked once: the belief's dimension and a finite
    measurement of length m.  ``R`` was checked and factored when the model
    was built.  A predicted covariance indefinite beyond round-off raises
    `NotPositiveDefinite`; the posterior must be finite and PSD.
    """
    y = _checked_measurement(model, posterior_prev, y, "mckf_step")
    iters = np.zeros(1, dtype=np.int32)
    x, p, _, (weights, last_rel, capped) = _filter_step(
        model, config, posterior_prev.mean[None], posterior_prev.cov[None], y, iters
    )
    report = FixedPointReport(int(iters[0]), capped.size == 0, weights[0], float(last_rel[0]))
    return GaussianBelief._from_filter(x[0], p[0]), report
