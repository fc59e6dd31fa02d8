"""Correntropy-based robust Kalman update via fixed-point iteration.

The update treats the prior and the measurement as one stacked regression,
whitened by the Cholesky factor ``B_p`` of the prior covariance and by the
model's ``B_r^-1`` to residuals with identity covariance; the state estimate
maximizes the mean Gaussian-kernel similarity of those residuals instead of
minimizing their squared sum.  Large whitened residuals then receive
exponentially small weight, which makes the update robust to impulsive
outliers.

``C``'s diagonal is one vector ``c = kernel_weights(e, sigma)`` of length
``n + m``, state block first: the kernel weights of the residuals clamped
below at `WEIGHT_FLOOR`, computed by that one function in every form of the
fixed-point map.  Every form starts from the prior mean ``x_p``, at the
residuals ``[0 ; B_r^-1 (y - H x_p)]``.  The one-step solvers take ``(model,
prior, y, config)`` and are algebraically equivalent:

* the paper's weighted least squares ``x <- (W' C W)^-1 W' C D``, in whitened
  prior coordinates (`fixed_point_direct`, the reference engine's solve) and
  in the state's own, on `build_regression`'s ``(W, D)`` (`weighted_qr_map`,
  whose map the certificates and the analytic Jacobian of
  `robustkf.diagnostics` study).  Both solve through one row-sorted QR factor
  of the weighted design (`_weighted_qr_solve`), never the normal equations,
  whose condition number is the square of the factor's;
* a gain form that reweights the prior and measurement covariances and
  applies a Kalman-style correction (`robust_gain`, `fixed_point_iterate`).

Every factorization and solve is a ``numpy.linalg`` call.

With all kernel weights equal to one, the forms collapse to the ordinary
Kalman update, the limit as the bandwidth grows.  The filters' one
measurement update, `_filter_update`, rests on that: the KF
(`robustkf.kf.kf_update`, the engine's KF) is its unit-weight case.  It runs
on a stack of runs (one for `mckf_step`, all of them for the batched Monte
Carlo engine's `_filter_step`) in whitened measurement coordinates, where
the reweighted measurement covariance is diagonal: each trip's gain takes
the measurements one at a time (`_whitened_update`, Potter's square-root
form), and the estimate and the Joseph covariance, an exactly symmetric Gram
product, are those of the last trip's gain.  The reference engine solves
each update at once, by QR (`fixed_point_direct`), with the same whitening.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    Diverged,
    InvalidBandwidth,
    SingularDesign,
)
from .model import GaussianBelief, StateSpaceModel
from .numerics import cholesky_stack, require_finite, solve_spd

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
        if isinstance(self.sigma, bool) or not self.sigma > 0:
            raise InvalidBandwidth(f"sigma must be a number > 0, got {self.sigma!r}")
        if isinstance(self.epsilon, bool) or not self.epsilon > 0:
            raise ValueError(f"epsilon must be a number > 0, got {self.epsilon!r}")
        cap = self.max_iterations
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {cap!r}")


@dataclass(frozen=True)
class AugmentedRegression:
    """Whitened stacked regression ``D = W x + e`` of one update step (`build_regression`).

    ``W`` stacks ``B_p^-1`` (for a singular prior, ``B_p`` inverted on its
    nonzero columns, zero elsewhere) over the model's ``H_w = B_r^-1 H``;
    ``D`` is ``W x_p`` plus ``B_r^-1 (y - H x_p)`` in its last m rows.
    """

    D: np.ndarray
    W: np.ndarray

    @property
    def n(self) -> int:
        return self.W.shape[1]

    @property
    def L(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of one fixed-point solve, or per-run arrays of an engine step's solves.

    An engine step (`_filter_step`, `robustkf.sim._reference_step`) stacks a row per run.
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
    """Gaussian kernel ``exp(-e^2 / (2 sigma^2))``, elementwise on arrays.

    Has the textbook form's bits wherever ``e^2``, ``2 sigma^2`` and their quotient
    are normal, is within ``4 ulp * max(1, (e / sigma)^2 / 2)`` of the exact weight
    elsewhere (0 where that rounds to 0), and is 1 at ``sigma = inf`` for finite ``e``.
    """
    if not sigma > 0:
        raise InvalidBandwidth(f"sigma must be > 0, got {sigma}")
    # sigma = f 2^s with f in [0.5, 1) (s = 2100 zeroes every finite e): 2^-s scales exactly.
    # The cap at e 2^-s = 78 changes no weight (exp(< -747) = 0); from s = 1017, e 2^-s < 2^7.
    f, s = (0.5, 2100) if sigma == math.inf else math.frexp(sigma)
    e = np.abs(np.asarray(e, dtype=float))
    if s < 1017:
        e = np.minimum(e, math.ldexp(78.0, s))
    out = np.exp(np.square(np.ldexp(e, -s)) / (-2.0 * f * f))  # sign in the divisor: a pass fewer
    return float(out) if out.ndim == 0 else out


def build_regression(
    model: StateSpaceModel, prior: GaussianBelief, y: np.ndarray
) -> AugmentedRegression:
    """Whiten the stacked prior/measurement model for one step.

    Checks ``prior`` and ``y`` as the steps do and factorizes ``prior.cov =
    B_p B_p'`` (`cholesky_stack`).  As ``D`` is ``W x_p`` plus the whitened
    innovation, the state rows of ``D - W x_p`` are exactly 0.
    """
    y = _checked_measurement(model, prior, y, "build_regression")[0]
    b_p, x_p = cholesky_stack(prior.cov), prior.mean
    keep = np.flatnonzero(b_p.diagonal())
    block, w_top = np.ix_(keep, keep), np.zeros((model.n, model.n))
    w_top[block] = np.linalg.solve(b_p[block], np.eye(keep.size))
    w = np.vstack([w_top, model.H_w])
    d = w @ x_p
    d[model.n:] += model.B_r_inv @ (y - model.H @ x_p)
    return AugmentedRegression(D=d, W=w)


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
    model: StateSpaceModel, b_p: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gain of the reweighted update, plus the reweighted covariances.

    The kernel weights ``c`` (length ``n + m``, state block first) inflate
    the prior and measurement covariances where residuals are large:
    ``P_w = B_p diag(c[:n])^-1 B_p'`` and ``R_w = B_r diag(c[n:])^-1 B_r'``,
    ``B_p`` a factor of the prior covariance, ``B_r`` the model's of ``R``.  The
    gain is the Kalman gain of the inflated pair, solved as an SPD system.
    With all weights equal to one this is exactly the classic gain.  A ``c``
    whose shape is not ``(n + m,)`` raises `DimensionMismatch`.

    Returns
    -------
    (gain, P_w, R_w)
    """
    n = model.n
    if np.shape(c) != (n + model.m,):
        raise DimensionMismatch(f"weights have shape {np.shape(c)}, expected ({n + model.m},)")
    p_w = (b_p / c[:n]) @ b_p.T
    r_w = (model.B_r / c[n:]) @ model.B_r.T
    s = model.H @ p_w @ model.H.T + r_w
    gain = solve_spd((s + s.T) / 2.0, model.H @ p_w).T
    return gain, p_w, r_w


def _weighted_qr_solve(design, obs, c):
    """``(z, q, r)``: ``z`` minimizes ``||C^½ (obs - design z)||``, ``C^½ design = q r``.

    Householder QR of a weighted design is stable only with its rows in order
    of decreasing size (Powell and Reid 1969; Cox and Higham 1998), and kernel
    weights span twelve decades: the rows are factored sorted by their largest
    entry, and ``q``'s rows put back.  A factor whose smallest singular value
    is at most ``L * eps`` times its largest (``L`` rows, the tolerance of
    ``numpy.linalg.matrix_rank``) raises `SingularDesign`.
    """
    root_c = np.sqrt(c)
    scaled = root_c[:, None] * design
    order = np.argsort(-np.abs(scaled).max(axis=1), kind="stable")
    q, r = np.linalg.qr(scaled[order])
    q = q[np.argsort(order)]
    singular_values = np.linalg.svd(r, compute_uv=False)
    if not singular_values[-1] > singular_values[0] * c.size * np.finfo(float).eps:
        raise SingularDesign("weighted design is rank-deficient")
    return np.linalg.solve(r, q.T @ (root_c * obs)), q, r


def weighted_qr_map(reg: AugmentedRegression, x: np.ndarray, sigma: float):
    """One application of the weighted-least-squares fixed-point map, and its factor.

    ``f = (W' C W)^-1 W' C D`` at the floored kernel weights ``c`` of the
    residuals ``e`` at ``x``, by `_weighted_qr_solve`; its fixed points are the
    stationary points of the correntropy objective.  Returns ``(f, e, c, q, r)``.
    """
    e = compute_residuals(reg, x)
    c = kernel_weights(e, sigma)
    f, q, r = _weighted_qr_solve(reg.W, reg.D, c)
    return f, e, c, q, r


def _relative_steps(x_new, x_old):
    """Each row's ``||x_new - x_old|| / ||x_old||`` (absolute below `_STEP_NORM_GUARD`),
    the stop rule of every fixed-point form."""
    d = x_new - x_old
    den = np.sqrt(np.einsum("...i,...i->...", x_old, x_old))
    return np.sqrt(np.einsum("...i,...i->...", d, d)) / np.where(den < _STEP_NORM_GUARD, 1.0, den)


def _iterate(x_prev: np.ndarray, config: KernelConfig, update):
    """The single-run fixed-point loop: ``x, out = update(x_prev)`` from ``x_prev``,
    the prior mean, until `_relative_steps` is at most ``epsilon`` or the cap;
    returns ``(x, out, t, rel)`` of the last iteration ``t``.  A non-finite
    iterate raises `Diverged`."""
    for t in range(1, config.max_iterations + 1):
        x, out = update(x_prev)
        if not np.all(np.isfinite(x)):
            raise Diverged(f"fixed-point iterate {t} is not finite")
        rel = float(_relative_steps(x, x_prev))
        if rel <= config.epsilon:
            break
        x_prev = x
    return x, out, t, rel


def fixed_point_iterate(
    model: StateSpaceModel, prior: GaussianBelief, y: np.ndarray, config: KernelConfig
) -> tuple[np.ndarray, np.ndarray, FixedPointReport]:
    """Solve the correntropy update in gain form.

    Checks ``prior`` and ``y`` as the steps do and starts from the prior
    mean.  Each iteration weights `build_regression`'s residuals at the
    previous iterate, takes `robust_gain` with the `cholesky_stack` factor of
    ``prior.cov``, and applies it to the (fixed) innovation, until `_iterate`
    stops; the cap is reported via ``converged=False``, not raised, so sweeps
    over small bandwidths keep running.  No engine runs this form, whose ``H
    P_w H' + R_w`` loses accuracy once weights reach the floor;
    `fixed_point_direct` is checked against it.

    Returns ``(x, gain, report)``.  The reported count includes the first
    correction from the prior mean.  A step whose first correction is already
    below the stop threshold (zero innovation, or in practice a measurement
    discarded at `WEIGHT_FLOOR`) therefore reports 1 iteration.  As ``sigma``
    grows, the first correction becomes the Kalman update and the second only
    confirms it, so the count tends to 2.
    """
    y = _checked_measurement(model, prior, y, "fixed_point_iterate")[0]
    reg, b_p, x_p = build_regression(model, prior, y), cholesky_stack(prior.cov), prior.mean
    innovation = y - model.H @ x_p

    def update(x_prev):
        c = kernel_weights(compute_residuals(reg, x_prev), config.sigma)
        gain = robust_gain(model, b_p, c)[0]
        return x_p + gain @ innovation, (gain, c)

    x, (gain, c), t, rel = _iterate(x_p, config, update)
    return x, gain, FixedPointReport(t, rel <= config.epsilon, c, rel)


def fixed_point_direct(
    model: StateSpaceModel, prior: GaussianBelief, y: np.ndarray, config: KernelConfig
) -> tuple[np.ndarray, np.ndarray, FixedPointReport]:
    """Solve the correntropy update in weighted-least-squares form, as the reference engine does.

    Checks ``prior`` and ``y`` as the steps do and iterates ``u = B_p^-1 (x -
    x_p)``, ``B_p`` the `cholesky_stack` factor of ``prior.cov``: each trip
    weights the residuals ``e = [u ; nu_w - A_w u]`` of the last iterate (``u =
    0`` first) and solves the least squares of ``[I ; A_w]`` against ``[0 ;
    nu_w]``, whitened by the model: ``A_w = H_w B_p``, ``nu_w = B_r^-1 (y - H
    x_p)``.  Its iterates ``x = x_p + B_p u`` are `fixed_point_iterate`'s, from
    the same residuals and with the same stop rule, but unlike ``W`` of
    `build_regression` this design has full rank for every prior, even a
    singular one.  Floored state weights beside a large ``A_w`` spread its
    rows over many decades, hence `_weighted_qr_solve`'s row order.  Returns ``(x, gain, report)``, the gain
    ``K = B_p r^-1 q_y' C_y^½ B_r^-1``, ``q_y`` the last ``q``'s lower rows.
    """
    y = _checked_measurement(model, prior, y, "fixed_point_direct")[0]
    n, b_p, x_p = model.n, cholesky_stack(prior.cov), prior.mean
    design = np.vstack([np.eye(n), model.H_w @ b_p])
    obs = e = np.concatenate([np.zeros(n), model.B_r_inv @ (y - model.H @ x_p)])

    def update(x_prev):
        nonlocal e
        c = kernel_weights(e, config.sigma)
        u, q, r = _weighted_qr_solve(design, obs, c)
        e = obs - design @ u
        return x_p + b_p @ u, (c, q, r)

    x, (c, q, r), t, rel = _iterate(x_p, config, update)
    k_u = np.linalg.solve(r, q[n:].T * np.sqrt(c[n:]))
    return x, b_p @ k_u @ model.B_r_inv, FixedPointReport(t, rel <= config.epsilon, c, rel)


def _mT(a):
    """Transpose of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _whitened_update(a_w, w_inv):
    """Gain ``K_u`` of each run's whitened update at weights ``w_inv = [w_x, w_y]``.

    ``u = K_u nu_w`` minimizes ``u' diag(w_x)^-1 u + r' diag(w_y)^-1 r``, ``r =
    nu_w - A_w u``.  As ``diag(w_y)`` is diagonal, the measurements are taken
    one at a time by Potter's square-root update, with no m x m system: from
    ``B_u = diag(sqrt(w_x))``, measurement ``i`` takes ``f = B_u' a_i``,
    ``alpha = f'f + w_y_i >= 1`` and ``k = B_u f / alpha``, appends ``k`` to
    ``K_u`` after ``K_u -= k a_i' K_u`` and, if another follows, ``B_u -=
    gamma k f'`` with ``gamma = 1 / (1 + sqrt(w_y_i / alpha))``.  The first,
    against the diagonal start, is ``k = w_x a / (a' (w_x a) + w_y)``.
    """
    m, n = a_w.shape[1:]
    w_x, w_y = w_inv[:, :n], w_inv[:, n:]
    a = a_w[:, 0]
    g = w_x * a
    alpha = np.einsum("ri,ri->r", a, g) + w_y[:, 0]
    k = g / alpha[:, None]
    k_u = k[..., None]
    if m > 1:
        root = np.sqrt(w_x)
        b_u, f = root[:, None, :] * np.eye(n), root * a
    for i in range(1, m):
        gamma = 1.0 / (1.0 + np.sqrt(w_y[:, i - 1] / alpha))
        b_u -= (gamma[:, None] * k)[..., None] * f[:, None]
        a = a_w[:, i]
        f = np.einsum("rji,rj->ri", b_u, a)
        alpha = np.einsum("ri,ri->r", f, f) + w_y[:, i]
        k = np.einsum("rij,rj->ri", b_u, f) / alpha[:, None]
        k_u = np.dstack([k_u - k[..., None] * np.einsum("rj,rjl->rl", a, k_u)[:, None], k])
    return k_u


def _fixed_point(kernel, a_w, b_p, x_pred, nu_w):
    """Fixed-point solve of the correntropy update of every run of a stack.

    Iterates ``u = B_p^-1 (x - x_pred)`` in whitened measurement coordinates,
    against ``A_w = B_r^-1 H B_p`` and ``nu_w = B_r^-1 innovation``, on the
    residuals ``e = [u ; nu_w - A_w u]``: each trip takes the weights ``c =
    kernel_weights(e, sigma)``, `_whitened_update`'s ``K_u`` at ``w_inv = 1 /
    c`` and ``u = K_u nu_w``, and stops a run by `_relative_steps` on ``x =
    x_pred + B_p u``, the iterates of `fixed_point_iterate`.  The trips work on
    the runs still iterating, compacted with ``take``; a run leaves when its
    relative step is at most ``epsilon`` or NaN, or at the cap, and only then
    are its ``K_u``, weights, relative step and count written.  Returns ``(K_u,
    report)``, the `FixedPointReport` of per-run arrays; a run converged
    unless it hit the cap (converging on the last permitted trip counts).
    """
    (runs, n), m = x_pred.shape, nu_w.shape[1]
    weights, k_u = np.empty((runs, n + m)), np.empty((runs, n, m))
    count, last_rel, active = np.empty(runs, dtype=int), np.empty(runs), np.arange(runs)
    e, x_old = np.concatenate([np.zeros((runs, n)), nu_w], axis=1), x_pred
    for t in range(1, kernel.max_iterations + 1):
        c = kernel_weights(e, kernel.sigma)
        k = _whitened_update(a_w, 1.0 / c)
        u = np.einsum("rij,rj->ri", k, nu_w)
        e = np.concatenate([u, nu_w - np.einsum("rij,rj->ri", a_w, u)], axis=1)
        x_new = x_pred + np.einsum("rij,rj->ri", b_p, u)
        rel = _relative_steps(x_new, x_old)
        going = rel > kernel.epsilon
        n_going = np.count_nonzero(going)
        if t == kernel.max_iterations or not n_going:
            break
        if n_going < going.size:
            (out,), (keep,) = (~going).nonzero(), going.nonzero()
            leave = active.take(out)
            weights[leave], k_u[leave] = c.take(out, axis=0), k.take(out, axis=0)
            last_rel[leave], count[leave] = rel.take(out), t
            active, a_w, b_p, x_pred, nu_w, e, x_new = (
                v.take(keep, axis=0) for v in (active, a_w, b_p, x_pred, nu_w, e, x_new)
            )
        x_old = x_new
    weights[active], k_u[active], last_rel[active], count[active] = c, k, rel, t
    return k_u, FixedPointReport(count, ~(last_rel > kernel.epsilon), weights, last_rel)


def _filter_update(model, kernel, x_pred, p_pred, y):
    """Measurement update of a stack of runs, one per row; ``kernel is None`` is the KF.

    Both filters whiten the measurement once (``B_p = chol(P_pred)``, the
    model's ``H_w = B_r^-1 H`` and ``B_r^-1``): ``A_w = H_w B_p`` and ``nu_w =
    B_r^-1 innovation``.  Only the whitened gain ``K_u`` differs: the MCKF's
    is `_fixed_point`'s, of its last weights, and the KF's the unit-weight
    case (one `_whitened_update` at ``w_inv = 1``), whose ``P`` may be one
    ``(1, n, n)`` covariance shared by all runs.  Both take ``K_r = B_p K_u``,
    whose ``K_r B_r^-1`` is the textbook gain or `fixed_point_iterate`'s
    ``K``, and ``x = x_pred + K_r nu_w``.  As ``(I - K H) B_p = B_p - K_r A_w``
    and ``K R K' = K_r K_r'``, the Joseph covariance is ``P = G G'``, ``G =
    [B_p - K_r A_w | K_r]``: PSD by construction, and exactly symmetric, as a
    general matrix product against a contiguous copy of ``G'`` sums the same
    products in the same order for ``(i, j)`` and ``(j, i)`` (``G @ G'`` on one
    buffer is a symmetric rank-k update, twice as slow per run at 100 runs).
    Every product is per run, never one BLAS product over all runs, so no
    run's numbers depend on the stack: mat-vecs use ``einsum`` (stacked ``@``
    makes a BLAS call per run), matrix products stacked ``@``, though for
    ``H_w @ B_p`` (n = 2, m = 1) ``einsum`` takes 4.0 µs against 1.9 at 1
    run, 8.8 against 9.7 at 100 and 47 against 130 at 4000.
    Returns ``(x, P, report, K_r)``: ``report`` is `_fixed_point`'s, or ``None``
    for the KF.
    """
    (runs, n), m = p_pred.shape[:2], model.m
    innovation = y - np.einsum("ij,rj->ri", model.H, x_pred)
    b_p = cholesky_stack((p_pred + _mT(p_pred)) / 2.0)
    a_w = model.H_w @ b_p
    nu_w = np.einsum("ij,rj->ri", model.B_r_inv, innovation)
    if kernel is None:
        k_u, report = _whitened_update(a_w, np.ones((runs, n + m))), None
    else:
        k_u, report = _fixed_point(kernel, a_w, b_p, x_pred, nu_w)
    k_r = b_p @ k_u
    x = x_pred + np.einsum("...ij,...j->...i", k_r, nu_w)
    g = np.concatenate([b_p - k_r @ a_w, k_r], axis=2)
    return x, g @ np.ascontiguousarray(_mT(g)), report, k_r


def _filter_step(model, kernel, x, p, y):
    """One predict/update cycle of a stack of runs, ``(x, P) -> (x, P, report)``
    (see `_filter_update`): the batched Monte Carlo engine's step."""
    x_pred = np.einsum("ij,rj->ri", model.F, x)
    p_pred = model.F @ p @ model.F_T + model.Q
    return _filter_update(model, kernel, x_pred, p_pred, y)[:3]


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
    the fixed-point solve by sequential whitened updates, and the Joseph
    covariance of the final gain, the prior covariance and the nominal ``R``,
    formed as a Gram product (see `_filter_update`).  The report is the one
    `fixed_point_iterate` gives.

    The inputs are checked once: the belief's dimension and a finite
    measurement of length m.  ``R`` was checked and factored when the model
    was built.  A predicted covariance `cholesky_stack` rejects (an eigenvalue
    below ``-PSD_RTOL * max|P|``) raises `NotPositiveDefinite`; the posterior
    must be finite, and is PSD by construction (`GaussianBelief._from_filter`).
    """
    y = _checked_measurement(model, posterior_prev, y, "mckf_step")
    x, p, r = _filter_step(model, config, posterior_prev.mean[None], posterior_prev.cov[None], y)
    count, rel = int(r.iterations[0]), float(r.last_relative_step[0])
    report = FixedPointReport(count, bool(r.converged[0]), r.final_weights[0], rel)
    return GaussianBelief._from_filter(x[0], p[0]), report
