"""Linear state-space models, belief state, and noise sampling.

The system evolves as ``x(k) = F x(k-1) + q(k-1)`` with measurements
``y(k) = H x(k) + r(k)``, where the process and measurement noises are
mutually independent, zero-correlation-across-coordinates draws.  Noise laws
are finite Gaussian mixtures per coordinate, which covers both the nominal
Gaussian case and the heavy-tailed impulsive case (a small-weight,
large-variance second component).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotPSD, NotSymmetric
from .numerics import (
    SYMMETRY_RTOL,
    min_eigenvalue_symmetric,
    require_finite,
)
from .rng import RandomStream

#: Relative tolerance on the PSD check for covariance matrices.
PSD_RTOL = 1e-10


@dataclass(frozen=True)
class StateSpaceModel:
    """Time-invariant linear model (F, H, Q, R).

    ``F`` is the n x n state transition matrix, ``H`` the m x n observation
    matrix, ``Q`` the process-noise covariance and ``R`` the measurement-noise
    covariance.  Construction only coerces the arrays; call `validate_model`
    to enforce the shape/symmetry/definiteness invariants.
    """

    F: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("F", "H", "Q", "R"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def m(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class GaussianBelief:
    """State estimate and covariance at one time step.

    Invariants are enforced at construction: ``cov`` must be square,
    consistent with ``mean``, symmetric within tolerance, and PSD up to
    ``-PSD_RTOL * max|cov|`` on its smallest eigenvalue.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = require_finite(np.atleast_1d(self.mean), "GaussianBelief.mean")
        cov = require_finite(np.atleast_2d(self.cov), "GaussianBelief.cov")
        if mean.ndim != 1:
            raise DimensionMismatch("GaussianBelief.mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"GaussianBelief.cov shape {cov.shape} does not match state dim {mean.size}"
            )
        scale = max(1.0, float(np.max(np.abs(cov))))
        if float(np.max(np.abs(cov - cov.T))) > SYMMETRY_RTOL * scale:
            raise NotSymmetric("GaussianBelief.cov is not symmetric within tolerance")
        if min_eigenvalue_symmetric(cov) < -PSD_RTOL * float(np.max(np.abs(cov))):
            raise NotPSD("GaussianBelief.cov has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class MixtureNoiseSpec:
    """Per-coordinate finite Gaussian mixture, coordinates independent.

    ``components[i]`` is the mixture for coordinate ``i``: a tuple of
    ``(weight, mean, variance)`` triples whose weights sum to one.
    """

    components: tuple[tuple[tuple[float, float, float], ...], ...]

    def __post_init__(self):
        comps = tuple(
            tuple((float(w), float(mu), float(var)) for w, mu, var in coord)
            for coord in self.components
        )
        if not comps:
            raise DimensionMismatch("MixtureNoiseSpec needs at least one coordinate")
        for i, coord in enumerate(comps):
            if not coord:
                raise DimensionMismatch(f"coordinate {i} has no mixture components")
            total = sum(w for w, _, _ in coord)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"coordinate {i}: weights sum to {total}, expected 1")
            if any(w < 0 for w, _, _ in coord):
                raise ValueError(f"coordinate {i}: negative weight")
            if any(var < 0 for _, _, var in coord):
                raise ValueError(f"coordinate {i}: negative variance")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return len(self.components)

    @classmethod
    def iid(cls, dim: int, components) -> "MixtureNoiseSpec":
        """Same mixture law for every coordinate."""
        coord = tuple(tuple(c) for c in components)
        return cls(tuple(coord for _ in range(dim)))

    @classmethod
    def gaussian(cls, dim: int, variance: float) -> "MixtureNoiseSpec":
        """Zero-mean Gaussian with the given variance on every coordinate."""
        return cls.iid(dim, ((1.0, 0.0, float(variance)),))


def mixture_moments(spec: MixtureNoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean and variance of a mixture, by the law of total variance.

    The variance is ``sum_j w_j (var_j + mu_j^2) - mean^2`` per coordinate.
    """
    means = np.empty(spec.dim)
    variances = np.empty(spec.dim)
    for i, coord in enumerate(spec.components):
        mean = sum(w * mu for w, mu, _ in coord)
        second = sum(w * (var + mu * mu) for w, mu, var in coord)
        means[i] = mean
        variances[i] = second - mean * mean
    return means, variances


def validate_model(model: StateSpaceModel) -> None:
    """Enforce the StateSpaceModel invariants.

    Raises
    ------
    DimensionMismatch
        F not square, or H/Q/R shapes inconsistent with (n, m).
    NotSymmetric
        Q or R not symmetric within tolerance.
    NotPositiveDefinite
        R singular or indefinite (measurement noise must be invertible).
    NotPSD
        Q has an eigenvalue below ``-PSD_RTOL * max|Q|``.
    """
    F, H, Q, R = model.F, model.H, model.Q, model.R
    for name, arr in (("F", F), ("H", H), ("Q", Q), ("R", R)):
        require_finite(arr, f"StateSpaceModel.{name}")
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise DimensionMismatch(f"F must be square, got {F.shape}")
    n = F.shape[0]
    if H.ndim != 2 or H.shape[1] != n:
        raise DimensionMismatch(f"H must be m x {n}, got {H.shape}")
    m = H.shape[0]
    if Q.shape != (n, n):
        raise DimensionMismatch(f"Q must be {n} x {n}, got {Q.shape}")
    if R.shape != (m, m):
        raise DimensionMismatch(f"R must be {m} x {m}, got {R.shape}")
    for name, arr in (("Q", Q), ("R", R)):
        scale = max(1.0, float(np.max(np.abs(arr))))
        if float(np.max(np.abs(arr - arr.T))) > SYMMETRY_RTOL * scale:
            raise NotSymmetric(f"{name} is not symmetric within tolerance")
    if min_eigenvalue_symmetric(R) <= 0.0:
        raise NotPositiveDefinite("R must be positive definite")
    if min_eigenvalue_symmetric(Q) < -PSD_RTOL * float(np.max(np.abs(Q))):
        raise NotPSD("Q must be positive semidefinite")


def sample_mixture(spec: MixtureNoiseSpec, rng: RandomStream) -> np.ndarray:
    """Draw one noise vector from a mixture spec.

    Each coordinate consumes exactly three uniforms, in order: one to pick
    the mixture component by cumulative weight, then two for the Box-Muller
    normal.  A zero-variance component yields its mean exactly.  This is
    `sample_mixture_sequence` with one step.
    """
    return sample_mixture_sequence(spec, 1, rng)[0]


def sample_mixture_sequence(
    spec: MixtureNoiseSpec, steps: int, rng: RandomStream
) -> np.ndarray:
    """Draw ``steps`` consecutive noise vectors in one vectorized call.

    Consumes the stream exactly as ``steps`` sequential `sample_mixture`
    calls would (same uniforms, same order), so the two paths are
    interchangeable.  The result has shape ``(steps, d)``; a stream over a
    batch of seeds adds their shape as leading axes, ``(runs, steps, d)``,
    and row ``i`` is exactly what the stream of seed ``i`` alone gives.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    d = spec.dim
    u = rng.uniforms(3 * d * steps)
    u = u.reshape(u.shape[:-1] + (steps, d, 3))
    out = np.empty(u.shape[:-1])
    for i, coord in enumerate(spec.components):
        cum = np.cumsum([w for w, _, _ in coord])
        idx = np.minimum(
            np.searchsorted(cum, u[..., i, 0], side="right"), len(coord) - 1
        )
        mus = np.array([mu for _, mu, _ in coord])
        sds = np.sqrt([var for _, _, var in coord])
        z = np.sqrt(-2.0 * np.log(u[..., i, 1])) * np.cos(2.0 * np.pi * u[..., i, 2])
        out[..., i] = mus[idx] + sds[idx] * z
    return out


def propagate_truth(
    model: StateSpaceModel,
    x: np.ndarray,
    q_spec: MixtureNoiseSpec,
    r_spec: MixtureNoiseSpec,
    rng: RandomStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the true state one step and measure it.

    Returns ``(x_next, y)`` with ``x_next = F x + q`` and ``y = H x_next + r``.
    The process noise is drawn before the measurement noise.
    """
    x = require_finite(np.atleast_1d(x), "propagate_truth state")
    if x.size != model.n:
        raise DimensionMismatch(f"state has dim {x.size}, model expects {model.n}")
    if q_spec.dim != model.n or r_spec.dim != model.m:
        raise DimensionMismatch("noise spec dimensions do not match the model")
    q = sample_mixture(q_spec, rng)
    x_next = model.F @ x + q
    r = sample_mixture(r_spec, rng)
    y = model.H @ x_next + r
    return x_next, y
