"""Linear state-space models, belief state, and noise sampling.

The system evolves as ``x(k) = F x(k-1) + q(k-1)`` with measurements
``y(k) = H x(k) + r(k)``, where the process and measurement noises are
mutually independent, zero-correlation-across-coordinates draws.  Noise laws
are finite Gaussian mixtures per coordinate, which covers both the nominal
Gaussian case and the heavy-tailed impulsive case (a small-weight,
large-variance second component).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .numerics import _require_psd, cholesky_lower, require_finite, require_symmetric
from .rng import RandomStream


@dataclass(frozen=True)
class StateSpaceModel:
    """Time-invariant linear model (F, H, Q, R).

    ``F`` is the n x n state transition matrix, ``H`` the m x n observation
    matrix, ``Q`` the process-noise covariance and ``R`` the measurement-noise
    covariance.  Construction copies the arrays, checks the invariants below
    once, keeps the symmetrized ``Q`` and ``R`` it checked, so every engine
    uses one ``R``, and factors ``R = B_r B_r'`` (`cholesky_lower`), storing
    ``B_r``, ``B_r_inv`` and the whitened ``H_w = B_r_inv H`` for every filter
    step, with ``F_T``, a C-contiguous copy of ``F'`` for the stacked predict.
    All eight arrays are read-only, so neither the checks nor the factor can
    go stale.

    Raises
    ------
    DimensionMismatch
        F not square, or H/Q/R shapes inconsistent with (n, m).
    NonFinite
        Any of F, H, Q, R has NaN/Inf entries.
    NotSymmetric
        Q or R not symmetric within tolerance.
    NotPositiveDefinite
        R singular or indefinite, so its factor (`cholesky_lower`) fails; or
        Q has an eigenvalue below ``-PSD_RTOL * max|Q|``.
    """

    F: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    B_r: np.ndarray = field(init=False, repr=False, compare=False)
    B_r_inv: np.ndarray = field(init=False, repr=False, compare=False)
    F_T: np.ndarray = field(init=False, repr=False, compare=False)
    H_w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("F", "H", "Q", "R"):
            arr = np.atleast_2d(np.array(getattr(self, name), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        F, H, Q, R = self.F, self.H, self.Q, self.R
        for name, arr in (("F", F), ("H", H)):
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
        Q, R = require_symmetric(Q, "StateSpaceModel.Q"), require_symmetric(R, "StateSpaceModel.R")
        try:
            b_r = cholesky_lower(R)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(f"R must be positive definite ({exc})") from None
        _require_psd(Q, "Q")
        b_r_inv = np.linalg.inv(b_r)
        derived = dict(Q=Q, R=R, B_r=b_r, B_r_inv=b_r_inv, F_T=F.T.copy(), H_w=b_r_inv @ H)
        for name, arr in derived.items():
            arr.flags.writeable = False
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
    ``-PSD_RTOL * max|cov|`` on its smallest eigenvalue.  The belief keeps
    what it checked: a copy of ``mean`` and the symmetrized copy of ``cov``,
    so later writes to the caller's arrays do not reach it.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = require_finite(np.array(self.mean, dtype=float, ndmin=1), "GaussianBelief.mean")
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1:
            raise DimensionMismatch("GaussianBelief.mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"GaussianBelief.cov shape {cov.shape} does not match state dim {mean.size}"
            )
        # The symmetrized copy overflows where an entry nears the float maximum.
        cov = require_finite(require_symmetric(cov, "GaussianBelief.cov"), "GaussianBelief.cov")
        _require_psd(cov, "GaussianBelief.cov")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _from_filter(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianBelief":
        """A filter step's output: ``mean`` a float vector and ``cov`` the matching
        Gram product ``G G'`` (see `robustkf.mckf._filter_update`), so only
        finiteness is checked.

        The step forms ``G G'`` by a general matrix product against a contiguous
        copy of ``G'``, exactly symmetric because elements ``(i, j)`` and ``(j,
        i)`` sum the same products in the same order; for a finite n x k ``G``
        its rounded value has ``lambda_min >= -~n k u max|cov|``, ``u`` the unit
        round-off: far inside ``PSD_RTOL``, so `_require_psd` could never fire."""
        require_finite(mean, "GaussianBelief.mean")
        require_finite(cov, "GaussianBelief.cov")
        belief = object.__new__(cls)
        object.__setattr__(belief, "mean", mean)
        object.__setattr__(belief, "cov", cov)
        return belief

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
        # The component is the count of cumulative weights, the last excepted, at or below u.
        idx = sum((edge <= u[..., i, 0] for edge in np.cumsum([w for w, _, _ in coord])[:-1]), 0)
        mus = np.array([mu for _, mu, _ in coord])
        sds = np.sqrt([var for _, _, var in coord])
        z = np.sqrt(-2.0 * np.log(u[..., i, 1])) * np.cos(2.0 * np.pi * u[..., i, 2])
        out[..., i] = mus[idx] + sds[idx] * z
    return out
