"""Shared generators for randomized sweeps, and test oracles.

Tests use seeded numpy generators for instance sampling, so every sweep is
reproducible; the package's own stream type is only used where the contract
under test is about those streams.  The oracles below are quantities the
tests check the package against that no part of the package computes.
"""

import numpy as np
import pytest

from robustkf import (
    DimensionMismatch,
    EmptyInput,
    GaussianBelief,
    StateSpaceModel,
    build_regression,
    gaussian_kernel,
)
from robustkf.numerics import require_finite


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


def correntropy_estimate(errors: np.ndarray, sigma: float) -> float:
    """Sample correntropy of an error sequence: the mean kernel value.

    This is also the objective the fixed-point update maximizes, evaluated
    at whitened residuals.
    """
    errors = np.atleast_1d(np.asarray(errors, dtype=float))
    if errors.size == 0:
        raise EmptyInput("correntropy_estimate: empty error sequence")
    return float(np.mean(gaussian_kernel(errors, sigma)))


def exact_whitened_update(a_w, nu_w, c):
    """The exact ``u`` of one whitened update at kernel weights ``c``.

    Solves the normal equations ``(C_x + A_w' C_y A_w) u = A_w' C_y nu_w`` of
    ``min ||C_x^½ u||² + ||C_y^½ (nu_w - A_w u)||²``, ``diag(c) = [C_x, C_y]``
    state block first, by ``mpmath.lu_solve`` at 50 digits.  ``a_w`` and
    ``nu_w`` may be arrays or ``mpmath`` matrices; returns an ``mpmath``
    column, which callers compare under ``mpmath.workdps(50)``.
    """
    import mpmath

    with mpmath.workdps(50):
        a_w, nu_w = mpmath.matrix(a_w), mpmath.matrix(nu_w)
        c_x, c_y = mpmath.diag(c[: a_w.cols]), mpmath.diag(c[a_w.cols:])
        return mpmath.lu_solve(c_x + a_w.T * c_y * a_w, a_w.T * c_y * nu_w)


def random_spd(rng: np.random.Generator, k: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((k, k))
    return scale * (a @ a.T / k + 0.2 * np.eye(k))


def random_model(rng: np.random.Generator, n: int, m: int) -> StateSpaceModel:
    f = rng.standard_normal((n, n))
    radius = float(np.max(np.abs(np.linalg.eigvals(f))))
    f = 0.95 * f / max(radius, 1e-3)
    h = rng.standard_normal((m, n))
    return StateSpaceModel(
        F=f, H=h, Q=random_spd(rng, n, 0.05), R=random_spd(rng, m, 0.1)
    )


def random_problem(rng: np.random.Generator, n: int, m: int):
    """A random model, prior and measurement: ``(model, prior, y)``."""
    model = random_model(rng, n, m)
    prior = GaussianBelief(rng.standard_normal(n), random_spd(rng, n, 0.5))
    y = model.H @ prior.mean + rng.standard_normal(m)
    return model, prior, y


def random_regression(rng: np.random.Generator, n: int, m: int):
    return build_regression(*random_problem(rng, n, m))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20230815)
