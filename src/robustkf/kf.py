"""Classic Kalman filter predict and update steps.

These are the baseline estimator.  `kf_predict` is the prior propagation the
reference Monte Carlo engine composes with the correntropy update;
`kf_update` is the kernel-free case of the stacked update the filters share
(`robustkf.mckf._filter_update`), run on one trajectory.  Both functions are
pure; the returned beliefs hold symmetrized covariances.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .mckf import _checked_measurement, _filter_update
from .model import GaussianBelief, StateSpaceModel
from .numerics import _require_psd


def kf_predict(model: StateSpaceModel, posterior: GaussianBelief) -> GaussianBelief:
    """Propagate a posterior belief through the model dynamics.

    Returns the prior belief with mean ``F x`` and covariance
    ``F P F.T + Q``.
    """
    if posterior.dim != model.n:
        raise DimensionMismatch(
            f"belief dim {posterior.dim} does not match model state dim {model.n}"
        )
    mean = model.F @ posterior.mean
    return GaussianBelief(mean, model.F @ posterior.cov @ model.F.T + model.Q)


def kf_update(
    model: StateSpaceModel, prior: GaussianBelief, y: np.ndarray
) -> tuple[GaussianBelief, np.ndarray]:
    """Condition a prior belief on one measurement.

    Runs the KF case of the batched Monte Carlo engine's update,
    `_filter_update`, on one run.  The gain solves ``(H P H.T + R) K.T =
    H P`` (no explicit inverse); the covariance uses the Joseph form
    ``(I - K H) P (I - K H).T + K R K.T``, which stays PSD under perturbed
    gains.  The inputs are checked once: the belief's dimension and a finite
    measurement of length m.  ``R`` was checked when the model was built.
    The posterior must be finite and PSD: the Joseph sum is no Gram product,
    so its smallest eigenvalue is checked (`_require_psd`).

    Returns ``(posterior, gain)``, the gain an n x m matrix.
    """
    y = _checked_measurement(model, prior, y, "kf_update")
    x, p, gain, _ = _filter_update(model, None, prior.mean[None], prior.cov[None], y, None)
    posterior = GaussianBelief._from_filter(x[0], p[0])
    _require_psd(posterior.cov, "GaussianBelief.cov")
    return posterior, gain[0]
