"""Classic Kalman filter predict and update steps.

These are the baseline estimator.  `kf_predict` is the prior propagation the
reference Monte Carlo engine composes with the correntropy update;
`kf_update` is the unit-weight case of the whitened update the filters
share (`robustkf.mckf._filter_update`), run on one trajectory.  Both
functions are pure; the returned beliefs hold exactly symmetric covariances.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .mckf import _checked_measurement, _filter_update
from .model import GaussianBelief, StateSpaceModel


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
    `_filter_update`, on one run: the MCKF's whitened update at unit kernel
    weights.  Its gain is the textbook ``P H' (H P H' + R)^-1``, taken one
    whitened measurement at a time, with no m x m solve; its covariance is
    the Joseph form ``(I - K H) P (I - K H)' + K R K'``, which stays PSD
    under perturbed gains, written as a Gram product, so it is exactly
    symmetric and PSD by construction.  The inputs are checked once: the
    belief's dimension and a finite measurement of length m.  ``R`` was
    checked and factored when the model was built.

    Returns ``(posterior, gain)``, the gain an n x m matrix.
    """
    y = _checked_measurement(model, prior, y, "kf_update")
    x, p, _, k_r = _filter_update(model, None, prior.mean[None], prior.cov[None], y)
    return GaussianBelief._from_filter(x[0], p[0]), k_r[0] @ model.B_r_inv
