"""Classic Kalman filter predict and update steps, the baseline estimator.

Both run the batched Monte Carlo engine's arithmetic on one trajectory:
`kf_predict` its predict (`robustkf.mckf._predict`), `kf_update` the
unit-weight case of its update (`robustkf.mckf._filter_update`), so a cycle
is the engine's KF row and `mckf_step` at ``sigma = inf``, bit for bit.
Both are pure; the returned beliefs hold exactly symmetric covariances.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .mckf import _checked_measurement, _filter_update, _predict
from .model import GaussianBelief, StateSpaceModel


def kf_predict(model: StateSpaceModel, posterior: GaussianBelief) -> GaussianBelief:
    """Propagate a posterior belief through the model dynamics.

    Returns the prior ``(F x, F P F' + Q)`` of the engine's `_predict` on one
    run, exactly symmetric, as a fully checked `GaussianBelief`.
    """
    if posterior.dim != model.n:
        raise DimensionMismatch(
            f"belief dim {posterior.dim} does not match model state dim {model.n}"
        )
    x, p = _predict(model, posterior.mean[None], posterior.cov[None])
    return GaussianBelief(x[0], p[0])


def kf_update(
    model: StateSpaceModel, prior: GaussianBelief, y: np.ndarray
) -> tuple[GaussianBelief, np.ndarray]:
    """Condition a prior belief on one measurement.

    Runs the KF case of the batched Monte Carlo engine's update,
    `_filter_update`, on one run: the MCKF's whitened update at unit kernel
    weights.  Its gain is the textbook ``P H' (H P H' + R)^-1``, taken one
    whitened measurement at a time, with no m x m solve; its covariance is
    the Joseph form ``(I - K H) P (I - K H)' + K R K'`` as a Gram product,
    exactly symmetric and PSD by construction.  The inputs are checked once: the
    belief's dimension and a finite measurement of length m.  ``R`` was
    checked and factored when the model was built.

    Returns ``(posterior, gain)``, the gain an n x m matrix.
    """
    y = _checked_measurement(model, prior, y, "kf_update")
    x, p, _, k_r = _filter_update(model, None, prior.mean[None], prior.cov[None], y)
    return GaussianBelief._from_filter(x[0], p[0]), k_r[0] @ model.B_r_inv
