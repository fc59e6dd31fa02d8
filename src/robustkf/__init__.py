"""Outlier-robust Kalman filtering with a correntropy fixed-point update.

The package provides the classic Kalman filter, a robust variant whose
update maximizes a Gaussian-kernel similarity of whitened residuals,
bandwidth-sufficiency convergence certificates, and a seeded Monte Carlo
harness comparing the filters under Gaussian and impulsive noise.
"""

from .diagnostics import (
    ConvergenceCertificate,
    FlopCounts,
    flop_counts,
    jacobian_f,
    phi_sigma,
    psi_sigma,
    sufficient_sigma,
    zeta,
)
from .errors import (
    BetaTooSmall,
    BracketNotFound,
    ConfigParseError,
    DimensionMismatch,
    Diverged,
    EmptyInput,
    InvalidBandwidth,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    RobustKFError,
    SingularDesign,
)
from .kf import kf_predict, kf_update
from .mckf import (
    AugmentedRegression,
    FixedPointReport,
    KernelConfig,
    build_regression,
    compute_residuals,
    fixed_point_direct,
    fixed_point_iterate,
    gaussian_kernel,
    kernel_weights,
    mckf_step,
    robust_gain,
)
from .model import (
    GaussianBelief,
    MixtureNoiseSpec,
    StateSpaceModel,
    mixture_moments,
    sample_mixture,
    sample_mixture_sequence,
)
from .numerics import (
    cholesky_lower,
    min_eigenvalue_symmetric,
    solve_spd,
)
from .rng import RandomStream, substream_seed
from .sim import (
    ExperimentConfig,
    ExperimentResult,
    FilterSpec,
    Histogram,
    error_density,
    generate_run_data,
    make_example1,
    make_example2,
    noise_specs,
    run_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedRegression",
    "BetaTooSmall",
    "BracketNotFound",
    "ConfigParseError",
    "ConvergenceCertificate",
    "DimensionMismatch",
    "Diverged",
    "EmptyInput",
    "ExperimentConfig",
    "ExperimentResult",
    "FilterSpec",
    "FixedPointReport",
    "FlopCounts",
    "GaussianBelief",
    "Histogram",
    "InvalidBandwidth",
    "KernelConfig",
    "MixtureNoiseSpec",
    "NonFinite",
    "NotPositiveDefinite",
    "NotSymmetric",
    "RandomStream",
    "RobustKFError",
    "SingularDesign",
    "StateSpaceModel",
    "build_regression",
    "cholesky_lower",
    "compute_residuals",
    "error_density",
    "fixed_point_direct",
    "fixed_point_iterate",
    "flop_counts",
    "gaussian_kernel",
    "generate_run_data",
    "jacobian_f",
    "kernel_weights",
    "kf_predict",
    "kf_update",
    "make_example1",
    "make_example2",
    "mckf_step",
    "min_eigenvalue_symmetric",
    "mixture_moments",
    "noise_specs",
    "phi_sigma",
    "psi_sigma",
    "robust_gain",
    "run_monte_carlo",
    "sample_mixture",
    "sample_mixture_sequence",
    "solve_spd",
    "substream_seed",
    "sufficient_sigma",
    "zeta",
]
