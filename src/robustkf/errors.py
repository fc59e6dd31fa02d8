"""Exception types shared across the package."""


class RobustKFError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(RobustKFError):
    """Operands have incompatible shapes."""


class NotSymmetric(RobustKFError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(RobustKFError):
    """A matrix is indefinite beyond round-off, or singular where it must be definite."""


class NotPSD(RobustKFError):
    """A covariance matrix has an eigenvalue below the PSD tolerance."""


class InvalidBandwidth(RobustKFError):
    """Kernel bandwidth must be strictly positive."""


class EmptyInput(RobustKFError):
    """An operation received an empty sample set."""


class NonFinite(RobustKFError, ValueError):
    """An array holds NaN or Inf entries where finite values are required."""


class Diverged(RobustKFError):
    """A fixed-point iterate left the space of finite vectors."""


class SingularDesign(RobustKFError):
    """The design Gram matrix of a regression snapshot is singular."""


class BetaTooSmall(RobustKFError):
    """The requested iterate bound does not exceed the intrinsic lower bound."""


class BracketNotFound(RobustKFError):
    """No sign change found for a bandwidth root within the search range."""


class ConfigParseError(RobustKFError):
    """A command-line or file configuration could not be parsed or validated."""
