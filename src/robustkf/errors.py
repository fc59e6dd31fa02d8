"""Exception types shared across the package."""


class RobustKFError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(RobustKFError):
    """Operands have incompatible shapes."""


class NotSymmetric(RobustKFError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(RobustKFError):
    """A matrix has an eigenvalue below ``-PSD_RTOL * max|a|`` (indefinite beyond
    round-off, `numerics._require_psd`), or is singular where it must be definite."""


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
