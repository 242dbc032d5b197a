"""Exception hierarchy shared across the package."""


class EnergyMimoError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(EnergyMimoError, ValueError):
    """Array shapes are inconsistent (e.g. subcarrier matrices disagree)."""


class DomainError(EnergyMimoError, ValueError):
    """A numeric argument is outside its physical domain."""


class RealizationError(EnergyMimoError):
    """A failure of one instance of a stacked solve.

    ``realization`` is the index of the offending instance when the solve
    covered several (the message then starts with it); ``reason`` is the
    message without that prefix.
    """

    def __init__(self, reason, *, realization=None):
        message = reason if realization is None else f"realization {realization}: {reason}"
        super().__init__(message)
        self.reason = reason
        self.realization = realization


class SingularChannelError(RealizationError):
    """The user-side Gram matrix is rank deficient or too ill-conditioned."""


class InfeasibleError(RealizationError):
    """The QoS targets cannot be met under the given power constraints."""


class OracleSizeError(EnergyMimoError, ValueError):
    """The instance exceeds the desk-scale guard of a brute-force oracle."""


class ConfigError(EnergyMimoError, ValueError):
    """A config file could not be parsed; carries the offending line number."""

    def __init__(self, message, *, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
