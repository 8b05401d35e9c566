"""Shared exception types."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class DimensionError(ContractError):
    """Operand shapes are incompatible."""


class TransportError(ConnectionError):
    """A remote predictor endpoint could not be reached, or answered
    outside the wire protocol. Only the first kind is worth a retry, and
    `RemotePredictor` retries it before raising this error."""


class StartupError(OSError):
    """The prediction service could not bind its endpoint."""
