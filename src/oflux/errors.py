"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: precondition failures
(bad parameters, under-resolved scales, violated margins) exit with 3,
anything unexpected with 1.
"""


class PreconditionError(Exception):
    """An operation was called outside its admissible parameter range."""


class MarginViolationError(PreconditionError):
    """A mollification or region request does not respect the required margin."""

    def __init__(self, message, offending_nodes=None):
        super().__init__(message)
        self.offending_nodes = offending_nodes or []


class UnderResolvedError(PreconditionError):
    """A requested scale cannot be represented on the current grid."""


class ConfigError(PreconditionError):
    """A run configuration is malformed; the message carries the key path."""
