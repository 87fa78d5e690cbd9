"""Semantic exceptions shared across the package.

Public functions raise these instead of bare ValueError/RuntimeError so the
CLI can map failure classes to exit codes (config errors exit 2, capacity
errors exit 3, identity violations exit 4).
"""


class InterferenceLabError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(InterferenceLabError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedDesignError(InterferenceLabError):
    """The operation has closed forms only for a different design family."""


class CapacityError(InterferenceLabError):
    """Exact enumeration was requested beyond the configured size cap."""


class IdentityViolationError(InterferenceLabError):
    """A result broke an identity that holds in exact arithmetic (the moment
    identity, the MSE floor) by more than rounding explains."""


class IncompleteTableError(InterferenceLabError):
    """A potential-outcome table lacks an entry the query needs."""


class IncompleteEstimatorError(InterferenceLabError):
    """A tabular estimator was queried at a key it does not define."""


class GraphFormatError(InterferenceLabError, ValueError):
    """A graph file is malformed (self-loop, duplicate edge, bad index)."""


class ConfigError(InterferenceLabError, ValueError):
    """A run configuration is malformed or contains unknown keys."""
