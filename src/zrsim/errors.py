"""Semantic exception hierarchy for the simulator."""


class ZrsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(ZrsimError, ValueError):
    """A market configuration violates its invariants."""


class InvalidArgument(ZrsimError, ValueError):
    """An operation received an out-of-contract argument."""


class DomainError(ZrsimError, ValueError):
    """An operation was evaluated outside its mathematical domain."""


class CapacityError(ZrsimError, RuntimeError):
    """The requested computation exceeds the exhaustive-search guard."""
