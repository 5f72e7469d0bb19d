"""Exception types shared across the package."""


class DiftransError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(DiftransError):
    """A required input column or field is missing or unresolvable."""


class ParseError(DiftransError):
    """An input value could not be parsed into the expected type."""


class ValidationError(DiftransError):
    """An input value violates a domain constraint."""


class EmptyDistributionError(DiftransError):
    """A price distribution was requested from data with zero total quantity."""


class SelectionError(DiftransError):
    """No bandwidth in the candidate grid satisfies the selection rule."""


class ConfigError(DiftransError):
    """A configuration value is inconsistent with the data or other settings."""


class InfeasibleShareError(DiftransError):
    """A requested trade share exceeds what the market model can support."""
