"""Exception taxonomy shared by every module."""


class HLTorusError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HLTorusError):
    """Incompatible objects were combined (ring orders, variable lists)."""


class DomainError(HLTorusError):
    """An operation was invoked outside its mathematical domain."""


class ResourceLimitError(HLTorusError):
    """A configured memory or size ceiling was exceeded."""
