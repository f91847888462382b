"""Exception types shared across the package."""


class DomainError(ValueError):
    """An operation was called with arguments outside its physical domain."""


class ConfigError(ValueError):
    """A run configuration file or option is invalid."""


class FrameFileError(OSError):
    """A frame image file is missing, truncated or malformed."""


class GridConfigError(DomainError):
    """A grid or configuration value violates a sampling/band-limit rule."""
