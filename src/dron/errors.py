"""Exception types shared across the package."""


class DronError(Exception):
    """Base class for all package errors."""


class ConfigurationError(DronError):
    """Invalid specs, shapes, or configuration values. ``keys`` names the
    configuration keys a rule found at fault, when there are any."""

    def __init__(self, *args: object, keys: tuple = ()):
        super().__init__(*args)
        self.keys = keys


class UsageError(DronError):
    """A function was called in a way its contract forbids."""


class TrainingError(DronError):
    """Optimization produced a non-finite quantity."""


class CheckpointError(DronError):
    """Checkpoint file could not be parsed or is unsupported."""
