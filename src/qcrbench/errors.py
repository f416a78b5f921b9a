"""Exception hierarchy shared by the workbench modules."""


class WorkbenchError(Exception):
    """Base class for domain errors raised by this package."""


class BrightLimitError(WorkbenchError):
    """Bright-field photon statistics requested for a mode with no mean field."""


class ConvergenceError(WorkbenchError):
    """An iterative limit (the slice stack's layer doubling) failed to converge."""


class NonPhysicalError(WorkbenchError):
    """Inputs or intermediate values left the physically meaningful domain."""


class SchemaError(WorkbenchError):
    """An input file does not match its documented schema."""


class ConfigError(SchemaError):
    """A workbench config file contains unknown or malformed entries."""
