"""Exception hierarchy shared by the workbench modules, and their integer-field check."""

import numpy as np


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


def _require_integers(**values):
    """Reject a value that is not an int or numpy integer (bool included) by name."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, not {value!r}")
