"""Exception hierarchy shared by the workbench modules, and the declared input domain.

`DOMAIN` holds the interval of every scalar input the package checks, one
row each, and ``row.check(value)`` is the one checker: it raises the
`ValueError` naming the field.  The constructors, the public entry points
and the config parser (through the rows' config keys) all call it.
"""

import math

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


class Field:
    """One row of `DOMAIN`: a scalar `name` in `interval`, an int or a float.

    "[0, 1]" closes an end and "(0, inf)" opens it; an infinite end is open,
    so a float row is finite.  A float row takes ints and numpy reals, an int
    row ints and numpy integers, neither a bool; a 0-d array is its scalar.
    """

    __slots__ = ("key", "name", "interval", "integer", "config", "low", "high")
    __slots__ += ("_type", "_min", "_max")

    def __init__(self, key, interval, integer=False, name=None, config=None):
        self.key, self.name, self.interval, self.integer = key, name or key, interval, integer
        self.config = config  # the config key the row bounds
        self.low, self.high = (float(end) for end in interval[1:-1].split(","))
        self._type = int if integer else float
        # the closed interval of the same floats; ints compare with them exactly
        self._min = math.nextafter(self.low, math.inf) if interval[0] == "(" else self.low
        self._max = math.nextafter(self.high, -math.inf) if interval[-1] == ")" else self.high
        if integer:
            self._max = self.high  # an int past the float range is still finite

    def check(self, value, subject=None, error=ValueError):
        """`value` if it lies in the row, else `error` naming `subject` or the field."""
        if type(value) is self._type and self._min <= value <= self._max:
            return value
        scalar = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
        kinds = (int, np.integer) if self.integer else (int, float, np.integer, np.floating)
        if not isinstance(scalar, kinds) or isinstance(scalar, bool):
            kind = "an integer" if self.integer else "a real number"
            kind = "a scalar" if np.ndim(value) else kind
            raise error(f"{subject or self.name} must be {kind}, not {value!r}")
        if not self._min <= scalar <= self._max:
            raise error(f"{subject or self.name} must {self.rule}, not {value!r}")
        return value

    @property
    def rule(self) -> str:
        """The interval in words: "lie in [0, 1]", "be finite and non-negative"."""
        if self.high < math.inf:
            return f"lie in {self.interval}"
        opened = self.interval[0] == "("
        if self.low == 0.0:
            bound = "positive" if opened else "non-negative"
        else:
            bound = f"{'greater than' if opened else 'at least'} {self.low:g}"
        return f"be {bound}" if self.integer else f"be finite and {bound}"

    def holds(self, values: np.ndarray) -> bool:
        """Whether every entry of a float array lies in the row; min and max carry a NaN."""
        return values.size == 0 or bool(values.min() >= self._min and values.max() <= self._max)

    def check_array(self, values: np.ndarray, subject=None, error=ValueError) -> np.ndarray:
        """A float array of entries in the row, else the error of its first entry outside."""
        if not self.holds(values):
            inside = (values >= self._min) & (values <= self._max)
            self.check(float(values.flat[np.argmin(inside)]), subject, error)
        return values


#: every checked scalar input, by key: a field's name, or a narrower interval
#: of a field for the entry points its comment names
DOMAIN = {
    row.key: row
    for row in (
        Field("s", "[0, inf)"),
        Field("T_a", "(0, 1]", config="T_a"),
        Field("seed_photons", "[0, inf)"),
        Field("layers", "[1, inf)", integer=True),
        Field("rel_tol", "(0, inf)"),
        Field("T_p", "[0, 1]", config="T_p"),
        Field("eta_p", "[0, 1]", config="eta_p"),
        Field("eta_c", "[0, 1]", config="eta_c"),
        Field("T", "[0, 1]"),
        Field("n_r", "(0, inf)", config="n_r"),
        Field("rbw", "(0, inf)", config="rbw_hz"),
        # the effective time is a product over poles - 1 factors
        Field("poles", "[1, 1000]", integer=True, config="filter_kind"),
        Field("trials", "[1, inf)", integer=True),
        # trials per transmission of `simulate`: a ramp holds about 41 bytes per
        # trial (tracemalloc), 410 MB at the cap, which covers the paper's 14 s at 51 kHz
        Field("--trials", "[100, 10000000]", integer=True),
        Field("rng_seed", "[0, inf)", integer=True, config="seed"),
        Field("ramp_duration", "(0, inf)"),
        Field("noise_variance", "(0, inf)"),
        Field("initial_amplitude", "[0, inf)"),
        # a fit holds at most about 205 bytes per member (tracemalloc): 135 MB at the cap
        Field("population", "[4, 1000000]", integer=True),
        Field("max_generations", "[0, inf)", integer=True),
        Field("acceptance_prob", "[0, 1]"),
        Field("spread_tol", "[0, inf)"),
        Field("dof", "[1, inf)", integer=True),
        Field("n_rays", "[1, inf)", integer=True),
        Field("bisection_steps", "[0, inf)", integer=True),
        Field("chi2_min", "[0, inf)"),
        # the config's squeezing (about 30 dB), where the numeric bound still
        # meets the closed form to 1e-6 over T_a, T in (0, 1] and any budget;
        # the lossless one, the worst, is off by 1.4e-10 here, 2.2e-6 at s = 6
        Field("capped s", "[0, 3.5]", name="s", config="s"),
        # the bright-limit chain's seed floor (`bounds.ProbeChain`), photons per window
        Field("bright seed_photons", "[1e4, inf)", name="seed_photons", config="seed_photons"),
        # the bounds that divide by eta_p
        Field("positive eta_p", "(0, 1]", name="eta_p"),
        # the numeric bound, the estimator, and each entry of a config's T_grid
        Field("positive T", "(0, 1]", name="T", config="T_grid"),
        # the step of a config's start:stop:step T_grid
        Field("T_grid step", "(0, inf)", config="T_grid step"),
    )
}
