"""Flat key = value workbench configuration with strict schema checking.

Unknown keys are errors rather than warnings so that stale configs fail
loudly.  Every emitted data file embeds the fully resolved configuration,
and re-running with that embedded configuration reproduces the file
byte for byte.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import LossBudget
from .detection import FilterModel
from .errors import ConfigError
from .source import SourceParams

#: reference source and loss budget used for the bundled studies
DEFAULTS = {
    "s": "2.04",
    "T_a": "0.71",
    "seed_photons": "1e6",
    "T_p": "0.973",
    "eta_p": "0.945",
    "eta_c": "0.919",
    "n_r": "1.0",
    "filter_kind": "sync4",
    "rbw_hz": "51e3",
    "T_grid": "0.10:0.85:0.05",
    "seed": "20260808",
    "out_dir": ".",
    "format": "csv",
}

#: most T_grid points a config may ask for, checked before any grid is built
MAX_GRID_POINTS = 100_000

#: largest squeezing parameter a config may set (about 30 dB).  The numeric
#: chain loses precision as s grows; up to here its bound agrees with the
#: closed form to 1e-6 over T_a and T in (0, 1] for any loss budget.  The
#: lossless budget is the worst case, at T_a and T near 1: with the
#: closed-form source state it is off by 1.4e-10 at s = 3.5, 6.4e-10 at s = 4,
#: 1.1e-8 at s = 5 and 2.2e-6 at s = 6.
MAX_S = 3.5

_FLOAT_KEYS = ("s", "T_a", "seed_photons", "T_p", "eta_p", "eta_c", "n_r", "rbw_hz")


@dataclass(frozen=True)
class WorkbenchConfig:
    source: SourceParams
    budget: LossBudget
    n_r: float
    filter: FilterModel
    T_grid: np.ndarray
    seed: int
    out_dir: str
    format: str

    def resolved_items(self) -> list:
        """Config echoed back as (key, value) pairs in schema order."""
        grid = ",".join(format(t, ".17g") for t in self.T_grid)
        poles = self.filter.poles
        kind = "gaussian" if self.filter.kind == "gaussian" else f"sync{poles}"
        values = {
            "s": format(self.source.s, ".17g"),
            "T_a": format(self.source.T_a, ".17g"),
            "seed_photons": format(self.source.seed_photons, ".17g"),
            "T_p": format(self.budget.T_p, ".17g"),
            "eta_p": format(self.budget.eta_p, ".17g"),
            "eta_c": format(self.budget.eta_c, ".17g"),
            "n_r": format(self.n_r, ".17g"),
            "filter_kind": kind,
            "rbw_hz": format(self.filter.rbw, ".17g"),
            "T_grid": grid,
            "seed": str(self.seed),
            "out_dir": self.out_dir,
            "format": self.format,
        }
        return list(values.items())


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite")
    return value


def _parse_grid(raw: str) -> np.ndarray:
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError("T_grid range must be start:stop:step")
        start, stop, step = (_parse_float("T_grid", p) for p in parts)
        if step <= 0.0 or stop < start:
            raise ConfigError("T_grid range must increase with a positive step")
        span = (stop - start) / step
        if span >= MAX_GRID_POINTS - 0.5:  # the grid has round(span) + 1 points
            raise ConfigError(f"T_grid range has more than {MAX_GRID_POINTS} points")
        count = int(round(span)) + 1
        grid = np.round(start + step * np.arange(count), 12)
    else:
        parts = [p for p in raw.split(",") if p.strip()]
        if len(parts) > MAX_GRID_POINTS:
            raise ConfigError(f"T_grid list has more than {MAX_GRID_POINTS} points")
        grid = np.array([_parse_float("T_grid", p) for p in parts])
    if grid.size == 0:
        raise ConfigError("T_grid is empty")
    if np.any(grid <= 0.0) or np.any(grid > 1.0):
        raise ConfigError("T_grid entries must lie in (0, 1]")
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError("T_grid entries must be strictly increasing")
    return grid


def parse_filter_spec(kind_raw: str, rbw: float) -> FilterModel:
    if kind_raw == "gaussian":
        return FilterModel(kind="gaussian", rbw=rbw)
    if kind_raw.startswith("sync"):
        try:
            poles = int(kind_raw[4:])
        except ValueError as exc:
            raise ConfigError(f"bad filter kind {kind_raw!r}; use gaussian or sync<poles>") from exc
        return FilterModel(kind="sync_tuned", rbw=rbw, poles=poles)
    raise ConfigError(f"bad filter kind {kind_raw!r}; use gaussian or sync<poles>")


def parse_config_text(text: str) -> "WorkbenchConfig":
    """Parse a flat key = value config body; '#' starts a comment."""
    entries = dict(DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        entries[key] = raw
    numbers = {key: _parse_float(key, entries[key]) for key in _FLOAT_KEYS}
    if numbers["s"] > MAX_S:
        raise ConfigError(f"config key 's' = {numbers['s']!r} exceeds the maximum {MAX_S}")
    if entries["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    try:
        seed = int(entries["seed"])
    except ValueError as exc:
        raise ConfigError("seed must be an integer") from exc
    try:
        source = SourceParams(
            s=numbers["s"], T_a=numbers["T_a"], seed_photons=numbers["seed_photons"]
        )
        budget = LossBudget(T_p=numbers["T_p"], eta_p=numbers["eta_p"], eta_c=numbers["eta_c"])
        filt = parse_filter_spec(entries["filter_kind"], numbers["rbw_hz"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not numbers["n_r"] > 0.0:
        raise ConfigError("n_r must be positive")
    return WorkbenchConfig(
        source=source,
        budget=budget,
        n_r=numbers["n_r"],
        filter=filt,
        T_grid=_parse_grid(entries["T_grid"]),
        seed=seed,
        out_dir=entries["out_dir"],
        format=entries["format"],
    )


def load_config(path: str | None) -> WorkbenchConfig:
    """Config from a file, or the built-in defaults when no path is given."""
    if path is None:
        return parse_config_text("")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not valid UTF-8: {exc}") from exc
    return parse_config_text(text)
