"""Flat key = value workbench configuration with strict schema checking.

Unknown keys are errors rather than warnings so that stale configs fail
loudly.  Every emitted data file embeds the fully resolved configuration,
and re-running with that embedded configuration reproduces the file
byte for byte.
"""

from dataclasses import dataclass

import numpy as np

from .bounds import LossBudget
from .detection import FilterModel
from .errors import DOMAIN, ConfigError
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

#: the `errors.DOMAIN` row of each numeric key (``filter_kind``: its poles;
#: ``T_grid``: each entry); a value outside it is a `ConfigError`
KEY_ROWS = {row.config: row for row in DOMAIN.values() if row.config}


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


def _parse_number(key: str, raw: str):
    """The number `raw` of key `key`, an int or a float as its row takes, in its row.

    `raw` is written in ASCII without underscores: int() and float() would
    also take digit-group underscores ("1_000") and any Unicode digit, which
    the echoed config would not write back as they were written.
    """
    row = KEY_ROWS[key]
    kind = "an integer" if row.integer else "a number"
    if not raw.isascii() or "_" in raw:
        raise ConfigError(f"config key {key!r}: {raw!r} is not {kind}")
    try:
        value = int(raw) if row.integer else float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {raw!r} is not {kind}") from exc
    return row.check(value, f"config key {key!r}", ConfigError)


def _parse_grid(raw: str) -> np.ndarray:
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError("T_grid range must be start:stop:step")
        keys = ("T_grid", "T_grid", "T_grid step")
        start, stop, step = (_parse_number(key, p) for key, p in zip(keys, parts))
        if stop < start:
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
        grid = np.array([_parse_number("T_grid", p) for p in parts])
    if grid.size == 0:
        raise ConfigError("T_grid is empty")
    # the last point of a range may pass its stop
    KEY_ROWS["T_grid"].check_array(grid, "config key 'T_grid'", ConfigError)
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError("T_grid entries must be strictly increasing")
    return grid


def _filter_kind(kind_raw: str):
    """(kind, poles) of ``gaussian`` or ``sync<poles>``, else None.

    The poles are ASCII digits: int() would also take a sign, blanks and any
    Unicode digit.  A Gaussian filter keeps the default poles it never reads.
    """
    digits = kind_raw[4:]
    if kind_raw == "gaussian":
        return "gaussian", FilterModel.poles
    if kind_raw.startswith("sync") and digits.isascii() and digits.isdigit():
        try:
            return "sync_tuned", int(digits)
        except ValueError:  # more digits than int() converts, far past the poles row
            pass
    return None


def parse_filter_spec(kind_raw: str, rbw: float) -> FilterModel:
    """The filter of ``sa-time --filter``; poles outside their row raise `ValueError`."""
    spec = _filter_kind(kind_raw)
    if spec is None:
        raise ConfigError(f"bad filter kind {kind_raw!r}; use gaussian or sync<poles>")
    return FilterModel(kind=spec[0], rbw=rbw, poles=spec[1])


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
    numbers = {
        key: _parse_number(key, entries[key])
        for key in ("s", "T_a", "seed_photons", "T_p", "eta_p", "eta_c", "n_r", "rbw_hz", "seed")
    }
    if entries["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    spec = _filter_kind(entries["filter_kind"])
    if spec is None:
        raw = entries["filter_kind"]
        raise ConfigError(f"config key 'filter_kind': {raw!r} is not gaussian or sync<poles>")
    KEY_ROWS["filter_kind"].check(spec[1], "config key 'filter_kind'", ConfigError)
    return WorkbenchConfig(
        source=SourceParams(
            s=numbers["s"], T_a=numbers["T_a"], seed_photons=numbers["seed_photons"]
        ),
        budget=LossBudget(T_p=numbers["T_p"], eta_p=numbers["eta_p"], eta_c=numbers["eta_c"]),
        n_r=numbers["n_r"],
        filter=FilterModel(kind=spec[0], rbw=numbers["rbw_hz"], poles=spec[1]),
        T_grid=_parse_grid(entries["T_grid"]),
        seed=numbers["seed"],
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
