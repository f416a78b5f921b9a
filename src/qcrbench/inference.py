"""Infer the source parameters (s, T_a) from measured normalized noises.

Pipeline: backtrack the downstream losses off each measured noise, compare
the source-level values against the slice-model predictions through a
chi-square built in log scale, minimize with a bespoke differential
evolution, and size the uncertainties by the chi-square doubling rule.

The differential evolution variant implemented here seeds every candidate
from the current best point plus a population difference vector scaled by
the reciprocal of the parameter-box diagonal, clamps to the box, and accepts
improving candidates only with a fixed probability (default 70%) to help the
population jump out of local minima.  Candidates of a generation are built
from the generation-start population and applied at a barrier, so objective
evaluations can run in any order (or in parallel) without changing the
result for a fixed seed.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPhysicalError, SchemaError
from .source import NoiseTriple, analytic_noises, continuum_noises

CHANNELS = ("diff", "probe", "conj")
NOISE_MODELS = ("numeric_oracle", "printed_formulas")

_LN10 = math.log(10.0)

# bisection levels of the chi-square-doubling contour resolved per objective
# call; 3 and 4 fit equally fast at 64 rays, and 3 evaluates fewer points
LEVELS_PER_CALL = 3


@dataclass(frozen=True)
class NoiseMeasurement:
    """One shot-noise-normalized noise with its variance and path transmission."""

    channel: str
    value: float
    variance: float
    eta: float = 1.0

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise SchemaError(f"unknown noise channel {self.channel!r}")
        if not self.value > 0.0:
            raise NonPhysicalError("normalized noise must be positive")
        if not self.variance > 0.0:
            raise NonPhysicalError("measurement variance must be positive")
        if not (0.0 < self.eta <= 1.0):
            raise NonPhysicalError("path transmission eta must lie in (0, 1]")


#: largest DE population, checked before any population is drawn.  A fit
#: peaks at about 187 bytes per member (tracemalloc, 10^4 and 10^5 members),
#: so the cap holds a fit near 190 MB.
MAX_POPULATION = 1_000_000


@dataclass
class DEConfig:
    """Differential-evolution settings; bounds default to the source box."""

    population: int = 500
    bounds: tuple = ((0.0, 3.0), (0.5, 1.0))
    acceptance_prob: float = 0.7
    spread_tol: float = 1e-6
    max_generations: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("population must be at least 4")
        if self.population > MAX_POPULATION:
            raise ValueError(f"population must be at most {MAX_POPULATION}")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError("each bound must be a finite (lo, hi) with lo < hi")
        if not (0.0 <= self.acceptance_prob <= 1.0):
            raise ValueError("acceptance probability must lie in [0, 1]")


@dataclass
class DEResult:
    best_point: np.ndarray
    best_value: float
    generations: int
    spread: np.ndarray
    population: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    discarded: int = 0


@dataclass
class FitResult:
    """Inferred source parameters with chi-square-doubling uncertainties."""

    s: float
    sigma_s: float
    T_a: float
    sigma_T_a: float
    chi2: float
    generations: int
    population_final_spread: tuple
    noise_model: str
    bounded_contour: bool = True

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "sigma_s": self.sigma_s,
            "T_a": self.T_a,
            "sigma_T_a": self.sigma_T_a,
            "chi2": self.chi2,
            "generations": self.generations,
            "population_final_spread": list(self.population_final_spread),
            "noise_model": self.noise_model,
            "bounded_contour": self.bounded_contour,
        }


def backtrack_noise(measured: float, eta: float) -> float:
    """Remove a downstream loss eta from a normalized noise.

    N_source = (N_measured - (1 - eta)) / eta; shot noise (N = 1) is a fixed
    point.  A non-positive result means the claimed loss cannot produce the
    measurement and is rejected.
    """
    if not (0.0 < eta <= 1.0):
        raise NonPhysicalError("path transmission eta must lie in (0, 1]")
    source = (measured - (1.0 - eta)) / eta
    if not source > 0.0:
        raise NonPhysicalError("backtracked noise non-physical")
    return source


def backtrack_measurement(measurement: NoiseMeasurement) -> NoiseMeasurement:
    """Backtrack value and variance of a measurement to the source output."""
    return NoiseMeasurement(
        channel=measurement.channel,
        value=backtrack_noise(measurement.value, measurement.eta),
        variance=measurement.variance / measurement.eta**2,
        eta=1.0,
    )


def _by_channel(measurements) -> dict:
    found = {}
    for m in measurements:
        if m.channel in found:
            raise SchemaError(f"duplicate noise channel {m.channel!r}")
        found[m.channel] = m
    missing = set(CHANNELS) - set(found)
    if missing:
        raise SchemaError(f"missing noise channels: {sorted(missing)}")
    return found


def _model_noises(s, T_a, noise_model: str) -> NoiseTriple:
    if noise_model == "numeric_oracle":
        return continuum_noises(s, T_a)
    if noise_model == "printed_formulas":
        return analytic_noises(s, T_a)
    raise ValueError(f"unknown noise model {noise_model!r}")


def chi_square_batch(measurements, points: np.ndarray, noise_model: str = "numeric_oracle"):
    """Log-scale chi-square of source-level measurements over (s, T_a) points.

    Terms are (log10 measured - log10 model)^2 / Var(log10 measured) with
    Var(log10 N) = Var(N) / (N ln 10)^2.  Points where the model noise is
    not positive get +inf.
    """
    by_channel = _by_channel(measurements)
    points = np.asarray(points, dtype=float)
    model = _model_noises(points[..., 0], points[..., 1], noise_model)
    total = np.zeros(points.shape[:-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        for channel in CHANNELS:
            m = by_channel[channel]
            theory = np.asarray(getattr(model, channel), dtype=float)
            log_var = m.variance / (m.value * _LN10) ** 2
            term = (np.log10(m.value) - np.log10(theory)) ** 2 / log_var
            total = total + np.where(theory > 0.0, term, np.inf)
    return total


def chi_square(measurements, s: float, T_a: float, noise_model: str = "numeric_oracle") -> float:
    """Scalar convenience wrapper around `chi_square_batch`."""
    return float(chi_square_batch(measurements, np.array([[s, T_a]]), noise_model)[0])


def differential_evolution(objective, config: DEConfig) -> DEResult:
    """Minimize a vectorized objective with the best-point-anchored variant.

    `objective` maps an (n, dim) array of points to n values.  Non-finite
    objective values are treated as +inf and the candidates discarded (the
    count is reported on the result).  Deterministic for a fixed rng_seed.
    """
    bounds = np.asarray(config.bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    dim = bounds.shape[0]
    diagonal = float(np.linalg.norm(hi - lo))
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    pop = lo + rng.random((config.population, dim)) * (hi - lo)
    values = np.asarray(objective(pop), dtype=float)
    discarded = int(np.sum(~np.isfinite(values)))
    values = np.where(np.isfinite(values), values, np.inf)
    generation = 0
    spread = pop.std(axis=0)
    for generation in range(1, config.max_generations + 1):
        best = int(np.argmin(values))
        others = np.delete(np.arange(config.population), best)
        n = others.size
        j = rng.integers(0, config.population, size=n)
        k = rng.integers(0, config.population, size=n)
        # redraw any pick that collides with the target, the best point, or itself
        while True:
            bad = (j == k) | (j == others) | (k == others) | (j == best) | (k == best)
            if not np.any(bad):
                break
            j[bad] = rng.integers(0, config.population, size=int(bad.sum()))
            k[bad] = rng.integers(0, config.population, size=int(bad.sum()))
        acceptance = rng.random(n)
        candidates = np.clip(pop[best] + (pop[k] - pop[j]) / diagonal, lo, hi)
        cand_values = np.asarray(objective(candidates), dtype=float)
        bad_values = ~np.isfinite(cand_values)
        discarded += int(np.sum(bad_values))
        cand_values = np.where(bad_values, np.inf, cand_values)
        replace = (cand_values < values[others]) & (acceptance < config.acceptance_prob)
        pop[others[replace]] = candidates[replace]
        values[others[replace]] = cand_values[replace]
        spread = pop.std(axis=0)
        if np.all(spread < config.spread_tol):
            break
    best = int(np.argmin(values))
    return DEResult(
        best_point=pop[best].copy(),
        best_value=float(values[best]),
        generations=generation,
        spread=spread,
        population=pop,
        values=values,
        discarded=discarded,
    )


def uncertainty_by_chi2_doubling(
    objective,
    optimum: np.ndarray,
    chi2_min: float,
    dof: int,
    bounds,
    n_rays: int = 64,
    bisection_steps: int = 60,
):
    """Per-parameter half-widths of the chi-square-doubling contour.

    Marches radially from the optimum (in box-normalized coordinates) along
    `n_rays` directions until the objective crosses
    chi2_min + chi2_min / dof, refining each crossing by `bisection_steps`
    bisection steps; the half-widths are the extreme per-parameter
    excursions of the contour.  Rays that reach the parameter bounds before
    crossing produce a one-sided width (capped at the bound) and a warning.

    One objective call resolves `LEVELS_PER_CALL` bisection levels (the
    last call fewer when they do not divide `bisection_steps`): it
    evaluates every midpoint those levels could visit on every ray, so the
    objective also sees the midpoints the bisection does not take, all
    inside the ray's current bracket.  The midpoints and the decisions are
    those of one-step-per-call bisection, so the widths are bit-identical to
    it; the objective is called 1 + ceil(bisection_steps / LEVELS_PER_CALL)
    times.

    Returns (half_widths, fully_bounded).
    """
    if dof < 1:
        raise ValueError("need at least one degree of freedom")
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    optimum = np.asarray(optimum, dtype=float)
    scale = hi - lo
    level = chi2_min + max(chi2_min, 1e-30) / dof
    angles = 2.0 * math.pi * np.arange(n_rays) / n_rays
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # largest normalized radius before each ray leaves the box; 0/0 where the
    # optimum sits on an edge the ray runs along is masked by the direction test
    with np.errstate(divide="ignore", invalid="ignore"):
        to_hi = (hi - optimum) / (directions * scale)
        to_lo = (lo - optimum) / (directions * scale)
    limits = np.where(directions > 0, to_hi, np.where(directions < 0, to_lo, np.inf))
    r_max = np.clip(limits.min(axis=1), 0.0, None)

    def evaluate(radii):
        # radii[..., j] lie on ray j; clip shields the objective from float
        # round-off past the box edge
        pts = np.clip(optimum + radii[..., None] * directions * scale, lo, hi)
        values = objective(pts.reshape(-1, optimum.size))
        return np.asarray(values, dtype=float).reshape(radii.shape)

    hi_vals = evaluate(r_max)
    unbounded = hi_vals < level
    if np.any(unbounded):
        warnings.warn(
            "chi-square doubling contour not bracketed within bounds on "
            f"{int(unbounded.sum())}/{n_rays} rays; widths are one-sided there",
            stacklevel=2,
        )
    lo_r = np.zeros(n_rays)
    hi_r = r_max.copy()
    active = ~unbounded
    rays = np.arange(n_rays)
    for first in range(0, bisection_steps, LEVELS_PER_CALL):
        depth = min(LEVELS_PER_CALL, bisection_steps - first)
        # row j of a level is a bracket (lows[j], highs[j]) with midpoint
        # mids[j]; rows 2j and 2j + 1 of the next level are its lower and
        # upper halves, so the rows of the level below the last are every
        # bracket the `depth` steps can end in
        lows, highs = lo_r[None], hi_r[None]
        mids = []
        for _ in range(depth):
            mids.append(0.5 * (lows + highs))
            lows = np.stack([lows, mids[-1]], axis=1).reshape(-1, n_rays)
            highs = np.stack([mids[-1], highs], axis=1).reshape(-1, n_rays)
        vals = evaluate(np.concatenate(mids))
        # follow each ray down the tree: a value at or above the level keeps
        # the lower half, any other (NaN included) the upper half
        row = np.zeros(n_rays, dtype=int)
        for k in range(depth):
            row = 2 * row + ~(vals[2**k - 1 + row, rays] >= level)
        lo_r = np.where(active, lows[row, rays], lo_r)
        hi_r = np.where(active, highs[row, rays], hi_r)
    radii = np.where(unbounded, r_max, 0.5 * (lo_r + hi_r))
    contour = radii[:, None] * directions * scale
    half_widths = np.max(np.abs(contour), axis=0)
    return half_widths, not bool(np.any(unbounded))


def fit_source(measurements, config: DEConfig, noise_model: str = "numeric_oracle") -> FitResult:
    """Full inference: backtrack, minimize chi-square, attach uncertainties."""
    if noise_model not in NOISE_MODELS:
        raise ValueError(f"unknown noise model {noise_model!r}")
    raw = list(measurements)
    _by_channel(raw)
    at_source = [backtrack_measurement(m) for m in raw]

    def objective(points):
        return chi_square_batch(at_source, points, noise_model)

    de = differential_evolution(objective, config)
    dof = len(at_source) - 2
    widths, bounded = uncertainty_by_chi2_doubling(
        objective, de.best_point, de.best_value, dof, config.bounds
    )
    return FitResult(
        s=float(de.best_point[0]),
        sigma_s=float(widths[0]),
        T_a=float(de.best_point[1]),
        sigma_T_a=float(widths[1]),
        chi2=de.best_value,
        generations=de.generations,
        population_final_spread=tuple(float(x) for x in de.spread),
        noise_model=noise_model,
        bounded_contour=bounded,
    )


def synthetic_noise_measurements(
    s: float,
    T_a: float,
    etas: dict,
    rel_sigma: float = 1e-3,
    # quoted so that importing this module does not load numpy.random
    rng: "np.random.Generator | None" = None,
) -> list:
    """Forward-model a measurement triple for round-trip and coverage studies.

    Source noises come from the slice-model limit, are degraded by each
    channel's eta (N_m = eta N_0 + 1 - eta), and optionally perturbed by
    Gaussian noise of standard deviation rel_sigma * N_m (pass an rng);
    the declared variance is (rel_sigma * N_m)^2 either way.
    """
    clean = continuum_noises(s, T_a)
    out = []
    for channel in CHANNELS:
        eta = etas[channel]
        degraded = eta * float(getattr(clean, channel)) + (1.0 - eta)
        sigma = rel_sigma * degraded
        value = degraded + rng.normal(0.0, sigma) if rng is not None else degraded
        out.append(
            NoiseMeasurement(channel=channel, value=value, variance=sigma**2, eta=eta)
        )
    return out
