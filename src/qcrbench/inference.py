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

The chi-square-doubling contour takes exactly the steps of a bisection that
evaluates one midpoint per ray and call, each on its own midpoint's value,
but one call evaluates the midpoints those steps are likely to visit
(secant-guided paths, trees for the last levels, none on rays that can no
longer set a width): a criterion-08 fit makes about 6 calls instead of 61.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPhysicalError, SchemaError, _require_integers
from .source import NoiseTriple, analytic_noises, continuum_noises

CHANNELS = ("diff", "probe", "conj")
NOISE_MODELS = ("numeric_oracle", "printed_formulas")

_LN10 = math.log(10.0)

# most points one objective call of the chi-square-doubling contour
# evaluates (a call with more rays to refine gives each one point), and the
# most rays to refine whose points start with a bisection tree
CONTOUR_BATCH = 512
TREE_RAYS = 4


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
        # the chi-square divides by it, so 0 or inf would give NaN terms;
        # (N ln 10)^2 raises OverflowError above the float range, and dividing
        # by it raises ZeroDivisionError where it underflows to 0
        try:
            log_variance = self.log_variance
        except (OverflowError, ZeroDivisionError):
            log_variance = 0.0
        if not 0.0 < log_variance < math.inf:
            raise NonPhysicalError(
                "log-scale variance Var(N) / (N ln 10)^2 must be finite and positive"
            )

    @property
    def log_variance(self) -> float:
        """Var(log10 N) = Var(N) / (N ln 10)^2, the chi-square weight's reciprocal."""
        return self.variance / (self.value * _LN10) ** 2


#: largest DE population, checked before any population is drawn.  A fit
#: peaks at about 203 bytes per member at 10^4 members and 133 at 10^5 and
#: 10^6, where the source kernel runs in blocks (tracemalloc), so the cap
#: holds a fit near 135 MB.
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
        # these messages start with the field name; `fit` maps it to its option
        _require_integers(
            population=self.population, max_generations=self.max_generations, rng_seed=self.rng_seed
        )
        if self.population < 4:
            raise ValueError("population must be at least 4")
        if self.population > MAX_POPULATION:
            raise ValueError(f"population must be at most {MAX_POPULATION}")
        if self.max_generations < 0:
            raise ValueError(f"max_generations must be non-negative, not {self.max_generations}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, not {self.rng_seed}")
        if not 0.0 <= self.spread_tol < math.inf:
            raise ValueError(
                f"spread_tol must be finite and non-negative, not {self.spread_tol!r}"
            )
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
    value = backtrack_noise(measurement.value, measurement.eta)
    # eta**2 underflows to 0 below eta ~ 1e-162
    if measurement.eta**2 == 0.0:
        raise NonPhysicalError("backtracked variance overflows: eta is too small")
    return NoiseMeasurement(
        channel=measurement.channel,
        value=value,
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
    Var(log10 N) = Var(N) / (N ln 10)^2.  Points where any channel's model
    noise is not > 0 (NaN included) get +inf.

    Each channel's term is built in place in one array the call owns; where
    the model noise is not > 0 it holds log10 of the measured noise, so its
    term there is 0 and, with the finite positive `log_variance` every
    `NoiseMeasurement` has, raises no floating-point warning.  The first
    channel's term becomes the total (0 + t is t, as terms are >= +0).
    """
    by_channel = _by_channel(measurements)
    points = np.asarray(points, dtype=float)
    shape = points.shape[:-1]
    model = _model_noises(points[..., 0], points[..., 1], noise_model)
    total = physical = None
    for channel in CHANNELS:
        m = by_channel[channel]
        theory = np.asarray(getattr(model, channel), dtype=float)
        positive = theory > 0.0
        log_value = np.log10(m.value)
        term = np.empty(shape)
        term.fill(log_value)
        np.log10(theory, out=term, where=positive)
        np.subtract(log_value, term, out=term)
        np.square(term, out=term)
        term /= m.log_variance
        if total is None:
            total, physical = term, positive
        else:
            total += term
            physical &= positive
    total[~physical] = np.inf
    # a single point gives a numpy scalar, as whole-array arithmetic would
    return total if total.ndim else total[()]


def _spread(pop: np.ndarray) -> np.ndarray:
    """`pop.std(axis=0)` by the reductions of numpy's `_var`, bit for bit."""
    size = pop.shape[0]
    mean = np.add.reduce(pop, axis=0, keepdims=True)
    mean /= size
    deviation = pop - mean
    np.square(deviation, out=deviation)
    spread = np.add.reduce(deviation, axis=0)
    spread /= size
    return np.sqrt(spread, out=spread)


def differential_evolution(objective, config: DEConfig) -> DEResult:
    """Minimize a vectorized objective with the best-point-anchored variant.

    `objective` maps an (n, dim) array of points to n values.  Non-finite
    objective values are treated as +inf and the candidates discarded (the
    count is reported on the result).  Deterministic for a fixed rng_seed.

    A generation draws, in this order, the two difference-vector index
    arrays, any redraws of colliding picks and the acceptance variates.  Its
    candidates are built in place as pop[k] - pop[j], divided by the box
    diagonal, plus the best point, then clipped to the box.
    """
    bounds = np.asarray(config.bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    dim = bounds.shape[0]
    diagonal = float(np.linalg.norm(hi - lo))
    size = config.population
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    pop = lo + rng.random((size, dim)) * (hi - lo)
    values = np.asarray(objective(pop), dtype=float)
    finite = np.isfinite(values)
    discarded = values.size - int(np.count_nonzero(finite))
    values = np.where(finite, values, np.inf)
    generation = 0
    spread = _spread(pop)
    for generation in range(1, config.max_generations + 1):
        best = int(values.argmin())
        others = np.arange(size - 1)
        others[best:] += 1
        n = others.size
        j = rng.integers(0, size, size=n)
        k = rng.integers(0, size, size=n)
        # redraw any pick that collides with the target, the best point, or itself
        while True:
            bad = j == k
            bad |= j == others
            bad |= k == others
            bad |= j == best
            bad |= k == best
            redraws = np.count_nonzero(bad)
            if not redraws:
                break
            j[bad] = rng.integers(0, size, size=redraws)
            k[bad] = rng.integers(0, size, size=redraws)
        acceptance = rng.random(n)
        candidates = pop[k]
        candidates -= pop[j]
        candidates /= diagonal
        candidates += pop[best]
        np.clip(candidates, lo, hi, out=candidates)
        cand_values = np.asarray(objective(candidates), dtype=float)
        finite = np.isfinite(cand_values)
        discarded += cand_values.size - int(np.count_nonzero(finite))
        # a non-finite value counts as +inf, which replaces nothing
        replace = cand_values < values[others]
        replace &= finite
        replace &= acceptance < config.acceptance_prob
        pop[others[replace]] = candidates[replace]
        values[others[replace]] = cand_values[replace]
        spread = _spread(pop)
        if (spread < config.spread_tol).all():
            break
    best = int(values.argmin())
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

    The widths are bit-identical to those of bisection that evaluates one
    midpoint per ray and call: every step taken is that bisection's step,
    decided on the objective's value at its exact midpoint.  A call
    evaluates up to `CONTOUR_BATCH` points (one per ray past that), the
    midpoints the bisection may visit next:
    - the first call evaluates each ray's bracket top and the midpoints of
      a bracket that keeps halving;
    - each ray then evaluates the path its bisection takes towards a secant
      guess of the crossing in sqrt(chi2 - chi2_min), nearly linear in the
      radius, and takes its steps up to and including the first one the
      guess got wrong, so a wrong guess costs a call, never a bit;
    - with at most `TREE_RAYS` rays left, the path starts below a full
      bisection tree of the next levels on half a ray's share of points,
      as round-off in chi2 makes the last levels unpredictable; a ray whose
      remaining levels fit in one tree gets that tree;
    - a ray whose reach at its bracket top is below another ray's reach at
      its bracket bottom, in both parameters, can no longer set a
      half-width and is not refined further.
    A criterion-08 fit makes about 6.4 calls (at most 8 over 120 fits),
    where one call per step makes 61.

    Returns (half_widths, fully_bounded).
    """
    if dof < 1:
        raise ValueError("need at least one degree of freedom")
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    optimum = np.asarray(optimum, dtype=float)
    scale = hi - lo
    # Python floats give numpy's bits without its warnings
    chi2_min = float(chi2_min)
    level = float(chi2_min + max(chi2_min, 1e-30) / dof)
    target = math.sqrt(level - chi2_min)
    angles = 2.0 * math.pi * np.arange(n_rays) / n_rays
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # largest normalized radius before each ray leaves the box; 0/0 where the
    # optimum sits on an edge the ray runs along is masked by the direction test
    with np.errstate(divide="ignore", invalid="ignore"):
        to_hi = (hi - optimum) / (directions * scale)
        to_lo = (lo - optimum) / (directions * scale)
    limits = np.where(directions > 0, to_hi, np.where(directions < 0, to_lo, np.inf))
    r_max = np.clip(limits.min(axis=1), 0.0, None)

    def reach(radii):
        # per-parameter excursion of each ray, non-decreasing in its radius
        return np.abs(radii[:, None] * directions * scale)

    # per ray: its bracket, the objective at the bracket ends (+inf at the
    # top until it is evaluated, which aims the first guess at 0) and the
    # steps it has taken
    lows, highs = [0.0] * n_rays, r_max.tolist()
    low_values, high_values = [chi2_min] * n_rays, [math.inf] * n_rays
    taken = [0] * n_rays
    unbounded = np.zeros(n_rays, dtype=bool)
    live = np.ones(n_rays, dtype=bool)
    first = True
    while True:
        # each final radius lies in its ray's current bracket
        floor = reach(np.where(unbounded, r_max, lows)).max(axis=0)
        live &= ~(reach(np.where(unbounded, r_max, highs)) < floor).all(axis=1)
        rays = [j for j in np.flatnonzero(live).tolist() if taken[j] < bisection_steps]
        if not (first or rays):
            break
        radii = r_max.tolist() if first else []
        owners = list(range(n_rays)) if first else []
        # past CONTOUR_BATCH rays the first call evaluates only the tops
        per_ray = max((CONTOUR_BATCH - len(radii)) // max(len(rays), 1), 0 if first else 1)
        depth = (per_ray + 1).bit_length() - 1
        head = depth - 1 if len(rays) <= TREE_RAYS else 0
        plans = []
        for j in rays:
            a, b = lows[j], highs[j]
            g_a = math.sqrt(max(low_values[j] - chi2_min, 0.0))
            g_b = math.sqrt(max(high_values[j] - chi2_min, 0.0))
            guess = a + (target - g_a) * (b - a) / (g_b - g_a) if g_b > g_a else b
            remaining = bisection_steps - taken[j]
            tree = remaining if remaining <= depth else head
            steps = min(remaining, per_ray - 2**tree + 1 + tree)
            # the tree's midpoints level by level, then the path below it
            edges = [a, b]
            for _ in range(tree):
                mids = [0.5 * (x + y) for x, y in zip(edges, edges[1:])]
                radii += mids
                edges[1:] = [e for pair in zip(mids, edges[1:]) for e in pair]
            for k in range(steps):
                mid = 0.5 * (a + b)
                if k >= tree:
                    radii.append(mid)
                if mid >= guess:
                    b = mid
                else:
                    a = mid
            owners += [j] * (2**tree - 1 + steps - tree)
            plans.append((j, tree, steps, guess))
        # radii[k] lies on ray owners[k]; clip shields the objective from float
        # round-off past the box edge
        pts = np.clip(optimum + np.array(radii)[:, None] * directions[owners] * scale, lo, hi)
        values = np.asarray(objective(pts), dtype=float).reshape(len(radii)).tolist()
        at = 0
        if first:
            high_values, at, first = values[:n_rays], n_rays, False
            unbounded = np.array(high_values) < level
            live &= ~unbounded
            if np.any(unbounded):
                warnings.warn(
                    "chi-square doubling contour not bracketed within bounds on "
                    f"{int(unbounded.sum())}/{n_rays} rays; widths are one-sided there",
                    stacklevel=2,
                )
        for j, tree, steps, guess in plans:
            # walk the tree (node i has halves 2i + 1 and 2i + 2), then the path
            # while every decision so far was the guessed one; a value at or
            # above the level keeps the lower half, any other (NaN too) the upper
            a, b = lows[j], highs[j]
            node, guessed, path = 0, True, at + 2**tree - 1 - tree
            for k in range(steps):
                if k >= tree and not guessed:
                    break
                value = values[at + node if k < tree else path + k]
                mid = 0.5 * (a + b)
                above = value >= level
                guessed = guessed and above == (mid >= guess)
                if above:
                    b, high_values[j] = mid, value
                else:
                    a, low_values[j] = mid, value
                node = 2 * node + 2 - above
                taken[j] += 1
            lows[j], highs[j] = a, b
            at = path + steps
    radii = np.where(unbounded, r_max, 0.5 * (np.array(lows) + np.array(highs)))
    return reach(radii).max(axis=0), not bool(np.any(unbounded))


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
