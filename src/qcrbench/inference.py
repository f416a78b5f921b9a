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

from .errors import DOMAIN, NonPhysicalError, SchemaError
from .source import NoiseTriple, analytic_noises, continuum_noises

CHANNELS = ("diff", "probe", "conj")
NOISE_MODELS = ("numeric_oracle", "printed_formulas")

_LN10 = math.log(10.0)

# most points one objective call of the chi-square-doubling contour
# evaluates (a call with more rays to refine gives each one point), and the
# most rays to refine whose points start with a bisection tree
CONTOUR_BATCH = 512
TREE_RAYS = 4
# the contour's bracket rows, bottom and top, by the decision that moves them
_SIDES = np.array([[False], [True]])


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
        for name in ("population", "max_generations", "rng_seed", "spread_tol"):
            DOMAIN[name].check(getattr(self, name))
        try:
            box = np.asarray(self.bounds, dtype=float)
        except (TypeError, ValueError):  # not numbers, or pairs of unequal length
            box = np.empty(0)
        pairs = box.ndim == 2 and box.shape[1] == 2 and np.isfinite(box).all()
        if not (pairs and np.all(box[:, 0] < box[:, 1])):
            raise ValueError("each bound must be a finite (lo, hi) with lo < hi")
        DOMAIN["acceptance_prob"].check(self.acceptance_prob)


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

    The three channels' terms are built in place in one (3, ...) array the
    call owns, by one numpy call per step.  Where the model noise is not > 0
    it holds 0, so, with the finite positive `log_variance` every
    `NoiseMeasurement` has, no step raises a floating-point warning, and
    +inf is written there last.  The total adds the terms in channel order.
    """
    by_channel = _by_channel(measurements)
    triple = [by_channel[channel] for channel in CHANNELS]
    points = np.asarray(points, dtype=float)
    model = _model_noises(points[..., 0], points[..., 1], noise_model)
    theory = np.array([model.diff, model.probe, model.conj], dtype=float)
    # one column per channel, broadcast over the points
    column = (3,) + (1,) * (theory.ndim - 1)
    log_values = np.log10([m.value for m in triple]).reshape(column)
    log_variances = np.array([m.log_variance for m in triple]).reshape(column)
    positive = theory > 0.0
    terms = np.zeros(theory.shape)
    np.log10(theory, out=terms, where=positive)
    np.subtract(log_values, terms, out=terms)
    np.square(terms, out=terms)
    terms /= log_variances
    np.copyto(terms, np.inf, where=~positive)
    total = terms[0] + terms[1]
    total += terms[2]
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
    arrays, any redraws of colliding picks and the acceptance variates.
    Each pair of index draws is one (2, n) draw, which takes the stream's
    values in the order of the j draw followed by the k draw.  Its
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
    n = size - 1
    generation = 0
    spread = _spread(pop)
    for generation in range(1, config.max_generations + 1):
        best = int(values.argmin())
        others = np.arange(n)
        others[best:] += 1
        picks = rng.integers(0, size, size=(2, n))
        j, k = picks
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
            j[bad], k[bad] = rng.integers(0, size, size=(2, redraws))
        acceptance = rng.random(n)
        candidates = pop.take(k, axis=0)
        candidates -= pop.take(j, axis=0)
        candidates /= diagonal
        candidates += pop[best]
        candidates.clip(lo, hi, out=candidates)
        cand_values = np.asarray(objective(candidates), dtype=float)
        finite = np.isfinite(cand_values)
        discarded += cand_values.size - int(np.count_nonzero(finite))
        # a non-finite value counts as +inf, which replaces nothing
        replace = cand_values < values.take(others)
        replace &= finite
        replace &= acceptance < config.acceptance_prob
        chosen = replace.nonzero()[0]
        rows = others.take(chosen)
        pop[rows] = candidates.take(chosen, axis=0)
        values[rows] = cand_values.take(chosen)
        # no index array of this generation lives through the next objective call
        del chosen, rows
        spread = _spread(pop)
        if all(x < config.spread_tol for x in spread.tolist()):
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

    The state of the rays lives in arrays over the rays: each bracket, the
    objective at its ends, the steps taken, and whether the ray is still
    refined or was never bracketed.  A call prunes, makes the secant
    guesses and sizes each ray's tree and path as whole-array steps; only
    the halving towards each guess, in Python floats, and the walk down a
    tree (on at most `TREE_RAYS` rays, or a ray's last levels) run ray by
    ray.  The walk compares every value with the level once, finds each
    ray's first decision that differs from its guessed one, and reads the
    new brackets and their values off the evaluated points by index.

    Returns (half_widths, fully_bounded).
    """
    for name, value in (("dof", dof), ("n_rays", n_rays), ("bisection_steps", bisection_steps)):
        DOMAIN[name].check(value)
    # Python floats give numpy's bits without its warnings
    chi2_min = float(DOMAIN["chi2_min"].check(chi2_min))
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    optimum = np.asarray(optimum, dtype=float)
    scale = hi - lo
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
    # |r d scale| of a radius r >= 0 is (r |d|) |scale|, bit for bit, here
    # by parameter
    abs_directions, abs_scale = np.abs(directions.T), np.abs(scale)[:, None]
    # positions in the largest batch a call walks
    index = np.arange(max(CONTOUR_BATCH, n_rays))

    # per ray, bottom in row 0 and top in row 1: its bracket and the objective
    # at the bracket ends (+inf at the top until it is evaluated, which aims
    # the first guess at 0); and the steps it has taken and whether it is
    # still refined.  An unbracketed ray's bracket becomes [r_max, r_max].
    brackets = np.zeros((2, n_rays))
    brackets[1] = r_max
    end_values = np.array([[chi2_min], [np.inf]]).repeat(n_rays, axis=1)
    taken = np.zeros(n_rays, dtype=np.intp)
    live = np.ones(n_rays, dtype=bool)
    # the first call also evaluates the bracket tops, ahead of its paths,
    # and finds the rays left `unbounded`
    tops = n_rays
    while True:
        if not tops:
            # each final radius lies in its ray's current bracket (at the
            # first call every bottom is 0 and no ray is pruned)
            reach = brackets[:, None, :] * abs_directions
            reach *= abs_scale
            top = reach[1] >= np.maximum.reduce(reach[0], axis=1, keepdims=True)
            live &= top[0] | top[1]
        rays = (live & (taken < bisection_steps)).nonzero()[0]
        if not (tops or rays.size):
            break
        # past CONTOUR_BATCH rays the first call evaluates only the tops
        per_ray = max((CONTOUR_BATCH - tops) // max(rays.size, 1), 0 if tops else 1)
        depth = (per_ray + 1).bit_length() - 1
        head = depth - 1 if rays.size <= TREE_RAYS else 0
        remaining = bisection_steps - taken.take(rays)
        trees = np.where(remaining <= depth, remaining, head)
        # a tree's points beyond the path steps it covers
        extra = (1 << trees) - 1 - trees
        steps = np.minimum(remaining, per_ray - extra)
        counts = steps + extra
        bracket, bracket_values = brackets.take(rays, axis=1), end_values.take(rays, axis=1)
        a, b = bracket
        # Python floats made these steps without warnings; where g_b <= g_a
        # (or is NaN) the secant is not used
        with np.errstate(all="ignore"):
            g_a, g_b = np.sqrt(np.maximum(bracket_values - chi2_min, 0.0))
            guesses = np.where(g_b > g_a, a + (target - g_a) * (b - a) / (g_b - g_a), b)
        radii = r_max.tolist() if tops else []
        append = radii.append
        for a_j, b_j, guess, tree, step in zip(
            *bracket.tolist(), guesses.tolist(), trees.tolist(), steps.tolist()
        ):
            # the tree's midpoints level by level, then the path below it,
            # whose first `tree` midpoints the tree holds
            if tree:
                edges = [a_j, b_j]
                for _ in range(tree):
                    mids = [0.5 * (x + y) for x, y in zip(edges, edges[1:])]
                    radii += mids
                    halves = edges + mids
                    halves[::2], halves[1::2] = edges, mids
                    edges = halves
            for _ in range(step):
                mid = 0.5 * (a_j + b_j)
                append(mid)
                if mid >= guess:
                    b_j = mid
                else:
                    a_j = mid
            if tree:
                del radii[len(radii) - step : len(radii) - step + tree]
        radii = np.fromiter(radii, float, len(radii))
        owners = rays.repeat(counts)
        if tops:
            owners = np.concatenate((index[:n_rays], owners))
        # radii[k] lies on ray owners[k]; clip shields the objective from float
        # round-off past the box edge
        points = radii[:, None] * directions.take(owners, axis=0)
        points *= scale
        points += optimum
        points.clip(lo, hi, out=points)
        values = np.asarray(objective(points), dtype=float).reshape(radii.size)
        if tops:
            end_values[1] = values[:tops]
            unbounded = end_values[1] < level
            if unbounded.any():
                warnings.warn(
                    "chi-square doubling contour not bracketed within bounds on "
                    f"{int(unbounded.sum())}/{n_rays} rays; widths are one-sided there",
                    stacklevel=2,
                )
            radii, values = radii[tops:], values[tops:]
            # a top the walk does not move keeps its value
            bracket_values[1] = end_values[1].take(rays)
        if radii.size:
            # walk each ray's tree (node i has halves 2i + 1 and 2i + 2), then
            # its path while every decision so far was the guessed one; a value
            # at or above the level keeps the lower half, any other (NaN too)
            # the upper
            above = values >= level
            flipped = above != (radii >= guesses.repeat(counts))
            positions = index[: radii.size]
            ends = counts.cumsum()
            paths = ends - steps + trees
            # a path's last step is its first flip, or its last point
            flips = flipped.nonzero()[0]
            stops = np.concatenate((flips, ends[-1:])).take(flips.searchsorted(paths))
            stops = np.minimum(stops + 1, ends)
            # a tree's route leaves the bracket its path starts from: the last
            # points of the route below and above the level
            if np.count_nonzero(trees):
                up, flip = above.tolist(), flipped.tolist()
                for i in trees.nonzero()[0].tolist():
                    route, node, start = [-1, -1], 0, int(ends[i] - counts[i])
                    for _ in range(int(trees[i])):
                        at = start + node
                        route[up[at]] = at
                        # a tree that strays from the guess ends the walk
                        if flip[at]:
                            stops[i] = paths[i]
                        node = 2 * node + 2 - up[at]
                    for side, at in enumerate(route):
                        if at >= 0:
                            bracket[side, i], bracket_values[side, i] = radii[at], values[at]
            taken[rays] += trees + stops - paths
            # the last point below and above the level of each path walked;
            # one before the path is its tree's or another ray's (stops > 0: a
            # path starts after its tree or has a point)
            at = np.where(above == _SIDES, positions, -1)
            at = np.maximum.accumulate(at, axis=1)[:, stops - 1]
            moved = at >= paths
            brackets[:, rays] = np.where(moved, radii.take(at), bracket)
            end_values[:, rays] = np.where(moved, values.take(at), bracket_values)
        if tops:
            # an unbracketed ray's width is its reach at r_max
            live &= ~unbounded
            brackets[:, unbounded] = r_max[unbounded]
            tops = 0
    lows, highs = brackets
    radii = np.where(unbounded, r_max, 0.5 * (lows + highs))
    return np.abs(radii[:, None] * directions * scale).max(axis=0), not bool(np.any(unbounded))


def fit_source(measurements, config: DEConfig, noise_model: str = "numeric_oracle") -> FitResult:
    """Full inference: backtrack, minimize chi-square, attach uncertainties."""
    box = np.asarray(config.bounds, dtype=float)
    s, t_a = DOMAIN["s"], DOMAIN["T_a"]
    # DEConfig holds every pair finite with lo < hi
    if box.shape != (2, 2) or not (s.holds(box[0]) and t_a.holds(box[1])):
        raise ValueError(
            f"bounds must be two (lo, hi) pairs inside s in {s.interval} and T_a in "
            f"{t_a.interval}, not {config.bounds!r}"
        )
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
