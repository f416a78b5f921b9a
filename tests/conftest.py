"""Shared test fixtures."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from qcrbench import detection, inference
from qcrbench.errors import NonPhysicalError


def _quadrature_effective_time(filt) -> float:
    """Reference t = 1 / (4 int_0^inf |H(f)|^2 df) by adaptive quadrature.

    [0, inf) is folded onto [0, pi/2) with f = rbw tan(theta); the
    transformed integrand is smooth and bounded for both filter kinds.
    """
    scale = filt.rbw

    def integrand(theta: float) -> float:
        f = scale * math.tan(theta)
        return float(filt.power_response(f)) * scale / math.cos(theta) ** 2

    integral, abserr = integrate.quad(
        integrand, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1e-12, limit=200
    )
    assert math.isfinite(integral) and abserr <= 1e-9 * integral
    return 1.0 / (4.0 * integral)


@pytest.fixture
def quadrature_effective_time():
    """The effective-time oracle the closed forms in `detection` are checked against."""
    return _quadrature_effective_time


def _sequential_chi2_doubling(
    objective, optimum, chi2_min, dof, bounds, n_rays=64, bisection_steps=60
):
    """Reference chi-square-doubling contour: one bisection step per objective call.

    Same contract as `inference.uncertainty_by_chi2_doubling`, which must
    return bit-identical half-widths for any objective.
    """
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    optimum = np.asarray(optimum, dtype=float)
    scale = hi - lo
    level = chi2_min + max(chi2_min, 1e-30) / dof
    angles = 2.0 * math.pi * np.arange(n_rays) / n_rays
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        to_hi = (hi - optimum) / (directions * scale)
        to_lo = (lo - optimum) / (directions * scale)
    limits = np.where(directions > 0, to_hi, np.where(directions < 0, to_lo, np.inf))
    r_max = np.clip(limits.min(axis=1), 0.0, None)

    def evaluate(radii):
        pts = np.clip(optimum + radii[:, None] * directions * scale, lo, hi)
        return np.asarray(objective(pts), dtype=float)

    unbounded = evaluate(r_max) < level
    if np.any(unbounded):
        warnings.warn("chi-square doubling contour not bracketed", stacklevel=2)
    lo_r = np.zeros(n_rays)
    hi_r = r_max.copy()
    active = ~unbounded
    for _ in range(bisection_steps):
        mid = 0.5 * (lo_r + hi_r)
        above = evaluate(mid) >= level
        hi_r = np.where(active & above, mid, hi_r)
        lo_r = np.where(active & ~above, mid, lo_r)
    radii = np.where(unbounded, r_max, 0.5 * (lo_r + hi_r))
    contour = radii[:, None] * directions * scale
    return np.max(np.abs(contour), axis=0), not bool(np.any(unbounded))


@pytest.fixture
def sequential_chi2_doubling():
    """The contour oracle the batched bisection in `inference` is checked against."""
    return _sequential_chi2_doubling


def _reference_chi_square_batch(measurements, points, noise_model="numeric_oracle"):
    """Reference log-scale chi-square: one expression per channel under `errstate`.

    Same contract as `inference.chi_square_batch`, which must return the same
    bits and raise no floating-point warning this one does not.
    """
    by_channel = inference._by_channel(measurements)
    points = np.asarray(points, dtype=float)
    model = inference._model_noises(points[..., 0], points[..., 1], noise_model)
    total = np.zeros(points.shape[:-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        for channel in inference.CHANNELS:
            m = by_channel[channel]
            theory = np.asarray(getattr(model, channel), dtype=float)
            log_var = m.variance / (m.value * inference._LN10) ** 2
            term = (np.log10(m.value) - np.log10(theory)) ** 2 / log_var
            total = total + np.where(theory > 0.0, term, np.inf)
    return total


@pytest.fixture
def reference_chi_square_batch():
    """The chi-square oracle the in-place terms in `inference` are checked against."""
    return _reference_chi_square_batch


def _reference_differential_evolution(objective, config):
    """Reference best-point-anchored DE: each generation in whole-array expressions.

    Same contract as `inference.differential_evolution`, which must make the
    same random draws and return a `DEResult` equal to this one bit for bit.
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
    return inference.DEResult(
        best_point=pop[best].copy(),
        best_value=float(values[best]),
        generations=generation,
        spread=spread,
        population=pop,
        values=values,
        discarded=discarded,
    )


@pytest.fixture
def reference_differential_evolution():
    """The DE oracle the in-place generations in `inference` are checked against."""
    return _reference_differential_evolution


def _crossing_standard_error(x, y, slope, intercept):
    """Least-squares standard error of the line's SNR = 1 crossing power, from residuals.

    se = (sigma / |slope|) sqrt(1/n + (c - mean(x))^2 / sum((x - mean(x))^2)),
    c = (1 - intercept) / slope and sigma^2 = sum(residual^2) / (n - 2)
    (Press et al., Numerical Recipes, section 15.2), in whole-array
    expressions: an independent check of the sums `detection` forms.
    """
    residuals = y - (intercept + slope * x)
    sigma2 = float(residuals @ residuals) / (x.size - 2)
    centred = x - x.mean()
    lever = (1.0 - intercept) / slope - x.mean()
    return math.sqrt(sigma2 * (1.0 / x.size + lever**2 / (centred @ centred))) / abs(slope)


@pytest.fixture
def crossing_standard_error():
    """The crossing standard error from explicit residuals, (x, y, slope, intercept) -> se."""
    return _crossing_standard_error


def _polyfit_windows(mod_power, snr):
    """Reference SNR-window fit: one `np.polyfit(x, y, 1)` per window pass.

    Returns the window (bin mask) of every pass and the last line.  Same
    window rule, stopping rule, pass cap and errors as
    `detection._iterated_line_fit`, which must fit the same windows and
    return the same (slope, intercept) up to rounding; the crossing's
    standard error comes from explicit residuals
    (`_crossing_standard_error`).  On a window of constant power
    np.polyfit warns `RankWarning` and returns a minimum-norm line, where
    `detection` raises.
    """
    mask = (mod_power > 0.0) & np.isfinite(snr)
    lo, hi = 0.2, 5.0
    windows = []
    previous = math.nan
    for _ in range(10):
        if np.count_nonzero(mask) < 8:
            raise NonPhysicalError("SNR=1 not bracketed: too few usable ramp bins")
        windows.append(mask)
        slope, intercept = np.polyfit(mod_power[mask], snr[mask], 1)
        fitted = intercept + slope * mod_power
        new_mask = (mod_power > 0.0) & np.isfinite(snr) & (fitted >= lo) & (fitted <= hi)
        if np.array_equal(new_mask, mask):
            break
        if slope != 0.0:
            crossing = (1.0 - intercept) / slope
            se = _crossing_standard_error(mod_power[mask], snr[mask], slope, intercept)
            if abs(crossing - previous) < 0.25 * se:
                break
            previous = crossing
        else:
            previous = math.nan
        mask = new_mask
    return windows, (float(slope), float(intercept))


def _polyfit_iterated_line_fit(mod_power, snr):
    return _polyfit_windows(mod_power, snr)[1]


@pytest.fixture
def polyfit_windows():
    """The window oracle: bin masks of the `np.polyfit` loop, pass by pass."""
    return _polyfit_windows


@pytest.fixture
def polyfit_iterated_line_fit():
    """The line-fit oracle the degree-1 solve in `detection` is checked against."""
    return _polyfit_iterated_line_fit


def _ten_pass_line_fit(mod_power, snr):
    """Reference window passes without the stopping rule: (slope, intercept).

    The window iteration as it was before the SNR = 1 crossing ended it:
    `detection`'s centred-sum passes stop only when a window repeats or
    after 10 passes.  The stopping rule must leave the crossing within a
    fraction of its standard error of this one's.
    """
    usable = (mod_power > 0.0) & np.isfinite(snr)
    first = int(usable.argmax())
    run = mod_power[first : first + np.count_nonzero(usable)]
    snr_run = snr[first : first + run.size]
    window = (0, run.size)
    for _ in range(10):
        start, stop = window
        if stop - start < 8:
            raise NonPhysicalError("SNR=1 not bracketed: too few usable ramp bins")
        slope, intercept = detection._centred_line_fit(run[start:stop], snr_run[start:stop])[:2]
        window = detection._fit_window(run, slope, intercept)
        if window == (start, stop):
            break
    return slope, intercept


@pytest.fixture
def ten_pass_line_fit():
    """The pass-capped window oracle the stopping rule in `detection` is checked against."""
    return _ten_pass_line_fit


def _array_mixing_rate(s, T_a):
    s = np.asarray(s, dtype=float)
    ta = np.asarray(T_a, dtype=float)
    if np.any(ta <= 0.0) or np.any(ta > 1.0):
        raise ValueError("internal transmission T_a must lie in (0, 1]")
    log_ta = np.log(ta)
    out = np.sqrt(16.0 * s * s + log_ta * log_ta)
    return float(out) if out.ndim == 0 else out


def _array_distributed_norm(s, T_a):
    s = np.asarray(s, dtype=float)
    ta = np.asarray(T_a, dtype=float)
    xi = _array_mixing_rate(s, ta)
    log_ta = np.log(ta)
    out = np.sqrt(ta) * (
        np.cosh(0.5 * xi) * (xi * xi + log_ta * log_ta)
        - log_ta * (log_ta + 2.0 * xi * np.sinh(0.5 * xi))
    )
    return float(out) if out.ndim == 0 else out


def _array_route_distributed_var_n(T, s, T_a, T_p, eta_p, eta_c):
    """Reference `qcrb_distributed(...).var_n` by the array-helper route.

    Each factor re-evaluates xi and Gamma through the 0-d array helpers:
    four mixing-rate and two normalization evaluations per bound.
    """
    if s == 0.0:
        return T / eta_p
    xi2 = _array_mixing_rate(s, T_a) ** 2
    gamma = _array_distributed_norm(s, T_a)
    root_ta = math.sqrt(T_a)
    denominator = xi2 * (1.0 + eta_c * (root_ta - 2.0)) + eta_c * gamma
    if denominator == 0.0:
        raise NonPhysicalError("degenerate conjugate factor denominator")
    factor = (2.0 * eta_c - 1.0) * (xi2 * (root_ta - 1.0) + gamma) / denominator
    xi = _array_mixing_rate(s, T_a)
    gamma = _array_distributed_norm(s, T_a)
    denominator = xi * xi * (root_ta - 1.0) + gamma
    if denominator <= 0.0:
        raise NonPhysicalError("non-physical parameter combination")
    reduction = 32.0 * s * s * root_ta * math.sinh(0.25 * xi) ** 2 / denominator
    return T / eta_p - T * T * T_p * factor * reduction


@pytest.fixture
def array_rate_oracle():
    """(mixing rate, norm, distributed var_n) by re-evaluating the rates on 0-d arrays."""
    return _array_mixing_rate, _array_distributed_norm, _array_route_distributed_var_n
