"""Shared test fixtures."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

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


def _polyfit_iterated_line_fit(mod_power, snr):
    """Reference SNR-window fit: one `np.polyfit(x, y, 1)` per window pass.

    Same window rule, pass cap and errors as `detection._iterated_line_fit`,
    which must return bit-identical (slope, intercept).
    """
    mask = (mod_power > 0.0) & np.isfinite(snr)
    lo, hi = 0.2, 5.0
    slope = intercept = float("nan")
    for _ in range(10):
        if np.count_nonzero(mask) < 8:
            raise NonPhysicalError("SNR=1 not bracketed: too few usable ramp bins")
        slope, intercept = np.polyfit(mod_power[mask], snr[mask], 1)
        fitted = intercept + slope * mod_power
        new_mask = (mod_power > 0.0) & np.isfinite(snr) & (fitted >= lo) & (fitted <= hi)
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask
    return float(slope), float(intercept)


@pytest.fixture
def polyfit_iterated_line_fit():
    """The line-fit oracle the degree-1 solve in `detection` is checked against."""
    return _polyfit_iterated_line_fit


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
