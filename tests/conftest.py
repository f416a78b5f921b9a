"""Shared test fixtures."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate


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
