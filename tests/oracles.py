"""Audit routes the tests hold the run-time code to; nothing at run time calls them.

* two-mode Gaussian states and maps beyond the slice stack's needs:
  `vacuum_state`, `coherent_state`, `apply_symplectic`, the exact
  `mean_photon`, and `symplectic_eigenvalues`, the physicality check;
* `continuum_state`, the two-mode state of `source.continuum_sector`;
* the 4x4 photon-statistics estimator, `optimal_gain` and
  `estimator_variance`, which `detection.transmission_variance` reproduces
  from the detected x sector alone.

Test modules import them as ``from oracles import ...``: pytest's default
import mode puts this directory on ``sys.path``.
"""

import numpy as np

from qcrbench.errors import NonPhysicalError
from qcrbench.gaussian import (
    Array,
    GaussianState,
    SymplecticOp,
    number_covariance_bright,
    number_variance_bright,
    symplectic_form,
)
from qcrbench.source import SourceParams, _mirrored_moments, continuum_sector


def vacuum_state(modes: int) -> GaussianState:
    """M-mode vacuum: d = 0, sigma = identity."""
    if modes < 1:
        raise ValueError("need at least one mode")
    return GaussianState(np.zeros(2 * modes), np.eye(2 * modes))


def coherent_state(alphas) -> GaussianState:
    """Coherent state with one complex amplitude per mode."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    d = np.zeros(2 * alphas.size)
    d[0::2] = 2.0 * alphas.real
    d[1::2] = 2.0 * alphas.imag
    return GaussianState(d, np.eye(2 * alphas.size))


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Transform moments: d -> S d, sigma -> S sigma S^T."""
    if op.S.shape[0] != state.d.size:
        raise ValueError("operator and state dimensions do not match")
    return GaussianState(op.S @ state.d, op.S @ state.sigma @ op.S.T)


def mean_photon(state: GaussianState, mode: int) -> float:
    """Exact mean photon number of one mode."""
    d = state.mode_displacement(mode)
    block = state.block(mode, mode)
    return float((d @ d + np.trace(block) - 2.0) / 4.0)


def symplectic_eigenvalues(state: GaussianState) -> Array:
    """Symplectic spectrum of the covariance matrix (>= 1 for physical states)."""
    omega = symplectic_form(state.modes)
    eigs = np.sort(np.abs(np.linalg.eigvals(1j * omega @ state.sigma)))
    return eigs[::2].real


def continuum_state(params: SourceParams) -> GaussianState:
    """Two-mode Gaussian state of `continuum_sector`, for the audits and tests.

    The squeezer acts on p with the sign of s flipped, so the p sector
    repeats the x diagonal with the opposite cross-correlation.
    """
    return GaussianState(*_mirrored_moments(*continuum_sector(params)))


def optimal_gain(state: GaussianState, probe: int = 0, conj: int = 1) -> float:
    """Electronic attenuation minimizing Var(n_p - g n_c).

    g* = Cov(n_p, n_c) / Var(n_c).  A dark conjugate carries no usable
    correlation, so the estimator degenerates to a plain intensity
    measurement and g* = 0.
    """
    if float(state.mode_displacement(conj) @ state.mode_displacement(conj)) == 0.0:
        return 0.0
    var_c = number_variance_bright(state, conj)
    if var_c == 0.0:
        raise NonPhysicalError("conjugate photocurrent has zero variance")
    return number_covariance_bright(state, probe, conj) / var_c


def estimator_variance(state: GaussianState, g: float) -> float:
    """Bright-limit photon-number variance of n_p - g n_c."""
    var_p = number_variance_bright(state, 0)
    if g == 0.0:
        return var_p
    var_c = number_variance_bright(state, 1)
    cov = number_covariance_bright(state, 0, 1)
    return var_p + g * g * var_c - 2.0 * g * cov
