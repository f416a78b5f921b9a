"""Exact bookkeeping for Gaussian bosonic states on quadrature moments.

Conventions used throughout the package:

* quadratures x = a + a† and p = i(a† - a), interleaved as (x1, p1, ..., xM, pM);
* the vacuum state has zero displacement and identity covariance, so shot
  noise equals 1 in these units and coherent states keep sigma = identity;
* a coherent amplitude alpha displaces (x, p) by (2 Re alpha, 2 Im alpha).

Photon-number statistics are offered in the bright-field approximation,
where number fluctuations are projected onto the mean field,
Var(n) ~ d^T sigma d / 4 on the mode's quadrature pair.  For a coherent
state this reproduces Var(n) = <n> exactly.  Exact fourth-moment formulas
for dim states are deliberately out of scope.

This is the audit substrate of the slice stack and `bounds.ProbeChain.state_at`;
no command calls it at run time.  The rest of the state algebra the tests
use lives in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BrightLimitError

Array = np.ndarray

SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-10


def symplectic_form(modes: int) -> Array:
    """Block-diagonal symplectic form Omega for the (x1, p1, ...) ordering."""
    if modes < 1:
        raise ValueError("need at least one mode")
    return np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Displacement vector and covariance matrix of an M-mode state."""

    d: Array
    sigma: Array

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        sigma = np.asarray(self.sigma, dtype=float)
        if d.ndim != 1 or d.size == 0 or d.size % 2 != 0:
            raise ValueError("displacement must be a vector of even length 2M")
        if sigma.shape != (d.size, d.size):
            raise ValueError("covariance shape does not match the displacement")
        scale = float(np.max(np.abs(sigma)))
        if not math.isfinite(scale):
            raise ValueError("covariance matrix is not finite")
        # relative: rounding in S sigma S^T leaves asymmetries of order max|sigma|
        if float(np.max(np.abs(sigma - sigma.T))) > SYMMETRY_TOL * max(1.0, scale):
            raise ValueError("covariance matrix is not symmetric")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "sigma", 0.5 * (sigma + sigma.T))

    @property
    def modes(self) -> int:
        return self.d.size // 2

    def mode_displacement(self, mode: int) -> Array:
        """(x, p) mean vector of one mode."""
        return self.d[2 * mode : 2 * mode + 2]

    def block(self, i: int, j: int) -> Array:
        """2x2 covariance block between modes i and j."""
        return self.sigma[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]


@dataclass(frozen=True, eq=False)
class SymplecticOp:
    """Linear quadrature map, checked to preserve Omega.

    The check is relative: S Omega S^T has entries of order max|S|^2, so it
    allows SYMPLECTIC_TOL * max(1, max|S|^2).
    """

    S: Array

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2 != 0:
            raise ValueError("map must be a square 2M x 2M matrix")
        omega = symplectic_form(S.shape[0] // 2)
        atol = SYMPLECTIC_TOL * max(1.0, float(np.max(np.abs(S))) ** 2)
        if not np.allclose(S @ omega @ S.T, omega, rtol=0.0, atol=atol):
            raise ValueError(f"matrix is not symplectic within relative {SYMPLECTIC_TOL}")
        object.__setattr__(self, "S", S)

    @property
    def modes(self) -> int:
        return self.S.shape[0] // 2


@dataclass(frozen=True, eq=False)
class ChannelOp:
    """Pure-loss channel with one transmission per mode; eta = 1 is identity."""

    eta_per_mode: Array

    def __post_init__(self):
        eta = np.atleast_1d(np.asarray(self.eta_per_mode, dtype=float))
        if eta.ndim != 1 or eta.size == 0:
            raise ValueError("need one transmission per mode")
        if np.any(eta < 0.0) or np.any(eta > 1.0):
            raise ValueError("transmissions must lie in [0, 1]")
        object.__setattr__(self, "eta_per_mode", eta)

    @property
    def modes(self) -> int:
        return self.eta_per_mode.size


def two_mode_squeezer(r: float) -> SymplecticOp:
    """Two-mode squeezing map on modes (0, 1).

    Sign convention: x1 - x2 (and p1 + p2) are squeezed for r > 0,
        x1 -> x1 cosh r + x2 sinh r        p1 -> p1 cosh r - p2 sinh r
        x2 -> x2 cosh r + x1 sinh r        p2 -> p2 cosh r - p1 sinh r
    """
    r = float(r)
    if not np.isfinite(r):
        raise ValueError("squeezing parameter must be finite")
    c, s = np.cosh(r), np.sinh(r)
    S = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return SymplecticOp(S)


def apply_loss(state: GaussianState, channel: ChannelOp) -> GaussianState:
    """Mix each mode with vacuum on a beam splitter of transmission eta.

    d -> X d and sigma -> X sigma X + (I - X^2) with X = diag(sqrt(eta))
    expanded over the quadratures of each mode.
    """
    if channel.modes != state.modes:
        raise ValueError("channel and state mode counts do not match")
    x = np.repeat(np.sqrt(channel.eta_per_mode), 2)
    sigma = state.sigma * np.outer(x, x) + np.diag(1.0 - x * x)
    return GaussianState(x * state.d, sigma)


def bright_mean_photon(state: GaussianState, mode: int) -> float:
    """Mean-field (stimulated) photon number |d|^2 / 4 of one mode.

    This is the photon count used consistently by the bright-limit number
    statistics; it differs from the exact mean, (|d|^2 + tr sigma - 2) / 4,
    only by the spontaneous occupation, which is negligible for bright seeds.
    """
    d = state.mode_displacement(mode)
    return float(d @ d / 4.0)


def _require_bright(state: GaussianState, mode: int) -> Array:
    d = state.mode_displacement(mode)
    if float(d @ d) == 0.0:
        raise BrightLimitError(
            f"bright-limit approximation invalid: mode {mode} has zero mean field"
        )
    return d


def number_variance_bright(state: GaussianState, mode: int) -> float:
    """Photon-number variance in the bright limit, d^T sigma d / 4."""
    d = _require_bright(state, mode)
    return float(d @ state.block(mode, mode) @ d / 4.0)


def number_covariance_bright(state: GaussianState, i: int, j: int) -> float:
    """Photon-number covariance of two bright modes, d_i^T sigma_ij d_j / 4."""
    di = _require_bright(state, i)
    dj = _require_bright(state, j)
    return float(di @ state.block(i, j) @ dj / 4.0)
