"""Lower bounds on transmission-estimation variance for Gaussian probes.

Every bound is reported as the dimensionless product var_n = Var(T) * n_r,
where n_r is the number of probe photons incident on the system under study;
var_n is independent of the probing power by construction.  Closed forms are
provided for

* a pure bright two-mode squeezed probe followed by external losses,
* the same probe generated with loss distributed inside the source,
* a coherent probe (the optimal classical reference),
* the ultimate bound over all states at fixed probe photon number,

together with a numeric bound evaluated directly from the displacement and
covariance of the full source + loss chain in the bright limit.  The numeric
route and the distributed closed form are independent implementations of the
same physics and are required to agree; tests enforce this.

External losses follow the experiment layout: the probe passes T_p (before
the system), the system transmission T, then eta_p (detection); the
conjugate only sees eta_c.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DOMAIN, BrightLimitError, NonPhysicalError
from .gaussian import GaussianState
from .source import SourceParams, _mirrored_moments, _slice_rates, continuum_sector

_T, _POSITIVE_T, _N_R, _ETA_P = (DOMAIN[k] for k in ("T", "positive T", "n_r", "positive eta_p"))


@dataclass(frozen=True)
class LossBudget:
    """External transmissions: probe before/after the system, and conjugate."""

    T_p: float
    eta_p: float
    eta_c: float

    def __post_init__(self):
        for name in ("T_p", "eta_p", "eta_c"):
            DOMAIN[name].check(getattr(self, name))


@dataclass(frozen=True)
class BoundPoint:
    """One bound evaluated at system transmission T.

    ``var_n`` is Var(T) * n_r, the photon-number-normalized variance, which
    does not depend on n_r; it is the only value a bound reports.
    """

    T: float
    var_n: float

    def __post_init__(self):
        if not math.isfinite(self.var_n):
            raise ValueError("bound value must be finite")


def _finite(value: float, s: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"closed-form bound overflows double precision at s = {s:g}")
    return value


def conjugate_factor(eta_c: float, s: float) -> float:
    """Conjugate-arm efficiency factor gating the squeezed-probe advantage.

    Equals 1 for a lossless conjugate, 0 at eta_c = 1/2 (the reference arm
    carries no usable correlation), and is negative below that.
    """
    try:
        sh2 = math.sinh(s) ** 2
    except OverflowError:
        sh2 = math.inf
    return _finite((2.0 * eta_c - 1.0) * (1.0 + 2.0 * sh2) / (1.0 + 2.0 * eta_c * sh2), s)


def _distributed_rates(s, T_a):
    """(xi, Gamma) of the distributed source at an (s, T_a) in the domain.

    xi = sqrt(16 s^2 + ln^2 T_a) is four times the eigen-rate q of the slice
    dynamics, and ln T_a = -g, so Gamma = sqrt(T_a) [cosh(xi/2) (xi^2 + g^2)
    + g (2 xi sinh(xi/2) - g)] enters the bound denominators.  Scalars or
    arrays; above s ~ 294-348 (by T_a) Gamma is inf or NaN, without a numpy warning.
    """
    g, q = _slice_rates(s, T_a)
    xi = 4.0 * q
    half = 0.5 * xi
    with np.errstate(over="ignore", invalid="ignore"):
        bracket = np.cosh(half) * (xi * xi + g * g) + g * (2.0 * xi * np.sinh(half) - g)
    return xi, np.sqrt(T_a) * bracket


@functools.lru_cache(maxsize=64)
def _distributed_terms(eta_c: float, s: float, T_a: float) -> tuple[float, float]:
    """(conjugate factor, reduction) of the distributed source at validated floats.

    The reduction is 0 at s = 0.  xi = 0 only at T_a = 1 with 16 s^2 below
    the float range (s = 0 included), where the squeezing term cannot move a
    float and the s = 0 values are returned.

    Neither term depends on T, so the values are cached on (eta_c, s, T_a):
    a bound over a T grid computes them once.  -0.0 and 0.0 share a key;
    they give the same bits for eta_c and s.
    """
    xi, gamma = (float(x) for x in _distributed_rates(s, T_a))
    _finite(gamma, s)
    if xi == 0.0:
        return 2.0 * eta_c - 1.0, 0.0
    xi2 = xi**2
    root_ta = math.sqrt(T_a)
    numerator = xi2 * (root_ta - 1.0) + gamma
    denominator = xi2 * (1.0 + eta_c * (root_ta - 2.0)) + eta_c * gamma
    if denominator == 0.0:
        raise NonPhysicalError("degenerate conjugate factor denominator")
    factor = (2.0 * eta_c - 1.0) * numerator / denominator
    if s == 0.0:
        return factor, 0.0
    denominator = xi * xi * (root_ta - 1.0) + gamma
    if denominator <= 0.0:
        raise NonPhysicalError("non-physical parameter combination")
    return factor, 32.0 * s * s * root_ta * math.sinh(0.25 * xi) ** 2 / denominator


def conjugate_factor_distributed(eta_c: float, s: float, T_a: float) -> float:
    """Distributed-source analog of `conjugate_factor`.

    Implemented in the form (2 eta_c - 1) [xi^2 (sqrt(T_a) - 1) + Gamma] /
    [xi^2 (1 + eta_c (sqrt(T_a) - 2)) + eta_c Gamma], algebraically equal to
    the published expression but regular at eta_c = 0.  Reduces to
    `conjugate_factor` at T_a = 1.
    """
    for name, value in (("eta_c", eta_c), ("s", s), ("T_a", T_a)):
        DOMAIN[name].check(value)
    return _distributed_terms(float(eta_c), float(s), float(T_a))[0]


def distributed_reduction(s: float, T_a: float) -> float:
    """Noise-reduction strength of the distributed source.

    Plays the role of 1 - sech(2s) in the pure-source bound and reduces to
    it at T_a = 1; tends to 1 as s -> infinity.
    """
    DOMAIN["s"].check(s)
    DOMAIN["T_a"].check(T_a)
    # the reduction does not depend on eta_c; 1/2 keeps the factor's denominator positive
    return _distributed_terms(0.5, float(s), float(T_a))[1]


def qcrb_coherent(T: float, n_r: float, eta_p: float) -> BoundPoint:
    """Optimal classical bound: Var(T) >= T / (eta_p n_r), linear in T."""
    _T.check(T)
    _N_R.check(n_r)
    return BoundPoint(T=T, var_n=T / _ETA_P.check(eta_p))


def qcrb_pure_btmss(T: float, n_r: float, s: float, budget: LossBudget) -> BoundPoint:
    """Bound for a pure bright two-mode squeezed probe with external losses."""
    _T.check(T)
    _N_R.check(n_r)
    DOMAIN["s"].check(s)
    # the factor rejects every s where 2 sinh^2 s, that is cosh(2 s) - 1, overflows
    factor = conjugate_factor(budget.eta_c, s)
    reduction = 1.0 - 1.0 / math.cosh(2.0 * s)
    var_n = T / _ETA_P.check(budget.eta_p) - T * T * budget.T_p * factor * reduction
    return BoundPoint(T=T, var_n=var_n)


def qcrb_distributed(T: float, n_r: float, params: SourceParams, budget: LossBudget) -> BoundPoint:
    """Bound for the source with loss distributed through the gain medium."""
    _T.check(T)
    _N_R.check(n_r)
    # SourceParams and LossBudget hold validated values
    factor, reduction = _distributed_terms(
        float(budget.eta_c), float(params.s), float(params.T_a)
    )
    var_n = T / _ETA_P.check(budget.eta_p) - T * T * budget.T_p * factor * reduction
    return BoundPoint(T=T, var_n=var_n)


def qcrb_ultimate(T: float, n_r: float, budget: LossBudget, lossless: bool = False) -> BoundPoint:
    """Lowest bound over all probe states at fixed photon number."""
    _T.check(T)
    _N_R.check(n_r)
    t_p, eta_p = (1.0, 1.0) if lossless else (budget.T_p, _ETA_P.check(budget.eta_p))
    var_n = T / eta_p - T * T * t_p
    return BoundPoint(T=T, var_n=var_n)


def _loss_stage(sector, x_p: float, x_c: float):
    """`gaussian.apply_loss` of amplitude transmissions (x_p, x_c) on an x sector, bit for bit."""
    d_p, d_c, s_pp, s_pc, s_cc = sector
    p, c = x_p * x_p, x_c * x_c
    return x_p * d_p, x_c * d_c, s_pp * p + (1.0 - p), s_pc * (x_p * x_c), s_cc * c + (1.0 - c)


@dataclass(frozen=True)
class ProbeChain:
    """Source output propagated through the external loss budget.

    Pure loss keeps the source's mirrored form (`source._mirrored_moments`),
    so the chain carries the x sector (d_p, d_c, sigma_pp, sigma_pc,
    sigma_cc) of `source.continuum_sector`: ``incident`` after T_p, and
    ``sector_at(T)`` after the T and then the (eta_p, eta_c) stage.
    ``state_at(T)`` expands it to the state for the audits.  A chain is lit
    and bright-seeded: T_p, eta_p > 0 and a seed in ``DOMAIN["bright seed_photons"]``.
    """

    params: SourceParams
    budget: LossBudget
    incident: tuple = field(init=False, repr=False)

    def __post_init__(self):
        DOMAIN["bright seed_photons"].check(self.params.seed_photons)
        if self.budget.T_p == 0.0 or self.budget.eta_p == 0.0:
            raise BrightLimitError("no probe light reaches the detector")
        sector = continuum_sector(self.params)
        object.__setattr__(self, "incident", _loss_stage(sector, math.sqrt(self.budget.T_p), 1.0))

    def sector_at(self, T: float) -> tuple:
        """Detected x sector (d_p, d_c, sigma_pp, sigma_pc, sigma_cc) at T."""
        _T.check(T)
        sector = _loss_stage(self.incident, math.sqrt(T), 1.0)
        return _loss_stage(sector, math.sqrt(self.budget.eta_p), math.sqrt(self.budget.eta_c))

    def state_at(self, T: float) -> GaussianState:
        return GaussianState(*_mirrored_moments(*self.sector_at(T)))


def build_chain(params: SourceParams, budget: LossBudget) -> ProbeChain:
    """Pass the closed-form source sector through the T_p stage of the loss budget."""
    return ProbeChain(params, budget)


_FD_MISMATCH_TOL = 1e-6


def _probe_derivative(chain: ProbeChain, T: float, d_p: float) -> None:
    """Audit that the detected probe displacement d_p scales as sqrt(T) at T.

    The numeric bound relies on d(d_p)/dT = d_p / (2 T) exactly; the
    conjugate displacement is T-independent.  A central difference (step
    1e-6 * T, so it stays inside (0, 1], shifted off T = 1 if needed) must
    agree with d_p / (2 T) to 1e-6 relative or the evaluation is rejected.
    Below T ~ 2.47e-318 the step underflows to 0, and T is rejected.
    """
    step = 1e-6 * T
    if step == 0.0:
        raise NonPhysicalError(f"T = {T:.3g} is too small for the finite-difference audit step")
    center = T if T + step <= 1.0 else T - step
    plus = chain.sector_at(center + step)[0]
    minus = chain.sector_at(center - step)[0]
    fd = (plus - minus) / (2.0 * step)
    at_center = d_p if center == T else chain.sector_at(center)[0]
    reference = at_center / (2.0 * center)
    # a product, not a ratio: where d_p underflows to 0 both are 0 and the Fisher check rejects T
    if abs(fd - reference) > _FD_MISMATCH_TOL * abs(reference):
        raise NonPhysicalError(
            f"analytic and finite-difference displacement derivatives disagree "
            f"({abs(fd - reference) / abs(reference):.3e} relative)"
        )


def qcrb_numeric_gaussian(
    T: float,
    params: SourceParams,
    budget: LossBudget,
    n_r: float = 1.0,
    *,
    chain: ProbeChain,
) -> BoundPoint:
    """Bright-limit Gaussian bound computed from the full chain moments.

    F = dd^T sigma^{-1} dd, the displacement term of the Gaussian quantum
    Fisher information in this quadrature convention (the coherent chain
    gives T / (eta_p n_r)).  dd has a probe-x entry only, so
    F = (d d_p/dT)^2 sigma_cc / det with det = sigma_pp sigma_cc - sigma_pc^2,
    and d_p ~ sqrt(T) (`_probe_derivative`) makes (d d_p/dT)^2 = n eta_p / T
    for the n probe photons incident on the system.  In shot-noise units
    var_n = n / F = (T / eta_p) det / sigma_cc: no photon number, no seed.
    The `chain` shares its source sector and T_p stage over a T grid; it
    must have been built from ``params`` and ``budget``, and being a
    `ProbeChain` it is lit (eta_p > 0 and T_p > 0).
    """
    _POSITIVE_T.check(T)
    _N_R.check(n_r)
    if (chain.params, chain.budget) != (params, budget):
        raise ValueError("the chain was built from other source parameters or loss budget")
    d_p, _, s_pp, s_pc, s_cc = chain.sector_at(T)
    _probe_derivative(chain, T, d_p)
    det = s_pp * s_cc - s_pc * s_pc
    if d_p == 0.0 or not (det > 0.0 and s_cc > 0.0):
        raise NonPhysicalError("non-positive Fisher information")
    var_n = T / budget.eta_p * det / s_cc
    return BoundPoint(T=T, var_n=var_n)


def advantage_ratio(T: float, params: SourceParams, budget: LossBudget) -> float:
    """Classical-over-squeezed bound ratio at identical (T, n_r, eta_p)."""
    coherent = qcrb_coherent(T, 1.0, budget.eta_p).var_n
    squeezed = qcrb_distributed(T, 1.0, params, budget).var_n
    return coherent / squeezed
