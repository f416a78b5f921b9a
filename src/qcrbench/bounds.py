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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPhysicalError
from .gaussian import ChannelOp, GaussianState, apply_loss, bright_mean_photon
from .source import SourceParams, _slice_rates, _source_domain, continuum_state


@dataclass(frozen=True)
class LossBudget:
    """External transmissions: probe before/after the system, and conjugate."""

    T_p: float
    eta_p: float
    eta_c: float

    def __post_init__(self):
        for name in ("T_p", "eta_p", "eta_c"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class BoundPoint:
    """One bound evaluated at system transmission T.

    ``var_n`` is Var(T) * n_r; the variance at the requested photon number is
    exposed as ``variance``.
    """

    T: float
    var_n: float
    n_r: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.var_n):
            raise ValueError("bound value must be finite")

    @property
    def variance(self) -> float:
        return self.var_n / self.n_r


def _check_t_nr(T: float, n_r: float):
    if not (0.0 <= T <= 1.0):
        raise ValueError("transmission T must lie in [0, 1]")
    if not n_r > 0.0:
        raise ValueError("probing photon number must be positive")


def conjugate_factor(eta_c: float, s: float) -> float:
    """Conjugate-arm efficiency factor gating the squeezed-probe advantage.

    Equals 1 for a lossless conjugate, 0 at eta_c = 1/2 (the reference arm
    carries no usable correlation), and is negative below that.
    """
    sh2 = math.sinh(s) ** 2
    return (2.0 * eta_c - 1.0) * (1.0 + 2.0 * sh2) / (1.0 + 2.0 * eta_c * sh2)


def _distributed_rates(s, T_a):
    """(xi, Gamma) of the distributed source at an (s, T_a) in the domain.

    xi = sqrt(16 s^2 + ln^2 T_a) is four times the eigen-rate q of the slice
    dynamics, and ln T_a = -g, so Gamma = sqrt(T_a) [cosh(xi/2) (xi^2 + g^2)
    + g (2 xi sinh(xi/2) - g)] enters the bound denominators.  Scalars or
    arrays.
    """
    g, q = _slice_rates(s, T_a)
    xi = 4.0 * q
    half = 0.5 * xi
    gamma = np.sqrt(T_a) * (np.cosh(half) * (xi * xi + g * g) + g * (2.0 * xi * np.sinh(half) - g))
    return xi, gamma


def _distributed_terms(eta_c: float, s: float, T_a: float) -> tuple[float, float]:
    """(conjugate factor, reduction) of the distributed source at validated values.

    The reduction is 0 at s = 0.  xi = 0 only at T_a = 1 with 16 s^2 below
    the float range (s = 0 included), where the squeezing term cannot move a
    float and the s = 0 values are returned.
    """
    xi, gamma = (float(x) for x in _distributed_rates(s, T_a))
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
    if not (0.0 <= eta_c <= 1.0):
        raise ValueError("eta_c must lie in [0, 1]")
    _source_domain(s, T_a)
    return _distributed_terms(eta_c, s, T_a)[0]


def distributed_reduction(s: float, T_a: float) -> float:
    """Noise-reduction strength of the distributed source.

    Plays the role of 1 - sech(2s) in the pure-source bound and reduces to
    it at T_a = 1; tends to 1 as s -> infinity.
    """
    _source_domain(s, T_a)
    # the reduction does not depend on eta_c; 1/2 keeps the factor's denominator positive
    return _distributed_terms(0.5, s, T_a)[1]


def qcrb_coherent(T: float, n_r: float, eta_p: float) -> BoundPoint:
    """Optimal classical bound: Var(T) >= T / (eta_p n_r), linear in T."""
    _check_t_nr(T, n_r)
    if not (0.0 < eta_p <= 1.0):
        raise ValueError("eta_p must lie in (0, 1]")
    return BoundPoint(T=T, var_n=T / eta_p, n_r=n_r)


def qcrb_pure_btmss(T: float, n_r: float, s: float, budget: LossBudget) -> BoundPoint:
    """Bound for a pure bright two-mode squeezed probe with external losses."""
    _check_t_nr(T, n_r)
    var_n = T / budget.eta_p - T * T * budget.T_p * conjugate_factor(budget.eta_c, s) * (
        1.0 - 1.0 / math.cosh(2.0 * s)
    )
    return BoundPoint(T=T, var_n=var_n, n_r=n_r)


def qcrb_distributed(T: float, n_r: float, params: SourceParams, budget: LossBudget) -> BoundPoint:
    """Bound for the source with loss distributed through the gain medium."""
    _check_t_nr(T, n_r)
    # SourceParams and LossBudget hold validated values
    factor, reduction = _distributed_terms(budget.eta_c, float(params.s), float(params.T_a))
    var_n = T / budget.eta_p - T * T * budget.T_p * factor * reduction
    return BoundPoint(T=T, var_n=var_n, n_r=n_r)


def qcrb_ultimate(T: float, n_r: float, budget: LossBudget, lossless: bool = False) -> BoundPoint:
    """Lowest bound over all probe states at fixed photon number."""
    _check_t_nr(T, n_r)
    t_p, eta_p = (1.0, 1.0) if lossless else (budget.T_p, budget.eta_p)
    var_n = T / eta_p - T * T * t_p
    return BoundPoint(T=T, var_n=var_n, n_r=n_r)


@dataclass(frozen=True)
class ProbeChain:
    """Source output propagated through the external loss budget.

    The T-independent stages are built once per chain: ``incident`` is the
    source state after T_p (the light incident on the system), and
    ``detection`` is the channel ChannelOp([eta_p, eta_c]) applied after T.
    ``state_at(T)`` therefore runs two loss stages, and
    ``displacement_at(T)`` gives the same displacement without building a
    covariance.  ``n_input`` counts the bright probe photons incident on the
    system (after T_p, before T); all var_n products are normalized to it.
    """

    source_state: GaussianState
    budget: LossBudget
    incident: GaussianState = field(init=False, repr=False)
    detection: ChannelOp = field(init=False, repr=False)

    def __post_init__(self):
        incident = apply_loss(self.source_state, ChannelOp([self.budget.T_p, 1.0]))
        object.__setattr__(self, "incident", incident)
        detection = ChannelOp([self.budget.eta_p, self.budget.eta_c])
        object.__setattr__(self, "detection", detection)

    def state_at(self, T: float) -> GaussianState:
        if not (0.0 <= T <= 1.0):
            raise ValueError("transmission T must lie in [0, 1]")
        return apply_loss(apply_loss(self.incident, ChannelOp([T, 1.0])), self.detection)

    def displacement_at(self, T: float) -> np.ndarray:
        """``state_at(T).d``, by the same products as `apply_loss`."""
        if not (0.0 <= T <= 1.0):
            raise ValueError("transmission T must lie in [0, 1]")
        d = np.repeat(np.sqrt(np.array([T, 1.0])), 2) * self.incident.d
        return np.repeat(np.sqrt(self.detection.eta_per_mode), 2) * d

    @property
    def n_input(self) -> float:
        return self.budget.T_p * bright_mean_photon(self.source_state, 0)


def build_chain(
    params: SourceParams, budget: LossBudget, min_bright_photons: float = 1e4
) -> ProbeChain:
    """Wrap the closed-form source state with the external loss budget."""
    if params.effective_seed_photons() < min_bright_photons:
        raise ValueError(
            f"bright-limit chain needs a seed of at least {min_bright_photons:g} photons"
        )
    return ProbeChain(source_state=continuum_state(params), budget=budget)


_FD_MISMATCH_TOL = 1e-6


def _displacement_derivative(chain: ProbeChain, T: float, d: np.ndarray) -> np.ndarray:
    """d(displacement)/dT of the chain output `d` at T, with a finite-difference audit.

    The probe displacement scales exactly as sqrt(T), so the derivative is
    d_probe / (2 T) and the conjugate entries are T-independent.  A central
    difference (step 1e-6 * T, so it stays inside (0, 1] at any T > 0, shifted
    off T = 1 if needed) must agree to 1e-6 relative or the evaluation is
    rejected.
    """
    derivative = np.zeros_like(d)
    derivative[:2] = d[:2] / (2.0 * T)
    step = 1e-6 * T
    center = T if T + step <= 1.0 else T - step
    plus = chain.displacement_at(center + step)[:2]
    minus = chain.displacement_at(center - step)[:2]
    fd = (plus - minus) / (2.0 * step)
    at_center = d if center == T else chain.displacement_at(center)
    reference = at_center[:2] / (2.0 * center)
    # hypot, not the norm of the squares: d/(2T) ~ T^-1/2 squares past 1e308 near T = 1e-300
    mismatch = np.hypot(*(fd - reference)) / np.hypot(*reference)
    if mismatch > _FD_MISMATCH_TOL:
        raise NonPhysicalError(
            f"analytic and finite-difference displacement derivatives disagree "
            f"({mismatch:.3e} relative)"
        )
    return derivative


def qcrb_numeric_gaussian(
    T: float,
    params: SourceParams,
    budget: LossBudget,
    n_r: float = 1.0,
    chain: ProbeChain | None = None,
) -> BoundPoint:
    """Bright-limit Gaussian bound computed from the full chain moments.

    Var(T) >= 1 / (dd^T sigma^{-1} dd) with dd the displacement derivative
    in this quadrature convention (the complex-form prefactor 2 is absorbed
    by the convention; the coherent chain reproduces T / (eta_p n_r)
    exactly).  A pre-built `chain` may be passed to share its source state
    and T-independent stages over a transmission grid.
    """
    _check_t_nr(T, n_r)
    if T == 0.0:
        raise ValueError("the numeric bound needs T > 0")
    if chain is None:
        chain = build_chain(params, budget)
    state = chain.state_at(T)
    derivative = _displacement_derivative(chain, T, state.d)
    # the Fisher product squares d/(2T) too; a power-of-two scale is exact, so
    # var_n keeps the bits of the unscaled product wherever that one is finite
    _, exponent = math.frexp(float(np.max(np.abs(derivative))))
    derivative = np.ldexp(derivative, -exponent)
    try:
        solved = np.linalg.solve(state.sigma, derivative)
    except np.linalg.LinAlgError as exc:
        raise NonPhysicalError("chain covariance matrix is singular") from exc
    fisher = float(derivative @ solved)
    if fisher <= 0.0:
        raise NonPhysicalError("non-positive Fisher information")
    var_n = math.ldexp(chain.n_input, -2 * exponent) / fisher
    return BoundPoint(T=T, var_n=var_n, n_r=n_r)


def advantage_ratio(T: float, params: SourceParams, budget: LossBudget) -> float:
    """Classical-over-squeezed bound ratio at identical (T, n_r, eta_p)."""
    coherent = qcrb_coherent(T, 1.0, budget.eta_p).var_n
    squeezed = qcrb_distributed(T, 1.0, params, budget).var_n
    return coherent / squeezed
