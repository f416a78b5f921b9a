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
from .source import SourceParams, _source_domain, converged_source

BOUND_KINDS = (
    "pure_btmss",
    "distributed_btmss",
    "coherent",
    "ultimate_ideal",
    "ultimate_lossy",
    "numeric_gaussian",
)


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
    bound_kind: str
    n_r: float = 1.0

    def __post_init__(self):
        if self.bound_kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.bound_kind!r}")
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


def _mixing_rate(s, log_ta):
    return np.sqrt(16.0 * s * s + log_ta * log_ta)


def _distributed_norm(T_a, log_ta, xi):
    return np.sqrt(T_a) * (
        np.cosh(0.5 * xi) * (xi * xi + log_ta * log_ta)
        - log_ta * (log_ta + 2.0 * xi * np.sinh(0.5 * xi))
    )


def _scalar_rates(s: float, T_a: float) -> tuple[float, float]:
    """(xi, Gamma) at one validated (s, T_a), by the formulas the array helpers use."""
    log_ta = np.log(T_a)
    xi = float(_mixing_rate(s, log_ta))
    return xi, float(_distributed_norm(T_a, log_ta, xi))


def mixing_rate(s, T_a):
    """Characteristic rate xi = sqrt(16 s^2 + ln^2 T_a) of the distributed source.

    Four times the eigen-rate of the slice dynamics; the source moments are
    hyperbolic functions of a quarter of this rate.
    """
    s, ta = _source_domain(s, T_a)
    out = _mixing_rate(s, np.log(ta))
    return float(out) if out.ndim == 0 else out


def distributed_norm(s, T_a):
    """Normalization Gamma entering the distributed-loss bound denominators."""
    s, ta = _source_domain(s, T_a)
    log_ta = np.log(ta)
    out = _distributed_norm(ta, log_ta, _mixing_rate(s, log_ta))
    return float(out) if out.ndim == 0 else out


def _conjugate_factor(eta_c: float, T_a: float, xi: float, gamma: float) -> float:
    xi2 = xi**2
    root_ta = math.sqrt(T_a)
    numerator = xi2 * (root_ta - 1.0) + gamma
    denominator = xi2 * (1.0 + eta_c * (root_ta - 2.0)) + eta_c * gamma
    if denominator == 0.0:
        raise NonPhysicalError("degenerate conjugate factor denominator")
    return (2.0 * eta_c - 1.0) * numerator / denominator


def _reduction(s: float, T_a: float, xi: float, gamma: float) -> float:
    root_ta = math.sqrt(T_a)
    denominator = xi * xi * (root_ta - 1.0) + gamma
    if denominator <= 0.0:
        raise NonPhysicalError("non-physical parameter combination")
    return 32.0 * s * s * root_ta * math.sinh(0.25 * xi) ** 2 / denominator


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
    if s == 0.0 and T_a == 1.0:
        return 2.0 * eta_c - 1.0
    return _conjugate_factor(eta_c, T_a, *_scalar_rates(s, T_a))


def distributed_reduction(s: float, T_a: float) -> float:
    """Noise-reduction strength of the distributed source.

    Plays the role of 1 - sech(2s) in the pure-source bound and reduces to
    it at T_a = 1; tends to 1 as s -> infinity.
    """
    _source_domain(s, T_a)
    if s == 0.0:
        return 0.0
    return _reduction(s, T_a, *_scalar_rates(s, T_a))


def qcrb_coherent(T: float, n_r: float, eta_p: float) -> BoundPoint:
    """Optimal classical bound: Var(T) >= T / (eta_p n_r), linear in T."""
    _check_t_nr(T, n_r)
    if not (0.0 < eta_p <= 1.0):
        raise ValueError("eta_p must lie in (0, 1]")
    return BoundPoint(T=T, var_n=T / eta_p, bound_kind="coherent", n_r=n_r)


def qcrb_pure_btmss(T: float, n_r: float, s: float, budget: LossBudget) -> BoundPoint:
    """Bound for a pure bright two-mode squeezed probe with external losses."""
    _check_t_nr(T, n_r)
    var_n = T / budget.eta_p - T * T * budget.T_p * conjugate_factor(budget.eta_c, s) * (
        1.0 - 1.0 / math.cosh(2.0 * s)
    )
    return BoundPoint(T=T, var_n=var_n, bound_kind="pure_btmss", n_r=n_r)


def qcrb_distributed(T: float, n_r: float, params: SourceParams, budget: LossBudget) -> BoundPoint:
    """Bound for the source with loss distributed through the gain medium."""
    _check_t_nr(T, n_r)
    if params.s == 0.0:
        var_n = T / budget.eta_p
    else:
        # SourceParams and LossBudget hold validated values: evaluate the rates once
        s, t_a = float(params.s), float(params.T_a)
        xi, gamma = _scalar_rates(s, t_a)
        var_n = T / budget.eta_p - (
            T
            * T
            * budget.T_p
            * _conjugate_factor(budget.eta_c, t_a, xi, gamma)
            * _reduction(s, t_a, xi, gamma)
        )
    return BoundPoint(T=T, var_n=var_n, bound_kind="distributed_btmss", n_r=n_r)


def qcrb_ultimate(T: float, n_r: float, budget: LossBudget, lossless: bool = False) -> BoundPoint:
    """Lowest bound over all probe states at fixed photon number."""
    _check_t_nr(T, n_r)
    t_p, eta_p = (1.0, 1.0) if lossless else (budget.T_p, budget.eta_p)
    var_n = T / eta_p - T * T * t_p
    kind = "ultimate_ideal" if lossless else "ultimate_lossy"
    return BoundPoint(T=T, var_n=var_n, bound_kind=kind, n_r=n_r)


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
    params: SourceParams,
    budget: LossBudget,
    rel_tol: float = 1e-9,
    min_bright_photons: float = 1e4,
) -> ProbeChain:
    """Converge the source model and wrap it with the external loss budget."""
    if params.effective_seed_photons() < min_bright_photons:
        raise ValueError(
            f"bright-limit chain needs a seed of at least {min_bright_photons:g} photons"
        )
    return ProbeChain(source_state=converged_source(params, rel_tol=rel_tol).state, budget=budget)


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
    rel_tol: float = 1e-9,
    chain: ProbeChain | None = None,
) -> BoundPoint:
    """Bright-limit Gaussian bound computed from the full chain moments.

    Var(T) >= 1 / (dd^T sigma^{-1} dd) with dd the displacement derivative
    in this quadrature convention (the complex-form prefactor 2 is absorbed
    by the convention; the coherent chain reproduces T / (eta_p n_r)
    exactly).  A pre-built `chain` may be passed to amortize the source
    convergence over a transmission grid.
    """
    _check_t_nr(T, n_r)
    if T == 0.0:
        raise ValueError("the numeric bound needs T > 0")
    if chain is None:
        chain = build_chain(params, budget, rel_tol=rel_tol)
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
    return BoundPoint(T=T, var_n=var_n, bound_kind="numeric_gaussian", n_r=n_r)


def advantage_ratio(T: float, params: SourceParams, budget: LossBudget) -> float:
    """Classical-over-squeezed bound ratio at identical (T, n_r, eta_p)."""
    coherent = qcrb_coherent(T, 1.0, budget.eta_p).var_n
    squeezed = qcrb_distributed(T, 1.0, params, budget).var_n
    return coherent / squeezed
