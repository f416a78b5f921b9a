"""Reference routes the tests hold the run-time code to; nothing at run time calls them.

Each recomputes a `qcrbench` result by an independent or more literal route:

* two-mode Gaussian states and maps beyond the slice stack's needs:
  `vacuum_state`, `coherent_state`, `apply_symplectic`, the exact
  `mean_photon`, and `symplectic_eigenvalues`, the physicality check;
* the source: `continuum_state`, the two-mode state of
  `source.continuum_sector`; `printed_noises_loop`, the printed noise
  formulas term by term in float math (with the literal cos(xi/2) probe
  form); `gauss_legendre_noises`, the continuum noises by quadrature; and
  `plain_continuum_kernel`, the closed-form kernel as whole-array
  expressions, which the blocked kernel must match bit for bit;
* the chain and the bounds: `three_stage_state`, the chain output from the
  full two-mode state, with `incident_photons`;
  `four_by_four_transmission_variance`, from the 4x4 photon-statistics
  estimator `optimal_gain` and `estimator_variance`, also the only route
  to the estimator at a fixed gain;
  `six_state_numeric_var_n`, the numeric bound from full chain states; and
  the `array_*` rate route to `qcrb_distributed`;
* detection: `quadrature_effective_time`, `crossing_standard_error`, and the
  SNR-window fits `polyfit_windows`, `polyfit_iterated_line_fit` and
  `ten_pass_line_fit`;
* inference: `reference_chi_square_batch`,
  `reference_differential_evolution` and `sequential_chi2_doubling`;
* the Hypothesis strategies `log_uniform`, for values over decades, and
  `inside`, for the values of a row of `errors.DOMAIN`, with `edges`, the
  values at and next to each end of a row, and `CONFIG_CAPS`, where the
  config box cuts the infinite ends of `config.KEY_ROWS`.

Test modules import them as ``from oracles import ...``: pytest's default
import mode puts this directory on ``sys.path``.  There is no conftest.
"""

import math
import sys
import warnings

import numpy as np
from hypothesis import strategies as st
from scipy import integrate

from qcrbench import detection, inference
from qcrbench.bounds import _FD_MISMATCH_TOL, ProbeChain
from qcrbench.errors import BrightLimitError, Field, NonPhysicalError
from qcrbench.gaussian import (
    Array,
    ChannelOp,
    GaussianState,
    SymplecticOp,
    apply_loss,
    bright_mean_photon,
    number_covariance_bright,
    number_variance_bright,
    symplectic_form,
)
from qcrbench.source import (
    NoiseTriple,
    SourceParams,
    _mirrored_moments,
    _slice_rates,
    _source_domain,
    continuum_sector,
)


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


def _printed_noises_scalar(s: float, ta: float, corrected_probe: bool) -> tuple:
    """The printed closed forms, term by term in float math, with zeta = atanh(ln T_a / xi)."""
    if s == 0.0:
        return 1.0, 1.0, 1.0
    log_ta = math.log(ta)
    root_ta = math.sqrt(ta)
    xi = math.sqrt(16.0 * s * s + log_ta * log_ta)
    zeta = math.atanh(log_ta / xi)
    sh4 = math.sinh(0.25 * xi)
    ch_shift = math.cosh(0.5 * xi + zeta)
    diff = (
        1.0
        - 2.0 * s * sh4 * sh4 / (xi * ch_shift)
        - root_ta * s * log_ta * log_ta * sh4**4 / (2.0 * xi**3 * ch_shift)
    )
    half = math.cosh(0.5 * xi) if corrected_probe else math.cos(0.5 * xi)
    probe = (16.0 * s * s * (1.0 - root_ta * (1.0 - half)) + log_ta * log_ta) / (xi * xi)
    conj = (
        16.0 * s * s * root_ta / (xi * xi)
        - 1.0
        - 2.0
        * root_ta
        * ((8.0 * s * s - xi * xi) * math.cosh(0.5 * xi) + xi * log_ta * math.sinh(0.5 * xi))
        / (xi * xi)
    )
    return diff, probe, conj


def printed_noises_loop(s, T_a, corrected_probe: bool = True) -> NoiseTriple:
    """Reference for the vectorized `analytic_noises`: a Python loop over the scalar forms.

    It fails where ln T_a / xi rounds to -1 (s below a few 1e-9 |ln T_a|), so
    it is only compared away from s = 0.
    """
    s, ta = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(T_a, dtype=float))
    rows = [_printed_noises_scalar(a, b, corrected_probe) for a, b in zip(s.flat, ta.flat)]
    diff, probe, conj = (np.array(col).reshape(s.shape) for col in zip(*rows))
    return NoiseTriple(diff=diff, probe=probe, conj=conj)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, stable at x = 0."""
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


def _propagator_column(s, g, q, z):
    """Probe column of the x-sector propagator at depth z, in the cosh/sinh form.

    e^{-kz} (cosh(qz) - k sinh(qz)/q, s sinh(qz)/q) with k = g/4: the direct
    form that the source kernel rewrites in positive terms.  It cancels where
    q ~ k, so the oracle is compared only where q is not close to k.
    """
    damp = np.exp(-0.25 * g * z)
    stretch = z * _sinhc(q * z)  # sinh(q z)/q
    return (
        damp * (np.cosh(q * z) - 0.25 * g * stretch),
        damp * (s * stretch),
    )


def gauss_legendre_noises(s, T_a) -> NoiseTriple:
    """Continuum noises with the vacuum integral G by 64-node Gauss-Legendre.

    An independent route to the closed forms of `continuum_noises`: M comes
    from the cosh/sinh form of the propagator and G from quadrature, whose
    integrands are smooth exponentials, so it is exact to rounding.
    """
    s, T_a = _source_domain(s, T_a)
    g, q = _slice_rates(s, T_a)
    m11, m21 = _propagator_column(s, g, q, 1.0)
    m22 = np.exp(-0.25 * g) * (np.cosh(q) + 0.25 * g * _sinhc(q))
    g00 = np.zeros_like(m11)
    g01 = np.zeros_like(m11)
    g11 = np.zeros_like(m11)
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        c1, c2 = _propagator_column(s, g, q, node)
        g00 += weight * c1 * c1
        g01 += weight * c1 * c2
        g11 += weight * c2 * c2
    s00 = m11 * m11 + m21 * m21 + g * g00
    s01 = m21 * (m11 + m22) + g * g01
    s11 = m21 * m21 + m22 * m22 + g * g11
    w_p = m11 * m11
    w_c = m21 * m21
    diff = (w_p * s00 + w_c * s11 - 2.0 * m11 * m21 * s01) / (w_p + w_c)
    return NoiseTriple(diff=diff, probe=s00, conj=s11)


def _plain_exprel(x):
    """(e^x - 1)/x with its limit 1 at x = 0, by a divide and a select."""
    with np.errstate(invalid="ignore"):
        return np.where(x == 0.0, 1.0, np.expm1(x) / x)


def plain_continuum_kernel(s, T_a) -> dict:
    """The closed-form source kernel as whole-array expressions, one per quantity.

    The same IEEE operations on the same operands in the same order as the
    blocked, in-place kernel of `qcrbench.source`, so its outputs must match
    these bit for bit, NaN and inf included.  Returns the arrays m11, m21,
    s00, s01, s11, diff and gain over the broadcast shape of (s, T_a).
    """
    s, T_a = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(T_a, dtype=float))
    g, q = _slice_rates(s, T_a)
    # the coefficients of source._coefficients; q = 0 only at s = g = 0
    q = np.where(q > 0.0, q, 1.0)
    qk = 0.25 * g + q
    h = 0.5 * s / q
    a = h * s / qk
    # the vacuum injection G
    b = 0.5 * qk / q
    e_up = _plain_exprel(s * s * 2.0 / qk)
    e_down = _plain_exprel(-2.0 * qk)
    e_mid = _plain_exprel(-0.5 * g)
    g00 = (a * a * e_up + h * h * e_mid * 2.0 + b * b * e_down) * g
    g11 = (e_up + e_down - e_mid - e_mid) * h * h * g
    g01 = ((e_up - e_mid) * a + (e_mid - e_down) * b) * h * g
    # the depth-1 propagator M
    up = s * s / qk  # q - k
    grow = np.exp(up)
    decay = np.exp(g * -0.5 - up)
    m21 = (grow - decay) * h
    m11 = a * grow + (1.0 - a) * decay
    m22 = (1.0 - a) * grow + a * decay
    # sigma = M M^T + G and the noises
    s00 = g00 + (m11 * m11 + m21 * m21)
    s01 = g01 + m21 * (m11 + m22)
    s11 = g11 + (m21 * m21 + m22 * m22)
    diff = (m11 * m11 * s00 + m21 * m21 * s11 - 2.0 * m11 * m21 * s01) / (m11 * m11 + m21 * m21)
    return {
        "m11": m11,
        "m21": m21,
        "s00": s00,
        "s01": s01,
        "s11": s11,
        "diff": diff,
        "gain": m11 * m11,
    }


def three_stage_state(chain: ProbeChain, T: float):
    """Chain output at T with all three loss stages applied from the source state."""
    state = apply_loss(continuum_state(chain.params), ChannelOp([chain.budget.T_p, 1.0]))
    state = apply_loss(state, ChannelOp([T, 1.0]))
    return apply_loss(state, ChannelOp([chain.budget.eta_p, chain.budget.eta_c]))


def incident_photons(chain: ProbeChain) -> float:
    """Bright probe photons incident on the system: the source's d_p^2 / 4, times T_p."""
    return chain.budget.T_p * bright_mean_photon(continuum_state(chain.params), 0)


def four_by_four_transmission_variance(chain: ProbeChain, T: float, g=None):
    """Reference `transmission_variance` from the photon statistics of the two-mode state.

    Takes `optimal_gain` (g = None) or the fixed gain g, and
    `estimator_variance` on `three_stage_state`, in photon numbers
    normalized by the incident photons; `transmission_variance` has only
    the optimal gain, so fixed gains come from here alone.  Returns None where
    n_p or a variance d_i sigma_ii d_i / 4 of this route (T ~< 1e-295 at tiny
    T_a), the count d_c^2 / 4 of a lit conjugate that the gain reads (tiny
    s), or its squared count derivative (s = 0 at tiny T_a), is not a
    normal float, 0 included: there this route has lost its own precision
    and has no value to compare.  A loss budget with T_p = 0 or eta_p = 0
    is dark, and its error comes first; a fixed gain g != 0 also rejects a
    probe or conjugate displacement of 0.
    """
    if chain.budget.T_p == 0.0 or chain.budget.eta_p == 0.0:
        raise BrightLimitError("no probe light reaches the detector")
    state = three_stage_state(chain, T)
    n_detected = bright_mean_photon(state, 0)
    conj_lit = state.mode_displacement(1).any()
    if g is not None and g != 0.0:
        if not state.mode_displacement(0).any():
            raise BrightLimitError("no probe light reaches the detector")
        if not conj_lit:
            raise BrightLimitError("bright-limit approximation invalid: mode 1 has zero mean field")
    counts = [n_detected]
    if conj_lit and (g is None or g != 0.0):
        counts.append(bright_mean_photon(state, 1))
    if min(counts) < sys.float_info.min:
        return None
    if g is None:
        g = optimal_gain(state)
    variance = estimator_variance(state, g)
    square = (n_detected / T) ** 2
    products = [n_detected, number_variance_bright(state, 0)]
    if g != 0.0:
        products.append(number_variance_bright(state, 1))
    if min(square, *products) < sys.float_info.min:
        return None
    variance = variance / square * incident_photons(chain)
    if not (variance > 0.0 and math.isfinite(variance)):
        raise NonPhysicalError(f"transmission variance {variance:.6g} is not positive")
    return variance


def six_state_numeric_var_n(chain: ProbeChain, T: float) -> float:
    """Reference numeric bound: one full chain state for the bound, four for the audit.

    The Fisher information dd^T sigma^{-1} dd of the four-mode state, in
    photon numbers normalized by the incident photons.
    `qcrb_numeric_gaussian` reads the x sector in shot-noise units and builds
    no covariance for the audit; it must agree with this route to rounding.
    """
    state = three_stage_state(chain, T)
    d = three_stage_state(chain, T).d
    derivative = np.zeros_like(d)
    derivative[:2] = d[:2] / (2.0 * T)
    step = 1e-6 * T
    center = T if T + step <= 1.0 else T - step
    plus = three_stage_state(chain, center + step).d[:2]
    minus = three_stage_state(chain, center - step).d[:2]
    fd = (plus - minus) / (2.0 * step)
    reference = three_stage_state(chain, center).d[:2] / (2.0 * center)
    assert np.linalg.norm(fd - reference) / np.linalg.norm(reference) <= _FD_MISMATCH_TOL
    fisher = float(derivative @ np.linalg.solve(state.sigma, derivative))
    return incident_photons(chain) / fisher


def array_mixing_rate(s, T_a):
    s = np.asarray(s, dtype=float)
    ta = np.asarray(T_a, dtype=float)
    if np.any(ta <= 0.0) or np.any(ta > 1.0):
        raise ValueError("internal transmission T_a must lie in (0, 1]")
    log_ta = np.log(ta)
    out = np.sqrt(16.0 * s * s + log_ta * log_ta)
    return float(out) if out.ndim == 0 else out


def array_distributed_norm(s, T_a):
    s = np.asarray(s, dtype=float)
    ta = np.asarray(T_a, dtype=float)
    xi = array_mixing_rate(s, ta)
    log_ta = np.log(ta)
    out = np.sqrt(ta) * (
        np.cosh(0.5 * xi) * (xi * xi + log_ta * log_ta)
        - log_ta * (log_ta + 2.0 * xi * np.sinh(0.5 * xi))
    )
    return float(out) if out.ndim == 0 else out


def array_route_distributed_var_n(T, s, T_a, T_p, eta_p, eta_c):
    """Reference `qcrb_distributed(...).var_n` by the array-helper route.

    Each factor re-evaluates xi and Gamma through the 0-d array helpers:
    four mixing-rate and two normalization evaluations per bound.
    """
    if s == 0.0:
        return T / eta_p
    xi2 = array_mixing_rate(s, T_a) ** 2
    gamma = array_distributed_norm(s, T_a)
    root_ta = math.sqrt(T_a)
    denominator = xi2 * (1.0 + eta_c * (root_ta - 2.0)) + eta_c * gamma
    if denominator == 0.0:
        raise NonPhysicalError("degenerate conjugate factor denominator")
    factor = (2.0 * eta_c - 1.0) * (xi2 * (root_ta - 1.0) + gamma) / denominator
    xi = array_mixing_rate(s, T_a)
    gamma = array_distributed_norm(s, T_a)
    denominator = xi * xi * (root_ta - 1.0) + gamma
    if denominator <= 0.0:
        raise NonPhysicalError("non-physical parameter combination")
    reduction = 32.0 * s * s * root_ta * math.sinh(0.25 * xi) ** 2 / denominator
    return T / eta_p - T * T * T_p * factor * reduction


def quadrature_effective_time(filt) -> float:
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


def crossing_standard_error(x, y, slope, intercept):
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


def polyfit_windows(mod_power, snr):
    """Reference SNR-window fit: one `np.polyfit(x, y, 1)` per window pass.

    Returns the window (bin mask) of every pass and the last line.  Same
    window rule, stopping rule, pass cap and errors as
    `detection._iterated_line_fit`, which must fit the same windows and
    return the same (slope, intercept) up to rounding; the crossing's
    standard error comes from explicit residuals
    (`crossing_standard_error`).  On a window of constant power
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
            se = crossing_standard_error(mod_power[mask], snr[mask], slope, intercept)
            if abs(crossing - previous) < 0.25 * se:
                break
            previous = crossing
        else:
            previous = math.nan
        mask = new_mask
    return windows, (float(slope), float(intercept))


def polyfit_iterated_line_fit(mod_power, snr):
    return polyfit_windows(mod_power, snr)[1]


def ten_pass_line_fit(mod_power, snr):
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


def reference_chi_square_batch(measurements, points, noise_model="numeric_oracle"):
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


def reference_differential_evolution(objective, config):
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


def sequential_chi2_doubling(
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


def log_uniform(lowest_exponent, highest_exponent=0.0):
    """Floats 10^e for e uniform in [lowest_exponent, highest_exponent]."""
    return st.floats(lowest_exponent, highest_exponent).map(lambda e: 10.0**e)


#: where the config box cuts the infinite upper end of a key's row
CONFIG_CAPS = {"seed_photons": 1e12, "n_r": 1e12, "rbw_hz": 1e8, "seed": 2**63}


def inside(row: Field, cap: float = math.inf):
    """Hypothesis strategy of the values of a `DOMAIN` row, its upper end cut at `cap`.

    An int row draws from its integers.  A float row open at 0 spans
    decades, so it draws 10^e with e uniform from -300 to its top; any other
    float row draws Hypothesis floats between its ends.
    """
    high = min(row.high, cap)
    if row.integer:
        return st.integers(int(row.low), int(high))
    if row.low == 0.0 and row.interval[0] == "(":
        return log_uniform(-300.0, math.log10(high))
    return st.floats(row.low, high, exclude_max=high == row.high and row.interval[-1] == ")")


def edges(row: Field) -> list:
    """Each finite end of a row and its nearest neighbours on either side, then NaN and ±inf.

    An int row gives ints, the end and one either side; a float row gives
    floats, the end and `math.nextafter` of it either way.
    """
    ends = [end for end in (row.low, row.high) if math.isfinite(end)]
    if row.integer:
        return sorted({int(end) + step for end in ends for step in (-1, 0, 1)})
    near = [math.nextafter(end, towards) for end in ends for towards in (-math.inf, math.inf)]
    return sorted(set(ends + near)) + [math.nan, math.inf, -math.inf]
