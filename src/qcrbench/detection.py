"""Measurement side: optimized intensity-difference estimation and the
spectrum-analyzer signal chain.

The transmission estimator subtracts an electronically attenuated copy of
the conjugate photocurrent from the probe photocurrent, n_p - g n_c, with g
chosen to cancel as much common intensity noise as possible.  Its variance
(in transmission units) is compared against the Gaussian bounds elsewhere;
for this source family the optimized estimator saturates them.

The spectrum-analyzer model follows the classic two-channel layout: split,
mix against quadrature local oscillators, low-pass with the resolution
bandwidth (RBW) filter, square, and sum.  The RBW filter also fixes the
effective measurement time t = |H(0)|^2 / (2 int |H(f)|^2 df) used to turn a
photon flux into a photon number per measurement bin.  RBW is defined as the
FWHM of |H(f)|^2 for every filter kind here; this convention reproduces the
4-pole analyzer fixture t ~= 0.44/RBW.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BrightLimitError, NonPhysicalError
from .gaussian import (
    GaussianState,
    bright_mean_photon,
    number_covariance_bright,
    number_variance_bright,
)

#: exact SI values (2019 redefinition) for the photon energy h c / lambda
PLANCK_H = 6.62607015e-34
SPEED_OF_LIGHT = 299792458.0

#: most poles a sync-tuned filter may have; the effective time is a product
#: over poles - 1 factors
MAX_POLES = 1000


@dataclass(frozen=True)
class FilterModel:
    """Resolution-bandwidth filter: Gaussian or n-pole synchronously tuned."""

    kind: str
    rbw: float
    poles: int = 4

    def __post_init__(self):
        if self.kind not in ("gaussian", "sync_tuned"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if not (self.rbw > 0.0 and math.isfinite(self.rbw)):
            raise ValueError("RBW must be positive and finite")
        if self.poles < 1:
            raise ValueError("need at least one pole")
        if self.poles > MAX_POLES:
            raise ValueError(f"at most {MAX_POLES} poles are supported")

    @property
    def corner(self) -> float:
        """Corner frequency of each sync-tuned pole, placing the FWHM at RBW."""
        return 0.5 * self.rbw / math.sqrt(2.0 ** (1.0 / self.poles) - 1.0)

    def power_response(self, f):
        """|H(f)|^2 normalized to |H(0)|^2 = 1."""
        f = np.asarray(f, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-4.0 * math.log(2.0) * (f / self.rbw) ** 2)
        return (1.0 + (f / self.corner) ** 2) ** (-self.poles)


def effective_time(filt: FilterModel) -> float:
    """Effective measurement time t = |H(0)|^2 / (2 int |H(f)|^2 df).

    Both filter kinds have closed forms.  The Gaussian gives
    sqrt(ln 2 / pi) / RBW (~0.47/RBW).  An n-pole sync-tuned filter with
    corner c gives int_0^inf (1 + (f/c)^2)^-n df = c sqrt(pi) G / 2, where
    G = Gamma(n - 1/2) / Gamma(n) = sqrt(pi) prod_{k=1}^{n-1} (k - 1/2) / k.
    An RBW so extreme that t is not a positive finite number is rejected.
    """
    if filt.kind == "gaussian":
        t = math.sqrt(math.log(2.0) / math.pi) / filt.rbw
    else:
        gamma_ratio = math.sqrt(math.pi)
        for k in range(1, filt.poles):
            gamma_ratio *= (k - 0.5) / k
        integral = filt.corner * math.sqrt(math.pi) * gamma_ratio / 2.0
        t = 1.0 / (4.0 * integral) if integral > 0.0 else math.inf
    if not 0.0 < t < math.inf:
        raise ValueError(f"RBW {filt.rbw!r} Hz gives no finite effective time")
    return t


@dataclass(frozen=True)
class MeasurementPlan:
    """Ramp-measurement description for the SNR = 1 procedure."""

    filter: FilterModel
    trials: int
    rng_seed: int
    ramp_duration: float = 14.0
    modulation_freq: float = 1.5e6

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial bin")
        if not self.ramp_duration > 0.0:
            raise ValueError("ramp duration must be positive")


@dataclass(frozen=True)
class RampResult:
    """Outcome of one simulated modulation ramp."""

    delta_T_at_snr1: float
    fit_slope: float
    fit_intercept: float
    snr_trace: np.ndarray
    amplitudes: np.ndarray = field(repr=False, default=None)


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


def transmission_variance(chain, T: float, n_r: float = 1.0, g: float | None = None) -> float:
    """Variance of the transmission estimate from the optimized measurement.

    Var(T_est) = Var(n_p - g n_c) / (d<n_p - g n_c>/dT)^2, where the mean
    conjugate count is T-independent and <n_p> is exactly linear in T, so
    the derivative equals <n_p>/T at the detector.  With g = None the
    optimal gain is used.

    `chain` is any chain builder exposing ``state_at(T)`` and ``n_input``
    (e.g. `bounds.ProbeChain`); the result is rescaled from the chain's
    native photon number to n_r probing photons.
    """
    if not (0.0 < T <= 1.0):
        raise ValueError("transmission T must lie in (0, 1]")
    if not n_r > 0.0:
        raise ValueError("probing photon number must be positive")
    state = chain.state_at(T)
    n_detected = bright_mean_photon(state, 0)
    if n_detected == 0.0:
        raise BrightLimitError("no probe light reaches the detector")
    if g is None:
        g = optimal_gain(state)
    derivative = n_detected / T
    var_native = estimator_variance(state, g) / derivative**2
    variance = var_native * chain.n_input / n_r
    if not (variance > 0.0 and math.isfinite(variance)):
        # an ill-conditioned chain covariance (very large s) can cancel below zero
        raise NonPhysicalError(f"transmission variance {variance:.6g} at T = {T} is not positive")
    return variance


def linear_ramp(initial_amplitude: float, duration: float):
    """Modulation profile ramping linearly from `initial_amplitude` to zero."""
    if initial_amplitude < 0.0 or duration <= 0.0:
        raise ValueError("ramp needs a non-negative amplitude and positive duration")

    def profile(t):
        return initial_amplitude * np.clip(1.0 - np.asarray(t, dtype=float) / duration, 0.0, None)

    return profile


_SNR_FIT_WINDOW = (0.2, 5.0)
_MIN_WINDOW_BINS = 8


def _line_fit(x: np.ndarray, y: np.ndarray):
    """(slope, intercept) of `np.polyfit(x, y, 1)`, bit for bit, without its set-up.

    polyfit solves the Vandermonde system [x, 1] with each column divided by
    its norm and `lstsq(lhs, y, n * eps)`.  Its column norms come from an
    axis-0 sum over an (n, 2) array, which adds row by row; `np.cumsum`
    adds in the same order, and the norm of the ones column is sqrt(n).
    x is first scaled by a power of two, which is exact, so every bit is
    polyfit's wherever the squares of x neither underflow nor overflow, and
    a ramp at tiny powers (~1e-169, whose squares underflow) is still solved.
    """
    _, exponent = math.frexp(float(x.max()))
    x = np.ldexp(x, -exponent)
    n = x.size
    x_norm = math.sqrt(np.cumsum(x * x)[-1])
    ones_norm = math.sqrt(n)
    lhs = np.empty((n, 2))
    lhs[:, 0] = x / x_norm
    lhs[:, 1] = 1.0 / ones_norm
    coef, _, rank, _ = np.linalg.lstsq(lhs, y, n * np.finfo(float).eps)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    try:
        slope = math.ldexp(coef[0] / x_norm, -exponent)
    except OverflowError:
        # x at subnormal magnitudes (below ~2e-308) can need a slope past float64
        raise NonPhysicalError("line slope overflows float64 at these modulation powers") from None
    return slope, float(coef[1] / ones_norm)


def _iterated_line_fit(mod_power: np.ndarray, snr: np.ndarray):
    """Least-squares line through (modulation power, SNR), iterating the window.

    The per-bin SNR responds linearly to the modulation *power* (the
    modulation amplitude enters the demodulated bin quadratically), so the
    line is fitted against power; fitting against amplitude would bake a
    few-percent bias into the SNR = 1 crossing.  The window keeps bins whose
    *fitted* SNR lies in [0.2, 5], mirroring the usable region of a ramp
    trace between the noise floor and the pre-ramp settling segment.

    Each pass is `_line_fit`, whose bits are those of `np.polyfit(x, y, 1)`.
    The window still has no stopping rule: it stops when the mask repeats
    the previous pass or after 10 passes, and may alternate between two
    masks until then.
    """
    usable = (mod_power > 0.0) & np.isfinite(snr)
    mask = usable
    lo, hi = _SNR_FIT_WINDOW
    slope = intercept = float("nan")
    for _ in range(10):
        if np.count_nonzero(mask) < _MIN_WINDOW_BINS:
            raise NonPhysicalError("SNR=1 not bracketed: too few usable ramp bins")
        slope, intercept = _line_fit(mod_power[mask], snr[mask])
        fitted = intercept + slope * mod_power
        new_mask = usable & (fitted >= lo) & (fitted <= hi)
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask
    return slope, intercept


def snr_ramp_simulate(
    plan: MeasurementPlan, true_delta_T_profile, noise_variance: float
) -> RampResult:
    """Monte Carlo emulation of the ramped-modulation SNR = 1 procedure.

    Each spectrum-analyzer bin of duration effective_time(filter) yields the
    demodulated power of the modulation tone plus Gaussian estimator noise
    of variance `noise_variance` (from `transmission_variance`); modulation
    amplitudes are in RMS transmission units.  Per bin,
    SNR = (P - mean noise power) / mean noise power, taken against a
    noise-only reference trace.  A line fitted to SNR versus modulation
    power is solved for SNR = 1 and the crossing is returned as an
    amplitude; it estimates the transmission standard deviation.

    Noise draws come from streams keyed on (rng_seed, trace index), so
    results are bit-identical regardless of how trials are scheduled.
    """
    if noise_variance < 0.0:
        raise ValueError("noise variance must be >= 0")
    n_bins = plan.trials
    t_bin = effective_time(plan.filter)
    times = (np.arange(n_bins) + 0.5) * t_bin
    amplitudes = np.asarray(true_delta_T_profile(times), dtype=float)
    if noise_variance == 0.0:
        # noiseless limit: any modulation is resolved, the crossing sits at zero
        return RampResult(
            delta_T_at_snr1=0.0,
            fit_slope=float("inf"),
            fit_intercept=0.0,
            snr_trace=np.full(n_bins, np.inf),
            amplitudes=amplitudes,
        )
    scale = math.sqrt(noise_variance / 2.0)
    noise_rng = np.random.default_rng(np.random.SeedSequence([plan.rng_seed, 0]))
    signal_rng = np.random.default_rng(np.random.SeedSequence([plan.rng_seed, 1]))
    reference = noise_rng.normal(0.0, scale, (2, n_bins))
    noise_power = np.mean(reference[0] ** 2 + reference[1] ** 2)
    in_phase, quadrature = signal_rng.normal(0.0, scale, (2, n_bins))
    power = (amplitudes + in_phase) ** 2 + quadrature**2
    snr = (power - noise_power) / noise_power
    slope, intercept = _iterated_line_fit(amplitudes**2, snr)
    if slope <= 0.0:
        raise NonPhysicalError("SNR=1 not bracketed: non-increasing SNR ramp")
    crossing_power = (1.0 - intercept) / slope
    if not (0.0 < crossing_power <= float(np.max(amplitudes)) ** 2):
        raise NonPhysicalError("SNR=1 not bracketed by the modulation ramp")
    return RampResult(
        delta_T_at_snr1=float(math.sqrt(crossing_power)),
        fit_slope=slope,
        fit_intercept=intercept,
        snr_trace=snr,
        amplitudes=amplitudes,
    )


def sa_chain_simulate(
    input_series: np.ndarray, sample_rate: float, filt: FilterModel, f_lo: float
) -> float:
    """Mean output of the two-channel spectrum-analyzer chain.

    Splits the input (voltage / sqrt(2) per channel), mixes against cosine
    and sine local oscillators at `f_lo`, low-passes each channel with the
    RBW filter, squares, sums, and returns the time-averaged output.  For a
    tone A sin(2 pi f_lo t + phi) this yields (A^2/8) |H(0)|^2, i.e. the
    chain measures K * Var with K = |H(0)|^2 / 4.
    """
    series = np.asarray(input_series, dtype=float)
    if series.ndim != 1 or series.size < 2:
        raise ValueError("input series must be a 1-D array")
    if not 0.0 < f_lo < 0.5 * sample_rate:
        raise ValueError("local oscillator must sit below the Nyquist frequency")
    duration = series.size / sample_rate
    if duration < 100.0 * effective_time(filt):
        raise ValueError("series must cover at least 100 filter time constants")
    t = np.arange(series.size) / sample_rate
    phase = 2.0 * math.pi * f_lo * t
    freqs = np.fft.rfftfreq(series.size, 1.0 / sample_rate)
    response = np.sqrt(filt.power_response(freqs))
    split = series / math.sqrt(2.0)
    in_phase = np.fft.irfft(np.fft.rfft(split * np.cos(phase)) * response, n=series.size)
    quadrature = np.fft.irfft(np.fft.rfft(split * np.sin(phase)) * response, n=series.size)
    return float(np.mean(in_phase**2 + quadrature**2))


def photons_from_voltage(v_dc: float, volts_per_watt: float, wavelength: float, t: float) -> float:
    """Photon number from a DC photodetector voltage.

    <n> = (lambda / h c) (t / m) V_dc with m the detector responsivity in
    volts per watt and t the effective measurement time.
    """
    if volts_per_watt <= 0.0:
        raise ValueError("detector responsivity must be positive")
    if v_dc < 0.0 or wavelength <= 0.0 or t < 0.0:
        raise ValueError("voltage, wavelength, and time must be non-negative")
    flux = (v_dc / volts_per_watt) * wavelength / (PLANCK_H * SPEED_OF_LIGHT)
    return flux * t
