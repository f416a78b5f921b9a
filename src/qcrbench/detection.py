"""Measurement side: optimized intensity-difference estimation, the RBW
filter's effective time, and the SNR-ramp Monte Carlo.

The transmission estimator subtracts an electronically attenuated copy of
the conjugate photocurrent from the probe photocurrent, n_p - g n_c, with g
chosen to cancel as much common intensity noise as possible.  Its variance
(in transmission units) is compared against the Gaussian bounds elsewhere;
for this source family the optimized estimator saturates them.  At that
optimal gain the variance in shot-noise units is set by the detected
covariance alone, so it reads no displacement and no seed photon number.

The spectrum analyzer's resolution bandwidth (RBW) filter fixes the
effective measurement time t = |H(0)|^2 / (2 int |H(f)|^2 df) of one ramp
bin.  RBW is defined as the FWHM of |H(f)|^2 for every filter kind here;
this convention reproduces the 4-pole analyzer fixture t ~= 0.44/RBW.  The
analyzer's two-channel signal chain and the photon accounting of the lab
detectors are test oracles (``tests/oracles.py``); no command drives them.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DOMAIN, NonPhysicalError

_POSITIVE_T, _N_R = DOMAIN["positive T"], DOMAIN["n_r"]


@dataclass(frozen=True)
class FilterModel:
    """Resolution-bandwidth filter: Gaussian or n-pole synchronously tuned."""

    kind: str
    rbw: float
    poles: int = 4

    def __post_init__(self):
        if self.kind not in ("gaussian", "sync_tuned"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        for name in ("rbw", "poles"):
            DOMAIN[name].check(getattr(self, name))

    @property
    def corner(self) -> float:
        """Corner frequency of each sync-tuned pole, placing the FWHM at RBW."""
        return 0.5 * self.rbw / math.sqrt(2.0 ** (1.0 / self.poles) - 1.0)


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

    def __post_init__(self):
        for name in ("trials", "rng_seed", "ramp_duration"):
            DOMAIN[name].check(getattr(self, name))


@dataclass(frozen=True)
class RampResult:
    """Outcome of one simulated modulation ramp.

    ``passes`` counts the window passes of the line fit, and ``converged``
    is False only where the pass cap, not the stopping rule of
    `_iterated_line_fit`, ended them.
    """

    delta_T_at_snr1: float
    snr_trace: np.ndarray
    amplitudes: np.ndarray = field(repr=False)
    passes: int
    converged: bool


def transmission_variance(chain, T: float, n_r: float = 1.0) -> float:
    """Variance of the transmission estimate from the optimized measurement.

    Var(T_est) = Var(n_p - g n_c) / (d<n_p - g n_c>/dT)^2 at the optimal gain
    g = Cov(n_p, n_c) / Var(n_c).  The mean conjugate count is T-independent
    and <n_p> is exactly linear in T, so the derivative equals <n_p>/T at the
    detector.

    `chain` is a `bounds.ProbeChain`, whose ``sector_at(T)`` gives the
    detected x sector (d_p, d_c, sigma_pp, sigma_pc, sigma_cc), and whose
    construction guarantees that probe light reaches the detector (T_p > 0
    and eta_p > 0).  The bright-limit counts are sector products,
    n_p = d_p^2 / 4, Var(n_i) = d_i sigma_ii d_i / 4, Cov = d_p sigma_pc d_c / 4,
    so per incident photon, in shot-noise units and with no photon number,
    var_n = (T / eta_p) Var(n_p - g n_c) / <n_p>
          = root^2 sigma_pp + q (q sigma_cc - 2 root sigma_pc),
    root = sqrt(T / eta_p) and q = root g d_c / d_p.  At the optimal gain the
    displacements cancel, q = root sigma_pc / sigma_cc (0 for a dark
    conjugate, whose sigma_pc is 0), so the result reads no displacement and
    does not depend on the seed's photon number.  Like every bound, it is
    var_n = Var(T) n_r, the same for every valid n_r.
    """
    _POSITIVE_T.check(T)
    _N_R.check(n_r)
    s_pp, s_pc, s_cc = chain.sector_at(T)[2:]
    ratio = T / chain.budget.eta_p
    root = math.sqrt(ratio)
    q = root * s_pc / s_cc
    var_n = ratio * s_pp + q * (q * s_cc - 2.0 * root * s_pc)
    if not (var_n > 0.0 and math.isfinite(var_n)):
        # an ill-conditioned chain covariance (very large s) can cancel below zero
        raise NonPhysicalError(
            f"transmission variance {var_n:.6g} at T = {T} is not positive and finite"
        )
    return var_n


def linear_ramp(initial_amplitude: float, duration: float):
    """Modulation profile ramping linearly from `initial_amplitude` to zero.

    The amplitude falls with t and is zero from t = duration on, so on
    increasing bin times its power is positive on one leading run of bins
    and non-increasing there: the form `snr_ramp_simulate` requires.  The
    profile leaves its input as it is; a scalar t gives a numpy scalar.
    """
    DOMAIN["initial_amplitude"].check(initial_amplitude)
    DOMAIN["ramp_duration"].check(duration)

    def profile(t):
        amplitude = np.array(t, dtype=float)
        amplitude /= duration
        np.subtract(1.0, amplitude, out=amplitude)
        np.maximum(amplitude, 0.0, out=amplitude)
        amplitude *= initial_amplitude
        return amplitude if amplitude.ndim else amplitude[()]

    return profile


_SNR_FIT_WINDOW = (0.2, 5.0)
_MIN_WINDOW_BINS = 8
#: the window passes stop once the SNR = 1 crossing moves by less than this
#: fraction of its least-squares standard error.  On the 120 ramps of
#: `param_sweep` seeds 1, 5 and 9, ops 0-3 (10^4 bins) they then end after
#: 2.8-3.2 passes on average per seed and at most 6, none at the cap, with
#: the crossing within 0.41 standard errors of the 10-pass one (0.05 in the
#: median); the standard error is about 4.7% of the crossing there
_CROSSING_TOLERANCE = 0.25
#: the hard bound on window passes, converged or not
_MAX_WINDOW_PASSES = 10


def _centred_line_fit(x: np.ndarray, y: np.ndarray):
    """(slope, intercept, crossing standard error) of the least-squares line.

    x is a window of a ramp's usable run, positive and monotone
    (`_iterated_line_fit` checks it), so its max is one of its two end
    points.  x is first scaled by a power of two, which is exact, so a ramp
    at tiny powers (~1e-169, whose squares underflow) is still fitted; then
    t = x - mean(x), slope = sum(t y) / sum(t^2) and
    intercept = mean(y) - slope mean(x) (Press et al., Numerical Recipes,
    section 15.2).  The line is `np.polyfit(x, y, 1)`'s up to rounding.
    Where sum(t^2) is within rounding of 0, x is constant over the window
    and the data fix no slope: that raises `NonPhysicalError`.

    The third value is the least-squares standard error of the SNR = 1
    crossing c = (1 - intercept) / slope (same section),
    se = (sigma / |slope|) sqrt(1/n + (c - mean(x))^2 / sum(t^2)) with
    sigma^2 = RSS / (n - 2) and RSS = sum((y - mean(y))^2) - slope^2 sum(t^2)
    clamped at 0.  It is formed from the same sums in the scaled
    coordinates, with one more dot product, y @ y, and scaled back; a line
    of slope 0, which crosses nowhere, and an se past the float range give
    inf.
    """
    _, exponent = math.frexp(max(x.item(0), x.item(-1)))
    t = np.ldexp(x, -exponent)
    # a sum over the size: the bits of .mean() without its Python set-up
    x_mean = np.add.reduce(t) / t.size
    scaled_square = float(t @ t)
    t -= x_mean
    t_square = float(t @ t)
    rank_cut = 4.0 * x.size * np.finfo(float).eps
    if not t_square > rank_cut * rank_cut * scaled_square:
        raise NonPhysicalError("SNR ramp modulation power is constant over the fit window")
    slope = float(t @ y) / t_square
    y_sum = np.add.reduce(y)
    y_mean = y_sum / y.size
    intercept = float(y_mean - slope * x_mean)
    try:
        unscaled_slope = math.ldexp(slope, -exponent)
    except OverflowError:
        raise NonPhysicalError("line slope overflows float64 at these modulation powers") from None
    if slope == 0.0:
        return unscaled_slope, intercept, math.inf
    rss = max(float(y @ y) - float(y_mean) * float(y_sum) - slope * slope * t_square, 0.0)
    lever = (1.0 - intercept) / slope - float(x_mean)
    se = math.sqrt(rss / (y.size - 2) * (1.0 / y.size + lever * lever / t_square)) / abs(slope)
    try:
        return unscaled_slope, intercept, math.ldexp(se, exponent)
    except OverflowError:
        return unscaled_slope, intercept, math.inf


def _fit_window(run: np.ndarray, slope: float, intercept: float):
    """(a, b) such that run[a:b] holds the bins whose fitted SNR lies in [0.2, 5].

    `run` is monotone, and so is the fitted SNR intercept + slope * run:
    rounding is monotone.  The window is therefore one index range, and
    bisection finds its ends.  Each fitted value is the Python float
    expression of the numpy elementwise one, the same IEEE operations (no
    fused multiply-add), so the range holds exactly the bins the elementwise
    comparison would keep.  A falling line is bisected as its exact negation
    on [-5, -0.2].  A slope or intercept that is not finite puts every
    fitted value outside the window (run > 0).
    """
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        return 0, 0
    lo, hi = _SNR_FIT_WINDOW
    item = run.item
    if intercept + slope * item(0) > intercept + slope * item(-1):
        slope, intercept, lo, hi = -slope, -intercept, -hi, -lo

    def fitted(i):
        return intercept + slope * item(i)

    bins = range(run.size)
    start = bisect.bisect_left(bins, lo, key=fitted)
    return start, bisect.bisect_right(bins, hi, lo=start, key=fitted)


def _iterated_line_fit(mod_power: np.ndarray, snr: np.ndarray):
    """Least-squares line through (modulation power, SNR), iterating the window.

    The per-bin SNR responds linearly to the modulation *power* (the
    modulation amplitude enters the demodulated bin quadratically), so the
    line is fitted against power; fitting against amplitude would bake a
    few-percent bias into the SNR = 1 crossing.  The window keeps bins whose
    *fitted* SNR lies in [0.2, 5], mirroring the usable region of a ramp
    trace between the noise floor and the pre-ramp settling segment.

    Domain: the usable bins (mod_power > 0 and finite SNR) must form one
    contiguous run on which mod_power is monotone, as a ramp's do; anything
    else raises `NonPhysicalError`.  Every window is then an index range of
    that run (`_fit_window`).

    The windows are chosen by `_centred_line_fit` passes: the first pass
    fits every usable bin, and each next window keeps the bins whose SNR on
    the previous line lies in [0.2, 5].  The passes stop when a window
    repeats the previous one, or, from the second pass on, when the SNR = 1
    crossing c = (1 - intercept) / slope moved from the previous pass's by
    less than `_CROSSING_TOLERANCE` (1/4) of this pass's least-squares
    standard error; those end them converged.  Otherwise the pass cap
    (`_MAX_WINDOW_PASSES`, 10) ends them.

    Returns (slope, intercept, passes, converged): the line of the last
    pass, on the last window fitted, the number of passes, and False only
    where the pass cap ended them.
    """
    usable = mod_power > 0.0
    usable &= np.isfinite(snr)
    count = np.count_nonzero(usable)
    if count < _MIN_WINDOW_BINS:
        raise NonPhysicalError("SNR=1 not bracketed: too few usable ramp bins")
    first = int(usable.argmax())
    if not usable[first : first + count].all():
        raise NonPhysicalError(
            "SNR ramp bins with positive modulation power and finite SNR are not contiguous"
        )
    run = mod_power[first : first + count]
    # a monotone run rises or falls as its end points do (a constant one does both)
    rising = run.item(0) <= run.item(-1)
    if not np.all(run[1:] >= run[:-1] if rising else run[1:] <= run[:-1]):
        raise NonPhysicalError("SNR ramp modulation power is not monotone over its usable bins")
    snr_run = snr[first : first + count]
    window = (0, count)
    previous = math.nan
    for passes in range(1, _MAX_WINDOW_PASSES + 1):
        start, stop = window
        if stop - start < _MIN_WINDOW_BINS:
            raise NonPhysicalError("SNR=1 not bracketed: too few usable ramp bins")
        slope, intercept, crossing_se = _centred_line_fit(run[start:stop], snr_run[start:stop])
        crossing = (1.0 - intercept) / slope if slope else math.inf
        # the move is NaN on the first pass and inf next to a line of slope 0: no stop
        if abs(crossing - previous) < _CROSSING_TOLERANCE * crossing_se:
            return slope, intercept, passes, True
        window = _fit_window(run, slope, intercept)
        if window == (start, stop):
            return slope, intercept, passes, True
        previous = crossing
    return slope, intercept, passes, False


def snr_ramp_simulate(
    plan: MeasurementPlan, true_delta_T_profile, noise_variance: float
) -> RampResult:
    """Monte Carlo emulation of the ramped-modulation SNR = 1 procedure.

    Each spectrum-analyzer bin of duration effective_time(filter) yields the
    demodulated power of the modulation tone plus Gaussian estimator noise
    of variance `noise_variance` (from `transmission_variance`, which never
    returns 0; positive and finite, else `ValueError`: a noiseless ramp has
    no SNR = 1 crossing); modulation amplitudes are in RMS transmission
    units.  Per bin, SNR = (P - mean noise power) / mean noise power, where
    the mean noise power is that of a noise-only reference trace of as many
    bins, drawn as the one Gamma variate it is distributed as.  The line
    of `_iterated_line_fit` through SNR versus modulation power is solved
    for SNR = 1 and the crossing is returned as an amplitude; it estimates
    the transmission standard deviation.  The result also reports how many
    window passes the fit took and whether its stopping rule, rather than
    the pass cap, ended them.

    The profile maps the bin times to one amplitude per bin.  Its power
    must be monotone over one contiguous run of bins with positive power
    (and finite SNR), as a `linear_ramp`'s is; otherwise the fit raises
    `NonPhysicalError`.

    Noise draws come from streams keyed on (rng_seed, trace index), so
    results are bit-identical regardless of how trials are scheduled.  The
    arithmetic runs in place in arrays of this call, with the bits of the
    plain expressions noted beside each step.
    """
    DOMAIN["noise_variance"].check(noise_variance)
    n_bins = plan.trials
    # times = (np.arange(n_bins) + 0.5) * effective_time(plan.filter); arange fills
    # 0.5 + i, exactly
    times = np.arange(0.5, n_bins)
    times *= effective_time(plan.filter)
    amplitudes = np.asarray(true_delta_T_profile(times), dtype=float)
    del times
    if amplitudes.shape != (n_bins,):
        raise ValueError(f"the modulation profile must give one amplitude per bin ({n_bins})")
    scale = math.sqrt(noise_variance / 2.0)
    noise_rng = np.random.default_rng(np.random.SeedSequence([plan.rng_seed, 0]))
    signal_rng = np.random.default_rng(np.random.SeedSequence([plan.rng_seed, 1]))
    try:
        with np.errstate(over="raise"):
            # a reference bin's power is the sum of two squared N(0, noise_variance / 2)
            # draws, noise_variance Gamma(1, 1), so its mean over the bins is the one
            # variate noise_variance Gamma(n_bins, 1) / n_bins
            noise_power = noise_variance * (noise_rng.standard_gamma(n_bins) / n_bins)
            # normal(0.0, scale, (2, n_bins)) is 0.0 + scale * z on the same standard
            # normals z: the same bits, scaled in place, but for the sign of a zero
            # draw, which the sum and the squares below drop
            draws = signal_rng.standard_normal((2, n_bins))
            draws *= scale
            in_phase, quadrature = draws
            # power = (amplitudes + in_phase) ** 2 + quadrature**2
            np.add(amplitudes, in_phase, out=in_phase)
            np.square(in_phase, out=in_phase)
            np.square(quadrature, out=quadrature)
            power = np.add(in_phase, quadrature, out=in_phase)
            # snr = (power - noise_power) / noise_power, in an array of its own
            snr = np.subtract(power, noise_power)
            snr /= noise_power
            mod_power = np.square(amplitudes, out=quadrature)
    except FloatingPointError:
        raise NonPhysicalError(
            f"SNR ramp powers at noise variance {noise_variance:.6g} leave the float64 range"
        ) from None
    slope, intercept, passes, converged = _iterated_line_fit(mod_power, snr)
    if slope <= 0.0:
        raise NonPhysicalError("SNR=1 not bracketed: non-increasing SNR ramp")
    crossing_power = (1.0 - intercept) / slope
    if not (0.0 < crossing_power <= float(np.max(amplitudes)) ** 2):
        raise NonPhysicalError("SNR=1 not bracketed by the modulation ramp")
    return RampResult(
        delta_T_at_snr1=float(math.sqrt(crossing_power)),
        snr_trace=snr,
        amplitudes=amplitudes,
        passes=passes,
        converged=converged,
    )
