"""Distributed-loss model of a seeded four-wave-mixing two-mode squeezer.

The gain medium is treated as a stack of thin slices, each applying a small
two-mode squeezing step to (probe, conjugate) interleaved with a small
probe-only loss; the conjugate is assumed absorption-free.  The generated
state is the infinite-slice limit of this stack, computed by one closed-form
kernel: the depth-1 propagator M (`_propagator`) and the vacuum G injected
by the distributed loss (`_vacuum_injection`) give the amplitude-sector
covariance M M^T + G.  Every run-time route goes through it:

* `continuum_state`  - the two-mode Gaussian state (probe chains, bounds);
* `continuum_noises` - the three normalized noises (fits, noise maps);
* `continuum_gain`   - the probe photon gain.

The finite stack stays as an independent audit of that limit:
`layered_source` runs N slices and `converged_source` doubles N until the
output moments stop changing.  Nothing at run time calls them.

The model is parameterized by the total squeezing parameter ``s`` (sum of the
slice squeezing steps) and the total internal probe transmission ``T_a``
(product of the slice transmissions).  Normalized noises are shot-noise
units: Var(n)/<n> = 1 for a coherent beam.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .gaussian import (
    GaussianState,
    bright_mean_photon,
    number_covariance_bright,
    number_variance_bright,
    two_mode_squeezer,
)

DEFAULT_SEED_PHOTONS = 1e6
MAX_LAYERS = 2**20


@dataclass(frozen=True)
class SourceParams:
    """Effective squeezing, internal probe transmission, and seed strength."""

    s: float
    T_a: float
    seed_photons: float | None = None

    def __post_init__(self):
        _source_domain(self.s, self.T_a)
        photons = self.seed_photons
        if photons is not None and not (photons >= 0.0 and np.isfinite(photons)):
            raise ValueError("seed_photons must be finite and >= 0")

    def effective_seed_photons(self) -> float:
        """Probe seed photons per effective measurement window."""
        if self.seed_photons is not None:
            return float(self.seed_photons)
        return DEFAULT_SEED_PHOTONS


@dataclass(frozen=True)
class SourceOutput:
    """Generated two-mode state, the slice count that produced it, and the gain."""

    state: GaussianState
    layers_used: int
    gain: float


@dataclass(frozen=True)
class NoiseTriple:
    """Shot-noise-normalized intensity-difference, probe, and conjugate noises."""

    diff: float
    probe: float
    conj: float


def _probe_loss_diag(eta: float) -> np.ndarray:
    root = math.sqrt(eta)
    return np.diag([root, root, 1.0, 1.0])


def _layer_affine(params: SourceParams, layers: int, splitting: str):
    """One slice of the stack as an affine covariance map (L, C).

    The map acts as sigma -> L sigma L^T + C and d -> L d.  "plain" applies
    the squeezing step then the full slice loss; "strang" symmetrizes the
    loss around the squeezer, which converges as 1/N^2 instead of 1/N and is
    therefore the default for the doubling ladder.
    """
    step = two_mode_squeezer(params.s / layers).S
    eye = np.eye(4)
    if splitting == "plain":
        x = _probe_loss_diag(params.T_a ** (1.0 / layers))
        lin = x @ step
        add = eye - x @ x
    elif splitting == "strang":
        xh = _probe_loss_diag(params.T_a ** (1.0 / (2.0 * layers)))
        vac = eye - xh @ xh
        lin = xh @ step @ xh
        add = xh @ step @ vac @ step.T @ xh + vac
    else:
        raise ValueError(f"unknown splitting {splitting!r}")
    return lin, add


def _affine_power(lin: np.ndarray, add: np.ndarray, count: int):
    """Compose `count` copies of the affine map by binary exponentiation."""
    acc_l, acc_c = np.eye(4), np.zeros((4, 4))
    base_l, base_c = lin, add
    n = count
    while n:
        if n & 1:
            # apply the accumulated map first, then the current base block
            acc_l, acc_c = base_l @ acc_l, base_l @ acc_c @ base_l.T + base_c
        n >>= 1
        if n:
            base_l, base_c = base_l @ base_l, base_l @ base_c @ base_l.T + base_c
    return acc_l, acc_c


def _seed_state(params: SourceParams) -> tuple[np.ndarray, float]:
    photons = params.effective_seed_photons()
    alpha = math.sqrt(photons)
    d0 = np.array([2.0 * alpha, 0.0, 0.0, 0.0])
    return d0, photons


def layered_source(params: SourceParams, layers: int, splitting: str = "strang") -> SourceOutput:
    """Run a coherent probe seed and vacuum conjugate through N slices."""
    if layers < 1:
        raise ValueError("need at least one layer")
    lin, add = _layer_affine(params, layers, splitting)
    total_l, total_c = _affine_power(lin, add, layers)
    d0, photons = _seed_state(params)
    state = GaussianState(total_l @ d0, total_l @ total_l.T + total_c)
    out_photons = bright_mean_photon(state, 0)
    gain = out_photons / photons if photons > 0.0 else float("nan")
    return SourceOutput(state=state, layers_used=layers, gain=gain)


def converged_source(
    params: SourceParams,
    rel_tol: float = 1e-9,
    max_layers: int = MAX_LAYERS,
    splitting: str = "strang",
) -> SourceOutput:
    """Double the slice count until all output moments change by < rel_tol.

    Changes are measured against the magnitude scale of each moment array
    (never below 1).  Returns the first output whose doubling is quiescent,
    so ``layers_used`` reports the coarsest converged stack.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    previous = layered_source(params, 1, splitting)
    layers = 2
    while layers <= max_layers:
        current = layered_source(params, layers, splitting)
        d_scale = max(1.0, float(np.max(np.abs(current.state.d))))
        s_scale = max(1.0, float(np.max(np.abs(current.state.sigma))))
        d_close = float(np.max(np.abs(current.state.d - previous.state.d))) < rel_tol * d_scale
        s_close = (
            float(np.max(np.abs(current.state.sigma - previous.state.sigma)))
            < rel_tol * s_scale
        )
        if d_close and s_close:
            return previous
        previous = current
        layers *= 2
    raise ConvergenceError(
        f"layer doubling did not converge to rel_tol={rel_tol} within {max_layers} layers"
    )


def noise_triple(state: GaussianState, probe: int = 0, conj: int = 1) -> NoiseTriple:
    """Normalized noises of a bright two-mode state (bright-limit statistics)."""
    var_p = number_variance_bright(state, probe)
    var_c = number_variance_bright(state, conj)
    cov = number_covariance_bright(state, probe, conj)
    n_p = bright_mean_photon(state, probe)
    n_c = bright_mean_photon(state, conj)
    return NoiseTriple(
        diff=(var_p + var_c - 2.0 * cov) / (n_p + n_c),
        probe=var_p / n_p,
        conj=var_c / n_c,
    )


def _source_domain(s, T_a):
    """(s, T_a) as broadcast float arrays, rejecting values outside the model.

    s must be finite and >= 0 and T_a must lie in (0, 1]; NaN is rejected.
    """
    s = np.asarray(s, dtype=float)
    ta = np.asarray(T_a, dtype=float)
    s, ta = np.broadcast_arrays(s, ta)
    # written so that NaN fails each test; the array method skips the
    # dispatch wrapper of np.all, a few us a call
    if not ((s >= 0.0) & (s < np.inf)).all():
        raise ValueError("squeezing parameter s must be finite and >= 0")
    if not ((ta > 0.0) & (ta <= 1.0)).all():
        raise ValueError("internal transmission T_a must lie in (0, 1]")
    return s, ta


def _slice_rates(s, T_a):
    """Rates (g, q) of the continuum slice dynamics at an (s, T_a) in the domain.

    The mean-field pair (x_probe, x_conj) evolves along the stack with the
    constant generator [[-g/2, s], [s, 0]], split as (-g/4) I + B with
    g = -ln(T_a); B has eigenvalue rate q = sqrt(16 s^2 + g^2) / 4, which
    sets every hyperbolic scale of the converged source.  Scalars or arrays;
    the caller has checked them with `_source_domain`.
    """
    g = -np.log(T_a)
    q = 0.25 * np.sqrt(16.0 * s * s + g * g)
    return g, q


def _slice_dynamics(s, T_a):
    """(s, g, q) as float arrays, after checking (s, T_a) with `_source_domain`."""
    s, ta = _source_domain(s, T_a)
    return (s, *_slice_rates(s, ta))


def _exprel(x: np.ndarray) -> np.ndarray:
    """(e^x - 1)/x with its limit 1 at x = 0, written over the array x."""
    zero = x == 0.0
    np.divide(np.expm1(x), x, out=x, where=~zero)
    x[zero] = 1.0
    return x


def _vacuum_injection(s, g, q):
    """Vacuum G = g * int_0^1 c(z) c(z)^T dz injected by the distributed loss.

    With k = g/4 the probe column of the depth-z propagator is
    c(z) = e^{-kz} (a e^{qz} + b e^{-qz}, h (e^{qz} - e^{-qz})), where
    a = (q - k)/2q = s^2/(2q(q + k)), b = (q + k)/2q and h = s/2q, so ab = h^2.
    Every entry of G is then a combination of E(x) = int_0^1 e^{xz} dz =
    exprel(x) at x = 2(q - k) = 2s^2/(q + k), x = -2k and x = -2(q + k).
    Only s = g = 0 has q = 0, and G vanishes with g, so there any finite q
    stands in.  Each step writes into an array it owns, because on large
    batches every extra temporary adds 8 bytes per point to peak memory.
    """
    q = np.where(q > 0.0, q, 1.0)
    qk = 0.25 * g
    qk += q
    h = 0.5 * s
    h /= q
    b = 0.5 * qk
    b /= q
    del q
    a = h * s
    a /= qk
    e_up = s * s
    e_up *= 2.0
    e_up /= qk
    e_up = _exprel(e_up)
    qk *= -2.0
    e_down = _exprel(qk)
    e_mid = _exprel(-0.5 * g)
    # G00 = g (a^2 E+ + 2 h^2 E0 + b^2 E-)
    g00 = a * a
    g00 *= e_up
    term = h * h
    term *= e_mid
    term *= 2.0
    g00 += term
    np.multiply(b, b, out=term)
    term *= e_down
    g00 += term
    g00 *= g
    del term
    # G11 = g h^2 (E+ - 2 E0 + E-)
    g11 = e_up + e_down
    g11 -= e_mid
    g11 -= e_mid
    g11 *= h
    g11 *= h
    g11 *= g
    # G01 = g h (a (E+ - E0) + b (E0 - E-)), over the spent E+ and E-
    g01 = e_up
    g01 -= e_mid
    g01 *= a
    np.subtract(e_mid, e_down, out=e_down)
    e_down *= b
    g01 += e_down
    g01 *= h
    g01 *= g
    return g00, g01, g11


def _propagator(s, g, q):
    """Depth-1 x-sector propagator M = [[m11, m21], [m21, m22]] as (m11, m21, m22).

    M = e^{-k} (cosh q I + sinh(q)/q [[-k, s], [s, k]]) with k = g/4.  Its
    cosh - sinh form cancels where q ~ k (small s or tiny T_a), so it is
    written in sums of positive terms: with a, b = 1 - a and h as in
    `_vacuum_injection`, m11 = a e^{q-k} + b e^{-(q+k)} and m22 = b e^{q-k} +
    a e^{-(q+k)}, where q - k = s^2/(q + k) and q + k = g/2 + (q - k).  The
    off-diagonal m21 = h (e^{q-k} - e^{-(q+k)}) keeps about eps/q of relative
    error, which matters only where s and g are both tiny and m21 ~ s is
    negligible against m11 ~ m22 ~ 1.  Only s = g = 0 has q = 0; there any
    q > 0 stands in, which gives a = h = 0 and M = I exactly.  Takes 1-d
    arrays and writes each step into an array it owns.
    """
    q = np.where(q > 0.0, q, 1.0)
    qk = 0.25 * g
    qk += q
    h = 0.5 * s
    h /= q
    a = h * s
    a /= qk
    e_up = s * s
    e_up /= qk
    # q + k = g/2 + (q - k), over the spent q + k; it is 0 at s = g = 0
    e_down = np.multiply(g, -0.5, out=qk)
    e_down -= e_up
    np.exp(e_down, out=e_down)
    np.exp(e_up, out=e_up)
    m21 = e_up - e_down
    m21 *= h
    b = np.subtract(1.0, a, out=q)
    m11 = np.multiply(a, e_up, out=h)
    m22 = np.multiply(b, e_up, out=e_up)
    a *= e_down
    m22 += a
    b *= e_down
    m11 += b
    return m11, m21, m22


def _amplitude_sector(s, g, q):
    """(m11, m21) of M and (s00, s01, s11) of sigma = M M^T + G, over 1-d arrays."""
    m11, m21, m22 = _propagator(s, g, q)
    s00, s01, s11 = _vacuum_injection(s, g, q)
    # M is symmetric (m12 = m21)
    s00 += m11 * m11 + m21 * m21
    s01 += m21 * (m11 + m22)
    s11 += m21 * m21 + m22 * m22
    return m11, m21, s00, s01, s11


def continuum_state(params: SourceParams) -> GaussianState:
    """Exact infinite-slice state of a coherent probe seed and a vacuum conjugate.

    In the (x_probe, p_probe, x_conj, p_conj) ordering the x sector holds
    d = 2 sqrt(seed photons) (m11, m21) and sigma = M M^T + G.  The squeezer
    acts on p with the sign of s flipped, so the p sector repeats the x
    diagonal with the opposite cross-correlation, and x and p are
    uncorrelated.
    """
    s, g, q = np.atleast_1d(*_slice_dynamics(params.s, params.T_a))
    m11, m21, s00, s01, s11 = (float(x[0]) for x in _amplitude_sector(s, g, q))
    amplitude = 2.0 * math.sqrt(params.effective_seed_photons())
    return GaussianState(*_mirrored_moments(amplitude * m11, amplitude * m21, s00, s01, s11))


def _mirrored_moments(d_p, d_c, s00, s01, s11) -> tuple[np.ndarray, np.ndarray]:
    """(d, sigma) of x sector (d_p, d_c), [[s00, s01], [s01, s11]] in the layout above."""
    d = np.array([d_p, 0.0, d_c, 0.0])
    sigma = np.array(
        [
            [s00, 0.0, s01, 0.0],
            [0.0, s00, 0.0, -s01],
            [s01, 0.0, s11, 0.0],
            [0.0, -s01, 0.0, s11],
        ]
    )
    return d, sigma


def continuum_noises(s, T_a) -> NoiseTriple:
    """Exact infinite-slice normalized noises; accepts scalar or array input.

    The x-sector covariance is sigma = M M^T + G with M the depth-1
    propagator and G the vacuum injected by the distributed probe loss, both
    in closed form.  Array input keeps its shape; scalar input gives scalars.
    """
    s, g, q = _slice_dynamics(s, T_a)
    shape = s.shape
    m11, m21, s00, s01, s11 = _amplitude_sector(*np.atleast_1d(s, g, q))
    w_p = m11 * m11
    w_c = m21 * m21
    diff = (w_p * s00 + w_c * s11 - 2.0 * m11 * m21 * s01) / (w_p + w_c)
    return NoiseTriple(
        diff=diff.reshape(shape)[()], probe=s00.reshape(shape)[()], conj=s11.reshape(shape)[()]
    )


def continuum_gain(s, T_a):
    """Exact infinite-slice probe photon gain <n_out>/<n_seed>."""
    s, g, q = _slice_dynamics(s, T_a)
    shape = s.shape
    m11, _, _ = _propagator(*np.atleast_1d(s, g, q))
    m11 *= m11
    return m11.reshape(shape)[()]


def analytic_noises(s, T_a, corrected_probe: bool = True) -> NoiseTriple:
    """Printed closed forms for the three normalized source noises.

    The probe formula is published with cos(xi/2), which goes negative and
    cannot be a noise; ``corrected_probe`` substitutes cosh(xi/2), which
    reproduces the lossless limit.  The intensity-difference form is
    evaluated as printed: it disagrees with the slice model away from
    trivial limits (it tends to 3/4 instead of 0 at high squeezing), so the
    slice model is the authority and this one is kept for audits.

    The forms are written in the ratios u = 4s/xi and v = ln(T_a)/xi, with
    xi = sqrt(16 s^2 + ln^2 T_a), and zeta = atanh(v) as ln(u / (1 - v)),
    which stays finite as s -> 0 where 1 + v cancels.  Accepts scalar or
    array input; scalar input gives floats.
    """
    s = np.asarray(s, dtype=float)
    ta = np.asarray(T_a, dtype=float)
    s, ta = np.broadcast_arrays(s, ta)
    if not np.all((ta > 0.0) & (ta <= 1.0)):
        raise ValueError("internal transmission T_a must lie in (0, 1]")
    if np.any(s < 0.0):
        raise ValueError("squeezing parameter s must be >= 0")
    pumped = s != 0.0
    # s = 0 is the coherent triple; any s > 0 keeps the formulas finite there
    s = np.where(pumped, s, 1.0)
    # cosh(xi/2 + zeta) overflows at tiny s, where the terms it divides vanish;
    # any other overflow leaves a non-finite noise, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        log_ta = np.log(ta)
        root_ta = np.sqrt(ta)
        xi = np.hypot(4.0 * s, log_ta)
        u = 4.0 * s / xi
        v = log_ta / xi
        zeta = np.log(u / (1.0 - v))
        sh4 = np.sinh(0.25 * xi)
        ch_shift = np.cosh(0.5 * xi + zeta)
        diff = 1.0 - 0.5 * u * sh4 * sh4 / ch_shift - root_ta * u * v * v * sh4**4 / (8.0 * ch_shift)
        half = np.cosh(0.5 * xi) if corrected_probe else np.cos(0.5 * xi)
        probe = u * u * (1.0 - root_ta * (1.0 - half)) + v * v
        conj = (
            u * u * root_ta
            - 1.0
            - 2.0 * root_ta * ((0.5 * u * u - 1.0) * np.cosh(0.5 * xi) + v * np.sinh(0.5 * xi))
        )
    diff, probe, conj = (np.where(pumped, x, 1.0) for x in (diff, probe, conj))
    if not (np.isfinite(diff).all() and np.isfinite(probe).all() and np.isfinite(conj).all()):
        raise ValueError("printed formulas overflow double precision (s above ~178) or s is NaN")
    if diff.ndim == 0:
        return NoiseTriple(diff=float(diff), probe=float(probe), conj=float(conj))
    return NoiseTriple(diff=diff, probe=probe, conj=conj)


def squeezing_db(noise: float) -> float:
    """Normalized noise expressed in dB below shot noise."""
    if not noise > 0.0:
        raise ValueError("normalized noise must be positive")
    return -10.0 * math.log10(noise)
