"""Distributed-loss model of a seeded four-wave-mixing two-mode squeezer.

The gain medium is treated as a stack of thin slices, each applying a small
two-mode squeezing step to (probe, conjugate) interleaved with a small
probe-only loss; the conjugate is assumed absorption-free.  The generated
state is the infinite-slice limit of this stack, computed by one closed-form
kernel: the depth-1 propagator M (`_propagator`) and the vacuum G injected
by the distributed loss (`_vacuum_injection`), from one `_coefficients`
pass, give the amplitude-sector covariance M M^T + G.  Every run-time route
goes through it:

* `continuum_sector` - the x sector of the probe chains (bounds, detection);
* `continuum_noises` - the three normalized noises (fits, noise maps);
* `continuum_gain`   - the probe photon gain.

All three enter the kernel through `_in_blocks`, which checks the domain.
Every kernel step is elementwise, so `_in_blocks` runs batches larger than
`_BLOCK` points one cache-sized block at a time, with the bits of a single
whole-batch pass.  Each pass of a block is one plain (unmasked) SIMD loop:
each kernel writes its last steps straight into the caller's slice of the
outputs, so no block is copied, and `_exprel` fixes its x = 0 entries up
around a plain divide instead of running a masked one.

The finite stack stays as an independent audit of that limit:
`layered_source` runs N slices and `converged_source` doubles N until the
output moments stop changing.  Nothing at run time calls them.
`_mirrored_moments` expands a sector to the two-mode moments the stack is
compared with (``continuum_state`` in ``tests/oracles.py``).

The model is parameterized by the total squeezing parameter ``s`` (sum of the
slice squeezing steps) and the total internal probe transmission ``T_a``
(product of the slice transmissions).  Normalized noises are shot-noise
units: Var(n)/<n> = 1 for a coherent beam.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DOMAIN, ConvergenceError
from .gaussian import (
    GaussianState,
    bright_mean_photon,
    number_covariance_bright,
    number_variance_bright,
    two_mode_squeezer,
)

DEFAULT_SEED_PHOTONS = 1e6
MAX_LAYERS = 2**20
# the ladder's rounding regime in N eps for N slices: on 600 noise-map and config
# box points, changes that did not shrink sat at <= 2.3 N eps (N >= 8192) or >= 6e11 N eps
_ROUNDING_CHANGE = 16.0
# points per pass of the closed-form kernel: its ~15 live arrays of 64 KB
# each stay in a 2 MB L2, where whole 256 x 256 maps would not
_BLOCK = 8192


@dataclass(frozen=True)
class SourceParams:
    """Effective squeezing, internal probe transmission, and seed strength."""

    s: float
    T_a: float
    seed_photons: float = DEFAULT_SEED_PHOTONS

    def __post_init__(self):
        for name in ("s", "T_a", "seed_photons"):
            DOMAIN[name].check(getattr(self, name))


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
    photons = float(params.seed_photons)
    alpha = math.sqrt(photons)
    d0 = np.array([2.0 * alpha, 0.0, 0.0, 0.0])
    return d0, photons


def layered_source(params: SourceParams, layers: int, splitting: str = "strang") -> SourceOutput:
    """Run a coherent probe seed and vacuum conjugate through N slices."""
    DOMAIN["layers"].check(layers)
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
    splitting: str = "strang",
) -> SourceOutput:
    """Double the slice count until all output moments change by < rel_tol.

    Changes are measured against the magnitude scale of each moment array
    (never below 1).  Returns the first output whose doubling is quiescent,
    so ``layers_used`` reports the coarsest converged stack.  N slices round
    to about N eps, so below `_ROUNDING_CHANGE` N eps a doubling that does
    not shrink the change ends the ladder with the output before it; a
    truncation change shrinks at every doubling (4x strang, 2x plain).
    """
    DOMAIN["rel_tol"].check(rel_tol)
    previous = layered_source(params, 1, splitting)
    last_change = math.inf
    layers = 2
    while layers <= MAX_LAYERS:
        current = layered_source(params, layers, splitting)
        d_scale = max(1.0, float(np.max(np.abs(current.state.d))))
        s_scale = max(1.0, float(np.max(np.abs(current.state.sigma))))
        change = max(
            float(np.max(np.abs(current.state.d - previous.state.d))) / d_scale,
            float(np.max(np.abs(current.state.sigma - previous.state.sigma))) / s_scale,
        )
        floor = _ROUNDING_CHANGE * layers * np.finfo(float).eps
        if change < rel_tol or last_change <= change < floor:
            return previous
        previous, last_change = current, change
        layers *= 2
    raise ConvergenceError(
        f"layer doubling did not converge to rel_tol={rel_tol} within {MAX_LAYERS} layers"
    )


def noise_triple(state: GaussianState) -> NoiseTriple:
    """Normalized noises of a bright two-mode state, probe mode 0 and conjugate mode 1."""
    var_p = number_variance_bright(state, 0)
    var_c = number_variance_bright(state, 1)
    cov = number_covariance_bright(state, 0, 1)
    n_p = bright_mean_photon(state, 0)
    n_c = bright_mean_photon(state, 1)
    return NoiseTriple(
        diff=(var_p + var_c - 2.0 * cov) / (n_p + n_c),
        probe=var_p / n_p,
        conj=var_c / n_c,
    )


def _source_domain(s, T_a):
    """(s, T_a) as broadcast float arrays, each entry checked against its `DOMAIN` row."""
    s = np.asarray(s, dtype=float)
    ta = np.asarray(T_a, dtype=float)
    if s.shape != ta.shape:
        s, ta = np.broadcast_arrays(s, ta)
    return DOMAIN["s"].check_array(s), DOMAIN["T_a"].check_array(ta)


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


def _exprel(x: np.ndarray) -> np.ndarray:
    """(e^x - 1)/x with its limit 1 at x = 0, written over the array x.

    The x = 0 entries are set to 1 before a plain divide, so it raises no
    0/0, and set to the limit 1 after it: a divide masked to skip them runs
    about twice as long.
    """
    zero = x == 0.0
    numerator = np.expm1(x)
    x[zero] = 1.0
    np.divide(numerator, x, out=x)
    x[zero] = 1.0
    return x


def _coefficients(s, g, q):
    """(q, q + k, h, a) with k = g/4, shared by `_vacuum_injection` and `_propagator`.

    The probe column of the depth-z propagator is c(z) = e^{-kz} (a e^{qz} +
    b e^{-qz}, h (e^{qz} - e^{-qz})), with a = (q - k)/2q = s^2/(2q(q + k)),
    b = 1 - a = (q + k)/2q and h = s/2q, so ab = h^2.  Only s = g = 0 has
    q = 0; any q > 0 stands in there, giving a = h = 0, G = 0 and M = I.
    That 1 is written into q, the array `_slice_rates` made for the block.
    """
    q[q == 0.0] = 1.0
    qk = 0.25 * g + q
    h = 0.5 * s / q
    return q, qk, h, h * s / qk


def _vacuum_injection(s, g, q, qk, h, a):
    """Vacuum G = g * int_0^1 c(z) c(z)^T dz injected by the distributed loss.

    With c(z) as in `_coefficients`, every entry of G is a combination of
    E(x) = int_0^1 e^{xz} dz = exprel(x) at x = 2(q - k) = 2s^2/(q + k),
    x = -2k and x = -2(q + k).  The coefficients are left intact.  Each step
    writes into an array it owns, because every extra temporary adds 8 bytes
    per point of the block to peak memory and to the cache working set.
    """
    b = 0.5 * qk
    b /= q
    e_up = s * s
    e_up *= 2.0
    e_up /= qk
    e_up = _exprel(e_up)
    e_down = _exprel(-2.0 * qk)
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


def _exponentials(s, g, qk):
    """(e^{q-k}, e^{-(q+k)}) with q - k = s^2/(q + k), over the spent q + k."""
    e_up = s * s
    e_up /= qk
    # q + k = g/2 + (q - k); it is 0 at s = g = 0
    e_down = np.multiply(g, -0.5, out=qk)
    e_down -= e_up
    np.exp(e_down, out=e_down)
    np.exp(e_up, out=e_up)
    return e_up, e_down


def _propagator(s, g, q, qk, h, a):
    """Depth-1 x-sector propagator M = [[m11, m21], [m21, m22]] as (m11, m21, m22).

    M = e^{-k} (cosh q I + sinh(q)/q [[-k, s], [s, k]]) with k = g/4.  Its
    cosh - sinh form cancels where q ~ k (small s or tiny T_a), so it is
    written in sums of positive terms: with the coefficients of
    `_coefficients`, m11 = a e^{q-k} + b e^{-(q+k)} and m22 = b e^{q-k} +
    a e^{-(q+k)}, where q - k = s^2/(q + k) and q + k = g/2 + (q - k).  The
    off-diagonal m21 = h (e^{q-k} - e^{-(q+k)}) keeps about eps/q of relative
    error, which matters only where s and g are both tiny and m21 ~ s is
    negligible against m11 ~ m22 ~ 1.  Writes each step into the coefficient
    arrays, which it spends, or into an array it owns, so a block holds no
    more arrays than it needs.
    """
    e_up, e_down = _exponentials(s, g, qk)
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


def _amplitude_sector(s, g, q, s00, s11):
    """M and sigma = M M^T + G over 1-d arrays, with s00 and s11 written into the given arrays.

    Returns (m11, m21, m11^2, m21^2, m11^2 + m21^2, s01), the squares for
    the noise kernel to reuse.  Called on one block of points at a time (see
    `_in_blocks`), so its peak is about 15 block-sized arrays however large
    the batch.
    """
    coefficients = _coefficients(s, g, q)
    g00, s01, g11 = _vacuum_injection(s, g, *coefficients)
    m11, m21, m22 = _propagator(s, g, *coefficients)
    # drop the spent scratch before the products below, which hold peak memory
    del coefficients
    # M is symmetric (m12 = m21): s00 = G00 + (m11^2 + m21^2)
    w_p = m11 * m11
    w_c = m21 * m21
    power = w_p + w_c
    np.add(g00, power, out=s00)
    # s11 = G11 + (m21^2 + m22^2), over the spent G00
    square = np.multiply(m22, m22, out=g00)
    np.add(w_c, square, out=square)
    np.add(g11, square, out=s11)
    # s01 = G01 + m21 (m11 + m22)
    np.add(m11, m22, out=m22)
    np.multiply(m21, m22, out=m22)
    s01 += m22
    return m11, m21, w_p, w_c, power, s01


def _sector_kernel(s, g, q, out):
    """(m11, m21, s00, s01, s11) of the amplitude sector into the arrays of `out`."""
    m11_out, m21_out, s00, s01_out, s11 = out
    m11, m21, _, _, _, s01 = _amplitude_sector(s, g, q, s00, s11)
    np.copyto(m11_out, m11)
    np.copyto(m21_out, m21)
    np.copyto(s01_out, s01)


def continuum_sector(params: SourceParams) -> tuple:
    """Exact infinite-slice x sector of a coherent probe seed and a vacuum conjugate.

    Floats (d_p, d_c, sigma_pp, sigma_pc, sigma_cc): d = 2 sqrt(seed photons)
    (m11, m21) and sigma = M M^T + G of (x_probe, x_conj).
    """
    m11, m21, s00, s01, s11 = map(float, _in_blocks(_sector_kernel, 5, params.s, params.T_a))
    amplitude = 2.0 * math.sqrt(params.seed_photons)
    return amplitude * m11, amplitude * m21, s00, s01, s11


def _mirrored_moments(d_p, d_c, s00, s01, s11) -> tuple[np.ndarray, np.ndarray]:
    """(d, sigma) of x sector (d_p, d_c), [[s00, s01], [s01, s11]] over (x_p, p_p, x_c, p_c)."""
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


def _in_blocks(kernel, outputs: int, s, T_a) -> tuple:
    """`kernel` over the checked, flattened points of (s, T_a), one block at a time.

    `kernel(s, g, q, out)` takes 1-d arrays of one block and writes its
    `outputs` results into `out`, the block's slices of output arrays
    allocated once, by elementwise steps only, so splitting the points
    changes no bit.  Its last step writes each slice directly, so no block
    is copied, and its temporaries stay block-sized and in cache.  It may
    spend q, which `_slice_rates` makes for that block alone.  Outputs take
    the broadcast shape of the input; scalar input gives scalars.
    """
    s, ta = _source_domain(s, T_a)
    shape = s.shape
    s, ta = s.ravel(), ta.ravel()
    results = tuple(np.empty(s.size) for _ in range(outputs))
    for start in range(0, s.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        kernel(s[block], *_slice_rates(s[block], ta[block]), [out[block] for out in results])
    return tuple(x.reshape(shape)[()] for x in results)


def _noise_kernel(s, g, q, out):
    """(diff, probe, conj) noises into the arrays of `out`, from the amplitude sector.

    probe = s00 and conj = s11; diff = (m11^2 s00 + m21^2 s11 - 2 m11 m21 s01)
    / (m11^2 + m21^2), over the squares the sector formed.
    """
    diff, probe, conj = out
    m11, m21, w_p, w_c, power, s01 = _amplitude_sector(s, g, q, probe, conj)
    w_p *= probe
    w_c *= conj
    w_p += w_c
    np.multiply(2.0, m11, out=m11)
    m11 *= m21
    m11 *= s01
    w_p -= m11
    np.divide(w_p, power, out=diff)


def _gain_kernel(s, g, q, out):
    """The probe photon gain m11^2 into the array of `out`.

    Forms only m11 = a e^{q-k} + (1 - a) e^{-(q+k)} of M, by the steps
    `_propagator` takes for it, not m21 and m22.
    """
    (gain,) = out
    q, qk, h, a = _coefficients(s, g, q)
    e_up, e_down = _exponentials(s, g, qk)
    b = np.subtract(1.0, a, out=q)
    m11 = np.multiply(a, e_up, out=h)
    b *= e_down
    m11 += b
    np.multiply(m11, m11, out=gain)


def continuum_noises(s, T_a) -> NoiseTriple:
    """Exact infinite-slice normalized noises; accepts scalar or array input.

    The x-sector covariance is sigma = M M^T + G with M the depth-1
    propagator and G the vacuum injected by the distributed probe loss, both
    in closed form.  Array input keeps its shape; scalar input gives scalars.
    """
    diff, probe, conj = _in_blocks(_noise_kernel, 3, s, T_a)
    return NoiseTriple(diff=diff, probe=probe, conj=conj)


def continuum_gain(s, T_a):
    """Exact infinite-slice probe photon gain <n_out>/<n_seed>."""
    (gain,) = _in_blocks(_gain_kernel, 1, s, T_a)
    return gain


def analytic_noises(s, T_a) -> NoiseTriple:
    """Printed closed forms for the three normalized source noises.

    The probe formula is published with cos(xi/2), which goes negative and
    cannot be a noise; it is evaluated with cosh(xi/2), which reproduces the
    lossless limit.  The intensity-difference form is evaluated as printed:
    it disagrees with the slice model away from trivial limits (it tends to
    3/4 instead of 0 at high squeezing), so the slice model is the authority
    and this one is kept for audits.

    The forms are written in the ratios u = 4s/xi and v = ln(T_a)/xi, with
    xi = sqrt(16 s^2 + ln^2 T_a), and zeta = atanh(v) as ln(u / (1 - v)),
    which stays finite as s -> 0 where 1 + v cancels.  Accepts scalar or
    array input in the domain of `_source_domain`; scalar input gives floats.

    The forms are finite in float64 up to xi ~ 712.5, where sinh(xi/4)^4 of
    the difference form overflows: s up to 178.1 at T_a = 1, 43.7 at 1e-300,
    9.7 at 1e-309 and no s > 0 below 3.5e-310.  `ValueError` names the first
    (s, T_a) past that.
    """
    s, ta = _source_domain(s, T_a)
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
        probe = u * u * (1.0 - root_ta * (1.0 - np.cosh(0.5 * xi))) + v * v
        conj = (
            u * u * root_ta
            - 1.0
            - 2.0 * root_ta * ((0.5 * u * u - 1.0) * np.cosh(0.5 * xi) + v * np.sinh(0.5 * xi))
        )
    diff, probe, conj = (np.where(pumped, x, 1.0) for x in (diff, probe, conj))
    finite = np.isfinite(diff) & np.isfinite(probe) & np.isfinite(conj)
    if not finite.all():
        at = np.argmin(finite)  # flat index of the first overflow
        raise ValueError(
            "printed formulas overflow double precision at "
            f"s = {float(s.flat[at])!r}, T_a = {float(ta.flat[at])!r}"
        )
    if diff.ndim == 0:
        return NoiseTriple(diff=float(diff), probe=float(probe), conj=float(conj))
    return NoiseTriple(diff=diff, probe=probe, conj=conj)


def squeezing_db(noise: float) -> float:
    """Normalized noise expressed in dB below shot noise."""
    return -10.0 * math.log10(DOMAIN["noise"].check(noise))
