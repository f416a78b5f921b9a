"""Tests for the distributed-loss squeezer model and its closed forms."""

import math

import numpy as np
import pytest

from qcrbench.errors import ConvergenceError
from qcrbench.gaussian import ChannelOp, apply_loss, two_mode_squeezer
from qcrbench.source import (
    NoiseTriple,
    SourceParams,
    _propagator_column,
    _sinhc,
    _slice_dynamics,
    analytic_noises,
    continuum_gain,
    continuum_noises,
    converged_source,
    gain,
    layered_source,
    noise_triple,
    squeezing_db,
)

REFERENCE = SourceParams(s=2.04, T_a=0.71)

# frozen from the N = 10^4 slice stack; the converged values agree to ~1e-9
GOLDEN_TRIPLE = (0.0787828177356782, 25.130075539539856, 26.997153066760422)

# (s, T_a) -> (diff, probe, conj) of the continuum model, evaluated offline at
# 80 significant digits (mpmath) and rounded to 17
HIGH_PRECISION_TRIPLES = {
    (2.04, 0.71): (0.078782815873859759, 25.130075539392751, 26.997153035084034),
    (3.0, 0.96): (0.0061170341483954375, 197.66494242804867, 198.97378593726886),
    (5.0, 0.9): (0.57774880189185757, 10449.281353573238, 10559.853796990247),
    (8.0, 0.9): (91.692437074306526, 4215372.2381519265, 4243222.0425161283),
}

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


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
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def gauss_legendre_noises(s, T_a) -> NoiseTriple:
    """Continuum noises with the vacuum integral G by 64-node Gauss-Legendre.

    An independent route to the closed-form G of `continuum_noises`: the
    integrands are smooth exponentials, so the quadrature is exact to
    rounding.
    """
    s, g, q = _slice_dynamics(s, T_a)
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


def relative_error(value, reference):
    return np.abs(np.asarray(value) - reference) / np.abs(reference)


class TestSourceParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": -0.1, "T_a": 0.9},
            {"s": 1.0, "T_a": 0.0},
            {"s": 1.0, "T_a": 1.2},
            {"s": float("inf"), "T_a": 0.9},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SourceParams(**kwargs)

    def test_default_seed(self):
        assert SourceParams(s=1.0, T_a=0.9).effective_seed_photons() == 1e6


class TestLayeredSource:
    @pytest.mark.parametrize("layers", [1, 3, 32])
    @pytest.mark.parametrize("splitting", ["plain", "strang"])
    def test_lossless_stack_is_one_squeezer(self, layers, splitting):
        out = layered_source(SourceParams(s=0.9, T_a=1.0), layers, splitting=splitting)
        assert np.allclose(out.transfer.S, two_mode_squeezer(0.9).S, atol=1e-10)

    def test_pure_loss_gain(self):
        out = layered_source(SourceParams(s=0.0, T_a=0.37), 13)
        assert out.gain == pytest.approx(0.37, rel=1e-12)

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            layered_source(REFERENCE, 0)

    def test_conjugate_sees_no_loss(self):
        # with the squeezer off, the stack is pure probe loss: the conjugate
        # quadratures pass through exactly untouched
        out = layered_source(SourceParams(s=0.0, T_a=0.5), 64)
        assert np.allclose(out.transfer.S[2:, 2:], np.eye(2), atol=1e-14)
        assert np.allclose(out.state.sigma[2:, 2:], np.eye(2), atol=1e-14)
        assert np.allclose(out.transfer.S[:2, :2], math.sqrt(0.5) * np.eye(2), atol=1e-12)

    def test_plain_and_strang_agree_in_the_limit(self):
        fine = layered_source(REFERENCE, 2**17, splitting="plain")
        reference = converged_source(REFERENCE)
        scale = np.max(np.abs(reference.state.sigma))
        assert np.max(np.abs(fine.state.sigma - reference.state.sigma)) < 1e-5 * scale

    def test_golden_fixture(self):
        out = layered_source(REFERENCE, 10_000)
        triple = noise_triple(out.state)
        assert triple.diff == pytest.approx(GOLDEN_TRIPLE[0], rel=1e-9)
        assert triple.probe == pytest.approx(GOLDEN_TRIPLE[1], rel=1e-9)
        assert triple.conj == pytest.approx(GOLDEN_TRIPLE[2], rel=1e-9)


class TestConvergedSource:
    def test_lossless_converges_immediately(self):
        assert converged_source(SourceParams(s=0.9, T_a=1.0)).layers_used == 1

    def test_reference_ladder(self):
        out = converged_source(REFERENCE, rel_tol=1e-9)
        assert out.layers_used == 16384
        assert out.gain == pytest.approx(11.9017458, rel=1e-7)

    def test_plain_splitting_cannot_reach_tight_tolerance(self):
        # the first-order stack converges only as 1/N, which cannot drop the
        # doubling increment below 1e-9 within the layer budget; this is why
        # the symmetrized splitting is the default
        with pytest.raises(ConvergenceError):
            converged_source(REFERENCE, rel_tol=1e-9, splitting="plain")

    def test_matches_continuum_limit(self):
        out = converged_source(REFERENCE, rel_tol=1e-9)
        triple = noise_triple(out.state)
        exact = continuum_noises(2.04, 0.71)
        assert triple.diff == pytest.approx(float(exact.diff), rel=1e-7)
        assert triple.probe == pytest.approx(float(exact.probe), rel=1e-8)
        assert triple.conj == pytest.approx(float(exact.conj), rel=1e-8)
        assert out.gain == pytest.approx(float(continuum_gain(2.04, 0.71)), rel=1e-8)

    def test_strong_squeezing_ladder_matches_continuum_limit(self):
        # the first rung holds a squeezer with entries ~cosh(8)^2 ~ 2e6 in
        # S Omega S^T, which the relative symplectic tolerance accepts
        out = converged_source(SourceParams(s=8.0, T_a=0.9), rel_tol=1e-10)
        exact = continuum_noises(8.0, 0.9)
        assert noise_triple(out.state).diff == pytest.approx(float(exact.diff), rel=1e-7)
        assert out.gain == pytest.approx(float(continuum_gain(8.0, 0.9)), rel=1e-8)

    def test_conj_noise_matches_analytic(self):
        out = converged_source(SourceParams(s=0.5, T_a=0.9), rel_tol=1e-9)
        triple = noise_triple(out.state)
        assert triple.conj == pytest.approx(analytic_noises(0.5, 0.9).conj, rel=1e-6)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            converged_source(REFERENCE, rel_tol=0.0)

    @pytest.mark.parametrize("s,ta", [(0.0, 0.4), (0.8, 0.9), (2.04, 0.71), (2.8, 0.55)])
    def test_output_state_is_physical(self, s, ta):
        # uncertainty principle: symplectic spectrum of sigma stays >= 1
        from qcrbench.gaussian import symplectic_eigenvalues

        out = converged_source(SourceParams(s=s, T_a=ta))
        assert np.all(symplectic_eigenvalues(out.state) >= 1.0 - 1e-9)
        lossy = apply_loss(out.state, ChannelOp([0.7, 0.9]))
        assert np.all(symplectic_eigenvalues(lossy) >= 1.0 - 1e-9)


class TestContinuumNoises:
    def test_shot_noise_at_zero_squeezing(self):
        triple = continuum_noises(0.0, 0.73)
        assert float(triple.diff) == pytest.approx(1.0, abs=1e-12)
        assert float(triple.probe) == pytest.approx(1.0, abs=1e-12)
        assert float(triple.conj) == pytest.approx(1.0, abs=1e-12)

    def test_lossless_reductions(self):
        triple = continuum_noises(1.0, 1.0)
        assert float(triple.diff) == pytest.approx(1.0 / math.cosh(2.0), rel=1e-12)
        assert float(triple.probe) == pytest.approx(math.cosh(2.0), rel=1e-12)
        assert float(triple.conj) == pytest.approx(math.cosh(2.0), rel=1e-12)

    def test_lossless_limit_of_difference_noise(self):
        for s in (0.4, 1.1, 2.0):
            out = converged_source(SourceParams(s=s, T_a=1.0 - 1e-9))
            assert noise_triple(out.state).diff == pytest.approx(
                1.0 / math.cosh(2.0 * s), rel=1e-6
            )

    def test_difference_noise_versus_internal_loss(self):
        # the dependence on T_a at fixed s is NOT monotonic: mild distributed
        # loss first lowers the normalized difference noise a little (loss
        # noise injected mid-stack is re-correlated by the remaining gain)
        # before strong absorption degrades it; both regimes are pinned here,
        # confirmed independently by the slice stack and the continuum limit
        tas = np.linspace(1.0, 0.2, 81)
        diffs = np.asarray(continuum_noises(1.3, tas).diff)
        lossless = diffs[0]
        assert diffs.min() == pytest.approx(0.1279, abs=2e-4)
        assert diffs.min() < lossless
        strong = np.asarray(continuum_noises(1.3, np.array([0.45, 0.35, 0.25])).diff)
        assert np.all(strong > lossless)
        assert np.all(np.diff(strong) > 0.0)

    def test_difference_below_single_beam_noises(self):
        s_grid, ta_grid = np.meshgrid(np.linspace(0.1, 2.5, 9), np.linspace(0.6, 1.0, 9))
        triple = continuum_noises(s_grid, ta_grid)
        assert np.all(triple.diff <= np.maximum(triple.probe, triple.conj))
        assert np.all(triple.diff > 0.0)

    def test_array_and_scalar_agree(self):
        triple = continuum_noises(np.array([0.5, 2.04]), np.array([0.9, 0.71]))
        single = continuum_noises(2.04, 0.71)
        assert float(triple.probe[1]) == pytest.approx(float(single.probe), rel=1e-14)

    def test_shapes_and_inputs_kept(self):
        s = np.array([[0.0], [1.0], [2.5]])
        ta = np.array([0.6, 1.0])
        s_before, ta_before = s.copy(), ta.copy()
        triple = continuum_noises(s, ta)
        for value in (triple.diff, triple.probe, triple.conj):
            assert value.shape == (3, 2)
        assert np.array_equal(s, s_before) and np.array_equal(ta, ta_before)
        single = continuum_noises(2.04, 0.71)
        for value in (single.diff, single.probe, single.conj):
            assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)

    def test_matches_gauss_legendre_oracle(self):
        rng = np.random.default_rng(20260808)
        edges_s, edges_ta = np.meshgrid([0.0, 1e-12, 1e-8, 1e-3], [1e-6, 0.5, 1.0 - 1e-12, 1.0])
        s = np.concatenate([rng.uniform(0.0, 3.0, 400), edges_s.ravel()])
        ta = np.concatenate([rng.uniform(0.5, 1.0, 400), edges_ta.ravel()])
        closed = continuum_noises(s, ta)
        oracle = gauss_legendre_noises(s, ta)
        assert np.max(relative_error(closed.probe, oracle.probe)) < 1e-13
        assert np.max(relative_error(closed.conj, oracle.conj)) < 1e-13
        assert np.max(relative_error(closed.diff, oracle.diff)) < 1e-10

    @pytest.mark.parametrize("point", sorted(HIGH_PRECISION_TRIPLES))
    def test_matches_high_precision_reference(self, point):
        diff, probe, conj = HIGH_PRECISION_TRIPLES[point]
        triple = continuum_noises(*point)
        assert relative_error(triple.diff, diff) < 1e-10
        assert relative_error(triple.probe, probe) < 1e-13
        assert relative_error(triple.conj, conj) < 1e-13

    @pytest.mark.parametrize("kernel", [continuum_noises, continuum_gain])
    @pytest.mark.parametrize(
        "s, ta, message",
        [
            (float("nan"), 0.9, "finite and >= 0"),
            (math.inf, 0.9, "finite and >= 0"),
            (-1.0, 0.9, "finite and >= 0"),
            (1.0, float("nan"), r"\(0, 1\]"),
            (1.0, 0.0, r"\(0, 1\]"),
            (1.0, 1.5, r"\(0, 1\]"),
        ],
    )
    def test_out_of_domain_scalar_rejected(self, kernel, s, ta, message):
        with pytest.raises(ValueError, match=message):
            kernel(s, ta)

    @pytest.mark.parametrize("kernel", [continuum_noises, continuum_gain])
    def test_out_of_domain_array_element_rejected(self, kernel):
        good_s, good_ta = np.array([0.5, 2.04, 3.0]), np.array([0.9, 0.71, 1.0])
        kernel(good_s, good_ta)
        for bad in (float("nan"), math.inf):
            s = good_s.copy()
            s[1] = bad
            with pytest.raises(ValueError, match="finite and >= 0"):
                kernel(s, good_ta)
        ta = good_ta.copy()
        ta[1] = float("nan")
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            kernel(good_s, ta)


class TestAnalyticNoises:
    def test_zero_squeezing_limit(self):
        triple = analytic_noises(0.0, 0.8)
        assert (triple.diff, triple.probe, triple.conj) == (1.0, 1.0, 1.0)

    def test_lossless_probe_and_conj(self):
        triple = analytic_noises(1.0, 1.0)
        assert triple.probe == pytest.approx(math.cosh(2.0), rel=1e-12)
        assert triple.conj == pytest.approx(math.cosh(2.0), rel=1e-12)

    def test_conj_matches_oracle_over_box(self):
        worst = 0.0
        for s in np.linspace(0.1, 2.5, 13):
            for ta in np.linspace(0.6, 1.0, 9):
                oracle = float(continuum_noises(s, ta).conj)
                printed = analytic_noises(s, ta).conj
                worst = max(worst, abs(printed - oracle) / oracle)
        assert worst < 1e-4

    def test_corrected_probe_matches_oracle(self):
        for s, ta in ((0.3, 0.95), (1.2, 0.8), (2.4, 0.62)):
            oracle = float(continuum_noises(s, ta).probe)
            assert analytic_noises(s, ta).probe == pytest.approx(oracle, rel=1e-10)

    def test_uncorrected_probe_is_nonphysical(self):
        # the formula as printed produces a negative noise at s = 1, T_a = 1
        assert analytic_noises(1.0, 1.0, corrected_probe=False).probe < 0.0

    def test_printed_difference_formula_diverges_from_oracle(self):
        # documented discrepancy: as printed, the intensity-difference noise
        # tends to 3/4 instead of sech(2s) at T_a = 1
        printed = analytic_noises(2.04, 1.0).diff
        oracle = float(continuum_noises(2.04, 1.0).diff)
        assert printed == pytest.approx(1.0 - math.sinh(2.04) ** 2 / (2 * math.cosh(4.08)), rel=1e-12)
        assert printed / oracle > 5.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            analytic_noises(1.0, 0.0)
        with pytest.raises(ValueError):
            analytic_noises(-1.0, 0.9)
        with pytest.raises(ValueError):
            analytic_noises(1.0, float("nan"))
        with pytest.raises(ValueError):
            analytic_noises(np.array([1.0, 2.0]), np.array([0.9, 1.5]))
        # sinh(xi/4)^4 overflows from s ~ 178, cosh(xi/2) from s ~ 355
        for s in (200.0, 400.0, float("nan")):
            with pytest.raises(ValueError, match="overflow"):
                analytic_noises(np.array([1.0, s]), 0.9)

    @pytest.mark.parametrize("corrected_probe", [True, False])
    def test_vectorized_matches_scalar_loop(self, corrected_probe):
        rng = np.random.default_rng(np.random.SeedSequence([2026, 5]))
        s = np.concatenate([rng.uniform(1e-3, 3.5, 2000), [0.1, 1.0, 2.04, 3.5]])
        ta = np.concatenate([rng.uniform(1e-3, 1.0, 2000), [1.0, 1.0, 0.71, 1e-3]])
        got = analytic_noises(s, ta, corrected_probe=corrected_probe)
        want = printed_noises_loop(s, ta, corrected_probe=corrected_probe)
        assert np.max(np.abs(got.diff - want.diff) / np.abs(want.diff)) <= 1e-14
        assert np.max(np.abs(got.conj - want.conj) / np.abs(want.conj)) <= 1e-14
        if corrected_probe:
            assert np.max(np.abs(got.probe - want.probe) / want.probe) <= 1e-14
        else:
            # the cos(xi/2) form passes through 0, so compare on its O(1) terms
            assert np.max(np.abs(got.probe - want.probe)) <= 1e-14

    def test_array_shape_and_scalar_type(self):
        grid = analytic_noises(np.linspace(0.0, 3.0, 6).reshape(2, 3), 0.71)
        assert grid.diff.shape == grid.probe.shape == grid.conj.shape == (2, 3)
        assert (grid.diff[0, 0], grid.probe[0, 0], grid.conj[0, 0]) == (1.0, 1.0, 1.0)
        triple = analytic_noises(2.04, 0.71)
        assert all(type(x) is float for x in (triple.diff, triple.probe, triple.conj))
        batch = analytic_noises(np.array([2.04, 1.0]), np.array([0.71, 0.9]))
        assert (batch.diff[0], batch.probe[0], batch.conj[0]) == (
            triple.diff,
            triple.probe,
            triple.conj,
        )

    @pytest.mark.parametrize("s", [1e-300, 1e-12, 1e-9, 1e-3])
    @pytest.mark.parametrize("ta", [0.5, 0.71, 1.0])
    def test_small_squeezing_tends_to_coherent_triple(self, s, ta):
        # ln T_a / xi rounds to -1 here, where atanh(ln T_a / xi) used to fail
        triple = analytic_noises(s, ta)
        for value in (triple.diff, triple.probe, triple.conj):
            assert math.isfinite(value)
            assert abs(value - 1.0) <= 10.0 * s * s + 1e-15


class TestGainAndDecibels:
    def test_unity_gain_without_pumping(self):
        assert gain(SourceParams(s=0.0, T_a=1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_lossless_gain_is_cosh_squared(self):
        assert gain(SourceParams(s=2.04, T_a=1.0)) == pytest.approx(
            math.cosh(2.04) ** 2, rel=1e-10
        )

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            gain(SourceParams(s=1.0, T_a=0.9, seed_photons=0.0))

    def test_decibel_conversion(self):
        assert squeezing_db(0.1585) == pytest.approx(8.0, abs=2e-3)
        with pytest.raises(ValueError):
            squeezing_db(0.0)

    def test_detected_squeezing_near_8db(self):
        detected = apply_loss(converged_source(REFERENCE).state, ChannelOp([0.919, 0.919]))
        db = squeezing_db(noise_triple(detected).diff)
        assert 6.5 <= db <= 9.5
