"""Tests for the Gaussian-state core: moments, maps, loss, bright statistics."""

import math

import numpy as np
import pytest

from oracles import (
    apply_symplectic,
    coherent_state,
    mean_photon,
    symplectic_eigenvalues,
    vacuum_state,
)
from qcrbench.errors import BrightLimitError
from qcrbench.gaussian import (
    ChannelOp,
    GaussianState,
    SymplecticOp,
    apply_loss,
    bright_mean_photon,
    number_covariance_bright,
    number_variance_bright,
    symplectic_form,
    two_mode_squeezer,
)


class TestVacuum:
    def test_moments(self):
        state = vacuum_state(2)
        assert np.array_equal(state.d, np.zeros(4))
        assert np.array_equal(state.sigma, np.eye(4))

    def test_mean_photon_zero(self):
        assert mean_photon(vacuum_state(1), 0) == 0.0

    def test_symplectic_eigenvalues_are_one(self):
        assert np.allclose(symplectic_eigenvalues(vacuum_state(2)), [1.0, 1.0], atol=1e-12)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state(0)


class TestCoherent:
    def test_real_amplitude(self):
        state = coherent_state([2.0])
        assert np.allclose(state.d, [4.0, 0.0])
        assert mean_photon(state, 0) == pytest.approx(4.0)

    def test_zero_amplitude_is_vacuum(self):
        state = coherent_state([0.0, 0.0])
        vac = vacuum_state(2)
        assert np.array_equal(state.d, vac.d)
        assert np.array_equal(state.sigma, vac.sigma)

    def test_imaginary_amplitude(self):
        state = coherent_state([3j])
        assert np.allclose(state.d, [0.0, 6.0])
        assert mean_photon(state, 0) == pytest.approx(9.0)


class TestTwoModeSqueezer:
    def test_zero_squeezing_is_identity(self):
        assert np.array_equal(two_mode_squeezer(0.0).S, np.eye(4))

    def test_difference_quadrature_squeezed(self):
        state = apply_symplectic(vacuum_state(2), two_mode_squeezer(1.0))
        # Var((x1 - x2)/sqrt(2)) = e^{-2r}
        vec = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert vec @ state.sigma @ vec == pytest.approx(math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("r", [-2.0, -0.3, 0.0, 0.7, 1.9, 3.5])
    def test_symplectic_condition(self, r):
        S = two_mode_squeezer(r).S
        omega = symplectic_form(2)
        assert np.allclose(S @ omega @ S.T, omega, atol=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            two_mode_squeezer(float("nan"))


class TestApplySymplectic:
    def test_identity_leaves_state(self):
        state = coherent_state([1.0 + 0.5j, -2.0])
        out = apply_symplectic(state, SymplecticOp(np.eye(4)))
        assert np.array_equal(out.d, state.d)
        assert np.array_equal(out.sigma, state.sigma)

    def test_squeezer_inverse(self):
        state = coherent_state([1.3, 0.2j])
        roundtrip = apply_symplectic(
            apply_symplectic(state, two_mode_squeezer(0.8)), two_mode_squeezer(-0.8)
        )
        assert np.allclose(roundtrip.d, state.d, atol=1e-10)
        assert np.allclose(roundtrip.sigma, state.sigma, atol=1e-10)

    def test_squeezers_add(self):
        a, b = 0.55, 1.1
        combined = SymplecticOp(two_mode_squeezer(b).S @ two_mode_squeezer(a).S)
        assert np.allclose(combined.S, two_mode_squeezer(a + b).S, atol=1e-12)
        one = apply_symplectic(vacuum_state(2), combined)
        two = apply_symplectic(vacuum_state(2), two_mode_squeezer(a + b))
        assert np.allclose(one.sigma, two.sigma, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_symplectic(vacuum_state(1), two_mode_squeezer(0.5))


class TestApplyLoss:
    def test_unit_transmission_is_identity(self):
        state = apply_symplectic(coherent_state([2.0, 0.0]), two_mode_squeezer(0.6))
        out = apply_loss(state, ChannelOp([1.0, 1.0]))
        assert np.allclose(out.d, state.d, atol=1e-14)
        assert np.allclose(out.sigma, state.sigma, atol=1e-14)

    def test_full_loss_gives_vacuum(self):
        out = apply_loss(coherent_state([3.0 - 1.0j]), ChannelOp([0.0]))
        assert np.allclose(out.d, 0.0)
        assert np.allclose(out.sigma, np.eye(2))

    def test_half_loss_on_coherent(self):
        state = coherent_state([2.0])
        out = apply_loss(state, ChannelOp([0.5]))
        assert mean_photon(out, 0) == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(out.sigma, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_bad_transmission_rejected(self, eta):
        with pytest.raises(ValueError):
            ChannelOp([eta])

    def test_purity_never_increases(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            state = apply_symplectic(
                coherent_state(rng.normal(size=2) + 1j * rng.normal(size=2)),
                two_mode_squeezer(rng.uniform(-1.5, 1.5)),
            )
            eta = rng.uniform(0.0, 1.0, size=2)
            lossy = apply_loss(state, ChannelOp(eta))
            assert np.linalg.det(lossy.sigma) >= np.linalg.det(state.sigma) - 1e-9


class TestMeanPhoton:
    def test_squeezed_vacuum_occupation(self):
        state = apply_symplectic(vacuum_state(2), two_mode_squeezer(1.0))
        assert mean_photon(state, 0) == pytest.approx(math.sinh(1.0) ** 2, rel=1e-12)
        assert mean_photon(state, 1) == pytest.approx(math.sinh(1.0) ** 2, rel=1e-12)


class TestBrightStatistics:
    def test_coherent_shot_noise(self):
        state = coherent_state([2.0])
        assert number_variance_bright(state, 0) == pytest.approx(4.0, rel=1e-14)
        assert number_variance_bright(state, 0) == pytest.approx(mean_photon(state, 0))

    def test_coherent_pair_uncorrelated(self):
        state = coherent_state([2.0, 1.0 + 1.0j])
        assert number_covariance_bright(state, 0, 1) == 0.0

    def test_bright_equals_mean_for_coherent(self):
        state = coherent_state([1.7 - 0.4j])
        assert bright_mean_photon(state, 0) == pytest.approx(mean_photon(state, 0), rel=1e-12)

    def test_lossless_btmss_difference_noise(self):
        state = apply_symplectic(coherent_state([1e3, 0.0]), two_mode_squeezer(1.0))
        var_diff = (
            number_variance_bright(state, 0)
            + number_variance_bright(state, 1)
            - 2.0 * number_covariance_bright(state, 0, 1)
        )
        total = bright_mean_photon(state, 0) + bright_mean_photon(state, 1)
        assert var_diff / total == pytest.approx(1.0 / math.cosh(2.0), rel=1e-9)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 2.8])
    def test_difference_noise_is_sech_2r(self, r):
        state = apply_symplectic(coherent_state([2e3, 0.0]), two_mode_squeezer(r))
        var_diff = (
            number_variance_bright(state, 0)
            + number_variance_bright(state, 1)
            - 2.0 * number_covariance_bright(state, 0, 1)
        )
        total = bright_mean_photon(state, 0) + bright_mean_photon(state, 1)
        assert var_diff / total == pytest.approx(1.0 / math.cosh(2.0 * r), rel=1e-9)

    def test_dark_mode_rejected(self):
        with pytest.raises(BrightLimitError):
            number_variance_bright(vacuum_state(1), 0)
        with pytest.raises(BrightLimitError):
            number_covariance_bright(coherent_state([1.0, 0.0]), 0, 1)


class TestSymplecticClosure:
    def test_random_compositions_stay_symplectic(self):
        rng = np.random.default_rng(7)
        omega = symplectic_form(2)
        for _ in range(100):
            second = two_mode_squeezer(rng.uniform(-2, 2))
            op = SymplecticOp(second.S @ two_mode_squeezer(rng.uniform(-2, 2)).S)
            assert np.allclose(op.S @ omega @ op.S.T, omega, atol=1e-10)


class TestValidation:
    def test_asymmetric_sigma_rejected(self):
        sigma = np.eye(2)
        sigma[0, 1] = 1e-6
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), sigma)

    def test_symmetry_tolerance_is_relative(self):
        sigma = 1e6 * np.eye(2)
        sigma[0, 1] = 1e-8  # rounding-sized for entries of 1e6
        GaussianState(np.zeros(2), sigma)
        sigma[0, 1] = 1e-4
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), sigma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GaussianState(np.zeros(2), np.diag([1.0, bad]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(4), np.eye(2))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(3), np.eye(3))

    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError):
            SymplecticOp(np.diag([2.0, 2.0, 1.0, 1.0]))

    def test_strong_squeezer_passes_relative_tolerance(self):
        # S Omega S^T sums terms of size cosh(8)^2 ~ 2e6, whose rounding alone
        # exceeds an absolute tolerance of 1e-10
        assert SymplecticOp(two_mode_squeezer(8.0).S).modes == 2

    @pytest.mark.parametrize("r", [0.5, 8.0])
    def test_scaled_squeezer_rejected(self, r):
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticOp(1.001 * two_mode_squeezer(r).S)
