"""Tests for the estimator, SNR-ramp Monte Carlo, and spectrum-analyzer model."""

import math
import os

import numpy as np
import pytest
from scipy import constants, integrate

from qcrbench import detection
from qcrbench.bounds import LossBudget, build_chain, qcrb_coherent, qcrb_numeric_gaussian
from qcrbench.cli import main
from qcrbench.detection import (
    MAX_POLES,
    PLANCK_H,
    SPEED_OF_LIGHT,
    FilterModel,
    MeasurementPlan,
    effective_time,
    estimator_variance,
    linear_ramp,
    optimal_gain,
    photons_from_voltage,
    sa_chain_simulate,
    snr_ramp_simulate,
    transmission_variance,
)
from qcrbench.errors import NonPhysicalError
from qcrbench.gaussian import coherent_state
from qcrbench.source import SourceParams

PARAMS = SourceParams(s=2.04, T_a=0.71)
BUDGET = LossBudget(T_p=0.973, eta_p=0.945, eta_c=0.919)
SYNC4 = FilterModel(kind="sync_tuned", rbw=51e3, poles=4)
GAUSS = FilterModel(kind="gaussian", rbw=51e3)


class TestEffectiveTime:
    def test_gaussian_closed_form(self):
        assert effective_time(GAUSS) * 51e3 == pytest.approx(math.sqrt(math.log(2) / math.pi))

    def test_gaussian_quadrature_agrees(self, quadrature_effective_time):
        closed = effective_time(GAUSS)
        quad = quadrature_effective_time(GAUSS)
        assert quad == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize("poles", [1, 2, 3, 4, 5, 8, 16, 50, 170, MAX_POLES])
    def test_sync_tuned_closed_form_matches_quadrature(self, poles, quadrature_effective_time):
        for rbw in (1e-3, 1.0, 51e3, 3e6):
            filt = FilterModel(kind="sync_tuned", rbw=rbw, poles=poles)
            assert effective_time(filt) == pytest.approx(
                quadrature_effective_time(filt), rel=1e-12, abs=0.0
            )

    def test_sync4_time_bandwidth_product(self):
        assert effective_time(SYNC4) * 51e3 == pytest.approx(0.44, rel=0.02)

    def test_sync4_at_51khz(self):
        assert effective_time(SYNC4) == pytest.approx(8.63e-6, rel=0.02)

    def test_correction_factor(self):
        assert effective_time(SYNC4) / effective_time(GAUSS) == pytest.approx(0.94, abs=0.005)

    def test_single_pole_is_one_over_pi(self):
        filt = FilterModel(kind="sync_tuned", rbw=2.0e4, poles=1)
        assert effective_time(filt) * 2.0e4 == pytest.approx(1.0 / math.pi, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterModel(kind="boxcar", rbw=1e3)
        with pytest.raises(ValueError):
            FilterModel(kind="gaussian", rbw=0.0)
        with pytest.raises(ValueError):
            FilterModel(kind="sync_tuned", rbw=1e3, poles=0)
        for rbw in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                FilterModel(kind="sync_tuned", rbw=rbw)
        with pytest.raises(ValueError, match=str(MAX_POLES)):
            FilterModel(kind="sync_tuned", rbw=1e3, poles=MAX_POLES + 1)

    def test_extreme_rbw_rejected(self):
        # t overflows for a subnormal RBW; the corner overflows for a huge one
        for filt in (
            FilterModel(kind="gaussian", rbw=1e-310),
            FilterModel(kind="sync_tuned", rbw=5e-324),
            FilterModel(kind="sync_tuned", rbw=1e308, poles=MAX_POLES),
        ):
            with pytest.raises(ValueError, match="effective time"):
                effective_time(filt)


class TestOptimalGain:
    def test_uncorrelated_pair_needs_no_subtraction(self):
        assert optimal_gain(coherent_state([2.0, 1.5])) == 0.0

    def test_dark_conjugate_reduces_to_intensity_measurement(self):
        assert optimal_gain(coherent_state([2.0, 0.0])) == 0.0

    def test_reference_chain_value(self):
        state = build_chain(PARAMS, BUDGET).state_at(0.84)
        assert optimal_gain(state) == pytest.approx(0.8010362406914614, rel=1e-9)

    def test_optimized_beats_balanced(self):
        state = build_chain(SourceParams(s=1.0, T_a=1.0), BUDGET).state_at(0.84)
        g = optimal_gain(state)
        assert estimator_variance(state, g) <= estimator_variance(state, 1.0)

    def test_convexity_around_optimum(self):
        state = build_chain(PARAMS, BUDGET).state_at(0.84)
        g = optimal_gain(state)
        best = estimator_variance(state, g)
        assert estimator_variance(state, 0.9 * g) > best
        assert estimator_variance(state, 1.1 * g) > best

    def test_stationarity(self):
        state = build_chain(PARAMS, BUDGET).state_at(0.5)
        g = optimal_gain(state)
        h = 1e-7 * max(abs(g), 1.0)
        slope = (estimator_variance(state, g + h) - estimator_variance(state, g - h)) / (2 * h)
        assert abs(slope) < 1e-6 * estimator_variance(state, g)


class TestTransmissionVariance:
    def test_coherent_probe_is_shot_limited(self):
        chain = build_chain(SourceParams(s=0.0, T_a=1.0), BUDGET)
        for t in (0.15, 0.5, 0.84):
            got = transmission_variance(chain, t)
            assert got == pytest.approx(qcrb_coherent(t, 1.0, BUDGET.eta_p).var_n, rel=1e-9)

    def test_saturates_numeric_bound(self):
        chain = build_chain(PARAMS, BUDGET)
        for t in np.round(0.10 + 0.05 * np.arange(16), 12):
            measured = transmission_variance(chain, float(t))
            bound = qcrb_numeric_gaussian(float(t), PARAMS, BUDGET, chain=chain).var_n
            assert measured == pytest.approx(bound, rel=1e-6)

    def test_discarding_conjugate_wastes_information(self):
        chain = build_chain(PARAMS, BUDGET)
        bound = qcrb_numeric_gaussian(0.84, PARAMS, BUDGET, chain=chain).var_n
        assert transmission_variance(chain, 0.84, g=0.0) > bound * 10
        assert transmission_variance(chain, 0.84, g=1.0) > bound * 1.5

    def test_photon_rescaling(self):
        chain = build_chain(PARAMS, BUDGET)
        assert transmission_variance(chain, 0.5, n_r=2e9) == pytest.approx(
            transmission_variance(chain, 0.5) / 2e9, rel=1e-12
        )

    def test_non_positive_variance_rejected(self):
        # at s = 17.5 the ill-conditioned chain covariance cancels to -0.143
        chain = build_chain(SourceParams(s=17.5, T_a=0.575), BUDGET)
        with pytest.raises(NonPhysicalError, match="not positive"):
            transmission_variance(chain, 0.85)


class TestSnrRamp:
    def plan(self, trials=10_000, seed=1):
        return MeasurementPlan(
            filter=SYNC4,
            trials=trials,
            rng_seed=seed,
            ramp_duration=trials * effective_time(SYNC4),
        )

    def test_recovers_injected_noise_scale(self):
        var_t = 0.04
        plan = self.plan()
        ramp = snr_ramp_simulate(plan, linear_ramp(5 * math.sqrt(var_t), plan.ramp_duration), var_t)
        assert ramp.delta_T_at_snr1 == pytest.approx(math.sqrt(var_t), rel=0.05)

    def test_zero_noise_degenerates_to_zero(self):
        plan = self.plan(trials=100)
        ramp = snr_ramp_simulate(plan, linear_ramp(1.0, plan.ramp_duration), 0.0)
        assert ramp.delta_T_at_snr1 == 0.0

    def test_tiny_noise_recovers_ramp(self):
        var_t = 1e-12
        plan = self.plan()
        ramp = snr_ramp_simulate(plan, linear_ramp(5e-6, plan.ramp_duration), var_t)
        assert ramp.delta_T_at_snr1 == pytest.approx(1e-6, rel=0.06)
        # with negligible noise the trace reproduces the deterministic ramp
        window = ramp.amplitudes > 0
        expected = ramp.amplitudes[window] ** 2 / var_t
        assert np.allclose(ramp.snr_trace[window], expected, rtol=1e-4, atol=50.0)

    def test_error_scales_with_bin_count(self):
        var_t = 0.2
        sigma = math.sqrt(var_t)

        def rms(trials, seeds):
            errs = []
            for seed in seeds:
                plan = self.plan(trials=trials, seed=seed)
                got = snr_ramp_simulate(
                    plan, linear_ramp(5 * sigma, plan.ramp_duration), var_t
                ).delta_T_at_snr1
                errs.append(got / sigma - 1.0)
            return float(np.sqrt(np.mean(np.square(errs))))

        coarse = rms(1_000, range(12))
        fine = rms(100_000, range(12))
        # expect roughly sqrt(100) = 10x improvement
        assert 4.0 < coarse / fine < 25.0

    def test_deterministic_for_fixed_seed(self):
        var_t = 0.09
        plan = self.plan(trials=2_000, seed=9)
        first = snr_ramp_simulate(plan, linear_ramp(1.5, plan.ramp_duration), var_t)
        second = snr_ramp_simulate(plan, linear_ramp(1.5, plan.ramp_duration), var_t)
        assert first.delta_T_at_snr1 == second.delta_T_at_snr1
        assert np.array_equal(first.snr_trace, second.snr_trace)

    def test_unbracketed_ramp_rejected(self):
        var_t = 1.0
        plan = self.plan(trials=500)
        with pytest.raises(NonPhysicalError):
            # modulation never rises above a tiny fraction of the noise
            snr_ramp_simulate(plan, linear_ramp(1e-3, plan.ramp_duration), var_t)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            MeasurementPlan(filter=SYNC4, trials=0, rng_seed=1)


@pytest.fixture
def recorded_fits(monkeypatch):
    """(mod_power, snr, result) of every `_iterated_line_fit` call a test makes."""
    calls = []
    fit = detection._iterated_line_fit

    def record(mod_power, snr):
        result = fit(mod_power, snr)
        calls.append((mod_power.copy(), snr.copy(), result))
        return result

    monkeypatch.setattr(detection, "_iterated_line_fit", record)
    return calls


class TestLineFitMatchesPolyfit:
    """`_iterated_line_fit` returns the bits of the `np.polyfit` loop kept as the oracle."""

    def test_param_sweep_ramps(self, recorded_fits, polyfit_iterated_line_fit):
        bins = 10_000
        for s, t_a in ((2.04, 0.71), (0.4, 0.3), (3.3, 0.98)):
            chain = build_chain(SourceParams(s=s, T_a=t_a), BUDGET)
            for k, t in enumerate(np.linspace(0.01, 1.0, 100)[::10]):
                var_t = transmission_variance(chain, float(t), 1.0)
                plan = MeasurementPlan(
                    filter=SYNC4,
                    trials=bins,
                    rng_seed=1000 * k + 7,
                    ramp_duration=bins * effective_time(SYNC4),
                )
                profile = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
                snr_ramp_simulate(plan, profile, var_t)
        assert len(recorded_fits) == 30
        for mod_power, snr, result in recorded_fits:
            assert result == polyfit_iterated_line_fit(mod_power, snr)

    def test_readme_simulate_grid(self, tmp_path, recorded_fits, polyfit_iterated_line_fit):
        config = os.path.join(os.path.dirname(__file__), "..", "docs", "sample_config.txt")
        out = tmp_path / "simulate.csv"
        args = ["simulate", "--config", config, "--trials", "10000", "--seed", "7"]
        assert main([*args, "--out", str(out)]) == 0
        assert len(recorded_fits) == 16
        for mod_power, snr, result in recorded_fits:
            assert result == polyfit_iterated_line_fit(mod_power, snr)

    def test_window_of_eight_bins(self, polyfit_iterated_line_fit):
        mod_power = np.zeros(20)
        mod_power[3:11] = np.linspace(0.5, 4.0, 8)
        snr = 0.3 + 0.9 * mod_power + 0.05 * np.sin(np.arange(20.0))
        result = detection._iterated_line_fit(mod_power, snr)
        assert result == polyfit_iterated_line_fit(mod_power, snr)
        mod_power[3] = 0.0
        for fit in (detection._iterated_line_fit, polyfit_iterated_line_fit):
            with pytest.raises(NonPhysicalError, match="too few usable"):
                fit(mod_power, snr)

    def test_ramp_at_pass_cap(self, monkeypatch, recorded_fits, polyfit_iterated_line_fit):
        passes = []
        line_fit = detection._line_fit

        def counted(x, y):
            passes.append(x.size)
            return line_fit(x, y)

        monkeypatch.setattr(detection, "_line_fit", counted)
        var_t = 0.04
        plan = MeasurementPlan(
            filter=SYNC4, trials=10_000, rng_seed=0, ramp_duration=10_000 * effective_time(SYNC4)
        )
        snr_ramp_simulate(plan, linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration), var_t)
        # this window alternates between two masks until the 10-pass cap stops it
        assert len(passes) == 10
        ((mod_power, snr, result),) = recorded_fits
        assert result == polyfit_iterated_line_fit(mod_power, snr)

    def test_constant_power_window_warns_like_polyfit(self, polyfit_iterated_line_fit):
        mod_power = np.full(50, 2.0)
        snr = 1.0 + 0.1 * np.cos(np.arange(50.0))
        with pytest.warns(np.exceptions.RankWarning):
            result = detection._iterated_line_fit(mod_power, snr)
        with pytest.warns(np.exceptions.RankWarning):
            assert result == polyfit_iterated_line_fit(mod_power, snr)

    def test_ramp_never_calls_polyfit(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.polyfit called")

        monkeypatch.setattr(np, "polyfit", forbidden)
        var_t = 0.04
        plan = MeasurementPlan(
            filter=SYNC4, trials=2_000, rng_seed=3, ramp_duration=2_000 * effective_time(SYNC4)
        )
        profile = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
        assert snr_ramp_simulate(plan, profile, var_t).delta_T_at_snr1 > 0.0

    def test_tiny_powers_fit_by_exact_rescaling(self):
        # squares of ~1e-169 underflow; the fit scales x by a power of two instead
        rng = np.random.default_rng(4)
        mod_power = np.linspace(1.0, 30.0, 400)
        snr = 0.1 + 0.2 * mod_power + rng.normal(0.0, 0.3, 400)
        slope, intercept = detection._iterated_line_fit(mod_power, snr)
        tiny_slope, tiny_intercept = detection._iterated_line_fit(mod_power * 2.0**-560, snr)
        assert tiny_slope == slope * 2.0**560 and tiny_intercept == intercept


class TestSpectrumAnalyzerChain:
    def tone(self, amplitude, f, fs, n, phase=0.83):
        t = np.arange(n) / fs
        return amplitude * np.sin(2 * math.pi * f * t + phase)

    def test_deterministic_tone_k_factor(self):
        fs, n = 8e6, 2**20
        amplitude = 0.7
        out = sa_chain_simulate(self.tone(amplitude, 1.5e6, fs, n), fs, SYNC4, 1.5e6)
        assert out == pytest.approx(amplitude**2 / 8.0, rel=0.01)

    def test_linearity_in_power(self):
        fs, n = 8e6, 2**20
        small = sa_chain_simulate(self.tone(0.4, 1.5e6, fs, n), fs, SYNC4, 1.5e6)
        large = sa_chain_simulate(self.tone(0.8, 1.5e6, fs, n), fs, SYNC4, 1.5e6)
        assert large / small == pytest.approx(4.0, rel=0.01)

    def test_white_noise_level(self):
        fs, n = 8e6, 2**20
        rng = np.random.default_rng(7)
        sigma = 0.3
        out = sa_chain_simulate(rng.normal(0.0, sigma, n), fs, SYNC4, 1.5e6)
        band = 2.0 * integrate.quad(
            lambda f: float(SYNC4.power_response(f)), 0.0, 20e6, epsabs=0.0, epsrel=1e-10, limit=300
        )[0]
        expected = (sigma**2 / fs) / 2.0 * band
        assert out == pytest.approx(expected, rel=0.02)

    def test_zero_input(self):
        assert sa_chain_simulate(np.zeros(2**16), 8e6, SYNC4, 1.5e6) == 0.0

    def test_lo_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            sa_chain_simulate(np.zeros(2**16), 8e6, SYNC4, 5e6)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            sa_chain_simulate(np.zeros(64), 8e6, SYNC4, 1.5e6)


class TestPhotonAccounting:
    def test_reference_photon_number(self):
        # 80 uW at 795 nm over 8.63 us
        n = photons_from_voltage(80e-6, 1.0, 795e-9, 8.63e-6)
        assert n == pytest.approx(2.763e9, rel=0.001)

    def test_zero_time(self):
        assert photons_from_voltage(1.0, 1.0, 795e-9, 0.0) == 0.0

    def test_si_constants_are_exact(self):
        assert PLANCK_H == constants.h
        assert SPEED_OF_LIGHT == constants.c

    def test_linearity(self):
        one = photons_from_voltage(0.5, 2.0, 795e-9, 1e-6)
        two = photons_from_voltage(1.0, 2.0, 795e-9, 1e-6)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_zero_responsivity_rejected(self):
        with pytest.raises(ValueError):
            photons_from_voltage(1.0, 0.0, 795e-9, 1e-6)
