"""Tests for the estimator, SNR-ramp Monte Carlo, and spectrum-analyzer model."""

import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import constants, integrate

from oracles import (
    coherent_state,
    crossing_standard_error,
    estimator_variance,
    four_by_four_transmission_variance,
    PLANCK_H,
    SPEED_OF_LIGHT,
    log_uniform,
    optimal_gain,
    photons_from_voltage,
    polyfit_iterated_line_fit,
    polyfit_windows,
    power_response,
    quadrature_effective_time,
    reference_snr_ramp,
    sa_chain_simulate,
    ten_pass_line_fit,
)
from qcrbench import detection
from qcrbench.bounds import LossBudget, build_chain, qcrb_coherent, qcrb_numeric_gaussian
from qcrbench.cli import main
from qcrbench.detection import (
    FilterModel,
    MeasurementPlan,
    effective_time,
    linear_ramp,
    snr_ramp_simulate,
    transmission_variance,
)
from qcrbench.errors import DOMAIN, BrightLimitError, NonPhysicalError, WorkbenchError
from qcrbench.source import SourceParams

MAX_POLES = int(DOMAIN["poles"].high)
PARAMS = SourceParams(s=2.04, T_a=0.71)
BUDGET = LossBudget(T_p=0.973, eta_p=0.945, eta_c=0.919)
SYNC4 = FilterModel(kind="sync_tuned", rbw=51e3, poles=4)
GAUSS = FilterModel(kind="gaussian", rbw=51e3)


class TestEffectiveTime:
    def test_gaussian_closed_form(self):
        assert effective_time(GAUSS) * 51e3 == pytest.approx(math.sqrt(math.log(2) / math.pi))

    def test_gaussian_quadrature_agrees(self):
        closed = effective_time(GAUSS)
        quad = quadrature_effective_time(GAUSS)
        assert quad == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize("poles", [1, 2, 3, 4, 5, 8, 16, 50, 170, MAX_POLES])
    def test_sync_tuned_closed_form_matches_quadrature(self, poles):
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


class TestIntegerFields:
    """`poles`, `trials` and `rng_seed` are ints or numpy integers, checked at construction."""

    OTHER_FIELDS = {
        "poles": (FilterModel, {"kind": "sync_tuned", "rbw": 51e3}),
        "trials": (MeasurementPlan, {"filter": SYNC4, "rng_seed": 0}),
        "rng_seed": (MeasurementPlan, {"filter": SYNC4, "trials": 100}),
    }

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("poles", 4.5, "must be an integer, not 4.5"),
            ("poles", True, "must be an integer, not True"),
            ("trials", 20000.0, "must be an integer, not 20000.0"),
            ("trials", True, "must be an integer, not True"),
            ("rng_seed", 1.5, "must be an integer, not 1.5"),
            ("rng_seed", -1, "must be non-negative, not -1"),
        ],
        ids=["poles-4.5", "poles-True", "trials-20000.0", "trials-True", "seed-1.5", "seed-neg"],
    )
    def test_rejected_naming_the_field(self, field, value, message):
        cls, others = self.OTHER_FIELDS[field]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} {message}')}$"):
            cls(**others, **{field: value})

    def test_numpy_integers_accepted(self):
        filt = FilterModel("sync_tuned", 51e3, poles=np.int64(4))
        assert effective_time(filt) == effective_time(SYNC4)
        var_t = 0.04
        duration = 2_000 * effective_time(SYNC4)
        plan = MeasurementPlan(filt, np.int32(2_000), np.uint64(3), duration)
        same = MeasurementPlan(SYNC4, 2_000, 3, duration)
        profile = linear_ramp(5.0 * math.sqrt(var_t), duration)
        ramps = [snr_ramp_simulate(p, profile, var_t).delta_T_at_snr1 for p in (plan, same)]
        assert ramps[0] == ramps[1]


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
        assert four_by_four_transmission_variance(chain, 0.84, 0.0) > bound * 10
        assert four_by_four_transmission_variance(chain, 0.84, 1.0) > bound * 1.5

    def test_var_n_does_not_depend_on_n_r(self):
        # var_n = Var(T) n_r, like every bound: n_r is validated and reaches no bit
        chain = build_chain(PARAMS, BUDGET)
        for n_r in (1e-3, 2e9):
            assert transmission_variance(chain, 0.5, n_r) == transmission_variance(chain, 0.5, 1.0)

    @pytest.mark.parametrize("t, eta_p", [(1e-30, 0.945), (1e-48, 1e-304)])
    def test_light_is_seen_whatever_the_seed(self, t, eta_p):
        # s = 0, T_a = 1e-300: at 10^4 seed photons the detected count d_p^2 / 4
        # underflows to 0 at T = 1e-30, and at T = 1e-48, eta_p = 1e-304 so does
        # d_p itself; the estimator reads no displacement
        budget = LossBudget(T_p=0.973, eta_p=eta_p, eta_c=0.919)
        chains = [
            build_chain(SourceParams(s=0.0, T_a=1e-300, seed_photons=n), budget)
            for n in (1e4, 1e6, 1e12)
        ]
        d_p = chains[0].sector_at(t)[0]
        assert d_p * d_p / 4.0 == 0.0
        dim, mid, bright = (transmission_variance(chain, t) for chain in chains)
        assert dim == mid == bright == pytest.approx(qcrb_coherent(t, 1.0, eta_p).var_n)

    def test_dark_modes_rejected(self):
        for dark in (LossBudget(T_p=0.0, eta_p=0.945, eta_c=0.919), LossBudget(0.973, 0.0, 0.919)):
            with pytest.raises(BrightLimitError, match="no probe light"):
                transmission_variance(build_chain(PARAMS, dark), 0.5)
        # without squeezing the conjugate is dark and sigma_pc is 0, so the
        # optimal gain is 0 and var_n is (T / eta_p) sigma_pp
        no_conjugate = build_chain(SourceParams(s=0.0, T_a=0.71), BUDGET)
        assert no_conjugate.sector_at(0.5)[1] == 0.0
        assert transmission_variance(no_conjugate, 0.5) == (
            0.5 / BUDGET.eta_p * no_conjugate.sector_at(0.5)[2]
        )

    def test_non_positive_variance_rejected(self):
        # far above config.MAX_S the estimator variance of the chain cancels in
        # float: at s = 20 it comes out as -47.4, where the closed form is 0.27
        chain = build_chain(SourceParams(s=20.0, T_a=0.575), BUDGET)
        with pytest.raises(NonPhysicalError, match="not positive"):
            transmission_variance(chain, 0.85)


def _outcome(params: SourceParams, budget: LossBudget, t: float):
    """The bits of `transmission_variance` at t, or the type of its error."""
    try:
        return transmission_variance(build_chain(params, budget), t).hex()
    except (WorkbenchError, ValueError) as exc:
        return type(exc)


_EFFICIENCY = st.sampled_from([0.0, 1.0]) | log_uniform(-320.0)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    s=st.just(0.0) | st.floats(0.0, 3.5),
    t_a=log_uniform(-300.0),
    t=log_uniform(-320.0),
    budget=st.builds(LossBudget, T_p=_EFFICIENCY, eta_p=_EFFICIENCY, eta_c=_EFFICIENCY),
)
def test_estimator_ignores_the_seed(s, t_a, t, budget):
    # the estimator reads no displacement, so the seed's photon number
    # reaches neither its bits nor its errors, even where a detected
    # displacement underflows at one seed and not at another
    first, *others = (
        _outcome(SourceParams(s=s, T_a=t_a, seed_photons=n), budget, t)
        for n in (1e4, 1e6, 1e12)
    )
    assert all(other == first for other in others)


def test_cli_simulate_ignores_the_seed_where_d_p_underflows(tmp_path):
    # the detected probe displacement underflows to 0 at 10^4 seed photons,
    # not at 10^12: simulate exits 0 at both, with the same data rows
    sample = os.path.join(os.path.dirname(__file__), "..", "docs", "sample_config.txt")
    with open(sample, encoding="utf-8") as handle:
        text = handle.read()
    for key, value in (("s", "0"), ("T_a", "1e-300"), ("T_grid", "1e-48"), ("eta_p", "1e-304")):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    rows = []
    for photons in ("1e4", "1e6", "1e12"):
        config = tmp_path / f"dim-{photons}.txt"
        config.write_text(re.sub(r"^seed_photons = .*$", f"seed_photons = {photons}", text, flags=re.M))
        out = tmp_path / f"dim-{photons}.csv"
        args = ["simulate", "--config", str(config), "--trials", "10000", "--seed", "7"]
        assert main([*args, "--out", str(out)]) == 0
        rows.append([row for row in out.read_text().splitlines() if not row.startswith("#")])
    assert rows[0] == rows[1] == rows[2]
    assert len(rows[0]) == 2


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

    def test_powers_past_the_float_range_rejected(self):
        # 25 var_t ~ 2e308 and the squared amplitudes leave float64 (simulate
        # at eta_p = 1e-307, T = 0.85); var_t = 8.5e305 stays inside it
        plan = self.plan(trials=1000)
        var_t = 8.5e306
        profile = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
        with pytest.raises(NonPhysicalError, match="leave the float64 range"):
            snr_ramp_simulate(plan, profile, var_t)
        var_t = 8.5e305
        profile = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
        ramp = snr_ramp_simulate(plan, profile, var_t)
        assert ramp.delta_T_at_snr1 == pytest.approx(math.sqrt(var_t), rel=0.1)

    def test_equals_the_whole_array_route_bit_for_bit(self):
        # the scaled standard normals, the in-place powers, the end-point max
        # and the one-way monotone test keep every bit of the literal route,
        # errors included, over seeds, 100-10^4 bins, the noise_variance row
        # and rising and falling ramps
        errors = []

        def outcome(route, plan, profile, var_t):
            try:
                ramp = route(plan, profile, var_t)
            except NonPhysicalError as exc:
                return "error", str(exc)
            arrays = (ramp.snr_trace.tobytes(), ramp.amplitudes.tobytes())
            return ramp.delta_T_at_snr1.hex(), *arrays, ramp.passes, ramp.converged

        @settings(max_examples=150, derandomize=True, deadline=None, database=None)
        @given(
            seed=st.integers(0, 2**63),
            bins=st.integers(100, 10_000),
            var_t=log_uniform(-323.0, 308.0),
            height=st.floats(2.0, 10.0),
            rising=st.booleans(),
        )
        # powers past float64, and a ramp below SNR = 1
        @example(seed=3, bins=1000, var_t=8.5e306, height=5.0, rising=False)
        @example(seed=3, bins=1000, var_t=0.04, height=0.5, rising=False)
        def check(seed, bins, var_t, height, rising):
            plan = self.plan(trials=bins, seed=seed)
            duration = plan.ramp_duration
            falling = linear_ramp(height * math.sqrt(var_t), duration)
            profile = (lambda t: falling(duration - t)) if rising else falling
            got = outcome(snr_ramp_simulate, plan, profile, var_t)
            assert got == outcome(reference_snr_ramp, plan, profile, var_t)
            errors.append(got[0] == "error")

        check()
        # most ramps cross SNR = 1; errors come from the examples and from
        # powers past float64 or subnormal
        assert 2 <= sum(errors) <= 0.1 * len(errors)

    def test_zero_noise_rejected_before_the_profile(self):
        # transmission_variance never returns 0, and a noiseless ramp has no
        # SNR = 1 crossing: zero noise is rejected before the profile is read
        def profile(t):
            raise AssertionError("the profile was evaluated")

        with pytest.raises(ValueError, match="noise_variance must be finite and positive"):
            snr_ramp_simulate(self.plan(trials=100), profile, 0.0)

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

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf, -1e-300, 0.0])
    def test_bad_noise_variance_rejected(self, variance):
        plan = self.plan(trials=500)
        with pytest.raises(ValueError, match="noise_variance must be finite and positive"):
            snr_ramp_simulate(plan, linear_ramp(1.0, plan.ramp_duration), variance)

    def test_reference_power_is_one_gamma_variate(self, monkeypatch):
        # read each ramp's reference power back from its SNR trace: the bin powers
        # come from the regenerated signal stream (seed, 1), and 1 + snr is
        # power / reference; traces are recorded before the fit, so a seed whose
        # fit fails is kept and the sample is not selected by the fit
        var_t, bins, seeds = 0.04, 100, 2000
        traces = []
        fit = detection._iterated_line_fit

        def record(mod_power, snr):
            traces.append(snr.copy())
            return fit(mod_power, snr)

        monkeypatch.setattr(detection, "_iterated_line_fit", record)
        profile = linear_ramp(5.0 * math.sqrt(var_t), self.plan(trials=bins).ramp_duration)
        amplitudes = profile((np.arange(bins) + 0.5) * effective_time(SYNC4))
        references = []
        for seed in range(seeds):
            try:
                snr_ramp_simulate(self.plan(trials=bins, seed=seed), profile, var_t)
            except NonPhysicalError:
                pass
            assert len(traces) == seed + 1
            rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
            in_phase, quadrature = rng.normal(0.0, math.sqrt(var_t / 2.0), (2, bins))
            power = (amplitudes + in_phase) ** 2 + quadrature**2
            # the loudest bin reads the reference back without cancellation in 1 + snr
            loudest = power.argmax()
            references.append(power[loudest] / (1.0 + traces[-1][loudest]))
        references = np.array(references)
        # the reference is var_t Gamma(bins, 1) / bins: mean var_t, variance
        # var_t^2 / bins, and a sample variance whose SE follows from the
        # gamma's fourth central moment (3 k^2 + 6 k) theta^4
        mean_se = var_t / math.sqrt(bins * seeds)
        assert abs(references.mean() - var_t) < 4.0 * mean_se
        variance_se = var_t**2 * math.sqrt((2.0 / bins**2 + 6.0 / bins**3) / seeds)
        assert abs(references.var(ddof=1) - var_t**2 / bins) < 4.0 * variance_se

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            MeasurementPlan(filter=SYNC4, trials=0, rng_seed=1)

    def test_triangular_profile_rejected(self):
        # power rises then falls: the usable bins are one run, but not monotone
        var_t = 0.04
        plan = self.plan(trials=2_000, seed=5)
        ramp = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)

        def triangle(t):
            return ramp(np.abs(plan.ramp_duration - 2.0 * t))

        with pytest.raises(NonPhysicalError, match="not monotone"):
            snr_ramp_simulate(plan, triangle, var_t)

    def test_profile_must_give_one_amplitude_per_bin(self):
        plan = self.plan(trials=500)
        with pytest.raises(ValueError, match="one amplitude per bin"):
            snr_ramp_simulate(plan, lambda t: 0.5, 0.04)

    def test_trace_and_amplitudes_share_no_memory(self):
        var_t = 0.04
        plan = self.plan(trials=2_000, seed=9)
        profile = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
        ramp = snr_ramp_simulate(plan, profile, var_t)
        assert not np.shares_memory(ramp.snr_trace, ramp.amplitudes)

    def test_peak_memory_in_bin_sized_arrays(self):
        bins = 100_000
        var_t = 0.04
        plan = self.plan(trials=bins, seed=2)
        profile = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
        small = self.plan(trials=1_000, seed=2)
        snr_ramp_simulate(small, linear_ramp(5.0 * math.sqrt(var_t), small.ramp_duration), var_t)
        tracemalloc.start()
        try:
            snr_ramp_simulate(plan, profile, var_t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # amplitudes, both signal noise traces, the SNR trace and one
        # window-pass array are five; about 41 bytes per bin were measured
        assert peak < 7 * 8 * bins


class TestLinearRamp:
    def test_profile_leaves_its_input_unchanged(self):
        profile = linear_ramp(2.0, 3.0)
        t = np.linspace(0.0, 4.0, 41)
        before = t.copy()
        amplitude = profile(t)
        assert np.array_equal(t, before)
        assert not np.shares_memory(amplitude, t)
        assert np.array_equal(amplitude, 2.0 * np.clip(1.0 - before / 3.0, 0.0, None))

    @pytest.mark.parametrize(
        "t, expected", [(0.5, 2.0 * (1.0 - 0.5 / 3.0)), (1, 2.0 * (1.0 - 1 / 3.0)), (4.0, 0.0)]
    )
    def test_scalar_input(self, t, expected):
        amplitude = linear_ramp(2.0, 3.0)(t)
        assert type(amplitude) is np.float64
        assert amplitude == expected


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


def run_param_sweep_ramps():
    """The 30 ramps of three `param_sweep`-style grids at 10^4 bins."""
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


def assert_same_line(result, expected, mod_power, snr):
    """The two lines agree to 1e-12 of the SNR span at both ends of the usable run."""
    usable = (mod_power > 0.0) & np.isfinite(snr)
    ends = mod_power[usable][[0, -1]]
    span = np.ptp(snr[usable])
    (slope, intercept, *_), (want_slope, want_intercept) = result, expected
    gap = np.abs((intercept + slope * ends) - (want_intercept + want_slope * ends))
    assert np.all(gap <= 1e-12 * span), (gap / span, result, expected)


def run_readme_simulate(tmp_path):
    config = os.path.join(os.path.dirname(__file__), "..", "docs", "sample_config.txt")
    out = tmp_path / "simulate.csv"
    args = ["simulate", "--config", config, "--trials", "10000", "--seed", "7"]
    assert main([*args, "--out", str(out)]) == 0


class TestLineFitMatchesPolyfit:
    """`_iterated_line_fit` against the `np.polyfit` loop kept as the oracle.

    It fits the same windows, raises the same errors and returns the same
    line up to rounding (`assert_same_line`).
    """

    def test_param_sweep_ramps(self, recorded_fits):
        run_param_sweep_ramps()
        assert len(recorded_fits) == 30
        for mod_power, snr, result in recorded_fits:
            assert_same_line(result, polyfit_iterated_line_fit(mod_power, snr), mod_power, snr)

    def test_readme_simulate_grid(self, tmp_path, recorded_fits):
        run_readme_simulate(tmp_path)
        assert len(recorded_fits) == 16
        for mod_power, snr, result in recorded_fits:
            assert_same_line(result, polyfit_iterated_line_fit(mod_power, snr), mod_power, snr)

    def test_centred_sum_windows_follow_polyfit(self, tmp_path, monkeypatch, recorded_fits):
        # the centred-sum passes choose every window the polyfit loop chooses
        passes = []
        window_fit = detection._centred_line_fit

        def recorded(x, y):
            passes.append(x.copy())
            return window_fit(x, y)

        monkeypatch.setattr(detection, "_centred_line_fit", recorded)
        run_param_sweep_ramps()
        run_readme_simulate(tmp_path)
        assert len(recorded_fits) == 46
        expected = []
        for mod_power, snr, _ in recorded_fits:
            windows, _ = polyfit_windows(mod_power, snr)
            expected.extend(mod_power[window] for window in windows)
        assert len(passes) == len(expected)
        for got, want in zip(passes, expected):
            assert np.array_equal(got, want)

    def test_window_of_eight_bins(self):
        mod_power = np.zeros(20)
        mod_power[3:11] = np.linspace(0.5, 4.0, 8)
        snr = 0.3 + 0.9 * mod_power + 0.05 * np.sin(np.arange(20.0))
        result = detection._iterated_line_fit(mod_power, snr)
        assert_same_line(result, polyfit_iterated_line_fit(mod_power, snr), mod_power, snr)
        mod_power[3] = 0.0
        for fit in (detection._iterated_line_fit, polyfit_iterated_line_fit):
            with pytest.raises(NonPhysicalError, match="too few usable"):
                fit(mod_power, snr)

    def test_ramp_at_pass_cap(self, monkeypatch, recorded_fits):
        passes = []
        window_fit = detection._centred_line_fit

        def counted(x, y):
            passes.append(x.size)
            return window_fit(x, y)

        monkeypatch.setattr(detection, "_centred_line_fit", counted)
        var_t = 0.04
        plan = MeasurementPlan(
            filter=SYNC4, trials=10_000, rng_seed=32, ramp_duration=10_000 * effective_time(SYNC4)
        )
        profile = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
        ramp = snr_ramp_simulate(plan, profile, var_t)
        # this window alternates between two masks whose crossings lie about a third
        # of a standard error apart, so the rule never holds and the 10-pass cap stops it
        assert len(passes) == 10
        assert ramp.passes == 10 and ramp.converged is False
        ((mod_power, snr, result),) = recorded_fits
        assert_same_line(result, polyfit_iterated_line_fit(mod_power, snr), mod_power, snr)

    @pytest.mark.parametrize("power, level", [(2.0, 1.0), (0.1, 4.0)])
    def test_constant_power_window_rejected(self, power, level):
        # centred sums of 50 copies of 0.1 leave sum(t^2) = 2.5e-30, not 0, but
        # within rounding of it: the data fix no slope, and no line is returned
        mod_power = np.full(50, power)
        snr = level + 0.1 * np.cos(np.arange(50.0))
        with pytest.raises(NonPhysicalError, match="constant over the fit window"):
            detection._iterated_line_fit(mod_power, snr)
        # np.polyfit finds the same system rank-deficient, and returns a
        # minimum-norm line whose SNR = 1 crossing the data do not determine
        with pytest.warns(np.exceptions.RankWarning):
            polyfit_iterated_line_fit(mod_power, snr)

    def test_constant_power_ramp_rejected(self):
        plan = MeasurementPlan(
            filter=SYNC4, trials=500, rng_seed=3, ramp_duration=500 * effective_time(SYNC4)
        )
        with pytest.raises(NonPhysicalError, match="constant over the fit window"):
            snr_ramp_simulate(plan, lambda t: np.full(t.shape, 0.5), 0.04)

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

    def test_gap_in_usable_run_rejected(self):
        mod_power = np.linspace(0.5, 4.0, 40)
        snr = 0.3 + 0.9 * mod_power + 0.05 * np.sin(np.arange(40.0))
        mod_power[17] = 0.0
        with pytest.raises(NonPhysicalError, match="not contiguous"):
            detection._iterated_line_fit(mod_power, snr)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        bins=st.integers(8, 3000),
        rising=st.booleans(),
        padding=st.tuples(st.integers(0, 200), st.integers(0, 200)),
        low=st.floats(-2.0, 1.0),
        high=st.floats(5.5, 40.0),
        falling=st.booleans(),
        noise=st.floats(0.0, 2.0),
        exponent=st.integers(-400, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_window_search_matches_polyfit_loop(
        self,
        bins,
        rising,
        padding,
        low,
        high,
        falling,
        noise,
        exponent,
        seed,
    ):
        # a ramp of powers up to 9, zero-padded at either end, scaled by 2^exponent;
        # the line crosses [0.2, 5] between power 0 and power 9
        rng = np.random.default_rng(seed)
        power = np.linspace(0.0, 3.0, bins + 1)[1:] ** 2
        if not rising:
            power = power[::-1]
        intercept, end = (high, low) if falling else (low, high)
        snr = intercept + (end - intercept) / 9.0 * power + noise * rng.standard_normal(bins)
        before, after = padding
        mod_power = np.concatenate([np.zeros(before), np.ldexp(power, exponent), np.zeros(after)])
        snr = np.concatenate(
            [intercept + rng.standard_normal(before), snr, intercept + rng.standard_normal(after)]
        )
        outcomes = []
        for fit in (detection._iterated_line_fit, polyfit_iterated_line_fit):
            try:
                outcomes.append(fit(mod_power, snr))
            except NonPhysicalError as error:
                outcomes.append(str(error))
        result, expected = outcomes
        if isinstance(result, str) or isinstance(expected, str):
            assert result == expected
        else:
            assert_same_line(result, expected, mod_power, snr)

    def test_tiny_powers_fit_by_exact_rescaling(self):
        # squares of ~1e-169 underflow; the fit scales x by a power of two instead
        rng = np.random.default_rng(4)
        mod_power = np.linspace(1.0, 30.0, 400)
        snr = 0.1 + 0.2 * mod_power + rng.normal(0.0, 0.3, 400)
        slope, intercept, *_ = detection._iterated_line_fit(mod_power, snr)
        tiny_slope, tiny_intercept, *_ = detection._iterated_line_fit(mod_power * 2.0**-560, snr)
        assert tiny_slope == slope * 2.0**560 and tiny_intercept == intercept


def param_sweep_ramps():
    """(plan, var_t) of the 120 ramps of `param_sweep` seeds 1, 5 and 9, ops 0-3.

    Each op draws (s, T_a) and its ramp seeds from the stream keyed on
    (seed, op) and runs a 10^4-bin ramp at every tenth point of a 100-point
    T grid, as the benchmark's sweep does.
    """
    grid = np.linspace(0.01, 1.0, 100)
    bins = 10_000
    for seed in (1, 5, 9):
        for op in range(4):
            rng = np.random.default_rng(np.random.SeedSequence([seed, op]))
            params = SourceParams(s=rng.uniform(0.0, 3.0), T_a=rng.uniform(0.5, 1.0))
            ramp_seeds = [int(x) for x in rng.integers(2**31, size=grid.size)]
            chain = build_chain(params, BUDGET)
            for k in range(0, grid.size, 10):
                plan = MeasurementPlan(
                    filter=SYNC4,
                    trials=bins,
                    rng_seed=ramp_seeds[k],
                    ramp_duration=bins * effective_time(SYNC4),
                )
                yield plan, transmission_variance(chain, float(grid[k]), 1.0)


class TestWindowStoppingRule:
    """The window passes end when the SNR = 1 crossing has settled within its standard error."""

    def test_param_sweep_ramps_converge_near_the_ten_pass_crossing(self, recorded_fits):
        ramps = []
        for plan, var_t in param_sweep_ramps():
            profile = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
            ramps.append(snr_ramp_simulate(plan, profile, var_t))
        assert len(ramps) == len(recorded_fits) == 120
        assert all(ramp.converged for ramp in ramps)
        assert np.mean([ramp.passes for ramp in ramps]) <= 4.0
        for ramp, (mod_power, snr, result) in zip(ramps, recorded_fits):
            assert (ramp.passes, ramp.converged) == result[2:]
            windows, line = polyfit_windows(mod_power, snr)
            last = windows[-1]
            se = crossing_standard_error(mod_power[last], snr[last], *line)
            slope, intercept = ten_pass_line_fit(mod_power, snr)
            crossing = ramp.delta_T_at_snr1**2
            assert abs(crossing - (1.0 - intercept) / slope) <= 0.5 * se

    def test_crossing_standard_error_from_sums_matches_residuals(self, tmp_path, monkeypatch):
        # every window pass of the README grid: the sums in scaled coordinates
        # against explicit residuals in the powers themselves
        passes = []
        window_fit = detection._centred_line_fit

        def recorded(x, y):
            result = window_fit(x, y)
            passes.append((x.copy(), y.copy(), result))
            return result

        monkeypatch.setattr(detection, "_centred_line_fit", recorded)
        run_readme_simulate(tmp_path)
        assert len(passes) > 16
        for x, y, (slope, intercept, se) in passes:
            assert se == pytest.approx(crossing_standard_error(x, y, slope, intercept), rel=1e-9)

    def test_crossing_standard_error_scales_exactly(self):
        # the se is formed in power-of-two-scaled coordinates, so a ramp at
        # powers whose squares underflow has the same se, scaled by that power
        rng = np.random.default_rng(4)
        mod_power = np.linspace(1.0, 30.0, 400)
        snr = 0.1 + 0.2 * mod_power + rng.normal(0.0, 0.3, 400)
        slope, intercept, se = detection._centred_line_fit(mod_power, snr)
        tiny = detection._centred_line_fit(mod_power * 2.0**-560, snr)
        assert tiny == (slope * 2.0**560, intercept, se * 2.0**-560)
        assert 0.0 < se < math.inf

    def test_noiseless_line_has_no_crossing_spread(self):
        mod_power = np.linspace(0.5, 4.0, 40)
        slope, intercept, se = detection._centred_line_fit(mod_power, 0.25 + 2.0 * mod_power)
        assert (1.0 - intercept) / slope == pytest.approx(0.375)
        assert se < 1e-7
        # a line of slope 0 crosses SNR = 1 nowhere
        assert detection._centred_line_fit(mod_power, np.zeros(40)) == (0.0, 0.0, math.inf)

    def test_ramp_reports_its_passes(self):
        var_t = 0.04
        plan = MeasurementPlan(
            filter=SYNC4, trials=10_000, rng_seed=0, ramp_duration=10_000 * effective_time(SYNC4)
        )
        profile = linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
        # without the rule this window alternated until the 10-pass cap
        ramp = snr_ramp_simulate(plan, profile, var_t)
        assert (ramp.passes, ramp.converged) == (3, True)

    def test_line_fit_returns_line_passes_and_convergence(self):
        mod_power = np.linspace(0.5, 4.0, 40)
        snr = 0.3 + 0.9 * mod_power + 0.05 * np.sin(np.arange(40.0))
        result = detection._iterated_line_fit(mod_power, snr)
        slope, intercept, passes, converged = result
        assert_same_line(result, polyfit_iterated_line_fit(mod_power, snr), mod_power, snr)
        assert type(passes) is int and 1 <= passes <= detection._MAX_WINDOW_PASSES
        assert converged is True


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
            lambda f: float(power_response(SYNC4, f)), 0.0, 20e6, epsabs=0.0, epsrel=1e-10, limit=300
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
