"""Tests for noise backtracking, chi-square, differential evolution, and fits."""

import functools
import math
import warnings

import numpy as np
import pytest

from qcrbench.errors import NonPhysicalError, SchemaError
from qcrbench.inference import (
    LEVELS_PER_CALL,
    DEConfig,
    NoiseMeasurement,
    backtrack_measurement,
    backtrack_noise,
    chi_square,
    chi_square_batch,
    differential_evolution,
    fit_source,
    synthetic_noise_measurements,
    uncertainty_by_chi2_doubling,
)

ETAS = {"diff": 0.919, "probe": 0.973 * 0.945, "conj": 0.919}
BOX = ((0.0, 3.0), (0.5, 1.0))


def criterion_08_inputs(seed: int, i: int):
    """One perturbed triple and DE settings of the criterion-08 coverage study."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
    measurements = synthetic_noise_measurements(2.04, 0.71, ETAS, rel_sigma=0.012, rng=rng)
    config = DEConfig(
        population=96, rng_seed=int(rng.integers(2**31)), spread_tol=1e-5, max_generations=300
    )
    return measurements, config


def quadratic_bowl(center, widths, chi2_min):
    def objective(points):
        ds = (points[:, 0] - center[0]) / widths[0]
        dt = (points[:, 1] - center[1]) / widths[1]
        return chi2_min + ds * ds + dt * dt

    return objective, np.array(center), chi2_min, 1


def holed_bowl():
    """A bowl that is NaN above T_a = 0.77, across part of its contour."""
    bowl, optimum, chi2_min, dof = quadratic_bowl((1.5, 0.75), (0.05, 0.02), 0.8)

    def objective(points):
        return np.where(points[:, 1] > 0.77, np.nan, bowl(points))

    return objective, optimum, chi2_min, dof


def flat_objective():
    return (lambda points: np.full(points.shape[0], 0.5)), np.array([1.0, 0.7]), 0.5, 1


@functools.lru_cache(maxsize=None)
def fitted_objective(seed: int, i: int, noise_model: str = "numeric_oracle"):
    """A criterion-08 chi-square and its DE optimum, as `fit_source` sizes it."""
    measurements, config = criterion_08_inputs(seed, i)
    at_source = [backtrack_measurement(m) for m in measurements]

    def objective(points):
        return chi_square_batch(at_source, points, noise_model)

    de = differential_evolution(objective, config)
    return objective, de.best_point, de.best_value, 1


# name -> (objective, optimum, chi2_min, dof) maker, and whether the contour closes
CONTOUR_CASES = {
    "quadratic": (lambda: quadratic_bowl((1.5, 0.75), (0.05, 0.02), 0.8), True),
    "flat_unbounded": (flat_objective, False),
    "nan_holes": (holed_bowl, True),
    # on the T_a = 0.5 edge: the rays that leave the box through it are unbracketed
    "box_edge": (lambda: quadratic_bowl((1.0, 0.5), (0.4, 0.3), 0.8), False),
    "box_corner": (lambda: quadratic_bowl((0.0, 1.0), (0.05, 0.02), 0.3), False),
    "chi2_fit_a": (lambda: fitted_objective(11, 0), True),
    "chi2_fit_b": (lambda: fitted_objective(11, 3), True),
    "chi2_fit_c": (lambda: fitted_objective(97, 1), True),
    "chi2_fit_printed": (lambda: fitted_objective(11, 3, "printed_formulas"), False),
}


class TestBacktrack:
    def test_shot_noise_is_fixed_point(self):
        for eta in (0.3, 0.7, 1.0):
            assert backtrack_noise(1.0, eta) == pytest.approx(1.0, rel=1e-14)

    def test_unit_transmission_is_identity(self):
        assert backtrack_noise(0.4321, 1.0) == 0.4321

    def test_reference_value(self):
        # -8.0 dB measured through eta = 0.919
        assert backtrack_noise(0.1585, 0.919) == pytest.approx(0.0843, abs=5e-5)

    def test_non_physical_rejected(self):
        with pytest.raises(NonPhysicalError):
            backtrack_noise(0.05, 0.919)
        with pytest.raises(NonPhysicalError):
            backtrack_noise(0.5, 0.0)

    @pytest.mark.parametrize("n0", [0.08, 0.5, 1.0, 25.0])
    @pytest.mark.parametrize("eta", [0.2, 0.87, 1.0])
    def test_roundtrip_inverts_loss(self, n0, eta):
        measured = eta * n0 + (1.0 - eta)
        assert backtrack_noise(measured, eta) == pytest.approx(n0, rel=1e-12, abs=1e-12)

    def test_measurement_backtrack_scales_variance(self):
        m = NoiseMeasurement(channel="diff", value=0.1585, variance=1e-6, eta=0.919)
        back = backtrack_measurement(m)
        assert back.variance == pytest.approx(1e-6 / 0.919**2, rel=1e-12)
        assert back.eta == 1.0


class TestNoiseMeasurement:
    def test_validation(self):
        with pytest.raises(SchemaError):
            NoiseMeasurement(channel="sum", value=1.0, variance=1.0)
        with pytest.raises(NonPhysicalError):
            NoiseMeasurement(channel="diff", value=0.0, variance=1.0)
        with pytest.raises(NonPhysicalError):
            NoiseMeasurement(channel="diff", value=1.0, variance=0.0)
        with pytest.raises(NonPhysicalError):
            NoiseMeasurement(channel="diff", value=1.0, variance=1.0, eta=0.0)


class TestChiSquare:
    def source_level_triple(self, s, ta, rel=0.01):
        return [
            backtrack_measurement(m)
            for m in synthetic_noise_measurements(s, ta, ETAS, rel_sigma=rel)
        ]

    def test_zero_at_generating_point(self):
        triple = self.source_level_triple(2.04, 0.71)
        assert chi_square(triple, 2.04, 0.71) == pytest.approx(0.0, abs=1e-18)

    def test_increases_away_from_optimum(self):
        triple = self.source_level_triple(1.5, 0.8)
        base = chi_square(triple, 1.5, 0.8)
        assert chi_square(triple, 1.6, 0.8) > base
        assert chi_square(triple, 1.5, 0.75) > base

    def test_channel_order_irrelevant(self):
        triple = self.source_level_triple(1.2, 0.9)
        assert chi_square(triple, 1.3, 0.85) == chi_square(triple[::-1], 1.3, 0.85)

    def test_missing_channel_rejected(self):
        with pytest.raises(SchemaError):
            chi_square(self.source_level_triple(1.0, 0.9)[:2], 1.0, 0.9)

    def test_duplicate_channel_rejected(self):
        triple = self.source_level_triple(1.0, 0.9)
        with pytest.raises(SchemaError):
            chi_square([triple[0], triple[0], triple[1]], 1.0, 0.9)

    def test_printed_formulas_model_available(self):
        triple = self.source_level_triple(1.0, 0.9)
        value = chi_square(triple, 1.0, 0.9, noise_model="printed_formulas")
        # the printed difference formula disagrees with the generating oracle
        assert value > 1.0


class TestDifferentialEvolution:
    def test_convex_bowl(self):
        def bowl(points):
            return (points[:, 0] - 0.3) ** 2 + (points[:, 1] - 0.7) ** 2

        config = DEConfig(
            population=50,
            bounds=((0.0, 1.0), (0.0, 1.0)),
            rng_seed=11,
            spread_tol=1e-9,
            max_generations=3000,
        )
        result = differential_evolution(bowl, config)
        assert np.allclose(result.best_point, [0.3, 0.7], atol=1e-6)

    def test_multimodal_landscape(self):
        def rastrigin(points):
            x = points[:, 0] * 10.0 - 5.0
            y = points[:, 1] * 10.0 - 5.0
            return (
                20.0
                + x * x
                - 10.0 * np.cos(2 * np.pi * x)
                + y * y
                - 10.0 * np.cos(2 * np.pi * y)
            )

        hits = 0
        for seed in range(100):
            config = DEConfig(
                population=600,
                bounds=((0.0, 1.0), (0.0, 1.0)),
                rng_seed=seed,
                spread_tol=1e-7,
                max_generations=400,
            )
            if differential_evolution(rastrigin, config).best_value < 1e-3:
                hits += 1
        assert hits >= 95

    def test_large_population_roundtrip(self):
        measurements = [
            backtrack_measurement(m)
            for m in synthetic_noise_measurements(2.04, 0.71, ETAS, rel_sigma=0.01)
        ]

        def objective(points):
            return chi_square_batch(measurements, points)

        config = DEConfig(population=5000, rng_seed=4, spread_tol=1e-6, max_generations=400)
        result = differential_evolution(objective, config)
        assert result.best_point[0] == pytest.approx(2.04, abs=1e-3)
        assert result.best_point[1] == pytest.approx(0.71, abs=1e-3)

    def test_deterministic_for_fixed_seed(self):
        def bowl(points):
            return (points[:, 0] - 0.4) ** 2 + 3.0 * (points[:, 1] - 0.6) ** 2

        config = DEConfig(
            population=40, bounds=((0.0, 1.0), (0.0, 1.0)), rng_seed=5, max_generations=60
        )
        a = differential_evolution(bowl, config)
        b = differential_evolution(bowl, config)
        assert np.array_equal(a.best_point, b.best_point)
        assert a.best_value == b.best_value
        assert len(a.history) == len(b.history)
        assert all(
            np.array_equal(ha["spread"], hb["spread"]) for ha, hb in zip(a.history, b.history)
        )

    def test_bounds_respected_on_every_evaluation(self):
        lo = np.array([0.0, 0.5])
        hi = np.array([3.0, 1.0])
        seen = []

        def recording(points):
            seen.append(np.array(points))
            return (points[:, 0] - 2.0) ** 2 + (points[:, 1] - 0.7) ** 2

        config = DEConfig(population=60, rng_seed=2, spread_tol=1e-7, max_generations=120)
        differential_evolution(recording, config)
        stacked = np.vstack(seen)
        assert np.all(stacked >= lo - 1e-15)
        assert np.all(stacked <= hi + 1e-15)

    def test_non_finite_objectives_discarded(self):
        def holed(points):
            values = (points[:, 0] - 0.5) ** 2 + (points[:, 1] - 0.5) ** 2
            return np.where(points[:, 0] < 0.2, np.nan, values)

        config = DEConfig(
            population=40, bounds=((0.0, 1.0), (0.0, 1.0)), rng_seed=1, max_generations=40
        )
        result = differential_evolution(holed, config)
        assert result.discarded > 0
        assert np.isfinite(result.best_value)

    def test_tiny_population_rejected(self):
        with pytest.raises(ValueError):
            DEConfig(population=3)


class TestChi2Doubling:
    def test_quadratic_contour(self):
        chi2_min = 0.8
        a, b = 0.05, 0.02

        def quadratic(points):
            ds = (points[:, 0] - 1.5) / a
            dt = (points[:, 1] - 0.75) / b
            return chi2_min + ds * ds + dt * dt

        widths, bounded = uncertainty_by_chi2_doubling(
            quadratic,
            np.array([1.5, 0.75]),
            chi2_min,
            dof=1,
            bounds=((0.0, 3.0), (0.5, 1.0)),
            n_rays=256,
        )
        assert bounded
        assert widths[0] == pytest.approx(a * np.sqrt(chi2_min), rel=0.01)
        assert widths[1] == pytest.approx(b * np.sqrt(chi2_min), rel=0.01)

    def test_shrinking_noise_shrinks_widths(self):
        def widths_for(rel):
            rng = np.random.default_rng(np.random.SeedSequence([99]))
            measurements = [
                backtrack_measurement(m)
                for m in synthetic_noise_measurements(2.04, 0.71, ETAS, rel_sigma=rel, rng=rng)
            ]

            def objective(points):
                return chi_square_batch(measurements, points)

            config = DEConfig(population=200, rng_seed=3, spread_tol=1e-7, max_generations=400)
            result = differential_evolution(objective, config)
            return uncertainty_by_chi2_doubling(
                objective, result.best_point, result.best_value, 1, config.bounds
            )[0]

        wide = widths_for(0.02)
        narrow = widths_for(0.01)
        # same unit perturbations at half the scale: both widths halve
        assert wide[0] / narrow[0] == pytest.approx(2.0, rel=0.08)
        assert wide[1] / narrow[1] == pytest.approx(2.0, rel=0.08)

    @pytest.mark.parametrize("case", sorted(CONTOUR_CASES))
    @pytest.mark.parametrize("steps", [1, 7, 60])
    @pytest.mark.parametrize("n_rays", [37, 64])
    def test_bit_identical_to_sequential_bisection(
        self, sequential_chi2_doubling, case, steps, n_rays
    ):
        make, closes = CONTOUR_CASES[case]
        objective, optimum, chi2_min, dof = make()
        batch_sizes = []

        def counted(points):
            batch_sizes.append(points.shape[0])
            return objective(points)

        with warnings.catch_warnings():
            # unbracketed rays warn on both routes
            warnings.simplefilter("ignore", UserWarning)
            widths, bounded = uncertainty_by_chi2_doubling(
                counted, optimum, chi2_min, dof, BOX, n_rays=n_rays, bisection_steps=steps
            )
            want_widths, want_bounded = sequential_chi2_doubling(
                objective, optimum, chi2_min, dof, BOX, n_rays=n_rays, bisection_steps=steps
            )
        assert np.array_equal(widths, want_widths)
        assert bounded == want_bounded == closes
        assert len(batch_sizes) == 1 + math.ceil(steps / LEVELS_PER_CALL)
        depths = [min(LEVELS_PER_CALL, steps - k) for k in range(0, steps, LEVELS_PER_CALL)]
        assert batch_sizes == [n_rays] + [(2**d - 1) * n_rays for d in depths]

    def test_optimum_on_box_edge_raises_no_runtime_warning(self):
        # the ray along the T_a = 0.5 edge divides 0 by 0 for its distance to it
        objective, optimum, chi2_min, dof = quadratic_bowl((1.0, 0.5), (0.05, 0.02), 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # the rays leaving the box through the edge are unbracketed
            with pytest.warns(UserWarning, match="not bracketed"):
                widths, bounded = uncertainty_by_chi2_doubling(
                    objective, optimum, chi2_min, dof, BOX
                )
        assert not bounded
        assert np.all(np.isfinite(widths)) and np.all(widths > 0.0)

    def test_unbracketed_contour_warns(self):
        def flat(points):
            return np.full(points.shape[0], 0.5)

        with pytest.warns(UserWarning):
            widths, bounded = uncertainty_by_chi2_doubling(
                flat, np.array([1.0, 0.7]), 0.5, 1, ((0.0, 3.0), (0.5, 1.0))
            )
        assert not bounded


class TestFitSource:
    def test_noiseless_roundtrip(self):
        measurements = synthetic_noise_measurements(2.04, 0.71, ETAS, rel_sigma=0.012)
        config = DEConfig(population=500, rng_seed=5, spread_tol=1e-7, max_generations=600)
        fit = fit_source(measurements, config)
        assert fit.s == pytest.approx(2.04, abs=1e-3)
        assert fit.T_a == pytest.approx(0.71, abs=1e-3)
        assert fit.chi2 < 1e-8
        assert fit.sigma_s > 0.0
        assert fit.sigma_T_a > 0.0
        assert fit.noise_model == "numeric_oracle"

    def test_perturbed_fit_uncertainty_scale(self):
        rng = np.random.default_rng(np.random.SeedSequence([4242, 7]))
        measurements = synthetic_noise_measurements(2.04, 0.71, ETAS, rel_sigma=0.012, rng=rng)
        config = DEConfig(population=200, rng_seed=7, spread_tol=1e-6, max_generations=400)
        fit = fit_source(measurements, config)
        assert 0.001 < fit.sigma_s < 0.06
        assert 0.001 < fit.sigma_T_a < 0.06

    def test_coherent_source_fits_to_zero_squeezing(self):
        measurements = [
            NoiseMeasurement(channel=c, value=1.0, variance=1e-6, eta=1.0)
            for c in ("diff", "probe", "conj")
        ]
        config = DEConfig(population=200, rng_seed=1, spread_tol=1e-6, max_generations=300)
        with warnings.catch_warnings():
            # T_a is unidentifiable at s = 0; the contour may hit the bounds
            warnings.simplefilter("ignore")
            fit = fit_source(measurements, config)
        assert 0.0 <= fit.s <= 0.01

    def test_printed_formulas_fit_on_criterion_08_triple(self):
        # a contour ray of this fit ends near s = 0, where the printed forms
        # used to fail in atanh(ln T_a / xi)
        measurements, config = criterion_08_inputs(11, 3)
        with warnings.catch_warnings():
            # the printed difference form leaves much of the contour unbracketed
            warnings.simplefilter("ignore", UserWarning)
            fit = fit_source(measurements, config, noise_model="printed_formulas")
        values = (fit.s, fit.sigma_s, fit.T_a, fit.sigma_T_a, fit.chi2)
        assert all(math.isfinite(v) for v in values)
        assert 0.0 <= fit.s <= 3.0 and 0.5 <= fit.T_a <= 1.0
        assert fit.noise_model == "printed_formulas"

    def test_missing_channel_rejected(self):
        measurements = synthetic_noise_measurements(1.0, 0.9, ETAS)[:2]
        with pytest.raises(SchemaError):
            fit_source(measurements, DEConfig(population=16))
