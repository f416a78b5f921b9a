"""Tests for noise backtracking, chi-square, differential evolution, and fits."""

import dataclasses
import functools
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    log_uniform,
    reference_chi_square_batch,
    reference_differential_evolution,
    sequential_chi2_doubling,
)
from qcrbench import inference
from qcrbench.errors import NonPhysicalError, SchemaError
from qcrbench.inference import (
    DEConfig,
    DEResult,
    NoiseMeasurement,
    backtrack_measurement,
    backtrack_noise,
    chi_square_batch,
    differential_evolution,
    fit_source,
    synthetic_noise_measurements,
    uncertainty_by_chi2_doubling,
)
from qcrbench.source import NoiseTriple

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


@st.composite
def contour_problems(draw):
    """A bowl on BOX, maybe with plateaus, a NaN or inf hole, or jitter.

    The centre lies on an edge, a corner or inside, the widths span four
    decades of the box, plateaus make the secant through two values flat,
    and a jitter of 1e-13 relative, a fixed function of the point, makes
    the last bisection decisions unpredictable.
    """
    center = [draw(st.sampled_from(edge) | st.floats(*edge)) for edge in BOX]
    widths = [(hi - lo) * draw(log_uniform(-4)) for lo, hi in BOX]
    chi2_min = draw(st.just(0.0) | log_uniform(-3).map(lambda x: 30.0 * x))
    plateau = draw(st.sampled_from([0.0, 1e-3, 0.3]))
    hole = draw(st.sampled_from([None, np.nan, np.inf]))
    hole_above = draw(st.floats(*BOX[1]))
    jitter = draw(st.sampled_from([0.0, 1e-13]))

    def objective(points):
        ds = (points[:, 0] - center[0]) / widths[0]
        dt = (points[:, 1] - center[1]) / widths[1]
        values = ds * ds + dt * dt
        if plateau:
            values = np.floor(values / plateau) * plateau
        values += chi2_min
        if jitter:
            values *= 1.0 + jitter * np.modf(1e7 * points[:, 0] + 3e7 * points[:, 1])[0]
        if hole is not None:
            values[points[:, 1] > hole_above] = hole
        return values

    return objective, np.array(center), chi2_min, draw(st.integers(1, 4))


def same_bits(a, b) -> bool:
    """Equal type, dtype, shape and bytes: NaN and the sign of zero included."""
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def criterion_08_objective(seed: int, noise_model: str = "numeric_oracle"):
    measurements, config = criterion_08_inputs(seed, 0)
    at_source = [backtrack_measurement(m) for m in measurements]
    return (lambda points: chi_square_batch(at_source, points, noise_model)), config


def unit_bowl(points):
    return (points[:, 0] - 0.3) ** 2 + (points[:, 1] - 0.6) ** 2


def holed_unit_bowl(hole):
    def objective(points):
        return np.where(points[:, 0] < 0.2, hole, unit_bowl(points))

    return objective


UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))


def enabled_dispatch_targets() -> tuple:
    """The numpy SIMD dispatch targets this process may run, lowest first."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return tuple(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


# sha256 of the per-fit lines of `test_contour_pinned_over_criterion_08_fits`
# for `fitted_objective(1, i)`, i = 1..120, by numpy version and the dispatch
# targets enabled: the X86_V4 kernels and the X86_V3 ones round differently
_PIN_V3 = "38282ecfffd9289e3c9e3609d3ec3ac610035ae544d6e07b411c73805668d98c"
_PIN_V4 = "d5e05d7b792bccae6012e63342341270b47d8af024fcd0ede9181733cb7aa9d1"
CONTOUR_PIN_DIGESTS = {
    ("2.4.6", ("X86_V3",)): _PIN_V3,
    ("2.4.6", ("X86_V3", "X86_V4")): _PIN_V4,
    ("2.4.6", ("X86_V3", "X86_V4", "AVX512_ICL")): _PIN_V4,
    ("2.4.6", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")): _PIN_V4,
}

# name -> (objective, config) maker for the DE oracle comparison
DE_CASES = {
    **{
        f"criterion_08_{seed}": functools.partial(criterion_08_objective, seed)
        for seed in range(8)
    },
    "criterion_08_printed": lambda: criterion_08_objective(3, "printed_formulas"),
    "nan_holes": lambda: (
        holed_unit_bowl(np.nan),
        DEConfig(population=40, bounds=UNIT_BOX, rng_seed=1, max_generations=40),
    ),
    "minus_inf_holes": lambda: (
        holed_unit_bowl(-np.inf),
        DEConfig(population=40, bounds=UNIT_BOX, rng_seed=2, max_generations=40),
    ),
    # two valid (j, k) pairs per target out of 16: nearly every draw collides
    "population_4": lambda: (
        unit_bowl,
        DEConfig(population=4, bounds=UNIT_BOX, rng_seed=6, max_generations=50),
    ),
    "max_generations": lambda: (
        unit_bowl,
        DEConfig(population=30, bounds=UNIT_BOX, rng_seed=3, spread_tol=0.0, max_generations=25),
    ),
    "no_generations": lambda: (
        unit_bowl,
        DEConfig(population=30, bounds=UNIT_BOX, rng_seed=3, max_generations=0),
    ),
    "always_accept": lambda: (
        unit_bowl,
        DEConfig(population=30, bounds=UNIT_BOX, rng_seed=8, acceptance_prob=1.0),
    ),
    # the minimum sits on a -0.0 bound, so candidates are clipped onto zeros
    "signed_zero_bound": lambda: (
        lambda points: points[:, 0] + points[:, 1],
        DEConfig(population=30, bounds=((-0.0, 1.0), (0.0, 1.0)), rng_seed=4),
    ),
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

    @pytest.mark.parametrize(
        "value, variance",
        [
            (math.inf, 1e-6),  # log variance 0
            (0.15, math.inf),  # log variance inf
            (1e200, 1e-6),  # (N ln 10)^2 overflows
            (1.0, 5e-324),  # log variance underflows to 0
            (1e-160, 1.0),  # log variance overflows
            (1e-300, 1e-6),  # (N ln 10)^2 underflows to 0
            (5e-324, 1.0),  # (N ln 10)^2 underflows to 0
        ],
    )
    def test_log_variance_must_be_finite_and_positive(self, value, variance):
        with pytest.raises(NonPhysicalError, match="log-scale variance"):
            NoiseMeasurement(channel="diff", value=value, variance=variance)

    def test_backtracked_variance_must_stay_finite(self):
        tiny_eta = NoiseMeasurement(channel="probe", value=20.0, variance=1e-2, eta=1e-170)
        with pytest.raises(NonPhysicalError, match="eta is too small"):
            backtrack_measurement(tiny_eta)
        measured = NoiseMeasurement(channel="probe", value=1e150, variance=1.0, eta=1e-10)
        # (N ln 10)^2 of the backtracked noise, 1e160, leaves the float range
        with pytest.raises(NonPhysicalError, match="log-scale variance"):
            backtrack_measurement(measured)


class TestChiSquare:
    def source_level_triple(self, s, ta, rel=0.01):
        return [
            backtrack_measurement(m)
            for m in synthetic_noise_measurements(s, ta, ETAS, rel_sigma=rel)
        ]

    def test_zero_at_generating_point(self):
        triple = self.source_level_triple(2.04, 0.71)
        assert chi_square_batch(triple, (2.04, 0.71)) == pytest.approx(0.0, abs=1e-18)

    def test_increases_away_from_optimum(self):
        triple = self.source_level_triple(1.5, 0.8)
        base = chi_square_batch(triple, (1.5, 0.8))
        assert chi_square_batch(triple, (1.6, 0.8)) > base
        assert chi_square_batch(triple, (1.5, 0.75)) > base

    def test_channel_order_irrelevant(self):
        triple = self.source_level_triple(1.2, 0.9)
        assert chi_square_batch(triple, (1.3, 0.85)) == chi_square_batch(triple[::-1], (1.3, 0.85))

    def test_missing_channel_rejected(self):
        with pytest.raises(SchemaError):
            chi_square_batch(self.source_level_triple(1.0, 0.9)[:2], (1.0, 0.9))

    def test_duplicate_channel_rejected(self):
        triple = self.source_level_triple(1.0, 0.9)
        with pytest.raises(SchemaError):
            chi_square_batch([triple[0], triple[0], triple[1]], (1.0, 0.9))

    @pytest.mark.parametrize("noise_model", ["numeric_oracle", "printed_formulas"])
    @pytest.mark.parametrize("shape", [(), (1,), (257,), (3, 5)])
    def test_bit_identical_to_reference(self, noise_model, shape):
        triple = self.source_level_triple(2.04, 0.71)
        rng = np.random.default_rng(np.random.SeedSequence([len(shape), sum(shape)]))
        points = np.stack(
            [rng.uniform(0.0, 3.0, shape), rng.uniform(0.5, 1.0, shape)], axis=-1
        )
        if points.ndim == 2 and points.shape[0] > 4:
            # the box corners and edges
            points[:4] = [[0.0, 0.5], [0.0, 1.0], [3.0, 0.5], [3.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = chi_square_batch(triple, points, noise_model)
            want = reference_chi_square_batch(triple, points, noise_model)
        assert same_bits(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_non_positive_model_noises_give_inf(self, monkeypatch, seed):
        special = [0.0, -0.0, -1.0, -1e308, -np.inf, np.nan, np.inf, 5e-324, 1e-310, 1e308]
        special += [0.08, 1.0, 25.0]
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        # each channel draws from the pool, so points mix kinds across channels;
        # both routes read the same arrays, the new one first
        noises = NoiseTriple(*rng.choice(special, size=(3, 600)))
        monkeypatch.setattr(inference, "_model_noises", lambda s, T_a, noise_model: noises)
        triple = self.source_level_triple(1.5, 0.8)
        points = np.zeros((600, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = chi_square_batch(triple, points)
            want = reference_chi_square_batch(triple, points)
        assert same_bits(got, want)
        assert np.isinf(got).any() and np.isfinite(got).any()

    def test_printed_formulas_model_available(self):
        triple = self.source_level_triple(1.0, 0.9)
        value = chi_square_batch(triple, (1.0, 0.9), noise_model="printed_formulas")
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
        assert a.generations == b.generations
        assert np.array_equal(a.population, b.population)
        assert np.array_equal(a.values, b.values)

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

    @pytest.mark.parametrize("case", sorted(DE_CASES))
    def test_bit_identical_to_reference(self, case):
        objective, config = DE_CASES[case]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = differential_evolution(objective, config)
            want = reference_differential_evolution(objective, config)
        for f in dataclasses.fields(DEResult):
            assert same_bits(getattr(got, f.name), getattr(want, f.name)), f.name
        if "holes" in case:
            assert got.discarded > 0
        if case == "max_generations":
            assert got.generations == config.max_generations
        if case == "signed_zero_bound":
            assert np.signbit(got.population[:, 0]).any()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("population", 4.5),
            ("population", True),
            ("population", "8"),
            ("max_generations", -3),
            ("max_generations", 10.0),
            ("max_generations", False),
            ("rng_seed", -1),
            ("rng_seed", 1.5),
            ("rng_seed", True),
            ("spread_tol", -1e-6),
            ("spread_tol", math.nan),
            ("spread_tol", math.inf),
        ],
    )
    def test_config_domain(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            DEConfig(**{field: value})

    def test_config_accepts_numpy_integers_and_zero_generations(self):
        config = DEConfig(
            population=np.int64(8), max_generations=np.int32(0), rng_seed=np.uint8(3)
        )
        result = differential_evolution(unit_bowl, dataclasses.replace(config, bounds=UNIT_BOX))
        assert result.generations == 0


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
    def test_bit_identical_to_sequential_bisection(self, case, steps, n_rays):
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
        # the first call evaluates every bracket top and the path of each ray
        # that keeps halving its bracket; every call takes a step on each ray
        # it refines
        first_path = min(steps, (inference.CONTOUR_BATCH - n_rays) // n_rays)
        assert batch_sizes[0] == n_rays * (1 + first_path)
        assert len(batch_sizes) <= max(steps, 1)
        assert max(batch_sizes) <= inference.CONTOUR_BATCH

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

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(problem=contour_problems(), steps=st.integers(0, 64), n_rays=st.integers(1, 100))
    def test_matches_sequential_bisection(self, problem, steps, n_rays):
        objective, optimum, chi2_min, dof = problem
        batch_sizes = []

        def counted(points):
            batch_sizes.append(points.shape[0])
            return objective(points)

        with warnings.catch_warnings():
            # unbracketed rays warn on both routes
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", RuntimeWarning)
            widths, bounded = uncertainty_by_chi2_doubling(
                counted, optimum, chi2_min, dof, BOX, n_rays=n_rays, bisection_steps=steps
            )
            want_widths, want_bounded = sequential_chi2_doubling(
                objective, optimum, chi2_min, dof, BOX, n_rays=n_rays, bisection_steps=steps
            )
        assert same_bits(widths, want_widths)
        assert bounded == want_bounded
        assert max(batch_sizes) <= inference.CONTOUR_BATCH

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

    def test_objective_calls_per_stage(self, monkeypatch):
        # the benchmark's tracer wraps these three names; its per-layer
        # chi-square counts rest on fit_source calling chi_square_batch by name
        stage = []
        calls = []
        chi_square_batch = inference.chi_square_batch

        def counted(measurements, points, noise_model="numeric_oracle"):
            calls.append((stage[-1], points.shape[0]))
            return chi_square_batch(measurements, points, noise_model)

        def staged(name, function):
            def wrapper(*args, **kwargs):
                stage.append(name)
                try:
                    return function(*args, **kwargs)
                finally:
                    stage.pop()

            return wrapper

        monkeypatch.setattr(inference, "chi_square_batch", counted)
        monkeypatch.setattr(
            inference, "differential_evolution", staged("de", inference.differential_evolution)
        )
        monkeypatch.setattr(
            inference,
            "uncertainty_by_chi2_doubling",
            staged("contour", inference.uncertainty_by_chi2_doubling),
        )
        measurements, config = criterion_08_inputs(11, 0)
        fit = fit_source(measurements, config)
        de = [n for name, n in calls if name == "de"]
        contour = [n for name, n in calls if name == "contour"]
        assert len(calls) == len(de) + len(contour)
        assert len(de) == 1 + fit.generations
        assert de == [config.population] + [config.population - 1] * fit.generations
        # 60 bisection steps on 64 rays, which a call per step would make in 61
        assert contour == [512, 512, 480, 306, 267, 260, 31]

    def test_contour_calls_over_criterion_08_fits(self):
        # the benchmark's fit_coverage inputs of seed 1; one bisection step
        # per call would make 61 calls
        calls = []
        for i in range(1, 121):
            objective, optimum, chi2_min, dof = fitted_objective(1, i)
            batch_sizes = []

            def counted(points):
                batch_sizes.append(points.shape[0])
                return objective(points)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                uncertainty_by_chi2_doubling(counted, optimum, chi2_min, dof, BOX)
            assert max(batch_sizes) <= inference.CONTOUR_BATCH
            calls.append(len(batch_sizes))
        assert np.mean(calls) <= 8

    def test_contour_pinned_over_criterion_08_fits(self):
        # each fit's batch sizes, widths and DE optimum, bit for bit, as one
        # digest; the chi-square's exp and log round differently per numpy
        # version and SIMD dispatch level, so each one recorded has its own
        level = (np.__version__, enabled_dispatch_targets())
        if level not in CONTOUR_PIN_DIGESTS:
            pytest.skip(f"no contour digest recorded for numpy and dispatch targets {level}")
        lines = []
        for i in range(1, 121):
            objective, optimum, chi2_min, dof = fitted_objective(1, i)
            batch_sizes = []

            def counted(points):
                batch_sizes.append(points.shape[0])
                return objective(points)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                widths, _ = uncertainty_by_chi2_doubling(counted, optimum, chi2_min, dof, BOX)
            bits = [float(x).hex() for x in (*widths, *optimum, chi2_min)]
            lines.append(f"{i} {batch_sizes} {' '.join(bits)}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == CONTOUR_PIN_DIGESTS[level]

    def test_peak_memory_per_member(self):
        # the model's temporaries set the peak; the parent of the in-place
        # generations measured 203 bytes per member here
        measurements = synthetic_noise_measurements(2.04, 0.71, ETAS, rel_sigma=0.012)
        config = DEConfig(population=10_000, rng_seed=1, max_generations=30)
        fit_source(measurements, DEConfig(population=16, max_generations=2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tracemalloc.start()
            try:
                fit_source(measurements, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 26 * 8 * config.population
