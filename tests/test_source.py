"""Tests for the distributed-loss squeezer model and its closed forms."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    continuum_state,
    gauss_legendre_noises,
    plain_continuum_kernel,
    printed_noises_loop,
)
from qcrbench.config import KEY_ROWS
from qcrbench.errors import ConvergenceError
from qcrbench.gaussian import ChannelOp, apply_loss, bright_mean_photon, two_mode_squeezer
from qcrbench.source import (
    _BLOCK,
    SourceParams,
    _affine_power,
    _layer_affine,
    analytic_noises,
    continuum_gain,
    continuum_noises,
    continuum_sector,
    converged_source,
    layered_source,
    noise_triple,
)

# the config's squeezing cap
MAX_S = KEY_ROWS["s"].high
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
            {"s": 1.0, "T_a": 0.9, "seed_photons": -1.0},
            {"s": 1.0, "T_a": 0.9, "seed_photons": float("nan")},
            {"s": 1.0, "T_a": 0.9, "seed_photons": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SourceParams(**kwargs)

    def test_default_seed(self):
        assert SourceParams(s=1.0, T_a=0.9).seed_photons == 1e6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": [1.0, 2.0], "T_a": 0.5},
            {"s": np.array([1.0]), "T_a": 0.5},
            {"s": 1.0, "T_a": (0.5, 0.6)},
            {"s": 1.0, "T_a": np.array([[0.5]])},
            {"s": 1.0, "T_a": 0.5, "seed_photons": np.array([1e6])},
        ],
    )
    def test_array_fields_rejected(self, kwargs):
        # one element would otherwise stand in for the whole array downstream
        with pytest.raises(ValueError, match="must be a scalar"):
            SourceParams(**kwargs)

    @pytest.mark.parametrize("cast", [float, np.float64, np.array])
    def test_scalar_types_accepted(self, cast):
        params = SourceParams(s=cast(1.0), T_a=cast(0.5), seed_photons=cast(1e6))
        assert continuum_sector(params) == continuum_sector(SourceParams(1.0, 0.5))


class TestLayeredSource:
    @pytest.mark.parametrize("layers", [1, 3, 32])
    @pytest.mark.parametrize("splitting", ["plain", "strang"])
    def test_lossless_stack_is_one_squeezer(self, layers, splitting):
        out = layered_source(SourceParams(s=0.9, T_a=1.0), layers, splitting=splitting)
        squeezer = two_mode_squeezer(0.9).S
        # the default seed is 10^6 photons, d = (2e3, 0, 0, 0)
        assert np.allclose(out.state.d, 2e3 * squeezer[:, 0], rtol=1e-12, atol=1e-12)
        assert np.allclose(out.state.sigma, squeezer @ squeezer.T, rtol=0.0, atol=1e-10)

    def test_pure_loss_gain(self):
        out = layered_source(SourceParams(s=0.0, T_a=0.37), 13)
        assert out.gain == pytest.approx(0.37, rel=1e-12)

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            layered_source(REFERENCE, 0)

    def test_conjugate_sees_no_loss(self):
        # with the squeezer off, the stack is pure probe loss: the conjugate
        # quadratures pass through exactly untouched
        params = SourceParams(s=0.0, T_a=0.5)
        out = layered_source(params, 64)
        assert np.allclose(out.state.sigma[2:, 2:], np.eye(2), atol=1e-14)
        # loss on a vacuum conjugate leaves its moments unchanged, so read the
        # stack's mean-field map itself
        stack_map, _ = _affine_power(*_layer_affine(params, 64, "strang"), 64)
        assert np.allclose(stack_map[2:, 2:], np.eye(2), atol=1e-14)
        assert np.allclose(stack_map[:2, :2], math.sqrt(0.5) * np.eye(2), atol=1e-12)

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

    def test_ladder_ends_at_its_rounding_floor(self):
        # here the change shrinks 4x per doubling down to 1.0e-10 at 2^17
        # slices, then rounding holds it (1.05e-10 at 2^18), so rel_tol = 1e-10
        # is out of reach: the ladder returns the 2^17-slice output, within the
        # tolerances the noise-map benchmark holds it to
        params = SourceParams(s=2.971327170439733, T_a=0.527952855208807)
        out = converged_source(params, rel_tol=1e-10)
        assert out.layers_used == 2**17
        exact = continuum_noises(params.s, params.T_a)
        assert noise_triple(out.state).diff == pytest.approx(float(exact.diff), rel=1e-7)
        assert out.gain == pytest.approx(float(continuum_gain(params.s, params.T_a)), rel=1e-8)

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
        from oracles import symplectic_eigenvalues

        out = converged_source(SourceParams(s=s, T_a=ta))
        assert np.all(symplectic_eigenvalues(out.state) >= 1.0 - 1e-9)
        lossy = apply_loss(out.state, ChannelOp([0.7, 0.9]))
        assert np.all(symplectic_eigenvalues(lossy) >= 1.0 - 1e-9)


class TestContinuumNoises:
    @pytest.mark.parametrize("ta", [0.73, 1.0])
    def test_shot_noise_at_zero_squeezing(self, ta):
        # pure probe loss: coherent noises and gain T_a (unity without pumping)
        triple = continuum_noises(0.0, ta)
        assert float(triple.diff) == pytest.approx(1.0, abs=1e-12)
        assert float(triple.probe) == pytest.approx(1.0, abs=1e-12)
        assert float(triple.conj) == pytest.approx(1.0, abs=1e-12)
        assert float(continuum_gain(0.0, ta)) == pytest.approx(ta, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [1.0, 2.04])
    def test_lossless_reductions(self, s):
        triple = continuum_noises(s, 1.0)
        assert float(triple.diff) == pytest.approx(1.0 / math.cosh(2.0 * s), rel=1e-12)
        assert float(triple.probe) == pytest.approx(math.cosh(2.0 * s), rel=1e-12)
        assert float(triple.conj) == pytest.approx(math.cosh(2.0 * s), rel=1e-12)
        assert float(continuum_gain(s, 1.0)) == pytest.approx(math.cosh(s) ** 2, rel=1e-12)

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
            (float("nan"), 0.9, "finite and non-negative"),
            (math.inf, 0.9, "finite and non-negative"),
            (-1.0, 0.9, "finite and non-negative"),
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
            with pytest.raises(ValueError, match="finite and non-negative"):
                kernel(s, good_ta)
        ta = good_ta.copy()
        ta[1] = float("nan")
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            kernel(good_s, ta)


    def test_lossless_strong_squeezing_stays_finite(self):
        # at T_a = 1 the vacuum term vanishes; its rates must not overflow there
        s = 20.0
        triple = continuum_noises(s, 1.0)
        assert float(triple.probe) == pytest.approx(math.cosh(2.0 * s), rel=1e-12)
        assert float(triple.conj) == pytest.approx(math.cosh(2.0 * s), rel=1e-12)
        assert math.isfinite(float(triple.diff))
        assert float(continuum_gain(s, 1.0)) == pytest.approx(math.cosh(s) ** 2, rel=1e-12)


def _block_inputs():
    rng = np.random.default_rng(20261018)
    n = 3 * _BLOCK + 1234
    return {
        "three_blocks_and_a_remainder": (
            rng.uniform(0.0, MAX_S, n),
            10.0 ** rng.uniform(-300.0, 0.0, n),
        ),
        # a column of s against a row of T_a, spanning two blocks and a part
        "broadcast_2d": (
            rng.uniform(0.0, MAX_S, (_BLOCK // 64 + 5, 1)),
            rng.uniform(0.05, 1.0, 131),
        ),
        "empty": (np.empty(0), np.empty(0)),
    }


BLOCK_INPUTS = _block_inputs()


def _bits(value) -> np.ndarray:
    return np.asarray(value, dtype=float).view(np.uint64)


def _kernel_outputs(s, ta) -> tuple:
    triple = continuum_noises(s, ta)
    return triple.diff, triple.probe, triple.conj, continuum_gain(s, ta)


class TestBlockEvaluation:
    """Batches larger than one block are cut into blocks with the same bits."""

    @pytest.mark.parametrize("case", sorted(BLOCK_INPUTS))
    def test_blocks_match_slices_and_scalars(self, case):
        s, ta = BLOCK_INPUTS[case]
        s_before, ta_before = s.copy(), ta.copy()
        outputs = _kernel_outputs(s, ta)
        assert np.array_equal(s, s_before) and np.array_equal(ta, ta_before)
        shape = np.broadcast_shapes(s.shape, ta.shape)
        for value in outputs:
            assert isinstance(value, np.ndarray) and value.shape == shape and value.dtype == float
        flat_s, flat_ta = (np.broadcast_to(x, shape).ravel() for x in (s, ta))
        # single-block calls over slices that straddle the block edges
        step = _BLOCK // 3 + 7
        pieces = [
            _kernel_outputs(flat_s[start : start + step], flat_ta[start : start + step])
            for start in range(0, flat_s.size, step)
        ]
        for index, value in enumerate(outputs):
            joined = np.concatenate([piece[index] for piece in pieces] or [np.empty(0)])
            assert np.array_equal(_bits(value.ravel()), _bits(joined))
        # scalar calls at the block edges and at random points
        picks = [0, _BLOCK - 1, _BLOCK, flat_s.size - 1]
        picks += list(np.random.default_rng(0).integers(0, flat_s.size + 1, 16))
        for j in (j for j in picks if 0 <= j < flat_s.size):
            single = _kernel_outputs(float(flat_s[j]), float(flat_ta[j]))
            for value, scalar in zip(outputs, single):
                assert _bits(value.flat[j]) == _bits(scalar)

    def test_peak_memory_is_block_sized(self):
        n = 2**16
        rng = np.random.default_rng(7)
        s, ta = rng.uniform(0.0, MAX_S, n), rng.uniform(0.05, 1.0, n)
        continuum_noises(s[:8], ta[:8])
        tracemalloc.start()
        try:
            triple = continuum_noises(s, ta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert triple.diff.shape == (n,)
        # the three outputs plus the kernel's block-sized temporaries, about
        # 15 of them, with margin
        assert peak < 3 * 8 * n + 24 * 8 * _BLOCK


def _plain_kernel_inputs():
    rng = np.random.default_rng(20261020)
    n = 3 * _BLOCK + 7
    edges_s = np.array([0.0, 5e-324, 1e-310, 1e-9, 2.04, MAX_S])
    edges_ta = np.array([1.0, 0.71, 1e-30, 1e-300])
    grid_s, grid_ta = np.meshgrid(edges_s, edges_ta)
    box_s = rng.uniform(0.0, MAX_S, n)
    # the config box: every T_a in (0, 1], over decades and near 1
    decades = 10.0 ** rng.uniform(-300.0, 0.0, n)
    box_ta = np.where(rng.random(n) < 0.5, decades, rng.uniform(0.0, 1.0, n))
    box_ta[box_ta == 0.0] = 1.0
    # the edge grid spread over the blocks, so some edges sit at block boundaries
    spots = [0, _BLOCK - 3, 2 * _BLOCK - 3, n - grid_s.size // 4]
    mixed_s, mixed_ta = box_s.copy(), box_ta.copy()
    for k, (s, ta) in enumerate(zip(grid_s.ravel(), grid_ta.ravel())):
        at = spots[k % 4] + k // 4
        mixed_s[at], mixed_ta[at] = s, ta
    return {
        "config_box": (box_s, box_ta),
        "config_box_with_edges": (mixed_s, mixed_ta),
        "edge_grid": (grid_s, grid_ta),
        "s_0": (np.zeros(7), rng.uniform(1e-3, 1.0, 7)),
        "T_a_1": (rng.uniform(0.0, MAX_S, 7), np.ones(7)),
        "s_0_and_T_a_1": (np.zeros(3), np.ones(3)),
        "scalar": (2.04, 0.71),
        "scalar_s_0_T_a_1": (0.0, 1.0),
        "zero_dimensional": (np.array(1e-310), np.array(1e-300)),
        "shape_3x5": (rng.uniform(0.0, MAX_S, (3, 5)), rng.uniform(1e-30, 1.0, (3, 5))),
        "size_1": (box_s[:1], box_ta[:1]),
        "size_block": (box_s[:_BLOCK], box_ta[:_BLOCK]),
        "size_block_plus_1": (box_s[: _BLOCK + 1], box_ta[: _BLOCK + 1]),
    }


PLAIN_KERNEL_INPUTS = _plain_kernel_inputs()


class TestPlainKernelBits:
    """The blocked, in-place kernel equals the plain whole-array expressions bit for bit.

    Block-against-slice comparisons cannot see a change that moves the same
    bits in every block; this oracle can.  uint64 views make NaN and inf
    patterns count.
    """

    @staticmethod
    def _assert_bits(s, ta):
        plain = plain_continuum_kernel(s, ta)
        triple = continuum_noises(s, ta)
        gain = continuum_gain(s, ta)
        outputs = {"diff": triple.diff, "s00": triple.probe, "s11": triple.conj, "gain": gain}
        for name, value in outputs.items():
            assert np.shape(value) == plain[name].shape, name
            assert np.array_equal(_bits(value), _bits(plain[name])), name

    @pytest.mark.parametrize("case", sorted(PLAIN_KERNEL_INPUTS))
    def test_noises_and_gain(self, case):
        self._assert_bits(*PLAIN_KERNEL_INPUTS[case])

    def test_overflowing_squeezing(self):
        # at s = 300 the products in diff overflow to inf, and inf - inf is NaN
        s = np.full(4, 300.0)
        ta = np.array([1.0, 0.5, 1e-30, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self._assert_bits(s, ta)
            assert np.isnan(continuum_noises(s, ta).diff).any()

    @pytest.mark.parametrize("ta", [1.0, 0.71, 1e-30, 1e-300])
    @pytest.mark.parametrize("s", [0.0, 5e-324, 1e-310, 2.04, MAX_S])
    def test_sector(self, s, ta):
        params = SourceParams(s=s, T_a=ta)
        plain = plain_continuum_kernel(s, ta)
        amplitude = 2.0 * math.sqrt(params.seed_photons)
        expected = (
            amplitude * float(plain["m11"]),
            amplitude * float(plain["m21"]),
            *(float(plain[name]) for name in ("s00", "s01", "s11")),
        )
        assert _bits(continuum_sector(params)).tolist() == _bits(expected).tolist()


TINY_TRANSMISSIONS = [1e-30, 1e-100, 1e-300]


class TestSmallInternalTransmission:
    """The kernel at T_a far below 1, where the cosh - sinh form of M cancels."""

    @pytest.mark.parametrize("ta", TINY_TRANSMISSIONS)
    @pytest.mark.parametrize("s", [0.0, 1e-9, 0.1])
    def test_finite_without_warnings(self, s, ta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gain = continuum_gain(s, ta)
            triple = continuum_noises(s, ta)
        values = (gain, triple.diff, triple.probe, triple.conj)
        assert all(math.isfinite(float(v)) and float(v) > 0.0 for v in values)

    @pytest.mark.parametrize("ta", TINY_TRANSMISSIONS)
    def test_pure_loss_limit(self, ta):
        assert float(continuum_gain(0.0, ta)) == pytest.approx(ta, rel=1e-12, abs=0.0)
        triple = continuum_noises(0.0, ta)
        for value in (triple.diff, triple.probe, triple.conj):
            assert float(value) == pytest.approx(1.0, abs=1e-12)

    def test_array_matches_scalar(self):
        s, ta = np.meshgrid([0.0, 1e-9, 0.1], TINY_TRANSMISSIONS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gains = continuum_gain(s, ta)
            triple = continuum_noises(s, ta)
        assert gains.shape == triple.diff.shape == s.shape
        for idx in np.ndindex(s.shape):
            assert gains[idx] == continuum_gain(s[idx], ta[idx])
            single = continuum_noises(s[idx], ta[idx])
            assert (triple.diff[idx], triple.probe[idx], triple.conj[idx]) == (
                single.diff,
                single.probe,
                single.conj,
            )
        assert np.allclose(gains[:, 0], TINY_TRANSMISSIONS, rtol=1e-12, atol=0.0)


def _state_oracle_points():
    rng = np.random.default_rng(np.random.SeedSequence([2026, 8]))
    box = zip(rng.uniform(0.0, MAX_S, 20), rng.uniform(0.05, 1.0, 20))
    return [(float(s), float(ta)) for s, ta in box] + [(0.0, 1.0), (MAX_S, 1.0), (1e-9, 0.71)]


class TestContinuumState:
    @pytest.mark.parametrize("s, ta", _state_oracle_points())
    def test_matches_slice_ladder(self, s, ta):
        params = SourceParams(s=s, T_a=ta)
        state = continuum_state(params)
        ladder = converged_source(params).state
        d_scale = np.max(np.abs(ladder.d))
        sigma_scale = np.max(np.abs(ladder.sigma))
        assert np.max(np.abs(state.d - ladder.d)) <= 1e-8 * d_scale
        assert np.max(np.abs(state.sigma - ladder.sigma)) <= 1e-8 * sigma_scale

    def test_unpumped_lossless_source_is_the_seed(self):
        state = continuum_state(SourceParams(s=0.0, T_a=1.0, seed_photons=1e6))
        assert np.array_equal(state.d, [2e3, 0.0, 0.0, 0.0])
        assert np.array_equal(state.sigma, np.eye(4))

    def test_lossless_source_is_one_squeezer(self):
        squeezer = two_mode_squeezer(1.3).S
        state = continuum_state(SourceParams(s=1.3, T_a=1.0, seed_photons=4.0))
        assert np.allclose(state.sigma, squeezer @ squeezer.T, rtol=1e-13, atol=1e-13)
        assert np.allclose(state.d, 4.0 * squeezer[:, 0], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("s, ta", [(0.3, 0.95), (2.04, 0.71), (3.0, 0.5), (0.1, 1e-100)])
    def test_noises_and_gain_match_the_kernels(self, s, ta):
        state = continuum_state(SourceParams(s=s, T_a=ta, seed_photons=1e6))
        triple = noise_triple(state)
        exact = continuum_noises(s, ta)
        assert triple.diff == pytest.approx(float(exact.diff), rel=1e-10)
        assert triple.probe == pytest.approx(float(exact.probe), rel=1e-12)
        assert triple.conj == pytest.approx(float(exact.conj), rel=1e-12)
        gain = bright_mean_photon(state, 0) / 1e6
        assert gain == pytest.approx(float(continuum_gain(s, ta)), rel=1e-12, abs=0.0)


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
        # the formula as printed, with cos(xi/2), produces a negative noise at s = 1, T_a = 1
        assert printed_noises_loop(1.0, 1.0, corrected_probe=False).probe < 0.0

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
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            analytic_noises(np.array([1.0, float("nan")]), 0.9)
        # sinh(xi/4)^4 overflows from s ~ 178, cosh(xi/2) from s ~ 355
        for s in (200.0, 400.0):
            with pytest.raises(ValueError, match=f"overflow .* at s = {s!r}, T_a = 0.9$"):
                analytic_noises(np.array([1.0, s]), 0.9)

    @pytest.mark.parametrize("s, ta", [(1e-9, 1e-315), (50.0, 1e-300)])
    def test_overflow_names_the_point_at_small_internal_transmission(self, s, ta):
        # xi = sqrt(16 s^2 + ln^2 T_a) passes ~712.5 far below s = 178 here,
        # where the probe and conjugate forms are still finite
        with pytest.raises(ValueError, match=f"overflow .* at s = {s!r}, T_a = {ta!r}$"):
            analytic_noises(s, ta)
        with pytest.raises(ValueError, match=f"at s = {s!r}, T_a = {ta!r}$"):
            analytic_noises(np.array([0.5, s]), np.array([0.9, ta]))

    def test_vectorized_matches_scalar_loop(self):
        rng = np.random.default_rng(np.random.SeedSequence([2026, 5]))
        s = np.concatenate([rng.uniform(1e-3, 3.5, 2000), [0.1, 1.0, 2.04, 3.5]])
        ta = np.concatenate([rng.uniform(1e-3, 1.0, 2000), [1.0, 1.0, 0.71, 1e-3]])
        got = analytic_noises(s, ta)
        want = printed_noises_loop(s, ta)
        assert np.max(np.abs(got.diff - want.diff) / np.abs(want.diff)) <= 1e-14
        assert np.max(np.abs(got.conj - want.conj) / np.abs(want.conj)) <= 1e-14
        assert np.max(np.abs(got.probe - want.probe) / want.probe) <= 1e-14

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
    def test_detected_squeezing_near_8db(self):
        detected = apply_loss(converged_source(REFERENCE).state, ChannelOp([0.919, 0.919]))
        db = -10.0 * math.log10(noise_triple(detected).diff)
        assert 6.5 <= db <= 9.5
