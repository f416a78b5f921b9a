"""Tests for the transmission-estimation bounds and their reductions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrbench.bounds import (
    _FD_MISMATCH_TOL,
    _distributed_rates,
    BoundPoint,
    LossBudget,
    ProbeChain,
    advantage_ratio,
    build_chain,
    conjugate_factor,
    conjugate_factor_distributed,
    distributed_reduction,
    qcrb_coherent,
    qcrb_distributed,
    qcrb_numeric_gaussian,
    qcrb_pure_btmss,
    qcrb_ultimate,
)
from qcrbench.config import MAX_S
from qcrbench.detection import transmission_variance
from qcrbench.errors import NonPhysicalError
from qcrbench.gaussian import (
    ChannelOp,
    GaussianState,
    apply_loss,
    coherent_state,
    symplectic_eigenvalues,
    vacuum_state,
)
from qcrbench.source import SourceParams, _slice_dynamics, continuum_state

PARAMS = SourceParams(s=2.04, T_a=0.71)
BUDGET = LossBudget(T_p=0.973, eta_p=0.945, eta_c=0.919)
_LOSSLESS = LossBudget(T_p=1.0, eta_p=1.0, eta_c=1.0)
GRID = np.round(0.10 + 0.05 * np.arange(16), 12)


def three_stage_state(chain: ProbeChain, T: float):
    """Chain output at T with all three loss stages applied from the source state."""
    state = apply_loss(chain.source_state, ChannelOp([chain.budget.T_p, 1.0]))
    state = apply_loss(state, ChannelOp([T, 1.0]))
    return apply_loss(state, ChannelOp([chain.budget.eta_p, chain.budget.eta_c]))


class ThreeStageChain:
    """Oracle chain whose `state_at` rebuilds every stage on each call."""

    def __init__(self, chain: ProbeChain):
        self.chain = chain
        self.n_input = chain.n_input

    def state_at(self, T: float):
        return three_stage_state(self.chain, T)


def six_state_numeric_var_n(chain: ProbeChain, T: float) -> float:
    """Reference numeric bound: one full chain state for the bound, four for the audit.

    `qcrb_numeric_gaussian` reuses its state and builds no covariance for the
    audit; it must return the same bits as this route.
    """
    state = three_stage_state(chain, T)
    d = three_stage_state(chain, T).d
    derivative = np.zeros_like(d)
    derivative[:2] = d[:2] / (2.0 * T)
    step = 1e-6 * T
    center = T if T + step <= 1.0 else T - step
    plus = three_stage_state(chain, center + step).d[:2]
    minus = three_stage_state(chain, center - step).d[:2]
    fd = (plus - minus) / (2.0 * step)
    reference = three_stage_state(chain, center).d[:2] / (2.0 * center)
    assert np.linalg.norm(fd - reference) / np.linalg.norm(reference) <= _FD_MISMATCH_TOL
    fisher = float(derivative @ np.linalg.solve(state.sigma, derivative))
    return chain.n_input / fisher


ORACLE_SOURCES = [
    (2.04, 0.71),
    (1e-9, 0.71),
    (2.04, 1.0),
    (2.04, 1e-300),
    (MAX_S, 0.71),
    (MAX_S, 1.0),
]
ORACLE_BUDGETS = [BUDGET, _LOSSLESS]
ORACLE_T = [1e-300, 0.01, 0.1, 0.3, 0.5, 0.84, 0.99, 1.0 - 1e-7, 1.0]


class TestConjugateFactor:
    def test_unit_conjugate_transmission(self):
        assert conjugate_factor(1.0, 1.3) == pytest.approx(1.0, rel=1e-14)

    def test_half_transmission_kills_advantage(self):
        assert conjugate_factor(0.5, 2.0) == 0.0
        assert conjugate_factor_distributed(0.5, 1.7, 0.8) == 0.0

    def test_distributed_form_reduces_at_unit_internal_transmission(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            eta_c = rng.uniform(0.0, 1.0)
            s = rng.uniform(0.0, 3.0)
            assert conjugate_factor_distributed(eta_c, s, 1.0) == pytest.approx(
                conjugate_factor(eta_c, s), rel=1e-12, abs=1e-12
            )

    def test_unit_eta_c_gives_one(self):
        for s, ta in ((0.5, 0.9), (2.04, 0.71), (3.0, 0.5)):
            assert conjugate_factor_distributed(1.0, s, ta) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value_against_pure_form(self):
        # eta_c = 0.919, s = 2.04: the distributed factor at T_a = 1 is the
        # pure-source factor
        assert conjugate_factor_distributed(0.919, 2.04, 1.0) == pytest.approx(
            conjugate_factor(0.919, 2.04), rel=1e-12
        )


class TestRates:
    def test_lossless_mixing_rate(self):
        xi, _ = _distributed_rates(1.2, 1.0)
        assert xi == pytest.approx(4.8, rel=1e-14)

    def test_lossless_norm(self):
        s = 0.9
        _, gamma = _distributed_rates(s, 1.0)
        assert gamma == pytest.approx(16.0 * s * s * math.cosh(2.0 * s), rel=1e-12)

    def test_mixing_rate_includes_absorption(self):
        xi, _ = _distributed_rates(0.0, 0.5)
        assert xi == pytest.approx(abs(math.log(0.5)), rel=1e-14)

    def test_reduction_limits(self):
        assert distributed_reduction(0.0, 0.8) == 0.0
        for s in (0.4, 1.0, 2.5):
            assert distributed_reduction(s, 1.0) == pytest.approx(
                1.0 - 1.0 / math.cosh(2.0 * s), rel=1e-12
            )

    @pytest.mark.parametrize(
        "s, T_a, message",
        [
            (1.0, 0.0, "T_a must lie"),
            (1.0, math.nan, "T_a must lie"),
            (1.0, math.inf, "T_a must lie"),
            (math.nan, 0.5, "s must be finite"),
            (math.inf, 0.5, "s must be finite"),
            (-1.0, 0.5, "s must be finite"),
        ],
    )
    def test_out_of_domain_rates_rejected(self, s, T_a, message):
        helpers = (
            _slice_dynamics,
            lambda s, T_a: SourceParams(s=s, T_a=T_a),
            distributed_reduction,
            lambda s, T_a: conjugate_factor_distributed(0.9, s, T_a),
        )
        for helper in helpers:
            with pytest.raises(ValueError, match=message):
                helper(s, T_a)
        # one bad entry rejects a whole array
        with pytest.raises(ValueError, match=message):
            _slice_dynamics(np.array([1.0, s]), np.array([0.5, T_a]))

    def test_array_helpers_match_array_route(self, array_rate_oracle):
        oracle_rate, oracle_norm, _ = array_rate_oracle
        rng = np.random.default_rng(17)
        s = rng.uniform(0.0, MAX_S, 400)
        t_a = 10.0 ** rng.uniform(-300.0, 0.0, 400)
        xi, gamma = _distributed_rates(s, t_a)
        assert np.array_equal(xi, oracle_rate(s, t_a))
        assert np.array_equal(gamma, oracle_norm(s, t_a))
        for x, y in zip(s[:50], t_a[:50]):
            xi, gamma = _distributed_rates(float(x), float(y))
            assert xi == oracle_rate(float(x), float(y))
            assert gamma == oracle_norm(float(x), float(y))


class TestClosedFormBounds:
    @pytest.mark.parametrize("s", [0.0, 1e-9, 2.04, MAX_S])
    @pytest.mark.parametrize("t_a", [1e-300, 0.5, 0.71, 1.0])
    @pytest.mark.parametrize("eta_c", [0.0, 0.5, 0.919, 1.0])
    def test_distributed_equals_array_route(self, s, t_a, eta_c, array_rate_oracle):
        *_, oracle_var_n = array_rate_oracle
        params = SourceParams(s=s, T_a=t_a)
        budget = LossBudget(T_p=0.973, eta_p=0.945, eta_c=eta_c)
        for t in (1e-300, 0.5, 1.0):
            expected = oracle_var_n(t, s, t_a, budget.T_p, budget.eta_p, eta_c)
            assert qcrb_distributed(t, 1.0, params, budget).var_n == expected

    def test_distributed_equals_array_route_over_random_points(self, array_rate_oracle):
        *_, oracle_var_n = array_rate_oracle
        rng = np.random.default_rng(23)
        for _ in range(500):
            s, t_a, eta_c, t = rng.uniform(0.0, MAX_S), rng.uniform(), rng.uniform(), rng.uniform()
            budget = LossBudget(T_p=0.973, eta_p=0.945, eta_c=eta_c)
            expected = oracle_var_n(t, s, t_a, budget.T_p, budget.eta_p, eta_c)
            assert qcrb_distributed(t, 1.0, SourceParams(s=s, T_a=t_a), budget).var_n == expected

    def test_pure_at_zero_squeezing_equals_coherent_exactly(self):
        for t in GRID:
            pure = qcrb_pure_btmss(float(t), 1.0, 0.0, BUDGET)
            coherent = qcrb_coherent(float(t), 1.0, BUDGET.eta_p)
            assert pure.var_n == coherent.var_n

    def test_pure_at_half_conjugate_equals_coherent(self):
        budget = LossBudget(T_p=0.973, eta_p=0.945, eta_c=0.5)
        for s in (0.5, 2.0, 10.0):
            assert qcrb_pure_btmss(0.6, 1.0, s, budget).var_n == pytest.approx(
                qcrb_coherent(0.6, 1.0, budget.eta_p).var_n, rel=1e-14
            )

    def test_ideal_pure_bound_vanishes_at_full_transmission(self):
        lossless = LossBudget(T_p=1.0, eta_p=1.0, eta_c=1.0)
        assert qcrb_pure_btmss(1.0, 1.0, 20.0, lossless).var_n == pytest.approx(0.0, abs=1e-15)

    def test_coherent_values(self):
        assert qcrb_coherent(0.84, 1.0, 0.945).var_n == pytest.approx(0.84 / 0.945, rel=1e-14)
        assert qcrb_coherent(0.0, 1.0, 0.945).var_n == 0.0
        assert qcrb_coherent(1.0, 1.0, 1.0).var_n == 1.0

    def test_coherent_is_linear(self):
        a = qcrb_coherent(0.2, 1.0, 0.945).var_n
        b = qcrb_coherent(0.4, 1.0, 0.945).var_n
        c = qcrb_coherent(0.6, 1.0, 0.945).var_n
        assert b - a == pytest.approx(c - b, rel=1e-12)

    def test_ultimate_values(self):
        assert qcrb_ultimate(1.0, 1.0, BUDGET, lossless=True).var_n == 0.0
        assert qcrb_ultimate(0.84, 1.0, BUDGET).var_n == pytest.approx(
            0.84 / 0.945 - 0.84**2 * 0.973, rel=1e-12
        )

    def test_distributed_reduces_to_pure(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            t = rng.uniform(0.05, 1.0)
            s = rng.uniform(0.0, 3.0)
            budget = LossBudget(
                T_p=rng.uniform(0.5, 1.0), eta_p=rng.uniform(0.5, 1.0), eta_c=rng.uniform(0.0, 1.0)
            )
            dist = qcrb_distributed(t, 1.0, SourceParams(s=s, T_a=1.0), budget).var_n
            pure = qcrb_pure_btmss(t, 1.0, s, budget).var_n
            assert dist == pytest.approx(pure, rel=1e-9, abs=1e-12)

    def test_distributed_at_zero_squeezing_is_coherent(self):
        point = qcrb_distributed(0.5, 1.0, SourceParams(s=0.0, T_a=0.71), BUDGET)
        assert point.var_n == qcrb_coherent(0.5, 1.0, BUDGET.eta_p).var_n

    @pytest.mark.parametrize("s", [355.4, 400.0])
    @pytest.mark.parametrize("t_a", [1e-300, 0.5, 1.0])
    @pytest.mark.parametrize("eta_c", [0.0, 0.5, 0.919])
    def test_overflow_is_a_domain_error(self, s, t_a, eta_c):
        # at s = 355.4, 2 sinh^2 s overflows but sinh^2 s does not; numpy's
        # overflow warnings fail this suite, so the error must come first
        budget = LossBudget(T_p=0.973, eta_p=0.945, eta_c=eta_c)
        calls = (
            lambda: conjugate_factor(eta_c, s),
            lambda: qcrb_pure_btmss(0.5, 1.0, s, budget),
            lambda: conjugate_factor_distributed(eta_c, s, t_a),
            lambda: distributed_reduction(s, t_a),
            lambda: qcrb_distributed(0.5, 1.0, SourceParams(s=s, T_a=t_a), budget),
        )
        for call in calls:
            with pytest.raises(ValueError, match="overflows double precision"):
                call()

    @pytest.mark.parametrize("s", [0.0, 1e-170, 1e-300])
    def test_squeezing_below_float_range_is_coherent(self, s):
        # at T_a = 1, xi = 4s, whose square 16 s^2 underflows to 0 below s ~ 6e-163
        params = SourceParams(s=s, T_a=1.0)
        point = qcrb_distributed(0.5, 1.0, params, BUDGET)
        assert point.var_n == qcrb_coherent(0.5, 1.0, BUDGET.eta_p).var_n
        assert conjugate_factor_distributed(0.9, s, 1.0) == pytest.approx(0.8, rel=1e-15)
        assert distributed_reduction(s, 1.0) == 0.0

    def test_distributed_approaches_lossy_ultimate_at_high_squeezing(self):
        budget = LossBudget(T_p=0.973, eta_p=0.945, eta_c=1.0)
        params = SourceParams(s=20.0, T_a=1.0)
        for t in GRID:
            dist = qcrb_distributed(float(t), 1.0, params, budget).var_n
            ult = qcrb_ultimate(float(t), 1.0, budget).var_n
            assert dist == pytest.approx(ult, rel=1e-6)

    def test_ordering_over_grid(self):
        for t in GRID:
            coherent = qcrb_coherent(float(t), 1.0, BUDGET.eta_p).var_n
            dist = qcrb_distributed(float(t), 1.0, PARAMS, BUDGET).var_n
            ult = qcrb_ultimate(float(t), 1.0, BUDGET).var_n
            assert ult <= dist <= coherent


class TestNumericGaussianBound:
    def test_coherent_chain_matches_closed_form(self):
        params = SourceParams(s=0.0, T_a=1.0)
        chain = build_chain(params, BUDGET)
        for t in (0.1, 0.45, 0.84):
            numeric = qcrb_numeric_gaussian(t, params, BUDGET, chain=chain).var_n
            assert numeric == pytest.approx(qcrb_coherent(t, 1.0, BUDGET.eta_p).var_n, rel=1e-9)

    def test_pure_chain_matches_closed_form(self):
        params = SourceParams(s=2.04, T_a=1.0)
        chain = build_chain(params, BUDGET)
        for t in GRID:
            numeric = qcrb_numeric_gaussian(float(t), params, BUDGET, chain=chain).var_n
            closed = qcrb_pure_btmss(float(t), 1.0, 2.04, BUDGET).var_n
            assert numeric == pytest.approx(closed, rel=1e-6)

    def test_distributed_chain_matches_closed_form(self):
        chain = build_chain(PARAMS, BUDGET)
        for t in GRID:
            numeric = qcrb_numeric_gaussian(float(t), PARAMS, BUDGET, chain=chain).var_n
            closed = qcrb_distributed(float(t), 1.0, PARAMS, BUDGET).var_n
            assert numeric == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-9, 1e-12])
    def test_distributed_chain_matches_closed_form_at_small_transmission(self, t):
        # the finite-difference audit step scales with T, so it stays in (0, 1]
        chain = build_chain(PARAMS, BUDGET)
        numeric = qcrb_numeric_gaussian(t, PARAMS, BUDGET, chain=chain).var_n
        closed = qcrb_distributed(t, 1.0, PARAMS, BUDGET).var_n
        assert numeric == pytest.approx(closed, rel=1e-6)

    def test_var_n_is_seed_independent(self):
        a = qcrb_numeric_gaussian(0.5, PARAMS, BUDGET).var_n
        rich = SourceParams(s=2.04, T_a=0.71, seed_photons=4e8)
        b = qcrb_numeric_gaussian(0.5, rich, BUDGET).var_n
        assert a == pytest.approx(b, rel=1e-11)

    def test_doubling_photons_halves_variance(self):
        one = qcrb_numeric_gaussian(0.5, PARAMS, BUDGET, n_r=1e6)
        two = qcrb_numeric_gaussian(0.5, PARAMS, BUDGET, n_r=2e6)
        assert one.var_n == two.var_n
        assert one.variance == pytest.approx(2.0 * two.variance, rel=1e-12)

    def test_dim_seed_rejected(self):
        with pytest.raises(ValueError, match="at least 10000 photons"):
            build_chain(SourceParams(s=1.0, T_a=0.9, seed_photons=100.0), BUDGET)

    @pytest.mark.parametrize(
        "state",
        [
            coherent_state([10.0]),
            vacuum_state(3),
            coherent_state([10.0 + 1.0j, 0.0]),
            GaussianState(np.zeros(4), np.diag([2.0, 1.0, 1.0, 1.0])),
            GaussianState(np.zeros(4), np.eye(4) + 0.1 * (np.eye(4, k=1) + np.eye(4, k=-1))),
        ],
        ids=["one mode", "three modes", "p displacement", "p sector unlike x", "x-p correlation"],
    )
    def test_chain_rejects_source_outside_mirrored_form(self, state):
        with pytest.raises(ValueError, match="probe chain needs"):
            ProbeChain(state, BUDGET)

    def test_chain_accepts_coherent_source(self):
        # a coherent probe beside a vacuum conjugate has the mirrored form too
        assert ProbeChain(coherent_state([10.0, 0.0]), BUDGET).n_input == 0.973 * 100.0

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_no_probe_light_rejected(self, t):
        # the audit sees 0 against 0 and passes the point to the Fisher check
        chain = build_chain(PARAMS, LossBudget(T_p=0.0, eta_p=0.945, eta_c=0.919))
        with pytest.raises(NonPhysicalError, match="non-positive Fisher information"):
            qcrb_numeric_gaussian(t, PARAMS, chain.budget, chain=chain)

    def test_zero_transmission_rejected(self):
        with pytest.raises(ValueError):
            qcrb_numeric_gaussian(0.0, PARAMS, BUDGET)


def _log_uniform(lowest_exponent):
    return st.floats(lowest_exponent, 0.0).map(lambda e: 10.0**e)


_BUDGETS = st.one_of(
    st.just(_LOSSLESS),
    st.builds(
        LossBudget,
        T_p=st.floats(0.05, 1.0),
        eta_p=st.floats(0.05, 1.0),
        eta_c=st.floats(0.0, 1.0),
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    s=st.floats(0.0, MAX_S),
    t_a=_log_uniform(-300.0),
    t=_log_uniform(-300.0),
    budget=_BUDGETS,
)
def test_numeric_matches_closed_form_over_config_box(s, t_a, t, budget):
    # criterion 03 wherever a config is accepted, not only on the paper's grid
    params = SourceParams(s=s, T_a=t_a)
    numeric = qcrb_numeric_gaussian(t, params, budget).var_n
    closed = qcrb_distributed(t, 1.0, params, budget).var_n
    assert abs(numeric - closed) <= 1e-6 * abs(closed)
    if budget.eta_c >= 0.5:
        # below 1/2 the conjugate factor is negative and the squeezed bound
        # rightly exceeds the coherent one
        coherent = qcrb_coherent(t, 1.0, budget.eta_p).var_n
        assert qcrb_ultimate(t, 1.0, budget).var_n <= closed <= coherent


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    s=st.floats(0.0, MAX_S),
    t_a=_log_uniform(-300.0),
    t=_log_uniform(-300.0),
    budget=_BUDGETS,
)
def test_states_are_physical_over_config_box(s, t_a, t, budget):
    # the uncertainty principle: every symplectic eigenvalue is >= 1.  They come
    # from the eigenvalues of the non-normal i Omega sigma, whose rounding grows
    # with the squeezing; on 10^4 random and edge points of this box the worst
    # nu - 1 was -1.5e-13 max|sigma| (-2.8e-11 at s = MAX_S, T_a = 1, where
    # max|sigma| = cosh(2 MAX_S) = 548), so 1e-12 max|sigma| bounds the rounding
    # while any lost vacuum term, of order 1, still fails
    params = SourceParams(s=s, T_a=t_a)
    for state in (continuum_state(params), build_chain(params, budget).state_at(t)):
        scale = max(1.0, float(np.max(np.abs(state.sigma))))
        assert symplectic_eigenvalues(state).min() >= 1.0 - 1e-12 * scale


class TestPrecomputedChainStages:
    @pytest.fixture(scope="class", params=ORACLE_SOURCES, ids=str)
    def source(self, request):
        return SourceParams(*request.param)

    @pytest.fixture(scope="class", params=ORACLE_BUDGETS, ids=("paper", "lossless"))
    def chain(self, source, request):
        return build_chain(source, request.param)

    @pytest.mark.parametrize("t", ORACLE_T)
    def test_numeric_bound_equals_six_state_route(self, source, chain, t):
        numeric = qcrb_numeric_gaussian(t, PARAMS, BUDGET, chain=chain).var_n
        try:
            expected = six_state_numeric_var_n(chain, t)
        except RuntimeWarning:
            # the unscaled route squares d/(2T) ~ 1e154 past the float range
            assert (t, source.s) == (1e-300, MAX_S)
            closed = qcrb_distributed(t, 1.0, source, BUDGET).var_n
            assert numeric == pytest.approx(closed, rel=1e-6)
        else:
            assert numeric == expected

    @pytest.mark.parametrize("t", ORACLE_T)
    def test_transmission_variance_equals_three_stage_route(self, chain, t):
        oracle = transmission_variance(ThreeStageChain(chain), t)
        assert transmission_variance(chain, t) == oracle

    @pytest.mark.parametrize("t", [0.0, *ORACLE_T])
    def test_state_and_sector_equal_three_stage_route(self, chain, t):
        oracle = three_stage_state(chain, t)
        sector = (oracle.d[0], oracle.d[2], *oracle.sigma[[0, 0, 2], [0, 2, 2]])
        assert chain.sector_at(t) == sector
        assert np.array_equal(chain.state_at(t).d, oracle.d)
        assert np.array_equal(chain.state_at(t).sigma, three_stage_state(chain, t).sigma)

    @pytest.mark.parametrize("t", [-1e-12, 1.0 + 1e-12, float("nan")])
    def test_sector_rejects_transmission_outside_unit_interval(self, chain, t):
        for method in (chain.sector_at, chain.state_at):
            with pytest.raises(ValueError):
                method(t)

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_audit_rejects_disagreeing_finite_difference(self, chain, t, monkeypatch):
        # t = 1 moves the audit center off T, so the center is read from
        # sector_at too and is left unscaled
        original = ProbeChain.sector_at
        step = 1e-6 * t
        center = t if t + step <= 1.0 else t - step

        def skewed(self, at):
            d_p, *rest = original(self, at)
            if at != center:
                d_p *= 1.0 + 1e-5
            return (d_p, *rest)

        monkeypatch.setattr(ProbeChain, "sector_at", skewed)
        with pytest.raises(NonPhysicalError, match="finite-difference"):
            qcrb_numeric_gaussian(t, PARAMS, BUDGET, chain=chain)

    def test_no_state_per_bound_and_one_per_variance(self, chain, monkeypatch):
        calls = []
        original = ProbeChain.state_at

        def counted(self, at):
            calls.append(at)
            return original(self, at)

        monkeypatch.setattr(ProbeChain, "state_at", counted)
        for t in (0.5, 1.0):
            qcrb_numeric_gaussian(t, PARAMS, BUDGET, chain=chain)
            assert calls == []
            transmission_variance(chain, t)
            assert calls == [t]
            calls.clear()


class TestAdvantage:
    def test_no_advantage_without_squeezing(self):
        assert advantage_ratio(0.5, SourceParams(s=0.0, T_a=0.71), BUDGET) == 1.0

    def test_reference_advantage(self):
        assert advantage_ratio(0.84, PARAMS, BUDGET) == pytest.approx(2.6, abs=0.1)

    def test_advantage_fades_at_low_transmission(self):
        assert advantage_ratio(1e-4, PARAMS, BUDGET) == pytest.approx(1.0, abs=1e-3)


class TestBoundPoint:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            LossBudget(T_p=1.2, eta_p=0.9, eta_c=0.9)
