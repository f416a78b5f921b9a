"""Tests for the transmission-estimation bounds and their reductions."""

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    array_distributed_norm,
    array_mixing_rate,
    array_route_distributed_var_n,
    coherent_state,
    continuum_state,
    four_by_four_transmission_variance,
    incident_photons,
    log_uniform,
    six_state_numeric_var_n,
    symplectic_eigenvalues,
    three_stage_state,
)
from qcrbench import bounds
from qcrbench.bounds import (
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
from qcrbench.cli import main
from qcrbench.config import KEY_ROWS
from qcrbench.detection import transmission_variance
from qcrbench.errors import BrightLimitError, NonPhysicalError, WorkbenchError
from qcrbench.gaussian import (
    ChannelOp,
    GaussianState,
    apply_loss,
    bright_mean_photon,
)
from qcrbench.source import SourceParams, _source_domain

# the config's squeezing cap
MAX_S = KEY_ROWS["s"].high
DIM_SEED = "seed_photons must be finite and at least 10000, not 100.0"
PARAMS = SourceParams(s=2.04, T_a=0.71)
BUDGET = LossBudget(T_p=0.973, eta_p=0.945, eta_c=0.919)
_LOSSLESS = LossBudget(T_p=1.0, eta_p=1.0, eta_c=1.0)
GRID = np.round(0.10 + 0.05 * np.arange(16), 12)


def sector_condition(chain: ProbeChain, T: float) -> float:
    """kappa = sigma_pp sigma_cc / det of the detected x sector at T.

    The shot-noise forms of the bound and the estimator, and the
    photon-number routes of `oracles`, each round to a few eps of their value
    times kappa: det and the optimal estimator cancel terms kappa times
    their size.
    """
    _, _, s_pp, s_pc, s_cc = chain.sector_at(T)
    return s_pp * s_cc / (s_pp * s_cc - s_pc * s_pc)


#: the shot-noise forms against the photon-number oracles, in eps kappa: the
#: worst measured was 3.0 on the ORACLE_* grid and 5.7 over 80 000 draws of
#: the config box, where the errors matched on every draw
ORACLE_TOL = 8.0 * np.finfo(float).eps


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
            _source_domain,
            lambda s, T_a: SourceParams(s=s, T_a=T_a),
            distributed_reduction,
            lambda s, T_a: conjugate_factor_distributed(0.9, s, T_a),
        )
        for helper in helpers:
            with pytest.raises(ValueError, match=message):
                helper(s, T_a)
        # one bad entry rejects a whole array
        with pytest.raises(ValueError, match=message):
            _source_domain(np.array([1.0, s]), np.array([0.5, T_a]))

    def test_array_helpers_match_array_route(self):
        rng = np.random.default_rng(17)
        s = rng.uniform(0.0, MAX_S, 400)
        t_a = 10.0 ** rng.uniform(-300.0, 0.0, 400)
        xi, gamma = _distributed_rates(s, t_a)
        assert np.array_equal(xi, array_mixing_rate(s, t_a))
        assert np.array_equal(gamma, array_distributed_norm(s, t_a))
        for x, y in zip(s[:50], t_a[:50]):
            xi, gamma = _distributed_rates(float(x), float(y))
            assert xi == array_mixing_rate(float(x), float(y))
            assert gamma == array_distributed_norm(float(x), float(y))


class TestClosedFormBounds:
    @pytest.mark.parametrize("s", [0.0, 1e-9, 2.04, MAX_S])
    @pytest.mark.parametrize("t_a", [1e-300, 0.5, 0.71, 1.0])
    @pytest.mark.parametrize("eta_c", [0.0, 0.5, 0.919, 1.0])
    def test_distributed_equals_array_route(self, s, t_a, eta_c):
        params = SourceParams(s=s, T_a=t_a)
        budget = LossBudget(T_p=0.973, eta_p=0.945, eta_c=eta_c)
        for t in (1e-300, 0.5, 1.0):
            expected = array_route_distributed_var_n(t, s, t_a, budget.T_p, budget.eta_p, eta_c)
            assert qcrb_distributed(t, 1.0, params, budget).var_n == expected

    def test_distributed_equals_array_route_over_random_points(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            s, t_a, eta_c, t = rng.uniform(0.0, MAX_S), rng.uniform(), rng.uniform(), rng.uniform()
            budget = LossBudget(T_p=0.973, eta_p=0.945, eta_c=eta_c)
            expected = array_route_distributed_var_n(t, s, t_a, budget.T_p, budget.eta_p, eta_c)
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

    @pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-9, 1e-12, 3e-318, 2.5e-318])
    def test_distributed_chain_matches_closed_form_at_small_transmission(self, t):
        # the finite-difference audit step scales with T, so it stays in (0, 1]
        # down to the smallest T whose step 1e-6 T does not underflow
        chain = build_chain(PARAMS, BUDGET)
        numeric = qcrb_numeric_gaussian(t, PARAMS, BUDGET, chain=chain).var_n
        closed = qcrb_distributed(t, 1.0, PARAMS, BUDGET).var_n
        assert numeric == pytest.approx(closed, rel=1e-6)

    def test_var_n_is_seed_independent(self):
        a = qcrb_numeric_gaussian(0.5, PARAMS, BUDGET, chain=build_chain(PARAMS, BUDGET)).var_n
        rich = SourceParams(s=2.04, T_a=0.71, seed_photons=4e8)
        b = qcrb_numeric_gaussian(0.5, rich, BUDGET, chain=build_chain(rich, BUDGET)).var_n
        assert a == b

    def test_var_n_does_not_depend_on_n_r(self):
        # var_n = Var(T) n_r is the photon-number-normalized figure of merit
        chain = build_chain(PARAMS, BUDGET)

        def points(n_r):
            return [
                qcrb_numeric_gaussian(0.5, PARAMS, BUDGET, n_r, chain=chain),
                qcrb_distributed(0.5, n_r, PARAMS, BUDGET),
                qcrb_pure_btmss(0.5, n_r, PARAMS.s, BUDGET),
                qcrb_coherent(0.5, n_r, BUDGET.eta_p),
                qcrb_ultimate(0.5, n_r, BUDGET),
            ]

        for n_r in (1e-3, 1e6, 2e6):
            assert points(n_r) == points(1.0)

    def test_dim_seed_rejected(self):
        with pytest.raises(ValueError, match=DIM_SEED):
            build_chain(SourceParams(s=1.0, T_a=0.9, seed_photons=100.0), BUDGET)

    @pytest.mark.parametrize("budget", [(0.0, 0.945, 0.919), (0.973, 0.0, 0.919)])
    def test_dark_budget_builds_no_chain(self, budget):
        # T_p = 0 or eta_p = 0: the one darkness rule, decided where the chain is made
        dark = LossBudget(*budget)
        for make in (build_chain, ProbeChain):
            with pytest.raises(BrightLimitError, match="^no probe light reaches the detector$"):
                make(PARAMS, dark)
            # the seed floor is checked first
            with pytest.raises(ValueError, match=DIM_SEED):
                make(SourceParams(s=1.0, T_a=0.9, seed_photons=100.0), dark)

    def test_chain_accepts_coherent_source(self):
        # at s = 0 and T_a = 1 the source passes a coherent seed beside a vacuum conjugate
        chain = build_chain(SourceParams(s=0.0, T_a=1.0, seed_photons=1e4), BUDGET)
        assert incident_photons(chain) == 0.973 * 1e4
        coherent = apply_loss(coherent_state([100.0, 0.0]), ChannelOp([0.973, 1.0]))
        for t in (0.3, 1.0):
            oracle = apply_loss(coherent, ChannelOp([t, 1.0]))
            oracle = apply_loss(oracle, ChannelOp([BUDGET.eta_p, BUDGET.eta_c]))
            assert np.array_equal(chain.state_at(t).d, oracle.d)
            assert np.array_equal(chain.state_at(t).sigma, oracle.sigma)

    @pytest.mark.parametrize(
        "params, budget",
        [
            (SourceParams(s=2.0, T_a=0.71), BUDGET),
            (SourceParams(s=2.04, T_a=0.71, seed_photons=4e8), BUDGET),
            (PARAMS, _LOSSLESS),
        ],
        ids=["other s", "other seed", "other budget"],
    )
    def test_chain_of_other_source_or_budget_rejected(self, params, budget):
        chain = build_chain(PARAMS, BUDGET)
        with pytest.raises(ValueError, match="other source parameters or loss budget"):
            qcrb_numeric_gaussian(0.5, params, budget, chain=chain)

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_no_probe_light_rejected(self, t):
        # the dark budget builds no chain, so no bound reaches the audit's 0 against 0
        with pytest.raises(BrightLimitError, match="no probe light reaches the detector"):
            chain = build_chain(PARAMS, LossBudget(T_p=0.0, eta_p=0.945, eta_c=0.919))
            qcrb_numeric_gaussian(t, PARAMS, chain.budget, chain=chain)

    def test_zero_transmission_rejected(self):
        with pytest.raises(ValueError):
            qcrb_numeric_gaussian(0.0, PARAMS, BUDGET, chain=build_chain(PARAMS, BUDGET))

    @pytest.mark.parametrize("t", [2e-318, 1e-320, 5e-324])
    def test_transmission_below_the_audit_step_rejected(self, t):
        # the audit step 1e-6 T underflows to 0 below T ~ 2.47e-318
        with pytest.raises(NonPhysicalError, match="finite-difference audit step"):
            qcrb_numeric_gaussian(t, PARAMS, BUDGET, chain=build_chain(PARAMS, BUDGET))


def test_bounds_dividing_by_eta_p_reject_zero():
    # T / eta_p has no value at eta_p = 0; a Python float division would
    # raise ZeroDivisionError, which is not a domain error.  The numeric
    # bound needs a chain, and a dark budget builds none
    dark = LossBudget(T_p=0.973, eta_p=0.0, eta_c=0.919)
    routes = [
        lambda: qcrb_coherent(0.5, 1.0, 0.0),
        lambda: qcrb_pure_btmss(0.5, 1.0, 2.04, dark),
        lambda: qcrb_distributed(0.5, 1.0, PARAMS, dark),
        lambda: qcrb_ultimate(0.5, 1.0, dark),
    ]
    for route in routes:
        with pytest.raises(ValueError, match=r"eta_p must lie in \(0, 1\]"):
            route()
    with pytest.raises(BrightLimitError, match="no probe light reaches the detector"):
        qcrb_numeric_gaussian(0.5, PARAMS, dark, chain=build_chain(PARAMS, dark))
    assert qcrb_ultimate(0.5, 1.0, dark, lossless=True).var_n == 0.25


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
    t_a=log_uniform(-300.0),
    t=log_uniform(-300.0),
    budget=_BUDGETS,
)
def test_numeric_matches_closed_form_over_config_box(s, t_a, t, budget):
    # criterion 03 wherever a config is accepted, not only on the paper's grid
    params = SourceParams(s=s, T_a=t_a)
    numeric = qcrb_numeric_gaussian(t, params, budget, chain=build_chain(params, budget)).var_n
    closed = qcrb_distributed(t, 1.0, params, budget).var_n
    assert abs(numeric - closed) <= 1e-6 * abs(closed)
    if budget.eta_c >= 0.5:
        # below 1/2 the conjugate factor is negative and the squeezed bound
        # rightly exceeds the coherent one
        coherent = qcrb_coherent(t, 1.0, budget.eta_p).var_n
        assert qcrb_ultimate(t, 1.0, budget).var_n <= closed <= coherent


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    s=st.floats(0.0, MAX_S),
    t_a=log_uniform(-300.0),
    t=log_uniform(-300.0),
    budget=st.sampled_from(ORACLE_BUDGETS) | _BUDGETS,
)
def test_sector_variance_equals_four_by_four_route_over_config_box(s, t_a, t, budget):
    # the estimator variance from the x sector keeps every error of the
    # two-mode photon statistics and its value to rounding
    chain = build_chain(SourceParams(s=s, T_a=t_a), budget)
    try:
        expected = four_by_four_transmission_variance(chain, t)
    except WorkbenchError as exc:
        with pytest.raises(type(exc)):
            transmission_variance(chain, t)
        return
    variance = transmission_variance(chain, t)
    if expected is None:
        assert 0.0 < variance < math.inf
    else:
        assert abs(variance - expected) <= ORACLE_TOL * sector_condition(chain, t) * expected


def _seed_outcome(params: SourceParams, budget: LossBudget, t: float):
    """((numeric bound, optimal estimator) or the error type, counts_normal) at t.

    counts_normal: the detected count d_p^2 / 4 is a normal float, and
    d_c^2 / 4 is one or 0.
    """
    chain = build_chain(params, budget)
    d_p, d_c = chain.sector_at(t)[:2]
    conj = d_c * d_c / 4.0
    exact = d_p * d_p / 4.0 >= sys.float_info.min and (conj == 0.0 or conj >= sys.float_info.min)
    try:
        bound = qcrb_numeric_gaussian(t, params, budget, chain=chain).var_n
        return (bound, transmission_variance(chain, t)), exact
    except WorkbenchError as exc:
        return type(exc), exact


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    s=st.floats(0.0, MAX_S),
    t_a=log_uniform(-300.0),
    t=log_uniform(-300.0),
    budget=st.sampled_from(ORACLE_BUDGETS) | _BUDGETS,
    seeds=st.tuples(st.floats(1e4, 1e12), st.floats(1e4, 1e12)),
)
def test_var_n_is_seed_independent_over_config_box(s, t_a, t, budget, seeds):
    # var_n is computed in shot-noise units, so the seed's photon number
    # reaches no bit of it; only where a detected count leaves the normal
    # floats can the seed decide whether light is seen at all
    (first, first_exact), (second, second_exact) = (
        _seed_outcome(SourceParams(s=s, T_a=t_a, seed_photons=n), budget, t) for n in seeds
    )
    if first_exact and second_exact:
        assert first == second


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    s=st.floats(0.0, MAX_S),
    t_a=log_uniform(-300.0),
    t=log_uniform(-300.0),
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

    def test_n_input_equals_source_state_photons(self, source, chain):
        # the bright probe photons d_p^2 / 4 of the chain's incident light are
        # the source state's, times T_p, up to the rounding of sqrt(T_p) and
        # of the square; the oracles normalize by these photons
        d_p = chain.incident[0]
        photons = d_p * d_p / 4.0
        expected = chain.budget.T_p * bright_mean_photon(continuum_state(source), 0)
        assert photons == pytest.approx(expected, rel=4.0 * np.finfo(float).eps, abs=0)

    @pytest.mark.parametrize("t", ORACLE_T)
    def test_numeric_bound_equals_six_state_route(self, source, chain, t):
        numeric = qcrb_numeric_gaussian(t, chain.params, chain.budget, chain=chain).var_n
        try:
            expected = six_state_numeric_var_n(chain, t)
        except RuntimeWarning:
            # the unscaled route squares d/(2T) ~ 1e154 past the float range
            assert (t, source.s) == (1e-300, MAX_S)
            closed = qcrb_distributed(t, 1.0, source, chain.budget).var_n
            assert numeric == pytest.approx(closed, rel=1e-6, abs=0)
        else:
            assert abs(numeric - expected) <= ORACLE_TOL * sector_condition(chain, t) * expected

    @pytest.mark.parametrize("t", ORACLE_T)
    def test_transmission_variance_equals_three_stage_route(self, chain, t):
        variance = transmission_variance(chain, t)
        expected = four_by_four_transmission_variance(chain, t)
        assert abs(variance - expected) <= ORACLE_TOL * sector_condition(chain, t) * expected

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
            qcrb_numeric_gaussian(t, chain.params, chain.budget, chain=chain)

    def test_no_state_per_bound_or_variance(self, chain, monkeypatch):
        # neither the chain nor what reads it builds a two-mode state
        calls = []
        original = GaussianState.__post_init__

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(GaussianState, "__post_init__", counted)
        assert build_chain(chain.params, chain.budget) == chain
        assert calls == []
        for t in (0.5, 1.0):
            qcrb_numeric_gaussian(t, chain.params, chain.budget, chain=chain)
            assert calls == []
            transmission_variance(chain, t)
            assert calls == []
        chain.state_at(0.5)
        assert len(calls) == 1


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

    @pytest.mark.parametrize("name", ["T_p", "eta_p", "eta_c"])
    def test_array_budget_rejected(self, name):
        # a one-element array passes the range check and would fail in the bounds
        fields = {"T_p": 0.973, "eta_p": 0.945, "eta_c": 0.919}
        with pytest.raises(ValueError, match=f"{name} must be a scalar"):
            LossBudget(**{**fields, name: np.array([fields[name]])})
        zero_d = LossBudget(**{**fields, name: np.array(fields[name])})
        assert qcrb_distributed(0.5, 1.0, PARAMS, zero_d).var_n == (
            qcrb_distributed(0.5, 1.0, PARAMS, BUDGET).var_n
        )

    @pytest.mark.parametrize("var_n", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_value_rejected(self, var_n):
        with pytest.raises(ValueError, match="bound value must be finite"):
            BoundPoint(T=0.5, var_n=var_n)


def _bits(terms):
    return tuple(float(x).hex() for x in terms)


class TestDistributedTermsCache:
    """`_distributed_terms` is cached on (eta_c, s, T_a), and the cache moves no bit."""

    @pytest.mark.parametrize("t_a", [0.71, 1.0, 1e-300])
    def test_signed_zeros_share_a_key(self, t_a):
        cached = bounds._distributed_terms
        uncached = cached.__wrapped__
        for first, signed in [
            ((0.0, 0.0), [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]),
            ((0.0, 2.04), [(-0.0, 2.04)]),
            ((0.919, 0.0), [(0.919, -0.0)]),
        ]:
            cached.cache_clear()
            cached(*first, t_a)
            for eta_c, s in signed:
                assert _bits(cached(eta_c, s, t_a)) == _bits(uncached(eta_c, s, t_a))
            assert cached.cache_info().misses == 1

    def test_random_box_points(self):
        cached = bounds._distributed_terms
        rng = np.random.default_rng(19)
        cached.cache_clear()
        for eta_c, s, t_a in zip(
            rng.uniform(0.0, 1.0, 300),
            rng.uniform(0.0, MAX_S, 300),
            10.0 ** rng.uniform(-300, 0, 300),
        ):
            point = (float(eta_c), float(s), float(t_a))
            expected = _bits(cached.__wrapped__(*point))
            assert _bits(cached(*point)) == expected
            assert _bits(cached(*point)) == expected

    def test_a_grid_computes_the_terms_once(self):
        bounds._distributed_terms.cache_clear()
        values = [qcrb_distributed(float(t), 1.0, PARAMS, BUDGET).var_n for t in GRID]
        info = bounds._distributed_terms.cache_info()
        assert (info.misses, info.hits) == (1, GRID.size - 1)
        bounds._distributed_terms.cache_clear()
        assert values == [qcrb_distributed(float(t), 1.0, PARAMS, BUDGET).var_n for t in GRID]

    @pytest.mark.parametrize(
        "route, error",
        [
            (lambda: conjugate_factor_distributed(np.array([0.5, 0.6]), 2.0, 0.7), ValueError),
            (lambda: conjugate_factor_distributed(0.9, np.array([2.0]), 0.7), ValueError),
            (lambda: conjugate_factor_distributed(0.9, np.array([2.0, 1.0]), 0.7), ValueError),
            (lambda: conjugate_factor_distributed(0.9, 2.0, np.array([0.7, 0.5])), ValueError),
            (lambda: conjugate_factor_distributed(0.9, 2.0, [0.7, 0.5]), ValueError),
            (lambda: distributed_reduction(np.array([2.0]), 0.7), ValueError),
            (lambda: distributed_reduction(np.array([2.0, 1.0]), 0.7), ValueError),
            (lambda: distributed_reduction(2.0, np.array([0.7, 0.5])), ValueError),
            (lambda: distributed_reduction([2.0], 0.7), ValueError),
            (lambda: conjugate_factor_distributed(np.array([0.5]), 2.0, 0.7), ValueError),
        ],
        ids=[
            "factor-eta_c-pair",
            "factor-s-one",
            "factor-s-pair",
            "factor-T_a-pair",
            "factor-T_a-list",
            "reduction-s-one",
            "reduction-s-pair",
            "reduction-T_a-pair",
            "reduction-s-list",
            "factor-eta_c-one",
        ],
    )
    def test_array_input_keeps_its_error(self, route, error):
        # arrays are rejected before the cache: no unhashable-key error
        with pytest.raises(error) as excinfo:
            route()
        assert "unhashable" not in str(excinfo.value)

    def test_zero_dimensional_arrays_give_the_scalar_values(self):
        factor = conjugate_factor_distributed(0.9, 2.0, 0.7)
        assert conjugate_factor_distributed(np.array(0.9), 2.0, 0.7) == factor
        assert conjugate_factor_distributed(0.9, np.array(2.0), np.array(0.7)) == factor
        assert distributed_reduction(np.array(2.0), 0.7) == distributed_reduction(2.0, 0.7)

    def test_readme_bounds_file_keeps_its_bytes(self, tmp_path, monkeypatch):
        config = os.path.join(os.path.dirname(__file__), "..", "docs", "sample_config.txt")
        cached = tmp_path / "cached.csv"
        assert main(["bounds", "--config", config, "--out", str(cached)]) == 0
        uncached = bounds._distributed_terms.__wrapped__

        def evaluate(*args):
            return uncached(*args)

        evaluate.__wrapped__ = uncached
        monkeypatch.setattr(bounds, "_distributed_terms", evaluate)
        plain = tmp_path / "uncached.csv"
        assert main(["bounds", "--config", config, "--out", str(plain)]) == 0
        assert cached.read_bytes() == plain.read_bytes()
