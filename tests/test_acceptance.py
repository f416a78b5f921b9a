"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else.  Two numbers from the
original experiment are context anchors only and are deliberately NOT
asserted: the goodness-of-fit value 0.4563 and the measured gain 11.4 both
belong to lab noise records that are not available here (the model gain at
the fitted parameters is 11.90 and is recorded, not asserted).
"""

import math
import time
import warnings

import numpy as np
import pytest

from oracles import (
    conjugate_factor,
    four_by_four_transmission_variance,
    photons_from_voltage,
    qcrb_pure_btmss,
    quadrature_effective_time,
    sa_chain_simulate,
)
from qcrbench.bounds import (
    LossBudget,
    _distributed_terms,
    build_chain,
    qcrb_coherent,
    qcrb_distributed,
    qcrb_numeric_gaussian,
    qcrb_ultimate,
)
from qcrbench.cli import main
from qcrbench.detection import (
    FilterModel,
    MeasurementPlan,
    effective_time,
    linear_ramp,
    snr_ramp_simulate,
    transmission_variance,
)
from qcrbench.gaussian import ChannelOp, apply_loss
from qcrbench.inference import (
    DEConfig,
    chi_square_batch,
    differential_evolution,
    fit_source,
    synthetic_noise_measurements,
)
from qcrbench.source import (
    SourceParams,
    analytic_noises,
    continuum_noises,
    converged_source,
    noise_triple,
)

PARAMS = SourceParams(s=2.04, T_a=0.71)
BUDGET = LossBudget(T_p=0.973, eta_p=0.945, eta_c=0.919)
GRID = np.round(0.10 + 0.05 * np.arange(16), 12)
ETAS = {"diff": 0.919, "probe": 0.973 * 0.945, "conj": 0.919}


def report(number: int, name: str):
    print(f"[ACCEPTANCE] criterion {number:02d} ({name}): PASS")


def test_criterion_01_reduction_identities():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        t = rng.uniform(0.05, 1.0)
        s = rng.uniform(0.0, 3.0)
        eta_c = rng.uniform(0.0, 1.0)
        budget = LossBudget(
            T_p=rng.uniform(0.5, 1.0), eta_p=rng.uniform(0.5, 1.0), eta_c=eta_c
        )
        dist = qcrb_distributed(t, 1.0, SourceParams(s=s, T_a=1.0), budget).var_n
        pure = qcrb_pure_btmss(t, 1.0, s, budget).var_n
        assert dist == pytest.approx(pure, rel=1e-9, abs=1e-12)
        assert _distributed_terms(eta_c, s, 1.0)[0] == pytest.approx(
            conjugate_factor(eta_c, s), rel=1e-9, abs=1e-12
        )
        # zero squeezing: exact equality with the coherent bound
        assert (
            qcrb_pure_btmss(t, 1.0, 0.0, budget).var_n
            == qcrb_coherent(t, 1.0, budget.eta_p).var_n
        )
    report(1, "reduction identities")


def test_criterion_02_ultimate_limit_convergence():
    # evaluated with unit internal transmission: the pure-source reduction
    # reaches the ultimate bound at sech(40) < 1e-17, far below tolerance.
    # With T_a < 1 the approach in s is only algebraic (about 3% short at
    # s = 20 for T_a = 0.71), so internal loss is switched off for the limit.
    budget = LossBudget(T_p=BUDGET.T_p, eta_p=BUDGET.eta_p, eta_c=1.0)
    params = SourceParams(s=20.0, T_a=1.0)
    for t in GRID:
        dist = qcrb_distributed(float(t), 1.0, params, budget).var_n
        ult = qcrb_ultimate(float(t), 1.0, budget).var_n
        assert dist == pytest.approx(ult, rel=1e-6)
    report(2, "ultimate-limit convergence at s=20")


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    chain = build_chain(PARAMS, BUDGET)
    worst = 0.0
    for t in GRID:
        numeric = qcrb_numeric_gaussian(float(t), PARAMS, BUDGET, chain=chain).var_n
        closed = qcrb_distributed(float(t), 1.0, PARAMS, BUDGET).var_n
        worst = max(worst, abs(numeric - closed) / closed)
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst relative deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    report(3, f"oracle equivalence (worst {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_04_measurement_saturates_bound():
    chain = build_chain(PARAMS, BUDGET)
    for t in GRID:
        bound = qcrb_numeric_gaussian(float(t), PARAMS, BUDGET, chain=chain).var_n
        measured = transmission_variance(chain, float(t))
        assert measured == pytest.approx(bound, rel=1e-6)
        # fixed gains, discarding or fully subtracting the conjugate, from the
        # photon statistics of the full state
        assert four_by_four_transmission_variance(chain, float(t), 0.0) > bound * (1.0 + 1e-6)
        assert four_by_four_transmission_variance(chain, float(t), 1.0) > bound * (1.0 + 1e-6)
    report(4, "optimized measurement saturates the bound")


def test_criterion_05_headline_numbers(tmp_path):
    coherent = qcrb_coherent(0.84, 1.0, BUDGET.eta_p).var_n
    advantage = coherent / qcrb_distributed(0.84, 1.0, PARAMS, BUDGET).var_n
    assert advantage == pytest.approx(2.6, abs=0.1)
    to_ultimate = (
        qcrb_distributed(0.84, 1.0, PARAMS, BUDGET).var_n
        / qcrb_ultimate(0.84, 1.0, BUDGET).var_n
    )
    assert to_ultimate == pytest.approx(1.7, abs=0.1)
    detected = apply_loss(converged_source(PARAMS).state, ChannelOp([0.919, 0.919]))
    db = -10.0 * math.log10(noise_triple(detected).diff)
    assert db == pytest.approx(8.0, abs=1.5)
    # the paper's 62% reduction at T = 0.84, read from the default config's bounds file
    config, out = tmp_path / "config.txt", tmp_path / "bounds.csv"
    config.write_text("T_grid = 0.84\n")
    assert main(["bounds", "--config", str(config), "--out", str(out)]) == 0
    header, row = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    columns = dict(zip(header.split(","), map(float, row.split(","))))
    reductions = [
        1.0 - columns[name] / columns["coherent"] for name in ("btmss_closed", "btmss_numeric")
    ]
    for reduction in reductions:
        assert reduction == pytest.approx(0.62, abs=0.01)
    report(5, f"headline numbers (advantage {advantage:.2f}, ultimate ratio "
              f"{to_ultimate:.2f}, detected squeezing {db:.2f} dB, reduction "
              f"{reductions[0]:.4f} closed, {reductions[1]:.4f} numeric)")


def test_criterion_06_spectrum_analyzer_fixtures():
    gauss = FilterModel(kind="gaussian", rbw=51e3)
    sync4 = FilterModel(kind="sync_tuned", rbw=51e3, poles=4)
    closed = effective_time(gauss) * 51e3
    quad = quadrature_effective_time(gauss) * 51e3
    assert closed == pytest.approx(0.4697, rel=0.01)
    assert quad == pytest.approx(closed, rel=0.01)
    assert effective_time(sync4) * 51e3 == pytest.approx(0.44, rel=0.02)
    assert effective_time(sync4) == pytest.approx(8.63e-6, rel=0.02)
    fs, n = 8e6, 2**20
    t = np.arange(n) / fs
    amplitude = 0.6
    tone = amplitude * np.sin(2 * math.pi * 1.5e6 * t + 0.4)
    out = sa_chain_simulate(tone, fs, sync4, 1.5e6)
    assert out == pytest.approx(amplitude**2 / 8.0, rel=0.01)
    report(6, "spectrum-analyzer timing and K-factor fixtures")


def test_criterion_07_monte_carlo_ramp():
    start = time.perf_counter()
    sync4 = FilterModel(kind="sync_tuned", rbw=51e3, poles=4)
    chain = build_chain(PARAMS, BUDGET)
    t_bin = effective_time(sync4)
    for index, t in enumerate((0.15, 0.5, 0.84)):
        var_t = transmission_variance(chain, t)
        plan = MeasurementPlan(
            filter=sync4, trials=10_000, rng_seed=1000 + index, ramp_duration=10_000 * t_bin
        )
        ramp = snr_ramp_simulate(
            plan, linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration), var_t
        )
        assert ramp.delta_T_at_snr1 == pytest.approx(math.sqrt(var_t), rel=0.05)
        again = snr_ramp_simulate(
            plan, linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration), var_t
        )
        assert again.delta_T_at_snr1 == ramp.delta_T_at_snr1
        assert np.array_equal(again.snr_trace, ramp.snr_trace)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(7, f"Monte Carlo ramp within 5% ({elapsed:.1f} s)")


def test_criterion_08_inference_roundtrip_and_coverage():
    # noiseless round trip
    clean = synthetic_noise_measurements(2.04, 0.71, ETAS, rel_sigma=0.012)
    fit = fit_source(clean, DEConfig(population=500, rng_seed=5, spread_tol=1e-7,
                                     max_generations=600))
    assert fit.s == pytest.approx(2.04, abs=1e-3)
    assert fit.T_a == pytest.approx(0.71, abs=1e-3)

    # bounds respected on every objective evaluation
    seen = []

    def recording(points):
        seen.append(np.asarray(points))
        return chi_square_batch([m for m in map(_backtracked, clean)], points)

    differential_evolution(recording, DEConfig(population=64, rng_seed=9, spread_tol=1e-5,
                                               max_generations=150))
    stacked = np.vstack(seen)
    assert np.all(stacked[:, 0] >= 0.0) and np.all(stacked[:, 0] <= 3.0)
    assert np.all(stacked[:, 1] >= 0.5) and np.all(stacked[:, 1] <= 1.0)

    # coverage: 500 perturbed runs recover within the +-0.02 windows
    hits = 0
    runs = 500
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for run in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence([424242, run]))
            measurements = synthetic_noise_measurements(
                2.04, 0.71, ETAS, rel_sigma=0.012, rng=rng
            )
            config = DEConfig(
                population=96, rng_seed=run, spread_tol=1e-5, max_generations=300
            )
            result = fit_source(measurements, config)
            if abs(result.s - 2.04) <= 0.02 and abs(result.T_a - 0.71) <= 0.02:
                hits += 1
    assert hits >= 0.68 * runs, f"coverage {hits}/{runs}"
    report(8, f"inference round trip and coverage ({hits}/{runs}; the lab-fit "
              "chi-square 0.4563 and measured gain 11.4 are context anchors, not targets)")


def _backtracked(measurement):
    from qcrbench.inference import backtrack_measurement

    return backtrack_measurement(measurement)


def test_criterion_09_photon_accounting():
    photons = photons_from_voltage(80e-6, 1.0, 795e-9, 8.63e-6)
    assert photons == pytest.approx(2.8e9, rel=0.02)
    assert 9.0 <= math.log10(photons) < 9.7
    report(9, f"photon accounting ({photons:.3e} photons)")


def test_criterion_10_printed_formula_audit():
    worst_conj = 0.0
    for s in np.linspace(0.1, 2.5, 13):
        for ta in np.linspace(0.6, 1.0, 9):
            converged = converged_source(SourceParams(s=float(s), T_a=float(ta)))
            oracle = noise_triple(converged.state).conj
            worst_conj = max(worst_conj, abs(analytic_noises(s, ta).conj - oracle) / oracle)
    assert worst_conj < 1e-4
    # the printed intensity-difference formula must be flagged as divergent:
    # at high squeezing it tends to 3/4 while the oracle falls like sech(2s)
    divergences = []
    for s in np.linspace(0.5, 2.5, 9):
        for ta in np.linspace(0.6, 1.0, 5):
            oracle = float(continuum_noises(s, ta).diff)
            divergences.append(abs(analytic_noises(s, ta).diff - oracle) / oracle)
    assert max(divergences) > 1.0, "printed difference formula unexpectedly agrees"
    report(10, f"formula audit (conj within {worst_conj:.1e}; printed difference "
               f"formula diverges by up to {max(divergences):.1f}x, documented)")
