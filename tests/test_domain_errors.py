"""Library inputs outside their domain raise `ValueError` with a message naming the fault.

The rows of `errors.DOMAIN` are tested here end by end, at every entry point
that reads them, and against the README's config table.
"""

import math
import os
import re

import numpy as np
import pytest

import oracles
from oracles import edges
from qcrbench import bounds, cli, detection, gaussian, inference, source
from qcrbench.bounds import LossBudget, build_chain
from qcrbench.config import KEY_ROWS, parse_config_text
from qcrbench.detection import FilterModel, MeasurementPlan
from qcrbench.errors import DOMAIN, ConfigError
from qcrbench.source import SourceParams

PARAMS = SourceParams(s=2.04, T_a=0.71)
BUDGET = LossBudget(T_p=0.973, eta_p=0.945, eta_c=0.919)
SYNC4 = FilterModel(kind="sync_tuned", rbw=51e3, poles=4)
ETAS = {"diff": 0.919, "probe": 0.973 * 0.945, "conj": 0.919}
NAN, INF = float("nan"), float("inf")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
AMPLITUDE = "initial_amplitude must be finite and non-negative, not "
DURATION = "ramp_duration must be finite and positive, not "
PHOTONS = "voltage and time must be non-negative, wavelength positive, all finite"
RESPONSIVITY = "detector responsivity must be positive and finite"


def _transmission_variance(T, n_r=1.0):
    return detection.transmission_variance(build_chain(PARAMS, BUDGET), T, n_r)


def _photons(**overrides):
    arguments = {"v_dc": 1.0, "volts_per_watt": 1e3, "wavelength": 795e-9, "t": 1e-5}
    return oracles.photons_from_voltage(**{**arguments, **overrides})


def _fit_source(noise_model="numeric_oracle", bounds=((0.0, 3.0), (0.5, 1.0))):
    measurements = inference.synthetic_noise_measurements(2.04, 0.71, ETAS)
    config = inference.DEConfig(population=8, max_generations=1, bounds=bounds)
    return inference.fit_source(measurements, config, noise_model=noise_model)


def _chi_square_batch(noise_model):
    measurements = inference.synthetic_noise_measurements(2.04, 0.71, ETAS)
    return inference.chi_square_batch(measurements, np.array([[2.04, 0.71]]), noise_model)


def _contour(dof=1, chi2_min=0.0, **rays):
    def objective(points):
        return np.zeros(len(points))

    return inference.uncertainty_by_chi2_doubling(
        objective, np.array([1.0, 0.7]), chi2_min, dof, ((0.0, 3.0), (0.5, 1.0)), **rays
    )


def _fit_box(bounds):
    inside = "inside s in [0, inf) and T_a in (0, 1]"
    return f"bounds must be two (lo, hi) pairs {inside}, not {bounds!r}"


# (call, message): each call raises ValueError with exactly this message
DOMAIN_ERRORS = {
    "coherent-T-below-0": (
        lambda: bounds.qcrb_coherent(-0.1, 1.0, 0.945),
        "T must lie in [0, 1], not -0.1",
    ),
    "pure-T-above-1": (
        lambda: oracles.qcrb_pure_btmss(1.5, 1.0, 2.04, BUDGET),
        "T must lie in [0, 1], not 1.5",
    ),
    "distributed-n_r-0": (
        lambda: bounds.qcrb_distributed(0.5, 0.0, PARAMS, BUDGET),
        "n_r must be finite and positive, not 0.0",
    ),
    "ultimate-n_r-negative": (
        lambda: bounds.qcrb_ultimate(0.5, -1.0, BUDGET),
        "n_r must be finite and positive, not -1.0",
    ),
    "numeric-n_r-nan": (
        lambda: bounds.qcrb_numeric_gaussian(
            0.5, PARAMS, BUDGET, float("nan"), chain=build_chain(PARAMS, BUDGET)
        ),
        "n_r must be finite and positive, not nan",
    ),
    # the distributed bound reads its budget's eta_c in the conjugate factor only
    "distributed-factor-eta_c-above-1": (
        lambda: bounds.qcrb_distributed(0.5, 1.0, PARAMS, _budget(eta_c=1.5)),
        "eta_c must lie in [0, 1], not 1.5",
    ),
    "transmission-variance-T-0": (
        lambda: _transmission_variance(0.0),
        "T must lie in (0, 1], not 0.0",
    ),
    "transmission-variance-n_r-0": (
        lambda: _transmission_variance(0.5, 0.0),
        "n_r must be finite and positive, not 0.0",
    ),
    "plan-ramp-duration-0": (
        lambda: MeasurementPlan(filter=SYNC4, trials=100, rng_seed=0, ramp_duration=0.0),
        DURATION + "0.0",
    ),
    "linear-ramp-negative-amplitude": (
        lambda: detection.linear_ramp(-1.0, 1.0),
        AMPLITUDE + "-1.0",
    ),
    "linear-ramp-duration-0": (lambda: detection.linear_ramp(1.0, 0.0), DURATION + "0.0"),
    "linear-ramp-nan-amplitude": (lambda: detection.linear_ramp(NAN, 1.0), AMPLITUDE + "nan"),
    "linear-ramp-inf-amplitude": (lambda: detection.linear_ramp(INF, 1.0), AMPLITUDE + "inf"),
    "linear-ramp-nan-duration": (lambda: detection.linear_ramp(1.0, NAN), DURATION + "nan"),
    "linear-ramp-inf-duration": (lambda: detection.linear_ramp(1.0, INF), DURATION + "inf"),
    "sa-chain-2d-series": (
        lambda: oracles.sa_chain_simulate(np.zeros((2, 8)), 1e6, SYNC4, 1e3),
        "input series must be a 1-D array",
    ),
    "sa-chain-one-sample": (
        lambda: oracles.sa_chain_simulate(np.zeros(1), 1e6, SYNC4, 1e3),
        "input series must be a 1-D array",
    ),
    "photons-negative-voltage": (lambda: _photons(v_dc=-1.0), PHOTONS),
    "photons-zero-wavelength": (lambda: _photons(wavelength=0.0), PHOTONS),
    "photons-negative-time": (lambda: _photons(t=-1e-5), PHOTONS),
    "photons-nan-voltage": (lambda: _photons(v_dc=NAN), PHOTONS),
    "photons-inf-voltage": (lambda: _photons(v_dc=INF), PHOTONS),
    "photons-nan-wavelength": (lambda: _photons(wavelength=NAN), PHOTONS),
    "photons-inf-wavelength": (lambda: _photons(wavelength=INF), PHOTONS),
    "photons-nan-time": (lambda: _photons(t=NAN), PHOTONS),
    "photons-inf-time": (lambda: _photons(t=INF), PHOTONS),
    "photons-nan-responsivity": (lambda: _photons(volts_per_watt=NAN), RESPONSIVITY),
    "photons-inf-responsivity": (lambda: _photons(volts_per_watt=INF), RESPONSIVITY),
    "photons-overflow": (
        lambda: _photons(v_dc=1e300, volts_per_watt=1e-300),
        "photon number overflows double precision",
    ),
    # the flux overflows to inf, and inf * 0 would be NaN
    "photons-overflow-at-time-0": (
        lambda: _photons(v_dc=1e300, volts_per_watt=1e-300, t=0.0),
        "photon number overflows double precision",
    ),
    "de-falling-bound": (
        lambda: inference.DEConfig(bounds=((0.0, 3.0), (1.0, 0.5))),
        "each bound must be a finite (lo, hi) with lo < hi",
    ),
    "de-infinite-bound": (
        lambda: inference.DEConfig(bounds=((0.0, np.inf), (0.5, 1.0))),
        "each bound must be a finite (lo, hi) with lo < hi",
    ),
    "de-bounds-not-pairs": (
        lambda: inference.DEConfig(bounds=5),
        "each bound must be a finite (lo, hi) with lo < hi",
    ),
    "de-bounds-triple": (
        lambda: inference.DEConfig(bounds=((0.0, 1.0, 2.0),)),
        "each bound must be a finite (lo, hi) with lo < hi",
    ),
    "de-acceptance-bool": (
        lambda: inference.DEConfig(acceptance_prob=True),
        "acceptance_prob must be a real number, not True",
    ),
    "budget-T_p-bool": (
        lambda: LossBudget(T_p=True, eta_p=0.945, eta_c=0.919),
        "T_p must be a real number, not True",
    ),
    "source-s-bool": (
        lambda: SourceParams(s=True, T_a=0.71),
        "s must be a real number, not True",
    ),
    "filter-rbw-bool": (
        lambda: FilterModel(kind="gaussian", rbw=True),
        "rbw must be a real number, not True",
    ),
    "coherent-T-bool": (
        lambda: bounds.qcrb_coherent(True, 1.0, 0.9),
        "T must be a real number, not True",
    ),
    "coherent-T-array": (
        lambda: bounds.qcrb_coherent(np.array([0.5, 0.6]), 1.0, 0.9),
        "T must be a scalar, not array([0.5, 0.6])",
    ),
    "plan-ramp-duration-inf": (
        lambda: MeasurementPlan(filter=SYNC4, trials=100, rng_seed=0, ramp_duration=INF),
        DURATION + "inf",
    ),
    "plan-ramp-duration-array": (
        lambda: MeasurementPlan(
            filter=SYNC4, trials=100, rng_seed=0, ramp_duration=np.array([1.0, 2.0])
        ),
        "ramp_duration must be a scalar, not array([1., 2.])",
    ),
    "distributed-n_r-inf": (
        lambda: bounds.qcrb_distributed(0.5, INF, PARAMS, BUDGET),
        "n_r must be finite and positive, not inf",
    ),
    "transmission-variance-n_r-inf": (
        lambda: _transmission_variance(0.5, INF),
        "n_r must be finite and positive, not inf",
    ),
    "de-acceptance-above-1": (
        lambda: inference.DEConfig(acceptance_prob=1.5),
        "acceptance_prob must lie in [0, 1], not 1.5",
    ),
    "contour-dof-0": (lambda: _contour(0), "dof must be at least 1, not 0"),
    "contour-n_rays-0": (lambda: _contour(n_rays=0), "n_rays must be at least 1, not 0"),
    "contour-n_rays-fraction": (
        lambda: _contour(n_rays=2.5),
        "n_rays must be an integer, not 2.5",
    ),
    "contour-bisection_steps-negative": (
        lambda: _contour(bisection_steps=-1),
        "bisection_steps must be non-negative, not -1",
    ),
    "contour-bisection_steps-fraction": (
        lambda: _contour(bisection_steps=7.0),
        "bisection_steps must be an integer, not 7.0",
    ),
    "contour-chi2_min-nan": (
        lambda: _contour(chi2_min=NAN),
        "chi2_min must be finite and non-negative, not nan",
    ),
    "contour-chi2_min-inf": (
        lambda: _contour(chi2_min=INF),
        "chi2_min must be finite and non-negative, not inf",
    ),
    "contour-chi2_min-negative": (
        lambda: _contour(chi2_min=-1.0),
        "chi2_min must be finite and non-negative, not -1.0",
    ),
    "fit-box-one-parameter": (
        lambda: _fit_source(bounds=((0.0, 3.0),)),
        _fit_box(((0.0, 3.0),)),
    ),
    "fit-box-three-parameters": (
        lambda: _fit_source(bounds=((0.0, 3.0), (0.5, 1.0), (0.0, 1.0))),
        _fit_box(((0.0, 3.0), (0.5, 1.0), (0.0, 1.0))),
    ),
    "fit-box-negative-s": (
        lambda: _fit_source(bounds=((-1.0, 3.0), (0.5, 1.0))),
        _fit_box(((-1.0, 3.0), (0.5, 1.0))),
    ),
    "fit-box-T_a-from-0": (
        lambda: _fit_source(bounds=((0.0, 3.0), (0.0, 1.0))),
        _fit_box(((0.0, 3.0), (0.0, 1.0))),
    ),
    "fit-box-T_a-above-1": (
        lambda: _fit_source(bounds=((0.0, 3.0), (0.5, 2.0))),
        _fit_box(((0.0, 3.0), (0.5, 2.0))),
    ),
    "fit-unknown-noise-model": (
        lambda: _fit_source("bogus"),
        "unknown noise model 'bogus'",
    ),
    "chi-square-unknown-noise-model": (
        lambda: _chi_square_batch("bogus"),
        "unknown noise model 'bogus'",
    ),
    "state-odd-displacement": (
        lambda: gaussian.GaussianState(np.zeros(3), np.eye(3)),
        "displacement must be a vector of even length 2M",
    ),
    "state-covariance-shape": (
        lambda: gaussian.GaussianState(np.zeros(4), np.eye(2)),
        "covariance shape does not match the displacement",
    ),
    "symplectic-odd-matrix": (
        lambda: gaussian.SymplecticOp(np.eye(3)),
        "map must be a square 2M x 2M matrix",
    ),
    "channel-matrix-of-transmissions": (
        lambda: gaussian.ChannelOp(np.ones((2, 2))),
        "need one transmission per mode",
    ),
    "layered-unknown-splitting": (
        lambda: source.layered_source(PARAMS, 4, "bogus"),
        "unknown splitting 'bogus'",
    ),
}


@pytest.mark.parametrize("case", DOMAIN_ERRORS)
def test_domain_error_names_its_fault(case):
    call, message = DOMAIN_ERRORS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


KIND = "config key 'filter_kind'"
SYNC = "is not gaussian or sync<poles>"

# (config line, message): a config number is ASCII without underscores, and
# the poles of sync<poles> are ASCII digits; a sign is part of a number
CONFIG_ERRORS = {
    "seed-underscore": ("seed = 1_000", "config key 'seed': '1_000' is not an integer"),
    "s-underscore": ("s = 1_0e-1", "config key 's': '1_0e-1' is not a number"),
    "grid-underscore": ("T_grid = 0.1,0_5", "config key 'T_grid': '0_5' is not a number"),
    "seed-arabic-indic": ("seed = \u0661", "config key 'seed': '\u0661' is not an integer"),
    "n_r-fullwidth": ("n_r = \uff11", "config key 'n_r': '\uff11' is not a number"),
    "sync-plus": ("filter_kind = sync+4", f"{KIND}: 'sync+4' {SYNC}"),
    "sync-blank": ("filter_kind = sync 4", f"{KIND}: 'sync 4' {SYNC}"),
    "sync-arabic-indic": ("filter_kind = sync\u0664", f"{KIND}: 'sync\u0664' {SYNC}"),
    "sync-superscript": ("filter_kind = sync\u00b2", f"{KIND}: 'sync\u00b2' {SYNC}"),
    # more digits than int() converts: the line of any other malformed kind
    "sync-past-int-digits": (
        "filter_kind = sync" + "9" * 5000,
        f"{KIND}: 'sync{'9' * 5000}' {SYNC}",
    ),
    # a pole count outside its row is named by the key, as any number is
    "sync-1001": ("filter_kind = sync1001", f"{KIND} must lie in [1, 1000], not 1001"),
    "seed-negative": ("seed = -1", "config key 'seed' must be non-negative, not -1"),
    "s-negative": ("s = -0.5", "config key 's' must lie in [0, 3.5], not -0.5"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_number_grammar(case, tmp_path, capsys):
    line, message = CONFIG_ERRORS[case]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(line + "\n")
    config = tmp_path / "config.txt"
    config.write_text(line + "\n", encoding="utf-8")
    assert cli.main(["bounds", "--config", str(config), "--out", os.devnull]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "line, value",
    [("seed = +5", 5), ("s = +.5", 0.5), ("s = 1E-1", 0.1)],
)
def test_config_number_grammar_keeps_signs_and_ascii_forms(line, value):
    config = parse_config_text(line + "\n")
    assert (config.seed if line.startswith("seed") else config.source.s) == value


def _in_interval(row, value) -> bool:
    """Whether a number lies in a row's interval, read off its text end by end."""
    above = value > row.low if row.interval[0] == "(" else value >= row.low
    below = value < row.high if row.interval[-1] == ")" else value <= row.high
    return bool(above and below)


def _probes(row):
    """(value, accepted) pairs: the edges, NaN, ±inf, bools, arrays and the other number type."""
    if row.integer:
        inner = int(row.low) + 1
        typed = [np.int64(inner), float(inner)]
    else:
        inner = 0.5 * (row.low + row.high) if row.high < math.inf else row.low + 1.0
        typed = [np.float64(inner), int(inner)]
    kinds = (int, np.integer) if row.integer else (int, float, np.integer, np.floating)
    numbers = edges(row) + [math.nan, math.inf, -math.inf] + typed
    probes = [(x, isinstance(x, kinds) and _in_interval(row, x)) for x in numbers]
    arrays = [(np.array(inner), True), (np.array([inner]), False)]
    return probes + [(True, False), (False, False)] + arrays


@pytest.mark.parametrize("key", DOMAIN)
def test_every_row_accepts_its_interval_and_names_its_field_otherwise(key):
    row = DOMAIN[key]
    for value, accepted in _probes(row):
        if accepted:
            assert row.check(value) is value, value
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(row.name)} must "):
                row.check(value)


_CHAIN = build_chain(PARAMS, BUDGET)
PLAN = MeasurementPlan(filter=SYNC4, trials=100, rng_seed=0)


def _budget(**field):
    return LossBudget(**{"T_p": 0.973, "eta_p": 0.945, "eta_c": 0.919, **field})


# the public entry points that read each row of the library
ENTRY_POINTS = {
    "s": [lambda v: SourceParams(s=v, T_a=0.71)],
    "T_a": [lambda v: SourceParams(s=2.04, T_a=v)],
    "seed_photons": [lambda v: SourceParams(s=2.04, T_a=0.71, seed_photons=v)],
    "bright seed_photons": [
        lambda v: build_chain(SourceParams(s=2.04, T_a=0.71, seed_photons=v), BUDGET)
    ],
    "T_p": [lambda v: _budget(T_p=v)],
    "eta_p": [lambda v: _budget(eta_p=v)],
    "eta_c": [lambda v: _budget(eta_c=v)],
    "positive eta_p": [lambda v: bounds.qcrb_coherent(0.5, 1.0, v)],
    "T": [
        lambda v: bounds.qcrb_coherent(v, 1.0, 0.945),
        lambda v: bounds.qcrb_distributed(v, 1.0, PARAMS, BUDGET),
        lambda v: bounds.qcrb_ultimate(v, 1.0, BUDGET),
        lambda v: _CHAIN.sector_at(v),
    ],
    "positive T": [
        lambda v: bounds.qcrb_numeric_gaussian(v, PARAMS, BUDGET, chain=_CHAIN),
        lambda v: detection.transmission_variance(_CHAIN, v),
    ],
    "n_r": [
        lambda v: bounds.qcrb_coherent(0.5, v, 0.945),
        lambda v: bounds.qcrb_distributed(0.5, v, PARAMS, BUDGET),
        lambda v: bounds.qcrb_ultimate(0.5, v, BUDGET),
        lambda v: bounds.qcrb_numeric_gaussian(0.5, PARAMS, BUDGET, v, chain=_CHAIN),
        lambda v: detection.transmission_variance(_CHAIN, 0.5, v),
    ],
    "rbw": [lambda v: FilterModel(kind="gaussian", rbw=v)],
    "poles": [lambda v: FilterModel(kind="sync_tuned", rbw=51e3, poles=v)],
    "trials": [lambda v: MeasurementPlan(filter=SYNC4, trials=v, rng_seed=0)],
    "rng_seed": [
        lambda v: MeasurementPlan(filter=SYNC4, trials=100, rng_seed=v),
        lambda v: inference.DEConfig(rng_seed=v),
    ],
    "ramp_duration": [
        lambda v: MeasurementPlan(filter=SYNC4, trials=100, rng_seed=0, ramp_duration=v),
        lambda v: detection.linear_ramp(1.0, v),
    ],
    "initial_amplitude": [lambda v: detection.linear_ramp(v, 1.0)],
    "population": [lambda v: inference.DEConfig(population=v)],
    "max_generations": [lambda v: inference.DEConfig(max_generations=v)],
    "acceptance_prob": [lambda v: inference.DEConfig(acceptance_prob=v)],
    "spread_tol": [lambda v: inference.DEConfig(spread_tol=v)],
    "dof": [lambda v: _contour(v)],
    "n_rays": [lambda v: _contour(n_rays=v)],
    "bisection_steps": [lambda v: _contour(bisection_steps=v)],
    "chi2_min": [lambda v: _contour(chi2_min=v)],
    "--trials": [lambda v: cli.cmd_simulate(parse_config_text(""), v, os.devnull, "csv")],
    "noise_variance": [lambda v: detection.snr_ramp_simulate(PLAN, lambda t: t, v)],
    "layers": [lambda v: source.layered_source(PARAMS, v)],
    "rel_tol": [lambda v: source.converged_source(PARAMS, rel_tol=v)],
}


@pytest.mark.parametrize("key", ENTRY_POINTS)
def test_every_entry_point_rejects_what_its_row_rejects(key):
    # a value its row rejects fails at each entry point that takes the field,
    # naming the field, before any other rule or any arithmetic sees it
    row = DOMAIN[key]
    for value, accepted in _probes(row):
        if accepted:
            continue
        for entry in ENTRY_POINTS[key]:
            with pytest.raises(ValueError, match=f"^{re.escape(row.name)} must "):
                entry(value)


def test_every_library_row_has_entry_points():
    # the rows the config alone reads are checked through `config.KEY_ROWS`
    config_only = {row.key for row in KEY_ROWS.values()} - set(ENTRY_POINTS)
    assert set(ENTRY_POINTS) | config_only == set(DOMAIN)
    assert config_only == {"capped s", "T_grid step"}


def _readme_domain_table() -> dict:
    """The README's config domain table, {key: (interval, type, exit code)}."""
    with open(README, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index("| key | interval | type | exit code |")
    table = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        key, interval, kind, code = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        table[key] = (interval, kind, code)
    return table


def test_readme_domain_table_is_the_config_rows():
    # a config value outside its row is a schema error, exit 3
    code = {
        key: (row.interval, "int" if row.integer else "float", "3") for key, row in KEY_ROWS.items()
    }
    assert _readme_domain_table() == code
