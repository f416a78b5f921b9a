"""Library inputs outside their domain raise `ValueError` with a message naming the fault."""

import re

import numpy as np
import pytest

from qcrbench import bounds, detection, gaussian, inference, source
from qcrbench.bounds import LossBudget, build_chain
from qcrbench.detection import FilterModel, MeasurementPlan
from qcrbench.source import SourceParams

PARAMS = SourceParams(s=2.04, T_a=0.71)
BUDGET = LossBudget(T_p=0.973, eta_p=0.945, eta_c=0.919)
SYNC4 = FilterModel(kind="sync_tuned", rbw=51e3, poles=4)
ETAS = {"diff": 0.919, "probe": 0.973 * 0.945, "conj": 0.919}
NAN, INF = float("nan"), float("inf")
RAMP = "ramp needs a finite non-negative amplitude and finite positive duration"
PHOTONS = "voltage and time must be non-negative, wavelength positive, all finite"
RESPONSIVITY = "detector responsivity must be positive and finite"


def _transmission_variance(T, n_r=1.0):
    return detection.transmission_variance(build_chain(PARAMS, BUDGET), T, n_r)


def _photons(**overrides):
    arguments = {"v_dc": 1.0, "volts_per_watt": 1e3, "wavelength": 795e-9, "t": 1e-5}
    return detection.photons_from_voltage(**{**arguments, **overrides})


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
    return f"bounds must be two (lo, hi) pairs inside s >= 0, 0 < T_a <= 1, not {bounds!r}"


# (call, message): each call raises ValueError with exactly this message
DOMAIN_ERRORS = {
    "coherent-T-below-0": (
        lambda: bounds.qcrb_coherent(-0.1, 1.0, 0.945),
        "transmission T must lie in [0, 1]",
    ),
    "pure-T-above-1": (
        lambda: bounds.qcrb_pure_btmss(1.5, 1.0, 2.04, BUDGET),
        "transmission T must lie in [0, 1]",
    ),
    "distributed-n_r-0": (
        lambda: bounds.qcrb_distributed(0.5, 0.0, PARAMS, BUDGET),
        "probing photon number must be positive",
    ),
    "ultimate-n_r-negative": (
        lambda: bounds.qcrb_ultimate(0.5, -1.0, BUDGET),
        "probing photon number must be positive",
    ),
    "numeric-n_r-nan": (
        lambda: bounds.qcrb_numeric_gaussian(
            0.5, PARAMS, BUDGET, float("nan"), chain=build_chain(PARAMS, BUDGET)
        ),
        "probing photon number must be positive",
    ),
    "distributed-factor-eta_c-above-1": (
        lambda: bounds.conjugate_factor_distributed(1.5, 2.04, 0.71),
        "eta_c must lie in [0, 1]",
    ),
    "transmission-variance-T-0": (
        lambda: _transmission_variance(0.0),
        "transmission T must lie in (0, 1]",
    ),
    "transmission-variance-n_r-0": (
        lambda: _transmission_variance(0.5, 0.0),
        "probing photon number must be positive",
    ),
    "plan-ramp-duration-0": (
        lambda: MeasurementPlan(filter=SYNC4, trials=100, rng_seed=0, ramp_duration=0.0),
        "ramp duration must be positive",
    ),
    "linear-ramp-negative-amplitude": (lambda: detection.linear_ramp(-1.0, 1.0), RAMP),
    "linear-ramp-duration-0": (lambda: detection.linear_ramp(1.0, 0.0), RAMP),
    "linear-ramp-nan-amplitude": (lambda: detection.linear_ramp(NAN, 1.0), RAMP),
    "linear-ramp-inf-amplitude": (lambda: detection.linear_ramp(INF, 1.0), RAMP),
    "linear-ramp-nan-duration": (lambda: detection.linear_ramp(1.0, NAN), RAMP),
    "linear-ramp-inf-duration": (lambda: detection.linear_ramp(1.0, INF), RAMP),
    "sa-chain-2d-series": (
        lambda: detection.sa_chain_simulate(np.zeros((2, 8)), 1e6, SYNC4, 1e3),
        "input series must be a 1-D array",
    ),
    "sa-chain-one-sample": (
        lambda: detection.sa_chain_simulate(np.zeros(1), 1e6, SYNC4, 1e3),
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
    "de-acceptance-above-1": (
        lambda: inference.DEConfig(acceptance_prob=1.5),
        "acceptance probability must lie in [0, 1]",
    ),
    "contour-dof-0": (lambda: _contour(0), "need at least one degree of freedom"),
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
