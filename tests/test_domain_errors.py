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


def _transmission_variance(T, n_r=1.0):
    return detection.transmission_variance(build_chain(PARAMS, BUDGET), T, n_r)


def _fit_source(noise_model):
    measurements = inference.synthetic_noise_measurements(2.04, 0.71, ETAS)
    config = inference.DEConfig(population=8, max_generations=1)
    return inference.fit_source(measurements, config, noise_model=noise_model)


def _chi_square_batch(noise_model):
    measurements = inference.synthetic_noise_measurements(2.04, 0.71, ETAS)
    return inference.chi_square_batch(measurements, np.array([[2.04, 0.71]]), noise_model)


def _contour(dof):
    def objective(points):
        return np.zeros(len(points))

    return inference.uncertainty_by_chi2_doubling(
        objective, np.array([1.0, 0.7]), 0.0, dof, ((0.0, 3.0), (0.5, 1.0))
    )


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
        lambda: bounds.qcrb_numeric_gaussian(0.5, PARAMS, BUDGET, float("nan")),
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
    "linear-ramp-negative-amplitude": (
        lambda: detection.linear_ramp(-1.0, 1.0),
        "ramp needs a non-negative amplitude and positive duration",
    ),
    "linear-ramp-duration-0": (
        lambda: detection.linear_ramp(1.0, 0.0),
        "ramp needs a non-negative amplitude and positive duration",
    ),
    "sa-chain-2d-series": (
        lambda: detection.sa_chain_simulate(np.zeros((2, 8)), 1e6, SYNC4, 1e3),
        "input series must be a 1-D array",
    ),
    "sa-chain-one-sample": (
        lambda: detection.sa_chain_simulate(np.zeros(1), 1e6, SYNC4, 1e3),
        "input series must be a 1-D array",
    ),
    "photons-negative-voltage": (
        lambda: detection.photons_from_voltage(-1.0, 1e3, 795e-9, 1e-5),
        "voltage, wavelength, and time must be non-negative",
    ),
    "photons-zero-wavelength": (
        lambda: detection.photons_from_voltage(1.0, 1e3, 0.0, 1e-5),
        "voltage, wavelength, and time must be non-negative",
    ),
    "photons-negative-time": (
        lambda: detection.photons_from_voltage(1.0, 1e3, 795e-9, -1e-5),
        "voltage, wavelength, and time must be non-negative",
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
