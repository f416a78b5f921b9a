"""Workbench for quantum-limited transmission estimation with bright
two-mode squeezed light: Gaussian-state machinery, a distributed-loss
squeezer source model, Cramér-Rao bound evaluation, a detection-chain
simulator, and source-parameter inference."""

from .bounds import (
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
from .config import WorkbenchConfig, load_config, parse_config_text
from .detection import (
    FilterModel,
    MeasurementPlan,
    RampResult,
    effective_time,
    linear_ramp,
    optimal_gain,
    photons_from_voltage,
    sa_chain_simulate,
    snr_ramp_simulate,
    transmission_variance,
)
from .errors import (
    BrightLimitError,
    ConfigError,
    ConvergenceError,
    NonPhysicalError,
    SchemaError,
    WorkbenchError,
)
from .gaussian import (
    ChannelOp,
    GaussianState,
    SymplecticOp,
    apply_loss,
    apply_symplectic,
    coherent_state,
    compose,
    mean_photon,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezer,
    vacuum_state,
)
from .inference import (
    DEConfig,
    DEResult,
    FitResult,
    NoiseMeasurement,
    backtrack_noise,
    chi_square,
    differential_evolution,
    fit_source,
    synthetic_noise_measurements,
    uncertainty_by_chi2_doubling,
)
from .source import (
    NoiseTriple,
    SourceOutput,
    SourceParams,
    analytic_noises,
    continuum_gain,
    continuum_noises,
    continuum_state,
    converged_source,
    layered_source,
    noise_triple,
    squeezing_db,
)

__version__ = "0.1.0"
