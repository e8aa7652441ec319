"""shortgp: reliable Gaussian-process regression for many short time series.

Fitting a GP independently to each of thousands of short series invites
over-fitting: maximum-likelihood estimates often collapse onto tiny
length-scales and near-zero noise.  This package constrains the
length-scale from below so that a chosen fraction of the kernel's spectral
energy stays under the Nyquist frequency of the sampling grid, optionally
boxes or fixes the noise variance, and ships a batch harness that measures
how much those constraints help.
"""

from .bound import (
    SamplingInfo,
    delta_t_from_times,
    length_scale_bound,
    matern_energy_fraction,
    se_energy_fraction,
)
from .fitting import (
    AllStartsFailedError,
    Diagnostics,
    FitResult,
    Scenario,
    diagnose,
    fit,
    likelihood_surface,
    make_expression_scenarios,
    make_scenarios,
    result_noise_model,
)
from .gp import (
    Posterior,
    log_marginal_likelihood,
    log_marginal_likelihood_and_gradient,
    mse,
    posterior_at,
    predictive_log_likelihood,
)
from .harness import (
    BatchReport,
    CellStats,
    CsvFormatError,
    ReplicateRecord,
    SyntheticConfig,
    emit_fit_plotdata,
    emit_report,
    export_csv,
    generate_sinc_series,
    ingest_csv,
    load_config,
    run_batch,
    run_synthetic_experiment,
    sinc,
)
from .kernels import (
    FactorizationError,
    KernelSpec,
    covariance,
    covariance_matrix,
    factor_covariance,
    spectral_density,
)
from .series import NoiseModel, TimeSeries

__version__ = "0.1.0"

__all__ = [
    "AllStartsFailedError",
    "BatchReport",
    "CellStats",
    "CsvFormatError",
    "Diagnostics",
    "FactorizationError",
    "FitResult",
    "KernelSpec",
    "NoiseModel",
    "Posterior",
    "ReplicateRecord",
    "SamplingInfo",
    "Scenario",
    "SyntheticConfig",
    "TimeSeries",
    "covariance",
    "covariance_matrix",
    "delta_t_from_times",
    "diagnose",
    "emit_fit_plotdata",
    "emit_report",
    "export_csv",
    "factor_covariance",
    "fit",
    "generate_sinc_series",
    "ingest_csv",
    "length_scale_bound",
    "likelihood_surface",
    "load_config",
    "log_marginal_likelihood",
    "log_marginal_likelihood_and_gradient",
    "make_expression_scenarios",
    "make_scenarios",
    "matern_energy_fraction",
    "mse",
    "posterior_at",
    "predictive_log_likelihood",
    "result_noise_model",
    "run_batch",
    "run_synthetic_experiment",
    "se_energy_fraction",
    "sinc",
    "spectral_density",
]
