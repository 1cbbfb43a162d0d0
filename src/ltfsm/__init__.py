"""Simulation of symmetric alpha-stable processes via shot-noise series.

The flagship model is the local-time fractional stable motion: a stable
process directed by the occupation density of an independent fractional
Brownian motion.  The package provides

* deterministic, splittable random streams (:mod:`ltfsm.streams`),
* exact fractional Brownian motion sampling (:mod:`ltfsm.fbm`),
* kernel-smoothed occupation measures (:mod:`ltfsm.localtime`),
* the error budgets of the truncated shot-noise series
  (:mod:`ltfsm.shotnoise`),
* the epsilon-driven tuning and path simulators (:mod:`ltfsm.process`),
* Monte Carlo validation statistics (:mod:`ltfsm.validation`) and batched
  experiment drivers (:mod:`ltfsm.experiments`),
* a command line front end (``ltfsm``, :mod:`ltfsm.cli`).
"""

__version__ = "0.1.0"

from .streams import RandomStream, poisson_arrivals
from .oracle import sample_stable_oracle
from .fbm import (
    EmbeddingError,
    FbmPath,
    fbm_covariance,
    fbm_path,
    fgn_from_noise,
    increment_autocovariance,
)
from .localtime import (
    OccupationCurve,
    discretized_occupation,
    grid_index,
    kernel_phi,
    kernel_phi_k,
    occupation_oracle,
)
from .shotnoise import (
    BoundReport,
    approximation_bound,
    approximation_bound_lp,
    bound_B_q,
    bound_H_nq,
    build_bound_report,
    truncation_bound,
    truncation_bound_lp,
)
from .process import (
    ConfigError,
    SamplePath,
    SeriesConfig,
    TuningParams,
    flat_params,
    gaussian_density_weight,
    laplace_weight,
    simulate_ltfsm,
    simulate_rwrr_baseline,
    tune,
)
from .validation import (
    CfEstimate,
    empirical_cf,
    fit_scale_by_cf,
    holder_exponent_estimate,
    ks_distance,
    linreg_r2,
)
from .experiments import (
    CfLinearityResult,
    MarginalCheckResult,
    cf_linearity_experiment,
    lepage_marginal_samples,
    representation_cf_table,
    rwrr_path_ensemble,
    series_path_ensemble,
    stable_marginal_check,
    tail_moment_sweep,
)

__all__ = [
    "__version__",
    "RandomStream",
    "poisson_arrivals",
    "sample_stable_oracle",
    "EmbeddingError",
    "FbmPath",
    "fbm_covariance",
    "fbm_path",
    "fgn_from_noise",
    "increment_autocovariance",
    "OccupationCurve",
    "discretized_occupation",
    "grid_index",
    "kernel_phi",
    "kernel_phi_k",
    "occupation_oracle",
    "BoundReport",
    "approximation_bound",
    "approximation_bound_lp",
    "bound_B_q",
    "bound_H_nq",
    "build_bound_report",
    "truncation_bound",
    "truncation_bound_lp",
    "ConfigError",
    "SamplePath",
    "SeriesConfig",
    "TuningParams",
    "flat_params",
    "gaussian_density_weight",
    "laplace_weight",
    "simulate_ltfsm",
    "simulate_rwrr_baseline",
    "tune",
    "CfEstimate",
    "empirical_cf",
    "fit_scale_by_cf",
    "holder_exponent_estimate",
    "ks_distance",
    "linreg_r2",
    "CfLinearityResult",
    "MarginalCheckResult",
    "cf_linearity_experiment",
    "lepage_marginal_samples",
    "representation_cf_table",
    "rwrr_path_ensemble",
    "series_path_ensemble",
    "stable_marginal_check",
    "tail_moment_sweep",
]
